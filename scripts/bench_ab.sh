#!/usr/bin/env bash
# A/B driver for a performance claim (the choosing-metrics procedure):
#
#   scripts/bench_ab.sh <parent-ref> [pairs=10] [workload ...]
#
# exports <parent-ref> into a scratch directory, then runs
#
#   bash benchmark/run.sh --workload W --seed 41 --seconds 15 --trace 0
#
# on that export and on this checkout alternately — the side that goes first
# flips every pair — and prints, per workload and end-to-end metric, each
# side's median and quartiles, the ratio of the medians and how many pairs
# the change won — or, for a metric every run of a side reads identically (the
# exact cells, bits_per_value and rel_mse), a tie or the relative move beside
# that metric's bound from BENCHMARK.json: a deterministic cell has no pairs to
# win. After the table, one line per workload gives each side's attempted and
# failed operations summed over its runs, read from each run's final JSON
# line, and the failed share: a change must not raise it. It only invokes the
# benchmark; nothing under benchmark/ is read or written except through
# run.sh, and BENCHMARK.json is only read.
#
# The seed (41: not one the kernels were developed against) and the timed
# length (15 s, the value BENCHMARK.json fixes) are constants, so every claim
# is made at the benchmark's own coding point. Naming workloads after the pair
# count narrows the hour-long default of all five.
set -euo pipefail

parent=${1:?usage: scripts/bench_ab.sh <parent-ref> [pairs=10] [workload ...]}
pairs=${2:-10}
workloads=${*:3}
workloads=${workloads:-weights_encode weights_fetch serve_codec kv_stream grad_ring}
seed=41
seconds=15

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
dir=$(mktemp -d)
mkdir "$dir/parent"
# An export, not a worktree: it leaves nothing behind in .git.
git -C "$root" archive "$parent" | tar -x -C "$dir/parent"

log=$dir/runs.tsv ops=$dir/ops.tsv
: >"$log"
: >"$ops"
run() { # side checkout workload pair
	bash "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 |
		awk -v side="$1" -v w="$3" -v p="$4" -v ops="$ops" '
			# The final JSON line of a run: {"correct":…,"attempted":N,"failed":M,…}.
			/^\{"correct"/ {
				a = f = ""
				if (match($0, /"attempted":[0-9]+/)) a = substr($0, RSTART + 12, RLENGTH - 12)
				if (match($0, /"failed":[0-9]+/)) f = substr($0, RSTART + 9, RLENGTH - 9)
				print w "\t" side "\t" a "\t" f >>ops
				reported = 1
				next
			}
			$1 ~ /^(setup_s|raw_mbps|op_p50_ms|bits_per_value|rel_mse)$/ && $4 ~ /^(lower|higher)$/ { print w "\t" $1 "\t" $4 "\t" p "\t" side "\t" $2 }
			END { if (!reported) print w "\t" side "\t\t" >>ops }' >>"$log"
}

for w in $workloads; do
	for p in $(seq "$pairs"); do
		if ((p % 2)); then
			run parent "$dir/parent" "$w" "$p"
			run change "$root" "$w" "$p"
		else
			run change "$root" "$w" "$p"
			run parent "$dir/parent" "$w" "$p"
		fi
		echo "bench-ab: $w pair $p/$pairs done" >&2
	done
done

# One row per (workload, metric): medians, quartiles, ratio in the metric's
# own direction (> 1 means the change is better), pairs won.
sort -t$'\t' -k1,1 -k2,2 -k5,5 -k6,6g "$log" | awk -F'\t' '
function q(a, n, f,   i, x) { x = 1 + (n - 1) * f; i = int(x); return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i]) }
function exact(   move) { # both sides constant (the runs arrive sorted by value)
	move = 100 * (C[1] - P[1]) / P[1]
	printf "%-15s %-15s %-6s | parent %11.6g | change %11.6g | exact on all %d+%d runs: %s\n", wl, m, dir, P[1], C[1], np, nc,
		move == 0 ? "tie" : sprintf("%+.2f %% (%s) of a %g %% bound", move, (dir == "higher") == (move > 0) ? "better" : "worse", 100 * bound[m])
}
function paired(   r, wins, ties, i, mp, mc) {
	r = (mp = q(P, np, .5)) && (mc = q(C, nc, .5)) ? (dir == "higher" ? mc / mp : mp / mc) : 0
	wins = ties = 0
	for (i in pv) if (i in cv) {
		if (cv[i] == pv[i]) ties++
		else if ((dir == "higher") == (cv[i] > pv[i])) wins++
	}
	printf "%-15s %-15s %-6s | parent %11.6g [%11.6g %11.6g] | change %11.6g [%11.6g %11.6g] | x%.3f  won %d/%d%s\n",
		wl, m, dir, mp, q(P, np, .25), q(P, np, .75), mc, q(C, nc, .25), q(C, nc, .75), r, wins, np, ties ? " (" ties " ties)" : ""
}
function flush() {
	if (!key) return
	if (np > 1 && nc > 1 && P[1] == P[np] && C[1] == C[nc]) exact() # one run a side repeats nothing
	else paired()
	delete P; delete C; delete pv; delete cv; np = nc = 0
}
FNR == NR { # BENCHMARK.json, as committed: one key a line; only end_to_end metrics carry a bound
	if (match($0, /"name": *"[^"]+"/)) { name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name) }
	if (match($0, /"bound": *[0-9.]+/)) { v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); bound[name] = v }
	next
}
{
	if ($1 SUBSEP $2 != key) { flush(); key = $1 SUBSEP $2; wl = $1; m = $2; dir = $3 }
	if ($5 == "parent") { P[++np] = $6; pv[$4] = $6 } else { C[++nc] = $6; cv[$4] = $6 }
}
END { flush() }' "$root/BENCHMARK.json" -
# One line per workload: each side's attempted and failed operations over its
# runs, and the failed share. A run whose JSON line is missing counts as a run
# with no counts, and the line says how many runs reported.
awk -F'\t' '
!($1 in seen) { seen[$1]; order[++m] = $1 }
{ k = $1 SUBSEP $2; n[k]++; if ($3 != "") { r[k]++; a[k] += $3; f[k] += $4 } }
function side(w, s,   k) {
	k = w SUBSEP s
	return sprintf("%s attempted %8d failed %6d (share %.4g, %d of %d runs reported)", s, a[k], f[k], a[k] ? f[k] / a[k] : 0, r[k], n[k])
}
END { for (i = 1; i <= m; i++) printf "%-15s %-15s %-6s | %s | %s\n", order[i], "ops", "", side(order[i], "parent"), side(order[i], "change") }' "$ops"
echo "bench-ab: parent $parent vs working tree, seed $seed, ${seconds}s timed, $pairs pairs; raw runs in $log and $ops" >&2
