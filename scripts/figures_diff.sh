#!/usr/bin/env bash
# Figure A/B for a refactor that must not move a printed number:
#
#   scripts/figures_diff.sh <rev>
#
# exports <rev> into a scratch directory and runs, there and then in this
# checkout,
#
#   go run ./cmd/experiments -quick
#   go run ./examples/inference
#   go run ./examples/generation
#   go run ./examples/training
#   go run ./examples/codecstudy
#   go run ./cmd/trainsim -mode pp -method residual -steps 60
#
# then diffs the two outputs. Wall-clock readings are stripped first: the
# "(<id> took <duration>)" line after every table and the measured row of the
# throughput table. Any other difference, or a run that fails, exits non-zero.
# About 7.5 minutes a side on 2 CPUs, which is why `make ci` does not run it.
set -euo pipefail

rev=${1:?usage: scripts/figures_diff.sh <rev>}
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/rev"
# An export, not a worktree: it leaves nothing behind in .git.
git -C "$root" archive "$rev" | tar -x -C "$dir/rev"

figures() { # checkout output
	(
		cd "$1"
		go run ./cmd/experiments -quick
		go run ./examples/inference
		go run ./examples/generation
		go run ./examples/training
		go run ./examples/codecstudy
		go run ./cmd/trainsim -mode pp -method residual -steps 60
	) | grep -v -e '^(.* took .*)$' -e '^pure-Go software codec ' >"$2"
}

figures "$dir/rev" "$dir/rev.txt"
echo "figures-diff: $rev done" >&2
figures "$root" "$dir/tree.txt"
diff -u --label "$rev" --label "working tree" "$dir/rev.txt" "$dir/tree.txt"
echo "figures-diff: no difference" >&2
