// Command benchmark is the repository's benchmark (BENCHMARK.json): five
// closed-loop workloads over the codec, core, store, kv, serve, proxy and
// allreduce layers, every output verified, five end-to-end metrics reported by
// every workload, and a traced pass that times the calls into each layer from
// outside. README.md says why each workload exists and how the metrics
// interact.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's flags.
type config struct {
	workload string
	seed     int64
	timed    time.Duration
	trace    bool
	out      string
	aa       int
}

const (
	warmUp    = 2 * time.Second        // untimed, before the named workload's first measured pass
	lapWarmUp = 500 * time.Millisecond // and before a traced lap
	runCap    = 170 * time.Second      // a run must end within the contract's 180 s
)

func main() {
	var cfg config
	var seconds, trace int
	var manifest bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 265, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 15, "length of the timed phase, in seconds")
	// An int, not a bool: the driver passes "--trace 0" as two arguments.
	flag.IntVar(&trace, "trace", 0, "1: run the traced pass and report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for result-*.json, trace-*.json and the store's temp dir")
	flag.IntVar(&cfg.aa, "aa", 0, "A/A: run the whole suite N times (seeds seed..seed+N-1) and print each metric's spread against its bound")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.timed = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0

	switch {
	case manifest:
		os.Stdout.Write(benchmarkJSON())
	case cfg.aa > 0:
		os.Exit(runAA(cfg))
	default:
		os.Exit(runOnce(cfg))
	}
}

// suite is what one run of the benchmark produced. An untraced run holds
// the named workload only; a traced run also holds the ladder and a short
// traced lap of every other workload, because the per-layer metrics of one
// run cover every layer.
type suite struct {
	target  string
	results map[string]*result
	ladder  map[string]float64
}

func hostEnv(cfg config) env {
	return env{seed: cfg.seed, nproc: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), dir: cfg.out}
}

// runSuite measures the workload named target: untraced for cfg.timed, or —
// with cfg.trace — the ladder, then the target half untraced (to measure the
// tracing overhead against) and half traced, then a traced lap of each other
// workload for the layers only its spans can show.
func runSuite(ctx context.Context, cfg config, target string) (*suite, error) {
	e := hostEnv(cfg)
	su := &suite{target: target, results: map[string]*result{}}
	plans := map[string]plan{target: {repeatSetup: true, warm: warmUp, timed: cfg.timed}}
	order := []string{target}
	if cfg.trace {
		var err error
		if su.ladder, err = runLadder(ctx, e); err != nil {
			return nil, err
		}
		plans[target] = plan{warm: warmUp, timed: cfg.timed / 2, traced: cfg.timed / 2}
		for _, sp := range specs {
			if sp.name != target {
				plans[sp.name] = plan{warm: lapWarmUp, traced: sp.lap}
				order = append(order, sp.name)
			}
		}
	}
	for _, name := range order {
		res, err := runWorkload(ctx, specByName(name), e, plans[name])
		if err != nil {
			return nil, err
		}
		su.results[name] = res
	}
	return su, nil
}

// perLayerValues merges the ladder with what each workload's traced pass owns.
func (su *suite) perLayerValues() map[string]float64 {
	values := map[string]float64{}
	for k, v := range su.ladder {
		values[k] = v
	}
	for _, r := range su.results {
		for k, v := range r.layer {
			values[k] = v
		}
	}
	t := su.results[su.target]
	values["client.unaccounted_frac"] = unaccountedFrac(t.phases["traced"])
	values["client.trace_overhead_frac"] = traceOverheadFrac(t.phases["timed"], t.phases["traced"])
	values[clientOpsPerS] = t.opsPerS
	return values
}

// ran lists the results of the workloads this run measured, in workload order.
func (su *suite) ran() []*result {
	var out []*result
	for _, name := range allWorkloads {
		if r := su.results[name]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// counts sums operations over every measured phase of every workload.
func (su *suite) counts() (attempted, failed, mismatched int, firstErr string) {
	for _, r := range su.ran() {
		for _, phase := range []string{"timed", "traced"} {
			if p := r.phases[phase]; p != nil {
				attempted += p.attempted
				failed += p.failed
				mismatched += p.mismatched
				if firstErr == "" && p.firstErr != "" {
					firstErr = r.name + ": " + p.firstErr
				}
			}
		}
	}
	return
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the contract's last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report turns a suite into the contract line, printing the table a person
// reads on the way. A metric with no samples is an error, not a zero — except
// a registry-backed one whose name the program no longer has, which is
// reported as absent.
func (su *suite) report(cfg config) (line, error) {
	attempted, failed, mismatched, firstErr := su.counts()
	ln := line{Correct: mismatched == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  timed %v  trace %v\n", su.target, cfg.seed, cfg.timed, cfg.trace)
	for _, r := range su.ran() {
		for _, phase := range []string{"warmup", "timed", "traced"} {
			if p := r.phases[phase]; p != nil {
				fmt.Printf("  ops  %-15s %-7s attempted %6d  succeeded %6d  failed %4d  (%.2fs)\n", r.name, phase, p.attempted, p.succeeded(), p.failed, p.wall.Seconds())
			}
		}
	}
	if firstErr != "" {
		fmt.Printf("  first failure: %s\n", firstErr)
	}
	if !cfg.trace {
		t := su.results[su.target]
		for _, m := range endToEndMetrics {
			v, ok := t.e2e[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return ln, fmt.Errorf("end-to-end metric %s has no samples", m.Name)
			}
			fmt.Printf("  %-15s %14.6g %-5s %-6s is better, bound %3.0f%%\n", m.Name, v, m.Unit, m.Better, 100*m.Bound)
			ln.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		named := issueValues(t)
		for _, in := range issueNames[su.target] {
			fmt.Printf("  %-15s %14.6g %-5s (the ISSUE's name)\n", in.name, named[in.name].Value, in.unit)
		}
		cal := t.phases["timed"].calMs
		fmt.Printf("  times above are at the reference speed: calibration kernel %.3f ms (median of %d) against %g nominal; by the clock setup_s is %.6g and the op medians are the p50s below\n",
			median(cal), len(cal), calNominalMs, t.setupRawS)
	} else {
		values := su.perLayerValues()
		for _, m := range perLayerMetrics {
			v, ok := values[m.Name]
			switch {
			case !ok && registryBacked(m.Name):
				fmt.Printf("  %-36s %14s        (absent from the program's registry)\n", m.Name, "-")
				continue
			case !ok || math.IsNaN(v) || math.IsInf(v, 0):
				return ln, fmt.Errorf("per-layer metric %s has no samples", m.Name)
			}
			fmt.Printf("  %-36s %14.6g %-8s %s is better\n", m.Name, v, m.Unit, m.Better)
			ln.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	for _, r := range su.ran() {
		kinds := make([]string, 0, len(r.tails))
		for k := range r.tails {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			t := r.tails[k]
			fmt.Printf("  tail %-15s %-10s p50 %9.3f ms  p%-5g %9.3f ms  n=%d\n", r.name, k, t.P50Ms, t.Pct, t.Ms, t.N)
		}
	}
	return ln, nil
}

// provenance is recorded with every result file.
type provenance struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Timed      string            `json:"timed"`
	Workload   string            `json:"workload"`
	Coding     map[string]string `json:"frozen_coding_points"`
}

func newProvenance(cfg config, target string) provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Timed: cfg.timed.String(), Workload: target, Coding: map[string]string{}}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	for _, sp := range specs {
		p.Coding[sp.name] = sp.why
	}
	return p
}

// writeFiles leaves result-<workload>.json (and, traced, trace-<workload>.json
// with the target's spans) under -out.
func (su *suite) writeFiles(cfg config, ln line) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	type phaseCounts struct{ Attempted, Succeeded, Failed int }
	counts := map[string]map[string]phaseCounts{}
	tails := map[string]map[string]tailStat{}
	for name, r := range su.results {
		counts[name] = map[string]phaseCounts{}
		for phase, p := range r.phases {
			counts[name][phase] = phaseCounts{p.attempted, p.succeeded(), p.failed}
		}
		tails[name] = r.tails
	}
	doc := map[string]any{"provenance": newProvenance(cfg, su.target), "result": ln, "ops": counts, "tails": tails}
	kind := "result"
	if cfg.trace {
		kind = "trace"
		doc["spans"] = su.results[su.target].phases["traced"].spans
	} else {
		t := su.results[su.target]
		doc["issue_names"] = issueValues(t)
		doc["calibration"] = map[string]float64{"nominal_ms": calNominalMs, "median_ms": median(t.phases["timed"].calMs), "setup_s_by_the_clock": t.setupRawS}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, kind+"-"+su.target+".json"), data, 0o644)
}

func targets(cfg config) ([]string, error) {
	if cfg.workload == "all" {
		return allWorkloads, nil
	}
	if specByName(cfg.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(allWorkloads, ", "))
	}
	return []string{cfg.workload}, nil
}

// runOnce runs the named workload (or each of the five in turn) and prints
// one contract line per workload; the process exits non-zero on any wrong
// output.
func runOnce(cfg config) int {
	names, err := targets(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, name := range names {
		ctx, cancel := context.WithTimeout(context.Background(), runCap)
		su, err := runSuite(ctx, cfg, name)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		ln, err := su.report(cfg)
		if err == nil {
			err = su.writeFiles(cfg, ln)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		out, _ := json.Marshal(ln)
		fmt.Println(string(out))
		if !ln.Correct {
			code = 1
		}
	}
	return code
}

// runAA is the A/A procedure: the whole suite cfg.aa times, then per
// workload and end-to-end metric the median, quartiles, largest relative
// deviation and spread against the bound. A bound narrower than the spread
// seen is a configuration error, and the exit code says so.
func runAA(cfg config) int {
	values := map[string]map[string][]float64{}
	for i := 0; i < cfg.aa; i++ {
		run := cfg
		run.seed = cfg.seed + int64(i)
		for _, name := range allWorkloads {
			su, err := runSuite(context.Background(), run, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if _, _, mismatched, firstErr := su.counts(); mismatched > 0 {
				fmt.Fprintln(os.Stderr, "benchmark: wrong output:", firstErr)
				return 1
			}
			got := su.results[name].e2e
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, v := range got {
				values[name][k] = append(values[name][k], v)
			}
			fmt.Fprintf(os.Stderr, "aa: run %d/%d %s done\n", i+1, cfg.aa, name)
		}
	}
	fmt.Printf("A/A over %d runs (seeds %d..%d), timed %v, nproc %d, %s\n", cfg.aa, cfg.seed, cfg.seed+int64(cfg.aa)-1, cfg.timed, hostEnv(cfg).nproc, runtime.Version())
	fmt.Printf("%-15s %-15s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "max dev", "bound")
	code := 0
	for _, name := range allWorkloads {
		for _, m := range endToEndMetrics {
			xs := values[name][m.Name]
			q1, q2, q3 := xs[0], xs[0], xs[0]
			if len(xs) > 1 {
				q1, q2, q3 = quartiles(xs)
			}
			var dev float64
			for _, x := range xs {
				dev = max(dev, math.Abs(x-q2)/math.Abs(q2))
			}
			verdict := ""
			if spread(xs) > m.Bound {
				verdict, code = "  CONFIGURATION ERROR: bound narrower than the spread", 3
			}
			fmt.Printf("%-15s %-15s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%%s\n", name, m.Name, q2, q1, q3, 100*spread(xs), 100*dev, 100*m.Bound, verdict)
		}
	}
	return code
}

// benchmarkJSON renders BENCHMARK.json from the catalogue in metrics.go and
// the workload table in run.go; a test keeps the checked-in file equal to it.
func benchmarkJSON() []byte {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []endToEnd    `json:"end_to_end"`
		PerLayer   []perLayer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workloadDoc{sp.name, sp.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "->" readable in the why lines
	enc.SetIndent("", "  ")
	enc.Encode(doc)
	return buf.Bytes()
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 15
