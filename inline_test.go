package repro_test

import (
	"os/exec"
	"regexp"
	"testing"
)

// recordingHelpers are the nil-safe helpers through which metrics switch off
// on the per-block, per-job and per-request paths (DESIGN.md §10), by
// package: the codec's and kv's tests before a clock read or a bitLen()
// query, and the obs handles kv, store and core record through directly.
// Disabled, each must cost its one nil test, which holds only while the
// compiler inlines it. The pprof-label helpers run once a goroutine and are
// not listed.
var recordingHelpers = map[string][]string{
	"codec": {
		"(*poolMetrics).now", "(*poolMetrics).since",
		"(*stageRecorder).start", "(*stageRecorder).stop",
		"(*stageRecorder).mark", "(*stageRecorder).account",
		"(*encMetrics).recorder", "(*decMetrics).recorder",
	},
	"kv":  {"(*kvMetrics).now"},
	"obs": {"(*Counter).Add", "(*Counter).Inc", "(*Gauge).Set"},
}

// canInline matches the compiler's -m report of an inlinable function.
var canInline = regexp.MustCompile(`(?m)^(?:\./)?internal/(\w+)/\S+\.go:\d+:\d+: can inline (\S+)$`)

// TestMetricsHelpersInline is the guard on "disabled costs one pointer
// check": it builds the packages of recordingHelpers with -gcflags=-m and
// fails, naming the helper, on each one the compiler does not report it can
// inline — grown past the inlining budget, or renamed without this list.
func TestMetricsHelpersInline(t *testing.T) {
	args := []string{"build", "-gcflags=-m"}
	for p := range recordingHelpers {
		args = append(args, "./internal/"+p)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlinable := map[string]bool{}
	for _, m := range canInline.FindAllStringSubmatch(string(out), -1) {
		inlinable[m[1]+"."+m[2]] = true
	}
	for p, helpers := range recordingHelpers {
		for _, h := range helpers {
			if !inlinable[p+"."+h] {
				t.Errorf("%s.%s: not reported as inlinable, so disabled metrics cost a call there", p, h)
			}
		}
	}
}
