package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contractionPkgs are the packages whose floating-point results reach a
// stream, a decoded tensor or a wire value: each must compute them the same
// way on every GOARCH (DESIGN.md §11.1, "No contraction"). Standard-library
// math (math.Log2) is not compiled here and is outside the guard.
var contractionPkgs = []string{
	"codec", "dct", "quant", "cabac", "intra", "frame", "rans", "core",
	"allreduce", "kv", "store", "serve", "proxy",
}

// fusedOp matches a fused multiply-add in the compiler's arm64 listing, with
// the source position it came from.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\b`)

// TestNoFusedMultiplyAdd is the guard on the no-contraction rule. Go may fuse
// x*y + z into one instruction, which rounds once where the spelled-out
// arithmetic rounds twice; amd64 never does, arm64 does wherever it can. The
// test compiles contractionPkgs for GOARCH=arm64 with -S and fails on every
// FMADD, FMSUB, FNMADD or FNMSUB it finds, naming the source line: the fix
// is an explicit conversion of the product, float64(x*y) + z, which the spec
// makes a rounding.
func TestNoFusedMultiplyAdd(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"build", "-gcflags=-S"}
	for _, p := range contractionPkgs {
		args = append(args, "./internal/"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		pos := m[1]
		if rel, err := filepath.Rel(root, pos); err == nil && !strings.HasPrefix(rel, "..") {
			pos = rel
		}
		if !seen[pos+m[2]] {
			seen[pos+m[2]] = true
			t.Errorf("%s: %s — a contracted multiply-add; convert the product explicitly", pos, m[2])
		}
	}
}
