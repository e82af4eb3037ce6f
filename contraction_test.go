package repro_test

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
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
// math is not compiled here; no decision that moves a byte calls it
// (TestRDDecisionsAreInteger).
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

// rdDecisions are the functions whose comparisons choose the bytes an encode
// writes: the codec's rate-distortion search and its rate estimate, and the
// ring's QP law (DESIGN.md §11.1, "One integer currency").
var rdDecisions = []string{
	"internal/codec.encoder.decideCU",
	"internal/codec.encoder.decideLeaf",
	"internal/codec.encoder.tryIntraRD",
	"internal/codec.keepIfBetter",
	"internal/codec.encoder.rdCost",
	"internal/codec.encoder.trialResidual",
	"internal/codec.estimateLevelBits",
	"internal/codec.levelRate",
	"internal/codec.encoder.motionSearch",
	"internal/allreduce.rateCodec.Encode",
	"internal/allreduce.rateCodec.AdvanceStep",
}

// TestRDDecisionsAreInteger is the guard on the integer currency: each of
// rdDecisions exists, takes and returns no floating-point value, and its body
// has no expression or type of floating-point or complex kind, no float
// literal and no call into package math. Floats round alike on every
// platform only where the spec fixes each rounding; libm and a contracted
// multiply-add do not, and one flipped comparison moves stream bytes.
func TestRDDecisionsAreInteger(t *testing.T) {
	build.Default.CgoEnabled = false // as TestProductionSurfaceIsClosed: net and os/user have pure-Go fallbacks
	m := loadModule(t)
	isFloat := func(typ types.Type) bool {
		b, ok := typ.Underlying().(*types.Basic)
		return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
	}
	for _, name := range rdDecisions {
		fns := m.entries[name]
		if len(fns) != 1 {
			t.Errorf("%s: no such function — rename it here, or drop it if no decision is made there", name)
			continue
		}
		fd := m.decls[fns[0]]
		bad := func(n ast.Node, what string) {
			t.Errorf("%s: %s in %s", m.fset.Position(n.Pos()), what, name)
		}
		sig := fns[0].Type().(*types.Signature)
		for _, vars := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < vars.Len(); i++ {
				if isFloat(vars.At(i).Type()) {
					bad(fd.Type, "a floating-point parameter or result")
				}
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.FLOAT || n.Kind == token.IMAG {
					bad(n, "float literal "+n.Value)
					return false
				}
			case *ast.CallExpr:
				fun := n.Fun
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					fun = sel.Sel
				}
				if fn, ok := m.info.Uses[fun.(*ast.Ident)].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" {
					bad(n, "call of math."+fn.Name())
					return false
				}
			}
			if e, ok := n.(ast.Expr); ok {
				if tv, ok := m.info.Types[e]; ok && isFloat(tv.Type) {
					bad(n, "a value or type of kind "+tv.Type.String())
					return false
				}
			}
			return true
		})
	}
}
