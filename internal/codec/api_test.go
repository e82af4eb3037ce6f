package codec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// compatWrappers are the three names compat.go keeps for benchmark/surface.go.
var compatWrappers = map[string]bool{"EncodeIndexedCtx": true, "DecodeWorkersCtx": true, "DecodeRegionCtx": true}

// TestEncodeDecodeSurfaceIsClosed is the surface guard: the package exports
// exactly Encode, Decode and the three compat.go wrappers among functions
// named Encode*/Decode*, each wrapper is a single return statement, and
// nothing in the repo outside compat.go, tests and benchmark/ calls one. A
// new twin (EncodeFooCtx, DecodeBarObs, …) fails here before it can spread:
// a new behaviour is a config field, not a function.
func TestEncodeDecodeSurfaceIsClosed(t *testing.T) {
	allowed := map[string]bool{"Encode": true, "Decode": true}
	for w := range compatWrappers {
		allowed[w] = true
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	surface := regexp.MustCompile(`^(Encode|Decode)`)
	var found []string
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || !surface.MatchString(fn.Name.Name) {
					continue
				}
				found = append(found, fn.Name.Name)
				if !allowed[fn.Name.Name] {
					t.Errorf("%s exports %s: the Encode*/Decode* surface is closed — add a field to EncodeConfig/DecodeConfig instead",
						path, fn.Name.Name)
				}
				if compatWrappers[fn.Name.Name] {
					if filepath.Base(path) != "compat.go" {
						t.Errorf("%s: compat wrapper %s defined outside compat.go", path, fn.Name.Name)
					}
					if _, isReturn := fn.Body.List[0].(*ast.ReturnStmt); len(fn.Body.List) != 1 || !isReturn {
						t.Errorf("compat wrapper %s must be a single return statement", fn.Name.Name)
					}
				}
			}
		}
	}
	sort.Strings(found)
	if want := []string{"Decode", "DecodeRegionCtx", "DecodeWorkersCtx", "Encode", "EncodeIndexedCtx"}; strings.Join(found, ",") != strings.Join(want, ",") {
		t.Errorf("exported Encode*/Decode* functions = %v, want %v", found, want)
	}

	// No production caller of a wrapper: walk the module's non-test Go files
	// (benchmark/ is its own module and the wrappers' one licensed user).
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "codec" && compatWrappers[sel.Sel.Name] {
				t.Errorf("%s calls codec.%s: use codec.Encode/codec.Decode (compat.go is for benchmark/ only)",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
