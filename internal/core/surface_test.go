package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
)

// TestCoreSurfaceIsClosed is the surface guard, after codec's
// TestEncodeDecodeSurfaceIsClosed: Options exports exactly one ctx-first
// method per verb plus the single-tensor quick-start quartet, no verb exists
// both with and without a Ctx suffix (three carry one only because
// benchmark/surface.go binds those names), and each sugar method is a single
// return into its stack method. The eleventh, EncodeStackRecon, is a verb —
// "encode, and give me what the receiver will see" composes from the other ten
// only through a decode (DESIGN.md §18.1). A twelfth method — an EncodeStack
// twin, a reconstruction-returning EncodeStackToBitrate — fails here before it
// can spread: a new behaviour is an Options field or a new verb argued for in
// DESIGN.md §18, not a second spelling.
func TestCoreSurfaceIsClosed(t *testing.T) {
	want := []string{
		"Decode", "DecodeLayerCtx", "DecodeStackCtx", "DecodeStackPartialCtx",
		"Encode", "EncodeStackCtx", "EncodeStackRecon", "EncodeStackToBitrate", "EncodeStackToMSE",
		"EncodeToBitrate", "EncodeToMSE",
	}
	sugar := map[string]bool{"Encode": true, "Decode": true, "EncodeToBitrate": true, "EncodeToMSE": true}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !fn.Name.IsExported() {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); !ok || id.Name != "Options" {
					continue
				}
				found = append(found, fn.Name.Name)
				if !sugar[fn.Name.Name] {
					continue
				}
				if len(fn.Body.List) != 1 {
					t.Errorf("sugar method %s has %d statements, want a single return", fn.Name.Name, len(fn.Body.List))
				} else if _, isReturn := fn.Body.List[0].(*ast.ReturnStmt); !isReturn {
					t.Errorf("sugar method %s must be a single return statement", fn.Name.Name)
				}
			}
		}
	}
	sort.Strings(found)
	if strings.Join(found, ",") != strings.Join(want, ",") {
		t.Errorf("exported Options methods = %v, want %v: the surface is closed — one ctx-first method per verb", found, want)
	}
	for _, name := range found {
		if base, ok := strings.CutSuffix(name, "Ctx"); ok && slices.Contains(found, base) {
			t.Errorf("Options has both %s and %s", base, name)
		}
	}
}

// TestOptionFieldsAreClosed is the same guard one level down, on the structs a
// caller configures the codec through: each has exactly these fields, all
// exported — codec.Profile only what the bitstream's profile id stands for.
// Every independent field doubles the configurations the equivalence matrices
// must cover, so a new one fails here first and is argued for in DESIGN.md §11
// before this list grows: what it buys on the benchmark, and which callers
// need different values of it.
func TestOptionFieldsAreClosed(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{Options{}, "Profile Tools MaxFrameW MaxFrameH PerRowQuant Backend Workers Checksum Index Metrics"},
		{codec.Profile{}, "Name CTUSize MinCUSize Modes MaxTransform UseDST4 RefSmoothing MaxFrameDim"},
		{codec.EncodeConfig{}, "QP Profile Tools Workers Metrics Container Regions"},
		{codec.DecodeConfig{}, "Workers Metrics First Count Partial"},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%v has fields %v, want %q: the option set is closed", typ, got, c.want)
		}
	}
}
