package codec

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/frame"
)

// TestEncodeReconIsDecode is the contract of Encode's third result: the
// reconstruction planes the encoder hands out are Decode(stream).Planes byte
// for byte, so a caller that keeps them has what the receiver will have
// without running a decoder. It holds over everything that selects a code path
// on either side: the three profiles, every tool ablation of the golden corpus
// and TestToolCombinationsRoundTrip (inter prediction, no transform and
// entropy coding alone among them) under both entropy backends, the three containers
// and worker counts past the chunk count — on a one-chunk stack of the awkward
// shapes and on a stack whose odd planes are spread over three chunks.
func TestEncodeReconIsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	odd := []*frame.Plane{gradientPlane(rng, 1, 1), noisePlane(rng, 17, 13), channelPlane(rng, 13, 40), gradientPlane(rng, 31, 29)}
	// 200×170 and 181×191 each close a chunk (minChunkPixels); the small
	// planes between them ride in the second, 31×29 is a third.
	chunked := []*frame.Plane{channelPlane(rng, 200, 170), odd[1], odd[2], odd[0], gradientPlane(rng, 181, 191), odd[3]}
	if got := len(chunkSpans(chunked, AllTools)); got != 3 {
		t.Fatalf("the chunked stack partitions into %d chunks, want 3", got)
	}
	var toolSets []Tools
	for _, tools := range []Tools{
		{},
		{Transform: true},
		{IntraPred: true},
		{Partitioning: true, Transform: true},
		{Partitioning: true, IntraPred: true},
		AllTools,
		{Partitioning: true, Transform: true, IntraPred: true, InterPred: true},
	} {
		toolSets = append(toolSets, tools)
		tools.Backend = BackendRANS
		toolSets = append(toolSets, tools)
	}
	check := func(planes []*frame.Plane, qp int, prof Profile, tools Tools) {
		t.Helper()
		for _, container := range []Container{ContainerLegacy, ContainerV3} {
			for _, workers := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s %+v container=%d workers=%d", prof, tools, container, workers)
				data, _, recon, err := Encode(context.Background(), planes, EncodeConfig{
					QP: qp, Profile: prof, Tools: tools, Workers: workers, Container: container})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				dec, err := Decode(context.Background(), data, DecodeConfig{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requirePlanesEqual(t, label, recon, dec.Planes)
			}
		}
	}
	for _, prof := range []Profile{H264, HEVC, AV1} {
		for i, tools := range toolSets {
			check(odd, 14+2*i, prof, tools)
		}
		for _, tools := range []Tools{AllTools, ransTools()} {
			check(chunked, 22, prof, tools)
		}
	}
}

// compatWrappers are the three functions compat.go keeps only because
// benchmark/surface.go binds them (codecEncodeIndexedCtx,
// codecDecodeWorkersCtx, codecDecodeRegionCtx); they go when a benchmark
// change re-points surface.go.
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

// TestEncodeIndexedCtxIsV3: the compat stub writes exactly Encode's
// ContainerV3 bytes on both backends, whatever regions it is handed.
func TestEncodeIndexedCtxIsV3(t *testing.T) {
	_, _, _, planes := corpusStreams(t)
	regions := []PlaneRegion{{Layer: 99, W: 1, H: 1}}
	for _, tools := range []Tools{AllTools, ransTools()} {
		want, _, err := encodeAs(ContainerV3, planes, 30, HEVC, tools, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := EncodeIndexedCtx(context.Background(), planes, 30, HEVC, tools, 2, regions, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("backend %v: EncodeIndexedCtx wrote %d bytes, Encode with ContainerV3 %d", tools.Backend, len(got), len(want))
		}
	}
}
