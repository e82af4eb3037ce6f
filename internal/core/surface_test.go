package core

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
)

// TestCoreSurfaceIsClosed is the surface guard, after codec's
// TestEncodeDecodeSurfaceIsClosed: Options exports exactly one ctx-first
// method per verb, and no verb exists both with and without a Ctx suffix
// (three carry one only because benchmark/surface.go binds those names).
// EncodeStackRecon is a verb — "encode, and give me what the receiver will
// see" composes from the others only through a decode (DESIGN.md §18.1). An
// eighth method — an EncodeStack twin, a one-tensor spelling — fails here
// before it can spread: a new behaviour is an Options field or a new verb
// argued for in DESIGN.md §18, not a second spelling. Each removed name stays
// named beside its successor, so it cannot come back either: a rate policy
// over the codec (holding a QP across calls, a second pass over the residual)
// lives with its caller, in llm.
func TestCoreSurfaceIsClosed(t *testing.T) {
	want := []string{
		"DecodeLayerCtx", "DecodeStackCtx", "DecodeStackPartialCtx",
		"EncodeStackCtx", "EncodeStackRecon", "EncodeStackToBitrate", "EncodeStackToMSE",
	}
	removed := map[string]string{
		"Encode":                "EncodeStackCtx over a one-layer stack",
		"Decode":                "DecodeStackCtx, layer 0",
		"EncodeToBitrate":       "EncodeStackToBitrate over a one-layer stack",
		"EncodeToMSE":           "EncodeStackToMSE over a one-layer stack",
		"RateController":        "llm.Codec",
		"NewRateController":     "llm.Codec",
		"GradientCompressor":    "llm.Residual",
		"NewGradientCompressor": "llm.Residual",
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for name, obj := range file.Scope.Objects {
				if successor, ok := removed[name]; ok {
					t.Errorf("core declares %s %s again: its successor is %s", obj.Kind, name, successor)
				}
			}
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
				if successor, ok := removed[fn.Name.Name]; ok {
					t.Errorf("Options.%s is back: its successor is %s", fn.Name.Name, successor)
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

// optionSetters names, for every field of the structs a caller configures the
// codec through, who sets it: a production file (from the repository root)
// that assigns it, or the test that needs it as a seam, with what for.
var optionSetters = map[string]struct{ by, why string }{
	"core.Options.Profile":     {"cmd/llm265/main.go", "the -profile flag; serve's ?profile= and the Fig. 6 table too"},
	"core.Options.Tools":       {"internal/experiments/mechanisms.go", "the Fig. 2(b) tool ablation"},
	"core.Options.MaxFrameW":   {"internal/serve/handlers.go", "?max-frame-w="},
	"core.Options.MaxFrameH":   {"internal/serve/handlers.go", "?max-frame-h="},
	"core.Options.PerRowQuant": {"cmd/llm265/main.go", "the -per-row flag"},
	"core.Options.Backend":     {"cmd/llm265/main.go", "the -backend flag"},
	"core.Options.Workers":     {"cmd/llm265/main.go", "the -workers flag; serve passes its pool size"},
	"core.Options.Checksum":    {"cmd/llm265/main.go", "the -checksum flag"},
	"core.Options.Index":       {"benchmark/w_weights.go", "the benchmark sets it; it implies Checksum and nothing else (TestIndexIsChecksum)"},
	"core.Options.Metrics":     {"internal/serve/handlers.go", "the server's registry"},

	"codec.EncodeConfig.QP":        {"internal/core/codec.go", "encodeStack's qp"},
	"codec.EncodeConfig.Profile":   {"internal/core/codec.go", "Options.Profile"},
	"codec.EncodeConfig.Tools":     {"internal/core/codec.go", "Options.Tools, with Options.Backend on it"},
	"codec.EncodeConfig.Workers":   {"internal/core/codec.go", "Options.Workers"},
	"codec.EncodeConfig.Metrics":   {"internal/core/codec.go", "Options.Metrics"},
	"codec.EncodeConfig.Container": {"internal/core/codec.go", "Options.Checksum's v3 container"},

	"codec.DecodeConfig.Workers": {"internal/core/codec.go", "Options.Workers"},
	"codec.DecodeConfig.Metrics": {"internal/core/codec.go", "Options.Metrics"},
	"codec.DecodeConfig.First":   {"internal/core/codec.go", "a layer window's first plane"},
	"codec.DecodeConfig.Count":   {"internal/core/codec.go", "a layer window's plane count"},
	"codec.DecodeConfig.Partial": {"internal/serve/handlers.go", "?partial=1 on /v1/decode"},
}

// TestOptionFieldsAreClosed is the same guard one level down, on the structs a
// caller configures the codec through: each has exactly these fields, all
// exported, and each field has its row in optionSetters — a production file
// that assigns it, or a test of core or codec that needs it as a seam — with
// a reason. codec.Profile is no struct: it is the bitstream's profile id, and
// every tool follows from it. Every independent field doubles the
// configurations the equivalence matrices must cover, so a new one fails here
// first and is argued for in DESIGN.md §11 before this list grows: what it
// buys on the benchmark, and which callers need different values of it.
// Options.Index stays only because benchmark/surface.go sets it, and goes
// with the next benchmark change.
func TestOptionFieldsAreClosed(t *testing.T) {
	if k := reflect.TypeOf(codec.HEVC).Kind(); k == reflect.Struct {
		t.Errorf("codec.Profile is a %v: a profile is its wire id, not a set of tools", k)
	}
	fields := map[string]bool{}
	for _, c := range []struct {
		v    any
		want string
	}{
		{Options{}, "Profile Tools MaxFrameW MaxFrameH PerRowQuant Backend Workers Checksum Index Metrics"},
		{codec.EncodeConfig{}, "QP Profile Tools Workers Metrics Container"},
		{codec.DecodeConfig{}, "Workers Metrics First Count Partial"},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			got = append(got, name)
			fields[typ.String()+"."+name] = true
			if _, ok := optionSetters[typ.String()+"."+name]; !ok {
				t.Errorf("%v.%s has no row in optionSetters: name its production setter or its test seam", typ, name)
			}
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%v has fields %v, want %q: the option set is closed", typ, got, c.want)
		}
	}
	tests := testNames(t, "*_test.go", "../codec/*_test.go")
	for key, s := range optionSetters {
		field := key[strings.LastIndex(key, ".")+1:]
		switch {
		case !fields[key]:
			t.Errorf("optionSetters[%q] names no field of the pinned configs", key)
		case strings.TrimSpace(s.why) == "":
			t.Errorf("optionSetters[%q] has no reason", key)
		case strings.HasPrefix(s.by, "Test"):
			if !tests[s.by] {
				t.Errorf("optionSetters[%q]: no test of core or codec is named %q", key, s.by)
			}
		default:
			src, err := os.ReadFile(filepath.Join("..", "..", s.by))
			if err != nil || !strings.Contains(string(src), "."+field) && !strings.Contains(string(src), field+":") {
				t.Errorf("optionSetters[%q]: %s does not set %s (%v)", key, s.by, field, err)
			}
		}
	}
}

// testNames collects the Test functions declared in the files the patterns
// match.
func testNames(t *testing.T, patterns ...string) map[string]bool {
	names := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	for _, pattern := range patterns {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
	}
	return names
}

// TestUnknownProfileRefused: a Profile outside the three ids gets a plain
// error — no panic, no stream — from every encode entry point, before any
// geometry is derived from its (absent) frame limit or CTU.
func TestUnknownProfileRefused(t *testing.T) {
	bad := codec.Profile(3)
	if bad.String() != "profile(3)" || bad.CTUSize() != 0 || bad.MaxFrameDim() != 0 {
		t.Errorf("Profile(3) reads as %q, CTU %d, frame limit %d", bad, bad.CTUSize(), bad.MaxFrameDim())
	}
	ctx := context.Background()
	planes := frame.FromMatrix(make([]uint8, 64*64), 64, 64, 64, 64)
	for name, encode := range map[string]func() error{
		"codec.Encode": func() error {
			_, _, _, err := codec.Encode(ctx, planes, codec.EncodeConfig{QP: 20, Profile: bad, Tools: codec.AllTools})
			return err
		},
		"Appender.Append": func() error {
			_, _, err := codec.NewAppender(20, bad, codec.AllTools, 1, nil).Append(ctx, planes, nil)
			return err
		},
		"Options.EncodeStackCtx": func() error {
			o := DefaultOptions()
			o.Profile = bad
			_, err := o.EncodeStackCtx(ctx, []*Tensor{weightTensor(3, 64, 64)}, 20)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panics: %v", r)
				}
			}()
			err := encode()
			if err == nil || !strings.Contains(err.Error(), "unknown profile") {
				t.Fatalf("got %v, want an unknown-profile error", err)
			}
			for _, class := range []error{codec.ErrCorrupt, codec.ErrTruncated, codec.ErrChecksum, codec.ErrEmptyInput} {
				if errors.Is(err, class) {
					t.Fatalf("%v is classed as %v: a caller's bad option is a plain error", err, class)
				}
			}
		})
	}
}

// TestIndexIsChecksum: Options.Index writes exactly the Checksum=true bytes on
// both backends.
func TestIndexIsChecksum(t *testing.T) {
	stack := []*Tensor{weightTensor(7, 48, 80), weightTensor(8, 48, 80)}
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		o := DefaultOptions()
		o.MaxFrameW, o.MaxFrameH, o.Backend = 32, 32, backend
		indexed, checksummed := o, o
		indexed.Index, checksummed.Checksum = true, true
		a, err := indexed.EncodeStackCtx(context.Background(), stack, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := checksummed.EncodeStackCtx(context.Background(), stack, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Marshal(), b.Marshal()) {
			t.Fatalf("backend %v: Index=true and Checksum=true encodes differ", backend)
		}
	}
}
