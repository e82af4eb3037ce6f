package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/kv"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/train"
)

// testOnly is the allow-list of TestProductionSurfaceIsClosed: what no main
// reaches and stays anyway, each entry with the reason it stays. An entry is a
// whole package ("internal/faultinject"), a function ("internal/llm.PackModel"),
// a method ("internal/kv.Table.Budget") or an interface method, which stands
// for every implementation ("internal/entropy.Coder.Decode"). An entry is a
// root of its own: what only it calls needs no entry.
var testOnly = map[string]string{
	"internal/faultinject":          "the shared test fixtures: the byte-corruption sweeps every decoder's robustness test runs and the scripted network faults of the proxy tests",
	"internal/entropy.Coder.Decode": "Fig. 14 prints encoded sizes only; the decoders (and their framing checks) are the proof, run by tests and FuzzEntropy, that those sizes decode",

	"internal/frame.Plane.Clone": "fixture: tests mutate a copy of a plane",
	"internal/frame.Plane.Equal": "fixture: the plane comparison of every byte-identity test",
	"internal/frame.Plane.MSE":   "fixture: the distortion the RD-envelope tests bound",

	"internal/codec.ChunkError.Unwrap": "errors.Is and errors.As call it, through an unnamed interface the walk cannot see",
	"internal/kv.Table.Budget":         "observer: the soaks hold Resident ≤ Budget at every sample",
	"internal/kv.Table.Sessions":       "observer: the TTL test and the soaks' fill barrier and leak check count live sessions",
	"internal/serve.Server.Draining":   "observer: the drain test waits on it instead of sleeping",
	"internal/llm.PackModel":           "building block of the Parked multi-model item (ROADMAP): pack a trained model into the store; packed_test.go pins exact accuracy through it",
	"internal/llm.ApplyPacked":         "with PackModel: load a packed model through store.Model's byte-budgeted LRU (reaches Model.Param)",
	"internal/store.Model.Params":      "with PackModel: lists what a packed model maps; the store tests check the manifest order through it",
}

// TestProductionSurfaceIsClosed is the guard on north-star 2's "least code",
// after TestEncodeDecodeSurfaceIsClosed and TestCoreSurfaceIsClosed: production
// is what main in cmd/*, examples/* and benchmark/ — plus init and the
// package-level initialisers of every package those import — can reach, and a
// function or method under internal/ that production does not reach is deleted
// or entered in testOnly with a reason. An entry that has become reachable, or
// that names nothing, fails too, so the list cannot outlive its reasons.
//
// Reachability is type-checked (go/types over every non-test file; the nested
// benchmark module is loaded from its directory against this tree): a use of a
// function is an edge; a call through an interface is an edge to that method of
// every live type that implements the interface; a type is live once reachable
// code mentions it, holds a value of it or has it in a signature; and a live
// type's methods that satisfy an interface of a package outside the module
// (error, fmt.Stringer, http.Handler, sort.Interface, …) are reachable, because
// the standard library is where those are called.
func TestProductionSurfaceIsClosed(t *testing.T) {
	build.Default.CgoEnabled = false // net and os/user have pure-Go fallbacks; no cgo run
	m := loadModule(t)

	var roots []*types.Func
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			roots = append(roots, p.types.Scope().Lookup("main").(*types.Func))
		}
	}
	prod := m.reach(roots)

	kept := roots
	for entry, reason := range testOnly {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnly[%q] has no reason", entry)
		}
		if len(m.entries[entry]) == 0 {
			t.Errorf("testOnly[%q] names no function, method or package under internal/", entry)
		}
		for _, fn := range m.entries[entry] {
			if prod.funcs[fn] || prod.calls[fn] {
				t.Errorf("testOnly[%q]: %s is reachable from main — drop the entry", entry, funcName(fn))
			}
		}
		kept = append(kept, m.entries[entry]...)
	}
	alive := m.reach(kept).funcs

	var dead []string
	lines := 0
	for fn, decl := range m.decls {
		if alive[fn] || !strings.HasPrefix(fn.Pkg().Path(), "repro/internal/") {
			continue
		}
		start := decl.Pos()
		if decl.Doc != nil {
			start = decl.Doc.Pos()
		}
		n := m.fset.Position(decl.End()).Line - m.fset.Position(start).Line + 1
		lines += n
		dead = append(dead, fmt.Sprintf("%s: %s (%d lines)", m.fset.Position(decl.Pos()), funcName(fn), n))
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions, %d lines with their doc comments, that no main in cmd/*, examples/* or benchmark/ reaches — "+
			"delete them, or enter them in testOnly with a reason:\n  %s", len(dead), lines, strings.Join(dead, "\n  "))
	}
}

// serviceSeams maps each test-only field of the service and training configs
// to the test that sets it and what the test needs of it. Every other field is
// set by a production caller: cmd/llm265's flags, benchmark/ away from the
// default, serve.New passing its own settings down to kv.New, or the training
// figures and examples choosing a compressor or a ring geometry.
var serviceSeams = map[string]struct{ test, why string }{
	"serve.Config.MaxQueue":      {"TestBackpressure429", "a one-slot queue that the third request overflows"},
	"serve.Config.MaxBodyBytes":  {"TestBodyTooLarge413", "a cap a small body exceeds"},
	"serve.Config.KV":            {"TestKVHTTP206MatchesEvictionLog", "a table with an eviction hook and a tight budget behind the handlers"},
	"serve.Config.KVFlushRows":   {"TestKVHTTPRoundtrip", "flush groups a few rows complete"},
	"proxy.Config.ProbeInterval": {"TestActiveProbing", "a probe period the ejection and readmission wait out in milliseconds"},
	"proxy.Config.OpenTimeout":   {"TestPassiveEjectionShedRecovery", "a cool-down the half-open recovery waits out in milliseconds"},
	"proxy.Config.MaxRetries":    {"TestPassiveEjectionShedRecovery", "one attempt a request, so the breaker walk is exact"},
	"proxy.Config.RetryBase":     {"TestFaultSweep", "a backoff the retried faults wait out in milliseconds"},
	"proxy.Config.RetryCap":      {"TestRetryAfterHonored", "a cap below the backend's Retry-After hint"},
	"proxy.Config.HedgeDelay":    {"TestHedgedDecode", "a hedge that fires before the stalled owner answers"},
	"proxy.Config.DisableHedge":  {"TestFaultSweep", "no hedge, so the retry and failure counters are exact"},
	"proxy.Config.Transport":     {"TestFaultSweep", "the scripted faulty network"},
	"kv.Config.TTL":              {"TestKVTTL", "an expiry a fake clock passes"},
	"kv.Config.FlushRows":        {"TestKVFlushCounters", "flush groups a few rows complete"},
	"kv.Config.OnEvict":          {"TestKVEvictionBudget", "the eviction log reads are checked against"},
	"kv.Config.Now":              {"TestKVTTL", "the fake clock"},

	"train.DPConfig.Replicas":         {"TestDataParallelUncompressed", "one replica, which sends no frame"},
	"train.DPConfig.Batch":            {"TestRingTwinWireCodecDeterministic", "two sequences a replica keep the schedule sweep short"},
	"train.PipelineConfig.Stages":     {"TestPipelineResidualGradCompression", "two stages, one boundary, for the residual-compensation band"},
	"train.PipelineConfig.AccumSteps": {"TestPipelineResidualGradCompression", "one microbatch a step, so each step is one Residual call"},
	"allreduce.Config.SegRows":        {"TestBlockCodecAlignsDefaultSegments", "explicit segment heights beside the derived default"},
	"allreduce.Config.ScheduleSeed":   {"TestCompressedRingDeterministic", "the encode-order permutations the determinism sweep runs"},
	"allreduce.Config.Chaos":          {"TestRingSoak", "the scheduling jitter the soak injects"},
	"allreduce.Config.Metrics":        {"TestRingMetrics", "the registry the counters are read back from"},
}

// TestServiceOptionFieldsAreClosed is TestOptionFieldsAreClosed's guard on the
// layers above the codec: the serve, proxy and kv configs and the training
// stack's DPConfig, PipelineConfig and allreduce.Config have exactly these
// fields. A field stays only if it is a deployment setting, a value a
// production caller varies, or a test seam entered in serviceSeams with the
// test that needs it; every other knob is a constant (DESIGN.md §12).
func TestServiceOptionFieldsAreClosed(t *testing.T) {
	fields := map[string]bool{}
	for _, c := range []struct {
		v    any
		want string
	}{
		{serve.Config{}, "Workers MaxInflight MaxQueue MaxBodyBytes KV KVBudgetBytes KVFlushRows KVQP"},
		{proxy.Config{}, "Backends ProbeInterval OpenTimeout MaxRetries RetryBase RetryCap HedgeDelay DisableHedge Transport"},
		{kv.Config{}, "BudgetBytes TTL FlushRows QP Workers Metrics OnEvict Now"},
		{train.DPConfig{}, "Replicas Batch"},
		{train.PipelineConfig{}, "Stages CompressActivations CompressActGrads AccumSteps"},
		{allreduce.Config{}, "Workers Rows Cols SegRows Codec ErrorFeedback Metrics ScheduleSeed Chaos"},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
			fields[typ.String()+"."+typ.Field(i).Name] = true
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%v has fields %v, want %q: the option set is closed", typ, got, c.want)
		}
	}
	files, err := filepath.Glob("internal/*/*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
	}
	for field, seam := range serviceSeams {
		switch {
		case !fields[field]:
			t.Errorf("serviceSeams[%q] names no field of the pinned configs", field)
		case strings.TrimSpace(seam.why) == "":
			t.Errorf("serviceSeams[%q] has no reason", field)
		case !tests[seam.test]:
			t.Errorf("serviceSeams[%q]: no test under internal/ is named %q", field, seam.test)
		}
	}
}

// kernelRefDirs are the packages whose kernels are each held to one
// definition, kept in the package's refimpl_test.go (DESIGN.md §11.1).
var kernelRefDirs = []string{"internal/dct", "internal/intra", "internal/codec", "internal/quant"}

// TestKernelReferencesAreLive is the guard on "one reference per kernel":
// each of kernelRefDirs has a refimpl_test.go, and every function or method it
// declares is used by a Test or Fuzz function of its package, directly or
// through the package's other test functions. A reference that outlives its
// kernel, or that no test holds a kernel to, fails here. The walk is by name
// over the package's test files: a method is used when a selector of its name
// is.
func TestKernelReferencesAreLive(t *testing.T) {
	for _, dir := range kernelRefDirs {
		fset := token.NewFileSet()
		ref, err := parser.ParseFile(fset, filepath.Join(dir, "refimpl_test.go"), nil, 0)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		decls := map[string][]*ast.FuncDecl{}
		var work []*ast.FuncDecl
		for _, name := range names {
			f := ref
			if filepath.Base(name) != "refimpl_test.go" {
				if f, err = parser.ParseFile(fset, name, nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			if f.Name.Name != ref.Name.Name {
				continue // an external test package
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
					if fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
						work = append(work, fd)
					}
				}
			}
		}
		used := map[string]bool{}
		for len(work) > 0 {
			fd := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fd.Name && !used[id.Name] {
					used[id.Name] = true
					work = append(work, decls[id.Name]...)
				}
				return true
			})
		}
		for _, d := range ref.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && !used[fd.Name.Name] {
				t.Errorf("%s: %s is used by no Test or Fuzz function of %s — delete it, or hold its kernel to it",
					fset.Position(fd.Pos()), fd.Name.Name, dir)
			}
		}
	}
}

// TestCorpusIsClosed is the guard on the golden conformance corpus: every file
// under internal/conformance/testdata is the stream (.l265) or the planes
// (.planes) of a vector planeVectors names, and every vector has both. A
// vector is found by its `name:` field in the planeVectors table.
func TestCorpusIsClosed(t *testing.T) {
	const dir = "internal/conformance"
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, "conformance_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	vectors := map[string]bool{}
	ast.Inspect(f.Scope.Lookup("planeVectors").Decl.(ast.Node), func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok && fmt.Sprint(kv.Key) == "name" {
			name, _ := strconv.Unquote(kv.Value.(*ast.BasicLit).Value)
			vectors[name] = true
		}
		return true
	})
	files, err := filepath.Glob(filepath.Join(dir, "testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		ext := filepath.Ext(file)
		if name := strings.TrimSuffix(filepath.Base(file), ext); !vectors[name] || ext != ".l265" && ext != ".planes" {
			t.Errorf("%s: no vector of planeVectors has this file — delete it, or define its vector", file)
		}
	}
	for name := range vectors {
		for _, ext := range []string{".l265", ".planes"} {
			if _, err := os.Stat(filepath.Join(dir, "testdata", name+ext)); err != nil {
				t.Errorf("vector %s: %v — regenerate with go test ./%s -update", name, err, dir)
			}
		}
	}
}

// TestKernelFlagIsContained: a test forces the pure-Go kernels in two places
// only — the kernel tests of a kernelRefDirs package's refimpl_test.go, and
// the conformance sweep, which runs every path on each kernel path. Any other
// _test.go that assigns cpufeat.AVX2FMA re-runs what the sweep already runs.
func TestKernelFlagIsContained(t *testing.T) {
	allowed := map[string]bool{"internal/conformance": true}
	for _, dir := range kernelRefDirs {
		allowed[filepath.Join(dir, "refimpl_test.go")] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" || allowed[path]) {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") || allowed[path] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && fmt.Sprint(sel.X, ".", sel.Sel) == "cpufeat.AVX2FMA" {
						t.Errorf("%s: assigns cpufeat.AVX2FMA — internal/conformance runs every path on both kernel paths", fset.Position(lhs.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A loadedPkg is one type-checked package of the module, non-test files only.
type loadedPkg struct {
	types *types.Package
	files []*ast.File
}

// A module is every package under cmd/, examples/, internal/ and benchmark/
// with what the reachability walk reads of them.
type module struct {
	fset    *token.FileSet
	info    *types.Info
	dirs    map[string]string  // import path → directory
	std     types.ImporterFrom // the standard library, type-checked from source
	pkgs    map[string]*loadedPkg
	decls   map[*types.Func]*ast.FuncDecl
	entries map[string][]*types.Func // what a testOnly key names: "pkg", "pkg.Func", "pkg.Type.Method"
	named   []*types.Named           // every named non-interface type the module declares
	outer   []*types.Interface       // method-bearing interfaces of the packages the module imports from outside
}

func loadModule(t *testing.T) *module {
	m := &module{
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		dirs:    map[string]string{"repro/benchmark": "benchmark"},
		pkgs:    map[string]*loadedPkg{},
		decls:   map[*types.Func]*ast.FuncDecl{},
		entries: map[string][]*types.Func{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	for _, glob := range []string{"cmd/*", "examples/*", "internal/*"} {
		dirs, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			if p, _ := build.ImportDir(dir, 0); len(p.GoFiles) == 0 {
				continue // a test-only package (internal/conformance) has nothing to reach
			}
			m.dirs["repro/"+filepath.ToSlash(dir)] = dir
		}
	}
	outside := map[*types.Package]bool{}
	for path := range m.dirs {
		p, err := m.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports() {
			if m.pkgs[imp.Path()] == nil {
				outside[imp] = true
			}
		}
	}
	m.outer = append(m.outer, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for p := range outside {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && tn.Type().(*types.Named).TypeParams() == nil {
					m.outer = append(m.outer, iface)
				}
			}
		}
	}
	return m
}

// Import type-checks a package of the module from its directory (once), and
// hands anything else to the source importer.
func (m *module) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.ImportFrom(path, ".", 0)
	}
	if p := m.pkgs[path]; p != nil {
		return p.types, nil
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		// The host's build only: an _amd64.go file and its !amd64 twin
		// declare the same names, and GOARCH=386 analyses the other side.
		ok, err := build.Default.MatchFile(dir, filepath.Base(name))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files", dir)
	}
	m.pkgs[path] = p // before Check: an import cycle is the compiler's to report, not a recursion here
	p.types, err = (&types.Config{Importer: m}).Check(path, m.fset, p.files, m.info)
	if err != nil {
		return nil, err
	}
	pkg := strings.TrimPrefix(path, "repro/")
	for _, f := range p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := m.info.Defs[fd.Name].(*types.Func)
			m.decls[fn] = fd
			name := pkg + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				typ := recv.Type()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				name = pkg + "." + typ.(*types.Named).Obj().Name() + "." + fn.Name()
			}
			m.entries[pkg] = append(m.entries[pkg], fn)
			m.entries[name] = append(m.entries[name], fn)
		}
	}
	for _, name := range p.types.Scope().Names() {
		tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				method := iface.ExplicitMethod(i)
				m.entries[pkg+"."+name+"."+method.Name()] = []*types.Func{method}
			}
		} else {
			m.named = append(m.named, tn.Type().(*types.Named))
		}
	}
	return p.types, nil
}

// reached is one walk's result.
type reached struct {
	funcs map[*types.Func]bool // declared functions and methods reached
	calls map[*types.Func]bool // interface methods called
}

// reach walks from the roots to a fixed point.
func (m *module) reach(roots []*types.Func) *reached {
	r := &reached{funcs: map[*types.Func]bool{}, calls: map[*types.Func]bool{}}
	live := map[*types.Named]bool{}
	var work []ast.Node
	var visitType func(types.Type)
	visitFunc := func(fn *types.Func) {
		fn = fn.Origin()
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && types.IsInterface(recv.Type()) {
			r.calls[fn] = true
			return
		}
		if r.funcs[fn] {
			return
		}
		decl := m.decls[fn]
		if decl == nil {
			return // declared outside the module
		}
		r.funcs[fn] = true
		if recv != nil {
			visitType(recv.Type())
		}
		visitType(fn.Type())
		if decl.Body != nil {
			work = append(work, decl.Body)
		}
	}
	seen := map[types.Type]bool{}
	visitType = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			if typ = typ.Origin(); typ.Obj().Pkg() != nil && m.pkgs[typ.Obj().Pkg().Path()] != nil {
				live[typ] = true
				visitType(typ.Underlying())
			}
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				visitType(typ.TypeArgs().At(i))
			}
		case *types.Pointer:
			visitType(typ.Elem())
		case *types.Slice:
			visitType(typ.Elem())
		case *types.Array:
			visitType(typ.Elem())
		case *types.Chan:
			visitType(typ.Elem())
		case *types.Map:
			visitType(typ.Key())
			visitType(typ.Elem())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				visitType(typ.Field(i).Type())
			}
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				visitType(typ.At(i).Type())
			}
		case *types.Signature:
			visitType(typ.Params())
			visitType(typ.Results())
		}
	}

	// Roots: init and the package-level initialisers of every package a root
	// function's package imports, directly or not, then the function.
	imported := map[*types.Package]bool{}
	var importAll func(p *types.Package)
	importAll = func(p *types.Package) {
		lp := m.pkgs[p.Path()]
		if lp == nil || imported[p] {
			return
		}
		imported[p] = true
		for _, imp := range p.Imports() {
			importAll(imp)
		}
		for _, f := range lp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, d)
					}
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						visitFunc(m.info.Defs[d.Name].(*types.Func))
					}
				}
			}
		}
	}
	for _, fn := range roots {
		importAll(fn.Pkg())
		visitFunc(fn)
	}
	for {
		for len(work) > 0 {
			node := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					switch obj := m.info.Uses[n].(type) {
					case *types.Func:
						visitFunc(obj)
					case *types.TypeName:
						visitType(obj.Type())
					}
				}
				if n, ok := n.(ast.Expr); ok {
					visitType(m.info.Types[n].Type)
				}
				return true
			})
		}
		// A live type answers the interface calls made so far, and the
		// interfaces the standard library calls through.
		for _, typ := range m.named {
			if !live[typ] {
				continue
			}
			ptr := types.NewPointer(typ)
			answer := func(name string) {
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, typ.Obj().Pkg(), name); obj != nil {
					visitFunc(obj.(*types.Func))
				}
			}
			for call := range r.calls {
				iface := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if types.Implements(ptr, iface) {
					answer(call.Name())
				}
			}
			for _, iface := range m.outer {
				if types.Implements(ptr, iface) {
					for i := 0; i < iface.NumMethods(); i++ {
						answer(iface.Method(i).Name())
					}
				}
			}
		}
		if len(work) == 0 {
			return r
		}
	}
}

// funcName prints fn as the kill list in CHANGES.md does: pkg.F, (*pkg.T).M.
func funcName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "repro/internal/", "")
}
