// Package conformance holds what "the same bytes" means for the whole system
// (DESIGN.md §11, "Conformance"): the golden corpus — seeded sources whose
// committed .l265 streams and .planes reconstructions pin the bitstream — and
// one table test that holds every path a consumer gets the encoder's bytes or
// reconstruction through to a reference one layer down, over {CABAC, rANS} ×
// Workers {1, 2, 4, 8} × kernels {generic, AVX2 when the host has it}.
//
// After an intentional bitstream change, regenerate the corpus with
//
//	go test ./internal/conformance -update
//
// and commit testdata/ with the change that moved it.
package conformance

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/frame"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensorgen"
)

var update = flag.Bool("update", false, "regenerate the golden corpus from planeVectors")

// A planeVector is one golden vector of the codec layer: a seeded source and
// the configuration testdata/<name>.l265 was encoded with; <name>.planes is
// that stream's decode.
type planeVector struct {
	name      string
	qp        int
	prof      codec.Profile
	tools     codec.Tools
	container codec.Container // the name's v1/v2 prefix is ContainerLegacy's one-chunk/several rule
	planes    func() []*frame.Plane
}

var (
	interTools = codec.Tools{Partitioning: true, Transform: true, IntraPred: true, InterPred: true}
	ransTools  = codec.Tools{Partitioning: true, Transform: true, IntraPred: true, Backend: codec.BackendRANS}
)

// planeVectors is the corpus. TestCorpusIsClosed (root package) fails on a
// testdata file no entry names and on an entry missing either of its files.
var planeVectors = []planeVector{
	{name: "v1-hevc-gradient-96x96-qp28", qp: 28, prof: codec.HEVC, tools: codec.AllTools, planes: one(101, gradientPlane, 96, 96)},
	{name: "v1-h264-channel-64x48-qp24", qp: 24, prof: codec.H264, tools: codec.AllTools, planes: one(102, channelPlane, 64, 48)},
	{name: "v1-av1-noise-33x31-qp20", qp: 20, prof: codec.AV1, tools: codec.AllTools, planes: one(103, noisePlane, 33, 31)},
	{name: "v1-hevc-entropyonly-64x64-qp24", qp: 24, prof: codec.HEVC, tools: codec.Tools{}, planes: one(104, gradientPlane, 64, 64)},
	{name: "v1-hevc-nointra-64x64-qp30", qp: 30, prof: codec.HEVC, tools: codec.Tools{Partitioning: true, Transform: true}, planes: one(105, gradientPlane, 64, 64)},
	{name: "v1-hevc-1x1-qp20", qp: 20, prof: codec.HEVC, tools: codec.AllTools, planes: one(106, noisePlane, 1, 1)},
	{name: "v1-hevc-prime-17x13-qp16", qp: 16, prof: codec.HEVC, tools: codec.AllTools, planes: one(107, noisePlane, 17, 13)},
	{name: "v1-hevc-inter-2f-64x64-qp24", qp: 24, prof: codec.HEVC, tools: interTools, planes: shifted(108)},
	// 6 × 96×96 planes = 55296 px: two chunks at the 2^15 floor, so these pin
	// the chunked framing and the stitch order under Workers > 1.
	{name: "v2-hevc-stack6-96x96-qp30", qp: 30, prof: codec.HEVC, tools: codec.AllTools, planes: stack(109, 6, 96, 96)},
	{name: "v3-hevc-stack6-96x96-qp30", qp: 30, prof: codec.HEVC, tools: codec.AllTools, container: codec.ContainerV3, planes: stack(109, 6, 96, 96)},
	{name: "v3-h264-stack4-80x64-qp26", qp: 26, prof: codec.H264, tools: codec.AllTools, container: codec.ContainerV3, planes: stack(110, 4, 80, 64)},
	{name: "v3-rans-hevc-stack6-96x96-qp30", qp: 30, prof: codec.HEVC, tools: ransTools, container: codec.ContainerV3, planes: stack(109, 6, 96, 96)},
	{name: "v3-rans-h264-stack4-80x64-qp26", qp: 26, prof: codec.H264, tools: ransTools, container: codec.ContainerV3, planes: stack(110, 4, 80, 64)},
	{name: "v3-rans-hevc-noise-33x31-qp16", qp: 16, prof: codec.HEVC, tools: ransTools, container: codec.ContainerV3, planes: one(111, noisePlane, 33, 31)},
}

func (v planeVector) config(workers int, reg *obs.Registry) codec.EncodeConfig {
	return codec.EncodeConfig{QP: v.qp, Profile: v.prof, Tools: v.tools, Container: v.container, Workers: workers, Metrics: reg}
}

// gradientPlane is a smooth image with channel-like horizontal bands and mild
// noise, the structure the paper says weight tensors have.
func gradientPlane(rng *rand.Rand, w, h int) *frame.Plane {
	return fill(w, h, func(x, y int) float64 {
		return 100 + 60*math.Sin(float64(y)/7) + 30*math.Sin(float64(x)/11) + rng.NormFloat64()*4
	})
}

// channelPlane gives each row its own base level, with mild noise: the sharp
// row-to-row edges intra prediction captures (the paper's Fig. 4).
func channelPlane(rng *rand.Rand, w, h int) *frame.Plane {
	var base float64
	return fill(w, h, func(x, y int) float64 {
		if x == 0 {
			base = float64(40 + rng.Intn(176))
		}
		return base + rng.NormFloat64()*3
	})
}

func noisePlane(rng *rand.Rand, w, h int) *frame.Plane {
	p := frame.NewPlane(w, h)
	rng.Read(p.Pix)
	return p
}

// fill draws a w×h plane in raster order, clamping each value to [0, 255].
func fill(w, h int, f func(x, y int) float64) *frame.Plane {
	p := frame.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Row(y)[x] = uint8(min(max(f(x, y), 0), 255))
		}
	}
	return p
}

func one(seed int64, draw func(*rand.Rand, int, int) *frame.Plane, w, h int) func() []*frame.Plane {
	return func() []*frame.Plane { return []*frame.Plane{draw(rand.New(rand.NewSource(seed)), w, h)} }
}

// stack alternates channel and gradient planes.
func stack(seed int64, n, w, h int) func() []*frame.Plane {
	return func() []*frame.Plane {
		rng := rand.New(rand.NewSource(seed))
		ps := make([]*frame.Plane, n)
		for i := range ps {
			ps[i] = [2]func(*rand.Rand, int, int) *frame.Plane{channelPlane, gradientPlane}[i%2](rng, w, h)
		}
		return ps
	}
}

// shifted is a gradient plane and its copy moved 2 px right: inter prediction.
func shifted(seed int64) func() []*frame.Plane {
	return func() []*frame.Plane {
		base := gradientPlane(rand.New(rand.NewSource(seed)), 64, 64)
		return []*frame.Plane{base, fill(64, 64, func(x, y int) float64 { return float64(base.At(max(x-2, 0), y)) })}
	}
}

// A tensorVector is a float input of the layers above the codec.
type tensorVector struct {
	name                   string
	seed                   int64
	layers, rows, cols, qp int
	perRow, checksum       bool
}

var tensorVectors = []tensorVector{
	{name: "weights-64x96-qp24-checksum", seed: 201, layers: 1, rows: 64, cols: 96, qp: 24, checksum: true},
	{name: "perrow-45x80-qp20-checksum", seed: 202, layers: 1, rows: 45, cols: 80, qp: 20, perRow: true, checksum: true},
	// Two chunks (8 + 1 layers at the 2^15-pixel floor), so a store that
	// stitches them out of order fails.
	{name: "stack-9x64x64-qp30-checksum", seed: 203, layers: 9, rows: 64, cols: 64, qp: 30, checksum: true},
}

func (v tensorVector) stack() []*core.Tensor {
	var out []*core.Tensor
	for _, d := range tensorgen.WeightStack(rand.New(rand.NewSource(v.seed)), v.layers, v.rows, v.cols, 0.3) {
		out = append(out, core.FromSlice(v.rows, v.cols, d))
	}
	return out
}

func (v tensorVector) options(backend codec.EntropyBackend, workers int) core.Options {
	o := core.DefaultOptions()
	o.PerRowQuant, o.Checksum, o.Backend, o.Workers = v.perRow, v.checksum, backend, workers
	return o
}

// switches lists the vector's options under the names a surface gives them.
func (v tensorVector) switches(perRow, checksum string) []string {
	var out []string
	for name, set := range map[string]bool{perRow: v.perRow, checksum: v.checksum} {
		if set {
			out = append(out, name)
		}
	}
	return out
}

// kvFlush is the KV path's flush group; the vectors' row counts leave a tail.
const kvFlush = 8

// A reference is what a tensor vector's paths are held to: a direct core
// encode and decode at Workers 1 on the pure-Go kernels.
type reference struct {
	wire   []byte         // core's Marshal
	dec    []*core.Tensor // core's decode
	floats []byte         // dec as the float32 LE body /v1/decode and `llm265 decode` write
	stats  codec.Stats
	kv     []float32 // layer 0 as KV rows (CABAC only): the per-row core encode of its kvFlush-row bands, the tail raw
}

func newReference(t *testing.T, v tensorVector, backend codec.EntropyBackend) *reference {
	ctx, x, o := context.Background(), v.stack(), v.options(backend, 1)
	enc := must(o.EncodeStackCtx(ctx, x, v.qp))(t)
	dec := must(o.DecodeStackCtx(ctx, enc))(t)
	ref := &reference{wire: enc.Marshal(), dec: dec, floats: floats(dec...), stats: enc.Stats, kv: slices.Clone(x[0].Data)}
	if n := v.rows / kvFlush * kvFlush * v.cols; n > 0 && backend == codec.BackendCABAC {
		ko := core.Options{PerRowQuant: true, MaxFrameW: v.cols, MaxFrameH: kvFlush, Tools: codec.AllTools, Workers: 1}
		e := must(ko.EncodeStackCtx(ctx, []*core.Tensor{core.FromSlice(n/v.cols, v.cols, ref.kv[:n])}, v.qp))(t)
		copy(ref.kv, must(ko.DecodeStackCtx(ctx, e))(t)[0].Data)
	}
	return ref
}

// A cell is one (kernels, workers, backend) point of the sweep, with the
// fixtures its paths share, built on first use.
type cell struct {
	workers int
	backend codec.EntropyBackend
	cli     func() (string, error) // the llm265 binary whose kernels are the cell's, built once a sweep
	scope   *testing.T             // the workers subtest, which the servers live as long as
	urls    map[string]string      // "http", "proxy-1" … "proxy-3" → base URL
}

// paths is the registry: each consumer of the encoder's bytes and what it is
// held to. A plane path gets the committed stream and .planes file, a tensor
// path the cell's core encode and the vector's reference.
var paths = []struct {
	name    string
	planes  func(t *testing.T, c *cell, v planeVector, stream, planes []byte)
	tensors func(t *testing.T, c *cell, v tensorVector, enc *core.Encoded, ref *reference)
}{
	{name: "codec", planes: codecDecode},
	{name: "core", tensors: coreDecode},
	{name: "cli", tensors: cliRoundTrip},
	{name: "http", planes: httpPlanes("http"), tensors: httpTensors("http")},
	{name: "proxy-1", planes: httpPlanes("proxy-1"), tensors: httpTensors("proxy-1")},
	{name: "proxy-2", planes: httpPlanes("proxy-2"), tensors: httpTensors("proxy-2")},
	{name: "proxy-3", planes: httpPlanes("proxy-3"), tensors: httpTensors("proxy-3")},
	{name: "store", tensors: storeFetch},
	{name: "kv", tensors: kvReads},
	{name: "allreduce", tensors: allreduceSegment},
}

// TestConformance runs every path × vector over kernels × workers × backends;
// a codec vector runs under the backend its tools name. Each vector's subtest
// encodes once — a codec vector through codec.Encode (with a live registry and
// context: neither may move bytes), held to its committed stream; a tensor vector
// through core, held to its reference — asserts that the reconstruction the
// encode returns is the decode and that Stats match, then runs the paths.
func TestConformance(t *testing.T) {
	if *update {
		regenerate(t)
	}
	kernels := []bool{false, true}
	if !cpufeat.AVX2FMA {
		kernels = kernels[:1]
		t.Logf("kernels axis collapses to generic: this build (GOARCH=%s) or CPU has no AVX2+FMA kernels", runtime.GOARCH)
	}
	host := cpufeat.AVX2FMA
	defer func() { cpufeat.AVX2FMA = host }()
	cpufeat.AVX2FMA = false
	backends := []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS}
	refs := map[string]*reference{} // by vector/backend
	for _, v := range tensorVectors {
		for _, b := range backends {
			refs[v.name+"/"+b.String()] = newReference(t, v, b)
		}
	}
	var stats sync.Map // vector name → the codec.Stats every cell reproduces
	for _, simd := range kernels {
		name, dir := map[bool]string{false: "generic", true: "avx2"}[simd], t.TempDir()
		cli := sync.OnceValues(func() (string, error) { return buildCLI(dir, name) })
		cpufeat.AVX2FMA = simd // no cell runs: the previous sweep's have all returned
		t.Run("kernels="+name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
					t.Parallel()
					c := &cell{workers: workers, cli: cli, scope: t}
					for _, backend := range backends {
						c.backend = backend
						t.Run(fmt.Sprint("backend=", backend), func(t *testing.T) {
							for _, v := range planeVectors {
								if v.tools.Backend == backend {
									t.Run(v.name, func(t *testing.T) { runPlanes(t, c, v, &stats) })
								}
							}
							for _, v := range tensorVectors {
								t.Run(v.name, func(t *testing.T) { runTensors(t, c, v, refs[v.name+"/"+backend.String()]) })
							}
						})
					}
				})
			}
		})
	}
}

// regenerate rewrites testdata/ from planeVectors.
func regenerate(t *testing.T) {
	for _, v := range planeVectors {
		stream, _, _, err := codec.Encode(context.Background(), v.planes(), v.config(1, nil))
		check(t, err)
		dec := must(codec.Decode(context.Background(), stream, codec.DecodeConfig{Workers: 1}))(t)
		check(t, os.WriteFile(filepath.Join("testdata", v.name+".l265"), stream, 0o644))
		check(t, os.WriteFile(filepath.Join("testdata", v.name+".planes"), gpln(dec.Planes), 0o644))
	}
}

func runPlanes(t *testing.T, c *cell, v planeVector, stats *sync.Map) {
	stream := must(os.ReadFile(filepath.Join("testdata", v.name+".l265")))(t)
	planes := must(os.ReadFile(filepath.Join("testdata", v.name+".planes")))(t)
	ctx, cancel := context.WithCancel(context.Background()) // live, never fired: ctx must not move bytes either
	defer cancel()
	data, st, recon, err := codec.Encode(ctx, v.planes(), v.config(c.workers, obs.NewRegistry()))
	check(t, err)
	sameBytes(t, "codec.Encode", data, stream)
	sameBytes(t, "codec.Encode's reconstruction", gpln(recon), planes)
	if ref, seen := stats.LoadOrStore(v.name, st); seen && ref != st {
		t.Fatalf("codec.Encode's Stats %+v, another cell's %+v", st, ref)
	}
	for _, p := range paths {
		if p.planes != nil {
			t.Run(p.name, func(t *testing.T) { p.planes(t, c, v, stream, planes) })
		}
	}
}

func runTensors(t *testing.T, c *cell, v tensorVector, ref *reference) {
	enc, recon, err := v.options(c.backend, c.workers).EncodeStackRecon(context.Background(), v.stack(), v.qp)
	check(t, err)
	sameBytes(t, "core.EncodeStackRecon", enc.Marshal(), ref.wire)
	sameBytes(t, "core.EncodeStackRecon's reconstruction", floats(recon...), ref.floats)
	if enc.Stats != ref.stats {
		t.Fatalf("core's Stats %+v, the reference's %+v", enc.Stats, ref.stats)
	}
	for _, p := range paths {
		if p.tensors != nil {
			t.Run(p.name, func(t *testing.T) { p.tensors(t, c, v, enc, ref) })
		}
	}
}

// codecDecode: codec.Decode, inline (Workers ≤ chunks) or staged, whole and
// windowed, strict and Partial — and, on a v3 stream with its last chunk
// damaged, Partial windows that are crops of the whole Partial decode.
func codecDecode(t *testing.T, c *cell, v planeVector, stream, planes []byte) {
	ctx, reg := context.Background(), obs.NewRegistry()
	full := must(codec.Decode(ctx, stream, codec.DecodeConfig{Workers: c.workers, Metrics: reg}))(t)
	sameBytes(t, "decode", gpln(full.Planes), planes)
	staged := int64(0)
	if c.workers > full.Chunks {
		staged = int64(full.Chunks)
	}
	if got := reg.Snapshot().Counters["codec.decode.pipelined_chunks"]; got != staged {
		t.Fatalf("%d chunks on %d workers: %d staged, want %d", full.Chunks, c.workers, got, staged)
	}
	n := len(full.Planes)
	windows := [][2]int{{0, 1}, {n - 1, 1}}
	if n > 2 {
		windows = append(windows, [2]int{1, n - 2})
	}
	for _, w := range windows {
		for _, partial := range []bool{false, true} {
			got := must(codec.Decode(ctx, stream, codec.DecodeConfig{Workers: c.workers, First: w[0], Count: w[1], Partial: partial}))(t)
			sameBytes(t, fmt.Sprintf("window %v partial=%v", w, partial), gpln(got.Planes), gpln(full.Planes[w[0]:w[0]+w[1]]))
		}
	}
	if v.container != codec.ContainerV3 {
		return
	}
	last := must(codec.Layout(stream))(t).Entries[full.Chunks-1]
	damaged := bytes.Clone(stream)
	damaged[last.Offset+int64(last.Length)/2] ^= 0x40
	whole := must(codec.Decode(ctx, damaged, codec.DecodeConfig{Workers: c.workers, Partial: true}))(t)
	if len(whole.Errors) != 1 || !errors.Is(whole.Errors[0], codec.ErrChecksum) || whole.Recovered() != last.PlaneBase {
		t.Fatalf("damaged last chunk: %d planes recovered, chunk errors %v", whole.Recovered(), whole.Errors)
	}
	sameBytes(t, "damaged last chunk", gpln(whole.Planes[:last.PlaneBase]), gpln(full.Planes[:last.PlaneBase]))
	for _, w := range windows {
		got := must(codec.Decode(ctx, damaged, codec.DecodeConfig{Workers: c.workers, First: w[0], Count: w[1], Partial: true}))(t)
		if hit := w[0]+w[1] > last.PlaneBase; len(got.Errors) != map[bool]int{false: 0, true: 1}[hit] {
			t.Fatalf("damaged, window %v: chunk errors %v", w, got.Errors)
		}
		sameBytes(t, fmt.Sprintf("damaged, window %v", w), gpln(got.Planes), gpln(whole.Planes[w[0]:w[0]+w[1]]))
	}
}

// coreDecode: core.DecodeStackCtx of the marshaled encode, and each layer on
// its own through DecodeLayerCtx.
func coreDecode(t *testing.T, c *cell, v tensorVector, enc *core.Encoded, ref *reference) {
	o := v.options(c.backend, c.workers)
	received := must(core.UnmarshalEncoded(enc.Marshal()))(t)
	sameBytes(t, "DecodeStackCtx", floats(must(o.DecodeStackCtx(context.Background(), received))(t)...), ref.floats)
	for l, want := range ref.dec {
		sameBytes(t, fmt.Sprint("DecodeLayerCtx ", l), floats(must(o.DecodeLayerCtx(context.Background(), received, l))(t)), floats(want))
	}
}

// buildCLI builds llm265 into dir for a kernel path. A process cannot be
// handed the kernel flag, so generic is the GOARCH=386 build on an amd64 host.
func buildCLI(dir, kernels string) (string, error) {
	goarch := runtime.GOARCH
	if kernels == "generic" && goarch == "amd64" {
		goarch = "386"
	}
	bin := filepath.Join(dir, "llm265")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/llm265")
	build.Env = append(os.Environ(), "GOARCH="+goarch)
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
}

// cliRoundTrip: `llm265 encode` and `llm265 decode` of a one-layer tensor.
func cliRoundTrip(t *testing.T, c *cell, v tensorVector, _ *core.Encoded, ref *reference) {
	if v.layers != 1 {
		return // the CLI encodes one tensor
	}
	bin := must(c.cli())(t)
	dir := t.TempDir()
	in, l265, out := filepath.Join(dir, "x.f32"), filepath.Join(dir, "x.l265"), filepath.Join(dir, "y.f32")
	check(t, os.WriteFile(in, floats(v.stack()...), 0o644))
	for _, args := range [][]string{
		append([]string{"encode", "-rows", fmt.Sprint(v.rows), "-cols", fmt.Sprint(v.cols), "-qp", fmt.Sprint(v.qp),
			"-backend", c.backend.String(), "-workers", fmt.Sprint(c.workers), "-in", in, "-out", l265},
			v.switches("-perrow", "-checksum")...),
		{"decode", "-workers", fmt.Sprint(c.workers), "-in", l265, "-out", out},
	} {
		if b, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("llm265 %v: %v\n%s", args, err, b)
		}
	}
	sameBytes(t, "llm265 encode", must(os.ReadFile(l265))(t), ref.wire)
	sameBytes(t, "llm265 decode", must(os.ReadFile(out))(t), ref.floats)
}

// fixture starts the cell's serve instance ("http") and the proxies over
// 1, 2 and 3 fresh ones ("proxy-N") on first use.
func (c *cell) fixture(t *testing.T, name string) string {
	if c.urls == nil {
		c.urls = map[string]string{}
		mount := func(h http.Handler) string {
			ts := httptest.NewServer(h)
			c.scope.Cleanup(ts.Close)
			return ts.URL
		}
		backend := func() string { return mount(serve.New(serve.Config{Workers: c.workers, MaxInflight: 4}).Handler()) }
		c.urls["http"] = backend()
		for n := 1; n <= 3; n++ {
			var urls []string
			for range n {
				urls = append(urls, backend())
			}
			p := must(proxy.New(proxy.Config{Backends: urls, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond}))(t)
			c.scope.Cleanup(p.Close)
			c.urls[fmt.Sprint("proxy-", n)] = mount(p.Handler())
		}
	}
	return c.urls[name]
}

// httpPlanes: POST /v1/decode of a committed stream answers its .planes.
func httpPlanes(name string) func(*testing.T, *cell, planeVector, []byte, []byte) {
	return func(t *testing.T, c *cell, _ planeVector, stream, planes []byte) {
		sameBytes(t, "POST /v1/decode", post(t, c.fixture(t, name)+"/v1/decode", stream), planes)
	}
}

// httpTensors: POST /v1/encode answers core's Marshal, and /v1/decode of it
// core's decode.
func httpTensors(name string) func(*testing.T, *cell, tensorVector, *core.Encoded, *reference) {
	return func(t *testing.T, c *cell, v tensorVector, _ *core.Encoded, ref *reference) {
		base := c.fixture(t, name)
		q := fmt.Sprintf("/v1/encode?layers=%d&rows=%d&cols=%d&qp=%d&backend=%s%s", v.layers, v.rows, v.cols, v.qp, c.backend,
			strings.Join(v.switches("&per-row=1", "&checksum=1"), ""))
		sameBytes(t, "POST "+q, post(t, base+q, floats(v.stack()...)), ref.wire)
		sameBytes(t, "POST /v1/decode", post(t, base+"/v1/decode", ref.wire), ref.floats)
	}
}

// storeFetch: pack → fetch gives back the packed bytes, and a Model's layers
// are core's decode.
func storeFetch(t *testing.T, c *cell, v tensorVector, enc *core.Encoded, ref *reference) {
	st := must(store.Open(t.TempDir(), nil))(t)
	must(st.Pack("m", []store.PackEntry{{Name: "t", Enc: enc}}))(t)
	sameBytes(t, "Fetch", must(st.Fetch("m"))(t)["t"].Marshal(), ref.wire)
	m := must(st.OpenModel("m", v.options(c.backend, c.workers), 0))(t)
	for l, want := range ref.dec {
		sameBytes(t, fmt.Sprint("Model.Layer ", l), floats(must(m.Layer("t", l))(t)), floats(want))
	}
}

// kvReads: layer 0's rows appended to a KV session in random batches read
// back, over any range, as the reference's KV rows. KV chunks are CABAC only.
func kvReads(t *testing.T, c *cell, v tensorVector, _ *core.Encoded, ref *reference) {
	if c.backend != codec.BackendCABAC {
		t.Logf("kv path skips backend=%v: the KV tier codes its chunks with CABAC only", c.backend)
		return
	}
	ctx, vals, dim := context.Background(), v.stack()[0].Data, v.cols
	tab := kv.New(kv.Config{FlushRows: kvFlush, QP: v.qp, Workers: c.workers})
	rng := rand.New(rand.NewSource(int64(c.workers)))
	for at := 0; at < v.rows; {
		k := min(1+rng.Intn(2*kvFlush), v.rows-at)
		must(tab.Append(ctx, "s", dim, at, vals[at*dim:(at+k)*dim]))(t)
		at += k
	}
	for i := 0; i < 8; i++ {
		t0, t1 := 0, v.rows
		if i > 0 {
			t0 = rng.Intn(v.rows)
			t1 = t0 + 1 + rng.Intn(v.rows-t0)
		}
		got := must(tab.Read(ctx, "s", t0, t1))(t)
		if got.From != t0 || got.To != t1 {
			t.Fatalf("Read [%d,%d) served [%d,%d)", t0, t1, got.From, got.To)
		}
		sameBytes(t, fmt.Sprintf("Read [%d,%d)", t0, t1), le(nil, got.Vals), le(nil, ref.kv[t0*dim:t1*dim]))
	}
}

// allreduceSegment: the ring's TensorCodec payload is core's Marshal, its
// reconstruction core's decode, and a receiver decodes the payload as sent to it.
func allreduceSegment(t *testing.T, c *cell, v tensorVector, _ *core.Encoded, ref *reference) {
	if v.layers != 1 {
		return // a ring segment is one tensor
	}
	ctx, want := context.Background(), floats(ref.dec[0])
	sc := allreduce.TensorCodec(v.options(c.backend, c.workers), v.qp)(0)
	payload, recon, _, err := sc.Encode(ctx, v.stack()[0].Data, v.rows, v.cols)
	check(t, err)
	sameBytes(t, "TensorCodec payload", payload, ref.wire)
	sameBytes(t, "TensorCodec reconstruction", le(nil, recon), want)
	dst := make([]float32, v.rows*v.cols)
	check(t, sc.Decode(ctx, payload, v.rows, v.cols, dst))
	sameBytes(t, "TensorCodec decode of the payload", le(nil, dst), want)
}

func post(t *testing.T, url string, body []byte) []byte {
	resp := must(http.Post(url, "application/octet-stream", bytes.NewReader(body)))(t)
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %v %.200s", url, resp.StatusCode, err, out.Bytes())
	}
	return out.Bytes()
}

// gpln serializes planes as the .planes files and /v1/decode's codec-stream
// answers do: "GPLN", a uint32 count, then per plane uint32 w, uint32 h and
// the pixels.
func gpln(planes []*frame.Plane) []byte {
	out := binary.BigEndian.AppendUint32([]byte("GPLN"), uint32(len(planes)))
	for _, p := range planes {
		if p == nil {
			p = &frame.Plane{} // a chunk Partial lost: 0×0
		}
		out = append(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(out, uint32(p.W)), uint32(p.H)), p.Pix...)
	}
	return out
}

// floats is the float32 LE serialization of the tensors' values in order.
func floats(ts ...*core.Tensor) []byte {
	var out []byte
	for _, t := range ts {
		out = le(out, t.Data)
	}
	return out
}

func le(out []byte, vals []float32) []byte {
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes, the reference %d; first difference at byte %d", what, len(got), len(want), i)
	}
}

// must(f())(t) is f's value, failing t on f's error.
func must[V any](v V, err error) func(*testing.T) V {
	return func(t *testing.T) V {
		t.Helper()
		check(t, err)
		return v
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
