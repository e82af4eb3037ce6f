package codec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cabac"
	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/obs"
)

// The two-stage decoder's contract (DESIGN.md §13.4): whether the reconstruct
// stage runs inline or on its own goroutine is invisible in the planes and in
// the errors, and the goroutine never outlives the chunk decode that started
// it. A decode with Workers: 1 is the inline path by construction; one with
// more workers than chunks is the staged path by construction
// (codec.decode.pipelined_chunks says which one ran).

// stagedWorkers exceeds the chunk count of every container these tests
// build, so it always selects the staged path.
const stagedWorkers = 16

// awaitGoroutines fails the test unless the goroutine count returns to
// baseline. The stage's goroutine signals its exit from inside itself, so the
// runtime may still count it for an instant after the join returns.
func awaitGoroutines(t testing.TB, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the call — the reconstruct stage leaked",
				label, runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// errClass names the decode-taxonomy class of err.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrChecksum):
		return "checksum"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case IsCancellation(err):
		return "canceled"
	}
	return "untyped: " + err.Error()
}

func samePlanes(a, b []*frame.Plane) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || (a[i] != nil && !a[i].Equal(b[i])) {
			return false
		}
	}
	return true
}

func TestPipelinedDecodeMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	planesOf := func(n, w, h int) []*frame.Plane {
		ps := make([]*frame.Plane, n)
		for i := range ps {
			ps[i] = channelPlane(rng, w, h)
		}
		return ps
	}
	noTransform, noIntra, inter := AllTools, AllTools, AllTools
	noTransform.Transform = false
	noIntra.IntraPred = false
	inter.InterPred = true
	cases := []struct {
		name   string
		planes []*frame.Plane
		prof   Profile
		tools  Tools
		chunks int
	}{
		{"one-chunk", planesOf(1, 192, 192), HEVC, AllTools, 1},
		{"many-chunks", planesOf(5, 192, 192), HEVC, AllTools, 5},
		{"small-planes-one-chunk", planesOf(6, 48, 40), HEVC, AllTools, 1},
		{"17x13", planesOf(1, 17, 13), H264, AllTools, 1},
		{"inter-chunk", planesOf(3, 96, 64), HEVC, inter, 1},
		{"no-transform", planesOf(2, 96, 96), AV1, noTransform, 1},
		{"no-intra", planesOf(2, 96, 96), HEVC, noIntra, 1},
	}
	for _, backend := range []EntropyBackend{BackendCABAC, BackendRANS} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", backend, tc.name), func(t *testing.T) {
				tools := tc.tools
				tools.Backend = backend
				data, st, err := encodeAs(ContainerV3, tc.planes, 22, tc.prof, tools, 2)
				if err != nil {
					t.Fatal(err)
				}
				if st.Chunks != tc.chunks {
					t.Fatalf("%d chunks, the case wants %d", st.Chunks, tc.chunks)
				}
				want, err := decodeAll(data, 1)
				if err != nil {
					t.Fatal(err)
				}
				baseline := runtime.NumGoroutine()
				for _, workers := range []int{1, 2, 4, 8} {
					reg := obs.NewRegistry()
					dec, err := Decode(context.Background(), data, DecodeConfig{Workers: workers, Metrics: reg})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if !samePlanes(dec.Planes, want) {
						t.Fatalf("workers=%d: planes differ from the inline decode", workers)
					}
					// The surplus rule, and nothing else, decides who reconstructs.
					staged := int64(0)
					if workers > tc.chunks {
						staged = int64(tc.chunks)
					}
					if got := reg.Snapshot().Counters["codec.decode.pipelined_chunks"]; got != staged {
						t.Fatalf("workers=%d, %d chunks: %d chunks ran staged, want %d", workers, tc.chunks, got, staged)
					}
					awaitGoroutines(t, fmt.Sprintf("workers=%d", workers), baseline)
				}
			})
		}
	}
}

// stagedTwin wraps a sweep's decoder: every damaged input is decoded inline
// and staged, and the two must agree on the error class (and on the planes,
// when both accept) with the stage joined.
func stagedTwin(t *testing.T, label string) faultinject.Decoder {
	baseline := runtime.NumGoroutine()
	return func(data []byte) error {
		inline, inlineErr := decodeAll(data, 1)
		staged, stagedErr := decodeAll(data, stagedWorkers)
		if errClass(inlineErr) != errClass(stagedErr) {
			t.Errorf("%s: inline decode is %q, staged is %q (%v / %v)",
				label, errClass(inlineErr), errClass(stagedErr), inlineErr, stagedErr)
		}
		if inlineErr == nil && stagedErr == nil && !samePlanes(inline, staged) {
			t.Errorf("%s: both paths accept but the planes differ", label)
		}
		awaitGoroutines(t, label, baseline)
		return stagedErr
	}
}

// TestStagedDecodeCorruptionSweeps replays the corruption table of
// corruption_test.go through the staged path. The unchecksummed versions are
// where damaged payload bytes reach the parse; v3 rejects before it.
func TestStagedDecodeCorruptionSweeps(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	for _, tc := range []struct {
		name   string
		data   []byte
		stride int
	}{{"v1", v1, 2}, {"v2", v2, 11}, {"v3", v3, 31}} {
		dec := stagedTwin(t, tc.name)
		res := faultinject.TruncationSweep(tc.data, dec)
		requirePanicFree(t, tc.name+" staged truncation", res)
		if res.Rejected != res.Trials {
			t.Fatalf("%s: %d of %d truncations rejected", tc.name, res.Rejected, res.Trials)
		}
		requirePanicFree(t, tc.name+" staged bitflip", faultinject.BitFlipSweep(tc.data, tc.stride, dec))
		requirePanicFree(t, tc.name+" staged zerorun", faultinject.ZeroRunSweep(tc.data, 16, dec))
	}
}

// TestStagedChunkDamageMatchesInline goes below the container, where no CRC
// shields the rANS parse either: every bit of every seventh byte of a chunk
// payload is flipped and the chunk decoded inline and staged from the same
// bytes. Two planes per chunk, so a frame-boundary drain sits in the middle.
func TestStagedChunkDamageMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	planes := []*frame.Plane{gradientPlane(rng, 72, 40), gradientPlane(rng, 40, 72)}
	for _, tools := range []Tools{AllTools, ransTools()} {
		data := mustEncode(t, planes, 26, HEVC, tools)
		pc, err := parseContainer(data, false, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(pc.chunks) != 1 {
			t.Fatalf("%d chunks, want 1", len(pc.chunks))
		}
		clean := pc.chunks[0].payload
		s := newScratch()
		baseline := runtime.NumGoroutine()
		classes := map[string]int{}
		for off := 0; off < len(clean); off += 7 {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), clean...)
				bad[off] ^= 1 << bit
				c := pc.chunks[0]
				c.payload = bad
				inline, inlineErr := decodeChunkPayload(context.Background(), &c, pc, false, nil, s)
				staged, stagedErr := decodeChunkPayload(context.Background(), &c, pc, true, nil, s)
				label := fmt.Sprintf("%v bitflip@%d.%d", tools.Backend, off, bit)
				if errClass(inlineErr) != errClass(stagedErr) {
					t.Fatalf("%s: inline %q, staged %q", label, errClass(inlineErr), errClass(stagedErr))
				}
				if !samePlanes(inline, staged) {
					t.Fatalf("%s: planes differ", label)
				}
				awaitGoroutines(t, label, baseline)
				classes[errClass(stagedErr)]++
			}
		}
		for class := range classes {
			if class != "ok" && class != "corrupt" && class != "truncated" {
				t.Fatalf("%v: damaged chunk decoded to class %q", tools.Backend, class)
			}
		}
		t.Logf("%v: %v", tools.Backend, classes)
	}
}

// countdownCtx is a cancellable context whose Err turns into
// context.Canceled after a fixed number of polls — a cancellation that lands
// at a known CTU, whatever the scheduler does.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestStagedDecodeCancelsMidChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	planes := []*frame.Plane{noisePlane(rng, 256, 256)} // 64 CTUs in one chunk
	for _, tools := range []Tools{AllTools, ransTools()} {
		data := mustEncode(t, planes, 24, HEVC, tools)
		baseline := runtime.NumGoroutine()
		for _, workers := range []int{1, stagedWorkers} {
			parent, cancel := context.WithCancel(context.Background())
			ctx := &countdownCtx{Context: parent}
			ctx.left.Store(20) // one poll before the chunk, then one per CTU
			out, err := Decode(ctx, data, DecodeConfig{Workers: workers})
			cancel()
			if err != context.Canceled {
				t.Fatalf("%v workers=%d: err = %v, want exactly context.Canceled", tools.Backend, workers, err)
			}
			if out != nil {
				t.Fatalf("%v workers=%d: canceled decode returned planes", tools.Backend, workers)
			}
			if ctx.left.Load() > -1 {
				t.Fatalf("%v workers=%d: the decode finished before the countdown", tools.Backend, workers)
			}
			awaitGoroutines(t, fmt.Sprintf("%v workers=%d", tools.Backend, workers), baseline)
		}
	}
}

// TestStagePanicIsTrappedAndJoined: a defect in the reconstruct stage — here
// a batch whose leaf lies outside the frame — is handed to the joiner (which
// reports it as ErrCorrupt) instead of crashing the process, does not wedge
// the parse, and leaves no goroutine behind.
func TestStagePanicIsTrappedAndJoined(t *testing.T) {
	s := newScratch()
	s.rcn = reconstructor{prof: HEVC.params(), tools: AllTools, qp: 30, scr: s}
	s.rcn.beginFrame(32, 32)
	baseline := runtime.NumGoroutine()
	st := startReconStage(&s.rcn, 0)
	for i := 0; i < 3*ringDepth; i++ { // the stage keeps recycling after the panic
		b := <-st.free
		b.n, b.levN = 1, 0
		b.leaves[0] = leafRec{x: 1 << 20, y: 0, size: 8}
		st.full <- b
	}
	if failed := st.join(); failed == nil {
		t.Fatal("out-of-frame leaf did not panic the reconstruct stage")
	}
	awaitGoroutines(t, "stage panic", baseline)
}

func TestSigCtxTableMatchesDefinition(t *testing.T) {
	for si, n := range []int{4, 8, 16, 32} {
		for _, transformed := range []bool{true, false} {
			scan, sigSlot := residualScan(n, transformed)
			third := 2 // raster: (0,0) (0,1) (0,2); zigzag: (0,0) (0,1) (1,0)
			if transformed {
				third = n
			}
			if len(scan) != n*n || len(sigSlot) != n*n || scan[2] != third {
				t.Fatalf("n=%d transformed=%v: residualScan returned the wrong scan", n, transformed)
			}
			for i, pos := range scan {
				if got, want := int(sigSlot[i]), ctxSig+si*sigBins+diagBin(pos, n); got != want {
					t.Fatalf("n=%d transformed=%v scan position %d (coefficient %d): slot %d, definition says %d",
						n, transformed, i, pos, got, want)
				}
			}
		}
	}
}

// TestContextSlotLayout pins the slot numbering, which is bitstream contract:
// the rANS flag classes are the slots before ctxSig, and the level classes
// follow them (the rANS golden vectors would catch a change too, but not say
// why).
// The literals are the order the pre-flat-array contexts struct listed its
// fields in: split[6], interFlag, modeSame, cbf[4], sig[4][9], g1[4], g2[4].
func TestContextSlotLayout(t *testing.T) {
	var want []cabac.Context
	add := func(n int, p0 float64) {
		for i := 0; i < n; i++ {
			want = append(want, cabac.NewContext(p0))
		}
	}
	starts := []int{len(want)}
	for _, g := range []struct {
		n  int
		p0 float64
	}{{6, 0.5}, {1, 0.8}, {1, 0.5}, {4, 0.3}, {4 * 9, 0.6}, {4, 0.6}, {4, 0.6}} {
		add(g.n, g.p0)
		starts = append(starts, len(want))
	}
	got := []int{ctxSplit, ctxInterFlag, ctxModeSame, ctxCbf, ctxSig, ctxG1, ctxG2, nCtxSlots}
	for i := range got {
		if got[i] != starts[i] {
			t.Fatalf("slot group %d starts at %d, contract says %d", i, got[i], starts[i])
		}
	}
	if nClasses != 20 || levelClass(0, 0) != ctxSig || levelClass(3, 1<<10-1) != nClasses-1 {
		t.Fatalf("%d rANS classes, level classes %d…%d; the v3 backend extension carries 12 flag and 8 level classes",
			nClasses, levelClass(0, 0), levelClass(3, 1<<10-1))
	}
	var c contexts
	c.init()
	for s := range c {
		if c[s] != want[s] {
			t.Fatalf("slot %d initial state %v, want %v", s, c[s], want[s])
		}
	}
	if splitSlot(0) != 0 || splitSlot(5) != 5 || splitSlot(9) != 5 {
		t.Fatal("split slots must be the depth, saturating at the last")
	}
}
