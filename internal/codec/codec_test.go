package codec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// encodeAs and decodeAll are the suite's two call-shape helpers: the common
// "background context, no metrics" Encode into a chosen container, and the
// strict whole-stream Decode reduced to its planes. Anything else — metrics,
// a real context, a plane window, Partial — calls Encode/Decode directly.
func encodeAs(container Container, planes []*frame.Plane, qp int, prof Profile, tools Tools, workers int) ([]byte, Stats, error) {
	return streamOf(Encode(context.Background(), planes, EncodeConfig{
		QP: qp, Profile: prof, Tools: tools, Workers: workers, Container: container}))
}

func decodeAll(data []byte, workers int) ([]*frame.Plane, error) {
	return planesOf(Decode(context.Background(), data, DecodeConfig{Workers: workers}))
}

// gradientPlane builds a smooth image with channel-like horizontal bands and
// mild noise — the structure the paper says weight tensors exhibit.
func gradientPlane(rng *rand.Rand, w, h int) *frame.Plane {
	p := frame.NewPlane(w, h)
	for y := 0; y < h; y++ {
		base := 100 + 60*math.Sin(float64(y)/7)
		for x := 0; x < w; x++ {
			v := base + 30*math.Sin(float64(x)/11) + rng.NormFloat64()*4
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			p.Row(y)[x] = uint8(v)
		}
	}
	return p
}

// channelPlane mimics an LLM weight image: each row ("channel") has its own
// base level with sharp row-to-row transitions plus mild noise — the
// edge-like structure the paper's Fig. 4 shows intra prediction capturing.
func channelPlane(rng *rand.Rand, w, h int) *frame.Plane {
	p := frame.NewPlane(w, h)
	for y := 0; y < h; y++ {
		base := float64(40 + rng.Intn(176))
		for x := 0; x < w; x++ {
			v := base + rng.NormFloat64()*3
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			p.Row(y)[x] = uint8(v)
		}
	}
	return p
}

func noisePlane(rng *rand.Rand, w, h int) *frame.Plane {
	p := frame.NewPlane(w, h)
	rng.Read(p.Pix)
	return p
}

// decodeMSE round-trips and computes MSE vs the originals.
func decodeMSE(t *testing.T, data []byte, orig []*frame.Plane) float64 {
	t.Helper()
	dec, err := decodeAll(data, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(orig) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(orig))
	}
	var sse float64
	var n int
	for i := range dec {
		if dec[i].W != orig[i].W || dec[i].H != orig[i].H {
			t.Fatalf("frame %d: decoded %dx%d want %dx%d", i, dec[i].W, dec[i].H, orig[i].W, orig[i].H)
		}
		sse += dec[i].MSE(orig[i]) * float64(orig[i].W*orig[i].H)
		n += orig[i].W * orig[i].H
	}
	return sse / float64(n)
}

func TestEncodeDecodeMSEMatchesStats(t *testing.T) {
	// The decoder must reproduce the encoder's reconstruction exactly, so
	// the decoded MSE equals the encoder-reported MSE bit for bit.
	rng := rand.New(rand.NewSource(1))
	p := gradientPlane(rng, 96, 96)
	for _, qp := range []int{8, 20, 32, 44} {
		data, st, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, qp, HEVC, AllTools, 1)
		if err != nil {
			t.Fatalf("qp %d: %v", qp, err)
		}
		got := decodeMSE(t, data, []*frame.Plane{p})
		if got != st.MSE {
			t.Fatalf("qp %d: decoded MSE %.6f != encoder MSE %.6f (enc/dec desync)", qp, got, st.MSE)
		}
	}
}

func TestAllProfilesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := gradientPlane(rng, 64, 48) // non-multiple of CTU exercises padding
	for _, prof := range []Profile{H264, HEVC, AV1} {
		data, st, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 24, prof, AllTools, 1)
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		got := decodeMSE(t, data, []*frame.Plane{p})
		if got != st.MSE {
			t.Fatalf("%s: MSE mismatch %.6f vs %.6f", prof, got, st.MSE)
		}
	}
}

func TestToolCombinationsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	planes := []*frame.Plane{gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64)}
	combos := []Tools{
		{},
		{Transform: true},
		{Partitioning: true, Transform: true},
		{Partitioning: true, Transform: true, IntraPred: true},
		{Partitioning: true, Transform: true, IntraPred: true, InterPred: true},
		{IntraPred: true},
	}
	for _, tc := range combos {
		data, st, err := encodeAs(ContainerLegacy, planes, 24, HEVC, tc, 1)
		if err != nil {
			t.Fatalf("tools %+v: %v", tc, err)
		}
		got := decodeMSE(t, data, planes)
		if got != st.MSE {
			t.Fatalf("tools %+v: MSE mismatch %.6f vs %.6f", tc, got, st.MSE)
		}
	}
}

func TestMultiFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	planes := []*frame.Plane{
		gradientPlane(rng, 64, 64),
		gradientPlane(rng, 40, 72),
		noisePlane(rng, 33, 33),
	}
	data, st, err := encodeAs(ContainerLegacy, planes, 28, HEVC, AllTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeMSE(t, data, planes)
	if got != st.MSE {
		t.Fatalf("MSE mismatch %.6f vs %.6f", got, st.MSE)
	}
}

func TestInterFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := gradientPlane(rng, 64, 64)
	shifted := frame.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			sx := x - 3 // pure translation: inter should capture this
			if sx < 0 {
				sx = 0
			}
			shifted.Row(y)[x] = base.At(sx, y)
		}
	}
	tools := AllTools
	tools.InterPred = true
	planes := []*frame.Plane{base, shifted}
	data, st, err := encodeAs(ContainerLegacy, planes, 24, HEVC, tools, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeMSE(t, data, planes)
	if got != st.MSE {
		t.Fatalf("inter MSE mismatch %.6f vs %.6f", got, st.MSE)
	}
}

func TestInterHelpsTranslatedVideo(t *testing.T) {
	// Sanity for the motion path: on a translating scene, enabling inter
	// must reduce the bitrate at equal QP.
	rng := rand.New(rand.NewSource(6))
	base := gradientPlane(rng, 96, 96)
	planes := []*frame.Plane{base}
	for s := 1; s <= 3; s++ {
		sh := frame.NewPlane(96, 96)
		for y := 0; y < 96; y++ {
			for x := 0; x < 96; x++ {
				sx := min(max(x-2*s, 0), 95)
				sh.Row(y)[x] = base.At(sx, y)
			}
		}
		planes = append(planes, sh)
	}
	intraTools := AllTools
	interTools := AllTools
	interTools.InterPred = true
	_, stIntra, err := encodeAs(ContainerLegacy, planes, 24, HEVC, intraTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, stInter, err := encodeAs(ContainerLegacy, planes, 24, HEVC, interTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stInter.Bits >= stIntra.Bits {
		t.Fatalf("inter (%d bits) did not beat intra (%d bits) on translating video",
			stInter.Bits, stIntra.Bits)
	}
}

func TestStructuredBeatsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grad := gradientPlane(rng, 64, 64)
	noise := noisePlane(rng, 64, 64)
	_, stG, err := encodeAs(ContainerLegacy, []*frame.Plane{grad}, 28, HEVC, AllTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, stN, err := encodeAs(ContainerLegacy, []*frame.Plane{noise}, 28, HEVC, AllTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stG.BitsPerPixel >= stN.BitsPerPixel {
		t.Fatalf("structured %.3f bpp should beat noise %.3f bpp", stG.BitsPerPixel, stN.BitsPerPixel)
	}
}

func TestIntraPredictionReducesRate(t *testing.T) {
	// The paper's central mechanism: on channel-structured data, enabling
	// intra prediction lowers the bitrate at comparable distortion.
	rng := rand.New(rand.NewSource(8))
	p := channelPlane(rng, 96, 96)
	with := AllTools
	without := AllTools
	without.IntraPred = false
	_, stW, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 26, HEVC, with, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, stWo, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 26, HEVC, without, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stW.BitsPerPixel >= stWo.BitsPerPixel {
		t.Fatalf("intra on %.3f bpp should beat off %.3f bpp", stW.BitsPerPixel, stWo.BitsPerPixel)
	}
}

func TestRateIsMonotoneInQP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := gradientPlane(rng, 64, 64)
	prev := math.Inf(1)
	first := 0.0
	for i, qp := range []int{8, 16, 24, 32, 40, 48} {
		_, st, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, qp, HEVC, AllTools, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Strictly decreasing up to tiny RD-decision noise at the
		// near-empty extreme (coarse estimates can flip mode choices).
		if st.BitsPerPixel > prev+0.03 {
			t.Fatalf("qp %d: %.3f bpp > previous %.3f", qp, st.BitsPerPixel, prev)
		}
		prev = st.BitsPerPixel
		if i == 0 {
			first = st.BitsPerPixel
		}
	}
	if prev > first/3 {
		t.Fatalf("rate barely fell across the QP range: %.3f -> %.3f bpp", first, prev)
	}
}

// TestRateControlRejectsEmptyInput pins the degenerate-input bug the
// rate-control searches (now internal/core's) once had: an empty plane list
// or a zero-pixel plane makes Stats.BitsPerPixel = 0/0 = NaN, every bisection
// comparison false, and the search silently returned a stream "meeting" any
// budget. Encode — the one function every probe bottoms out in — must fail up
// front with a typed error matching ErrEmptyInput, in every container.
func TestRateControlRejectsEmptyInput(t *testing.T) {
	cases := []struct {
		name   string
		planes []*frame.Plane
	}{
		{"empty list", nil},
		{"nil plane", []*frame.Plane{nil}},
		{"zero-dim plane", []*frame.Plane{{W: 0, H: 16}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []Container{ContainerLegacy, ContainerV3} {
				if _, _, err := encodeAs(c, tc.planes, 26, HEVC, AllTools, 1); !errors.Is(err, ErrEmptyInput) {
					t.Fatalf("container %d: got %v, want ErrEmptyInput", c, err)
				}
			}
		})
	}
}

func TestFrameSizeLimitEnforced(t *testing.T) {
	p := frame.NewPlane(8192+32, 16)
	_, _, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 24, HEVC, AllTools, 1)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeAll(nil, 0); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := decodeAll([]byte("notastream!!"), 0); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid header, truncated payload must error (not panic).
	rng := rand.New(rand.NewSource(13))
	p := gradientPlane(rng, 64, 64)
	data, _, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 24, HEVC, AllTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAll(data[:20], 0); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestOddSizesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sz := range [][2]int{{1, 1}, {7, 3}, {31, 65}, {33, 31}, {100, 1}} {
		p := noisePlane(rng, sz[0], sz[1])
		data, st, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 20, HEVC, AllTools, 1)
		if err != nil {
			t.Fatalf("%v: %v", sz, err)
		}
		if got := decodeMSE(t, data, []*frame.Plane{p}); got != st.MSE {
			t.Fatalf("%v: MSE mismatch", sz)
		}
	}
}

func BenchmarkEncodeHEVC(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p := gradientPlane(rng, 128, 128)
	b.SetBytes(int64(p.W * p.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 28, HEVC, AllTools, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeHEVC(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	p := gradientPlane(rng, 128, 128)
	data, _, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 28, HEVC, AllTools, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.W * p.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeAll(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}
