package codec

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cabac"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

// TestTrialResidualEquivalence holds the encoder's fused RD trial, on every
// kernel path, to its definition: on 10 000 drawn (block, prediction, QP,
// size, DST/DCT, transform on/off) draws — predictions noisy, ramped or flat,
// sources a copy of them under noise of a drawn amplitude, so that across
// draws and QPs the levels run from all-zero to dense — trialResidual returns
// trialDef's levels, reconstruction, distortion and rate.
func TestTrialResidualEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := newScratch()
	pix := make([]uint8, maxBlock)
	for draw := 0; draw < 10000; draw++ {
		size := 4 << rng.Intn(4)
		n2 := size * size
		e := &encoder{prof: HEVC.params(), tools: AllTools, qp: rng.Intn(dct.MaxQP + 1), scr: s}
		e.prof.dst4 = rng.Intn(2) == 0
		e.tools.Transform = draw%10 != 0
		isIntra := rng.Intn(4) != 0
		drawPixels(rng, pix[:n2], size, draw)
		orig, pred := make([]int32, n2), make([]int32, n2)
		for i, v := range pix[:n2] {
			pred[i] = int32(v)
		}
		drawSource(rng, orig, pred, int32(1)<<uint(rng.Intn(9)))
		wantLev, wantRec, wantSSE, wantBits := trialDef(e, orig, pred, size, isIntra)
		kernelPaths(func(simd bool) {
			lev, rec, sse, bits := e.trialResidual(orig, pred, size, isIntra)
			for i := range wantLev {
				if lev[i] != wantLev[i] || rec[i] != wantRec[i] {
					t.Fatalf("draw %d (size %d qp %d transform %v dst %v simd %v): [%d] level %d rec %d, definition level %d rec %d",
						draw, size, e.qp, e.tools.Transform, isIntra && e.prof.dst4, simd, i, lev[i], rec[i], wantLev[i], wantRec[i])
				}
			}
			if sse != wantSSE || bits != wantBits {
				t.Fatalf("draw %d (size %d qp %d simd %v): sse %v bits %v, definition sse %v bits %v", draw, size, e.qp, simd, sse, bits, wantSSE, wantBits)
			}
		})
	}
}

// TestReconstructEquivalence holds the reconstruct stage, on every kernel
// path, to its definition: on 10 000 drawn leaves — intra (every HEVC mode,
// DST on and off) and inter, transform on and off, levels from all-zero
// through quantised residuals to the cap, the coverage a coding pass over a
// drawn partition leaves when it reaches the leaf, planes of noise and
// all-zero leaves over planes held at 0 and at 255 — it leaves the plane
// bytes reconstructDef leaves.
func TestReconstructEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const dim = 96
	s := newScratch()
	prev := frame.NewPlane(dim-5, dim-9) // the inter reference is a crop: motion clamps to it
	start, want, got := frame.NewPlane(dim, dim), frame.NewPlane(dim, dim), frame.NewPlane(dim, dim)
	mask := make([]bool, dim*dim)
	b := new(ctuBatch)
	for draw := 0; draw < 10000; draw++ {
		size := 4 << rng.Intn(4)
		n2 := size * size
		x, y := size*rng.Intn(dim/size), size*rng.Intn(dim/size)
		r := reconstructor{prof: HEVC.params(), tools: AllTools, qp: rng.Intn(dct.MaxQP + 1), scr: s, prev: prev}
		r.prof.dst4 = rng.Intn(2) == 0
		r.tools.Transform = draw%10 != 0
		r.tools.IntraPred = draw%13 != 0
		lf := leafRec{x: int32(x), y: int32(y), size: int32(size), mode: r.prof.modes[rng.Intn(len(r.prof.modes))]}
		if draw%4 == 0 {
			lf.inter, lf.mvx, lf.mvy = true, rng.Int31n(2*dim)-dim, rng.Int31n(2*dim)-dim
		}
		lev := b.lev[:n2]
		pinned := draw%16 < 2 // all zero over a prediction pinned at an end of the pixel range
		switch {
		case pinned:
			clear(lev)
			flat := uint8(255 * (draw % 2))
			for i := range start.Pix {
				start.Pix[i], prev.Pix[i%len(prev.Pix)] = flat, flat
			}
		case draw%8 == 2: // levels up to the cap: residuals far outside the pixel range
			drawLevels(rng, lev, size, r.tools.Transform, 5)
			lev[rng.Intn(n2)] = rng.Int31n(2*maxLevel+1) - maxLevel
		default:
			drawLevels(rng, lev, size, r.tools.Transform, []int{0, 6}[draw%8/4])
		}
		if !pinned {
			drawPixels(rng, prev.Pix, prev.W, 0)
			drawPixels(rng, start.Pix, dim, 0)
		}
		coverageAt(rng, mask, dim, dim, r.prof.ctuSize, x, y, size)
		b.n, b.leaves[0], b.levN = 1, lf, n2

		copy(want.Pix, start.Pix)
		r.recon = want
		reconstructDef(&r, mask, b)
		kernelPaths(func(simd bool) {
			copy(got.Pix, start.Pix)
			r.recon = got
			r.reconstruct(b)
			if slices.Equal(got.Pix, want.Pix) {
				return
			}
			for i, v := range want.Pix {
				if got.Pix[i] != v {
					t.Fatalf("draw %d (size %d at %d,%d qp %d inter %v transform %v intra %v dst %v simd %v): pixel (%d,%d) = %d, definition %d",
						draw, size, x, y, r.qp, lf.inter, r.tools.Transform, r.tools.IntraPred, r.prof.dst4, simd,
						i%dim, i/dim, got.Pix[i], v)
				}
			}
		})
	}
}

// TestAddClipSSEEquivalence holds the trial's add/clip/SSE pass, on every
// kernel path and at every size, to its definition: over pixel sources and
// predictions, residuals of small noise, residuals that put every sum one
// either side of 0 and 255 (the clip's edges), and residuals that clip every
// pixel to the end away from its source — the largest SSE a block can have,
// n²·255², the bound the AVX2 path's int32 lanes are sized for.
func TestAddClipSSEEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	pix := make([]uint8, maxBlock)
	for draw := 0; draw < 4000; draw++ {
		size := 4 << (draw % 4)
		n2 := size * size
		orig, pred, res := make([]int32, n2), make([]int32, n2), make([]int32, n2)
		drawPixels(rng, pix[:n2], size, draw/4)
		for i, v := range pix[:n2] {
			pred[i] = int32(v)
		}
		drawSource(rng, orig, pred, 1+rng.Int31n(255))
		kind := draw / 4 % 3
		for i, p := range pred {
			switch kind {
			case 0:
				res[i] = rng.Int31n(65) - 32
			case 1:
				res[i] = []int32{-1, 0, 255, 256}[rng.Intn(4)] - p
			default:
				orig[i] = 255 * (1 - p/128)
				res[i] = (255-2*orig[i])*(1+rng.Int31n(1<<20)) - p
			}
		}
		want := slices.Clone(res)
		wantSSE := addClipSSEDef(want, pred, orig)
		if kind == 2 && wantSSE != float64(n2*255*255) {
			t.Fatalf("draw %d: the extreme block's SSE is %v, not n²·255²", draw, wantSSE)
		}
		kernelPaths(func(simd bool) {
			got := slices.Clone(res)
			sse := addClipSSE(got, pred, orig, size)
			if float64(sse) != wantSSE || !slices.Equal(got, want) {
				t.Fatalf("draw %d (size %d kind %d simd %v): sse %d, reconstruction equal %v; definition sse %v",
					draw, size, kind, simd, sse, slices.Equal(got, want), wantSSE)
			}
		})
	}
}

// TestStoreEquivalence holds a leaf's commit, on every kernel path and at
// every size, to its definition: blocks at drawn positions of a plane of
// noise, predictions of pixels or of values outside the pixel range, residuals
// nil, small, or anywhere in the int32 range (sums that wrap, and every clip)
// — the plane bytes must be storeDef's, inside the block and out.
func TestStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const dim = 96
	start, want, got := frame.NewPlane(dim, dim), frame.NewPlane(dim, dim), frame.NewPlane(dim, dim)
	for draw := 0; draw < 2000; draw++ {
		size := 4 << (draw % 4)
		n2 := size * size
		x, y := size*rng.Intn(dim/size), size*rng.Intn(dim/size)
		drawPixels(rng, start.Pix, dim, 0)
		pred, res := make([]int32, n2), make([]int32, n2)
		for i := range pred {
			pred[i] = rng.Int31n(256)
			if draw%5 == 4 {
				pred[i] = rng.Int31n(1024) - 384
			}
			res[i] = []int32{rng.Int31n(64) - 32, rng.Int31n(1024) - 512, int32(rng.Uint32())}[draw/4%3]
		}
		if draw%7 == 0 {
			res = nil
		}
		copy(want.Pix, start.Pix)
		storeDef(want, pred, res, x, y, size)
		kernelPaths(func(simd bool) {
			copy(got.Pix, start.Pix)
			storeResidual(got, pred, res, x, y, size)
			for i, v := range want.Pix {
				if got.Pix[i] != v {
					t.Fatalf("draw %d (size %d at %d,%d nil %v simd %v): pixel (%d,%d) = %d, definition %d",
						draw, size, x, y, res == nil, simd, i%dim, i/dim, got.Pix[i], v)
				}
			}
		})
	}
}

// TestEstimateLevelBitsEquivalence: the estimate against its definition, on
// every kernel path: on drawLevels' blocks of every kind, on blocks holding
// one level at an end of the int32 range or at −2²⁰, and on a level, a run of
// zeros and a level whose Exp-Golomb suffix is long; then at every size under
// both scans on the all-zero block, on each magnitude from 0 to 1,100 as the
// last coefficient at a scan place that walks the block, beside a level of
// 256 or more, and on one level at ±(2²⁴ − 1) and ±2²⁴, where the vector pass
// hands over to the scan walk.
func TestEstimateLevelBitsEquivalence(t *testing.T) {
	check := func(lev []int32, size int, transformed bool, what string) {
		t.Helper()
		kernelPaths(func(simd bool) {
			if got, want := estimateLevelBits(lev, size, transformed), estimateLevelBitsDef(lev, size, transformed); got != want {
				t.Fatalf("%s (size %d, transformed %v, simd %v): %d, definition %d", what, size, transformed, simd, got, want)
			}
		})
	}
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 20000; trial++ {
		size := 4 << rng.Intn(4)
		transformed := trial%7 != 0
		lev := make([]int32, size*size)
		drawLevels(rng, lev, size, transformed, rng.Intn(9))
		switch trial % 50 {
		case 0:
			lev[rng.Intn(len(lev))] = math.MinInt32
		case 1:
			lev[rng.Intn(len(lev))] = math.MaxInt32
		case 2:
			lev[rng.Intn(len(lev))] = -(1 << 20)
		case 3:
			clear(lev)
			scan, _ := residualScan(size, true)
			lev[scan[0]], lev[scan[7]] = -1, 4099
		}
		check(lev, size, transformed, fmt.Sprintf("trial %d", trial))
	}
	for _, size := range []int{4, 8, 16, 32} {
		for _, transformed := range []bool{true, false} {
			lev := make([]int32, size*size)
			check(lev, size, transformed, "all zero")
			scan, _ := residualScan(size, transformed)
			for a := int32(0); a <= 1100; a++ {
				i := int(a) % len(scan)
				clear(lev)
				lev[scan[i/2]] = 256 + a
				lev[scan[i]] = a * (1 - 2*(a&1))
				check(lev, size, transformed, fmt.Sprintf("level %d at scan place %d", a, i))
			}
			for _, l := range []int32{1<<24 - 1, -(1<<24 - 1), 1 << 24, -(1 << 24)} {
				clear(lev)
				lev[scan[len(scan)/3]] = l
				check(lev, size, transformed, fmt.Sprintf("level %d", l))
			}
		}
	}
}

// TestLambdaTable: λ at each of the 52 QPs is 0.12·Qstep²·2^lambdaFrac
// rounded, with Qstep from math.Pow, and λ never falls as QP rises.
func TestLambdaTable(t *testing.T) {
	for qp, l := range lambdaTable {
		q := math.Pow(2, float64(qp-4)/6)
		if want := int64(math.Round(0.12 * q * q * (1 << lambdaFrac))); l != want {
			t.Errorf("lambdaTable[%d] = %d, formula %d", qp, l, want)
		}
		if qp > 0 && l < lambdaTable[qp-1] {
			t.Errorf("lambdaTable[%d] = %d < lambdaTable[%d] = %d", qp, l, qp-1, lambdaTable[qp-1])
		}
	}
}

// TestGatherRefsEquivalence holds the gather — availability read off the
// geometry — to its definition over the coverage mask it replaces, at every
// leaf of drawn partitions in coding order: leaves of 4 to 32 mixed, planes of
// 1 to 16 CTUs of 16 and 32 and the padded 17×13 and 45×80 planes, contents of
// noise and ramps. Every leaf position must see its below-left and above-right
// runs both available and not, across the draws.
func TestGatherRefsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var runs [2][2]int // [below-left, above-right][available]
	for trial := 0; trial < 400; trial++ {
		ctu := []int{16, 32}[trial%2]
		w, h := ctu*(1+rng.Intn(4)), ctu*(1+rng.Intn(4))
		switch trial % 5 {
		case 0:
			w, h = padTo(17, ctu), padTo(13, ctu)
		case 1:
			w, h = padTo(45, ctu), padTo(80, ctu)
		}
		recon := frame.NewPlane(w, h)
		drawPixels(rng, recon.Pix, w, trial%2)
		coded := make([]bool, w*h)
		got := intra.NewRefs(ctu)
		codingOrder(rng, coded, w, h, ctu, 0, 0, 0, func(x, y, size int) bool {
			want := gatherRefsDef(recon, coded, x, y, size)
			got = intra.Refs{Corner: -7, Above: got.Above[:2*size], Left: got.Left[:2*size]}
			got = gatherRefsInto(recon, ctu, x, y, size, got)
			if got.Corner != want.Corner {
				t.Fatalf("trial %d %dx%d ctu %d block %d at (%d,%d): corner %d, definition %d", trial, w, h, ctu, size, x, y, got.Corner, want.Corner)
			}
			for i := range want.Above {
				if got.Above[i] != want.Above[i] || got.Left[i] != want.Left[i] {
					t.Fatalf("trial %d %dx%d ctu %d block %d at (%d,%d): [%d] above %d left %d, definition above %d left %d",
						trial, w, h, ctu, size, x, y, i, got.Above[i], got.Left[i], want.Above[i], want.Left[i])
				}
			}
			if x > 0 && y+size < h {
				runs[0][b2i(coded[(y+size)*w+x-1])]++
			}
			if y > 0 && x+size < w {
				runs[1][b2i(coded[(y-1)*w+x+size])]++
			}
			return true
		})
	}
	if runs[0][0] == 0 || runs[0][1] == 0 || runs[1][0] == 0 || runs[1][1] == 0 {
		t.Fatalf("below-left runs unavailable/available %v, above-right %v: a case went unexercised", runs[0], runs[1])
	}
}

// TestAvailabilityMatchesCodedMask holds the availability rule to the mask it
// replaces on the leaves real streams code: every chunk of the golden corpus —
// every profile and backend, inter-predicted chunks, odd shapes padded to
// their CTUs, multi-plane chunks — is parsed, and its leaves are replayed in
// coding order over a plane of noise, each gathered by the rule and by
// definition over the coverage the leaves before it leave. Partial and region
// decodes decode whole chunks from their start, so these are their leaves
// too.
func TestAvailabilityMatchesCodedMask(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	leaves := 0
	goldenChunks(t, func(name string, pc *parsedContainer, c *chunkMeta) {
		ctu := pc.prof.CTUSize()
		for f, frameLeaves := range chunkLeaves(t, pc, c) {
			w, h := padTo(c.dims[f][0], ctu), padTo(c.dims[f][1], ctu)
			recon := frame.NewPlane(w, h)
			rng.Read(recon.Pix)
			coded := make([]bool, w*h)
			for _, lf := range frameLeaves {
				x, y, size := int(lf.x), int(lf.y), int(lf.size)
				want := gatherRefsDef(recon, coded, x, y, size)
				got := gatherRefsInto(recon, ctu, x, y, size, intra.NewRefs(size))
				if got.Corner != want.Corner || !slices.Equal(got.Above, want.Above) || !slices.Equal(got.Left, want.Left) {
					t.Fatalf("%s frame %d: leaf %d at (%d,%d): references differ from the coded-mask definition", name, f, size, x, y)
				}
				markCoded(coded, w, x, y, size)
				leaves++
			}
		}
	})
	t.Logf("%d leaves", leaves)
}

// chunkLeaves parses a chunk's syntax without reconstructing it and returns
// each frame's leaves in coding order.
func chunkLeaves(t *testing.T, pc *parsedContainer, c *chunkMeta) [][]leafRec {
	t.Helper()
	d := decoder{prof: pc.prof.params(), tools: pc.tools}
	pixels := codedPixels(c.dims, pc.prof.CTUSize())
	if pc.tools.Backend == BackendRANS {
		rc := new(ransChunk)
		if err := parseRansPayload(rc, c.payload, pc.ransTabs, pixels); err != nil {
			t.Fatal(err)
		}
		d.br = rc
	} else {
		var ctx contexts
		ctx.init()
		d.br = &cabacBinDec{d: cabac.NewDecoder(c.payload), ctx: &ctx}
	}
	ctu, b := pc.prof.CTUSize(), new(ctuBatch)
	var frames [][]leafRec
	for f, dim := range c.dims {
		d.fIdx, d.prevMode = f, intra.DC
		var leaves []leafRec
		for y := 0; y < padTo(dim[1], ctu); y += ctu {
			for x := 0; x < padTo(dim[0], ctu); x += ctu {
				b.n, b.levN = 0, 0
				d.parseCU(b, x, y, ctu, 0)
				leaves = append(leaves, b.leaves[:b.n]...)
			}
		}
		frames = append(frames, leaves)
	}
	return frames
}

// TestCoarseSearchEquivalence holds the coarse search, on every kernel path,
// to its definition: on 10 000 drawn leaves — three profiles, four sizes,
// neighbourhoods of noise, ramps and flat planes under the coverage a coding
// pass over a drawn partition leaves when it reaches the leaf, sources
// that are noise, a noisy copy of one mode's own prediction (close races
// between its neighbours) or flat (every mode ties) — coarseIntra returns
// coarseIntraDef's survivors: same modes, same order, same scores, the same
// prediction behind each. Equal scores must still rank the later-scored mode
// first, which the tied draws check on every size.
func TestCoarseSearchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const dim = 96
	s := newScratch()
	preds := make([][]int32, intra.NumModes)
	for i := range preds {
		preds[i] = make([]int32, 0, maxBlock)
	}
	recon := frame.NewPlane(dim, dim)
	coded := make([]bool, dim*dim)
	for draw := 0; draw < 10000; draw++ {
		size := 4 << rng.Intn(4)
		n2 := size * size
		e := &encoder{prof: []Profile{HEVC, H264, AV1}[rng.Intn(3)].params(), tools: AllTools, scr: s, recon: recon}
		x, y := size*rng.Intn(dim/size), size*rng.Intn(dim/size)
		kind := draw % 5
		drawPixels(rng, recon.Pix, dim, []int{0, 1, 0, 1, 2}[kind])
		if size > e.prof.ctuSize {
			size, n2 = e.prof.ctuSize, e.prof.ctuSize*e.prof.ctuSize
			x, y = x/size*size, y/size*size
		}
		coverageAt(rng, coded, dim, dim, e.prof.ctuSize, x, y, size)
		orig := s.orig[:n2]
		switch kind {
		case 0:
			for i := range orig {
				orig[i] = rng.Int31n(256)
			}
		case 4:
			for i := range orig { // equal SADs across all modes
				orig[i] = clipPixel(int32(recon.Pix[0]) + int32(draw%3) - 1)
			}
		default:
			m := e.prof.modes[rng.Intn(len(e.prof.modes))]
			intra.Predict(m, size, gatherRefsDef(recon, coded, x, y, size), orig)
			drawSource(rng, orig, orig, 2)
		}

		want := coarseIntraDef(e, coded, orig, x, y, size, preds)
		kernelPaths(func(simd bool) {
			got := e.coarseIntra(orig, x, y, size)
			if got != want {
				t.Fatalf("draw %d (%s, size %d at %d,%d, kind %d, simd %v): survivors %v scores %v, definition %v scores %v",
					draw, e.prof.name, size, x, y, kind, simd, got.mi[:got.n], got.score[:got.n], want.mi[:want.n], want.score[:want.n])
			}
			for k, mi := range got.mi[:got.n] {
				pred := s.predAt(k, n2)
				for i := range pred {
					if pred[i] != preds[mi][i] {
						t.Fatalf("draw %d (%s, size %d, simd %v): survivor mode %d prediction [%d] = %d, definition %d",
							draw, e.prof.name, size, simd, e.prof.modes[mi], i, pred[i], preds[mi][i])
					}
				}
			}
		})
		if kind == 4 {
			// Every mode predicts the flat value (or 128, uncoded): all tie, the last three
			// scored survive, latest first.
			last := len(e.prof.modes) - 1
			if want.n != 3 || want.mi != [rdCandidates]int{last, last - 1, last - 2} {
				t.Fatalf("draw %d: tied modes ranked %v, want the last three scored, latest first", draw, want.mi[:want.n])
			}
		}
	}
}

// TestComputeStatsEquivalence: the integer SSE against its definition.
func TestComputeStatsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var planes, recs []*frame.Plane
	for _, dims := range [][2]int{{1, 1}, {7, 3}, {64, 64}, {33, 130}} {
		p, r := frame.NewPlane(dims[0], dims[1]), frame.NewPlane(dims[0], dims[1])
		rng.Read(p.Pix)
		rng.Read(r.Pix)
		planes, recs = append(planes, p), append(recs, r)
	}
	st := computeStats(planes, recs, 1234)
	if want := sseDef(planes, recs) / float64(st.Pixels); st.MSE != want || st.Pixels != 1+21+4096+33*130 {
		t.Fatalf("MSE %v over %d pixels, definition %v", st.MSE, st.Pixels, want)
	}
}

// benchTrialBlocks cuts count size×size source blocks out of a generated
// weight plane and predicts each from its own neighbours with an angular
// mode, so that the residuals — and the sign and zero patterns of their
// levels — are the encoder's and differ block to block.
func benchTrialBlocks(size, count int) (origs, preds [][]int32) {
	const dim = 256
	rng := rand.New(rand.NewSource(4))
	pix, _, _ := quant.ToUint8(tensorgen.Weights(rng, dim, dim))
	plane := &frame.Plane{W: dim, H: dim, Pix: pix}
	for b := 0; b < count; b++ {
		x0, y0 := 1+rng.Intn(dim-2*size-1), 1+rng.Intn(dim-2*size-1)
		orig, pred := make([]int32, size*size), make([]int32, size*size)
		for i := range orig {
			orig[i] = int32(plane.At(x0+i%size, y0+i/size))
		}
		refs := intra.NewRefs(size) // every neighbour coded
		refs.Corner = int32(plane.At(x0-1, y0-1))
		for i := range refs.Above {
			refs.Above[i], refs.Left[i] = int32(plane.At(x0+i, y0-1)), int32(plane.At(x0-1, y0+i))
		}
		intra.Predict(intra.Mode(2+rng.Intn(33)), size, refs, pred)
		origs, preds = append(origs, orig), append(preds, pred)
	}
	return origs, preds
}

// The two coding points of the kernel benchmarks: QP 12 leaves weight blocks
// dense, QP 30 leaves them sparse.
var benchQPs = []struct {
	name string
	qp   int
}{{"dense-qp12", 12}, {"sparse-qp30", 30}}

func BenchmarkTrialResidual(b *testing.B) {
	const blocks = 64
	for _, size := range []int{8, 16, 32} {
		origs, preds := benchTrialBlocks(size, blocks)
		for _, pt := range benchQPs {
			e := &encoder{prof: HEVC.params(), tools: AllTools, qp: pt.qp, scr: newScratch()}
			b.Run(fmt.Sprintf("%s/n%d", pt.name, size), func(b *testing.B) {
				b.SetBytes(int64(size * size))
				var sink int64
				for i := 0; i < b.N; i++ {
					_, _, dist, bits := e.trialResidual(origs[i%blocks], preds[i%blocks], size, true)
					sink += dist + bits
				}
				_ = sink
			})
		}
	}
}

func BenchmarkEstimateLevelBits(b *testing.B) {
	const blocks, size = 64, 16
	origs, preds := benchTrialBlocks(size, blocks)
	for _, pt := range benchQPs {
		e := &encoder{prof: HEVC.params(), tools: AllTools, qp: pt.qp, scr: newScratch()}
		levs := make([][]int32, blocks)
		for i := range levs {
			lev, _, _, _ := e.trialResidual(origs[i], preds[i], size, true)
			levs[i] = append([]int32(nil), lev...)
		}
		b.Run(pt.name, func(b *testing.B) {
			b.SetBytes(size * size)
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += estimateLevelBits(levs[i%blocks], size, true)
			}
			_ = sink
		})
	}
}

// benchLevelBlocks returns the levels the encoder's trial leaves on
// benchTrialBlocks' blocks at qp.
func benchLevelBlocks(size, count, qp int) [][]int32 {
	origs, preds := benchTrialBlocks(size, count)
	e := &encoder{prof: HEVC.params(), tools: AllTools, qp: qp, scr: newScratch()}
	levs := make([][]int32, count)
	for i := range levs {
		lev, _, _, _ := e.trialResidual(origs[i], preds[i], size, true)
		levs[i] = append([]int32(nil), lev...)
	}
	return levs
}

// BenchmarkReconstructCTU times the reconstruct stage on one 32×32 CTU of
// angular leaves (b.N counts CTUs).
func BenchmarkReconstructCTU(b *testing.B) {
	const blocks, ctu = 64, 32
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{8, 16, 32} {
		for _, pt := range benchQPs {
			levs := benchLevelBlocks(size, blocks, pt.qp)
			batches := make([]ctuBatch, blocks/4)
			for bi := range batches {
				bt := &batches[bi]
				for y := 0; y < ctu; y += size {
					for x := 0; x < ctu; x += size {
						bt.leaves[bt.n] = leafRec{x: int32(ctu + x), y: int32(ctu + y), size: int32(size), mode: intra.Mode(2 + rng.Intn(33))}
						bt.levN += copy(bt.lev[bt.levN:], levs[(bi*4+bt.n)%blocks])
						bt.n++
					}
				}
			}
			s := newScratch()
			r := reconstructor{prof: HEVC.params(), tools: AllTools, qp: pt.qp, scr: s}
			r.beginFrame(2*ctu, 2*ctu)
			rng.Read(r.recon.Pix)
			b.Run(fmt.Sprintf("%s/n%d", pt.name, size), func(b *testing.B) {
				b.SetBytes(ctu * ctu)
				for i := 0; i < b.N; i++ {
					r.reconstruct(&batches[i%len(batches)])
				}
			})
		}
	}
}

// dupSurvivorPlanes are the vectors of TestDuplicateSurvivorsSkipped, from the
// traffic where survivors repeat most (a constant plane: every prediction of
// every leaf is one block) to where they almost never do (dense weights).
func dupSurvivorPlanes() map[string]*frame.Plane {
	plane := func(w, h int, vals []float32) *frame.Plane {
		pix, _, _ := quant.ToUint8(vals)
		return &frame.Plane{W: w, H: h, Pix: pix}
	}
	constant := frame.NewPlane(64, 64)
	for i := range constant.Pix {
		constant.Pix[i] = 77
	}
	rng := rand.New(rand.NewSource(29))
	halfFlat := frame.NewPlane(96, 64)
	for y := 0; y < halfFlat.H; y++ {
		for x := 0; x < halfFlat.W; x++ {
			v := uint8(128)
			if x >= halfFlat.W/2 {
				v = uint8(rng.Intn(256))
			}
			halfFlat.Row(y)[x] = v
		}
	}
	return map[string]*frame.Plane{
		"constant":    constant,
		"half-flat":   halfFlat,
		"gradients":   plane(256, 32, tensorgen.Gradients(rng, 32*256, 2)),                         // one grad_ring segment
		"activations": plane(128, 64, tensorgen.Activations(rand.New(rand.NewSource(3)), 64, 128)), // seed 3 draws an outlier channel: 97 % of the pixels on nine grey levels
		"weights":     plane(128, 128, tensorgen.Weights(rng, 128, 128)),
	}
}

// searchLeaves is how many leaves the partition search visits on a w×h plane:
// the quadtree walk is exhaustive, so the count is the geometry's alone.
func searchLeaves(prof profileParams, tools Tools, w, h int) int {
	var visit func(size int) int
	visit = func(size int) int {
		switch splitKindFor(prof, tools, size) {
		case splitForced:
			return 4 * visit(size/2)
		case splitLeafOnly:
			return 1
		}
		return 1 + 4*visit(size/2)
	}
	return padTo(w, prof.ctuSize) / prof.ctuSize * (padTo(h, prof.ctuSize) / prof.ctuSize) * visit(prof.ctuSize)
}

// TestDuplicateSurvivorsSkipped holds decideLeaf's duplicate-survivor skip to
// its two claims. No byte moves: the stream hashes below were recorded at the
// commit before the skip existed (scripts/bench_ab.sh's `git archive` export,
// this test copied in), for both backends; the rANS ones re-pinned when the
// symbol coder replaced the binary one, which moved entropy payloads only. And trials are saved where
// predictions repeat and only there: one trial a leaf on a constant plane,
// where every survivor predicts the same block, and the full survivor count, to
// 3 %, on dense weights.
//
// Mutations, checked by hand: without the score-tie condition every hash holds
// (it is a pre-filter that spares dense planes the block compare); skipping on
// the score tie alone — without comparing the blocks — breaks the hashes marked
// "tie" below, where two survivors tie on SAD with different predictions and
// the later one wins the RD trial. Both claims hold on every kernel path the
// host runs.
func TestDuplicateSurvivorsSkipped(t *testing.T) {
	recorded := map[string]string{
		"activations/cabac": "82be891d94059e00", // tie
		"activations/rans":  "f6a05c55f7b1f342", // tie
		"constant/cabac":    "0b28523838aadc89",
		"constant/rans":     "a7afb404f529ed6e",
		"gradients/cabac":   "6a072b24ee0d86bc", // tie
		"gradients/rans":    "853ad0aaaeac06ea", // tie
		"half-flat/cabac":   "f4d8017b0b8b5fb0",
		"half-flat/rans":    "6953b877d92cc053",
		"weights/cabac":     "34fade0f97642dba",
		"weights/rans":      "f9b515649c7891b7",
	}
	planes := dupSurvivorPlanes()
	kernelPaths(func(simd bool) {
		trialsPerLeaf := map[string]float64{}
		for name, p := range planes {
			for _, backend := range []EntropyBackend{BackendCABAC, BackendRANS} {
				tools := AllTools
				tools.Backend = backend
				reg := obs.NewRegistry()
				data, _, _, err := Encode(context.Background(), []*frame.Plane{p},
					EncodeConfig{QP: 12, Profile: HEVC, Tools: tools, Workers: 1, Container: ContainerV3, Metrics: reg})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				key := fmt.Sprintf("%s/%v", name, backend)
				if got := fmt.Sprintf("%x", sha256.Sum256(data))[:16]; got != recorded[key] {
					t.Errorf("simd=%v %s: stream hash %s, recorded before the skip %s", simd, key, got, recorded[key])
				}
				if backend == BackendCABAC {
					trials := reg.Snapshot().Counters["codec.encode.rd_trials"]
					trialsPerLeaf[name] = float64(trials) / float64(searchLeaves(HEVC.params(), tools, p.W, p.H))
				}
			}
		}
		if got := trialsPerLeaf["constant"]; got != 1 {
			t.Errorf("simd=%v constant plane: %.3f trials a leaf, want 1", simd, got)
		}
		if got := trialsPerLeaf["weights"]; got < 0.97*rdCandidates || got > rdCandidates {
			t.Errorf("simd=%v dense weights: %.3f trials a leaf, want within 3%% of %d", simd, got, rdCandidates)
		}
		t.Logf("simd=%v trials a leaf: %v", simd, trialsPerLeaf)
	})
}

// TestStableTopKMatchesStableSort pins the mode-ranking rule the bitstream
// depends on: the encoder's insertion-based top-K selection must agree with a
// stable sort by (SAD ascending, scoring index descending) — i.e. on equal
// SAD the last-scored candidate ranks first — for any input.
func TestStableTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(35)
		sads := make([]int64, n)
		for i := range sads {
			sads[i] = int64(rng.Intn(8)) // many ties
		}
		// Reference: stable sort of indices by (sad asc, index desc).
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			if sads[ref[a]] != sads[ref[b]] {
				return sads[ref[a]] < sads[ref[b]]
			}
			return ref[a] > ref[b]
		})

		// The encoder's selection, transcribed from decideLeaf.
		var top [rdCandidates]int
		topN := 0
		for ci := 0; ci < n; ci++ {
			pos := topN
			for pos > 0 && sads[ci] <= sads[top[pos-1]] {
				pos--
			}
			if pos >= len(top) {
				continue
			}
			if topN < len(top) {
				topN++
			}
			copy(top[pos+1:topN], top[pos:topN-1])
			top[pos] = ci
		}

		wantN := rdCandidates
		if n < wantN {
			wantN = n
		}
		if topN != wantN {
			t.Fatalf("trial %d: selected %d, want %d", trial, topN, wantN)
		}
		for i := 0; i < topN; i++ {
			if top[i] != ref[i] {
				t.Fatalf("trial %d: rank %d: got idx %d (sad %d), want idx %d (sad %d)",
					trial, i, top[i], sads[top[i]], ref[i], sads[ref[i]])
			}
		}
	}
}
