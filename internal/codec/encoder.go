package codec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/bits"
	"repro/internal/cpufeat"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
)

// magic identifies an LLM.265 elementary stream.
var magic = [4]byte{'L', '2', '6', '5'}

// Stats summarizes an encode.
type Stats struct {
	Bits         int     // total bitstream size in bits, headers included
	Pixels       int     // number of source pixels across all frames
	MSE          float64 // mean squared error in 8-bit pixel units
	BitsPerPixel float64 // Bits / Pixels
	Chunks       int     // independently decodable substreams in the container
}

// encoder carries the per-chunk encoding state. encodeChunk resets one per
// chunk; it is not safe for concurrent use.
type encoder struct {
	prof  profileParams
	tools Tools
	qp    int

	w, h  int // padded dims of the current frame
	orig  *frame.Plane
	recon *frame.Plane
	prev  *frame.Plane // previous frame's reconstruction (inter)
	fIdx  int

	bw       binEncoder
	lambda   int64 // lambdaTable[qp]
	modeRate int64 // an intra mode's rate, 1 + log₂ |Modes| bits

	// scr is the per-worker scratch arena every hot-path buffer comes from;
	// owned exclusively by this encoder for the duration of the chunk.
	scr *scratch

	// cancel, when non-nil, is a cancellable context polled once per CTU
	// (cooperative cancellation, DESIGN.md §12): a canceled encode aborts via
	// a cancelAbort panic that encodeChunk traps at the chunk boundary. Nil
	// for non-cancellable contexts, so the hot path pays one pointer check.
	cancel context.Context

	prevModeEmit intra.Mode // mode predictor state for emission

	// rec accumulates per-stage times and bit accounts for this chunk when
	// observability is enabled; nil (the default) keeps the hot path free of
	// clock reads and bit-length queries.
	rec *stageRecorder
}

// validateEncode checks Encode's preconditions (Appender.Append shares them
// through a config carrying only its coding parameters). Zero-pixel inputs —
// an empty plane list, a nil plane, a plane with a zero dimension — are
// rejected with an error matching ErrEmptyInput: Stats.BitsPerPixel and MSE
// are 0/0 = NaN there, and a rate-control bisection fed NaN compares false
// forever and walks silently to one end of the QP range instead of failing.
func validateEncode(planes []*frame.Plane, cfg EncodeConfig) error {
	if len(planes) == 0 {
		return fmt.Errorf("codec: no planes to encode: %w", ErrEmptyInput)
	}
	if cfg.QP < 0 || cfg.QP > dct.MaxQP {
		return fmt.Errorf("codec: qp %d out of range", cfg.QP)
	}
	if cfg.Profile.MaxFrameDim() == 0 {
		return fmt.Errorf("codec: unknown profile %d (want HEVC, H264 or AV1)", cfg.Profile)
	}
	if cfg.Tools.Backend != BackendCABAC && cfg.Tools.Backend != BackendRANS {
		return fmt.Errorf("codec: unknown entropy backend %d", cfg.Tools.Backend)
	}
	switch cfg.Container {
	case ContainerLegacy, ContainerV3:
	default:
		return fmt.Errorf("codec: unknown container %d", cfg.Container)
	}
	for i, p := range planes {
		if p == nil {
			return fmt.Errorf("codec: plane %d is nil: %w", i, ErrEmptyInput)
		}
		if p.W <= 0 || p.H <= 0 {
			return fmt.Errorf("codec: plane %d is %dx%d: %w", i, p.W, p.H, ErrEmptyInput)
		}
		if p.W > cfg.Profile.MaxFrameDim() || p.H > cfg.Profile.MaxFrameDim() {
			return fmt.Errorf("codec: frame %dx%d exceeds %s limit %d",
				p.W, p.H, cfg.Profile, cfg.Profile.MaxFrameDim())
		}
	}
	return nil
}

// encodeChunk codes a group of planes as one independent sequence — fresh
// entropy contexts, fresh mode predictor, inter prediction (if enabled)
// confined to the group — and returns the raw entropy payload plus the
// per-plane reconstructions (cropped to source dims). Each call owns all of
// its encoder state, so distinct chunks may be encoded concurrently; the
// per-chunk stage recorder is equally private and flushes into the shared
// atomic metric handles only at the end of the call.
//
// Cancellation: the ctx (when cancellable) is polled once per CTU inside
// encodeFrame; a cancellation aborts the chunk mid-flight via a cancelAbort
// panic trapped here, returning ctx's error with no partial output. The
// scratch stays reusable — every buffer is re-initialized per chunk anyway.
// Under the rANS backend the chunk's symbols are recorded rather than coded:
// payload comes back nil and rec holds them, for the container layer to
// assemble once the class tables exist (pass 2). The record is heap-allocated
// per chunk — it must outlive the scratch the worker reuses.
func encodeChunk(ctx context.Context, planes []*frame.Plane, qp int, prof Profile, tools Tools, m *encMetrics, s *scratch) (payload []byte, rec *ransRecord, recs []*frame.Plane, err error) {
	defer func() {
		if r := recover(); r != nil {
			ca, ok := r.(cancelAbort)
			if !ok {
				panic(r)
			}
			payload, rec, recs, err = nil, nil, nil, ca.err
		}
	}()
	e := &s.enc
	*e = encoder{
		prof:   prof.params(),
		tools:  tools,
		qp:     qp,
		lambda: lambdaTable[qp],
		scr:    s,
		cancel: cancellable(ctx),
	}
	e.modeRate = rateUnit + (rateUnit*dct.Log2Fixed(uint64(len(e.prof.modes)))+1<<(dct.Log2Frac-1))>>dct.Log2Frac
	if tools.Backend == BackendRANS {
		rec = &ransRecord{bypass: bits.NewWriter()}
		e.bw = ransBinEnc{rec}
	} else {
		// Every chunk starts from the same adaptive state on both the encoder
		// and decoder sides.
		s.ctx.init()
		e.bw = s.binEnc()
	}
	if m != nil {
		e.rec = &stageRecorder{m: m}
	}
	recs = make([]*frame.Plane, len(planes))
	for i, p := range planes {
		e.fIdx = i
		e.encodeFrame(p)
		recs[i] = e.recon
	}
	if e.rec != nil {
		e.rec.flush()
	}
	if rec != nil {
		return nil, rec, recs, nil
	}
	// finish() returns a slice aliasing the pooled bin coder's buffer; copy
	// the payload out so the scratch can be reused (or repooled) while the
	// caller still holds the bytes. The copy is also exact-size, so the
	// container assembly never retains a grown append buffer.
	out := e.bw.finish()
	payload = make([]byte, len(out))
	copy(payload, out)
	return payload, nil, recs, nil
}

// computeStats aggregates size and distortion over the source planes and
// their reconstructions.
func computeStats(planes, recs []*frame.Plane, bits int) Stats {
	var st Stats
	st.Bits = bits
	// Integer SSE: exact, and equal to the float64 accumulation that defines
	// it, every partial sum being an integer below 2⁵³.
	var sse int64
	for i, p := range planes {
		st.Pixels += p.W * p.H
		for y := 0; y < p.H; y++ {
			rec := recs[i].Row(y)[:p.W]
			for x, v := range p.Row(y) {
				d := int64(v) - int64(rec[x])
				sse += d * d
			}
		}
	}
	st.MSE = float64(sse) / float64(st.Pixels)
	st.BitsPerPixel = float64(st.Bits) / float64(st.Pixels)
	return st
}

// padTo returns v rounded up to a multiple of m.
func padTo(v, m int) int { return (v + m - 1) / m * m }

// padPlaneInto edge-replicates p into dst, which is already sized to the
// padded dims. Every dst pixel is written, so dst may be a recycled plane.
func padPlaneInto(dst, p *frame.Plane) {
	if p.W == dst.W && p.H == dst.H {
		copy(dst.Pix, p.Pix)
		return
	}
	for y := 0; y < dst.H; y++ {
		sy := y
		if sy >= p.H {
			sy = p.H - 1
		}
		srow := p.Row(sy)
		drow := dst.Row(y)
		copy(drow, srow)
		edge := srow[p.W-1]
		for x := p.W; x < dst.W; x++ {
			drow[x] = edge
		}
	}
}

func (e *encoder) encodeFrame(src *frame.Plane) {
	e.prev = e.recon // previous frame's cropped reconstruction (may be nil)
	e.w = padTo(src.W, e.prof.ctuSize)
	e.h = padTo(src.H, e.prof.ctuSize)
	// The padded source and reconstruction live in the scratch arena. The
	// recycled recon starts with unspecified contents, which is safe because
	// nothing reads an uncoded pixel: gatherRefsInto reads only samples that
	// precede the block in coding order, and by the end of the CTU loop every
	// padded pixel has been written by applyLeaf. The golden conformance
	// corpus pins this reasoning byte-for-byte.
	e.orig = e.scr.origPlane.Reuse(e.w, e.h)
	padPlaneInto(e.orig, src)
	e.recon = e.scr.reconPlane.Reuse(e.w, e.h)
	e.prevModeEmit = intra.DC

	for y := 0; y < e.h; y += e.prof.ctuSize {
		for x := 0; x < e.w; x += e.prof.ctuSize {
			// Cooperative cancellation point: one poll per CTU (a CTU costs
			// tens of microseconds, so cancellation latency stays far below
			// the serve layer's 100ms promptness bound) and a single nil
			// check when the encode is not cancellable.
			if e.cancel != nil {
				if err := e.cancel.Err(); err != nil {
					panic(cancelAbort{err})
				}
			}
			// Decisions from the previous CTU were emitted; recycle them.
			e.scr.resetCTU()
			if e.rec != nil {
				t0 := time.Now()
				d := e.decideCU(x, y, e.prof.ctuSize)
				t1 := time.Now()
				e.rec.decideNs += int64(t1.Sub(t0))
				e.emitCU(d, x, y, e.prof.ctuSize, 0)
				e.rec.entropyNs += int64(time.Since(t1))
				continue
			}
			d := e.decideCU(x, y, e.prof.ctuSize)
			e.emitCU(d, x, y, e.prof.ctuSize, 0)
		}
	}
	// Crop the reconstruction back to the source dims. The crop is a fresh
	// plane — it escapes the codec as API output (and as the next frame's
	// inter reference), so it must not alias the arena.
	crop := frame.NewPlane(src.W, src.H)
	for y := 0; y < src.H; y++ {
		copy(crop.Row(y), e.recon.Row(y)[:src.W])
	}
	e.recon = crop
}

// cuDec is a decided coding unit: either a split with four children or a
// leaf with its prediction decision and quantized levels.
type cuDec struct {
	split    bool
	children [4]*cuDec

	inter  bool
	mvx    int32
	mvy    int32
	mode   intra.Mode
	levels []int32 // row-major n×n quantized levels
	rec    []int32 // row-major n×n reconstruction of the winning trial
	cost   int64   // rdCost of the decision
}

// The rate-distortion currency (DESIGN.md §11.1). A rate is counted in
// 1/rateUnit bits, in which every term of estimateLevelBits and every flag is
// whole, and a cost is rdCost's SSE·distWeight + λ·rate: the cost
// SSE + 0.12·Qstep²·bits scaled by rateUnit·2^lambdaFrac, exact in int64 (a
// 32×32 CTU's is below 2⁵¹), so every decision is an integer comparison.
const (
	rateUnit   = 100
	lambdaFrac = 16
	distWeight = rateUnit << lambdaFrac
)

// lambdaTable[qp] is the Lagrange multiplier 0.12·Qstep(qp)²·2^lambdaFrac,
// rounded. Qstep is a committed table and IEEE products round alike
// everywhere, so the integers do too.
var lambdaTable [dct.MaxQP + 1]int64

func init() {
	for qp := range lambdaTable {
		q := dct.Qstep(qp)
		lambdaTable[qp] = int64(math.Round(0.12 * q * q * (1 << lambdaFrac)))
	}
}

// rdCost is the cost of a decision of distortion sse and rate rate.
func (e *encoder) rdCost(sse, rate int64) int64 { return sse*distWeight + e.lambda*rate }

func (e *encoder) decideCU(x, y, size int) *cuDec {
	switch splitKindFor(e.prof, e.tools, size) {
	case splitForced:
		d := e.scr.newNode()
		d.split = true
		h := size / 2
		for i := 0; i < 4; i++ {
			cx, cy := x+(i%2)*h, y+(i/2)*h
			d.children[i] = e.decideCU(cx, cy, h)
			d.cost += d.children[i].cost
		}
		return d
	case splitLeafOnly:
		leaf := e.decideLeaf(x, y, size)
		e.applyLeaf(leaf, x, y, size)
		return leaf
	}

	// Signaled split: compare leaf vs 4-way split by RD cost.
	leaf := e.decideLeaf(x, y, size)

	split := e.scr.newNode()
	split.split = true
	split.cost = e.rdCost(0, rateUnit) // the split flag's bit
	h := size / 2
	for i := 0; i < 4; i++ {
		cx, cy := x+(i%2)*h, y+(i/2)*h
		split.children[i] = e.decideCU(cx, cy, h)
		split.cost += split.children[i].cost
	}

	leafTotal := leaf.cost + e.rdCost(0, rateUnit) // leaf also pays the split flag
	if leafTotal <= split.cost {
		e.applyLeaf(leaf, x, y, size)
		leaf.cost = leafTotal
		return leaf
	}
	return split
}

// applyLeaf writes the decided leaf's reconstruction into the recon plane.
// The pixels are the winning trial's, kept by decideLeaf, rather than a second
// prediction and inverse transform: a block's references lie outside it, and
// between its decideLeaf and its applyLeaf only pixels inside it change (a
// signaled split's children trial, every pixel of which this overwrites), so
// re-deriving would rebuild the same prediction from the same references and
// add the same levels' residual.
func (e *encoder) applyLeaf(d *cuDec, x, y, size int) {
	storeResidual(e.recon, d.rec, nil, x, y, size)
}

// gatherRefsInto fills refs (Above/Left 2·size long) from the reconstruction
// of a plane coded in ctu-sized CTUs and returns refs with its Corner set.
// Availability is H.265's z-scan rule (§6.4.1) read off the geometry: inside
// the padded plane the left column, above row and corner are coded, and the
// below-left and above-right runs each as a whole when the sample beside the
// block precedes it. So each array holds an available prefix, and HEVC's
// substitution extends it by its last sample, or fills it and a missing
// corner from the other array's first (128 with neither).
func gatherRefsInto(recon *frame.Plane, ctu, x, y, size int, refs intra.Refs) intra.Refs {
	w, n2 := recon.W, 2*size
	left, above := refs.Left[:n2], refs.Above[:n2]
	nLeft, nAbove := 0, 0
	if x > 0 {
		nLeft = size
		if precedes(recon, ctu, x-1, y+size, x, y) {
			nLeft = n2
		}
		for i, at := 0, y*w+x-1; i < nLeft; i, at = i+1, at+w {
			left[i] = int32(recon.Pix[at])
		}
	}
	if y > 0 {
		nAbove = size
		if precedes(recon, ctu, x+size, y-1, x, y) {
			nAbove = n2
		}
		for i, v := range recon.Pix[(y-1)*w+x:][:nAbove] {
			above[i] = int32(v)
		}
	}
	switch {
	case x > 0 && y > 0:
		refs.Corner = int32(recon.Pix[(y-1)*w+x-1])
	case x > 0:
		refs.Corner = left[0]
	case y > 0:
		refs.Corner = above[0]
	default:
		refs.Corner = 128
	}
	extendRefs(left, nLeft, refs.Corner)
	extendRefs(above, nAbove, refs.Corner)
	return refs
}

// extendRefs fills a[n:] with a[n−1], or with v when n is 0.
func extendRefs(a []int32, n int, v int32) {
	if n > 0 {
		v = a[n-1]
	}
	for i := n; i < len(a); i++ {
		a[i] = v
	}
}

// precedes reports whether sample (px, py) is coded before the block at
// (x, y): it lies inside the padded plane, and in an earlier CTU in raster
// order or earlier in the CTU's z-scan. Blocks are aligned to their size, so
// this holds for a sample exactly when it does for its whole aligned block of
// that size.
func precedes(recon *frame.Plane, ctu, px, py, x, y int) bool {
	if px < 0 || py < 0 || px >= recon.W || py >= recon.H {
		return false
	}
	if r, br := py/ctu, y/ctu; r != br {
		return r < br
	}
	if c, bc := px/ctu, x/ctu; c != bc {
		return c < bc
	}
	// The z-scan interleaves the bits of x and y, y's above x's: the order is
	// x's when the coordinates' highest differing bit is x's, else y's.
	if xd, yd := px^x, py^y; yd < xd && yd < xd^yd {
		return px < x
	}
	return py < y
}

// motionPredict copies the motion-compensated block from the previous frame.
func motionPredict(prev *frame.Plane, dst []int32, x, y, size int, mvx, mvy int32) {
	for dy := 0; dy < size; dy++ {
		for dx := 0; dx < size; dx++ {
			sx := min(max(x+dx+int(mvx), 0), prev.W-1)
			sy := min(max(y+dy+int(mvy), 0), prev.H-1)
			dst[dy*size+dx] = int32(prev.At(sx, sy))
		}
	}
}

// rdCandidates is how many of the coarse-ranked intra modes receive a full
// rate-distortion trial: all that an intra.Ranking keeps.
const rdCandidates = intra.MaxRanked

// keepIfBetter overwrites *best with cand when cand costs less, copying the
// trial's levels and reconstruction into the two arena-backed blocks this
// leaf owns.
func keepIfBetter(best *cuDec, cand cuDec, lev, rec []int32) {
	if cand.cost < best.cost {
		cand.levels, cand.rec = best.levels, best.rec
		copy(cand.levels, lev)
		copy(cand.rec, rec)
		*best = cand
	}
}

// tryIntraRD runs one full rate-distortion trial of intra mode m.
func (e *encoder) tryIntraRD(m intra.Mode, orig, pred []int32, size int, best *cuDec) {
	lev, rec, sse, rate := e.trialResidual(orig, pred, size, true)
	keepIfBetter(best, cuDec{mode: m, cost: e.rdCost(sse, rate+e.modeRate)}, lev, rec)
}

// coarseIntra ranks the profile's intra modes for the block orig at (x, y) by
// SAD (intra.Scorer.Rank) and returns the survivors that get a full RD trial,
// best first, the k-th with its prediction in scratch.predAt(k): every mode is
// scored, abandoned once it cannot enter the top set, and predicted only if it
// ends up in it. The smoothed references are computed at most once per leaf.
func (e *encoder) coarseIntra(orig []int32, x, y, size int) intra.Ranking {
	s := e.scr
	sc := &s.scorer
	refs := gatherRefsInto(e.recon, e.prof.ctuSize, x, y, size, intra.Refs{Above: s.refsAbove[:2*size], Left: s.refsLeft[:2*size]})
	sc.Reset(size, orig, refs, intra.Refs{Above: s.smAbove[:2*size], Left: s.smLeft[:2*size]})
	top := sc.Rank(e.prof.modes, e.prof.smoothing, rdCandidates)
	for k, mi := range top.Idx[:top.N] {
		m := e.prof.modes[mi]
		sc.Predict(m, e.prof.smoothing && intra.UseSmoothing(size, m), s.predAt(k, size*size))
	}
	return top
}

// decideLeaf searches prediction choices for an undivided CU and returns the
// best decision without touching the recon plane. Every buffer it touches
// comes from the scratch arena; the returned node, its levels and its
// reconstruction live in the per-CTU bump arenas.
func (e *encoder) decideLeaf(x, y, size int) *cuDec {
	s := e.scr
	n2 := size * size
	orig := s.orig[:n2]
	for dy := 0; dy < size; dy++ {
		row := e.orig.Row(y + dy)[x : x+size]
		for dx, v := range row {
			orig[dy*size+dx] = int32(v)
		}
	}

	best := s.newNode()
	*best = cuDec{cost: math.MaxInt64, levels: s.newLevels(n2), rec: s.newLevels(n2)}

	if e.tools.IntraPred {
		var tIntra time.Time
		if e.rec != nil {
			tIntra = time.Now()
		}
		top := e.coarseIntra(orig, x, y, size)
		if e.rec != nil {
			// The coarse ranking (modes scored, survivors predicted) is the
			// intra-search share; the full-RD trials below charge their
			// transform+quant work to the transform stage on their own.
			e.rec.intraNs += int64(time.Since(tIntra))
		}
		// Full RD on the top coarse candidates only; Planar and DC compete in
		// the coarse ranking like every other mode. A survivor whose prediction
		// equals an earlier one's would repeat its trial at its cost, which
		// keepIfBetter's strict < never takes; only a score tie can hide one.
	survivors:
		for k, mi := range top.Idx[:top.N] {
			pred := s.predAt(k, n2)
			for j := range k {
				if top.Score[j] == top.Score[k] && slices.Equal(pred, s.predAt(j, n2)) {
					continue survivors
				}
			}
			e.tryIntraRD(e.prof.modes[mi], orig, pred, size, best)
		}
	} else {
		pred := s.pred[:n2]
		for i := range pred {
			pred[i] = 128
		}
		lev, rec, sse, rate := e.trialResidual(orig, pred, size, true)
		// The sole intra candidate is taken whatever it costs, so the leaf
		// never commits the arena's unwritten blocks.
		best.mode, best.cost = intra.DC, e.rdCost(sse, rate)
		copy(best.levels, lev)
		copy(best.rec, rec)
	}

	if e.tools.InterPred && e.fIdx > 0 {
		mvx, mvy := e.motionSearch(orig, x, y, size)
		pred := s.pred[:n2]
		motionPredict(e.prev, pred, x, y, size, mvx, mvy)
		lev, rec, sse, rate := e.trialResidual(orig, pred, size, false)
		mvRate := rateUnit * int64(egLen(zigzagU(mvx), 1)+egLen(zigzagU(mvy), 1)+1) // the vector and the inter flag
		keepIfBetter(best, cuDec{inter: true, mvx: mvx, mvy: mvy, cost: e.rdCost(sse, rate+mvRate)}, lev, rec)
	}
	return best
}

// motionSearch finds the best integer motion vector within ±searchRange.
const searchRange = 7

func (e *encoder) motionSearch(orig []int32, x, y, size int) (int32, int32) {
	bestSAD := int64(math.MaxInt64)
	var bx, by int32
	pred := e.scr.mcPred[:size*size]
	for my := -searchRange; my <= searchRange; my++ {
		for mx := -searchRange; mx <= searchRange; mx++ {
			motionPredict(e.prev, pred, x, y, size, int32(mx), int32(my))
			var sad int64
			for i := range orig {
				d := orig[i] - pred[i]
				if d < 0 {
					d = -d
				}
				sad += int64(d)
			}
			// Slight zero-bias so (0,0) wins ties.
			sad += int64(max(mx, -mx)+max(my, -my)) * int64(size)
			if sad < bestSAD {
				bestSAD, bx, by = sad, int32(mx), int32(my)
			}
		}
	}
	return bx, by
}

// trialResidual transforms, quantizes and reconstructs the residual,
// returning the levels and the reconstruction (in scratch buffers — valid only
// until the next trial), the SSE distortion and the estimated rate.
//
// Under the transform the trial does not dequantise, invert and add as the
// definition (reconstructBlockInto, refimpl_test.go) does: it knows
// more than a decoder does — the coefficients the levels came from, so
// quantising and dequantising are one pass that also locates the non-zero
// levels for the inverse, and the source, so the prediction is added and the
// distortion summed in one more. The integers are reconstructBlockInto's;
// TestTrialResidualEquivalence holds the two together.
func (e *encoder) trialResidual(orig, pred []int32, size int, isIntra bool) (lev, rec []int32, sse, rate int64) {
	var t0 time.Time
	if e.rec != nil {
		t0 = time.Now()
	}
	s := e.scr
	n2 := size * size
	res, orig, pred := s.res[:n2], orig[:n2], pred[:n2]
	if cpufeat.Lanes8(size) {
		subAVX2(&res[0], &orig[0], &pred[0], n2)
	} else {
		for i := range res {
			res[i] = orig[i] - pred[i]
		}
	}
	lev, rec = s.trialLev[:n2], s.rec[:n2]
	if e.tools.Transform {
		tr := s.transformFor(size, isIntra && e.prof.dst4)
		coef := s.coefA[:n2]
		tr.Forward(coef, res)
		if dct.QuantizeDequantize(lev, coef, coef, size, e.qp, &s.nz) {
			tr.InverseMasked(rec, coef, &s.nz)
		} else {
			clear(rec)
		}
	} else {
		quantizeSpatial(lev, res, e.qp)
		dequantizeSpatial(rec, lev, e.qp)
	}
	sse = addClipSSE(rec, pred, orig, size)
	if e.rec != nil {
		e.rec.xformNs += int64(time.Since(t0))
		e.rec.trials++
	}
	return lev, rec, sse, estimateLevelBits(lev, size, e.tools.Transform)
}

// addClipSSE adds the size×size prediction pred to the residual rec, clips
// the sums to pixels in rec and returns their SSE against the source orig, a
// block of pixels. The SSE is an integer of at most 1024·255² < 2²⁷: exact in
// int64 and in the int32 lanes of addClipSSEAVX2.
func addClipSSE(rec, pred, orig []int32, size int) int64 {
	n2 := size * size
	rec, pred, orig = rec[:n2], pred[:n2], orig[:n2]
	if cpufeat.Lanes8(size) {
		return addClipSSEAVX2(&rec[0], &pred[0], &orig[0], n2)
	}
	var sse int64
	for i, o := range orig {
		v := clipPixel(pred[i] + rec[i])
		rec[i] = v
		d := int64(o - v)
		sse += d * d
	}
	return sse
}

func clipPixel(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// quantizeSpatial quantizes a spatial residual with the QP step and the same
// dead-zone as the transform path (used when the transform is ablated).
func quantizeSpatial(dst, res []int32, qp int) {
	step := dct.Qstep(qp)
	inv := 1 / step
	for i, r := range res {
		v := float64(float64(r) * inv)
		if v >= 0 {
			dst[i] = int32(v + 1.0/3.0)
		} else {
			dst[i] = -int32(-v + 1.0/3.0)
		}
	}
}

func dequantizeSpatial(dst, lev []int32, qp int) {
	step := dct.Qstep(qp)
	for i, l := range lev {
		dst[i] = int32(math.Round(float64(l) * step))
	}
}

// levelRate is the rate of a coefficient of magnitude a up to the block's
// last non-zero one: 0.6 bits for a zero; for a level 2 (significance and
// sign), 1 more if a > 1 and egLen(a−3) more if a > 2.
func levelRate(a uint32) int64 {
	switch {
	case a == 0:
		return rateUnit * 3 / 5
	case a <= 2:
		return rateUnit * int64(1+a)
	}
	return rateUnit * int64(3+egLen(a-3, 0))
}

// levelRateTable[a] is levelRate(a).
var levelRateTable [256]int64

func init() {
	for a := range levelRateTable {
		levelRateTable[a] = levelRate(uint32(a))
	}
}

// estimateLevelBits approximates the entropy-coded size of a level block for
// RD decisions (the emission phase spends the real bits), in rate units: 1
// bit for the CBF, levelRate of each coefficient in scan order up to the last
// non-zero one and 0.08 bits for each after it. Every term is whole, so the
// sum is exact in any order: on AVX2 it is taken in raster order as the CBF
// plus levelRate of every coefficient, less levelRate(0) − 0.08 bits for each
// one after the last non-zero, one pass over the block (levelBitsAVX2).
func estimateLevelBits(lev []int32, size int, transformed bool) int64 {
	if cpufeat.Lanes8(size) {
		ranks := rasterRanks[sizeIdx(size)]
		if transformed {
			ranks = zigzagRanks[sizeIdx(size)]
		}
		lev = lev[:len(ranks)]
		if sum, last, ok := levelBitsAVX2(&lev[0], &ranks[0], len(ranks)); ok {
			if last == 0 {
				return rateUnit
			}
			return rateUnit + int64(sum) - (levelRateTable[0]-rateUnit*2/25)*int64(int32(len(ranks))-last)
		}
	}
	scan, _ := residualScan(size, transformed)
	lev = lev[:len(scan)]
	last := len(scan) - 1
	for last >= 0 && lev[scan[last]] == 0 {
		last--
	}
	rate := int64(rateUnit) // CBF
	if last < 0 {
		return rate
	}
	rate += rateUnit * 2 / 25 * int64(len(scan)-1-last)
	for _, pos := range scan[:last+1] {
		// |level| by mask: the compiler turns the comparing form into a
		// branch here, on a sign no predictor knows.
		sign := lev[pos] >> 31
		if a := uint32((lev[pos] ^ sign) - sign); a < uint32(len(levelRateTable)) {
			rate += levelRateTable[a]
		} else {
			rate += levelRate(a)
		}
	}
	return rate
}

// zigzagU maps a signed value to unsigned for Exp-Golomb coding.
func zigzagU(v int32) uint32 {
	if v >= 0 {
		return uint32(v) << 1
	}
	return uint32(-v)<<1 - 1
}

func unzigzag(u uint32) int32 {
	if u&1 == 0 {
		return int32(u >> 1)
	}
	return -int32(u+1) >> 1
}

// splitSlot is the context slot of the split flag at a quadtree depth.
func splitSlot(depth int) int { return ctxSplit + min(depth, splitDepths-1) }

// b2i is 1 for true.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// emitCU serializes a decided CU tree. Only a signaled split sends a flag.
func (e *encoder) emitCU(d *cuDec, x, y, size, depth int) {
	if splitKindFor(e.prof, e.tools, size) == splitSignaled {
		if e.rec != nil {
			b0 := e.bw.bitLen()
			e.bw.bit(splitSlot(depth), b2i(d.split))
			e.rec.bitsPartition += int64(e.bw.bitLen() - b0)
		} else {
			e.bw.bit(splitSlot(depth), b2i(d.split))
		}
	}
	if d.split {
		h := size / 2
		for i := 0; i < 4; i++ {
			e.emitCU(d.children[i], x+(i%2)*h, y+(i/2)*h, h, depth+1)
		}
		return
	}
	e.emitLeaf(d, size)
}

func (e *encoder) emitLeaf(d *cuDec, size int) {
	var b0 int
	if e.rec != nil {
		b0 = e.bw.bitLen()
	}
	if e.tools.InterPred && e.fIdx > 0 {
		e.bw.bit(ctxInterFlag, b2i(d.inter))
	}
	if d.inter {
		egEncode(e.bw, zigzagU(d.mvx), 1)
		egEncode(e.bw, zigzagU(d.mvy), 1)
	} else if e.tools.IntraPred {
		same := d.mode == e.prevModeEmit
		e.bw.bit(ctxModeSame, b2i(same))
		if !same {
			e.bw.bypassBits(uint32(e.modeIndex(d.mode)), modeIdxBits(len(e.prof.modes)))
		}
		e.prevModeEmit = d.mode
	}
	if e.rec != nil {
		b1 := e.bw.bitLen()
		e.rec.bitsMode += int64(b1 - b0)
		e.bw.levels(d.levels, size, e.tools.Transform)
		e.rec.bitsResidual += int64(e.bw.bitLen() - b1)
		return
	}
	e.bw.levels(d.levels, size, e.tools.Transform)
}

func (e *encoder) modeIndex(m intra.Mode) int {
	for i, mm := range e.prof.modes {
		if mm == m {
			return i
		}
	}
	panic(fmt.Sprintf("codec: mode %d not in profile", m))
}

// modeIdxBits is the fixed bypass width for a mode index.
func modeIdxBits(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}
