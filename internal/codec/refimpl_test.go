package codec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cpufeat"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
	"repro/internal/rans"
)

// The definitions the package's kernels are held to (DESIGN.md §11.1), one
// per kernel, each compared directly with every path of its kernel:
//
//	trialResidual              trialDef: residual → Forward → Quantize →
//	                           reconstructBlockInto → SSE → estimateLevelBitsDef
//	addClipSSE                 addClipSSEDef
//	reconstructor.reconstruct  reconstructDef: per leaf, gatherRefsDef and Predict
//	                           (or motionPredict), reconstructBlockInto, storeDef
//	storeResidual              storeDef
//	estimateLevelBits          estimateLevelBitsDef
//	gatherRefsInto             gatherRefsDef over the coverage a coding pass
//	                           leaves (codingOrder)
//	coarseIntra                coarseIntraDef
//	computeStats               sseDef
//	cabac.DecodeLevels         parseResidualPerBin over a perBinDecoder
//	cabac.EncodeLevels         emitResidualPerBin over a binEncoder
//	ransChunk.parseResidual    parseSymbolsDef: one symbol a read
//	ransChunk.predecode        predecodeDef: each state alone, one symbol a call
//
// beside the inputs the tests share (drawPixels, codingOrder, coverageAt,
// drawSource, drawLevels, extremeBlocks) and the kernel paths they run on (kernelPaths).
// Definitions are spelled over the public API of internal/dct and
// internal/intra, whose own definitions hold those.

// reconstructBlockInto rebuilds pixel values from a prediction and levels
// into rec, using coefScratch (same length) as the dequantization workspace:
// the definition of a reconstruction. rec must not alias pred or levels;
// coefScratch must not alias levels.
func reconstructBlockInto(rec, coefScratch, pred, levels []int32, qp int, useTransform bool, tr *dct.Transform) {
	var any int32
	for _, l := range levels {
		any |= l
	}
	switch {
	case any == 0:
		// Zero levels dequantize to zero and inverse-transform to zero,
		// with or without the transform: a decoded leaf whose cbf is 0.
		clear(rec)
	case useTransform:
		dct.Dequantize(coefScratch, levels, qp)
		tr.Inverse(rec, coefScratch)
	default:
		dequantizeSpatial(rec, levels, qp)
	}
	for i := range rec {
		rec[i] = clipPixel(pred[i] + rec[i])
	}
}

// trialDef is the RD trial by definition: the residual through Forward and
// Quantize (the spatial quantiser with the transform off), the
// reconstruction a decoder makes of the levels, its SSE against the source,
// and the rate estimate.
func trialDef(e *encoder, orig, pred []int32, size int, isIntra bool) (lev, rec []int32, sse, rate int64) {
	n2 := size * size
	res, lev, rec := make([]int32, n2), make([]int32, n2), make([]int32, n2)
	for i := range res {
		res[i] = orig[i] - pred[i]
	}
	tr := e.scr.transformFor(size, isIntra && e.prof.dst4)
	if e.tools.Transform {
		coef := make([]int32, n2)
		tr.Forward(coef, res)
		dct.Quantize(lev, coef, e.qp)
	} else {
		quantizeSpatial(lev, res, e.qp)
	}
	reconstructBlockInto(rec, make([]int32, n2), pred, lev, e.qp, e.tools.Transform, tr)
	for i, o := range orig {
		d := int64(o - rec[i])
		sse += d * d
	}
	return lev, rec, sse, estimateLevelBitsDef(lev, size, e.tools.Transform)
}

// reconstructDef is the reconstruct stage by definition: each leaf of the
// batch predicted from gathered references (or by motion, or at 128) —
// available where coded, the pixels stored so far, marks them — rebuilt by
// reconstructBlockInto, committed by storeDef and marked coded.
func reconstructDef(r *reconstructor, coded []bool, b *ctuBatch) {
	levOff := 0
	for _, lf := range b.leaves[:b.n] {
		x, y, size := int(lf.x), int(lf.y), int(lf.size)
		n2 := size * size
		lev := b.lev[levOff : levOff+n2]
		levOff += n2
		pred := make([]int32, n2)
		switch {
		case lf.inter:
			motionPredict(r.prev, pred, x, y, size, lf.mvx, lf.mvy)
		case r.tools.IntraPred:
			refs := gatherRefsDef(r.recon, coded, x, y, size)
			if r.prof.smoothing && intra.UseSmoothing(size, lf.mode) {
				refs = refs.SmoothedInto(intra.NewRefs(size))
			}
			intra.Predict(lf.mode, size, refs, pred)
		default:
			for i := range pred {
				pred[i] = 128
			}
		}
		rec := make([]int32, n2)
		tr := r.scr.transformFor(size, !lf.inter && r.prof.dst4)
		reconstructBlockInto(rec, make([]int32, n2), pred, lev, r.qp, r.tools.Transform, tr)
		storeDef(r.recon, rec, nil, x, y, size)
		markCoded(coded, r.recon.W, x, y, size)
	}
}

// markCoded marks the size×size block at (x, y) of a w-wide coverage mask.
func markCoded(coded []bool, w, x, y, size int) {
	for dy := 0; dy < size; dy++ {
		for dx := 0; dx < size; dx++ {
			coded[(y+dy)*w+x+dx] = true
		}
	}
}

// addClipSSEDef is the trial's last pass by definition: each reconstruction
// clipPixel(pred + rec) into rec, and the float64 sum of its squared
// differences from orig.
func addClipSSEDef(rec, pred, orig []int32) (sse float64) {
	for i, o := range orig {
		rec[i] = clipPixel(pred[i] + rec[i])
		d := float64(o - rec[i])
		sse += d * d
	}
	return sse
}

// storeDef is a leaf's commit by definition: pixel (x+dx, y+dy) of the plane
// takes clipPixel(pred + res) at (dx, dy) of the block — pred alone when res
// is nil.
func storeDef(recon *frame.Plane, pred, res []int32, x, y, size int) {
	for i, p := range pred[:size*size] {
		if res != nil {
			p += res[i]
		}
		recon.Pix[(y+i/size)*recon.W+x+i%size] = uint8(clipPixel(p))
	}
}

// estimateLevelBitsDef is the rate estimate by definition, in hundredths of
// a bit: 100 for the CBF, then per coefficient in scan order up to the last
// non-zero one 60 for a zero, 200 for a level, 100 more if |l| > 1 and 100
// per bit of the Exp-Golomb code of |l|−3 if |l| > 2; 8 per coefficient
// after the last.
func estimateLevelBitsDef(lev []int32, size int, transformed bool) int64 {
	scan, _ := residualScan(size, transformed)
	last := -1
	for i, pos := range scan {
		if lev[pos] != 0 {
			last = i
		}
	}
	rate := int64(100)
	if last == -1 {
		return rate
	}
	for _, pos := range scan[:last+1] {
		a := int64(lev[pos])
		switch {
		case a == 0:
			rate += 60
		case a == 1 || a == -1:
			rate += 200
		case a == 2 || a == -2:
			rate += 300
		default:
			rate += 300 + 100*int64(egLen(uint32(max(a, -a)-3), 0))
		}
	}
	return rate + 8*int64(len(scan)-1-last)
}

// gatherRefsDef is the reference gather by definition: HEVC's reference scan
// — left column bottom to top, corner, above row left to right — of samples
// that are available (inside the frame and coded: coded is the mask of the
// pixels stored so far) or not, then substitution:
// samples before the first available one take its value (128 when there is
// none), every later gap the sample before it.
func gatherRefsDef(recon *frame.Plane, coded []bool, x, y, size int) intra.Refs {
	type sample struct {
		v  int32
		ok bool
	}
	w, h, n2 := recon.W, recon.H, 2*size
	at := func(px, py int) sample {
		if px >= 0 && py >= 0 && px < w && py < h && coded[py*w+px] {
			return sample{int32(recon.At(px, py)), true}
		}
		return sample{}
	}
	var raw []sample
	for i := n2 - 1; i >= 0; i-- {
		raw = append(raw, at(x-1, y+i))
	}
	raw = append(raw, at(x-1, y-1))
	for i := 0; i < n2; i++ {
		raw = append(raw, at(x+i, y-1))
	}
	first := -1
	for i, r := range raw {
		if r.ok {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range raw {
			raw[i] = sample{128, true}
		}
	} else {
		for i := first - 1; i >= 0; i-- {
			raw[i] = raw[i+1]
		}
		for i := first + 1; i < len(raw); i++ {
			if !raw[i].ok {
				raw[i] = raw[i-1]
			}
		}
	}
	refs := intra.NewRefs(size)
	for i := 0; i < n2; i++ {
		refs.Left[i], refs.Above[i] = raw[n2-1-i].v, raw[n2+1+i].v
	}
	refs.Corner = raw[n2].v
	return refs
}

// coarseIntraDef is the coarse search by definition: every profile mode
// predicted whole from gathered (and, where the profile smooths, smoothed)
// references under the coverage coded, its full SAD offered to the top set in
// profile order. preds[mi] receives mode mi's prediction.
func coarseIntraDef(e *encoder, coded []bool, orig []int32, x, y, size int, preds [][]int32) intra.Ranking {
	refs := gatherRefsDef(e.recon, coded, x, y, size)
	smoothed := refs.SmoothedInto(intra.NewRefs(size))
	top := intra.Ranking{K: rdCandidates}
	for mi, m := range e.prof.modes {
		r := refs
		if e.prof.smoothing && intra.UseSmoothing(size, m) {
			r = smoothed
		}
		pred := preds[mi][:size*size]
		intra.Predict(m, size, r, pred)
		var sad int64
		for i, v := range orig {
			sad += int64(max(v-pred[i], pred[i]-v))
		}
		top.Offer(mi, sad)
		preds[mi] = pred
	}
	return top
}

// sseDef is computeStats' sum of squared errors by definition: a float64
// accumulation over every pixel.
func sseDef(planes, recs []*frame.Plane) float64 {
	var sse float64
	for i, p := range planes {
		for j, v := range p.Pix {
			d := float64(int(v) - int(recs[i].Pix[j]))
			sse += d * d
		}
	}
	return sse
}

// emitResidualPerBin is the residual syntax by definition, one bin written
// at a time — the cbf, then per scan position the significance bin and, for a
// non-zero level, the greater-than-1 and -2 bins, the Exp-Golomb escape and
// the sign: what cabacBinEnc.levels (cabac.EncodeLevels) is held to.
func emitResidualPerBin(e binEncoder, lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan, sigSlot := residualScan(size, transformed)
	cbf := slices.ContainsFunc(lev, func(l int32) bool { return l != 0 })
	e.bit(ctxCbf+si, b2i(cbf))
	if !cbf {
		return
	}
	k := uint(0)
	for i, pos := range scan {
		l := lev[pos]
		e.bit(int(sigSlot[i]), b2i(l != 0))
		if l == 0 {
			continue
		}
		a := max(l, -l)
		e.bit(ctxG1+si, b2i(a > 1))
		if a > 1 {
			e.bit(ctxG2+si, b2i(a > 2))
		}
		if a > 2 {
			rem := uint32(a - 3)
			egEncode(e, rem, k)
			if rem > 3<<k && k < 4 {
				k++
			}
		}
		e.bypass(b2i(l < 0))
	}
}

// perBinDecoder is the bin reader the residual syntax is defined over: one
// call per bin.
type perBinDecoder interface {
	bit(slot int) int
	bypass() int
	bypassBits(n uint) uint32
}

// cabacPerBin completes cabacBinDec to that interface.
type cabacPerBin struct{ *cabacBinDec }

func (c cabacPerBin) bypass() int { return c.d.DecodeBypass() }

// egDecode reads a k-th order Exp-Golomb code one bypass bin at a time.
func egDecode(d perBinDecoder, k uint) uint32 {
	var v uint32
	for d.bypass() == 1 {
		v += 1 << k
		k++
		if k > 30 {
			panic(decodeError{ErrCorrupt})
		}
	}
	if k > 0 {
		v += d.bypassBits(k)
	}
	return v
}

// parseResidualPerBin is the residual syntax by definition, one bin read at
// a time, with the level cap: what cabac.DecodeLevels is held to.
func parseResidualPerBin(br perBinDecoder, lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan, sigSlot := residualScan(size, transformed)
	clear(lev)
	if br.bit(ctxCbf+si) == 0 {
		return
	}
	k := uint(0)
	for i, pos := range scan {
		if br.bit(int(sigSlot[i])) == 0 {
			continue
		}
		a := int32(1)
		if br.bit(ctxG1+si) == 1 {
			a = 2
			if br.bit(ctxG2+si) == 1 {
				rem := egDecode(br, k)
				if rem > maxLevel-3 {
					panic(decodeError{ErrCorrupt})
				}
				a = 3 + int32(rem)
				if rem > 3<<k && k < 4 {
					k++
				}
			}
		}
		if br.bypass() == 1 {
			a = -a
		}
		lev[pos] = a
	}
}

// predecodeDef is the pre-decode by definition: each state on its own, one
// symbol a step — symbol i of the class-major sequence on state i%rans.Interleave,
// found by walking the cumulative frequencies of the table of the class that
// holds it — under the strict rules of one segment (at least 3 bytes, an
// initial state at or above 2¹⁶, no renormalization past the end, a final
// state of exactly 2¹⁶, every byte consumed), and the lowest failing state
// reported.
func predecodeDef(c *ransChunk, segs *[rans.Interleave][]byte, tabs *ransTables) error {
	const lo = 1 << 16
	total := c.start[nClasses]
	lane := func(seg []byte, j int) error {
		if len(seg) < 3 {
			return fmt.Errorf("%d-byte segment: %w", len(seg), rans.ErrTruncated)
		}
		x, pos := uint32(seg[0])<<16|uint32(seg[1])<<8|uint32(seg[2]), 3
		if x < lo {
			return fmt.Errorf("initial state %#x below renormalization bound: %w", x, rans.ErrCorrupt)
		}
		cl := 0
		for i := j; i < total; i += rans.Interleave {
			for i >= c.start[cl+1] {
				cl++
			}
			t := tabs[cl]
			s := x & (rans.Scale - 1)
			sym, cum := 0, uint32(0)
			for cum+t.Freq(uint8(sym)) <= s {
				cum += t.Freq(uint8(sym))
				sym++
			}
			x = t.Freq(uint8(sym))*(x>>rans.ScaleBits) + s - cum
			for x < lo {
				if pos >= len(seg) {
					return fmt.Errorf("segment ends mid-renormalization: %w", rans.ErrTruncated)
				}
				x, pos = x<<8|uint32(seg[pos]), pos+1
			}
			c.syms[i] = uint8(sym)
		}
		if x != lo {
			return fmt.Errorf("final state %#x, want %#x: %w", x, uint32(lo), rans.ErrCorrupt)
		}
		if pos != len(seg) {
			return fmt.Errorf("%d unconsumed segment bytes: %w", len(seg)-pos, rans.ErrCorrupt)
		}
		return nil
	}
	for j, seg := range segs {
		if err := lane(seg, j); err != nil {
			return corruptf("codec: rans state %d: %v", j, err)
		}
	}
	return nil
}

// parseSymbolsDef is the rANS residual syntax by definition, one symbol or
// bypass bin a read: the cbf flag, then for a coded block each scan
// position's symbol off its class (levelClass), and for a non-zero one the
// escape's Exp-Golomb suffix and the sign. What ransChunk.parseResidual is
// held to.
func parseSymbolsDef(c *ransChunk, lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan, _ := residualScan(size, transformed)
	clear(lev)
	if c.bit(ctxCbf+si) == 0 {
		return
	}
	k := uint(0)
	for i, pos := range scan {
		a := int32(c.bit(levelClass(si, i)))
		if a == 0 {
			continue
		}
		if a == levelEscape {
			rem := egDecode(c, k)
			if rem > maxLevel-levelEscape {
				panic(decodeError{ErrCorrupt})
			}
			a += int32(rem)
			if rem > 3<<k && k < 4 {
				k++
			}
		}
		if c.bypass() == 1 {
			a = -a
		}
		lev[pos] = a
	}
}

// kernelPaths calls f once for each kernel path this host runs, with
// cpufeat.AVX2FMA set to select the kernels of internal/dct and internal/intra
// underneath: the pure-Go ones (simd false) always, the SIMD ones (simd true)
// where the CPU has them. It restores the flag.
func kernelPaths(f func(simd bool)) {
	host := cpufeat.AVX2FMA
	defer func() { cpufeat.AVX2FMA = host }()
	for _, simd := range []bool{false, true} {
		if simd && !host {
			break
		}
		cpufeat.AVX2FMA = simd
		f(simd)
	}
}

// drawPixels fills pix, a w-wide raster, with one of the contents the pixel
// tests share, by kind mod 3: noise; a ramp of drawn slopes plus a little
// noise; flat at 0, at 255 or at a drawn value (every prediction of every mode
// the same).
func drawPixels(rng *rand.Rand, pix []uint8, w, kind int) {
	switch kind % 3 {
	case 0:
		rng.Read(pix)
	case 1:
		base, sx, sy := rng.Int31n(256), rng.Int31n(9)-4, rng.Int31n(9)-4
		for i := range pix {
			pix[i] = uint8(clipPixel(base + sx*int32(i%w) + sy*int32(i/w) + rng.Int31n(5)))
		}
	default:
		v := [3]uint8{0, 255, uint8(rng.Intn(256))}[rng.Intn(3)]
		for i := range pix {
			pix[i] = v
		}
	}
}

// codingOrder draws a quadtree partition of a w×h plane (multiples of ctu)
// into leaves of 4 to ctu — each block above 4 splits with probability ½ —
// and visits the leaves in coding order, CTUs in raster order and each
// quadtree depth first, calling leaf at each with coded marking exactly the
// leaves before it, which it then marks: the coverage a coding pass that
// stores each leaf whole leaves. A block containing the target leaf (tx, ty,
// tsize; tsize 0 for none) splits until it is the target. A false from leaf
// ends the walk, before its leaf is marked.
func codingOrder(rng *rand.Rand, coded []bool, w, h, ctu, tx, ty, tsize int, leaf func(x, y, size int) bool) {
	clear(coded)
	var visit func(x, y, size int) bool
	visit = func(x, y, size int) bool {
		inside := tx >= x && tx < x+size && ty >= y && ty < y+size && tsize > 0
		if size > 4 && (inside && size > tsize || !inside && rng.Intn(2) == 0) {
			for i := 0; i < 4; i++ {
				if !visit(x+i%2*size/2, y+i/2*size/2, size/2) {
					return false
				}
			}
			return true
		}
		if !leaf(x, y, size) {
			return false
		}
		markCoded(coded, w, x, y, size)
		return true
	}
	for y := 0; y < h; y += ctu {
		for x := 0; x < w; x += ctu {
			if !visit(x, y, ctu) {
				return
			}
		}
	}
}

// coverageAt sets coded, a w×h plane's mask, to what a coding pass over a
// drawn partition has stored when it reaches the leaf at (x, y) of the given
// size.
func coverageAt(rng *rand.Rand, coded []bool, w, h, ctu, x, y, size int) {
	codingOrder(rng, coded, w, h, ctu, x, y, size, func(lx, ly, lsize int) bool {
		return lx != x || ly != y || lsize != size
	})
}

// drawSource fills orig with a noisy copy of pred: each sample off by at most
// amp, clipped to the pixel range.
func drawSource(rng *rand.Rand, orig, pred []int32, amp int32) {
	for i, p := range pred {
		orig[i] = clipPixel(p + rng.Int31n(2*amp+1) - amp)
	}
}

// drawLevels fills a level block of one of the kinds the residual syntax
// distinguishes.
func drawLevels(rng *rand.Rand, lev []int32, size int, transformed bool, kind int) {
	clear(lev)
	scan, _ := residualScan(size, transformed)
	sign := func() int32 { return 1 - 2*rng.Int31n(2) }
	switch kind {
	case 0: // all zero: cbf 0
	case 1: // one coefficient at a scan end
		lev[scan[0]] = sign()
	case 2:
		lev[scan[len(scan)-1]] = sign() * (1 + rng.Int31n(4))
	case 3: // dense ±1/±2
		for i := range lev {
			lev[i] = sign() * (1 + rng.Int31n(2))
		}
	case 4: // escapes that walk k to 4: every remainder above 3<<k
		for _, pos := range scan[:min(len(scan), 8+rng.Intn(8))] {
			lev[pos] = sign() * (3 + 49 + rng.Int31n(1<<uint(rng.Intn(12))))
		}
	case 5: // the cap itself
		lev[scan[rng.Intn(len(scan))]] = sign() * maxLevel
	default: // a quantised block: density and amplitude drawn
		density, amp := rng.Intn(101), int32(1)<<uint(rng.Intn(12))
		for i := range lev {
			if rng.Intn(100) < density {
				lev[i] = rng.Int31n(2*amp+1) - amp
			}
		}
	}
}

// extremeBlocks calls f with source/prediction pairs whose residual is ±255
// everywhere: the constant block and, for each basis function of the size-n
// transform sampled on a grid, the sign pattern that maximises it.
func extremeBlocks(n int, f func(orig, pred []int32)) {
	orig, pred := make([]int32, n*n), make([]int32, n*n)
	// Basis function (k, l) at pixel (row, col), up to a positive factor.
	basis := func(k, l, row, col int) float64 {
		return math.Cos(float64((2*row+1)*k)*math.Pi/float64(2*n)) * math.Cos(float64((2*col+1)*l)*math.Pi/float64(2*n))
	}
	for k := 0; k < n; k += max(1, n/8) {
		for l := 0; l < n; l += max(1, n/8) {
			for i := range orig {
				orig[i], pred[i] = 255, 0
				if basis(k, l, i/n, i%n) < 0 {
					orig[i], pred[i] = 0, 255
				}
			}
			f(orig, pred)
		}
	}
}
