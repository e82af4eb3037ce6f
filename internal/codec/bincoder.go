package codec

import "repro/internal/cabac"

// binEncoder abstracts the entropy back-end: CABAC, or the rANS backend's
// symbol recorder (ransBinEnc).
type binEncoder interface {
	// bit codes one bin under the adaptive context in the given slot
	// (ctxSplit … ctxG2 below).
	bit(slot, bin int)
	bypass(bin int)
	bypassBits(v uint32, n uint)
	// levels codes one size×size level block, the inverse of the decoder's
	// parseResidual.
	levels(lev []int32, size int, transformed bool)
	finish() []byte
	// bitLen reports the bits emitted so far (CABAC: including bits still
	// buffered in the arithmetic engine, so deltas telescope exactly even
	// though individual attributions are byte-granular). Used by the
	// observability layer to split the stream into per-stage bit accounts.
	bitLen() int
}

// binDecoder is what the parse reads a leaf's few header bins through. The
// residual blocks, where nearly all of a chunk's bins are, go to the concrete
// reader behind it (decoder.parseResidual).
type binDecoder interface {
	bit(slot int) int
	bypassBits(n uint) uint32
	// expGolomb reads a k-th order Exp-Golomb code in bypass bins, the inverse
	// of egEncode.
	expGolomb(k uint) uint32
}

// The CABAC adaptors pair the arithmetic engine with the context set it
// adapts. They are pointer receivers on values embedded in the scratch
// (scratch.cabacEnc/cabacDec), so handing one to a binEncoder/binDecoder
// interface allocates nothing.
type cabacBinEnc struct {
	e   *cabac.Encoder
	ctx *contexts
}

func (c *cabacBinEnc) bit(slot, bin int)           { c.e.EncodeBit(&c.ctx[slot], bin) }
func (c *cabacBinEnc) bypass(bin int)              { c.e.EncodeBypass(bin) }
func (c *cabacBinEnc) bypassBits(v uint32, n uint) { c.e.EncodeBypassBits(v, n) }
func (c *cabacBinEnc) finish() []byte              { return c.e.Finish() }
func (c *cabacBinEnc) bitLen() int                 { return c.e.BitLenEstimate() }

// levels codes a level block in CABAC's residual syntax — the cbf, then per
// scan position the significance bin and, for a non-zero level, the
// greater-than-1 and -2 bins, the Exp-Golomb escape and the sign — as one
// cabac.Encoder.EncodeLevels call.
func (c *cabacBinEnc) levels(lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan, sigSlot := residualScan(size, transformed)
	ctx := c.ctx
	c.e.EncodeLevels(lev, scan, sigSlot, ctx[:], &ctx[ctxCbf+si], &ctx[ctxG1+si], &ctx[ctxG2+si])
}

type cabacBinDec struct {
	d   *cabac.Decoder
	ctx *contexts
}

func (c *cabacBinDec) bit(slot int) int         { return c.d.DecodeBit(&c.ctx[slot]) }
func (c *cabacBinDec) bypassBits(n uint) uint32 { return c.d.DecodeBypassBits(n) }

func (c *cabacBinDec) expGolomb(k uint) uint32 {
	v, ok := c.d.DecodeExpGolomb(k)
	if !ok {
		panic(decodeError{ErrCorrupt})
	}
	return v
}

// decodeError wraps stream errors raised inside the decode recursion; the
// top-level Decode recovers it into a normal error return.
type decodeError struct{ err error }

// egEncode writes v with a k-th order Exp-Golomb code through bypass bins —
// the HEVC coeff_abs_level_remaining binarization.
func egEncode(e binEncoder, v uint32, k uint) {
	for v >= 1<<k {
		e.bypass(1)
		v -= 1 << k
		k++
		if k > 30 {
			panic("codec: exp-Golomb overflow")
		}
	}
	e.bypass(0)
	if k > 0 {
		e.bypassBits(v, k)
	}
}

// egLen estimates the bit length of the k-th order Exp-Golomb code for v.
func egLen(v uint32, k uint) int {
	n := 1
	for v >= 1<<k {
		v -= 1 << k
		k++
		n++
	}
	return n + int(k)
}

// The adaptive context slots. Their order is bitstream contract: the rANS
// backend's flag classes are the slots before ctxSig, numbered as here
// (backend.go), so a slot may be added at the end under a new container
// version but never moved.
const (
	ctxSplit     = 0                // [6] split flag, by quadtree depth
	ctxInterFlag = ctxSplit + 6     // inter/intra flag of a P-frame leaf
	ctxModeSame  = ctxInterFlag + 1 // intra mode equals the previous leaf's
	ctxCbf       = ctxModeSame + 1  // [4] coded-block flag, by size index
	ctxSig       = ctxCbf + 4       // [4][sigBins] significance, size index × diagonal bin
	ctxG1        = ctxSig + 4*sigBins
	ctxG2        = ctxG1 + 4 // ctxG1, ctxG2: [4] |level| > 1, > 2, by size index
	nCtxSlots    = ctxG2 + 4 // 56
)

// sigBins is the number of anti-diagonal bins the significance contexts of
// one block size are spread over (diagBin's range).
const sigBins = 9

// splitDepths is how many quadtree depths own a split context; deeper
// splits share the last.
const splitDepths = ctxInterFlag - ctxSplit

// contexts is the full set of adaptive contexts, identically initialized on
// the encoder and decoder sides and addressed by the slot indices above. One
// instance lives per coded sequence so adaptation carries across the frames
// of a tensor.
type contexts [nCtxSlots]cabac.Context

// init (re)sets every context to its initial adaptive state. Pooled
// scratches call this per chunk so a recycled context set is
// indistinguishable from a fresh one — the bitstream contract depends on it.
func (c *contexts) init() {
	fill := func(from, to int, p0 float64) {
		for s := from; s < to; s++ {
			c[s] = cabac.NewContext(p0)
		}
	}
	fill(ctxSplit, ctxInterFlag, 0.5)
	fill(ctxInterFlag, ctxModeSame, 0.8) // inter is rare on tensors
	fill(ctxModeSame, ctxCbf, 0.5)
	fill(ctxCbf, ctxSig, 0.3)
	fill(ctxSig, nCtxSlots, 0.6) // sig, g1, g2
}

// sizeIdx maps a block edge (4..32) to a context table index.
func sizeIdx(n int) int {
	switch {
	case n <= 4:
		return 0
	case n <= 8:
		return 1
	case n <= 16:
		return 2
	default:
		return 3
	}
}
