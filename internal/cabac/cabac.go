// Package cabac implements a context-adaptive binary arithmetic coder in the
// style of H.264/H.265 CABAC.
//
// Symbols are binarized into bins; each bin is coded either with an adaptive
// context (an 11-bit probability state that tracks the local bin statistics)
// or in bypass mode (fixed 1/2 probability, used for sign bits and suffixes
// whose distribution is near uniform). The arithmetic engine is a
// carry-propagating range coder, which is bit-exact between encoder and
// decoder and has the same asymptotic efficiency as the HEVC M-coder.
package cabac

const (
	probBits  = 11
	probMax   = 1 << probBits // 2048
	adaptRate = 5             // probability update shift; smaller adapts faster

	topValue = 1 << 24
)

// Context is an adaptive binary probability model. The zero value is NOT
// ready for use; create contexts with NewContext.
type Context struct {
	p uint16 // probability of bin==0, in [1, probMax-1]
}

// NewContext returns a context initialized to probability-of-zero p0 (0..1).
func NewContext(p0 float64) Context {
	p := uint16(float64(p0*probMax) + 0.5)
	if p < 1 {
		p = 1
	}
	if p > probMax-1 {
		p = probMax - 1
	}
	return Context{p: p}
}

func (c *Context) update(bin int) {
	if bin == 0 {
		c.p += (probMax - c.p) >> adaptRate
	} else {
		c.p -= c.p >> adaptRate
	}
}

// Encoder is a binary arithmetic encoder.
type Encoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
	started   bool
}

// NewEncoder returns a ready Encoder.
func NewEncoder() *Encoder {
	return &Encoder{rng: 0xFFFFFFFF, cache: 0, cacheSize: 1}
}

// Reset returns the encoder to its initial state, discarding output.
func (e *Encoder) Reset() {
	e.low, e.rng = 0, 0xFFFFFFFF
	e.cache, e.cacheSize = 0, 1
	e.out = e.out[:0]
}

// shiftLow moves the top byte of low out — into the cache, or into the
// output with the carry settled — and returns low shifted up a byte. It takes
// low as a value so that EncodeLevels can keep its copy in a register.
func (e *Encoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		for ; e.cacheSize > 0; e.cacheSize-- {
			e.out = append(e.out, e.cache+carry)
			e.cache = 0xFF
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return low << 8 & 0xFFFFFFFF
}

// EncodeBit codes one bin with adaptive context ctx.
func (e *Encoder) EncodeBit(ctx *Context, bin int) {
	bound := e.rng >> probBits * uint32(ctx.p)
	if bin == 0 {
		e.rng = bound
	} else {
		e.low += uint64(bound)
		e.rng -= bound
	}
	ctx.update(bin)
	for e.rng < topValue {
		e.rng <<= 8
		e.low = e.shiftLow(e.low)
	}
}

// EncodeBypass codes one bin at fixed 1/2 probability.
func (e *Encoder) EncodeBypass(bin int) {
	e.rng >>= 1
	if bin != 0 {
		e.low += uint64(e.rng)
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.low = e.shiftLow(e.low)
	}
}

// EncodeBypassBits codes the low n bits of v in bypass mode, MSB first.
func (e *Encoder) EncodeBypassBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.EncodeBypass(int(v >> uint(i) & 1))
	}
}

// Finish flushes the arithmetic engine and returns the bitstream.
func (e *Encoder) Finish() []byte {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
	return e.out
}

// The two steps of the encoder's arithmetic on a register copy of the engine,
// for EncodeLevels to inline: EncodeBit is encodeBin then renorm,
// EncodeBypass is bypassEnc then renorm. (The per-bin entry points keep their
// own spelling of it, which is what the differential tests hold these to.)

// encodeBin codes bin on ctx, adapting it, and leaves the range to be
// renormalised.
func encodeBin(low uint64, rng uint32, ctx *Context, bin bool) (uint64, uint32) {
	p := uint32(ctx.p)
	bound := rng >> probBits * p
	if !bin {
		ctx.p = uint16(p + (probMax-p)>>adaptRate)
		return low, bound
	}
	ctx.p = uint16(p - p>>adaptRate)
	return low + uint64(bound), rng - bound
}

// bypassEnc codes bypass bin (0 or 1) and leaves the range to be
// renormalised.
func bypassEnc(low uint64, rng, bin uint32) (uint64, uint32) {
	rng >>= 1
	return low + uint64(rng&-bin), rng
}

// renorm renormalises: while the range is short it shifts a byte of low out.
// Its test inlines at every bin; the loop, run about once a byte of output,
// stays out of line.
func (e *Encoder) renorm(low uint64, rng uint32) (uint64, uint32) {
	if rng < topValue {
		return e.renormSlow(low, rng)
	}
	return low, rng
}

//go:noinline
func (e *Encoder) renormSlow(low uint64, rng uint32) (uint64, uint32) {
	for rng < topValue {
		rng <<= 8
		low = e.shiftLow(low)
	}
	return low, rng
}

// EncodeLevels codes one residual level block — DecodeLevels' syntax, whose
// inverse it is — in one pass, holding the engine's low and range in locals
// from the coded-block flag to the last sign and writing them back once.
//
// The flag, on cbf, is whether any level of lev is non-zero; lev is
// row-major, indexed by scan's entries, and holds the block's levels there
// and nothing non-zero anywhere else. When the flag is set, each position i
// of scan gets a significance bin on ctx[sigSlot[i]] and a non-zero level
// its greater-than-1 bin on g1, its greater-than-2 bin on g2, |level|−3 as an
// Exp-Golomb escape in bypass bins (its order k adapting upwards with the
// remainders seen) and its sign as one bypass bin.
//
// Every bin is the arithmetic of EncodeBit or EncodeBypass on the same
// context in the same order, so the bytes, the contexts and the encoder's
// state afterwards are those of one call per bin, carries included. Like the
// per-bin escape it panics on a remainder whose Exp-Golomb order would pass
// 30, which no level of magnitude below 2³⁰ reaches.
func (e *Encoder) EncodeLevels(lev []int32, scan []int, sigSlot []uint8, ctx []Context, cbf, g1, g2 *Context) {
	low, rng := e.low, e.rng
	coded := false
	for _, l := range lev {
		if l != 0 {
			coded = true
			break
		}
	}
	low, rng = encodeBin(low, rng, cbf, coded)
	low, rng = e.renorm(low, rng)
	if coded {
		sigSlot = sigSlot[:len(scan)]
		k := uint(0)
		for i, at := range scan {
			// Most coefficients are zero, and that outcome is the short path:
			// testing it first folds the significance bin's own branch away.
			l, c := lev[at], &ctx[sigSlot[i]]
			if l == 0 {
				low, rng = encodeBin(low, rng, c, false)
				low, rng = e.renorm(low, rng)
				continue
			}
			low, rng = encodeBin(low, rng, c, true)
			low, rng = e.renorm(low, rng)
			a := uint32(max(l, -l))
			low, rng = encodeBin(low, rng, g1, a > 1)
			low, rng = e.renorm(low, rng)
			if a > 1 {
				low, rng = encodeBin(low, rng, g2, a > 2)
				low, rng = e.renorm(low, rng)
			}
			if a > 2 {
				rem := a - 3
				v, n := rem, k
				for v >= 1<<n {
					low, rng = bypassEnc(low, rng, 1)
					low, rng = e.renorm(low, rng)
					v -= 1 << n
					n++
					if n > 30 {
						panic("cabac: exp-Golomb overflow")
					}
				}
				low, rng = bypassEnc(low, rng, 0)
				low, rng = e.renorm(low, rng)
				for ; n > 0; n-- {
					low, rng = bypassEnc(low, rng, v>>(n-1)&1)
					low, rng = e.renorm(low, rng)
				}
				if rem > 3<<k && k < 4 {
					k++
				}
			}
			low, rng = bypassEnc(low, rng, uint32(l)>>31)
			low, rng = e.renorm(low, rng)
		}
	}
	e.low, e.rng = low, rng
}

// BitLenEstimate reports the current output length in bits, including bits
// still buffered in the engine. Useful for measuring actual coded size.
func (e *Encoder) BitLenEstimate() int {
	return (len(e.out) + int(e.cacheSize) + 4) * 8
}

// Decoder is the matching binary arithmetic decoder.
type Decoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

// NewDecoder returns a Decoder over a stream produced by Encoder.Finish.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{rng: 0xFFFFFFFF, in: data}
	// The first output byte is always the initial zero cache; skip it and
	// load 4 code bytes.
	d.pos = 1
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *Decoder) next() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	// Reading past the end returns zeros; a well-formed stream never
	// depends on these bytes for decoded values.
	d.pos++
	return 0
}

// DecodeBit decodes one bin with adaptive context ctx.
func (d *Decoder) DecodeBit(ctx *Context) int {
	bound := d.rng >> probBits * uint32(ctx.p)
	var bin int
	if d.code < bound {
		d.rng = bound
		bin = 0
	} else {
		d.code -= bound
		d.rng -= bound
		bin = 1
	}
	ctx.update(bin)
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
	return bin
}

// DecodeBypass decodes one bypass bin.
func (d *Decoder) DecodeBypass() int {
	d.rng >>= 1
	var bin int
	if d.code >= d.rng {
		d.code -= d.rng
		bin = 1
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
	return bin
}

// DecodeBypassBits decodes n bypass bins MSB-first.
func (d *Decoder) DecodeBypassBits(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v = v<<1 | uint32(d.DecodeBypass())
	}
	return v
}

// The three steps of the decoder's arithmetic on a register copy of the
// engine, for DecodeLevels to inline: DecodeBit is decodeBin then fill,
// DecodeBypass is bypassBin then fill. (The per-bin entry points keep their
// own spelling of it, which is what the differential tests hold these to.)

// decodeBin decodes one bin on ctx, adapting it, and leaves the range to be
// renormalised.
func decodeBin(code, rng uint32, ctx *Context) (uint32, uint32, uint32) {
	p := uint32(ctx.p)
	bound := rng >> probBits * p
	if code < bound {
		ctx.p = uint16(p + (probMax-p)>>adaptRate)
		return code, bound, 0
	}
	ctx.p = uint16(p - p>>adaptRate)
	return code - bound, rng - bound, 1
}

// bypassBin decodes one bypass bin and leaves the range to be renormalised.
func bypassBin(code, rng uint32) (uint32, uint32, uint32) {
	rng >>= 1
	if code >= rng {
		return code - rng, rng, 1
	}
	return code, rng, 0
}

// fill renormalises: while the range is short it shifts in the next byte of
// in — zero past its end, pos counting on — exactly as next does.
func fill(code, rng uint32, pos int, in []byte) (uint32, uint32, int) {
	for rng < topValue {
		rng <<= 8
		code <<= 8
		if pos < len(in) {
			code |= uint32(in[pos])
		}
		pos++
	}
	return code, rng, pos
}

// DecodeLevels decodes one residual level block — the codec's whole
// per-coefficient syntax — in one pass, holding the engine in locals from the
// first significance bin to the last sign and writing it back once.
//
// The syntax: a coded-block flag on cbf; when it is set, for each position i
// of scan a significance bin on ctx[sigSlot[i]], and for a significant
// coefficient a greater-than-1 bin on g1, then a greater-than-2 bin on g2,
// then |level|−3 as an Exp-Golomb escape in bypass bins (DecodeExpGolomb's
// code, its order k adapting upwards with the remainders seen), then the sign
// as one bypass bin. lev (row-major, indexed by scan's entries) is cleared
// first, so a block whose flag is 0 decodes to zeros.
//
// Every bin is the arithmetic of DecodeBit or DecodeBypass on the same
// context in the same order, so the levels, the contexts and the decoder's
// state afterwards are those of one call per bin — bytes read past the end of
// the input included. It reports false, leaving lev and the state unspecified,
// when an escape's prefix is malformed or a magnitude exceeds maxLevel.
func (d *Decoder) DecodeLevels(lev []int32, scan []int, sigSlot []uint8, ctx []Context, cbf, g1, g2 *Context, maxLevel int32) bool {
	clear(lev)
	if d.DecodeBit(cbf) == 0 {
		return true
	}
	code, rng, pos, in := d.code, d.rng, d.pos, d.in
	sigSlot = sigSlot[:len(scan)]
	k := uint(0)
	var bin uint32
	for i, at := range scan {
		// Most coefficients are zero, and that outcome is the short path.
		code, rng, bin = decodeBin(code, rng, &ctx[sigSlot[i]])
		code, rng, pos = fill(code, rng, pos, in)
		if bin == 0 {
			continue
		}
		a := uint32(1)
		code, rng, bin = decodeBin(code, rng, g1)
		code, rng, pos = fill(code, rng, pos, in)
		if bin == 1 {
			a = 2
			code, rng, bin = decodeBin(code, rng, g2)
			code, rng, pos = fill(code, rng, pos, in)
			if bin == 1 {
				var rem uint32
				n := k
				for {
					code, rng, bin = bypassBin(code, rng)
					code, rng, pos = fill(code, rng, pos, in)
					if bin == 0 {
						break
					}
					rem += 1 << n
					n++
					if n > 30 {
						return false
					}
				}
				var suffix uint32
				for ; n > 0; n-- {
					code, rng, bin = bypassBin(code, rng)
					code, rng, pos = fill(code, rng, pos, in)
					suffix = suffix<<1 | bin
				}
				rem += suffix
				if rem > uint32(maxLevel-3) {
					return false
				}
				a = 3 + rem
				if rem > 3<<k && k < 4 {
					k++
				}
			}
		}
		code, rng, bin = bypassBin(code, rng)
		code, rng, pos = fill(code, rng, pos, in)
		s := -int32(bin) // the sign by mask: a coin flip no predictor learns
		lev[at] = (int32(a) ^ s) - s
	}
	d.code, d.rng, d.pos = code, rng, pos
	return true
}

// DecodeExpGolomb reads a k-th order Exp-Golomb code in bypass bins (the HEVC
// coeff_abs_level_remaining binarization), reporting false when its prefix
// runs past any value the format can hold.
func (d *Decoder) DecodeExpGolomb(k uint) (uint32, bool) {
	var v uint32
	for d.DecodeBypass() == 1 {
		v += 1 << k
		k++
		if k > 30 {
			return 0, false
		}
	}
	return v + d.DecodeBypassBits(k), true
}
