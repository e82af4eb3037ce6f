package cabac

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestContextBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bins := make([]int, 10000)
	for i := range bins {
		// Skewed source: mostly zeros, which the context should learn.
		if rng.Float64() < 0.9 {
			bins[i] = 0
		} else {
			bins[i] = 1
		}
	}
	enc := NewEncoder()
	ctx := NewContext(0.5)
	for _, b := range bins {
		enc.EncodeBit(&ctx, b)
	}
	data := enc.Finish()

	dec := NewDecoder(data)
	dctx := NewContext(0.5)
	for i, want := range bins {
		if got := dec.DecodeBit(&dctx); got != want {
			t.Fatalf("bin %d: got %d want %d", i, got, want)
		}
	}
}

func TestSkewedSourceCompresses(t *testing.T) {
	// Entropy of a 95/5 source is ~0.286 bits/bin; the adaptive coder
	// should land well under 0.5 bits/bin.
	rng := rand.New(rand.NewSource(2))
	n := 50000
	enc := NewEncoder()
	ctx := NewContext(0.5)
	for i := 0; i < n; i++ {
		b := 0
		if rng.Float64() < 0.05 {
			b = 1
		}
		enc.EncodeBit(&ctx, b)
	}
	data := enc.Finish()
	bitsPerBin := float64(len(data)*8) / float64(n)
	if bitsPerBin > 0.40 {
		t.Fatalf("skewed source coded at %.3f bits/bin, want < 0.40", bitsPerBin)
	}
	if bitsPerBin < 0.28 {
		t.Fatalf("impossible: below source entropy (%.3f bits/bin)", bitsPerBin)
	}
}

func TestBypassRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint32, 2000)
	widths := make([]uint, 2000)
	enc := NewEncoder()
	for i := range vals {
		widths[i] = uint(rng.Intn(16) + 1)
		vals[i] = rng.Uint32() & (1<<widths[i] - 1)
		enc.EncodeBypassBits(vals[i], widths[i])
	}
	dec := NewDecoder(enc.Finish())
	for i := range vals {
		if got := dec.DecodeBypassBits(widths[i]); got != vals[i] {
			t.Fatalf("val %d: got %d want %d", i, got, vals[i])
		}
	}
}

func TestBypassIsOneBitPerBin(t *testing.T) {
	n := 80000
	rng := rand.New(rand.NewSource(4))
	enc := NewEncoder()
	for i := 0; i < n; i++ {
		enc.EncodeBypass(rng.Intn(2))
	}
	data := enc.Finish()
	bpb := float64(len(data)*8) / float64(n)
	if math.Abs(bpb-1.0) > 0.01 {
		t.Fatalf("bypass bins cost %.4f bits each, want ~1.0", bpb)
	}
}

func TestMixedContextBypassRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type sym struct {
		kind, bin int
		ctxIdx    int
	}
	const nCtx = 8
	var syms []sym
	encCtx := make([]Context, nCtx)
	decCtx := make([]Context, nCtx)
	for i := range encCtx {
		encCtx[i] = NewContext(0.5)
		decCtx[i] = NewContext(0.5)
	}
	enc := NewEncoder()
	for i := 0; i < 30000; i++ {
		if rng.Intn(3) == 0 {
			b := rng.Intn(2)
			syms = append(syms, sym{kind: 1, bin: b})
			enc.EncodeBypass(b)
		} else {
			ci := rng.Intn(nCtx)
			// Each context has a different skew.
			b := 0
			if rng.Float64() < float64(ci)/10+0.05 {
				b = 1
			}
			syms = append(syms, sym{kind: 0, bin: b, ctxIdx: ci})
			enc.EncodeBit(&encCtx[ci], b)
		}
	}
	dec := NewDecoder(enc.Finish())
	for i, s := range syms {
		var got int
		if s.kind == 1 {
			got = dec.DecodeBypass()
		} else {
			got = dec.DecodeBit(&decCtx[s.ctxIdx])
		}
		if got != s.bin {
			t.Fatalf("sym %d: got %d want %d", i, got, s.bin)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, skew8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		skew := float64(skew8%100)/100*0.9 + 0.05
		bins := make([]int, 500)
		for i := range bins {
			if rng.Float64() < skew {
				bins[i] = 1
			}
		}
		enc := NewEncoder()
		ec := NewContext(0.5)
		for _, b := range bins {
			enc.EncodeBit(&ec, b)
		}
		dec := NewDecoder(enc.Finish())
		dc := NewContext(0.5)
		for _, want := range bins {
			if dec.DecodeBit(&dc) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestContextAdaptation(t *testing.T) {
	ctx := NewContext(0.5)
	for i := 0; i < 100; i++ {
		ctx.update(0)
	}
	prob0 := func() float64 { return float64(ctx.p) / probMax }
	if prob0() < 0.9 {
		t.Fatalf("context failed to adapt toward zero: p0=%.3f", prob0())
	}
	for i := 0; i < 200; i++ {
		ctx.update(1)
	}
	if prob0() > 0.1 {
		t.Fatalf("context failed to adapt toward one: p0=%.3f", prob0())
	}
}

func TestEncoderReset(t *testing.T) {
	enc := NewEncoder()
	ctx := NewContext(0.5)
	enc.EncodeBit(&ctx, 1)
	enc.Finish()
	enc.Reset()
	ctx2 := NewContext(0.5)
	enc.EncodeBit(&ctx2, 0)
	enc.EncodeBit(&ctx2, 1)
	dec := NewDecoder(enc.Finish())
	dctx := NewContext(0.5)
	if dec.DecodeBit(&dctx) != 0 || dec.DecodeBit(&dctx) != 1 {
		t.Fatal("reset encoder produced wrong stream")
	}
}

func BenchmarkEncodeBit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	bins := make([]int, 1<<16)
	for i := range bins {
		if rng.Float64() < 0.2 {
			bins[i] = 1
		}
	}
	b.ResetTimer()
	enc := NewEncoder()
	ctx := NewContext(0.5)
	for i := 0; i < b.N; i++ {
		enc.EncodeBit(&ctx, bins[i&(1<<16-1)])
		if i&0xFFFFF == 0xFFFFF {
			enc.Reset() // keep memory bounded
		}
	}
}

func BenchmarkDecodeBit(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	enc := NewEncoder()
	ctx := NewContext(0.5)
	n := 1 << 20
	for i := 0; i < n; i++ {
		bin := 0
		if rng.Float64() < 0.2 {
			bin = 1
		}
		enc.EncodeBit(&ctx, bin)
	}
	data := enc.Finish()
	b.ResetTimer()
	dec := NewDecoder(data)
	dctx := NewContext(0.5)
	for i := 0; i < b.N; i++ {
		dec.DecodeBit(&dctx)
		if i%n == n-1 {
			dec = NewDecoder(data)
			dctx = NewContext(0.5)
		}
	}
}

// decodeLevelsPerBin is DecodeLevels' contract spelled with the per-bin entry
// points: one DecodeBit, DecodeBypass or DecodeExpGolomb call per syntax
// element.
func decodeLevelsPerBin(d *Decoder, lev []int32, scan []int, sigSlot []uint8, ctx []Context, cbf, g1, g2 *Context, maxLevel int32) bool {
	clear(lev)
	if d.DecodeBit(cbf) == 0 {
		return true
	}
	k := uint(0)
	for i, at := range scan {
		if d.DecodeBit(&ctx[sigSlot[i]]) == 0 {
			continue
		}
		a := int32(1)
		if d.DecodeBit(g1) == 1 {
			a = 2
			if d.DecodeBit(g2) == 1 {
				rem, ok := d.DecodeExpGolomb(k)
				if !ok || rem > uint32(maxLevel-3) {
					return false
				}
				a = 3 + int32(rem)
				if rem > 3<<k && k < 4 {
					k++
				}
			}
		}
		if d.DecodeBypass() == 1 {
			a = -a
		}
		lev[at] = a
	}
	return true
}

// TestDecodeLevelsEquivalence: arbitrary bytes are a stream, so no encoder is
// needed to hold the block decode to the per-bin one — same verdict, levels,
// context states and engine registers after every block, over drawn scans and
// slot tables, inputs that end mid-block (zeros past the end, pos counting
// on), and contexts started at both ends of their range, where one bin takes
// the most renormalisation.
func TestDecodeLevelsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const slots = 40
	for trial := 0; trial < 4000; trial++ {
		n := 16 << uint(2*rng.Intn(4))
		scan, sigSlot := rng.Perm(n), make([]uint8, n)
		for i := range sigSlot {
			sigSlot[i] = uint8(rng.Intn(slots))
		}
		data := make([]byte, rng.Intn(3*n/2))
		rng.Read(data)
		if trial%7 == 0 {
			for i := range data {
				data[i] |= 0xF8 // runs of ones: long escapes, prefixes that overflow
			}
		}
		p0 := []float64{0.6, 0.3, 31.0 / probMax, 2017.0 / probMax, 1.0 / probMax}[trial%5]
		var ctxs [2][slots + 3]Context
		for s := range ctxs[0] {
			ctxs[0][s] = NewContext(p0)
		}
		ctxs[1] = ctxs[0]
		decs := [2]*Decoder{NewDecoder(data), NewDecoder(data)}
		levs := [2][]int32{make([]int32, n), make([]int32, n)}
		maxLevel := []int32{1 << 16, 40, 3}[trial%3]
		for block := 0; block < 4; block++ {
			a, b := &ctxs[0], &ctxs[1]
			got := decs[0].DecodeLevels(levs[0], scan, sigSlot, a[:slots], &a[slots], &a[slots+1], &a[slots+2], maxLevel)
			want := decodeLevelsPerBin(decs[1], levs[1], scan, sigSlot, b[:slots], &b[slots], &b[slots+1], &b[slots+2], maxLevel)
			if got != want {
				t.Fatalf("trial %d block %d: DecodeLevels reports %v, per-bin %v", trial, block, got, want)
			}
			if !got {
				break // state is unspecified after a refusal
			}
			for i := range levs[1] {
				if levs[0][i] != levs[1][i] {
					t.Fatalf("trial %d block %d: level [%d] = %d, per-bin %d", trial, block, i, levs[0][i], levs[1][i])
				}
			}
			if *a != *b {
				t.Fatalf("trial %d block %d: context states differ", trial, block)
			}
			if g, w := decs[0], decs[1]; g.code != w.code || g.rng != w.rng || g.pos != w.pos {
				t.Fatalf("trial %d block %d: engine (code %#x rng %#x pos %d), per-bin (code %#x rng %#x pos %d)",
					trial, block, g.code, g.rng, g.pos, w.code, w.rng, w.pos)
			}
		}
	}
}

// encodeLevelsPerBin is EncodeLevels' contract spelled with the per-bin entry
// points: one EncodeBit, EncodeBypass or EncodeBypassBits call per syntax
// element, the escape as the HEVC coeff_abs_level_remaining binarization.
func encodeLevelsPerBin(e *Encoder, lev []int32, scan []int, sigSlot []uint8, ctx []Context, cbf, g1, g2 *Context) {
	coded := slices.ContainsFunc(lev, func(l int32) bool { return l != 0 })
	e.EncodeBit(cbf, b2i(coded))
	if !coded {
		return
	}
	k := uint(0)
	for i, at := range scan {
		l := lev[at]
		e.EncodeBit(&ctx[sigSlot[i]], b2i(l != 0))
		if l == 0 {
			continue
		}
		a := max(l, -l)
		e.EncodeBit(g1, b2i(a > 1))
		if a > 1 {
			e.EncodeBit(g2, b2i(a > 2))
		}
		if a > 2 {
			rem := uint32(a - 3)
			v, n := rem, k
			for v >= 1<<n {
				e.EncodeBypass(1)
				v -= 1 << n
				n++
			}
			e.EncodeBypass(0)
			e.EncodeBypassBits(v, n)
			if rem > 3<<k && k < 4 {
				k++
			}
		}
		e.EncodeBypass(b2i(l < 0))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// drawLevelBlock fills lev (n entries) with one of the block shapes the
// residual syntax meets: all zeros (no coded-block flag), sparse, dense ±1/±2,
// escape-heavy (remainders past 3<<k walk the order up to 4) and a lone level
// up to 2¹⁶.
func drawLevelBlock(rng *rand.Rand, lev []int32, shape int) {
	clear(lev)
	sign := func(a int32) int32 {
		if rng.Intn(2) == 0 {
			return -a
		}
		return a
	}
	switch shape {
	case 0: // cbf 0
	case 1: // sparse
		for range 1 + rng.Intn(4) {
			lev[rng.Intn(len(lev))] = sign(int32(1 + rng.Intn(6)))
		}
	case 2: // dense ±1/±2
		for i := range lev {
			lev[i] = int32(rng.Intn(5)) - 2
		}
	case 3: // escapes, growing so that k adapts to 4
		for i := range lev {
			if rng.Intn(3) != 0 {
				lev[i] = sign(int32(1 + rng.Intn(3+i)))
			}
		}
	case 4: // one large level
		lev[rng.Intn(len(lev))] = sign(int32(1 + rng.Intn(1<<16)))
	}
}

// TestEncodeLevelsEquivalence holds the block encode to the per-bin one: the
// same bytes, context states and engine registers (low, range, cache and its
// pending count) after every block, over drawn scans and slot tables at
// n = 4…32, block shapes from cbf-0 to escapes that walk the order to 4 and
// levels up to 2¹⁶, and contexts started at both ends of their range, where
// one bin takes the most renormalisation. A fixed draw of dense blocks runs
// long enough to carry through pending 0xFF bytes, which the test checks it
// met. Each stream then decodes back to its levels through DecodeLevels.
func TestEncodeLevelsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const slots = 40
	carries := 0
	for trial := 0; trial < 2000; trial++ {
		n := 16 << uint(2*rng.Intn(4))
		scan, sigSlot := rng.Perm(n), make([]uint8, n)
		for i := range sigSlot {
			sigSlot[i] = uint8(rng.Intn(slots))
		}
		p0 := []float64{0.6, 0.3, 1.0 / probMax, 31.0 / probMax, 2017.0 / probMax, 2047.0 / probMax}[trial%6]
		var ctxs [2][slots + 3]Context
		for s := range ctxs[0] {
			ctxs[0][s] = NewContext(p0)
		}
		ctxs[1] = ctxs[0]
		start := ctxs[0]
		encs := [2]*Encoder{NewEncoder(), NewEncoder()}
		blocks := 4
		if trial%50 == 0 {
			blocks = 400 // long dense streams: carries through runs of 0xFF
		}
		var levs [][]int32
		for block := 0; block < blocks; block++ {
			lev := make([]int32, n)
			shape := block % 5
			if blocks > 4 {
				shape = 2
			}
			drawLevelBlock(rng, lev, shape)
			levs = append(levs, lev)
			a, b := &ctxs[0], &ctxs[1]
			encs[0].EncodeLevels(lev, scan, sigSlot, a[:slots], &a[slots], &a[slots+1], &a[slots+2])
			encodeLevelsPerBin(encs[1], lev, scan, sigSlot, b[:slots], &b[slots], &b[slots+1], &b[slots+2])
			if w := encs[1]; w.low>>32 != 0 && w.cacheSize > 1 {
				carries++ // the next block's first shift carries into the cache through cacheSize−1 0xFF bytes
			}
			if *a != *b {
				t.Fatalf("trial %d block %d: context states differ", trial, block)
			}
			g, w := encs[0], encs[1]
			if g.low != w.low || g.rng != w.rng || g.cache != w.cache || g.cacheSize != w.cacheSize {
				t.Fatalf("trial %d block %d: engine (low %#x rng %#x cache %#x pending %d), per-bin (low %#x rng %#x cache %#x pending %d)",
					trial, block, g.low, g.rng, g.cache, g.cacheSize, w.low, w.rng, w.cache, w.cacheSize)
			}
			if !bytes.Equal(g.out, w.out) {
				t.Fatalf("trial %d block %d: %d bytes out, per-bin %d, or they differ", trial, block, len(g.out), len(w.out))
			}
		}
		stream := encs[0].Finish()
		if !bytes.Equal(stream, encs[1].Finish()) {
			t.Fatalf("trial %d: the finished streams differ", trial)
		}
		// The round trip: the stream decodes to its levels, contexts in step.
		d, dctx, got := NewDecoder(stream), start, make([]int32, n)
		for block, lev := range levs {
			if !d.DecodeLevels(got, scan, sigSlot, dctx[:slots], &dctx[slots], &dctx[slots+1], &dctx[slots+2], 1<<16) {
				t.Fatalf("trial %d block %d: DecodeLevels refuses the stream", trial, block)
			}
			for i := range lev {
				if got[i] != lev[i] {
					t.Fatalf("trial %d block %d: level [%d] decodes to %d, encoded %d", trial, block, i, got[i], lev[i])
				}
			}
		}
		if dctx != ctxs[0] {
			t.Fatalf("trial %d: decoder's contexts end differently from the encoder's", trial)
		}
	}
	if carries == 0 {
		t.Fatal("no block ended with a carry pending over 0xFF bytes")
	}
	t.Logf("%d blocks ended with a carry pending over 0xFF bytes", carries)
}
