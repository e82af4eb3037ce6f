package allreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/quant"
)

// SegmentCodec compresses one gradient segment into wire bytes and decodes
// them back. Implementations must be deterministic — identical input values
// must yield identical payload bytes — because the ring's schedule
// independence rests on every receiver decoding the same bytes.
//
// A codec instance is owned by a single ring worker and is never called
// concurrently; stateful codecs (rate controllers, warmup steppers) are
// therefore safe without locks.
type SegmentCodec interface {
	// Encode compresses vals (rows×cols, row-major) for the wire — the ring
	// calls it only for a segment that is about to travel. It returns the
	// payload, the reconstruction the receiver will decode (nil means the
	// codec is lossless and recon == vals), and the accounted wire cost in
	// bits. vals must not be retained. The ring hands payload uncopied to
	// every worker that decodes or forwards it, concurrently, so neither the
	// codec nor anyone else may write it after Encode returns.
	Encode(ctx context.Context, vals []float32, rows, cols int) (payload []byte, recon []float32, bitsCost int64, err error)
	// Decode parses payload into dst (len rows*cols) and must not write
	// payload. Errors are typed with the codec taxonomy and never panic on
	// hostile bytes.
	Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error
}

// CodecFactory builds one SegmentCodec per ring worker, so stateful codecs
// get private state. The worker index is provided for codecs that want
// per-worker determinism (it must not feed randomness).
type CodecFactory func(worker int) SegmentCodec

// Stepper is implemented by codecs with per-training-step state (warmup
// counters). The ring forwards AdvanceStep to every worker's codec.
type Stepper interface{ AdvanceStep() }

// blockCodec is implemented by codecs that code whole blocks of blockRows
// rows and pad a shorter segment up to one: a 13-row segment of a 32-row-block
// codec spends 59 % of its coded area, and its rate, on padding. New rounds
// the default segment height up to a multiple of blockRows; an explicit
// Config.SegRows is taken as given.
type blockCodec interface{ blockRows() int }

// rawBitsPerValue is the accounted cost of an uncompressed value. The wire
// carries float32 for bit-exactness with the in-process baseline, but the
// modeled link is FP16, so comparisons against compressed schemes are fair.
const rawBitsPerValue = 16

// --- raw (uncompressed FP16-accounted) ---

type rawCodec struct{}

// RawCodec returns the lossless pass-through codec: float32 little-endian
// payloads accounted at 16 bits/value. With this codec the ring is
// bit-identical to the sequential reduction, which is the anchor property
// of the whole harness.
func RawCodec() CodecFactory {
	return func(int) SegmentCodec { return rawCodec{} }
}

func (rawCodec) Encode(_ context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	if len(vals) != rows*cols {
		return nil, nil, 0, fmt.Errorf("allreduce: raw encode %d values for %dx%d", len(vals), rows, cols)
	}
	payload := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(v))
	}
	return payload, nil, int64(rawBitsPerValue) * int64(len(vals)), nil
}

func (rawCodec) Decode(_ context.Context, payload []byte, rows, cols int, dst []float32) error {
	n := rows * cols
	if len(payload) != 4*n {
		return fmt.Errorf("allreduce: raw payload %d bytes for %d values: %w", len(payload), n, codec.ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return nil
}

// --- tensor (the real LLM.265 path) ---

type tensorCodec struct {
	opts core.Options
	qp   int
}

// TensorCodec compresses each segment through the real core/codec pipeline
// (DCT, intra prediction, the configured entropy backend) at a fixed QP,
// shipping the marshaled .l265 container as the payload. This is the
// paper's compressed-gradient path (§5.2) running on live wire traffic.
func TensorCodec(opts core.Options, qp int) CodecFactory {
	return func(int) SegmentCodec { return &tensorCodec{opts: opts, qp: qp} }
}

// blockRows is the CTU height planes are padded to (see blockCodec).
func (c *tensorCodec) blockRows() int { return c.opts.Profile.CTUSize() }

func (c *tensorCodec) Encode(ctx context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	t := core.FromSlice(rows, cols, vals)
	enc, rec, err := c.opts.EncodeStackRecon(ctx, []*core.Tensor{t}, c.qp)
	if err != nil {
		return nil, nil, 0, err
	}
	return enc.Marshal(), rec[0].Data, int64(enc.SizeBits()), nil
}

func (c *tensorCodec) Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error {
	enc, err := core.UnmarshalEncoded(payload)
	if err != nil {
		return err
	}
	if enc.Layers != 1 || enc.Rows != rows || enc.Cols != cols {
		return fmt.Errorf("allreduce: container geometry %dx%dx%d for a %dx%d segment: %w",
			enc.Layers, enc.Rows, enc.Cols, rows, cols, codec.ErrCorrupt)
	}
	dec, err := c.opts.DecodeStackCtx(ctx, enc)
	if err != nil {
		return err
	}
	copy(dst, dec[0].Data)
	return nil
}

// --- rate (the tensor codec steered to a bits/value target) ---

type rateCodec struct {
	tensorCodec
	// level is the quantiser step the codec holds across a step's segments,
	// as the QP a segment of unit range gets; a segment of range s is coded
	// at level − 6·log₂ s. Unset until the first AdvanceStep. It, target
	// (log₂ of the bits/value target) and widest are in dct.Log2Fixed's
	// units: the QP law is integer arithmetic, the same on every platform.
	level, target int64
	primed        bool
	// This training step's encodes, consumed by AdvanceStep.
	bits, vals int64
	widest     int64 // log₂ of the widest segment range; noSpan before one
}

const noSpan = math.MinInt64

// rateStartQP is every segment's QP during the first training step: the
// middle of the QP range, from which the 6-QP-per-octave moves below reach
// any target in a few steps. It cannot come from the data — a first-encode
// bisection would make the trajectory depend on which segment a worker
// encodes first.
const rateStartQP = dct.MaxQP / 2

// RateCodec is TensorCodec steered to bitsPerValue: the same payload, with
// the quantiser step held constant within a training step and moved only in
// AdvanceStep, from the step's summed bits ÷ summed values.
//
// What it holds constant is the step in gradient units, not the QP: the
// tensor codec maps each tensor's own range onto 8 bits, so one QP on every
// segment would quantise a segment of small gradients as finely, relative to
// its range, as the segment holding the embedding's — and spend most of the
// budget there. Compressing the whole bucket as one tensor shares one 8-bit
// scale; lowering a segment's QP by 6 per doubling of its range is the same
// quantiser, segment by segment (DESIGN.md §17.3).
//
// The sums are integers and the range a maximum, so the trajectory — hence
// every payload byte — is independent of ScheduleSeed and segment encode
// order; a controller that adapted per Encode call would not be. It is the
// paper's data-parallel configuration (§5.2): no warm-up, no optimizer change.
func RateCodec(opts core.Options, bitsPerValue float64) CodecFactory {
	if !(bitsPerValue > 0) {
		panic(fmt.Sprintf("allreduce: rate target %g bits/value must be positive", bitsPerValue))
	}
	target := log2Fixed(min(bitsPerValue, math.MaxFloat64)) // +Inf is a target past reach, as before
	return func(int) SegmentCodec {
		return &rateCodec{tensorCodec: tensorCodec{opts: opts}, target: target, widest: noSpan}
	}
}

// log2Fixed is dct.Log2Fixed of a finite v > 0: math.Frexp's exponent, exact,
// plus the log of the 53-bit mantissa.
func log2Fixed(v float64) int64 {
	frac, exp := math.Frexp(v)
	return dct.Log2Fixed(uint64(math.Ldexp(frac, 53))) + int64(exp-53)<<dct.Log2Frac
}

// log2Span is log₂ of the range quant.ToUint8 maps onto [0, 255], or noSpan.
func log2Span(vals []float32) int64 {
	lo, hi := quant.MinMax(vals)
	if lo == hi {
		return noSpan
	}
	return log2Fixed(float64(hi) - float64(lo))
}

func (c *rateCodec) Encode(ctx context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	span := log2Span(vals)
	c.widest = max(c.widest, span)
	switch {
	case !c.primed:
		c.qp = rateStartQP
	case span == noSpan: // a constant segment codes to nothing at any QP
		c.qp = dct.MaxQP
	default:
		const half = 1 << (dct.Log2Frac - 1)
		c.qp = int(min(max((c.level-6*span+half)>>dct.Log2Frac, 0), dct.MaxQP))
	}
	payload, recon, cost, err := c.tensorCodec.Encode(ctx, vals, rows, cols)
	if err == nil {
		c.bits += cost
		c.vals += int64(len(vals))
	}
	return payload, recon, cost, err
}

// AdvanceStep moves the level toward the target: by 6·log₂ r for a step that
// ran at r× the target, one doubling of Qstep per octave of rate error. The
// first call anchors the level at rateStartQP on the widest segment seen. The
// level is kept where that segment's QP stays in range, so an unreachable
// target cannot wind it up.
func (c *rateCodec) AdvanceStep() {
	if c.vals > 0 && c.widest != noSpan {
		widest := 6 * c.widest
		if !c.primed {
			c.level, c.primed = rateStartQP<<dct.Log2Frac+widest, true
		}
		c.level += 6 * (dct.Log2Fixed(uint64(c.bits)) - dct.Log2Fixed(uint64(c.vals)) - c.target)
		c.level = min(max(c.level, widest), widest+dct.MaxQP<<dct.Log2Frac)
	}
	c.bits, c.vals, c.widest = 0, 0, noSpan
}

// --- RTN (group-wise round-to-nearest baseline) ---

type rtnCodec struct {
	bits  int
	group int
}

// RTNCodec returns the group-wise asymmetric round-to-nearest codec: per
// group a float32 lo/hi pair plus bit-packed level codes, both produced by
// quant.RTNGroup. Accounted cost is the packed payload — bits·n plus 32 bits
// of range metadata per group, the formula quant.RTNGroupwise reports.
func RTNCodec(bitWidth, groupSize int) CodecFactory {
	if bitWidth < 1 || bitWidth > 16 {
		panic(fmt.Sprintf("allreduce: RTN bits %d out of range", bitWidth))
	}
	if groupSize < 1 || groupSize > math.MaxUint16 {
		panic(fmt.Sprintf("allreduce: RTN groupSize %d out of range (the payload header carries it as a u16)", groupSize))
	}
	return func(int) SegmentCodec { return &rtnCodec{bits: bitWidth, group: groupSize} }
}

// rtnHeaderLen prefixes the packed codes with the quantizer geometry so the
// decoder validates the payload against the segment's geometry: bits(1) group
// size(u16) then per group lo,hi float32.
const rtnHeaderLen = 3

func (c *rtnCodec) Encode(_ context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	n := rows * cols
	if len(vals) != n {
		return nil, nil, 0, fmt.Errorf("allreduce: rtn encode %d values for %dx%d", len(vals), rows, cols)
	}
	recon := make([]float32, n)
	codes := make([]uint16, c.group)
	w := bits.NewWriter()
	var head []byte
	head = append(head, byte(c.bits))
	head = binary.LittleEndian.AppendUint16(head, uint16(c.group))
	groups := 0
	for start := 0; start < n; start += c.group {
		end := start + c.group
		if end > n {
			end = n
		}
		groups++
		lo, hi := quant.RTNGroup(vals[start:end], c.bits, codes, recon[start:end])
		head = binary.LittleEndian.AppendUint32(head, math.Float32bits(lo))
		head = binary.LittleEndian.AppendUint32(head, math.Float32bits(hi))
		for _, q := range codes[:end-start] {
			w.WriteBits(uint64(q), uint(c.bits))
		}
	}
	payload := append(head, w.Bytes()...)
	cost := int64(c.bits)*int64(n) + 32*int64(groups)
	return payload, recon, cost, nil
}

func (c *rtnCodec) Decode(_ context.Context, payload []byte, rows, cols int, dst []float32) error {
	n := rows * cols
	if len(payload) < rtnHeaderLen {
		return fmt.Errorf("allreduce: rtn payload %d bytes: %w", len(payload), codec.ErrTruncated)
	}
	bitWidth := int(payload[0])
	group := int(binary.LittleEndian.Uint16(payload[1:]))
	if bitWidth < 1 || bitWidth > 16 || group < 1 {
		return fmt.Errorf("allreduce: rtn geometry bits=%d group=%d: %w", bitWidth, group, codec.ErrCorrupt)
	}
	groups := (n + group - 1) / group
	rangeLen := 8 * groups
	codeLen := (bitWidth*n + 7) / 8
	want := rtnHeaderLen + rangeLen + codeLen
	if len(payload) < want {
		return fmt.Errorf("allreduce: rtn payload %d bytes, need %d: %w", len(payload), want, codec.ErrTruncated)
	}
	if len(payload) > want {
		return fmt.Errorf("allreduce: rtn payload %d trailing bytes: %w", len(payload)-want, codec.ErrCorrupt)
	}
	ranges := payload[rtnHeaderLen : rtnHeaderLen+rangeLen]
	r := bits.NewReader(payload[rtnHeaderLen+rangeLen:])
	levels := float64(int64(1)<<bitWidth) - 1
	for g := 0; g < groups; g++ {
		lo := math.Float32frombits(binary.LittleEndian.Uint32(ranges[8*g:]))
		hi := math.Float32frombits(binary.LittleEndian.Uint32(ranges[8*g+4:]))
		if !finite32(lo) || !finite32(hi) || hi < lo {
			return fmt.Errorf("allreduce: rtn group %d range [%g,%g]: %w", g, lo, hi, codec.ErrCorrupt)
		}
		start, end := g*group, (g+1)*group
		if end > n {
			end = n
		}
		scale := (float64(hi) - float64(lo)) / levels
		for i := start; i < end; i++ {
			q, err := r.ReadBits(uint(bitWidth))
			if err != nil {
				return fmt.Errorf("allreduce: rtn codes: %w", codec.ErrTruncated)
			}
			if hi == lo {
				dst[i] = lo
				continue
			}
			dst[i] = float32(float64(lo) + float64(float64(q)*scale))
		}
	}
	return nil
}

// --- sign (1-bit with warmup, the 1-bit Adam baseline) ---

type signCodec struct {
	warmup int
	step   int
}

// SignCodec returns the 1-bit compressor used by the 1-bit Adam/LAMB
// baseline: the first warmupSteps training steps pass gradients through
// uncompressed (the variance-warmup phase), after which each segment is
// sign(v)·mean|v|. It implements Stepper; the ring advances it once per
// Allreduce call.
func SignCodec(warmupSteps int) CodecFactory {
	return func(int) SegmentCodec { return &signCodec{warmup: warmupSteps} }
}

func (c *signCodec) AdvanceStep()   { c.step++ }
func (c *signCodec) inWarmup() bool { return c.step < c.warmup }

const (
	signPhaseWarmup = 0x00
	signPhaseSign   = 0x01
)

func (c *signCodec) Encode(_ context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	n := rows * cols
	if len(vals) != n {
		return nil, nil, 0, fmt.Errorf("allreduce: sign encode %d values for %dx%d", len(vals), rows, cols)
	}
	if c.inWarmup() {
		payload := make([]byte, 1+4*n)
		payload[0] = signPhaseWarmup
		for i, v := range vals {
			binary.LittleEndian.PutUint32(payload[1+4*i:], math.Float32bits(v))
		}
		return payload, nil, int64(rawBitsPerValue) * int64(n), nil
	}
	var sum float64
	for _, v := range vals {
		sum += math.Abs(quant.Sanitize(v))
	}
	mean := float32(sum / float64(n))
	payload := make([]byte, 1+4+(n+7)/8)
	payload[0] = signPhaseSign
	binary.LittleEndian.PutUint32(payload[1:], math.Float32bits(mean))
	recon := make([]float32, n)
	for i, v := range vals {
		if v < 0 {
			recon[i] = -mean
		} else {
			recon[i] = mean
			payload[5+i/8] |= 1 << (7 - i%8)
		}
	}
	// 1 bit per value plus one float32 scale per segment.
	return payload, recon, int64(n) + 32, nil
}

func (c *signCodec) Decode(_ context.Context, payload []byte, rows, cols int, dst []float32) error {
	n := rows * cols
	if len(payload) < 1 {
		return fmt.Errorf("allreduce: sign payload empty: %w", codec.ErrTruncated)
	}
	switch payload[0] {
	case signPhaseWarmup:
		if len(payload) != 1+4*n {
			return fmt.Errorf("allreduce: sign warmup payload %d bytes for %d values: %w", len(payload), n, codec.ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[1+4*i:]))
		}
		return nil
	case signPhaseSign:
		want := 1 + 4 + (n+7)/8
		if len(payload) != want {
			return fmt.Errorf("allreduce: sign payload %d bytes, want %d: %w", len(payload), want, codec.ErrCorrupt)
		}
		mean := math.Float32frombits(binary.LittleEndian.Uint32(payload[1:]))
		if !finite32(mean) || mean < 0 {
			return fmt.Errorf("allreduce: sign scale %g: %w", mean, codec.ErrCorrupt)
		}
		packed := payload[5:]
		for i := 0; i < n; i++ {
			if packed[i/8]&(1<<(7-i%8)) != 0 {
				dst[i] = mean
			} else {
				dst[i] = -mean
			}
		}
		return nil
	default:
		return fmt.Errorf("allreduce: sign phase byte %#x: %w", payload[0], codec.ErrCorrupt)
	}
}

func finite32(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
