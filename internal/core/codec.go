package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/quant"
)

// Options configures the tensor codec.
type Options struct {
	Profile codec.Profile
	Tools   codec.Tools
	// MaxFrameW/H bound the frames a tensor is chunked into (the NVENC
	// frame-size limit, §3.2). Values above the profile limit are clamped.
	MaxFrameW, MaxFrameH int
	// PerRowQuant applies the 8-bit affine mapping per row instead of per
	// tensor. Per-tensor (the default) preserves the channel-wise image
	// structure intra prediction exploits; per-row trades that for finer
	// quantization and suits outlier-heavy activations.
	PerRowQuant bool
	// Backend selects the codec's entropy backend: codec.BackendCABAC (the
	// zero value — adaptive arithmetic coding, byte-pinned by the golden
	// corpus) or codec.BackendRANS (interleaved static rANS over a shared
	// table, decoding with intra-chunk parallelism). rANS streams always use
	// the hardened v3 container regardless of Checksum. Decode needs no
	// option: the backend is read from the stream header.
	Backend codec.EntropyBackend
	// Workers sizes the parallel engine's worker pool for both encode and
	// decode: each plane of a stack is an independent intra-only slice, so
	// planes are encoded concurrently (mirroring the multiple NVENC/NVDEC
	// engines). 0 (the default) selects runtime.GOMAXPROCS(0); 1 forces
	// serial operation. Output bytes are identical for every worker count —
	// the chunked container is stitched in plane order.
	Workers int
	// Checksum emits the hardened version-3 codec container: CRC32C over
	// the header and over every chunk payload, verified on decode. Costs 4
	// bytes per chunk plus 4 header bytes; buys detection of any bit-rot in
	// transit or at rest, and enables DecodeStackPartialCtx to identify exactly
	// which chunks of a damaged stream are still trustworthy. Off by
	// default so existing streams stay byte-identical.
	Checksum bool
	// Index implies Checksum and means nothing else. It stays only because
	// benchmark/surface.go sets it; the next benchmark change drops it.
	Index bool
	// Metrics, when non-nil, collects the whole stack's observability
	// signals into one registry: per-stage codec encode/decode timings and
	// bit accounts, worker-pool utilization, the decode-error taxonomy, and
	// the core layer's own rollups (core.encode_stack / core.decode_stack
	// spans, quantize/dequantize stage times, layer and value counters,
	// rate-control probe counts). Nil (the default) disables every record
	// site at the cost of a single pointer check — see DESIGN.md §10.
	Metrics *obs.Registry
}

// DefaultOptions returns the paper's shipping configuration: H.265 profile
// (most widely available, highest throughput — §4.1.1), intra-only tools.
func DefaultOptions() Options {
	return Options{
		Profile:   codec.HEVC,
		Tools:     codec.AllTools,
		MaxFrameW: 1024,
		MaxFrameH: 1024,
	}
}

// normalized fills the defaults and clamps the frame bounds to the profile's
// limit. An out-of-range profile has no limit, so it is refused here, before
// any frame geometry is derived from it.
func (o Options) normalized() (Options, error) {
	limit := o.Profile.MaxFrameDim()
	if limit == 0 {
		return o, fmt.Errorf("core: unknown profile %d", o.Profile)
	}
	if o.MaxFrameW <= 0 {
		o.MaxFrameW = 1024
	}
	if o.MaxFrameH <= 0 {
		o.MaxFrameH = 1024
	}
	o.MaxFrameW = min(o.MaxFrameW, limit)
	o.MaxFrameH = min(o.MaxFrameH, limit)
	if o.Backend != codec.BackendCABAC {
		// The backend rides on the codec-layer carrier (Tools) so every
		// encode entry point (EncodeStackCtx and both rate-control searches)
		// honors it.
		o.Tools.Backend = o.Backend
	}
	if o.Index {
		o.Checksum = true
	}
	return o, nil
}

// Encoded is a compressed tensor stack: the codec bitstream plus the affine
// dequantization metadata. Its size accounting includes that metadata, so
// BitsPerValue reflects true storage cost.
type Encoded struct {
	Layers, Rows, Cols   int
	PerRow               bool
	MaxFrameW, MaxFrameH int
	QP                   int
	Stream               []byte
	Scales, Zeros        []float32 // per layer, or per layer×row when PerRow
	// Stats carries the codec's per-encode statistics (pixel-domain MSE,
	// bits per pixel, chunk count) so callers can measure distortion
	// without a decode pass. In-memory only: Marshal does not serialize it,
	// so it is zero on containers read back via UnmarshalEncoded.
	Stats codec.Stats
}

// SizeBits reports the total compressed size in bits, metadata included.
func (e *Encoded) SizeBits() int {
	return len(e.Stream)*8 + 32*(len(e.Scales)+len(e.Zeros)) + 14*8 // fixed header
}

// BitsPerValue reports SizeBits divided by the element count.
func (e *Encoded) BitsPerValue() float64 {
	return float64(e.SizeBits()) / float64(e.Layers*e.Rows*e.Cols)
}

// EncodeStackCtx compresses a stack of equally-shaped layer tensors as one
// multi-frame sequence at the given QP (the paper's footnote-1 construction:
// layer index as the temporal axis, luma only). The codec observes ctx
// cancellation at pool, chunk and CTU granularity (DESIGN.md §12) and the
// call then returns ctx.Err() promptly with no output; the bytes do not
// depend on ctx.
func (o Options) EncodeStackCtx(ctx context.Context, stack []*Tensor, qp int) (*Encoded, error) {
	p, err := o.encodeStack(ctx, stack, qp)
	return p.Encoded, err
}

// EncodeStackRecon is EncodeStackCtx that also returns what a receiver will
// decode: the encoder's own reconstruction planes (codec.Encode's third
// result) dequantised through the dequantLayer DecodeStackCtx uses, so the
// tensors are DecodeStackCtx(UnmarshalEncoded(enc.Marshal()))'s bit for bit
// without a decoder having run (TestEncodeStackReconIsDecode). Error feedback
// and residual compensation (§5) need exactly this pair. The reconstruction is
// the caller's; the Encoded holds no reference to it.
func (o Options) EncodeStackRecon(ctx context.Context, stack []*Tensor, qp int) (*Encoded, []*Tensor, error) {
	p, err := o.encodeStack(ctx, stack, qp)
	if err != nil {
		return nil, nil, err
	}
	return p.Encoded, p.recon(), nil
}

// encoding is an encode beside the codec's reconstruction of its planes: what
// encodeStack yields and a rate-control search memoises, 8 bits a value on top
// of the stream for as long as someone holds it — which is why it never
// leaves the package and Encoded has no such field.
type encoding struct {
	*Encoded
	planes []*frame.Plane
}

// recon dequantises the planes into the tensors a decode of the stream gives.
func (p encoding) recon() []*Tensor { return p.dequantStack(p.planes, p.regions()) }

// encodeStack is the body of EncodeStackCtx and EncodeStackRecon.
func (o Options) encodeStack(ctx context.Context, stack []*Tensor, qp int) (encoding, error) {
	o, err := o.normalized()
	if err != nil {
		return encoding{}, err
	}
	// Zero-value stacks are rejected here, before any rate-control search
	// can probe them: bits-per-value over zero values is 0/0 = NaN, and a
	// bisection comparing against NaN walks silently to one end of the QP
	// range instead of failing.
	if len(stack) == 0 {
		return encoding{}, fmt.Errorf("core: empty stack: %w", ErrEmptyInput)
	}
	for i, t := range stack {
		if t == nil || t.Rows <= 0 || t.Cols <= 0 {
			return encoding{}, fmt.Errorf("core: stack layer %d has no values: %w", i, ErrEmptyInput)
		}
	}
	rows, cols := stack[0].Rows, stack[0].Cols
	for _, t := range stack {
		if t.Rows != rows || t.Cols != cols {
			return encoding{}, fmt.Errorf("core: stack shapes differ: %dx%d vs %dx%d", t.Rows, t.Cols, rows, cols)
		}
	}
	enc := &Encoded{
		Layers: len(stack), Rows: rows, Cols: cols,
		PerRow:    o.PerRowQuant,
		MaxFrameW: o.MaxFrameW, MaxFrameH: o.MaxFrameH,
		QP: qp,
	}
	span := o.Metrics.StartSpan("core.encode_stack")
	quantSpan := span.Child("quantize")
	var planes []*frame.Plane
	for _, t := range stack {
		var pix []uint8
		if o.PerRowQuant {
			pix = make([]uint8, rows*cols)
			for r := 0; r < rows; r++ {
				rowPix, s, z := quant.ToUint8(t.Data[r*cols : (r+1)*cols])
				copy(pix[r*cols:(r+1)*cols], rowPix)
				enc.Scales = append(enc.Scales, s)
				enc.Zeros = append(enc.Zeros, z)
			}
		} else {
			p, s, z := quant.ToUint8(t.Data)
			pix = p
			enc.Scales = append(enc.Scales, s)
			enc.Zeros = append(enc.Zeros, z)
		}
		planes = append(planes, frame.FromMatrix(pix, rows, cols, o.MaxFrameW, o.MaxFrameH)...)
	}
	quantSpan.End()
	cfg := codec.EncodeConfig{QP: qp, Profile: o.Profile, Tools: o.Tools, Workers: o.Workers, Metrics: o.Metrics}
	if o.Checksum {
		cfg.Container = codec.ContainerV3
	}
	stream, st, recs, err := codec.Encode(ctx, planes, cfg)
	if err != nil {
		return encoding{}, err
	}
	enc.Stream = stream
	enc.Stats = st
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.encode.layers", int64(enc.Layers))
		o.Metrics.Add("core.encode.values", int64(enc.Layers)*int64(rows)*int64(cols))
		o.Metrics.Add("core.encode.stream_bits", int64(len(stream))*8)
		o.Metrics.Add("core.encode.metadata_bits", int64(enc.SizeBits()-len(stream)*8))
	}
	return encoding{enc, recs}, nil
}

// Error taxonomy of the decode path, re-exported from the codec layer so
// serving code can switch on failure class without importing internals:
// ErrTruncated (stream ends early — retry the fetch), ErrChecksum (v3 CRC
// mismatch — refetch the damaged bytes), ErrCorrupt (anything else
// structurally wrong — alert). All decode entry points return errors
// matching one of these under errors.Is and never panic on hostile input.
var (
	ErrCorrupt   = codec.ErrCorrupt
	ErrTruncated = codec.ErrTruncated
	ErrChecksum  = codec.ErrChecksum
)

// ErrEmptyInput reports an encode request over zero values — an empty stack,
// a nil tensor, or a tensor with a zero dimension. EncodeStackCtx rejects
// these up front, so EncodeStackToBitrate/EncodeStackToMSE (which probe
// through it) fail on their first probe instead of bisecting on NaN.
var ErrEmptyInput = codec.ErrEmptyInput

// validate checks an Encoded's metadata for internal consistency before any
// geometry-driven allocation: positive dims, positive frame bounds, and a
// scale/zero table sized exactly for the declared quantization mode. It is
// the gate that makes a forged container an error instead of a panic or an
// absurd allocation.
func (e *Encoded) validate() error {
	if e.Layers <= 0 || e.Rows <= 0 || e.Cols <= 0 {
		return fmt.Errorf("core: bad dimensions %dx%dx%d: %w", e.Layers, e.Rows, e.Cols, ErrCorrupt)
	}
	if e.MaxFrameW <= 0 || e.MaxFrameH <= 0 {
		return fmt.Errorf("core: bad frame bounds %dx%d: %w", e.MaxFrameW, e.MaxFrameH, ErrCorrupt)
	}
	// Allocation caps: a layer's matrix and the band/slab region table are
	// sized from header fields alone, so bound them before anything is made.
	// The per-layer pixel cap mirrors codec.maxDecodePixels; the plane cap
	// mirrors the codec container's 2^20 frame-count limit, which any
	// decodable stream must satisfy anyway.
	if int64(e.Rows)*int64(e.Cols) > 1<<28 {
		return fmt.Errorf("core: layer of %dx%d pixels exceeds cap: %w", e.Rows, e.Cols, ErrCorrupt)
	}
	nRegions := int64((e.Rows-1)/e.MaxFrameH+1) * int64((e.Cols-1)/e.MaxFrameW+1)
	if int64(e.Layers)*nRegions > 1<<20 {
		return fmt.Errorf("core: %d layers × %d planes exceeds cap: %w", e.Layers, nRegions, ErrCorrupt)
	}
	want := e.Layers
	if e.PerRow {
		if e.Rows > (1<<31-1)/e.Layers {
			return fmt.Errorf("core: per-row metadata count overflows: %w", ErrCorrupt)
		}
		want = e.Layers * e.Rows
	}
	if len(e.Scales) != want || len(e.Zeros) != want {
		return fmt.Errorf("core: metadata count %d/%d, want %d: %w",
			len(e.Scales), len(e.Zeros), want, ErrCorrupt)
	}
	return nil
}

// regions returns the per-layer band/slab partition of the tensor matrix;
// region i corresponds to plane l*len(regions)+i of the decoded stream.
func (e *Encoded) regions() []frame.Region {
	return frame.Regions(e.Rows, e.Cols, e.MaxFrameW, e.MaxFrameH)
}

// checkPlaneGeometry verifies that the planes decoded for a run of layers
// match the geometry the metadata declares, so matrix reassembly cannot index
// or panic on a mismatched stream. Nil planes (partial decode) are skipped.
func checkPlaneGeometry(planes []*frame.Plane, regs []frame.Region, layers int) error {
	if len(planes) != layers*len(regs) {
		return fmt.Errorf("core: stream decodes to %d planes, metadata wants %d×%d: %w",
			len(planes), layers, len(regs), ErrCorrupt)
	}
	for i, p := range planes {
		if p == nil {
			continue
		}
		reg := regs[i%len(regs)]
		if p.W != reg.W || p.H != reg.H {
			return fmt.Errorf("core: plane %d is %dx%d, metadata wants %dx%d: %w",
				i, p.W, p.H, reg.W, reg.H, ErrCorrupt)
		}
	}
	return nil
}

// dequantLayer assembles layer l from its planes (entries may be nil under
// partial decode), dequantizing recovered regions and leaving damaged
// regions at the zero-fill value 0.0. It reports how many of the layer's
// planes were missing.
//
// Values are written straight into the tensor. A layer with one (scale, zero)
// pair goes through a table of the 256 values quant.FromUint8 gives the 256
// pixels — the same function evaluated once per pixel value instead of once
// per element; per-row metadata has a table's worth of rows, so those rows
// are evaluated in place.
func (e *Encoded) dequantLayer(l int, layerPlanes []*frame.Plane, regs []frame.Region) (*Tensor, int) {
	t := NewTensor(e.Rows, e.Cols)
	var table [256]float32
	if !e.PerRow {
		quant.FromUint8Into(table[:], pixelValues[:], e.Scales[l], e.Zeros[l])
	}
	missing := 0
	for i, reg := range regs {
		p := layerPlanes[i]
		if p == nil {
			missing++
			continue
		}
		for y := 0; y < reg.H; y++ {
			row := reg.Y0 + y
			dst := t.Data[row*e.Cols+reg.X0:][:reg.W]
			if e.PerRow {
				quant.FromUint8Into(dst, p.Row(y), e.Scales[l*e.Rows+row], e.Zeros[l*e.Rows+row])
				continue
			}
			for x, pix := range p.Row(y) {
				dst[x] = table[pix]
			}
		}
	}
	return t, missing
}

// dequantStack is dequantLayer over every layer of a fully decoded stack — the
// decoder's planes in DecodeStackCtx, the encoder's in EncodeStackRecon.
func (e *Encoded) dequantStack(planes []*frame.Plane, regs []frame.Region) []*Tensor {
	out := make([]*Tensor, e.Layers)
	for l := range out {
		out[l], _ = e.dequantLayer(l, planes[l*len(regs):(l+1)*len(regs)], regs)
	}
	return out
}

// pixelValues is every pixel value in order: dequantLayer's table is
// quant.FromUint8 of it.
var pixelValues = func() (v [256]uint8) {
	for i := range v {
		v[i] = uint8(i)
	}
	return v
}()

// decodePlanes is the one decode preamble, shared by DecodeStackCtx,
// DecodeLayerCtx and DecodeStackPartialCtx: validate the metadata, decode the
// planes of layers [first, first+count) — leniently under partial, where
// failed chunks come back as nil planes and Decoded.Errors — and hold what the
// stream decoded to against what the metadata declares: the plane geometry.
// It starts the call's span (the caller ends it once the tensors exist) and is
// the one place core.decode.errors is counted: once per failed call,
// cancellations excepted — a caller that walked away says nothing about the
// bytes, and codec.decode.errors.canceled already counts it.
func (o Options) decodePlanes(ctx context.Context, e *Encoded, spanName string, first, count int, partial bool) (*codec.Decoded, []frame.Region, obs.Span, error) {
	fail := func(err error) (*codec.Decoded, []frame.Region, obs.Span, error) {
		if !codec.IsCancellation(err) {
			o.Metrics.Add("core.decode.errors", 1)
		}
		return nil, nil, obs.Span{}, err
	}
	if err := e.validate(); err != nil {
		return fail(err)
	}
	if first < 0 || first > e.Layers-count {
		// A caller bug, not a property of the bytes: outside the taxonomy.
		return nil, nil, obs.Span{}, fmt.Errorf("core: layer %d out of range for %d-layer stack", first, e.Layers)
	}
	span := o.Metrics.StartSpan(spanName)
	regs := e.regions()
	cfg := codec.DecodeConfig{Workers: o.Workers, Metrics: o.Metrics, Partial: partial}
	if count < e.Layers {
		// A plane window. codec.Decode reports a window outside the container
		// as a caller bug, so a stream with fewer planes than the metadata
		// claims has to be caught — as ErrCorrupt — before the window is asked
		// for; a whole-stack decode learns the same from the planes it gets.
		lay, err := codec.Layout(e.Stream)
		if err != nil {
			return fail(err)
		}
		if lay.Planes != e.Layers*len(regs) {
			return fail(fmt.Errorf("core: stream decodes to %d planes, metadata wants %d×%d: %w",
				lay.Planes, e.Layers, len(regs), ErrCorrupt))
		}
		cfg.First, cfg.Count = first*len(regs), count*len(regs)
	}
	dec, err := codec.Decode(ctx, e.Stream, cfg)
	if err != nil {
		return fail(err)
	}
	if err := checkPlaneGeometry(dec.Planes, regs, count); err != nil {
		return fail(err)
	}
	return dec, regs, span, nil
}

// DecodeStackCtx reconstructs the tensor stack from an Encoded, decoding
// independent bitstream chunks concurrently per o.Workers. It fails on the
// first damaged chunk (see DecodeStackPartialCtx for best-effort recovery);
// cancellation aborts the remaining chunk decodes and returns ctx.Err(),
// never wrapped into the decode-error taxonomy (codec.IsCancellation).
func (o Options) DecodeStackCtx(ctx context.Context, e *Encoded) ([]*Tensor, error) {
	dec, regs, span, err := o.decodePlanes(ctx, e, "core.decode_stack", 0, e.Layers, false)
	if err != nil {
		return nil, err
	}
	dequantSpan := span.Child("dequantize")
	out := e.dequantStack(dec.Planes, regs)
	dequantSpan.End()
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.decode.layers", int64(e.Layers))
		o.Metrics.Add("core.decode.values", int64(e.Layers)*int64(e.Rows)*int64(e.Cols))
	}
	return out, nil
}

// ErrBadTarget reports a rate-control target no search can honour: NaN, for
// which every comparison is false and a bisection would walk silently to one
// end of the QP range, or a bit budget that is not positive.
var ErrBadTarget = errors.New("core: bad rate-control target")

// probeStack memoizes encodeStack probes by QP for one rate-control search —
// each with its reconstruction planes, so a search that judges or returns a
// reconstruction never decodes — counting each real encode into
// core.ratecontrol.probes. Encoding is deterministic, so the cache is exact and
// a search's fallback to the edge of the QP range — which its walk has already
// probed — encodes nothing twice.
func (o Options) probeStack(ctx context.Context, stack []*Tensor) func(qp int) (encoding, error) {
	cache := map[int]encoding{}
	return func(qp int) (encoding, error) {
		if p, ok := cache[qp]; ok {
			return p, nil
		}
		p, err := o.encodeStack(ctx, stack, qp)
		if err != nil {
			return encoding{}, err
		}
		cache[qp] = p
		o.Metrics.Add("core.ratecontrol.probes", 1)
		return p, nil
	}
}

// bisectQP is the one walk over the QP range [0, dct.MaxQP] behind both
// rate-control searches. accept probes one QP and reports whether it meets
// the target; finer says where an accepted probe sends the walk — toward
// QP 0 (the rate search: look for more quality inside the budget) or toward
// MaxQP (the quality search: look for fewer bits inside the error bound).
// When no probe is accepted the walk ends on the far edge of the range, MaxQP
// for finer and 0 otherwise, which is the floor the caller falls back to.
//
// The walk does not choose the answer: rate is not monotone in QP (DESIGN.md
// §18), so each accept keeps its own best among the probes it accepted. It is
// where a target is validated (ErrBadTarget) and where a cancelled ctx stops
// a search between probes.
func bisectQP(ctx context.Context, target float64, finer bool, accept func(qp int) (bool, error)) error {
	// A zero error bound is a legitimate, unreachable request (answered by
	// the QP-0 floor); a zero bit budget is not a budget.
	if math.IsNaN(target) || finer && target <= 0 {
		return fmt.Errorf("core: target %v: %w", target, ErrBadTarget)
	}
	for lo, hi := 0, dct.MaxQP; lo <= hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		mid := (lo + hi) / 2
		ok, err := accept(mid)
		if err != nil {
			return err
		}
		if ok == finer {
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return nil
}

// EncodeStackToBitrate finds the best-quality encode of the stack whose total
// cost (metadata included) stays at or below bitsPerValue — the paper's
// fractional-bitrate interface — and returns it with its reconstruction;
// Encoded.QP is the QP chosen. A budget below even MaxQP's rate returns the
// MaxQP pair, so the caller sees the floor.
func (o Options) EncodeStackToBitrate(ctx context.Context, stack []*Tensor, bitsPerValue float64) (*Encoded, []*Tensor, error) {
	probe := o.probeStack(ctx, stack)
	var best encoding
	err := bisectQP(ctx, bitsPerValue, true, func(qp int) (bool, error) {
		p, err := probe(qp)
		if err != nil {
			return false, err
		}
		ok := p.BitsPerValue() <= bitsPerValue
		// Most bits, not lowest QP: a finer QP can cost fewer bits.
		if ok && (best.Encoded == nil || p.BitsPerValue() > best.BitsPerValue()) {
			best = p
		}
		return ok, nil
	})
	if err == nil && best.Encoded == nil {
		best, err = probe(dct.MaxQP)
	}
	if err != nil {
		return nil, nil, err
	}
	return best.Encoded, best.recon(), nil
}

// EncodeStackToMSE finds the cheapest encode of the stack whose reconstruction
// error (StackMSE: value domain, averaged over layers) stays at or below
// maxMSE — the Fig. 2(b) quality constraint — and returns it with that
// reconstruction. A bound not even QP 0 meets returns the QP-0 pair.
func (o Options) EncodeStackToMSE(ctx context.Context, stack []*Tensor, maxMSE float64) (*Encoded, []*Tensor, error) {
	probe := o.probeStack(ctx, stack)
	var best encoding
	err := bisectQP(ctx, maxMSE, false, func(qp int) (bool, error) {
		p, err := probe(qp)
		if err != nil {
			return false, err
		}
		ok := StackMSE(stack, p.recon()) <= maxMSE
		// Highest QP: the walk only moves up after an accept, so that is the
		// last probe accepted.
		if ok {
			best = p
		}
		return ok, nil
	})
	if err == nil && best.Encoded == nil {
		best, err = probe(0)
	}
	if err != nil {
		return nil, nil, err
	}
	return best.Encoded, best.recon(), nil
}

// marshalFixedLen is the container's fixed part: magic, layers, rows, cols,
// per-row flag, frame bounds, QP and the metadata count.
const marshalFixedLen = 6 + 4 + 4 + 4 + 1 + 4 + 4 + 1 + 4

// Marshal serializes an Encoded to a portable byte stream (the .l265
// container used by cmd/llm265), in one allocation of its exact size.
func (e *Encoded) Marshal() []byte {
	be := binary.BigEndian
	buf := make([]byte, 0, marshalFixedLen+8*len(e.Scales)+4+len(e.Stream))
	buf = append(buf, "L265T\x01"...)
	buf = be.AppendUint32(buf, uint32(e.Layers))
	buf = be.AppendUint32(buf, uint32(e.Rows))
	buf = be.AppendUint32(buf, uint32(e.Cols))
	perRow := uint8(0)
	if e.PerRow {
		perRow = 1
	}
	buf = append(buf, perRow)
	buf = be.AppendUint32(buf, uint32(e.MaxFrameW))
	buf = be.AppendUint32(buf, uint32(e.MaxFrameH))
	buf = append(buf, uint8(e.QP))
	buf = be.AppendUint32(buf, uint32(len(e.Scales)))
	for i := range e.Scales {
		buf = be.AppendUint32(buf, math.Float32bits(e.Scales[i]))
		buf = be.AppendUint32(buf, math.Float32bits(e.Zeros[i]))
	}
	buf = be.AppendUint32(buf, uint32(len(e.Stream)))
	return append(buf, e.Stream...)
}

// UnmarshalEncoded parses a stream produced by Marshal. Every length and
// count field is validated against the bytes actually present before any
// allocation is sized from it, so a tiny stream claiming 2³¹ elements is
// rejected up front; failures are typed (ErrTruncated for streams that end
// early, ErrCorrupt for impossible fields) and the function never panics.
func UnmarshalEncoded(data []byte) (*Encoded, error) {
	if len(data) < 6 || string(data[:6]) != "L265T\x01" {
		if len(data) >= 6 {
			return nil, fmt.Errorf("core: bad container header: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("core: %d-byte container: %w", len(data), ErrTruncated)
	}
	if len(data) < marshalFixedLen {
		return nil, fmt.Errorf("core: container ends inside fixed header: %w", ErrTruncated)
	}
	off := 6
	u32 := func() int {
		v := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		return v
	}
	e := &Encoded{}
	e.Layers = u32()
	e.Rows = u32()
	e.Cols = u32()
	e.PerRow = data[off] == 1
	off++
	e.MaxFrameW = u32()
	e.MaxFrameH = u32()
	e.QP = int(data[off])
	off++
	n := u32()
	// Allocation cap: each metadata entry occupies 8 bytes, so a count the
	// remaining bytes cannot hold is rejected before the tables are made.
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("core: metadata count %d out of range: %w", n, ErrCorrupt)
	}
	if len(data)-off < 8*n {
		return nil, fmt.Errorf("core: container ends inside %d-entry metadata table: %w", n, ErrTruncated)
	}
	e.Scales = make([]float32, n)
	e.Zeros = make([]float32, n)
	for i := 0; i < n; i++ {
		e.Scales[i] = math.Float32frombits(binary.BigEndian.Uint32(data[off:]))
		e.Zeros[i] = math.Float32frombits(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
	}
	if len(data)-off < 4 {
		return nil, fmt.Errorf("core: container ends before stream length: %w", ErrTruncated)
	}
	streamLen := u32()
	if streamLen < 0 {
		return nil, fmt.Errorf("core: negative stream length: %w", ErrCorrupt)
	}
	if len(data)-off < streamLen {
		return nil, fmt.Errorf("core: stream needs %d bytes, %d remain: %w",
			streamLen, len(data)-off, ErrTruncated)
	}
	if len(data)-off > streamLen {
		// Exact-length rule, mirroring the codec container: Marshal emits
		// nothing after the stream, so trailing bytes mean damaged framing.
		return nil, fmt.Errorf("core: %d trailing bytes after stream: %w",
			len(data)-off-streamLen, ErrCorrupt)
	}
	e.Stream = make([]byte, streamLen)
	copy(e.Stream, data[off:off+streamLen])
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}
