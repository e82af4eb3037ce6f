// Best-effort decoding for damaged containers.
//
// The serving scenario (ROADMAP north star; VcLLM-style remote KV-cache
// reuse) moves compressed tensor shards across networks and caches, where
// truncation and bit-rot are routine. DecodeStack fails the whole stack on
// the first damaged chunk; DecodeStackPartial instead recovers every chunk
// that still verifies and reports exactly what was lost, so a serving layer
// can serve the intact planes immediately and refetch only the damaged
// ones.
package core

import (
	"context"

	"repro/internal/codec"
	"repro/internal/frame"
)

// LayerDamage describes the damage within one layer of a partially decoded
// stack.
type LayerDamage struct {
	Layer         int // layer index in the stack
	MissingPlanes int // planes of this layer lost to failed chunks
	TotalPlanes   int // planes this layer is split into
}

// DecodeReport summarizes a DecodeStackPartial call.
type DecodeReport struct {
	Chunks          int // independently decodable chunks in the container
	FailedChunks    int // chunks that failed checksum, truncation or parsing
	TotalPlanes     int // planes across the whole stack
	RecoveredPlanes int // planes decoded successfully
	// Damaged lists every layer that lost at least one plane, in layer
	// order. Damaged layers are returned zero-filled in the lost regions.
	Damaged []LayerDamage
	// ChunkErrors details each failed chunk; every Err matches ErrCorrupt,
	// ErrTruncated or ErrChecksum under errors.Is.
	ChunkErrors []codec.ChunkError
}

// Complete reports whether the stream decoded with no loss.
func (r *DecodeReport) Complete() bool { return r.FailedChunks == 0 }

// LayerDamaged reports whether layer l lost any plane.
func (r *DecodeReport) LayerDamaged(l int) bool {
	for _, d := range r.Damaged {
		if d.Layer == l {
			return true
		}
	}
	return false
}

// DecodeStackPartial reconstructs as much of the tensor stack as the stream
// allows. Chunks that fail their v3 CRC32C, are truncated away, or do not
// parse are skipped; the tensor regions they covered are zero-filled (0.0
// is the neutral value for weights and gradients), and the report says
// exactly which layers and chunks were hit. The error is non-nil only when
// nothing is recoverable: an unusable container header, or metadata that
// contradicts the stream's actual geometry.
//
// On an undamaged stream it returns the same tensors as DecodeStack with a
// Complete() report, so callers can use it unconditionally.
func (o Options) DecodeStackPartial(e *Encoded) ([]*Tensor, *DecodeReport, error) {
	return o.DecodeStackPartialCtx(context.Background(), e)
}

// DecodeStackPartialCtx is DecodeStackPartial under a context. Cancellation
// wins over partial recovery: a canceled call returns ctx.Err() rather than
// a partial result, since the caller has already walked away.
func (o Options) DecodeStackPartialCtx(ctx context.Context, e *Encoded) ([]*Tensor, *DecodeReport, error) {
	o = o.normalized()
	if err := e.validate(); err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, nil, err
	}
	span := o.Metrics.StartSpan("core.decode_stack_partial")
	res, err := codec.Decode(ctx, e.Stream, codec.DecodeConfig{Workers: o.Workers, Metrics: o.Metrics, Partial: true})
	if err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, nil, err
	}
	regs := e.regions()
	if err := e.checkPlaneGeometry(res.Planes, regs); err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, nil, err
	}
	// Index-bearing streams: the trailer's region table restates the
	// plane→(layer, region) mapping. Validate it against the metadata before
	// attributing anything — the codec trusts only the parts it can check
	// against the container, so a forged table could otherwise claim planes
	// for out-of-range layers and turn the slicing below into a panic.
	if res.Index != nil {
		if err := e.validateIndexRegions(res.Index.Regions, regs); err != nil {
			o.Metrics.Add("core.decode.errors", 1)
			return nil, nil, err
		}
	}
	report := &DecodeReport{
		Chunks:          res.Chunks,
		FailedChunks:    len(res.Errors),
		TotalPlanes:     len(res.Planes),
		RecoveredPlanes: res.Recovered(),
		ChunkErrors:     res.Errors,
	}
	perLayer := len(regs)
	// Attribution is index-driven when the (validated) region table is
	// present and positional otherwise; after validation the two mappings
	// coincide, so damaged-layer reporting is identical either way.
	layerOf := func(i int) int { return i / perLayer }
	if res.Index != nil && res.Index.Regions != nil {
		regions := res.Index.Regions
		layerOf = func(i int) int { return regions[i].Layer }
	}
	byLayer := make([][]*frame.Plane, e.Layers)
	for i, p := range res.Planes {
		l := layerOf(i)
		if byLayer[l] == nil {
			byLayer[l] = make([]*frame.Plane, perLayer)
		}
		byLayer[l][i%perLayer] = p
	}
	out := make([]*Tensor, e.Layers)
	for l := 0; l < e.Layers; l++ {
		layerPlanes := byLayer[l]
		if layerPlanes == nil {
			layerPlanes = make([]*frame.Plane, perLayer)
		}
		t, missing := e.dequantLayer(l, layerPlanes, regs)
		out[l] = t
		if missing > 0 {
			report.Damaged = append(report.Damaged, LayerDamage{
				Layer: l, MissingPlanes: missing, TotalPlanes: perLayer,
			})
		}
	}
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.decode.layers", int64(e.Layers))
		o.Metrics.Add("core.decode.layers_damaged", int64(len(report.Damaged)))
	}
	return out, report, nil
}
