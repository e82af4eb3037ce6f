// Best-effort decoding for damaged containers.
//
// The serving scenario (ROADMAP north star; VcLLM-style remote KV-cache
// reuse) moves compressed tensor shards across networks and caches, where
// truncation and bit-rot are routine. DecodeStackCtx fails the whole stack on
// the first damaged chunk; DecodeStackPartialCtx instead recovers every chunk
// that still verifies and reports exactly what was lost, so a serving layer
// can serve the intact planes immediately and refetch only the damaged
// ones.
package core

import (
	"context"

	"repro/internal/codec"
)

// LayerDamage describes the damage within one layer of a partially decoded
// stack.
type LayerDamage struct {
	Layer         int // layer index in the stack
	MissingPlanes int // planes of this layer lost to failed chunks
	TotalPlanes   int // planes this layer is split into
}

// DecodeReport summarizes a DecodeStackPartialCtx call.
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

// DecodeStackPartialCtx reconstructs as much of the tensor stack as the stream
// allows. Chunks that fail their v3 CRC32C, are truncated away, or do not
// parse are skipped; the tensor regions they covered are zero-filled (0.0
// is the neutral value for weights and gradients), and the report says
// exactly which layers and chunks were hit. The error is non-nil only when
// nothing is recoverable — an unusable container header, or metadata that
// contradicts the stream's actual geometry — or on cancellation, which wins
// over partial recovery: the caller has already walked away.
//
// On an undamaged stream it returns the same tensors as DecodeStackCtx with a
// Complete() report, so callers can use it unconditionally.
func (o Options) DecodeStackPartialCtx(ctx context.Context, e *Encoded) ([]*Tensor, *DecodeReport, error) {
	res, regs, span, err := o.decodePlanes(ctx, e, "core.decode_stack_partial", 0, e.Layers, true)
	if err != nil {
		return nil, nil, err
	}
	report := &DecodeReport{
		Chunks:          res.Chunks,
		FailedChunks:    len(res.Errors),
		TotalPlanes:     len(res.Planes),
		RecoveredPlanes: res.Recovered(),
		ChunkErrors:     res.Errors,
	}
	// Plane l*perLayer+i is region i of layer l: the metadata's mapping, whose
	// plane sizes decodePlanes has already checked (checkPlaneGeometry).
	perLayer := len(regs)
	out := make([]*Tensor, e.Layers)
	for l := range out {
		var missing int
		out[l], missing = e.dequantLayer(l, res.Planes[l*perLayer:(l+1)*perLayer], regs)
		if missing > 0 {
			report.Damaged = append(report.Damaged, LayerDamage{
				Layer: l, MissingPlanes: missing, TotalPlanes: perLayer,
			})
		}
	}
	span.End()
	o.Metrics.Add("core.decode.layers", int64(e.Layers))
	o.Metrics.Add("core.decode.layers_damaged", int64(len(report.Damaged)))
	return out, report, nil
}
