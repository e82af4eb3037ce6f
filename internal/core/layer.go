// O(region) random access into a compressed stack (DESIGN.md §15).
//
// DecodeLayerCtx reconstructs one layer of an Encoded without decoding the rest
// of the stream: the layer's planes occupy a contiguous plane range, and the
// codec's chunk partition means only the chunks overlapping that range are
// entropy-decoded (proved by the codec.decode.chunks counter). This is what
// makes a packed checkpoint servable — internal/store's LRU decodes layers
// on demand under a byte budget instead of materializing the whole stack.
package core

import "context"

// DecodeLayerCtx reconstructs layer l of the stack, decoding only the
// bitstream chunks that cover it. The result is byte-identical to
// DecodeStackCtx's l-th tensor (the golden equivalence matrix in layer_test.go
// pins this for both entropy backends and all worker counts); the work is
// O(layer), not O(stack). Cancellation aborts the remaining chunk decodes and
// returns ctx.Err(), never wrapped into the decode-error taxonomy.
func (o Options) DecodeLayerCtx(ctx context.Context, e *Encoded, l int) (*Tensor, error) {
	dec, regs, span, err := o.decodePlanes(ctx, e, "core.decode_layer", l, 1, false)
	if err != nil {
		return nil, err
	}
	t, _ := e.dequantLayer(l, dec.Planes, regs)
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.decode.layers", 1)
		o.Metrics.Add("core.decode.values", int64(e.Rows)*int64(e.Cols))
	}
	return t, nil
}
