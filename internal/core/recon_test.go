package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensorgen"
)

// TestEncodeStackReconIsDecode is the core twin of codec's
// TestEncodeReconIsDecode: the tensors EncodeStackRecon returns are, bit for
// bit, what a receiver gets from DecodeStackCtx over the marshaled container —
// under per-tensor and per-row quantisation, with layers cut into several
// planes (frame bounds smaller than the tensor, off the CTU grid), under both
// entropy backends, and on inputs holding the values a tensor should not (NaN,
// ±Inf, −0, denormals, ±MaxFloat32) — and the Encoded beside them is
// EncodeStackCtx's, byte for byte.
func TestEncodeStackReconIsDecode(t *testing.T) {
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.MaxFloat32}
	ctx := context.Background()
	for trial, shape := range [][3]int{{1, 64, 96}, {3, 45, 70}, {2, 13, 40}, {1, 1, 1}, {2, 33, 128}} {
		layers, rows, cols := shape[0], shape[1], shape[2]
		rng := rand.New(rand.NewSource(int64(90 + trial)))
		stack := make([]*Tensor, layers)
		for l, d := range tensorgen.WeightStack(rng, layers, rows, cols, 0.3) {
			if trial%2 == 0 {
				for i, v := range odd {
					d[(7*i+3)%len(d)] = v
				}
			}
			stack[l] = FromSlice(rows, cols, d)
		}
		for _, perRow := range []bool{false, true} {
			for _, frameDim := range []int{0, 32, 48} {
				for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
					o := DefaultOptions()
					o.PerRowQuant, o.MaxFrameW, o.MaxFrameH, o.Backend = perRow, frameDim, frameDim, backend
					o.Checksum = trial%2 == 1
					label := fmt.Sprintf("%dx%dx%d perRow=%v frame=%d backend=%d", layers, rows, cols, perRow, frameDim, backend)
					enc, rec, err := o.EncodeStackRecon(ctx, stack, 10+4*trial)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					plain, err := o.EncodeStackCtx(ctx, stack, 10+4*trial)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wire := enc.Marshal()
					if !bytes.Equal(wire, plain.Marshal()) {
						t.Fatalf("%s: EncodeStackRecon's container differs from EncodeStackCtx's", label)
					}
					received, err := UnmarshalEncoded(wire)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					dec, err := o.DecodeStackCtx(ctx, received)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(rec) != len(dec) {
						t.Fatalf("%s: %d reconstructed layers, a decode gives %d", label, len(rec), len(dec))
					}
					for l := range dec {
						for i, want := range dec[l].Data {
							if got := rec[l].Data[i]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("%s: layer %d value %d (input %g): reconstruction %g (%#x), a decode gives %g (%#x)",
									label, l, i, stack[l].Data[i], got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}
