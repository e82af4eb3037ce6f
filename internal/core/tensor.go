// Package core implements LLM.265's tensor codec — the paper's primary
// contribution: a general-purpose, data-independent, fractional-bitrate
// compressor for LLM weights, KV caches, activations and gradients built
// from an intra-only video codec.
//
// The pipeline (§3.2): FP values are affinely mapped to 8-bit pixels (only
// the luma channel is used), chunked into frames respecting the codec's
// frame-size limits, and pushed through the video encoder. Rate control
// exposes fractional bits-per-value targets (e.g. 2.3 b/v) and MSE budgets.
package core

import "fmt"

// Tensor is a dense rows×cols float32 matrix, the unit of compression.
// (The paper treats 2-D weight matrices as frames; stacks of layers form
// multi-frame sequences via EncodeStackCtx.)
type Tensor struct {
	Rows, Cols int
	Data       []float32 // row-major, len Rows*Cols
}

// NewTensor allocates a zero tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("core: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("core: data len %d != %d×%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Numel reports the number of elements.
func (t *Tensor) Numel() int { return t.Rows * t.Cols }

// MSE computes the mean squared error against another tensor of equal shape.
func (t *Tensor) MSE(o *Tensor) float64 {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		panic("core: MSE shape mismatch")
	}
	var s float64
	for i := range t.Data {
		d := float64(t.Data[i]) - float64(o.Data[i])
		s += float64(d * d)
	}
	return s / float64(len(t.Data))
}

// StackMSE is the mean of the per-layer MSEs of a stack against its
// reconstruction — the quantity EncodeStackToMSE bounds.
func StackMSE(stack, rec []*Tensor) float64 {
	var s float64
	for i, t := range stack {
		s += t.MSE(rec[i])
	}
	return s / float64(len(stack))
}
