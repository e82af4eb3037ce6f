// Package nn is the pure-Go neural-network substrate: float32 matrices, a
// decoder-only transformer with manual backpropagation, and the Adam/LAMB
// optimizers. It exists so the repository can *train* the models whose
// weights, activations and gradients LLM.265 compresses — substituting for
// the PyTorch + GPU stack the paper uses (see DESIGN.md §2). Inference is
// one KV-cached DecodeStep a token; choosing the next token from its logits
// is the caller's.
package nn

import (
	"fmt"
	"math/rand"
)

// Mat is a dense row-major R×C float32 matrix.
type Mat struct {
	R, C int
	V    []float32
}

// NewMat allocates a zero matrix.
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix %dx%d", r, c))
	}
	return &Mat{R: r, C: c, V: make([]float32, r*c)}
}

// RandMat draws entries from N(0, std²).
func RandMat(rng *rand.Rand, r, c int, std float64) *Mat {
	m := NewMat(r, c)
	for i := range m.V {
		m.V[i] = float32(rng.NormFloat64() * std)
	}
	return m
}

// At returns m[r][c].
func (m *Mat) At(r, c int) float32 { return m.V[r*m.C+c] }

// Set writes m[r][c].
func (m *Mat) Set(r, c int, v float32) { m.V[r*m.C+c] = v }

// Row returns row r as a slice aliasing the matrix.
func (m *Mat) Row(r int) []float32 { return m.V[r*m.C : (r+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.R, m.C)
	copy(c.V, m.V)
	return c
}

// Zero clears all entries.
func (m *Mat) Zero() {
	for i := range m.V {
		m.V[i] = 0
	}
}

// MatMul returns a·b.
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.C; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulATB returns aᵀ·b (used for weight gradients dW = xᵀ·dy).
func MatMulATB(a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: matmulATB %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.C, b.C)
	for n := 0; n < a.R; n++ {
		arow := a.Row(n)
		brow := b.Row(n)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulABT returns a·bᵀ (used for input gradients dx = dy·Wᵀ).
func MatMulABT(a, b *Mat) *Mat {
	if a.C != b.C {
		panic(fmt.Sprintf("nn: matmulABT %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.R)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.R; j++ {
			brow := b.Row(j)
			var acc float32
			for k := range arow {
				acc += arow[k] * brow[k]
			}
			orow[j] = acc
		}
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Mat) {
	if a.R != b.R || a.C != b.C {
		panic("nn: add shape mismatch")
	}
	for i := range a.V {
		a.V[i] += b.V[i]
	}
}

// ScaleInPlace multiplies all entries by s.
func ScaleInPlace(a *Mat, s float32) {
	for i := range a.V {
		a.V[i] *= s
	}
}
