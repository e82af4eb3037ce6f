package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/tensorgen"
)

func TestEncodeStackToMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	raw := tensorgen.WeightStack(rng, 3, 64, 64, 0)
	stack := make([]*Tensor, len(raw))
	var variance float64
	var n int
	for i, d := range raw {
		stack[i] = FromSlice(64, 64, d)
		for _, v := range d {
			variance += float64(v) * float64(v)
			n++
		}
	}
	variance /= float64(n)

	o := DefaultOptions()
	budget := 0.01 * variance
	e, rec, err := o.EncodeStackToMSE(context.Background(), stack, budget)
	if err != nil {
		t.Fatal(err)
	}
	mse := StackMSE(stack, rec)
	if mse > budget {
		t.Fatalf("achieved MSE %.3g exceeds budget %.3g", mse, budget)
	}
	// The returned reconstruction must match a fresh decode.
	dec, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if got := StackMSE(stack, dec); got != mse {
		t.Fatalf("returned reconstruction's MSE %.6g != a fresh decode's %.6g", mse, got)
	}

	// Loose budgets must not cost more bits than tight ones.
	e2, _, err := o.EncodeStackToMSE(context.Background(), stack, budget*20)
	if err != nil {
		t.Fatal(err)
	}
	if e2.BitsPerValue() > e.BitsPerValue() {
		t.Fatalf("loose budget used more bits: %.3f > %.3f", e2.BitsPerValue(), e.BitsPerValue())
	}
}

func TestEncodeStackToMSEUnreachableBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	w := FromSlice(32, 32, tensorgen.Weights(rng, 32, 32))
	o := DefaultOptions()
	// An impossible budget returns the best-effort QP-0 encode.
	e, rec, err := o.EncodeStackToMSE(context.Background(), []*Tensor{w}, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if e.QP != 0 {
		t.Fatalf("unreachable budget should fall back to QP 0, got %d", e.QP)
	}
	if len(rec) != 1 || w.MSE(rec[0]) <= 0 {
		t.Fatal("fallback must return its (lossy) reconstruction")
	}
}
