package dct

import (
	"math/rand"
	"testing"
)

func TestSATDZeroResidual(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		if got := SATD(make([]int32, n*n), n); got != 0 {
			t.Errorf("SATD(zero, %d) = %d, want 0", n, got)
		}
	}
}

func TestSATDConstantResidual(t *testing.T) {
	// A constant block has all its Hadamard energy in the DC coefficient:
	// n²·|v|, which the normalization maps to (n²/2)·|v| for 4×4 and
	// (n²/4)·|v| per 8×8 tile.
	res := make([]int32, 16)
	for i := range res {
		res[i] = -3
	}
	if got := SATD(res, 4); got != 8*3 {
		t.Errorf("SATD(const -3, 4) = %d, want 24", got)
	}
	res = make([]int32, 64)
	for i := range res {
		res[i] = 5
	}
	if got := SATD(res, 8); got != 16*5 {
		t.Errorf("SATD(const 5, 8) = %d, want 80", got)
	}
}

func TestSATDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8} {
		for trial := 0; trial < 50; trial++ {
			res := make([]int32, n*n)
			for i := range res {
				res[i] = int32(rng.Intn(511) - 255)
			}
			if got, want := SATD(res, n), refSATD(res, n); got != want {
				t.Fatalf("n=%d trial %d: SATD = %d, reference = %d", n, trial, got, want)
			}
		}
	}
}

func TestSATDTilesLargeBlocks(t *testing.T) {
	// 16×16 and 32×32 SATD must equal the sum of their independent 8×8
	// tiles — the documented tiling contract.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 32} {
		res := make([]int32, n*n)
		for i := range res {
			res[i] = int32(rng.Intn(511) - 255)
		}
		var want int64
		tile := make([]int32, 64)
		for by := 0; by < n; by += 8 {
			for bx := 0; bx < n; bx += 8 {
				for y := 0; y < 8; y++ {
					copy(tile[y*8:y*8+8], res[(by+y)*n+bx:(by+y)*n+bx+8])
				}
				want += SATD(tile, 8)
			}
		}
		if got := SATD(res, n); got != want {
			t.Errorf("n=%d: SATD = %d, tile sum = %d", n, got, want)
		}
	}
}

func TestSATDPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SATD accepted a mis-sized residual")
		}
	}()
	SATD(make([]int32, 17), 4)
}

func TestSATDAllocationFree(t *testing.T) {
	res := make([]int32, 32*32)
	for i := range res {
		res[i] = int32(i % 17)
	}
	if a := testing.AllocsPerRun(100, func() { SATD(res, 32) }); a != 0 {
		t.Errorf("SATD allocates %.1f times per call, want 0", a)
	}
}
