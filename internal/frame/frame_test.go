package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlaneBasics(t *testing.T) {
	p := NewPlane(4, 3)
	p.Row(1)[2] = 200
	if p.At(2, 1) != 200 {
		t.Fatalf("At does not read what Row wrote")
	}
	if len(p.Row(1)) != 4 || p.Row(1)[2] != 200 {
		t.Fatalf("Row view wrong")
	}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.Row(0)[0] = 9
	if p.Equal(q) || p.At(0, 0) == 9 {
		t.Fatal("clone aliases original")
	}
}

func TestMSE(t *testing.T) {
	p := NewPlane(2, 2)
	q := NewPlane(2, 2)
	q.Row(0)[0] = 2 // diff 2 -> sq 4, over 4 pixels = 1
	if got := p.MSE(q); got != 1 {
		t.Fatalf("MSE = %f, want 1", got)
	}
}

func TestFromToMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ rows, cols, maxW, maxH int }{
		{10, 10, 32, 32},   // fits in one plane
		{100, 64, 32, 32},  // multiple bands and slabs
		{33, 65, 32, 32},   // ragged edges
		{1, 1, 8, 8},       // degenerate
		{128, 128, 64, 16}, // asymmetric limits
	}
	for _, c := range cases {
		data := make([]uint8, c.rows*c.cols)
		for i := range data {
			data[i] = uint8(rng.Intn(256))
		}
		planes := FromMatrix(data, c.rows, c.cols, c.maxW, c.maxH)
		back := ToMatrix(planes, c.rows, c.cols, c.maxW, c.maxH)
		for i := range data {
			if back[i] != data[i] {
				t.Fatalf("case %+v: mismatch at %d", c, i)
			}
		}
	}
}

func TestFromMatrixPlaneCount(t *testing.T) {
	data := make([]uint8, 100*70)
	planes := FromMatrix(data, 100, 70, 32, 32)
	// ceil(100/32)=4 bands × ceil(70/32)=3 slabs = 12 planes.
	if len(planes) != 12 {
		t.Fatalf("got %d planes, want 12", len(planes))
	}
}

func TestFromToMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(90) + 1
		cols := rng.Intn(90) + 1
		maxW := rng.Intn(40) + 4
		maxH := rng.Intn(40) + 4
		data := make([]uint8, rows*cols)
		rng.Read(data)
		planes := FromMatrix(data, rows, cols, maxW, maxH)
		back := ToMatrix(planes, rows, cols, maxW, maxH)
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFromMatrixEmitsUnpaddedPlanes pins the documented chunking contract:
// FromMatrix does NOT pad ragged final bands/slabs — planes carry their
// natural sizes, and CTU alignment is the encoder's internal job (it
// edge-replicates up to the CTU multiple and crops the reconstruction
// back). This keeps ToMatrix a pure inverse.
func TestFromMatrixEmitsUnpaddedPlanes(t *testing.T) {
	// 33×65 with 32×32 limits: 2 bands (32, 1 rows) × 3 slabs (32, 32, 1 cols).
	data := make([]uint8, 33*65)
	for i := range data {
		data[i] = uint8(i)
	}
	planes := FromMatrix(data, 33, 65, 32, 32)
	wantDims := [][2]int{ // {W, H} in band-major order
		{32, 32}, {32, 32}, {1, 32},
		{32, 1}, {32, 1}, {1, 1},
	}
	if len(planes) != len(wantDims) {
		t.Fatalf("got %d planes, want %d", len(planes), len(wantDims))
	}
	for i, p := range planes {
		if p.W != wantDims[i][0] || p.H != wantDims[i][1] {
			t.Fatalf("plane %d: %dx%d, want %dx%d (ragged edges must stay unpadded)",
				i, p.W, p.H, wantDims[i][0], wantDims[i][1])
		}
	}
	// And the inverse remains exact.
	back := ToMatrix(planes, 33, 65, 32, 32)
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("ToMatrix not inverse at %d", i)
		}
	}
}
