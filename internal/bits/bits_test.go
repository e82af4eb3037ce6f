package bits

import (
	"math/rand"
	"testing"
)

func TestWriteReadBitRoundTrip(t *testing.T) {
	w := NewWriter()
	pattern := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsReadBits(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0xAB, 8}, {0x1234, 16}, {0, 0},
		{0xFFFFFFFFFFFFFFFF, 64}, {0x7, 3}, {0x5, 5},
	}
	w := NewWriter()
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		mask := ^uint64(0)
		if c.n < 64 {
			mask = 1<<c.n - 1
		}
		if got != c.v&mask {
			t.Fatalf("case %d: got %#x want %#x", i, got, c.v&mask)
		}
	}
}

func TestMixedStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type op struct {
		kind int
		v    uint64
		n    uint
	}
	var ops []op
	w := NewWriter()
	for i := 0; i < 2000; i++ {
		switch rng.Intn(2) {
		case 0:
			b := uint64(rng.Intn(2))
			ops = append(ops, op{0, b, 1})
			w.WriteBit(int(b))
		case 1:
			n := uint(rng.Intn(32) + 1)
			v := rng.Uint64() & (1<<n - 1)
			ops = append(ops, op{1, v, n})
			w.WriteBits(v, n)
		}
	}
	r := NewReader(w.Bytes())
	for i, o := range ops {
		switch o.kind {
		case 0:
			b, err := r.ReadBit()
			if err != nil || uint64(b) != o.v {
				t.Fatalf("op %d bit: got %d err %v want %d", i, b, err, o.v)
			}
		case 1:
			v, err := r.ReadBits(o.n)
			if err != nil || v != o.v {
				t.Fatalf("op %d bits: got %d err %v want %d", i, v, err, o.v)
			}
		}
	}
}

func TestReaderOutOfData(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfData {
		t.Fatalf("want ErrOutOfData, got %v", err)
	}
}
