package entropy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func skewedData(rng *rand.Rand, n int) []byte {
	// Low-entropy source: values concentrated near 0 (like quantized
	// near-Gaussian tensors).
	out := make([]byte, n)
	for i := range out {
		v := int(rng.NormFloat64()*3 + 8)
		if v < 0 {
			v = 0
		}
		if v > 15 {
			v = 15
		}
		out[i] = byte(v)
	}
	return out
}

func TestAllCodersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]byte{
		nil,
		{0},
		{42, 42, 42, 42, 42},
		skewedData(rng, 10000),
		bytes.Repeat([]byte{1, 2, 3, 4}, 500),
	}
	random := make([]byte, 4096)
	rng.Read(random)
	inputs = append(inputs, random)

	for _, c := range All() {
		for k, in := range inputs {
			comp, err := c.Encode(in)
			if err != nil {
				t.Fatalf("%s input %d: encode: %v", c.Name(), k, err)
			}
			out, err := c.Decode(comp, len(in))
			if err != nil {
				t.Fatalf("%s input %d: %v", c.Name(), k, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s input %d: roundtrip mismatch", c.Name(), k)
			}
		}
	}
}

func TestCodersCompressSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := skewedData(rng, 1<<16)
	for _, c := range All() {
		comp, err := c.Encode(in)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		ratio := float64(len(comp)) / float64(len(in))
		// LZ4 is match-based, not an entropy coder: on IID symbols it can
		// only break even (this weakness is exactly why it loses the
		// paper's Fig. 14 comparison). The true entropy coders must
		// compress a 16-level Gaussian source well below 0.75.
		limit := 0.75
		if c.Name() == "LZ4" {
			limit = 1.10
		}
		if ratio > limit {
			t.Errorf("%s: ratio %.3f on 16-level gaussian data, want < %.2f", c.Name(), ratio, limit)
		}
	}
}

func TestCABACBeatsHuffmanOnSkewedData(t *testing.T) {
	// Arithmetic coding reaches fractional bits/symbol; Huffman cannot go
	// below 1 bit/symbol, so on a heavily skewed source CABAC must win.
	rng := rand.New(rand.NewSource(3))
	in := make([]byte, 1<<16)
	for i := range in {
		if rng.Float64() < 0.95 {
			in[i] = 0
		} else {
			in[i] = 1
		}
	}
	h, err := HuffmanCoder{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CABACCoder{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= len(h) {
		t.Fatalf("CABAC %d bytes should beat Huffman %d bytes", len(c), len(h))
	}
}

func TestLZ4FindsRepeats(t *testing.T) {
	in := bytes.Repeat([]byte("abcdefgh"), 1000)
	comp, err := LZ4Coder{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > len(in)/10 {
		t.Fatalf("LZ4 ratio %.3f on 8-byte repeats", float64(len(comp))/float64(len(in)))
	}
	out, err := LZ4Coder{}.Decode(comp, len(in))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("LZ4 roundtrip: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	coders := All()
	f := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		in := make([]byte, n)
		switch rng.Intn(3) {
		case 0:
			rng.Read(in)
		case 1:
			copy(in, skewedData(rng, n))
		case 2:
			for i := range in {
				in[i] = byte(i % 7)
			}
		}
		c := coders[int(which)%len(coders)]
		comp, err := c.Encode(in)
		if err != nil {
			return false
		}
		out, err := c.Decode(comp, len(in))
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := skewedData(rng, 2048)
	for _, c := range All() {
		comp, err := c.Encode(in)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		if len(comp) < 8 {
			continue
		}
		if out, err := c.Decode(comp[:4], len(in)); err == nil && bytes.Equal(out, in) {
			t.Errorf("%s: decoded correctly from 4 bytes?!", c.Name())
		}
	}
}

func BenchmarkCoders(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := skewedData(rng, 1<<16)
	for _, c := range All() {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
