package rans

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// encodeRuns codes bins as the codec's rANS backend does: bin i on encoder
// i%Interleave at the frequency of the run holding it. It returns each
// state's segment, copied out of its encoder.
func encodeRuns(bins []uint8, runs []Run) *[Interleave][]byte {
	f0 := make([]uint32, 0, len(bins))
	for _, r := range runs {
		for k := 0; k < r.Bins; k++ {
			f0 = append(f0, r.F0)
		}
	}
	var encs [Interleave]BinEncoder
	for j := range encs {
		encs[j].Reset()
	}
	for i := len(bins) - 1; i >= 0; i-- {
		encs[i%Interleave].Put(int(bins[i]), f0[i])
	}
	var segs [Interleave][]byte
	for j := range encs {
		segs[j] = append([]byte(nil), encs[j].Finish()...)
	}
	return &segs
}

// drawRuns draws up to maxRuns runs of up to maxLen bins at random
// probabilities, and bins that follow each run's probability.
func drawRuns(rng *rand.Rand, maxRuns, maxLen int) ([]uint8, []Run) {
	var bins []uint8
	runs := make([]Run, rng.Intn(maxRuns+1))
	for k := range runs {
		p := uint8(1 + rng.Intn(255))
		runs[k] = Run{Bins: rng.Intn(maxLen + 1), F0: ProbToFreq(p)}
		for n := 0; n < runs[k].Bins; n++ {
			bins = append(bins, uint8(b2u(rng.Intn(256) >= int(p))))
		}
	}
	return bins, runs
}

func b2u(b bool) int {
	if b {
		return 1
	}
	return 0
}

// binRoundTrip encodes bins over runs and decodes them back through the
// interleaved states.
func binRoundTrip(t *testing.T, bins []uint8, runs []Run) {
	t.Helper()
	segs := encodeRuns(bins, runs)
	got := make([]uint8, len(bins))
	if j, err := DecodeBins(got, segs, runs); err != nil {
		t.Fatalf("%d bins: state %d: %v", len(bins), j, err)
	}
	if !bytes.Equal(got, bins) {
		t.Fatalf("%d bins: round trip differs", len(bins))
	}
}

func TestBinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		bins, runs := drawRuns(rng, 12, []int{6, 60, 600}[trial%3])
		binRoundTrip(t, bins, runs)
	}
	// Degenerate: empty sequence, extreme probabilities, all-same bins.
	binRoundTrip(t, nil, nil)
	all0, all1 := make([]uint8, 1000), make([]uint8, 1000)
	for i := range all1 {
		all1[i] = 1
	}
	lo, hi := []Run{{1000, ProbToFreq(1)}}, []Run{{1000, ProbToFreq(255)}}
	binRoundTrip(t, all0, hi) // likely bins: near-free
	binRoundTrip(t, all1, lo)
	binRoundTrip(t, all0, lo) // unlikely bins: expensive but exact
	binRoundTrip(t, all1, hi)
}

// TestBinCompression: 1000 bins that are zero 95% of the time, coded with a
// matched static probability, must cost well under 1 bit/bin.
func TestBinCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 10000
	bins := make([]int, n)
	probs := make([]uint8, n)
	for i := range bins {
		probs[i] = 243 // p0 ≈ 0.95
		if rng.Float64() >= 0.95 {
			bins[i] = 1
		}
	}
	var enc BinEncoder
	enc.Reset()
	for i := n - 1; i >= 0; i-- {
		enc.Put(bins[i], ProbToFreq(probs[i]))
	}
	seg := enc.Finish()
	bitsPerBin := float64(len(seg)*8) / float64(n)
	// H(0.95) ≈ 0.286; allow quantization + flush slack.
	if bitsPerBin > 0.35 {
		t.Fatalf("%.3f bits/bin on p=0.95 source, want < 0.35", bitsPerBin)
	}
}

// TestDecodeBinsStrictness: a clean sequence decodes; every strict prefix of
// any one state's segment, and that segment with a trailing byte, fails as a
// typed error on that state.
func TestDecodeBinsStrictness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bins, runs := drawRuns(rng, 6, 300)
	for len(bins) < 4*Interleave {
		bins, runs = drawRuns(rng, 6, 300)
	}
	clean := encodeRuns(bins, runs)
	out := make([]uint8, len(bins))
	if j, err := DecodeBins(out, clean, runs); err != nil {
		t.Fatalf("clean segments rejected: state %d: %v", j, err)
	}
	for j := range clean {
		segs := *clean
		for n := 0; n < len(clean[j]); n++ {
			segs[j] = clean[j][:n]
			if got, err := DecodeBins(out, &segs, runs); err == nil {
				t.Fatalf("state %d segment truncated to %d bytes accepted", j, n)
			} else if got != j || !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("state %d segment truncated to %d bytes: state %d, %v", j, n, got, err)
			}
		}
		segs[j] = append(append([]byte(nil), clean[j]...), 0xAA)
		if got, err := DecodeBins(out, &segs, runs); !errors.Is(err, ErrCorrupt) || got != j {
			t.Fatalf("state %d segment with a trailing byte: state %d, %v", j, got, err)
		}
	}
}

func uniformFreqs(t *testing.T) *Freqs {
	t.Helper()
	var counts [256]int64
	for i := range counts {
		counts[i] = 1
	}
	f, err := NormalizeFreqs(&counts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 1000, 65536} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(16)) // skewed alphabet
		}
		var counts [256]int64
		for _, b := range data {
			counts[b]++
		}
		var f *Freqs
		if n == 0 {
			f = uniformFreqs(t)
		} else {
			var err error
			f, err = NormalizeFreqs(&counts)
			if err != nil {
				t.Fatal(err)
			}
		}
		segs, err := EncodeBytes(data, f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := DecodeBytes(segs, n, f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("n=%d: round trip differs", n)
		}
	}
}

// TestDecodeBinsLaneIndependence is the structural fact behind decoding the
// states together: state j's bins depend on segment j alone. Two sequences
// over the same runs are coded, and their segments spliced under every mask of
// states; each splice decodes to sequence A at the states taken from A and to
// sequence B at the others.
func TestDecodeBinsLaneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, runs := drawRuns(rng, 20, 2000)
	total := 0
	for _, r := range runs {
		total += r.Bins
	}
	var seqs [2][]uint8
	var coded [2]*[Interleave][]byte
	for k := range seqs {
		seqs[k] = make([]uint8, total)
		for i := range seqs[k] {
			seqs[k][i] = uint8(rng.Intn(2))
		}
		coded[k] = encodeRuns(seqs[k], runs)
	}
	out := make([]uint8, total)
	for mask := 0; mask < 1<<Interleave; mask++ {
		var segs [Interleave][]byte
		for j := range segs {
			segs[j] = coded[mask>>j&1][j]
		}
		if j, err := DecodeBins(out, &segs, runs); err != nil {
			t.Fatalf("mask %04b: state %d: %v", mask, j, err)
		}
		for i, b := range out {
			if want := seqs[mask>>(i%Interleave)&1][i]; b != want {
				t.Fatalf("mask %04b: bin %d = %d, want %d", mask, i, b, want)
			}
		}
	}
}

func TestFreqsFromTableValidation(t *testing.T) {
	var bad [256]uint32
	bad[0] = Scale - 1 // sums short
	if _, err := FreqsFromTable(&bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short table: %v", err)
	}
	bad[1] = 2 // sums long
	if _, err := FreqsFromTable(&bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("long table: %v", err)
	}
	bad[1] = 1
	if _, err := FreqsFromTable(&bad); err != nil {
		t.Fatalf("exact table rejected: %v", err)
	}
}

func TestBytesCompressesSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 1<<16)
	for i := range data {
		v := int(rng.NormFloat64()*3 + 8)
		if v < 0 {
			v = 0
		}
		if v > 15 {
			v = 15
		}
		data[i] = byte(v)
	}
	var counts [256]int64
	for _, b := range data {
		counts[b]++
	}
	f, err := NormalizeFreqs(&counts)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := EncodeBytes(data, f)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if ratio := float64(total) / float64(len(data)); ratio > 0.55 {
		t.Fatalf("ratio %.3f on 16-level gaussian source, want < 0.55", ratio)
	}
}
