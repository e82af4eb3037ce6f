package rans

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// table normalizes counts into a table, failing the test on error.
func table(t testing.TB, counts *[256]int64) *Freqs {
	t.Helper()
	f, err := NormalizeFreqs(counts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// drawRuns draws up to maxRuns runs of up to maxLen symbols, each over a
// table of its own: an alphabet of 2, 16 or 256 symbols with skewed counts,
// some of them 1 so that frequency-1 symbols (two renormalization bytes)
// occur. The symbols follow each run's counts.
func drawRuns(t testing.TB, rng *rand.Rand, maxRuns, maxLen int) ([]uint8, []Run) {
	var syms []uint8
	runs := make([]Run, rng.Intn(maxRuns+1))
	for k := range runs {
		alphabet := []int{2, 16, 256}[rng.Intn(3)]
		var counts [256]int64
		var pool []uint8
		for s := 0; s < alphabet; s++ {
			c := int64(1 << rng.Intn(12))
			if rng.Intn(4) == 0 {
				c = 1
			}
			counts[s] = c
			for range min(c, 64) {
				pool = append(pool, uint8(s))
			}
		}
		runs[k] = Run{N: rng.Intn(maxLen + 1), T: table(t, &counts)}
		for range runs[k].N {
			syms = append(syms, pool[rng.Intn(len(pool))])
		}
	}
	return syms, runs
}

func encode(t testing.TB, syms []uint8, runs []Run) *[Interleave][]byte {
	t.Helper()
	segs, err := Encode(syms, runs)
	if err != nil {
		t.Fatal(err)
	}
	return &segs
}

func roundTrip(t *testing.T, syms []uint8, runs []Run) {
	t.Helper()
	segs := encode(t, syms, runs)
	got := make([]uint8, len(syms))
	if j, err := Decode(got, segs, runs); err != nil {
		t.Fatalf("%d symbols: state %d: %v", len(syms), j, err)
	}
	if !bytes.Equal(got, syms) {
		t.Fatalf("%d symbols: round trip differs", len(syms))
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		syms, runs := drawRuns(t, rng, 12, []int{6, 60, 600}[trial%3])
		roundTrip(t, syms, runs)
	}
	roundTrip(t, nil, nil)
	// A frequency-1 symbol renormalizes by two bytes; a run of them, beside
	// a symbol of frequency Scale−1, exercises that bound at every state.
	var counts [256]int64
	counts[0], counts[1] = 1, 1<<20
	skew := table(t, &counts)
	if skew.Freq(0) != 1 {
		t.Fatalf("rare symbol has frequency %d, want 1", skew.Freq(0))
	}
	rare := make([]uint8, 1000)
	roundTrip(t, rare, []Run{{len(rare), skew}})
	for i := range rare {
		rare[i] = uint8(rng.Intn(2))
	}
	roundTrip(t, rare, []Run{{500, skew}, {500, skew}})
}

// TestEncodeRefusesZeroFrequency: a symbol its table does not cover is an
// error, not a silent mis-coding.
func TestEncodeRefusesZeroFrequency(t *testing.T) {
	var counts [256]int64
	counts[3] = 10
	if _, err := Encode([]uint8{3, 3, 4}, []Run{{3, table(t, &counts)}}); err == nil {
		t.Fatal("symbol of zero frequency encoded")
	}
}

// TestDecodeStrictness: a clean sequence decodes; every strict prefix of any
// one state's segment, and that segment with a trailing byte, fails as a
// typed error on that state.
func TestDecodeStrictness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms, runs := drawRuns(t, rng, 6, 300)
	for len(syms) < 4*Interleave {
		syms, runs = drawRuns(t, rng, 6, 300)
	}
	clean := encode(t, syms, runs)
	out := make([]uint8, len(syms))
	if j, err := Decode(out, clean, runs); err != nil {
		t.Fatalf("clean segments rejected: state %d: %v", j, err)
	}
	for j := range clean {
		segs := *clean
		for n := 0; n < len(clean[j]); n++ {
			segs[j] = clean[j][:n]
			if got, err := Decode(out, &segs, runs); err == nil {
				t.Fatalf("state %d segment truncated to %d bytes accepted", j, n)
			} else if got != j || !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("state %d segment truncated to %d bytes: state %d, %v", j, n, got, err)
			}
		}
		segs[j] = append(append([]byte(nil), clean[j]...), 0xAA)
		if got, err := Decode(out, &segs, runs); !errors.Is(err, ErrCorrupt) || got != j {
			t.Fatalf("state %d segment with a trailing byte: state %d, %v", j, got, err)
		}
	}
}

// TestDecodeLaneIndependence is the structural fact behind decoding the
// states together: state j's symbols depend on segment j alone. Two
// sequences over the same runs are coded, and their segments spliced under
// every mask of states; each splice decodes to sequence A at the states taken
// from A and to sequence B at the others.
func TestDecodeLaneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var seqs [2][]uint8
	var runs []Run
	for len(seqs[0]) == 0 {
		seqs[0], runs = drawRuns(t, rng, 20, 2000)
	}
	// The second sequence: the first with every fifth symbol swapped for one
	// its run's table also covers.
	seqs[1] = append([]uint8(nil), seqs[0]...)
	i := 0
	for _, r := range runs {
		for k := i; k < i+r.N; k += 5 {
			for s := rng.Intn(256); ; s = (s + 1) % 256 {
				if r.T.Freq(uint8(s)) > 0 {
					seqs[1][k] = uint8(s)
					break
				}
			}
		}
		i += r.N
	}
	coded := [2]*[Interleave][]byte{encode(t, seqs[0], runs), encode(t, seqs[1], runs)}
	out := make([]uint8, len(seqs[0]))
	for mask := 0; mask < 1<<Interleave; mask++ {
		var segs [Interleave][]byte
		for j := range segs {
			segs[j] = coded[mask>>j&1][j]
		}
		if j, err := Decode(out, &segs, runs); err != nil {
			t.Fatalf("mask %04b: state %d: %v", mask, j, err)
		}
		for i, b := range out {
			if want := seqs[mask>>(i%Interleave)&1][i]; b != want {
				t.Fatalf("mask %04b: symbol %d = %d, want %d", mask, i, b, want)
			}
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 1000, 65536} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(16)) // skewed alphabet
		}
		counts := [256]int64{1} // an empty input still needs a table
		for _, b := range data {
			counts[b]++
		}
		f := table(t, &counts)
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

// TestEncodeBytesPinned pins EncodeBytes' segments — the bytes Fig. 14's
// rANS sizes count — to the hashes the byte coder produced before it shared
// Encode with the codec: Gaussian bytes of four lengths and spreads.
func TestEncodeBytesPinned(t *testing.T) {
	want := map[int]string{1: "590742ceb989f840", 5: "02c87f0a91239c31", 1000: "37311986e4718405", 65536: "38cfab6df51d0530"}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 1000, 65536} {
		data := make([]byte, n)
		for i := range data {
			v := int(rng.NormFloat64()*float64(1+n%40) + 128)
			data[i] = byte(min(max(v, 0), 255))
		}
		var counts [256]int64
		for _, b := range data {
			counts[b]++
		}
		segs, err := EncodeBytes(data, table(t, &counts))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range segs {
			h.Write(s)
			h.Write([]byte{0xff})
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[n] {
			t.Errorf("n=%d: segments hash to %s, pinned %s", n, got, want[n])
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
	segs, err := EncodeBytes(data, table(t, &counts))
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
