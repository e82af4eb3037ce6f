package codec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// retiredTrailerFixture is a stream at rest that the last encoder writing
// the chunk-index trailer produced: a two-chunk v3 container of nine 64×64
// planes (chunks of 8 and 1) followed by "L26X" | bodyLen | body | CRC32C.
// Its SHA-256 pins those exact bytes.
const (
	retiredTrailerFixture = "testdata/retired-trailer-v3-9x64x64.l265"
	retiredTrailerSHA256  = "02be1ecc08bf99c739078ffb0b21e35cbd8183022a0c80586a75bc33984773d1"
)

// retiredRawBinsFixture is a one-plane 64×64 HEVC v1 stream at QP 30 that
// the last encoder writing the retired raw-bin layout produced (partitioning,
// transform and intra prediction on; every bin one literal bit): tools byte
// 0x07, without the entropy-coding bit. Its SHA-256 pins those exact bytes.
const (
	retiredRawBinsFixture = "testdata/retired-raw-bins-hevc-64x64-qp30.l265"
	retiredRawBinsSHA256  = "f3762651fe8c028e6203eabf2e3ee2cc6127bc4a5b3706d48c088243597305a8"
)

// retiredRawBinsStream reads that fixture.
func retiredRawBinsStream(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(retiredRawBinsFixture)
	if err != nil {
		tb.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != retiredRawBinsSHA256 {
		tb.Fatalf("%s (%d bytes) has SHA-256 %x, want %s", retiredRawBinsFixture, len(data), sum, retiredRawBinsSHA256)
	}
	return data
}

// retiredTrailerStream reads the fixture and returns it with the offset
// where its container ends and the trailer begins.
func retiredTrailerStream(tb testing.TB) (data []byte, end int) {
	tb.Helper()
	data, err := os.ReadFile(retiredTrailerFixture)
	if err != nil {
		tb.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != retiredTrailerSHA256 {
		tb.Fatalf("%s (%d bytes) has SHA-256 %x, want %s", retiredTrailerFixture, len(data), sum, retiredTrailerSHA256)
	}
	return data, bytes.LastIndex(data, retiredTrailerMagic)
}

// TestLayoutEntriesMatchPayloads: on every golden vector and on each
// container version, Layout's entries tile the bytes between the header and
// the end of the data in chunk order and their plane spans tile the planes.
func TestLayoutEntriesMatchPayloads(t *testing.T) {
	streams := map[string][]byte{}
	v1, v2, v3, _ := corpusStreams(t)
	streams["v1"], streams["v2"], streams["v3"] = v1, v2, v3
	goldens, err := filepath.Glob(filepath.Join(corpusDir, "*.l265"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden streams (%v)", err)
	}
	for _, path := range goldens {
		if streams[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range streams {
		lay, err := Layout(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		off, base := int64(lay.HeaderLen), 0
		for i, e := range lay.Entries {
			if e.Offset != off || e.PlaneBase != base || e.PlaneCount <= 0 {
				t.Fatalf("%s: entry %d = %+v, want offset %d, first plane %d", name, i, e, off, base)
			}
			off += int64(e.Length)
			base += e.PlaneCount
		}
		if off != int64(len(data)) || base != lay.Planes {
			t.Fatalf("%s: entries end at byte %d and plane %d, want %d and %d", name, off, base, len(data), lay.Planes)
		}
	}
}

// TestRetiredTrailerRefused: a stream at rest ending in the retired
// chunk-index trailer is ErrCorrupt to every strict parse, which names the
// layout; so is every cut of it that keeps part of the trailer. A Partial
// decode ignores the bytes after the last payload and recovers every plane
// of the trailer-free container.
func TestRetiredTrailerRefused(t *testing.T) {
	data, end := retiredTrailerStream(t)
	lay, err := Layout(data[:end])
	if err != nil || lay.Planes != 9 || len(lay.Entries) != 2 {
		t.Fatalf("trailer-free prefix [:%d]: layout %+v, %v", end, lay, err)
	}
	want, err := decodeAll(data[:end], 2)
	if err != nil {
		t.Fatal(err)
	}

	const named = "retired chunk-index trailer layout"
	_, layErr := Layout(data)
	for name, err := range map[string]error{"Decode": strictDecoder(data), "Layout": layErr} {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), named) {
			t.Fatalf("%s: %v, want ErrCorrupt naming the %s", name, err, named)
		}
	}
	for cut := end + 1; cut < len(data); cut++ {
		if err := strictDecoder(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d of %d (container ends at %d): %v, want ErrCorrupt", cut, len(data), end, err)
		}
	}

	for _, workers := range []int{1, 2, 4} {
		res, err := Decode(context.Background(), data, DecodeConfig{Workers: workers, Partial: true})
		if err != nil || !res.OK() {
			t.Fatalf("workers %d: Partial decode: %v, %v", workers, err, res)
		}
		requirePlanesEqual(t, "Partial decode", res.Planes, want)
	}
}

// headerRefusals decodes data strictly at one and at stagedWorkers workers,
// decodes it under Partial, and lays it out, and fails unless each is
// ErrCorrupt naming named.
func headerRefusals(t *testing.T, label string, data []byte, named string) {
	t.Helper()
	_, staged := decodeAll(data, stagedWorkers)
	_, partial := Decode(context.Background(), data, DecodeConfig{Workers: 1, Partial: true})
	_, layout := Layout(data)
	for i, err := range []error{strictDecoder(data), staged, partial, layout} {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: %s: %v, want ErrCorrupt naming the %s", label, [...]string{"Decode", "staged Decode", "Partial Decode", "Layout"}[i], err, named)
		}
	}
}

// TestRetiredRawBinsRefused: a stream the retired raw-bin layout wrote is
// ErrCorrupt to strict and Partial decodes and to Layout, each naming the
// layout: read as CABAC, its bits would decode to other planes or to none.
func TestRetiredRawBinsRefused(t *testing.T) {
	headerRefusals(t, retiredRawBinsFixture, retiredRawBinsStream(t), "retired raw-bin layout")
}

// TestToolsByteIsStrict: on every v1 golden vector (no header CRC stands in
// front of the tools byte), clearing the entropy-coding bit is the retired
// raw-bin layout, and setting either reserved bit is a reserved-bits refusal
// — ErrCorrupt to every parse, never a decode.
func TestToolsByteIsStrict(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join(corpusDir, "v1-*.l265"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no v1 golden streams (%v)", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range []struct {
			clear, set uint8
			named      string
		}{
			{clear: toolsEntropy, named: "retired raw-bin layout"},
			{set: 0x40, named: "reserved bits 0x40"},
			{set: 0x80, named: "reserved bits 0x80"},
		} {
			bad := append([]byte(nil), data...)
			bad[6] = bad[6]&^row.clear | row.set
			headerRefusals(t, fmt.Sprintf("%s tools byte 0x%02x", filepath.Base(path), bad[6]), bad, row.named)
		}
	}
}

// TestTrailingBytesAreCorrupt: a strict parse refuses any byte after the
// last payload of every container version, and flipping a v3 golden's
// version byte to any other value is an error — the exact-length rule is
// what keeps the downgrade to v1/v2 framing from parsing.
func TestTrailingBytesAreCorrupt(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	for name, data := range map[string][]byte{"v1": v1, "v2": v2, "v3": v3} {
		if _, err := decodeAll(append(append([]byte(nil), data...), 0xAA), 2); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s + one stray byte: %v, want ErrCorrupt", name, err)
		}
	}
	goldens, err := filepath.Glob(filepath.Join(corpusDir, "*.l265"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if data[4] != versionChecksummed {
			continue
		}
		for v := 0; v < 256; v++ {
			if v == versionChecksummed {
				continue
			}
			bad := append([]byte(nil), data...)
			bad[4] = byte(v)
			if _, err := decodeAll(bad, 2); err == nil {
				t.Fatalf("%s: version byte %d accepted", filepath.Base(path), v)
			}
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("no v3 golden vector to flip")
	}
}

// TestTrailerPreservesAntiDowngrade: the retired trailer grafted onto a v1
// or v2 container is ErrCorrupt like any other trailing bytes, so are bytes
// after it on the stream at rest, and a version-byte downgrade of the
// stream at rest fails — its v3 chunk table and trailer parse under no
// v1/v2 framing.
func TestTrailerPreservesAntiDowngrade(t *testing.T) {
	v1, v2, _, _ := corpusStreams(t)
	data, end := retiredTrailerStream(t)
	trailer := data[end:]
	for name, bad := range map[string][]byte{
		"v1+trailer":         append(append([]byte(nil), v1...), trailer...),
		"v2+trailer":         append(append([]byte(nil), v2...), trailer...),
		"v3+trailer+garbage": append(append([]byte(nil), data...), 0x00),
	} {
		if _, err := decodeAll(bad, 2); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	for _, v := range []byte{1, 2} {
		bad := append([]byte(nil), data...)
		bad[4] = v
		if _, err := decodeAll(bad, 2); err == nil {
			t.Fatalf("downgrade of the stream at rest to v%d accepted", v)
		}
	}
}

// TestTrailerFaultinject sweeps the trailer bytes of the stream at rest:
// every truncation and every bit flip inside the trailer is a typed error on
// the strict path — never a panic, never silent, the cut at the container's
// end aside — while the lenient path (Partial) ignores the damaged bytes
// after the last payload and recovers every plane.
func TestTrailerFaultinject(t *testing.T) {
	data, end := retiredTrailerStream(t)
	want, err := decodeAll(data[:end], 2)
	if err != nil {
		t.Fatal(err)
	}

	trunc := faultinject.TruncationSweep(data, strictDecoder)
	requirePanicFree(t, "trailer truncation", trunc)
	for _, f := range trunc.Silent {
		// data[:end] is exactly the trailer-free container. Accepting it is
		// correct; no other cut is.
		if f.Offset != end {
			t.Fatalf("strict decode accepted truncation %v", f)
		}
	}

	for off := end; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), data...)
			bad[off] ^= 1 << bit
			_, err := decodeAll(bad, 2)
			if err == nil {
				t.Fatalf("strict decode accepted trailer bitflip @%d.%d", off, bit)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("trailer bitflip @%d.%d: untyped error %v", off, bit, err)
			}
			res, perr := Decode(context.Background(), bad, DecodeConfig{Workers: 2, Partial: true})
			if perr != nil {
				t.Fatalf("partial decode(trailer bitflip @%d.%d): %v", off, bit, perr)
			}
			if !res.OK() {
				t.Fatalf("partial decode lost chunks under trailer bitflip @%d.%d: %v", off, bit, res.Errors[0])
			}
			requirePlanesEqual(t, "lenient recovery under trailer damage", res.Planes, want)
		}
	}
}
