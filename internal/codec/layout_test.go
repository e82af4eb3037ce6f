package codec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
