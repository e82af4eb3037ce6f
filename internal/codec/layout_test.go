package codec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

// appendTrailer appends a trailer around body — magic, bodyLen, body, and the
// CRC32C over all three — to a copy of data.
func appendTrailer(data, body []byte) []byte {
	out := append(append([]byte(nil), data...), trailerMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out[len(data):], crcTable))
}

// appendOldTrailer appends to a trailer-free v3 container the chunk-index
// trailer earlier builds wrote, byte for byte: one record of tag 1 and
// length recLen, holding the chunk count, per chunk its absolute payload
// offset (u64), length, CRC32C, first plane and plane count (u32 each), then
// the region count and per plane its layer, x0, y0, w, h (u32 each).
func appendOldTrailer(tb testing.TB, data []byte, regions [][5]int) []byte {
	tb.Helper()
	lay, err := Layout(data)
	if err != nil {
		tb.Fatal(err)
	}
	be := binary.BigEndian
	rec := be.AppendUint32(nil, uint32(len(lay.Entries)))
	for _, e := range lay.Entries {
		rec = be.AppendUint64(rec, uint64(e.Offset))
		rec = be.AppendUint32(rec, uint32(e.Length))
		rec = be.AppendUint32(rec, e.CRC)
		rec = be.AppendUint32(rec, uint32(e.PlaneBase))
		rec = be.AppendUint32(rec, uint32(e.PlaneCount))
	}
	rec = be.AppendUint32(rec, uint32(len(regions)))
	for _, r := range regions {
		for _, v := range r {
			rec = be.AppendUint32(rec, uint32(v))
		}
	}
	body := be.AppendUint32(be.AppendUint32(nil, 1), uint32(len(rec)))
	return appendTrailer(data, append(body, rec...))
}

// indexedStreamSHA256 is the SHA-256 of the 1401-byte ContainerV3Indexed
// encode of corpusStreams' nine v3 planes with indexedStream's region table,
// as the last encoder that wrote the trailer produced it.
const indexedStreamSHA256 = "02be1ecc08bf99c739078ffb0b21e35cbd8183022a0c80586a75bc33984773d1"

// indexedStream is a stream at rest: corpusStreams' two-chunk v3 container
// (9 × 64×64 planes, chunks of 8 and 1) ending in the chunk-index trailer
// earlier builds appended, with the region table of three layers of three
// 64-wide planes. planes is the decode of the trailer-free container, the
// byte-exact reference for every decode path.
func indexedStream(tb testing.TB) (data []byte, planes []*frame.Plane) {
	tb.Helper()
	_, _, v3, _ := corpusStreams(tb)
	regions := make([][5]int, 9)
	for i := range regions {
		regions[i] = [5]int{i / 3, (i % 3) * 64, 0, 64, 64}
	}
	data = appendOldTrailer(tb, v3, regions)
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != indexedStreamSHA256 {
		tb.Fatalf("trailer stream (%d bytes) has SHA-256 %x, want %s", len(data), sum, indexedStreamSHA256)
	}
	planes, err := decodeAll(v3, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return data, planes
}

// TestLayoutEntriesMatchPayloads: on every golden vector and on each
// container version, Layout's entries tile the bytes between the header and
// the end of the container in chunk order, their plane spans tile the
// planes, and each entry's CRC is the CRC32C of its payload — the v3 table's
// value, or one Layout computed for v1/v2.
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
		if lay.Version != int(data[4]) || lay.TrailerOff != len(data) || lay.TrailerLen != 0 {
			t.Fatalf("%s: layout %+v of a %d-byte v%d stream", name, lay, len(data), data[4])
		}
		off, base := int64(lay.HeaderLen), 0
		for i, e := range lay.Entries {
			if e.Offset != off || e.PlaneBase != base || e.PlaneCount <= 0 {
				t.Fatalf("%s: entry %d = %+v, want offset %d, first plane %d", name, i, e, off, base)
			}
			if crc := crc32.Checksum(data[e.Offset:e.Offset+int64(e.Length)], crcTable); e.CRC != crc {
				t.Fatalf("%s: entry %d CRC %08x, payload CRC32C %08x", name, i, e.CRC, crc)
			}
			off += int64(e.Length)
			base += e.PlaneCount
		}
		if off != int64(lay.TrailerOff) || base != lay.Planes {
			t.Fatalf("%s: entries end at byte %d and plane %d, want %d and %d", name, off, base, lay.TrailerOff, lay.Planes)
		}
	}
}

// TestTrailerLayout: the stream at rest is its trailer-free twin plus the
// trailer, and Layout reports the trailer span and exactly the twin's header
// and entries, so the store splits it into the twin's blobs plus one trailer
// blob.
func TestTrailerLayout(t *testing.T) {
	data, _ := indexedStream(t)
	_, _, v3, _ := corpusStreams(t)
	if len(data) <= len(v3) || !bytes.Equal(data[:len(v3)], v3) {
		t.Fatalf("trailer stream (%d bytes) does not extend its %d-byte twin", len(data), len(v3))
	}
	lay, err := Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Layout(v3)
	if err != nil {
		t.Fatal(err)
	}
	if lay.TrailerOff != len(v3) || lay.TrailerLen != len(data)-len(v3) {
		t.Fatalf("trailer span [%d,+%d), want [%d,+%d)", lay.TrailerOff, lay.TrailerLen, len(v3), len(data)-len(v3))
	}
	if lay.Version != 3 || lay.Planes != 9 || lay.HeaderLen != twin.HeaderLen || len(lay.Entries) != 2 {
		t.Fatalf("layout = %+v, twin %+v", lay, twin)
	}
	for i := range lay.Entries {
		if lay.Entries[i] != twin.Entries[i] {
			t.Fatalf("entry %d = %+v, twin's %+v", i, lay.Entries[i], twin.Entries[i])
		}
	}
}

// TestTrailerStreamDecodes: the stream at rest decodes to the planes of its
// trailer-free twin, strict and Partial, whole and windowed, at every worker
// count.
func TestTrailerStreamDecodes(t *testing.T) {
	data, want := indexedStream(t)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, win := range [][2]int{{0, 0}, {0, 1}, {2, 6}, {7, 2}, {8, 1}} {
			first, count := win[0], win[1]
			crop := want
			if count > 0 {
				crop = want[first : first+count]
			}
			for _, partial := range []bool{false, true} {
				res, err := Decode(context.Background(), data, DecodeConfig{Workers: workers, First: first, Count: count, Partial: partial})
				if err != nil {
					t.Fatalf("workers %d window [%d,+%d) partial=%v: %v", workers, first, count, partial, err)
				}
				if !res.OK() {
					t.Fatalf("workers %d window [%d,+%d): chunk errors %v", workers, first, count, res.Errors)
				}
				requirePlanesEqual(t, "trailer stream", res.Planes, crop)
			}
		}
	}
}

// TestTrailerBodyIsInert: a trailer whose framing and CRC are valid is
// accepted whatever its body holds — including each body the old record
// parser rejected — and changes no decoded plane.
func TestTrailerBodyIsInert(t *testing.T) {
	data, want := indexedStream(t)
	_, _, v3, _ := corpusStreams(t)
	be := binary.BigEndian
	// The old body: tag 1, recLen, chunk count, then chunk 0's u64 offset
	// and u32 length at body[12:20] and body[20:24].
	body := data[len(v3)+trailerHeadLen : len(data)-trailerCRCLen]
	contradicting := append([]byte(nil), body...)
	be.PutUint32(contradicting[20:], 12345)
	wrongDims := make([][5]int, 9)
	for i := range wrongDims {
		wrongDims[i] = [5]int{0, 0, 0, 32, 32}
	}
	for name, stream := range map[string][]byte{
		"empty body":                appendTrailer(v3, nil),
		"unknown record tag":        appendTrailer(v3, be.AppendUint32(be.AppendUint32(nil, 7), 0)),
		"record header cut short":   appendTrailer(v3, []byte{0, 0, 0, 1}),
		"record runs past body":     appendTrailer(v3, be.AppendUint32(be.AppendUint32(nil, 1), 1<<20)),
		"chunk count past record":   appendTrailer(v3, be.AppendUint32(be.AppendUint32(be.AppendUint32(nil, 1), 4), 1<<30)),
		"duplicate chunk index":     appendTrailer(v3, append(append([]byte(nil), body...), body...)),
		"index contradicts table":   appendTrailer(v3, contradicting),
		"regions of the wrong dims": appendOldTrailer(t, v3, wrongDims),
	} {
		got, err := decodeAll(stream, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requirePlanesEqual(t, name, got, want)
	}
}

// TestTrailerPreservesAntiDowngrade proves reading trailers did not reopen
// the trailing-bytes hole: arbitrary trailing bytes are still ErrCorrupt on
// every version, a trailer on a v1/v2 container is ErrCorrupt, and a
// version-byte downgrade of the stream at rest still fails.
func TestTrailerPreservesAntiDowngrade(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	indexed, _ := indexedStream(t)
	trailer := append([]byte(nil), indexed[len(v3):]...)

	check := func(label string, data []byte) {
		t.Helper()
		if _, err := decodeAll(data, 2); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", label, err)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}, {"v3", v3}} {
		check(tc.name+"+garbage", append(append([]byte(nil), tc.data...), 0xAA, 0xBB, 0xCC))
	}
	// A trailer is only defined for v3.
	check("v1+trailer", append(append([]byte(nil), v1...), trailer...))
	check("v2+trailer", append(append([]byte(nil), v2...), trailer...))
	// Bytes after the trailer break the "nothing after it" rule.
	check("v3+trailer+garbage", append(append([]byte(nil), indexed...), 0x00))
	// Version-byte downgrade: the v3 chunk table and trailer no longer parse
	// under v1/v2 framing.
	for _, v := range []byte{1, 2} {
		bad := append([]byte(nil), indexed...)
		bad[4] = v
		if _, err := decodeAll(bad, 2); err == nil {
			t.Fatalf("downgrade to v%d accepted", v)
		}
	}
}

// TestTrailerFaultinject sweeps the trailer bytes of the stream at rest:
// every truncation and every bit flip inside the trailer must surface as a
// typed error on the strict path — never a panic, never silent — while the
// lenient path (Partial) drops the damaged trailer and recovers every chunk.
func TestTrailerFaultinject(t *testing.T) {
	data, planes := indexedStream(t)
	lay, err := Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	trailerOff := lay.TrailerOff

	trunc := faultinject.TruncationSweep(data, strictDecoder)
	requirePanicFree(t, "trailer truncation", trunc)
	for _, f := range trunc.Silent {
		// data[:trailerOff] is exactly the trailer-free twin — a complete,
		// valid container. Accepting it is correct; no other cut is.
		if f.Offset != trailerOff {
			t.Fatalf("strict decode accepted truncation %v", f)
		}
	}

	for off := trailerOff; off < len(data); off++ {
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
			requirePlanesEqual(t, "lenient recovery under trailer damage", res.Planes, planes)
		}
	}
}
