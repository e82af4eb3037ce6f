package codec

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/obs"
)

// indexedStream builds one indexed multi-chunk container (9 × 64×64 planes →
// two chunks, same content as corpusStreams' v3) with a full region table.
// The returned planes are the decoded reconstruction (encoding is lossy), so
// they are the byte-exact reference for every decode path.
func indexedStream(t testing.TB) ([]byte, []*frame.Plane, []PlaneRegion) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	_ = gradientPlane(rng, 48, 40) // keep the rng phase identical to corpusStreams
	planes := make([]*frame.Plane, 9)
	regions := make([]PlaneRegion, 9)
	for i := range planes {
		planes[i] = gradientPlane(rng, 64, 64)
		regions[i] = PlaneRegion{Layer: i / 3, X0: (i % 3) * 64, Y0: 0, W: 64, H: 64}
	}
	data, _, _, err := Encode(context.Background(), planes, EncodeConfig{
		QP: 30, Profile: HEVC, Tools: AllTools, Workers: 2, Container: ContainerV3Indexed, Regions: regions})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeAll(data, 2)
	if err != nil {
		t.Fatalf("decoding the indexed stream: %v", err)
	}
	return data, rec, regions
}

func requirePlanesEqual(t *testing.T, label string, got, want []*frame.Plane) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d planes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].W != want[i].W || got[i].H != want[i].H {
			t.Fatalf("%s: plane %d is %dx%d, want %dx%d", label, i, got[i].W, got[i].H, want[i].W, want[i].H)
		}
		if !bytes.Equal(got[i].Pix, want[i].Pix) {
			t.Fatalf("%s: plane %d pixel mismatch", label, i)
		}
	}
}

// TestIndexedStreamAcceptedByStrictDecoders is the satellite-1 compat
// regression: before the trailer-aware exact-length rule, every strict
// decoder rejected an indexed container with "trailing bytes after container
// end" (PR 2's anti-downgrade check). An indexed stream must now decode
// byte-identically to its un-indexed twin, strict and Partial alike.
func TestIndexedStreamAcceptedByStrictDecoders(t *testing.T) {
	data, planes, _ := indexedStream(t)
	_, _, v3, _ := corpusStreams(t)

	// The indexed container is its un-indexed twin plus a trailer: same
	// header, same payloads, so a reader that strips the trailer sees
	// bit-identical v3 bytes.
	if !bytes.Equal(data[:len(v3)], v3) {
		t.Fatalf("indexed container does not extend the un-indexed one (diverges within the first %d bytes)", len(v3))
	}
	if len(data) == len(v3) {
		t.Fatal("indexed container has no trailer")
	}

	want, err := decodeAll(v3, 2)
	if err != nil {
		t.Fatal(err)
	}
	requirePlanesEqual(t, "un-indexed reference", want, planes)

	for _, workers := range []int{1, 2, 4, 8} {
		got, err := decodeAll(data, workers)
		if err != nil {
			t.Fatalf("decodeAll(indexed, %d): %v", workers, err)
		}
		requirePlanesEqual(t, "decodeAll(indexed)", got, want)

		res, err := Decode(context.Background(), data, DecodeConfig{Workers: workers, Partial: true})
		if err != nil {
			t.Fatalf("partial decode(indexed, %d): %v", workers, err)
		}
		if !res.OK() {
			t.Fatalf("partial decode(indexed, %d): %d chunk errors, first: %v", workers, len(res.Errors), res.Errors[0])
		}
		requirePlanesEqual(t, "partial decode(indexed)", res.Planes, want)
	}
}

// TestTrailerPreservesAntiDowngrade proves relaxing the exact-length rule
// did not reopen the trailing-bytes hole: arbitrary trailing bytes are still
// ErrCorrupt on every version, a trailer on a v1/v2 container is ErrCorrupt,
// and a version-byte downgrade of an indexed container still fails.
func TestTrailerPreservesAntiDowngrade(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	indexed, _, _ := indexedStream(t)
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
	// A well-formed trailer is only defined for v3.
	check("v1+trailer", append(append([]byte(nil), v1...), trailer...))
	check("v2+trailer", append(append([]byte(nil), v2...), trailer...))
	// Bytes after the trailer break the "nothing after it" rule.
	check("v3+trailer+garbage", append(append([]byte(nil), indexed...), 0x00))
	// Version-byte downgrade of an indexed stream: the v3 chunk table and
	// trailer no longer parse under v1/v2 framing.
	for _, v := range []byte{1, 2} {
		bad := append([]byte(nil), indexed...)
		bad[4] = v
		if _, err := decodeAll(bad, 2); err == nil {
			t.Fatalf("downgrade to v%d accepted", v)
		}
	}
}

// TestReadIndexAndLayout pins the trailer contents: the index restates the
// chunk table with absolute offsets and carries the encoder's region rects,
// and Layout agrees with it byte for byte.
func TestReadIndexAndLayout(t *testing.T) {
	data, _, regions := indexedStream(t)
	_, _, v3, _ := corpusStreams(t)

	lay, err := Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	idx := lay.Index
	if idx == nil {
		t.Fatal("Layout(indexed).Index = nil")
	}
	if len(idx.Entries) != 2 {
		t.Fatalf("index has %d chunks, want 2", len(idx.Entries))
	}
	if len(idx.Regions) != len(regions) {
		t.Fatalf("index has %d regions, want %d", len(idx.Regions), len(regions))
	}
	for i, r := range idx.Regions {
		if r != regions[i] {
			t.Fatalf("region %d = %+v, want %+v", i, r, regions[i])
		}
	}
	if lay.Version != 3 || lay.Planes != 9 || lay.Index == nil {
		t.Fatalf("layout = %+v", lay)
	}
	if lay.TrailerOff != len(v3) || lay.TrailerLen != len(data)-len(v3) {
		t.Fatalf("trailer span [%d,+%d), want [%d,+%d)", lay.TrailerOff, lay.TrailerLen, len(v3), len(data)-len(v3))
	}
	planeBase := 0
	for i, e := range lay.Entries {
		if e != idx.Entries[i] {
			t.Fatalf("layout entry %d = %+v, index says %+v", i, e, idx.Entries[i])
		}
		if e.PlaneBase != planeBase {
			t.Fatalf("entry %d planeBase = %d, want %d", i, e.PlaneBase, planeBase)
		}
		planeBase += e.PlaneCount
		// Offsets address the same payload bytes in the indexed and
		// un-indexed twin.
		if !bytes.Equal(data[e.Offset:e.Offset+int64(e.Length)], v3[e.Offset:e.Offset+int64(e.Length)]) {
			t.Fatalf("entry %d payload bytes diverge from the un-indexed twin", i)
		}
	}
	if planeBase != 9 {
		t.Fatalf("entries cover %d planes, want 9", planeBase)
	}

	// Un-indexed containers: no index, but Layout still computes entries.
	lay2, err := Layout(v3)
	if err != nil {
		t.Fatal(err)
	}
	if lay2.Index != nil || lay2.TrailerLen != 0 || len(lay2.Entries) != len(lay.Entries) {
		t.Fatalf("un-indexed layout = %+v", lay2)
	}
	for i := range lay2.Entries {
		if lay2.Entries[i] != lay.Entries[i] {
			t.Fatalf("un-indexed entry %d = %+v, want %+v", i, lay2.Entries[i], lay.Entries[i])
		}
	}
}

// TestDecodeRegionIsORegion proves the acceptance bound: decoding one plane
// of a two-chunk container decodes one chunk, not two — the
// codec.decode.chunks counter counts exactly the chunks touched.
func TestDecodeRegionIsORegion(t *testing.T) {
	data, planes, _ := indexedStream(t)

	chunkCount := func(f func(reg *obs.Registry)) int64 {
		reg := obs.NewRegistry()
		f(reg)
		return reg.Snapshot().Counters["codec.decode.chunks"]
	}

	fullChunks := chunkCount(func(reg *obs.Registry) {
		if _, err := Decode(context.Background(), data, DecodeConfig{Workers: 2, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
	})
	if fullChunks != 2 {
		t.Fatalf("full decode touched %d chunks, want 2", fullChunks)
	}
	// Plane 0 lives in chunk 0 (planes 0..7): exactly one chunk decoded.
	regionChunks := chunkCount(func(reg *obs.Registry) {
		got, err := Decode(context.Background(), data, DecodeConfig{Workers: 2, Metrics: reg, First: 0, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		requirePlanesEqual(t, "plane 0", got.Planes, planes[:1])
	})
	if regionChunks != 1 {
		t.Fatalf("region decode touched %d chunks, want 1", regionChunks)
	}
	// Plane 8 lives alone in chunk 1.
	lastChunks := chunkCount(func(reg *obs.Registry) {
		got, err := Decode(context.Background(), data, DecodeConfig{Workers: 2, Metrics: reg, First: 8, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		requirePlanesEqual(t, "plane 8", got.Planes, planes[8:])
	})
	if lastChunks != 1 {
		t.Fatalf("last-plane decode touched %d chunks, want 1", lastChunks)
	}

	// Out-of-range windows are caller errors, never panics — and never part
	// of the decode taxonomy. ({0, 0} is no longer one: the zero window is
	// DecodeConfig's "every plane".)
	for _, win := range [][2]int{{-1, 1}, {1, 0}, {0, -1}, {9, 1}, {8, 2}, {1, int(^uint(0) >> 1)}} {
		for _, partial := range []bool{false, true} {
			_, err := Decode(context.Background(), data, DecodeConfig{Workers: 2, First: win[0], Count: win[1], Partial: partial})
			if err == nil {
				t.Fatalf("Decode accepted window [%d,+%d) (partial=%v)", win[0], win[1], partial)
			}
			if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) {
				t.Fatalf("window [%d,+%d): caller error %v matches the decode taxonomy", win[0], win[1], err)
			}
		}
	}
}

// TestTrailerFaultinject sweeps the trailer bytes (satellite 4): every
// truncation and every bit flip inside the trailer must surface as a typed
// error on the strict path — never a panic, never silent — while the lenient
// path (Partial) must still recover every chunk, since the index is
// only an accelerator.
func TestTrailerFaultinject(t *testing.T) {
	data, planes, _ := indexedStream(t)
	lay, err := Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	trailerOff := lay.TrailerOff

	// Truncations that cut into the trailer (keep at least the payloads).
	trunc := faultinject.TruncationSweep(data, strictDecoder)
	requirePanicFree(t, "trailer truncation", trunc)
	for _, f := range trunc.Silent {
		if f.Offset > trailerOff {
			t.Fatalf("strict decode accepted trailer truncation %v", f)
		}
		if f.Offset != trailerOff {
			t.Fatalf("strict decode accepted truncation %v", f)
		}
		// data[:trailerOff] is exactly the un-indexed twin — a complete,
		// valid container. Accepting it is correct.
	}

	// Bit flips confined to the trailer: strict rejects every one with a
	// typed error, lenient recovers all planes.
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
