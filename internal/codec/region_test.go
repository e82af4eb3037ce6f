package codec

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

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

// TestDecodeRegionIsORegion proves the acceptance bound: decoding one plane
// of a two-chunk container decodes one chunk, not two — the
// codec.decode.chunks counter counts exactly the chunks touched. The
// container ends in a trailer, which a windowed decode never looks past.
func TestDecodeRegionIsORegion(t *testing.T) {
	data, planes := indexedStream(t)

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
