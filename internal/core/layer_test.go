package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
)

// layerStack builds a stack whose chunk partition splits a layer across two
// chunks: 5 layers of 64×192 split into 64×64 frames → 3 planes per layer,
// 15 planes total, chunked [0,8) and [8,15) — layer 2 (planes 6..8) spans
// the chunk boundary. This is the geometry that makes region decode and
// damage attribution non-trivial.
func layerStack(t testing.TB, backend codec.EntropyBackend) ([]*Tensor, Options, *Encoded) {
	t.Helper()
	stack := make([]*Tensor, 5)
	for i := range stack {
		stack[i] = weightTensor(int64(31+i), 64, 192)
	}
	o := DefaultOptions()
	o.MaxFrameW, o.MaxFrameH = 64, 64
	o.Checksum = true
	o.Backend = backend
	o.Workers = 2
	e, err := o.EncodeStackCtx(context.Background(), stack, 28)
	if err != nil {
		t.Fatal(err)
	}
	return stack, o, e
}

// TestDecodeLayerMatchesDecodeStack is the equivalence matrix at the core
// layer: for both entropy backends and workers 1/2/4/8, DecodeLayer(l) must
// reproduce DecodeStack's l-th tensor bit for bit.
func TestDecodeLayerMatchesDecodeStack(t *testing.T) {
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		_, o, e := layerStack(t, backend)
		full, err := o.DecodeStackCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			wo := o
			wo.Workers = workers
			for l := 0; l < e.Layers; l++ {
				got, err := wo.DecodeLayerCtx(context.Background(), e, l)
				if err != nil {
					t.Fatalf("backend=%v workers=%d DecodeLayer(%d): %v", backend, workers, l, err)
				}
				for i := range got.Data {
					if got.Data[i] != full[l].Data[i] {
						t.Fatalf("backend=%v workers=%d layer %d: value %d differs", backend, workers, l, i)
					}
				}
			}
		}
	}
}

// TestDecodeLayerIsOLayer: decoding one layer of a two-chunk stack touches
// only the chunks covering it — the codec.decode.chunks counter stays below
// the full decode's.
func TestDecodeLayerIsOLayer(t *testing.T) {
	_, o, e := layerStack(t, codec.BackendCABAC)

	chunkCount := func(f func(o Options)) int64 {
		reg := obs.NewRegistry()
		oo := o
		oo.Metrics = reg
		f(oo)
		return reg.Snapshot().Counters["codec.decode.chunks"]
	}
	fullChunks := chunkCount(func(o Options) {
		if _, err := o.DecodeStackCtx(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	})
	if fullChunks != 2 {
		t.Fatalf("full decode touched %d chunks, want 2", fullChunks)
	}
	// Layer 0 (planes 0..2) lives entirely in chunk 0.
	if n := chunkCount(func(o Options) {
		if _, err := o.DecodeLayerCtx(context.Background(), e, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DecodeLayer(0) touched %d chunks, want 1", n)
	}
	// Layer 4 (planes 12..14) lives entirely in chunk 1.
	if n := chunkCount(func(o Options) {
		if _, err := o.DecodeLayerCtx(context.Background(), e, 4); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DecodeLayer(4) touched %d chunks, want 1", n)
	}
	// Layer 2 spans the boundary: both chunks, same as full — the bound is
	// O(chunks overlapping the layer), not better.
	if n := chunkCount(func(o Options) {
		if _, err := o.DecodeLayerCtx(context.Background(), e, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("DecodeLayer(2) touched %d chunks, want 2", n)
	}

	if _, err := o.DecodeLayerCtx(context.Background(), e, -1); err == nil {
		t.Fatal("DecodeLayer(-1) accepted")
	}
	for _, l := range []int{e.Layers, math.MaxInt} {
		if _, err := o.DecodeLayerCtx(context.Background(), e, l); err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeLayer(%d) = %v, want a plain out-of-range error", l, err)
		}
	}
}

// TestPartialAttributionProperty is the satellite-2 property test: over
// random chunk damage masks, DecodeStackPartial's per-layer damage report
// must exactly match the attribution computed independently from the chunk
// table, and undamaged layers must decode identically to the clean stack.
func TestPartialAttributionProperty(t *testing.T) {
	_, o, e := layerStack(t, codec.BackendCABAC)
	full, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := codec.Layout(e.Stream)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := len(e.regions())
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		// Random non-empty damage mask over the chunks.
		var damaged []int
		for i := range lay.Entries {
			if rng.Intn(2) == 1 {
				damaged = append(damaged, i)
			}
		}
		if len(damaged) == 0 {
			damaged = []int{rng.Intn(len(lay.Entries))}
		}
		bad := append([]byte(nil), e.Stream...)
		for _, c := range damaged {
			ent := lay.Entries[c]
			bad[ent.Offset+int64(rng.Intn(ent.Length))] ^= 1 << uint(rng.Intn(8))
		}
		// Expected per-layer loss, attributed straight from the chunk table.
		wantMissing := make(map[int]int)
		for _, c := range damaged {
			ent := lay.Entries[c]
			for p := ent.PlaneBase; p < ent.PlaneBase+ent.PlaneCount; p++ {
				wantMissing[p/perLayer]++
			}
		}

		de := *e
		de.Stream = bad
		dec, report, err := o.DecodeStackPartialCtx(context.Background(), &de)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if report.FailedChunks != len(damaged) {
			t.Fatalf("trial %d: %d failed chunks, want %d (mask %v)",
				trial, report.FailedChunks, len(damaged), damaged)
		}
		gotMissing := make(map[int]int)
		for _, d := range report.Damaged {
			gotMissing[d.Layer] = d.MissingPlanes
			if d.TotalPlanes != perLayer {
				t.Fatalf("trial %d: layer %d reports %d total planes, want %d",
					trial, d.Layer, d.TotalPlanes, perLayer)
			}
		}
		if len(gotMissing) != len(wantMissing) {
			t.Fatalf("trial %d: damaged layers %v, want %v (mask %v)",
				trial, gotMissing, wantMissing, damaged)
		}
		for l, n := range wantMissing {
			if gotMissing[l] != n {
				t.Fatalf("trial %d: layer %d lost %d planes, want %d (mask %v)",
					trial, l, gotMissing[l], n, damaged)
			}
		}
		// Undamaged layers reconstruct exactly.
		for l := range dec {
			if wantMissing[l] > 0 {
				continue
			}
			for i := range dec[l].Data {
				if dec[l].Data[i] != full[l].Data[i] {
					t.Fatalf("trial %d: undamaged layer %d differs at %d (mask %v)",
						trial, l, i, damaged)
				}
			}
		}
	}
}

// TestCoreMetrics reads the core.* counters against the values they count:
// an encode's geometry and bit split from its Encoded, and what each decode
// entry point reconstructed.
func TestCoreMetrics(t *testing.T) {
	stack, o, _ := layerStack(t, codec.BackendCABAC)
	ctx := context.Background()
	counters := func(f func(o Options)) map[string]int64 {
		t.Helper()
		oo := o
		oo.Metrics = obs.NewRegistry()
		f(oo)
		return oo.Metrics.Snapshot().Counters
	}
	check := func(what string, c map[string]int64, want map[string]int64) {
		t.Helper()
		for name, v := range want {
			if c[name] != v {
				t.Errorf("%s: %s = %d, want %d", what, name, c[name], v)
			}
		}
	}

	var e *Encoded
	c := counters(func(o Options) {
		var err error
		if e, err = o.EncodeStackCtx(ctx, stack, 28); err != nil {
			t.Fatal(err)
		}
	})
	values := int64(e.Layers) * int64(e.Rows) * int64(e.Cols)
	check("EncodeStackCtx", c, map[string]int64{
		"core.encode.layers":        int64(e.Layers),
		"core.encode.values":        values,
		"core.encode.stream_bits":   8 * int64(len(e.Stream)),
		"core.encode.metadata_bits": int64(e.SizeBits() - 8*len(e.Stream)),
	})

	c = counters(func(o Options) {
		if _, err := o.DecodeStackCtx(ctx, e); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeStackCtx", c, map[string]int64{"core.decode.layers": int64(e.Layers), "core.decode.values": values})

	c = counters(func(o Options) {
		if _, err := o.DecodeLayerCtx(ctx, e, 3); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeLayerCtx", c, map[string]int64{"core.decode.layers": 1, "core.decode.values": int64(e.Rows) * int64(e.Cols)})

	// One corrupted payload byte of the v3 stream loses its chunk.
	bad := *e
	bad.Stream = append([]byte(nil), e.Stream...)
	bad.Stream[len(bad.Stream)-64] ^= 0x20
	var report *DecodeReport
	c = counters(func(o Options) {
		var err error
		if _, report, err = o.DecodeStackPartialCtx(ctx, &bad); err != nil {
			t.Fatal(err)
		}
	})
	if report.FailedChunks != 1 || len(report.Damaged) == 0 {
		t.Fatalf("corrupted chunk: report %+v", report)
	}
	check("DecodeStackPartialCtx", c, map[string]int64{
		"core.decode.layers":         int64(e.Layers),
		"core.decode.layers_damaged": int64(len(report.Damaged)),
	})
}
