package codec

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// The allocation regression suite pins the scratch-arena contract (DESIGN.md
// §11): once a worker's scratch is warm, encoding or decoding more blocks
// must not allocate more. The tests measure differentially — a 128×128 plane
// (16 HEVC CTUs) against a 32×32 plane (1 CTU) — so the per-call fixed costs
// (cropped output planes, the payload copy, the recon list) cancel out and
// any per-block allocation shows up as a difference.

// encodeAllocs measures steady-state allocations of encodeChunk on a warm,
// explicitly held scratch (bypassing the pool so GC-driven pool eviction
// cannot flake the count).
func encodeAllocs(planes []*frame.Plane, prof Profile, s *scratch) float64 {
	encodeChunk(context.Background(), planes, 30, prof, AllTools, nil, s) // warm this geometry
	return testing.AllocsPerRun(10, func() {
		encodeChunk(context.Background(), planes, 30, prof, AllTools, nil, s)
	})
}

func TestEncodeSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	small := []*frame.Plane{gradientPlane(rng, 32, 32)}
	large := []*frame.Plane{gradientPlane(rng, 128, 128)}
	s := newScratch()
	aSmall := encodeAllocs(small, HEVC, s)
	aLarge := encodeAllocs(large, HEVC, s)
	// 16x the blocks must not mean more allocations; the tiny slack
	// absorbs runtime-internal noise (e.g. a growing map bucket).
	if aLarge > aSmall+2 {
		t.Errorf("128x128 encode does %.0f allocs vs %.0f for 32x32 — hot path is allocating per block",
			aLarge, aSmall)
	}
	// Absolute ceiling on the per-call fixed costs: output crop plane,
	// payload copy, recon list. Catches a whole new allocation site even
	// when it is block-count independent.
	if aSmall > 16 {
		t.Errorf("%.0f fixed allocations per encodeChunk call, want <= 16", aSmall)
	}
}

// TestDecodeSteadyStateAllocationFree: a warm scratch decodes a chunk of 16
// CTUs in no more allocations than a chunk of one, under either entropy
// backend — the rANS chunk reader and its symbol buffer live in the scratch, as
// the CABAC reader does.
func TestDecodeSteadyStateAllocationFree(t *testing.T) {
	for _, tools := range []Tools{AllTools, ransTools()} {
		rng := rand.New(rand.NewSource(10))
		pc := &parsedContainer{prof: HEVC, tools: tools, qp: 30}
		var recs []*ransRecord
		build := func(w, h int) *chunkMeta {
			planes := []*frame.Plane{gradientPlane(rng, w, h)}
			payload, rec, _, _ := encodeChunk(context.Background(), planes, pc.qp, pc.prof, pc.tools, nil, newScratch())
			recs = append(recs, rec)
			return &chunkMeta{payload: payload, dims: [][2]int{{w, h}}}
		}
		small, large := build(32, 32), build(128, 128)
		if tools.Backend == BackendRANS {
			pc.ransTabs = buildRansTables(recs)
			small.payload, large.payload = recs[0].assemble(pc.ransTabs), recs[1].assemble(pc.ransTabs)
		}

		// Inline and with the reconstruct stage on its own goroutine: the batch
		// ring lives in the scratch, so the stage adds only its channels and
		// goroutine to the per-call fixed costs.
		for _, surplus := range []bool{false, true} {
			s := newScratch()
			measure := func(c *chunkMeta) float64 {
				if _, err := decodeChunkPayload(context.Background(), c, pc, surplus, nil, s); err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := decodeChunkPayload(context.Background(), c, pc, surplus, nil, s); err != nil {
						panic(err)
					}
				})
			}
			aSmall := measure(small)
			aLarge := measure(large)
			if aLarge > aSmall+2 {
				t.Errorf("%v surplus=%v: 128x128 decode does %.0f allocs vs %.0f for 32x32 — hot path is allocating per block",
					tools.Backend, surplus, aLarge, aSmall)
			}
			if aSmall > 16 {
				t.Errorf("%v surplus=%v: %.0f fixed allocations per decodeChunkPayload call, want <= 16", tools.Backend, surplus, aSmall)
			}
			t.Logf("%v surplus=%v: %.0f allocations per call", tools.Backend, surplus, aSmall)
		}
	}
}

// TestScratchPoolReuse: the public boundary must reach steady state too —
// after a warm-up call, repeated Encode/Decode cycles should stay within the
// per-call fixed budget because the pool hands back warm scratches.
func TestScratchPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	planes := []*frame.Plane{gradientPlane(rng, 64, 64)}
	data, _, err := encodeAs(ContainerLegacy, planes, 30, HEVC, AllTools, 1) // warm the pool
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAll(data, 0); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun forces a GC between runs, which may evict the pooled
	// scratch; tolerate one full scratch re-allocation's worth of fixed
	// costs but nothing that scales with block count (64 blocks here).
	a := testing.AllocsPerRun(5, func() {
		d, _, err := encodeAs(ContainerLegacy, planes, 30, HEVC, AllTools, 1)
		if err != nil {
			panic(err)
		}
		if _, err := decodeAll(d, 0); err != nil {
			panic(err)
		}
	})
	if a > 64 {
		t.Errorf("Encode+Decode round trip does %.0f allocs at steady state, want <= 64", a)
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestAppenderDecodeAllocs: a KV-shaped read — Appender.Decode of two
// 128×32 chunks on one worker — stays within its measured allocation count.
// Decoding straight from the payloads takes 14 allocations; framing them
// into a v3 container and decoding that took 20.
func TestAppenderDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute allocation counts are unstable under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	planes := []*frame.Plane{gradientPlane(rng, 128, 32), gradientPlane(rng, 128, 32)}
	app := NewAppender(24, HEVC, AllTools, 1, nil)
	payloads, _, err := app.Append(context.Background(), planes, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(50, func() {
		if _, err := app.Decode(context.Background(), 128, 32, payloads); err != nil {
			panic(err)
		}
	})
	if a > 14 {
		t.Errorf("Appender.Decode of two 128x32 chunks does %.0f allocs, want <= 14", a)
	}
	t.Logf("%.0f allocations per read", a)
}
