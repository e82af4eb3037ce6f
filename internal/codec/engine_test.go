package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// mixedPlanes builds a multi-plane stack with varied content and sizes,
// including CTU-unaligned dims. Every plane carries at least minChunkPixels
// pixels so the greedy partition assigns one chunk per plane and the tests
// exercise the genuinely multi-chunk (version-2) path.
func mixedPlanes(seed int64) []*frame.Plane {
	rng := rand.New(rand.NewSource(seed))
	planes := []*frame.Plane{
		gradientPlane(rng, 192, 192),
		channelPlane(rng, 224, 160),
		noisePlane(rng, 181, 182),
		gradientPlane(rng, 200, 168),
		channelPlane(rng, 192, 192),
		noisePlane(rng, 129, 256),
	}
	for _, p := range planes {
		if p.W*p.H < minChunkPixels {
			panic("mixedPlanes: plane below chunk floor")
		}
	}
	return planes
}

// TestChunkSpansGrouping pins the partition rule: small planes batch until
// the pixel floor is reached, big planes chunk one-per-plane, and inter
// prediction collapses everything into a single chunk.
func TestChunkSpansGrouping(t *testing.T) {
	small := make([]*frame.Plane, 6)
	for i := range small {
		small[i] = frame.NewPlane(64, 64) // 4096 px each, 24576 total
	}
	if got := chunkSpans(small, AllTools); len(got) != 1 || got[0] != [2]int{0, 6} {
		t.Fatalf("six small planes should form one chunk, got %v", got)
	}

	big := []*frame.Plane{frame.NewPlane(192, 192), frame.NewPlane(192, 192), frame.NewPlane(192, 192)}
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	got := chunkSpans(big, AllTools)
	if len(got) != len(want) {
		t.Fatalf("big planes: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("big planes: got %v, want %v", got, want)
		}
	}

	// Mixed: two small planes ride along with the preceding big one until
	// the floor is crossed; a trailing remainder still gets a chunk.
	mixed := []*frame.Plane{
		frame.NewPlane(64, 64),   // 4096   } chunk 0 (crosses floor at the big plane)
		frame.NewPlane(192, 192), // 36864  }
		frame.NewPlane(64, 64),   // 4096   } chunk 1 (trailing remainder)
	}
	gotM := chunkSpans(mixed, AllTools)
	if len(gotM) != 2 || gotM[0] != [2]int{0, 2} || gotM[1] != [2]int{2, 3} {
		t.Fatalf("mixed planes: got %v", gotM)
	}

	inter := Tools{Partitioning: true, Transform: true, IntraPred: true, InterPred: true, CABAC: true}
	if got := chunkSpans(big, inter); len(got) != 1 || got[0] != [2]int{0, 3} {
		t.Fatalf("inter prediction must serialize into one chunk, got %v", got)
	}
}

// TestParallelReconstructionMatchesSerialV1 checks that the chunked engine
// reconstructs exactly what one substream over all planes (the shape of a
// historical multi-plane version-1 stream, which chunkSpans no longer
// produces) reconstructs: entropy contexts differ per chunk (bits change) but
// RD decisions and therefore pixels are identical.
func TestParallelReconstructionMatchesSerialV1(t *testing.T) {
	planes := mixedPlanes(101)
	_, _, serialRecs, err := encodeChunk(context.Background(), planes, 24, HEVC, AllTools, nil, newScratch())
	if err != nil {
		t.Fatal(err)
	}
	stV1 := computeStats(planes, serialRecs, 0)
	parallel, stV2, err := encodeAs(ContainerLegacy, planes, 24, HEVC, AllTools, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stV2.Chunks != len(planes) {
		t.Fatalf("chunked encode produced %d chunks, want %d", stV2.Chunks, len(planes))
	}
	if stV1.MSE != stV2.MSE {
		t.Fatalf("MSE diverged between engines: v1 %.6f vs v2 %.6f", stV1.MSE, stV2.MSE)
	}
	decParallel, err := decodeAll(parallel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialRecs) != len(decParallel) {
		t.Fatalf("plane count %d vs %d", len(serialRecs), len(decParallel))
	}
	for i := range serialRecs {
		if !serialRecs[i].Equal(decParallel[i]) {
			t.Fatalf("plane %d: parallel reconstruction differs from serial", i)
		}
	}
}

// TestChunkedRoundTripToolCombos runs the v2 container through the tool
// ablation grid, including the inter-prediction case that collapses to a
// single chunk.
func TestChunkedRoundTripToolCombos(t *testing.T) {
	planes := mixedPlanes(102)
	combos := []Tools{
		{},
		{CABAC: true},
		{Transform: true, CABAC: true},
		{Partitioning: true, Transform: true, CABAC: true},
		AllTools,
		{Partitioning: true, Transform: true, IntraPred: true, InterPred: true, CABAC: true},
		{Partitioning: true, Transform: true, IntraPred: true},
	}
	for _, tc := range combos {
		data, st, err := encodeAs(ContainerLegacy, planes, 24, HEVC, tc, 4)
		if err != nil {
			t.Fatalf("tools %+v: %v", tc, err)
		}
		wantChunks := len(planes)
		if tc.InterPred {
			wantChunks = 1
		}
		if st.Chunks != wantChunks {
			t.Fatalf("tools %+v: %d chunks, want %d", tc, st.Chunks, wantChunks)
		}
		if got := decodeMSE(t, data, planes); got != st.MSE {
			t.Fatalf("tools %+v: decoded MSE %.6f != encoder MSE %.6f", tc, got, st.MSE)
		}
	}
}

// TestChunkedAllProfiles exercises the v2 container across the three
// hardware profiles.
func TestChunkedAllProfiles(t *testing.T) {
	planes := mixedPlanes(104)
	for _, prof := range []Profile{H264, HEVC, AV1} {
		data, st, err := encodeAs(ContainerLegacy, planes, 24, prof, AllTools, 4)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if got := decodeMSE(t, data, planes); got != st.MSE {
			t.Fatalf("%s: MSE mismatch %.6f vs %.6f", prof.Name, got, st.MSE)
		}
	}
}

// TestChunkedRejectsCorruptContainers fuzzes the v2 structural invariants:
// truncation, chunk-table inconsistencies and bogus versions must error, not
// panic.
func TestChunkedRejectsCorruptContainers(t *testing.T) {
	planes := mixedPlanes(105)
	data, _, err := encodeAs(ContainerLegacy, planes, 26, HEVC, AllTools, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every boundary region.
	for _, n := range []int{8, 12, 20, len(data) / 2, len(data) - 1} {
		if _, err := decodeAll(data[:n], 0); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}

	// Future version byte.
	bad := append([]byte(nil), data...)
	bad[4] = 3
	if _, err := decodeAll(bad, 0); err == nil {
		t.Fatal("unknown version accepted")
	}

	// Chunk count exceeding the plane count.
	bad = append([]byte(nil), data...)
	chunkCountOff := 8 + 4 + 8*len(planes)
	binary.BigEndian.PutUint32(bad[chunkCountOff:], uint32(len(planes)+1))
	if _, err := decodeAll(bad, 0); err == nil {
		t.Fatal("oversized chunk count accepted")
	}

	// Per-chunk plane counts that do not sum to nPlanes.
	bad = append([]byte(nil), data...)
	binary.BigEndian.PutUint32(bad[chunkCountOff+4:], 2) // first chunk claims 2 planes
	if _, err := decodeAll(bad, 0); err == nil {
		t.Fatal("inconsistent chunk plane counts accepted")
	}

	// Payload length pointing past the container.
	bad = append([]byte(nil), data...)
	binary.BigEndian.PutUint32(bad[chunkCountOff+8:], uint32(len(data)))
	if _, err := decodeAll(bad, 0); err == nil {
		t.Fatal("overlong chunk payload accepted")
	}
}

// TestChunkedAwkwardShapes covers awkward shapes through the chunked
// engine: single-pixel, row and column vectors, and dims not a multiple of
// the CTU.
func TestChunkedAwkwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	shapes := [][2]int{{1, 1}, {1, 100}, {100, 1}, {7, 3}, {31, 65}, {33, 31}}
	var planes []*frame.Plane
	for _, s := range shapes {
		planes = append(planes, noisePlane(rng, s[0], s[1]))
	}
	serial, stS, err := encodeAs(ContainerLegacy, planes, 20, HEVC, AllTools, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, stP, err := encodeAs(ContainerLegacy, planes, 20, HEVC, AllTools, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("awkward shapes: serial and parallel streams differ")
	}
	if stS != stP {
		t.Fatalf("awkward shapes: stats differ %+v vs %+v", stS, stP)
	}
	if got := decodeMSE(t, parallel, planes); got != stP.MSE {
		t.Fatalf("awkward shapes: decode MSE %.6f != %.6f", got, stP.MSE)
	}
}

// TestEncodeParallelValidation pins Encode's precondition checks.
func TestEncodeParallelValidation(t *testing.T) {
	if _, _, err := encodeAs(ContainerLegacy, nil, 24, HEVC, AllTools, 4); err == nil {
		t.Fatal("empty plane list accepted")
	}
	p := frame.NewPlane(16, 16)
	if _, _, err := encodeAs(ContainerLegacy, []*frame.Plane{p}, 99, HEVC, AllTools, 4); err == nil {
		t.Fatal("out-of-range qp accepted")
	}
	big := frame.NewPlane(8192+32, 16)
	if _, _, err := encodeAs(ContainerLegacy, []*frame.Plane{big}, 24, HEVC, AllTools, 4); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
