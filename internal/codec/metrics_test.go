package codec

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// metricsPlanes builds n planes big enough that chunkSpans assigns each a
// chunk of its own (>= minChunkPixels), so the chunked container and its
// worker pool — not the single-chunk v1 fallback — are what gets measured.
func metricsPlanes(n int) []*frame.Plane {
	rng := rand.New(rand.NewSource(42))
	planes := make([]*frame.Plane, n)
	for i := range planes {
		planes[i] = channelPlane(rng, 192, 192)
	}
	return planes
}

// TestMetricsPopulateOnEncodeDecode checks the taxonomy end to end: a
// round-trip with a live registry populates the geometry counters, the
// per-stage histograms, the bit accounts and the pool stats, with the bit
// accounts consistent with the emitted stream.
func TestMetricsPopulateOnEncodeDecode(t *testing.T) {
	planes := metricsPlanes(3)
	reg := obs.NewRegistry()
	data, st, _, err := Encode(context.Background(), planes, EncodeConfig{QP: 30, Profile: HEVC, Tools: AllTools, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(context.Background(), data, DecodeConfig{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()

	for _, c := range []string{
		"codec.encode.calls", "codec.encode.planes", "codec.encode.pixels",
		"codec.encode.chunks", "codec.encode.bytes",
		"codec.encode.bits.container", "codec.encode.bits.residual",
		"codec.encode.pool.busy_ns", "codec.encode.pool.wall_ns",
		"codec.decode.calls", "codec.decode.planes", "codec.decode.chunks",
		"codec.decode.pool.busy_ns", "codec.decode.pool.wall_ns",
	} {
		if s.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, s.Counters[c])
		}
	}
	for _, h := range []string{
		"codec.encode.stage.intra_search_ns", "codec.encode.stage.transform_quant_ns",
		"codec.encode.stage.entropy_ns", "codec.encode.stage.container_ns",
		"codec.encode.chunk_ns", "codec.encode.pool.workers",
		"codec.decode.stage.parse_ns", "codec.decode.chunk_ns",
		"codec.decode.stage.entropy_ns", "codec.decode.stage.reconstruct_ns",
	} {
		if s.Histograms[h].Count <= 0 {
			t.Errorf("histogram %s empty", h)
		}
	}
	if got := s.Counters["codec.encode.planes"]; got != 3 {
		t.Errorf("encode.planes = %d, want 3", got)
	}
	if got := s.Counters["codec.encode.pixels"]; got != 3*192*192 {
		t.Errorf("encode.pixels = %d, want %d", got, 3*192*192)
	}
	if got := s.Counters["codec.encode.bytes"]; got != int64(len(data)) {
		t.Errorf("encode.bytes = %d, want stream length %d", got, len(data))
	}
	if got := s.Counters["codec.encode.chunks"]; got != int64(st.Chunks) {
		t.Errorf("encode.chunks = %d, want Stats.Chunks %d", got, st.Chunks)
	}
	// Bit accounts must stay within the stream: framing plus all syntax
	// sites can never exceed the emitted bits, and must cover most of them
	// (the only unattributed bits are per-chunk entropy-coder flush slack).
	attributed := s.Counters["codec.encode.bits.container"] +
		s.Counters["codec.encode.bits.partition"] +
		s.Counters["codec.encode.bits.mode"] +
		s.Counters["codec.encode.bits.residual"]
	total := int64(len(data)) * 8
	if attributed > total {
		t.Errorf("attributed bits %d exceed stream bits %d", attributed, total)
	}
	if attributed < total-64*int64(st.Chunks) {
		t.Errorf("attributed bits %d leave > %d bits/chunk unaccounted (stream %d)",
			attributed, 64, total)
	}
	// No decode errors on a clean stream.
	for _, c := range []string{
		"codec.decode.errors.corrupt", "codec.decode.errors.truncated",
		"codec.decode.errors.checksum",
	} {
		if s.Counters[c] != 0 {
			t.Errorf("clean decode bumped %s = %d", c, s.Counters[c])
		}
	}
	// Utilization is well-formed: busy <= wall.
	if b, w := s.Counters["codec.encode.pool.busy_ns"], s.Counters["codec.encode.pool.wall_ns"]; b > w {
		t.Errorf("encode pool busy %d > wall %d", b, w)
	}
}

// TestDecodeStageMetrics pins the decode stage split: one entropy and one
// reconstruct observation per chunk on either path, and a staged chunk's
// goroutine accounted as one more pool slot — busy no longer than it lived,
// so utilization stays a ratio.
func TestDecodeStageMetrics(t *testing.T) {
	data, _, err := encodeAs(ContainerLegacy, metricsPlanes(2), 30, HEVC, AllTools, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		if _, err := Decode(context.Background(), data, DecodeConfig{Workers: workers, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		s := reg.Snapshot()
		for _, h := range []string{"codec.decode.stage.entropy_ns", "codec.decode.stage.reconstruct_ns"} {
			if got := s.Histograms[h]; got.Count != 2 || got.Sum <= 0 {
				t.Errorf("workers=%d: %s has %d observations summing to %d, want one per chunk", workers, h, got.Count, got.Sum)
			}
		}
		staged := int64(0)
		if workers > 2 {
			staged = 2
		}
		if got := s.Counters["codec.decode.pipelined_chunks"]; got != staged {
			t.Errorf("workers=%d: pipelined_chunks = %d, want %d", workers, got, staged)
		}
		busy, wall := s.Counters["codec.decode.pool.busy_ns"], s.Counters["codec.decode.pool.wall_ns"]
		if busy <= 0 || busy > wall {
			t.Errorf("workers=%d: pool busy %d, wall %d", workers, busy, wall)
		}
		if recon := s.Histograms["codec.decode.stage.reconstruct_ns"].Sum; staged > 0 && busy < recon {
			t.Errorf("workers=%d: pool busy %d leaves out the stage goroutines' %d", workers, busy, recon)
		}
	}
}

// TestMetricsErrorTaxonomy checks that decode failures land on the right
// taxonomy counter, and that partial decode accounts its losses.
func TestMetricsErrorTaxonomy(t *testing.T) {
	planes := metricsPlanes(3)
	v3, _, err := encodeAs(ContainerV3, planes, 30, HEVC, AllTools, 2)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	strict := DecodeConfig{Workers: 1, Metrics: reg}
	// Truncated: cut the stream mid-payload.
	if _, err := Decode(context.Background(), v3[:len(v3)-9], strict); err == nil {
		t.Fatal("truncated stream decoded")
	}
	// Checksum: flip a bit in the last chunk's payload.
	bad := append([]byte(nil), v3...)
	bad[len(bad)-9] ^= 0x10
	if _, err := Decode(context.Background(), bad, strict); err == nil {
		t.Fatal("damaged stream decoded")
	}
	// Corrupt: garbage magic.
	if _, err := Decode(context.Background(), []byte("not a stream at all"), strict); err == nil {
		t.Fatal("garbage decoded")
	}
	s := reg.Snapshot()
	if s.Counters["codec.decode.errors.truncated"] != 1 {
		t.Errorf("errors.truncated = %d, want 1", s.Counters["codec.decode.errors.truncated"])
	}
	if s.Counters["codec.decode.errors.checksum"] != 1 {
		t.Errorf("errors.checksum = %d, want 1", s.Counters["codec.decode.errors.checksum"])
	}
	if s.Counters["codec.decode.errors.corrupt"] != 1 {
		t.Errorf("errors.corrupt = %d, want 1", s.Counters["codec.decode.errors.corrupt"])
	}

	// Partial decode on the checksum-damaged stream: one chunk lost, its
	// planes accounted, the taxonomy bumped.
	reg2 := obs.NewRegistry()
	res, err := Decode(context.Background(), bad, DecodeConfig{Workers: 1, Metrics: reg2, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	s2 := reg2.Snapshot()
	if got := s2.Counters["codec.decode.partial.chunks_lost"]; got != int64(len(res.Errors)) {
		t.Errorf("partial.chunks_lost = %d, want %d", got, len(res.Errors))
	}
	lostPlanes := int64(len(res.Planes) - res.Recovered())
	if got := s2.Counters["codec.decode.partial.planes_lost"]; got != lostPlanes {
		t.Errorf("partial.planes_lost = %d, want %d", got, lostPlanes)
	}
	if s2.Counters["codec.decode.errors.checksum"] == 0 {
		t.Error("partial decode did not classify the chunk failure")
	}
}

// TestDecodeCallsCountEveryInvocation pins the codec.decode.calls definition
// (metrics.go): one increment per Decode invocation, on entry, whatever the
// outcome and whatever the DecodeConfig. Before the single decode core, a
// header-CRC failure was a "call" on the strict whole-stream path but not on
// the windowed or Partial ones; each failure class is a row here, and the
// header-CRC class is a row per path.
func TestDecodeCallsCountEveryInvocation(t *testing.T) {
	v3, _, err := encodeAs(ContainerV3, metricsPlanes(3), 30, HEVC, AllTools, 2)
	if err != nil {
		t.Fatal(err)
	}
	flipped := func(off int) []byte {
		bad := append([]byte(nil), v3...)
		bad[off] ^= 0x01
		return bad
	}
	headerCRC := flipped(15)         // a dim byte: only the header CRC knows
	chunkCRC := flipped(len(v3) - 9) // inside the last chunk's payload
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, row := range []struct {
		name    string
		ctx     context.Context
		data    []byte
		cfg     DecodeConfig
		counter string // the one errors.* counter expected at 1; "" = none
		callErr bool
	}{
		{"clean", context.Background(), v3, DecodeConfig{}, "", false},
		{"bad magic", context.Background(), []byte("not a stream at all"), DecodeConfig{}, "corrupt", true},
		{"short preamble", context.Background(), v3[:6], DecodeConfig{}, "truncated", true},
		{"truncated chunk table", context.Background(), v3[:40], DecodeConfig{}, "truncated", true},
		{"header CRC, strict", context.Background(), headerCRC, DecodeConfig{}, "checksum", true},
		{"header CRC, window", context.Background(), headerCRC, DecodeConfig{First: 0, Count: 1}, "checksum", true},
		{"header CRC, partial", context.Background(), headerCRC, DecodeConfig{Partial: true}, "checksum", true},
		{"chunk CRC, strict", context.Background(), chunkCRC, DecodeConfig{}, "checksum", true},
		{"chunk CRC, partial", context.Background(), chunkCRC, DecodeConfig{Partial: true}, "checksum", false},
		{"canceled", canceled, v3, DecodeConfig{}, "canceled", true},
		{"window out of range", context.Background(), v3, DecodeConfig{First: 5, Count: 1}, "", true},
	} {
		reg := obs.NewRegistry()
		row.cfg.Workers, row.cfg.Metrics = 1, reg
		_, err := Decode(row.ctx, row.data, row.cfg)
		if (err != nil) != row.callErr {
			t.Errorf("%s: err = %v, want error = %v", row.name, err, row.callErr)
		}
		s := reg.Snapshot()
		if got := s.Counters["codec.decode.calls"]; got != 1 {
			t.Errorf("%s: decode.calls = %d, want 1", row.name, got)
		}
		for _, class := range []string{"corrupt", "truncated", "checksum", "canceled"} {
			want := int64(0)
			if class == row.counter {
				want = 1
			}
			if got := s.Counters["codec.decode.errors."+class]; got != want {
				t.Errorf("%s: errors.%s = %d, want %d", row.name, class, got, want)
			}
		}
	}
}

// BenchmarkEncodeDisabledMetrics is the exact BenchmarkEncodeHEVC workload
// (same seed, geometry and QP, nil registry), kept as the named baseline for
// BenchmarkEncodeEnabledMetrics: the zero-cost-when-disabled contract is that
// a nil EncodeConfig.Metrics costs one pointer check per record site.
func BenchmarkEncodeDisabledMetrics(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p := gradientPlane(rng, 128, 128)
	b.SetBytes(int64(p.W * p.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Encode(context.Background(), []*frame.Plane{p}, EncodeConfig{QP: 28, Profile: HEVC, Tools: AllTools}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeEnabledMetrics is the same workload with a live registry,
// bounding the cost of enabling collection.
func BenchmarkEncodeEnabledMetrics(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p := gradientPlane(rng, 128, 128)
	reg := obs.NewRegistry()
	b.SetBytes(int64(p.W * p.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Encode(context.Background(), []*frame.Plane{p}, EncodeConfig{QP: 28, Profile: HEVC, Tools: AllTools, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}
