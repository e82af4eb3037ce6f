// Benchmarks regenerating every table and figure of the paper (one bench per
// artifact) plus codec micro-benchmarks. The experiment benches run the same
// code as `go run ./cmd/experiments`; each iteration regenerates the
// artifact, so run them with a bounded -benchtime, e.g.:
//
//	go test -bench=BenchmarkFig5 -benchtime=1x
package repro_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

var (
	ctxOnce sync.Once
	ctx     *experiments.Ctx
)

// benchCtx returns the shared quick-mode experiment context; reference-model
// training happens once and is excluded from timings via b.ResetTimer.
func benchCtx(b *testing.B) *experiments.Ctx {
	b.Helper()
	ctxOnce.Do(func() {
		ctx = experiments.NewCtx(true)
	})
	return ctx
}

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	c := benchCtx(b)
	// Warm the shared caches (corpus, models) outside the timed region.
	c.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.Run(c)
		t.Render(io.Discard)
	}
}

// One benchmark per paper artifact.
func BenchmarkFig2PipelineAblation(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3DCTOutliers(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4IntraWalkthrough(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5WeightCompression(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkTable1LowBit70B(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig6CodecSelection(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkTable2SupportMatrix(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig7OtherFamilies(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8KVCache(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9PipelineTraining(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10DataParallel(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11TrainedQuality(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12DieArea(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkTable3Energy(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkFig14BaselineGrid(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15SystemAreaEnergy(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16ClusterModel(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkThroughputMeasurement(b *testing.B) { benchExperiment(b, "throughput") }

// Codec micro-benchmarks: tensor-side encode/decode throughput, the §6.1
// quantity the hardware engines bound at 1100/1300 MB/s.
func BenchmarkEncodeThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 256
	w := tensorgen.Weights(rng, n, n)
	pix, _, _ := quant.ToUint8(w)
	planes := frame.FromMatrix(pix, n, n, 1024, 1024)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := codec.Encode(context.Background(), planes, codec.EncodeConfig{QP: 26, Profile: codec.HEVC, Tools: codec.AllTools}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 256
	w := tensorgen.Weights(rng, n, n)
	pix, _, _ := quant.ToUint8(w)
	planes := frame.FromMatrix(pix, n, n, 1024, 1024)
	stream, _, _, err := codec.Encode(context.Background(), planes, codec.EncodeConfig{QP: 26, Profile: codec.HEVC, Tools: codec.AllTools})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(context.Background(), stream, codec.DecodeConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// stackPlanes builds a multi-layer weight stack as codec planes — the
// workload the parallel engine fans out across its worker pool.
func stackPlanes(seed int64, layers, n int) []*frame.Plane {
	rng := rand.New(rand.NewSource(seed))
	var planes []*frame.Plane
	for l := 0; l < layers; l++ {
		pix, _, _ := quant.ToUint8(tensorgen.Weights(rng, n, n))
		planes = append(planes, frame.FromMatrix(pix, n, n, 1024, 1024)...)
	}
	return planes
}

// Parallel-vs-serial engine benchmarks on a multi-layer stack. The chunked
// container is byte-identical for every worker count, so these measure pure
// scheduling gains; compare MB/s:
//
//	go test -bench='EncodeStack(Serial|Parallel)' -benchtime=2x
func benchEncodeStack(b *testing.B, workers int) {
	planes := stackPlanes(5, 8, 256)
	b.SetBytes(int64(8 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := codec.Encode(context.Background(), planes, codec.EncodeConfig{QP: 26, Profile: codec.HEVC, Tools: codec.AllTools, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeStackSerial(b *testing.B)   { benchEncodeStack(b, 1) }
func BenchmarkEncodeStackParallel(b *testing.B) { benchEncodeStack(b, 0) }

func benchDecodeStack(b *testing.B, workers int) {
	planes := stackPlanes(6, 8, 256)
	stream, _, _, err := codec.Encode(context.Background(), planes, codec.EncodeConfig{QP: 26, Profile: codec.HEVC, Tools: codec.AllTools})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(context.Background(), stream, codec.DecodeConfig{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeStackSerial(b *testing.B)   { benchDecodeStack(b, 1) }
func BenchmarkDecodeStackParallel(b *testing.B) { benchDecodeStack(b, 0) }

// encodedWeightStack is the stack the repository benchmark's weights_fetch
// reads: four 256×256 layers — one chunk each — checksummed at
// QP 12 under the given entropy backend.
func encodedWeightStack(b *testing.B, backend codec.EntropyBackend) (core.Options, *core.Encoded) {
	rng := rand.New(rand.NewSource(8))
	layers, n := 4, 256
	stack := make([]*core.Tensor, layers)
	for l, data := range tensorgen.WeightStack(rng, layers, n, n, 0.3) {
		stack[l] = core.FromSlice(n, n, data)
	}
	o := core.DefaultOptions()
	o.Checksum, o.Backend = true, backend
	enc, err := o.EncodeStackCtx(context.Background(), stack, 12)
	if err != nil {
		b.Fatal(err)
	}
	return o, enc
}

// benchDecodeLayer measures the random-access read weights_fetch times: one
// layer out of the stack. At workers=1 it is the inline decode; at workers=2
// the chunk's reconstruct stage runs beside its parse (DESIGN.md §13.4).
func benchDecodeLayer(b *testing.B, backend codec.EntropyBackend) {
	o, enc := encodedWeightStack(b, backend)
	for _, workers := range []int{1, 2} {
		o.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(enc.Rows * enc.Cols * 4))
			for i := 0; i < b.N; i++ {
				if _, err := o.DecodeLayerCtx(context.Background(), enc, i%enc.Layers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeLayerCABAC(b *testing.B) { benchDecodeLayer(b, codec.BackendCABAC) }
func BenchmarkDecodeLayerRANS(b *testing.B)  { benchDecodeLayer(b, codec.BackendRANS) }

// benchDecodeWeightStack is the whole-stack restore at Workers=1: the two
// decode stages back to back on one goroutine, which is the reading that
// compares decode kernels (and the two entropy backends) without scheduling.
func benchDecodeWeightStack(b *testing.B, backend codec.EntropyBackend) {
	o, enc := encodedWeightStack(b, backend)
	o.Workers = 1
	b.SetBytes(int64(enc.Layers * enc.Rows * enc.Cols * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.DecodeStackCtx(context.Background(), enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeStackCABAC(b *testing.B) { benchDecodeWeightStack(b, codec.BackendCABAC) }
func BenchmarkDecodeStackRANS(b *testing.B)  { benchDecodeWeightStack(b, codec.BackendRANS) }

// BenchmarkStackRoundTripParallel measures the full core path (8-bit map,
// parallel encode, parallel decode, dequantize) on a layer stack.
func BenchmarkStackRoundTripParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	layers, n := 6, 192
	stack := make([]*core.Tensor, layers)
	for l := range stack {
		stack[l] = core.FromSlice(n, n, tensorgen.Weights(rng, n, n))
	}
	o := core.DefaultOptions() // Workers: 0 → GOMAXPROCS
	b.SetBytes(int64(layers * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := o.EncodeStackCtx(context.Background(), stack, 26)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.DecodeStackCtx(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTensorRoundTrip measures the full float path: 8-bit mapping,
// encode, decode, dequantize.
func BenchmarkTensorRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	t := core.FromSlice(n, n, tensorgen.Weights(rng, n, n))
	o := core.DefaultOptions()
	b.SetBytes(int64(n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := o.Encode(t, 26)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Decode(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRateControl measures the cost of the fractional-bitrate search.
func BenchmarkRateControl(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	t := core.FromSlice(n, n, tensorgen.Weights(rng, n, n))
	o := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.EncodeToBitrate(t, 2.9); err != nil {
			b.Fatal(err)
		}
	}
}
