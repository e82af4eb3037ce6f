package train

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
)

// bucketCols is the width gradient buckets are reshaped to before
// compression; 128 keeps frames near-square for typical model sizes.
const bucketCols = 128

// DPConfig configures data-parallel training.
type DPConfig struct {
	Replicas int // ≥ 1
	Batch    int // per-replica batch size, ≥ 1
}

// DPResult summarizes a data-parallel run, including the collective's wire
// telemetry, which the cluster model consumes to project wall-clock at scale
// (cluster.MeasuredCodec).
type DPResult struct {
	Curve    []CurvePoint
	FinalPPL float64
	// AvgBits is the average accounted wire bits per bucket value that
	// traveled the ring, the bucket's zero padding included: 16 for the raw
	// codec's FP16 link model, 0 when nothing traveled (a single replica
	// sends no frame).
	AvgBits float64
	// WireBits is the total accounted bits that traveled the ring.
	WireBits int64
	// EncodeMBps is the measured segment-encode throughput in MB/s of
	// float32 input (summed worker CPU time, so it is per-core throughput).
	EncodeMBps float64
}

// RunDataParallel trains with cfg.Replicas workers — synchronous data
// parallelism with a lossy all-reduce. Each replica computes gradients on its
// own batch; its bucket (all weight matrices ≥8×8, flattened) is reduced on a
// live allreduce.Ring — one goroutine per replica exchanging codec-compressed
// segments over in-process channels — and the mean drives the shared
// optimizer. Small tensors (biases, LayerNorms) always travel in FP16,
// matching how the gradient-compression literature treats them.
//
// rcfg is the one place gradient compression is chosen: rcfg.Codec (nil means
// allreduce.RawCodec, the uncompressed FP16 link) compresses inside the
// collective, on live segment traffic, with rcfg.ErrorFeedback optional.
// rcfg.Workers/Rows/Cols are derived from cfg and the model; setting them is
// an error. onStep (optional) fires after every optimizer step, which is
// where warm-up-based baselines freeze optimizer state.
func RunDataParallel(ctx context.Context, m *nn.Transformer, corpus *data.Corpus,
	opt nn.Optimizer, cfg DPConfig, rcfg allreduce.Config, steps int, seed int64,
	onStep func(step int)) (*DPResult, error) {

	if cfg.Replicas < 1 || cfg.Batch < 1 {
		return nil, errors.New("train: Replicas and Batch must be at least 1")
	}
	if rcfg.Workers != 0 || rcfg.Rows != 0 || rcfg.Cols != 0 {
		return nil, errors.New("train: ring geometry is derived from DPConfig and the model; leave Workers/Rows/Cols zero")
	}
	if rcfg.Codec == nil {
		rcfg.Codec = allreduce.RawCodec()
	}

	rng := rand.New(rand.NewSource(seed))
	res := &DPResult{}
	params := m.Params()
	var wireVals, encBytes, encNs int64
	lossEMA := 0.0

	// The bucket buffer is hoisted out of the step loop: gather/scatter
	// reuse one bucketRows×bucketCols Mat for the whole run (pinned by an
	// AllocsPerRun test).
	bb := newBucketBuffer(params)

	rcfg.Workers = cfg.Replicas
	rcfg.Rows = bb.mat.R
	rcfg.Cols = bb.mat.C
	ring, err := allreduce.New(rcfg)
	if err != nil {
		return nil, err
	}

	// Per-replica ring buffers, allocated once. ringIn doubles as ringOut:
	// the collective documents that out may alias in.
	ringIn := make([][]float32, cfg.Replicas)
	for r := range ringIn {
		ringIn[r] = make([]float32, len(bb.mat.V))
	}

	// Small (non-bucketed) parameters reduce serially in replica order —
	// the literature ships them uncompressed, and they are a rounding error
	// of the traffic.
	sum := make([]*nn.Mat, len(params))
	for i, p := range params {
		sum[i] = nn.NewMat(p.G.R, p.G.C)
	}

	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range sum {
			sum[i].Zero()
		}
		var stepLoss float64
		for r := 0; r < cfg.Replicas; r++ {
			tokens, targets := corpus.Batch(rng, cfg.Batch, m.Cfg.SeqLen)
			m.ZeroGrads()
			stepLoss += m.TrainStep(tokens, targets) / float64(cfg.Replicas)

			copy(ringIn[r], bb.gather().V)
			for i, p := range params {
				if !isMatrixGrad(p) {
					nn.AddInPlace(sum[i], p.G)
				}
			}
		}

		stats, err := ring.Allreduce(ctx, ringIn, ringIn)
		if err != nil {
			return nil, err
		}
		res.WireBits += stats.WireBits
		wireVals += stats.Values
		if stats.EncodeNs > 0 {
			encBytes += 4 * stats.Values // the ring encodes exactly what travels
			encNs += stats.EncodeNs
		}

		// Every worker holds the identical reduced bucket; adopt worker 0's.
		bb.scatter(ringIn[0])
		for i, p := range params {
			if !isMatrixGrad(p) {
				copy(p.G.V, sum[i].V)
			}
			nn.ScaleInPlace(p.G, 1/float32(cfg.Replicas))
		}
		opt.Step(params)
		ring.AdvanceStep()
		if onStep != nil {
			onStep(step)
		}

		lossEMA = emaUpdate(step, lossEMA, stepLoss)
		res.Curve = append(res.Curve, CurvePoint{Step: step, Loss: lossEMA})
	}
	res.FinalPPL = llm.Perplexity(m, corpus, evalBatches)
	if wireVals > 0 {
		res.AvgBits = float64(res.WireBits) / float64(wireVals)
	}
	if encNs > 0 {
		res.EncodeMBps = float64(encBytes) / float64(encNs) * 1e9 / 1e6
	}
	return res, nil
}

// isMatrixGrad reports whether a parameter's gradient joins the compression
// bucket (≥8×8, 2-D).
func isMatrixGrad(p *nn.Param) bool {
	return p.G.R >= 8 && p.G.C >= 8
}

// emaUpdate advances the loss EMA, seeding it from the first step's loss.
// Seeding on step==0 (not on ema==0) matters: a training run whose loss
// legitimately crosses zero — or whose first step happens to be exactly
// zero — must not re-seed the average forever after.
func emaUpdate(step int, ema, loss float64) float64 {
	if step == 0 {
		return loss
	}
	return 0.9*ema + 0.1*loss
}

// bucketBuffer owns the reusable gradient bucket: the flattened
// concatenation of every ≥8×8 weight-matrix gradient, reshaped to
// bucketCols wide. gather and scatter are allocation-free in steady state.
type bucketBuffer struct {
	mat      *nn.Mat
	bucketed []*nn.Param
	total    int // live values; mat.V[total:] is zero padding
}

func newBucketBuffer(params []*nn.Param) *bucketBuffer {
	bb := &bucketBuffer{}
	for _, p := range params {
		if isMatrixGrad(p) {
			bb.bucketed = append(bb.bucketed, p)
			bb.total += len(p.G.V)
		}
	}
	rows := (bb.total + bucketCols - 1) / bucketCols
	bb.mat = nn.NewMat(max(rows, 1), bucketCols)
	return bb
}

// gather fills the bucket from the current gradients and returns it; the
// padding tail stays zero because nothing else writes the bucket.
func (bb *bucketBuffer) gather() *nn.Mat {
	off := 0
	for _, p := range bb.bucketed {
		copy(bb.mat.V[off:], p.G.V)
		off += len(p.G.V)
	}
	return bb.mat
}

// scatter writes a reduced flat bucket back into the bucketed parameters'
// gradients.
func (bb *bucketBuffer) scatter(flat []float32) {
	off := 0
	for _, p := range bb.bucketed {
		copy(p.G.V, flat[off:off+len(p.G.V)])
		off += len(p.G.V)
	}
}
