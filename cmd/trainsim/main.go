// Command trainsim runs the distributed-training simulators with compressed
// communication, printing loss curves — a CLI wrapper over internal/train.
// A compressed -mode dp run also projects its measured wire telemetry onto the
// cluster step model at 7B-400B scale.
//
//	trainsim -mode dp -method llm265 -bits 2.6 -steps 400
//	trainsim -mode pp -method residual -steps 400
//
// A flag no run can use — an unknown -mode or -method, a -bits the method
// cannot take — exits 2 with the flag named before any training.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

func main() {
	var (
		mode   = flag.String("mode", "dp", "dp (data parallel) or pp (pipeline parallel)")
		method = flag.String("method", "llm265", "dp: none|llm265|onebit-adam|onebit-lamb|rtn; pp: none|act|residual|rtn-grads")
		bits   = flag.Float64("bits", 2.6, "bits/value: the target (> 0) of the codec methods, the integer width (1-16) of rtn")
		steps  = flag.Int("steps", 300, "optimizer steps")
		seed   = flag.Int64("seed", 7, "data seed")
	)
	flag.Parse()

	corpus := data.NewCorpus(1, 64, 60000, 10000)
	every := max(*steps/10, 1)

	switch *mode {
	case "dp":
		runDP(corpus, *method, *bits, *steps, *seed, every)
	case "pp":
		runPP(corpus, *method, *bits, *steps, *seed, every)
	default:
		usageError("-mode must be dp or pp")
	}
}

// usageError reports a flag no run can use and exits 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "trainsim:", msg)
	os.Exit(2)
}

func report(curve []train.CurvePoint, every int, final float64, wire string) {
	for i, p := range curve {
		if (i+1)%every == 0 {
			fmt.Printf("step %4d  loss %.4f\n", p.Step, p.Loss)
		}
	}
	fmt.Printf("final validation perplexity: %.2f   (%s)\n", final, wire)
}

func runDP(corpus *data.Corpus, method string, bits float64, steps int, seed int64, every int) {
	spec := llm.Zoo()["pythia-dp"]
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), spec.Cfg)
	adam := nn.NewAdam(3e-3)
	var opt nn.Optimizer = adam
	var rcfg allreduce.Config
	var onStep func(int)
	switch method {
	case "none":
	case "llm265":
		if !(bits > 0) {
			usageError("-bits must be positive for llm265")
		}
		rcfg.Codec = allreduce.RateCodec(core.DefaultOptions(), bits)
	case "rtn":
		if bits != math.Trunc(bits) || bits < 1 || bits > 16 {
			usageError("-bits must be an integer in [1, 16] for rtn")
		}
		rcfg.Codec = allreduce.RTNCodec(int(bits), 128)
	case "onebit-adam", "onebit-lamb":
		// 15% warm-up at FP16, then sign compression with error feedback
		// and the optimizer's variance frozen.
		warmup := steps * 15 / 100
		rcfg.Codec, rcfg.ErrorFeedback = allreduce.SignCodec(warmup), true
		freeze := &adam.FreezeVariance
		if method == "onebit-lamb" {
			lamb := nn.NewLAMB(2e-3)
			opt, freeze = lamb, &lamb.FreezeVariance
		}
		onStep = func(step int) { *freeze = step+1 >= warmup }
	default:
		usageError("unknown dp -method " + method)
	}
	res, err := train.RunDataParallel(context.Background(), m, corpus, opt,
		train.DPConfig{Replicas: 4, Batch: 4}, rcfg, steps, seed, onStep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
	report(res.Curve, every, res.FinalPPL, fmt.Sprintf("%.2f wire bits/value", res.AvgBits))
	if rcfg.Codec != nil {
		project(res.EncodeMBps, res.AvgBits)
	}
}

// project feeds the run's measured wire telemetry into the cluster step model
// at 7B-400B scale on 256 GPUs: once as the single-lane software codec that
// was measured (the step model bypasses a codec below line rate, so this
// column equals the uncompressed step), and once lane-scaled until the codec's
// tensor-side ingest saturates the link at the measured ratio — the ASIC-port
// projection the paper's §7 sizing argument rests on.
func project(encodeMBps, avgBits float64) {
	sw := cluster.MeasuredCodec("measured-sw", encodeMBps, avgBits, 1)
	lanes := cluster.DefaultNIC.Gbps * sw.Ratio / sw.ThroughputGbps
	hw := cluster.MeasuredCodec("measured-hw", encodeMBps, avgBits, lanes)
	scales := []float64{7e9, 70e9, 400e9}
	swP := cluster.ProjectScales(cluster.LLaMA7B, cluster.DefaultGPU, cluster.DefaultNIC, sw, 256, scales)
	hwP := cluster.ProjectScales(cluster.LLaMA7B, cluster.DefaultGPU, cluster.DefaultNIC, hw, 256, scales)
	fmt.Printf("collective encode %.2f MB/s per core at %.2f b/v; projected step time (uncompressed -> 1 lane -> %.0f lanes):\n",
		encodeMBps, avgBits, lanes)
	for i, p := range hwP {
		fmt.Printf("  %3.0fB  DP=%-3d PP=%-3d  %.2fs -> %.2fs -> %.2fs  (%.2fx, comm %.0f%%)\n",
			scales[i]/1e9, p.DP, p.PP, p.BaseStepS, swP[i].StepS, p.StepS, p.Speedup, 100*p.CommFrac)
	}
}

func runPP(corpus *data.Corpus, method string, bits float64, steps int, seed int64, every int) {
	spec := llm.Zoo()["pythia-pp"]
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), spec.Cfg)
	cfg := train.PipelineConfig{Stages: 4, AccumSteps: 2}
	switch method {
	case "none":
	case "act":
		cfg.CompressActivations = llm.Codec(core.DefaultOptions(), bits)
	case "residual":
		cfg.CompressActivations = llm.Codec(core.DefaultOptions(), bits)
		cfg.CompressActGrads = llm.Residual(core.DefaultOptions(), bits, steps*5/16)
	case "rtn-grads":
		cfg.CompressActivations = llm.Codec(core.DefaultOptions(), bits)
		cfg.CompressActGrads = llm.RTN(8, 128)
	default:
		usageError("unknown pp -method " + method)
	}
	if cfg.CompressActivations != nil && !(bits > 0) {
		usageError("-bits must be positive for " + method)
	}
	res, err := train.RunPipeline(m, corpus, nn.NewAdam(3e-3), cfg, steps, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
	report(res.Curve, every, res.FinalPPL,
		fmt.Sprintf("act %.2f b/v, act-grad %.2f b/v", res.ActBits, res.GradBits))
}
