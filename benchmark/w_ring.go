package main

import (
	"context"
	"fmt"
	"time"
)

const (
	ringWorkers  = 4
	ringDim      = 256 // each worker contributes a ringDim×ringDim bucket
	ringStepSets = 8   // step-set 0 is the anchor: the first step after set-up is the coding point
	// ringRelBound is the per-step error bound against the exact float sum.
	// Gradients are close to noise, so at 2.5 b/v an honest step sits near
	// 0.2 even with error feedback; a wrong reduction sits at 1 or above.
	ringRelBound = 0.6
)

// gradRing is a data-parallel trainer: it pays compressed-allreduce steps/s.
type gradRing struct {
	inProcess
	ring  *ring
	sets  [][][]float32 // step-set → worker → bucket
	exact [][]float32   // step-set → exact float32 sum in worker order
	out   [][]float32
	step  int

	stats  []ringStats // one per step since set-up
	wallNs []int64

	bits, relMSE float64
}

func newGradRing() workload { return &gradRing{} }

func (w *gradRing) clients() int { return 1 }
func (w *gradRing) close()       {}

func (w *gradRing) setup(e env) error {
	*w = gradRing{}
	n := ringDim * ringDim
	for s := 0; s < ringStepSets; s++ {
		rng := rngFor(seedFor(e.seed, s, ringStepSets), fmt.Sprintf("grad_ring/%d", s))
		set := make([][]float32, ringWorkers)
		sum := make([]float32, n)
		for k := range set {
			set[k] = genGradients(rng, n, gradOrders)
			for i, v := range set[k] {
				sum[i] += v
			}
		}
		w.sets = append(w.sets, set)
		w.exact = append(w.exact, sum)
	}
	for k := 0; k < ringWorkers; k++ {
		w.out = append(w.out, make([]float32, n))
	}
	opts := coreDefaultOptions()
	opts.Workers = 1
	var err error
	w.ring, err = ringNew(ringConfig{
		Workers: ringWorkers, Rows: ringDim, Cols: ringDim,
		Codec: ringTensorCodec(opts, gradQP), ErrorFeedback: true,
	})
	return err
}

func (w *gradRing) op(ctx context.Context, _ int, r *recorder) {
	set := w.step % ringStepSets
	o := r.begin("step", 0)
	t0 := time.Now()
	s := o.span("allreduce.step")
	st, err := w.ring.Allreduce(ctx, w.sets[set], w.out)
	w.ring.AdvanceStep()
	s.end()
	dt := time.Since(t0)
	if err != nil {
		o.done(0, 0, opFailed, err.Error())
		return
	}
	s = o.span("client.verify")
	var d distortion
	d.add(w.exact[set], w.out[0])
	bad := ""
	for k := 1; k < ringWorkers && bad == ""; k++ {
		if !sameBits(w.out[k], w.out[0]) {
			bad = fmt.Sprintf("step %d: worker %d's output differs from worker 0's", w.step, k)
		}
	}
	// rel() divides by the variance of the exact sum, whose mean is ~0.
	if bad == "" && d.rel() > ringRelBound {
		bad = fmt.Sprintf("step %d: relative error %.3f against the exact sum exceeds %.2f", w.step, d.rel(), ringRelBound)
	}
	s.end()
	if bad != "" {
		o.done(dt, 0, opMismatch, bad)
		return
	}
	if w.step == 0 { // the anchor step-set on a fresh ring
		w.bits, w.relMSE = float64(st.WireBits)/float64(st.Values), d.rel()
	}
	w.step++
	w.stats = append(w.stats, st)
	w.wallNs = append(w.wallNs, int64(dt))
	o.done(dt, float64(ringWorkers*ringDim*ringDim*4)/1e6, opOK, "")
}

func (w *gradRing) native(p *pass) map[string]float64 {
	return map[string]float64{
		"raw_mbps":       p.mbps("step"),
		"op_p50_ms":      p.p50("step"),
		"bits_per_value": w.bits,
		"rel_mse":        w.relMSE,
	}
}

// layers reads the collective's own Stats for the steps of the traced pass
// (the last len(traced steps) entries) and runs the same ring with RawCodec:
// the collective's cost with the codec bypassed.
func (w *gradRing) layers(p *pass) map[string]float64 {
	n := len(p.byKind["step"])
	stats, wall := w.stats[len(w.stats)-n:], w.wallNs[len(w.wallNs)-n:]
	var enc, dec, wait, frames, payload, resid []float64
	for i, st := range stats {
		enc = append(enc, float64(st.EncodeNs)/1e6)
		dec = append(dec, float64(st.DecodeNs)/1e6)
		wait = append(wait, 1-float64(st.EncodeNs+st.DecodeNs)/float64(wall[i]*ringWorkers))
		frames = append(frames, float64(st.Frames))
		payload = append(payload, float64(st.PayloadBytes))
		resid = append(resid, st.ResidualL2)
	}
	_, v := tail(p.ms("step"))
	out := map[string]float64{
		"allreduce.encode_ms_per_step":     median(enc),
		"allreduce.decode_ms_per_step":     median(dec),
		"allreduce.wait_share":             median(wait),
		"allreduce.frames_per_step":        median(frames),
		"allreduce.payload_bytes_per_step": median(payload),
		"allreduce.residual_l2":            median(resid),
		"client.step_tail_ms":              v,
	}
	raw, err := ringNew(ringConfig{Workers: ringWorkers, Rows: ringDim, Cols: ringDim, Codec: ringRawCodec()})
	if err != nil {
		return out
	}
	var rawMs []float64
	for i := 0; i < 4*ringStepSets; i++ {
		t0 := time.Now()
		if _, err := raw.Allreduce(context.Background(), w.sets[i%ringStepSets], w.out); err != nil {
			return out
		}
		raw.AdvanceStep()
		rawMs = append(rawMs, float64(time.Since(t0))/1e6)
	}
	out["allreduce.raw_steps_per_s"] = 1e3 / median(rawMs)
	return out
}
