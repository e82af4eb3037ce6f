package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"
)

const (
	weightDim = 256 // every weight layer is weightDim×weightDim

	encStacks = 8 // weights_encode: stacks cycled by the caller
	encDepth  = 2 // layers per stack

	fetchTensors   = 8
	fetchDepth     = 4
	fetchReads     = 16 // Model.Layer reads per cycle
	fetchLRULayers = 8  // a quarter of the 32 (tensor, layer) pairs
	fetchModel     = "bench"
)

func layerMB(layers int) float64 { return float64(layers*weightDim*weightDim*4) / 1e6 }

// archiveOptions is the coding configuration of both weights workloads.
func archiveOptions(nproc int) coreOptions {
	o := coreDefaultOptions()
	o.Checksum, o.Index = true, true
	o.Workers = nproc
	return o
}

// ---------------------------------------------------------- weights_encode

// weightsEncode is someone archiving a checkpoint: they pay encode
// throughput and get bits/value at a distortion.
type weightsEncode struct {
	inProcess
	opts   coreOptions
	stacks [][]*coreTensor
	ref    [][]byte // reference container per stack
	next   int

	bits, relMSE float64
}

func newWeightsEncode() workload { return &weightsEncode{} }

func (w *weightsEncode) clients() int { return 1 }
func (w *weightsEncode) close()       {}

func (w *weightsEncode) setup(e env) error {
	*w = weightsEncode{opts: archiveOptions(e.nproc)}
	var dist distortion
	for i := 0; i < encStacks; i++ {
		stack := weightStack(rngFor(seedFor(e.seed, i, encStacks), fmt.Sprintf("weights_encode/%d", i)), encDepth)
		enc, err := w.opts.EncodeStackCtx(context.Background(), stack, weightsQP)
		if err != nil {
			return err
		}
		dec, err := w.opts.DecodeStackCtx(context.Background(), enc)
		if err != nil {
			return err
		}
		if i < encStacks/2 { // the anchor half: equal sizes, so the mean is bits ÷ values
			for l := range stack {
				dist.add(stack[l].Data, dec[l].Data)
			}
			w.bits += enc.BitsPerValue() / (encStacks / 2)
		}
		w.stacks = append(w.stacks, stack)
		w.ref = append(w.ref, enc.Marshal())
	}
	w.relMSE = dist.rel()
	return nil
}

func (w *weightsEncode) op(ctx context.Context, _ int, r *recorder) {
	i := w.next % encStacks
	w.next++
	o := r.begin("encode", i)
	t0 := time.Now()
	s := o.span("core.encode_stack")
	enc, err := w.opts.EncodeStackCtx(ctx, w.stacks[i], weightsQP)
	s.end()
	if err != nil {
		o.done(0, 0, opFailed, err.Error())
		return
	}
	s = o.span("core.marshal")
	out := enc.Marshal()
	s.end()
	dt := time.Since(t0)
	s = o.span("client.verify")
	same := bytes.Equal(out, w.ref[i])
	s.end()
	if !same {
		o.done(dt, 0, opMismatch, fmt.Sprintf("stack %d: container differs from the set-up reference", i))
		return
	}
	o.done(dt, layerMB(encDepth), opOK, "")
}

func (w *weightsEncode) native(p *pass) map[string]float64 {
	return map[string]float64{
		"raw_mbps":       p.mbps("encode"),
		"op_p50_ms":      p.p50("encode"),
		"bits_per_value": w.bits,
		"rel_mse":        w.relMSE,
	}
}

// layers: weights_encode owns no per-layer metric of its own — the layers
// under it (core, codec, kernels) are measured by the ladder on its inputs.
func (w *weightsEncode) layers(*pass) map[string]float64 { return map[string]float64{} }

// ----------------------------------------------------------- weights_fetch

// weightsFetch is someone loading weights: they pay decode throughput on the
// bulk restore and cold-layer latency on random access under a small cache.
type weightsFetch struct {
	inProcess
	opts  coreOptions
	dir   string
	st    *storeStore
	model *storeModel
	names []string
	ref   [][][]float32 // reference decode per tensor, per layer
	order []int         // seeded permutation: skew rank → (tensor, layer) pair
	rng   *rand.Rand
	step  int // 0: bulk restore; 1..fetchReads: layer reads

	packSeconds, packedBits float64
	bits, relMSE            float64
}

func newWeightsFetch() workload { return &weightsFetch{} }

func (w *weightsFetch) clients() int { return 1 }

func (w *weightsFetch) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *weightsFetch) setup(e env) error {
	*w = weightsFetch{opts: archiveOptions(e.nproc)}
	var entries []storePackEntry
	var dist distortion
	for t := 0; t < fetchTensors; t++ {
		stack := weightStack(rngFor(seedFor(e.seed, t, fetchTensors), fmt.Sprintf("weights_fetch/%d", t)), fetchDepth)
		opts := w.opts
		if t%2 == 1 {
			opts.Backend = backendRANS
		}
		enc, err := opts.EncodeStackCtx(context.Background(), stack, weightsQP)
		if err != nil {
			return err
		}
		dec, err := w.opts.DecodeStackCtx(context.Background(), enc)
		if err != nil {
			return err
		}
		ref := make([][]float32, fetchDepth)
		for l := range stack {
			ref[l] = dec[l].Data
			if t < fetchTensors/2 { // the anchor half, two tensors per backend
				dist.add(stack[l].Data, dec[l].Data)
			}
		}
		if t < fetchTensors/2 {
			w.bits += enc.BitsPerValue() / (fetchTensors / 2)
		}
		name := fmt.Sprintf("t%d", t)
		w.names = append(w.names, name)
		w.ref = append(w.ref, ref)
		entries = append(entries, storePackEntry{Name: name, Enc: enc})
	}

	var err error
	if w.dir, err = scratchDir(e.dir, "store-"); err != nil {
		return err
	}
	if w.st, err = storeOpen(w.dir, nil); err != nil {
		return err
	}
	t0 := time.Now()
	man, err := w.st.Pack(fetchModel, entries)
	if err != nil {
		return err
	}
	w.packSeconds = time.Since(t0).Seconds()
	w.relMSE = dist.rel()
	w.packedBits = float64(man.PackedBytes()*8) / float64(fetchTensors*fetchDepth*weightDim*weightDim)
	if w.model, err = w.st.OpenModel(fetchModel, w.opts, fetchLRULayers*weightDim*weightDim*4); err != nil {
		return err
	}
	w.rng = rngFor(e.seed, "weights_fetch/reads")
	w.order = w.rng.Perm(fetchTensors * fetchDepth)
	return nil
}

func (w *weightsFetch) op(ctx context.Context, _ int, r *recorder) {
	step := w.step
	w.step = (w.step + 1) % (1 + fetchReads)
	if step == 0 {
		w.restore(ctx, r)
	} else {
		w.readLayer(r)
	}
}

// restore is the bulk half: fetch the whole model and decode every tensor.
func (w *weightsFetch) restore(ctx context.Context, r *recorder) {
	o := r.begin("restore", 0)
	t0 := time.Now()
	s := o.span("store.fetch")
	encs, err := w.st.Fetch(fetchModel)
	s.end()
	if err != nil {
		o.done(0, 0, opFailed, err.Error())
		return
	}
	decoded := make([][]*coreTensor, len(w.names))
	for t, name := range w.names {
		s = o.span("core.decode_stack")
		decoded[t], err = w.opts.DecodeStackCtx(ctx, encs[name])
		s.end()
		if err != nil {
			o.done(0, 0, opFailed, err.Error())
			return
		}
	}
	dt := time.Since(t0)
	s = o.span("client.verify")
	bad := ""
	for t := range decoded {
		for l, got := range decoded[t] {
			if !sameBits(got.Data, w.ref[t][l]) && bad == "" {
				bad = fmt.Sprintf("tensor %s layer %d differs from the reference decode", w.names[t], l)
			}
		}
	}
	s.end()
	if bad != "" {
		o.done(dt, 0, opMismatch, bad)
		return
	}
	o.done(dt, layerMB(fetchTensors*fetchDepth), opOK, "")
}

// readLayer is the random-access half: one Model.Layer read from a skewed
// sequence, so the 8-layer LRU sees both hits and misses.
func (w *weightsFetch) readLayer(r *recorder) {
	pair := w.order[int(float64(len(w.order))*math.Pow(w.rng.Float64(), 2.5))]
	t, l := pair/fetchDepth, pair%fetchDepth
	missesBefore := w.model.Stats().Misses
	// class: the pair. What a miss costs depends on the layer read (its bits,
	// its tensor's backend), and which pairs are cold enough to miss depends
	// on the seed's permutation.
	o := r.begin("layer_hit", pair)
	t0 := time.Now()
	s := o.span("store.layer")
	got, err := w.model.Layer(w.names[t], l)
	s.end()
	dt := time.Since(t0)
	if w.model.Stats().Misses > missesBefore { // only known afterwards
		o.setKind("layer_miss")
	}
	if err != nil {
		o.done(0, 0, opFailed, err.Error())
		return
	}
	s = o.span("client.verify")
	same := sameBits(got.Data, w.ref[t][l])
	s.end()
	if !same {
		o.done(dt, 0, opMismatch, fmt.Sprintf("layer %s/%d differs from the reference decode", w.names[t], l))
		return
	}
	o.done(dt, layerMB(1), opOK, "")
}

func (w *weightsFetch) native(p *pass) map[string]float64 {
	return map[string]float64{
		"raw_mbps":       p.mbps("restore"),
		"op_p50_ms":      p.p50("layer_miss"),
		"bits_per_value": w.bits,
		"rel_mse":        w.relMSE,
	}
}

func (w *weightsFetch) layers(p *pass) map[string]float64 {
	st := w.model.Stats()
	_, v := tail(p.ms("layer_miss"))
	return map[string]float64{
		"store.pack_mbps":             layerMB(fetchTensors*fetchDepth) / w.packSeconds,
		"store.fetch_ms_p50":          median(spanMs(p.spans, "store.fetch")),
		"store.layer_hit_ms_p50":      p.rawP50("layer_hit"),
		"store.layer_miss_ms_p50":     p.rawP50("layer_miss"),
		"store.lru_hit_ratio":         float64(st.Hits) / float64(st.Hits+st.Misses),
		"store.lru_evictions":         float64(st.Evictions),
		"store.packed_bits_per_value": w.packedBits,
		"client.layer_tail_ms":        v,
	}
}
