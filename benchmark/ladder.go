package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// ladder.go times the calls into each layer's public functions, bottom-up,
// on the same generated inputs the workloads use. A layer's self time is its
// span minus the span of the layer it calls, as a difference of medians.
// Every figure is normalised (per pixel, value, bin or byte) or taken at a
// stated worker count, so it binds on any host. The ladder does not depend on
// which workload a run names: it reads only the seed.

// perUnit times fn, which processes units work units per call, in batches and
// returns the median ns per unit. Fast kernels are repeated until a batch
// lasts about two milliseconds, so the clock's resolution never shows.
func perUnit(units, batches int, fn func()) float64 {
	once := func() time.Duration {
		t0 := time.Now()
		fn()
		return max(time.Since(t0), time.Nanosecond)
	}
	one := once() // pays lazy set-up and cache misses
	if one < 2*time.Millisecond {
		one = once()
	}
	reps := min(max(int(2*time.Millisecond/one), 1), 1<<20)
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		xs[b] = float64(time.Since(t0)) / float64(reps*units)
	}
	return median(xs)
}

const kernelBatches = 11

// ladderStack is the weights_encode stack the kernel and codec rungs run on:
// the first of the anchor half, so their figures do not move with --seed (a
// stack with an outlier column codes in two thirds of the time of one
// without).
const ladderStack = 0

// ladderInputs are cut from the weights_encode and kv_stream inputs.
type ladderInputs struct {
	stacks [][]*coreTensor // weights_encode stacks
	pix    []uint8         // stack ladderStack, layer 0, as 8-bit pixels
	scale  float32
	zero   float32
	kvRows []float32 // one kv_stream session
}

func newLadderInputs(e env) ladderInputs {
	in := ladderInputs{}
	for i := 0; i < encStacks; i++ {
		in.stacks = append(in.stacks, weightStack(rngFor(seedFor(e.seed, i, encStacks), fmt.Sprintf("weights_encode/%d", i)), encDepth))
	}
	in.pix, in.scale, in.zero = quantToUint8(in.stacks[ladderStack][0].Data)
	in.kvRows = genActivations(rngFor(e.seed, "kv_stream/client0"), kvSessionRows, kvDim)
	return in
}

// residualBlocks cuts count n×n blocks out of the plane and subtracts each
// block's mean: what the transform sees after a DC prediction.
func (in ladderInputs) residualBlocks(n, count int) [][]int32 {
	blocks := make([][]int32, count)
	per := weightDim / n
	for b := range blocks {
		bx, by := (b*7)%per*n, (b*13)%per*n
		blk := make([]int32, n*n)
		var sum int32
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := int32(in.pix[(by+y)*weightDim+bx+x])
				blk[y*n+x] = v
				sum += v
			}
		}
		mean := sum / int32(n*n)
		for i := range blk {
			blk[i] -= mean
		}
		blocks[b] = blk
	}
	return blocks
}

// runLadder measures every layer from the kernels up to core, plus the kv
// table called directly.
func runLadder(ctx context.Context, e env) (map[string]float64, error) {
	in := newLadderInputs(e)
	out := map[string]float64{}
	kernelLadder(in, out)
	if err := codecLadder(ctx, e, in, out); err != nil {
		return nil, fmt.Errorf("codec ladder: %w", err)
	}
	if err := coreLadder(ctx, e, in, out); err != nil {
		return nil, fmt.Errorf("core ladder: %w", err)
	}
	if err := kvLadder(ctx, e, out); err != nil {
		return nil, fmt.Errorf("kv ladder: %w", err)
	}
	return out, nil
}

// kernelLadder: dct, intra, cabac, rans, quant, frame.
func kernelLadder(in ladderInputs, out map[string]float64) {
	const blocks = 16
	for _, n := range []int{4, 8, 16, 32} {
		res := in.residualBlocks(n, blocks)
		t := dctNewDCT(n)
		coef, back := make([]int32, n*n), make([]int32, n*n)
		px := blocks * n * n
		out[fmt.Sprintf("dct.forward_ns_per_px.n%d", n)] = perUnit(px, kernelBatches, func() {
			for _, r := range res {
				t.Forward(coef, r)
			}
		})
		t.Forward(coef, res[0])
		out[fmt.Sprintf("dct.inverse_ns_per_px.n%d", n)] = perUnit(px, kernelBatches, func() {
			for range res {
				t.Inverse(back, coef)
			}
		})
		if n == 8 || n == 32 {
			var sink int64
			out[fmt.Sprintf("dct.satd_ns_per_px.n%d", n)] = perUnit(px, kernelBatches, func() {
				for _, r := range res {
					sink += dctSATD(r, n)
				}
			})
			_ = sink
		}
		if n == 16 {
			levels, deq := make([]int32, n*n), make([]int32, n*n)
			out["dct.quantize_ns_per_px"] = perUnit(px, kernelBatches, func() {
				for range res {
					dctQuantize(levels, coef, weightsQP)
				}
			})
			out["dct.dequantize_ns_per_px"] = perUnit(px, kernelBatches, func() {
				for range res {
					dctDequantize(deq, levels, weightsQP)
				}
			})
		}
	}

	// intra: n=16 block whose references are the plane's row 15 and column 15.
	const n = 16
	refs := intraNewRefs(n)
	for i := 0; i < 2*n; i++ {
		refs.Above[i] = int32(in.pix[15*weightDim+16+i])
		refs.Left[i] = int32(in.pix[(16+i)*weightDim+15])
	}
	refs.Corner = int32(in.pix[15*weightDim+15])
	pred := make([]int32, n*n)
	for name, mode := range map[string]intraMode{"planar": intraPlanar, "dc": intraDC, "angular": intraAngular} {
		out["intra.predict_ns_per_px."+name] = perUnit(n*n, kernelBatches, func() { intraPredict(mode, n, refs, pred) })
	}
	smooth := intraNewRefs(n)
	out["intra.smooth_refs_ns"] = perUnit(1, kernelBatches, func() { refs.SmoothedInto(smooth) })

	// cabac: the plane's pixels as bit-planes, one adaptive context per bit.
	const cabacPx = 4096
	bins := cabacPx * 8
	var stream []byte
	out["cabac.encode_ns_per_bin"] = perUnit(bins, kernelBatches, func() {
		enc := cabacNewEncoder()
		var ctxs [8]cabacContext
		for i := range ctxs {
			ctxs[i] = cabacNewContext(0.5)
		}
		for _, p := range in.pix[:cabacPx] {
			for b := 0; b < 8; b++ {
				enc.EncodeBit(&ctxs[b], int(p>>b)&1)
			}
		}
		stream = enc.Finish()
	})
	out["cabac.decode_ns_per_bin"] = perUnit(bins, kernelBatches, func() {
		dec := cabacNewDecoder(stream)
		var ctxs [8]cabacContext
		for i := range ctxs {
			ctxs[i] = cabacNewContext(0.5)
		}
		for range in.pix[:cabacPx] {
			for b := 0; b < 8; b++ {
				dec.DecodeBit(&ctxs[b])
			}
		}
	})

	// rans: the plane's bytes against their own order-0 table.
	var counts [256]int64
	for _, p := range in.pix {
		counts[p]++
	}
	if freqs, err := ransNormalizeFreqs(&counts); err == nil {
		var segs [][]byte
		out["rans.encode_ns_per_byte"] = perUnit(len(in.pix), kernelBatches, func() { segs, _ = ransEncodeBytes(in.pix, freqs) })
		out["rans.decode_ns_per_byte"] = perUnit(len(in.pix), kernelBatches, func() { ransDecodeBytes(segs, len(in.pix), freqs) })
	}

	// quant, frame: one 256×256 layer.
	layer := in.stacks[ladderStack][0].Data
	out["quant.to_uint8_ns_per_value"] = perUnit(len(layer), kernelBatches, func() { quantToUint8(layer) })
	out["quant.from_uint8_ns_per_value"] = perUnit(len(layer), kernelBatches, func() { quantFromUint8(in.pix, in.scale, in.zero) })
	var planes []*framePlane
	out["frame.from_matrix_ns_per_px"] = perUnit(len(in.pix), kernelBatches, func() {
		planes = frameFromMatrix(in.pix, weightDim, weightDim, 1024, 1024)
	})
	out["frame.to_matrix_ns_per_px"] = perUnit(len(in.pix), kernelBatches, func() {
		frameToMatrix(planes, weightDim, weightDim, 1024, 1024)
	})
}

// stackPlanes is what core hands the codec for one weights_encode stack.
func stackPlanes(stack []*coreTensor) ([]*framePlane, []codecPlaneRegion) {
	var planes []*framePlane
	var regions []codecPlaneRegion
	for l, t := range stack {
		pix, _, _ := quantToUint8(t.Data)
		planes = append(planes, frameFromMatrix(pix, weightDim, weightDim, 1024, 1024)...)
		regions = append(regions, codecPlaneRegion{Layer: l, W: weightDim, H: weightDim})
	}
	return planes, regions
}

const slowBatches = 3 // probes whose one call lasts a tenth of a second

// codecLadder: the codec called directly on the planes of weights_encode
// stack ladderStack at Workers=1 (so ns/px is core-count independent), the speed-up at
// Workers=nproc, and the codec's own stage registry read through.
func codecLadder(ctx context.Context, e env, in ladderInputs, out map[string]float64) error {
	planes, regions := stackPlanes(in.stacks[ladderStack])
	px := len(planes) * weightDim * weightDim
	var firstErr error
	encode := func(backend string, workers int, reg *obsRegistry) (perPx float64, stream []byte, chunks int) {
		t := codecAllTools
		if backend == "rans" {
			t.Backend = backendRANS
		}
		perPx = perUnit(px, slowBatches, func() {
			s, st, err := codecEncodeIndexedCtx(ctx, planes, weightsQP, codecHEVC, t, workers, regions, reg)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			stream, chunks = s, st.Chunks
		})
		return perPx, stream, chunks
	}
	decode := func(stream []byte, workers int, reg *obsRegistry) float64 {
		return perUnit(px, kernelBatches, func() {
			if _, err := codecDecodeWorkersCtx(ctx, stream, workers, reg); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}

	enc1, cabacStream, chunks := encode("cabac", 1, nil)
	encR, ransStream, _ := encode("rans", 1, nil)
	encN, _, _ := encode("cabac", e.nproc, nil)
	out["codec.encode_ns_per_px"] = enc1
	out["codec.encode_ns_per_px.rans"] = encR
	out["codec.parallel_speedup.encode"] = enc1 / encN // Workers=nproc over the Workers=1 base
	out["codec.chunks_per_encode"] = float64(chunks)
	if firstErr != nil {
		return firstErr
	}
	dec1 := decode(cabacStream, 1, nil)
	out["codec.decode_ns_per_px"] = dec1
	out["codec.decode_ns_per_px.rans"] = decode(ransStream, 1, nil)
	out["codec.parallel_speedup.decode"] = dec1 / decode(cabacStream, e.nproc, nil)
	out["codec.decode_region_ns_per_px"] = perUnit(weightDim*weightDim, kernelBatches, func() {
		if _, err := codecDecodeRegionCtx(ctx, cabacStream, 1, 1, 1, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	})

	// append: kv rows, quantised per row as the kv tier does, one flush group
	// per call into a fresh Appender.
	group := make([]uint8, 0, kvFlushRows*kvDim)
	for r := 0; r < kvFlushRows; r++ {
		rowPix, _, _ := quantToUint8(in.kvRows[r*kvDim : (r+1)*kvDim])
		group = append(group, rowPix...)
	}
	groupPlane := frameFromMatrix(group, kvFlushRows, kvDim, 1024, 1024)
	out["codec.append_ns_per_px"] = perUnit(len(group), kernelBatches, func() {
		a := codecNewAppender(kvQP, codecHEVC, codecAllTools, 1, nil)
		if _, _, err := a.Append(ctx, groupPlane, []codecPlaneRegion{{W: kvDim, H: kvFlushRows}}); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return firstErr
	}

	// The codec's own registry, read through. A name the registry no longer
	// has leaves its figure out of the report — absent, never zero.
	reg := obsNewRegistry()
	encode("cabac", e.nproc, reg)
	decode(cabacStream, e.nproc, reg)
	snap := reg.Snapshot()
	stages := []string{"intra_search", "transform_quant", "partition", "entropy", "container"}
	share(out, "codec.stage_share.", stages, func(s string) (float64, bool) {
		h, ok := snap.Histograms["codec.encode.stage."+s+"_ns"]
		return float64(h.Sum), ok
	})
	share(out, "codec.bits_share.", []string{"residual", "mode", "partition", "container"}, func(s string) (float64, bool) {
		c, ok := snap.Counters["codec.encode.bits."+s]
		return float64(c), ok
	})
	for _, side := range []string{"encode", "decode"} {
		busy, ok1 := snap.Counters["codec."+side+".pool.busy_ns"]
		wall, ok2 := snap.Counters["codec."+side+".pool.wall_ns"]
		if ok1 && ok2 && wall > 0 {
			out["codec.pool_util."+side] = float64(busy) / float64(wall)
		}
	}
	return firstErr
}

// share writes prefix+part = get(part) ÷ Σ get for every part, provided all
// parts are present.
func share(out map[string]float64, prefix string, parts []string, get func(string) (float64, bool)) {
	vals := make([]float64, len(parts))
	var total float64
	for i, p := range parts {
		v, ok := get(p)
		if !ok {
			return
		}
		vals[i] = v
		total += v
	}
	if total == 0 {
		return
	}
	for i, p := range parts {
		out[prefix+p] = vals[i] / total
	}
}

// allocsPer runs fn n times and returns allocations and KB allocated per call.
func allocsPer(n int, fn func()) (allocs, kb float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

// coreLadder: core called as weights_encode and weights_fetch call it
// (Workers=nproc), against the codec called on the same planes with the same
// workers. The difference of the medians is core's self time: quantise, frame
// split, metadata, dequantise.
func coreLadder(ctx context.Context, e env, in ladderInputs, out map[string]float64) error {
	opts := archiveOptions(e.nproc)
	ms := func(fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		return float64(time.Since(t0)) / 1e6, err
	}
	var coreEnc, codecEnc, coreDec, codecDec, marshal, unmarshal, layer []float64
	var encs []*coreEncoded
	for _, stack := range in.stacks {
		planes, regions := stackPlanes(stack)
		var enc *coreEncoded
		viaCore := func() (err error) { enc, err = opts.EncodeStackCtx(ctx, stack, weightsQP); return }
		viaCodec := func() error {
			_, _, err := codecEncodeIndexedCtx(ctx, planes, weightsQP, codecHEVC, codecAllTools, e.nproc, regions, nil)
			return err
		}
		// Alternate the order so neither side always runs on the other's warm caches.
		for _, fn := range []*func() error{&viaCodec, &viaCore, &viaCore, &viaCodec} {
			d, err := ms(*fn)
			if err != nil {
				return err
			}
			if fn == &viaCore {
				coreEnc = append(coreEnc, d)
			} else {
				codecEnc = append(codecEnc, d)
			}
		}
		encs = append(encs, enc)
	}
	for rep := 0; rep < 5; rep++ {
		for _, enc := range encs {
			var blob []byte
			d, _ := ms(func() error { blob = enc.Marshal(); return nil })
			marshal = append(marshal, d)
			d, err := ms(func() error { _, err := coreUnmarshalEncoded(blob); return err })
			if err != nil {
				return err
			}
			unmarshal = append(unmarshal, d)
			if d, err = ms(func() error { _, err := opts.DecodeStackCtx(ctx, enc); return err }); err != nil {
				return err
			}
			coreDec = append(coreDec, d)
			if d, err = ms(func() error { _, err := codecDecodeWorkersCtx(ctx, enc.Stream, e.nproc, nil); return err }); err != nil {
				return err
			}
			codecDec = append(codecDec, d)
			if d, err = ms(func() error { _, err := opts.DecodeLayerCtx(ctx, enc, encDepth-1); return err }); err != nil {
				return err
			}
			layer = append(layer, d)
		}
	}
	out["core.encode_ms_p50"] = median(coreEnc)
	out["core.encode_self_ms_p50"] = median(coreEnc) - median(codecEnc)
	out["core.decode_ms_p50"] = median(coreDec)
	out["core.decode_self_ms_p50"] = median(coreDec) - median(codecDec)
	out["core.marshal_ms_p50"] = median(marshal)
	out["core.unmarshal_ms_p50"] = median(unmarshal)
	out["core.decode_layer_ms_p50"] = median(layer)

	var opErr error
	out["core.encode_allocs_per_op"], out["core.encode_alloc_kb_per_op"] = allocsPer(2, func() {
		if _, err := opts.EncodeStackCtx(ctx, in.stacks[0], weightsQP); err != nil {
			opErr = err
		}
	})
	out["core.decode_allocs_per_op"], out["core.decode_alloc_kb_per_op"] = allocsPer(8, func() {
		if _, err := opts.DecodeStackCtx(ctx, encs[0]); err != nil {
			opErr = err
		}
	})
	return opErr
}

// directKV is the kv layer probe's backend: the table called directly.
type directKV struct {
	tab                       *kvTable
	encoded, aliased, rejects int
	partial                   int
}

func (d *directKV) put(ctx context.Context, o liveOp, session string, at int, rows []float32) (int, int, error) {
	s := o.span("kv.append")
	res, err := d.tab.Append(ctx, session, kvDim, at, rows)
	s.end()
	if err != nil {
		if errors.Is(err, errKVBudget) {
			d.rejects++
		}
		return 0, 0, err
	}
	d.encoded += res.NewChunks
	d.aliased += res.Aliased
	return res.Total, res.Committed, nil
}

// aliasRatio is useful outcomes over attempts: of the flush groups committed,
// the share that aliased an existing chunk and so skipped the encode.
func (d *directKV) aliasRatio() float64 {
	return float64(d.aliased) / float64(d.aliased+d.encoded)
}

func (d *directKV) get(ctx context.Context, o liveOp, session string, t0, t1 int) ([]float32, error) {
	s := o.span("kv.read")
	res, err := d.tab.Read(ctx, session, t0, t1)
	s.end()
	if err != nil {
		return nil, err
	}
	if res.From != t0 || res.To != t1 {
		d.partial++
	}
	return res.Vals, nil
}

func (d *directKV) del(_ context.Context, _ liveOp, session string) error {
	return d.tab.Delete(session)
}

const kvLadderOps = 600 // enough for every session to cross the shared prompt

// kvLadder replays client 0's kv_stream operations against a kv.Table built
// as serve builds it, with no HTTP in the way.
func kvLadder(ctx context.Context, e env, out map[string]float64) error {
	be := &directKV{tab: kvNew(kvConfig{BudgetBytes: kvBudget, FlushRows: kvFlushRows, QP: kvQP, Workers: 1})}
	client := newKVClient(e.seed, 0, kvPrompt())
	r := &recorder{}
	for i := 0; i < kvLadderOps; i++ {
		client.step(ctx, be, r)
	}
	if r.failed > 0 {
		return errors.New(r.firstErr)
	}
	var put, get []float64
	for _, s := range r.samples {
		switch s.kind {
		case "put":
			put = append(put, s.ms)
		case "get":
			get = append(get, s.ms)
		}
	}
	out["kv.append_ms_p50"] = median(put)
	out["kv.read_ms_p50"] = median(get)
	out["kv.chunks_encoded"] = float64(be.encoded)
	out["kv.chunks_aliased"] = float64(be.aliased)
	out["kv.alias_ratio"] = be.aliasRatio()
	out["kv.resident_bytes"] = float64(be.tab.Resident())
	out["kv.budget_rejects"] = float64(be.rejects)
	out["kv.reads_partial"] = float64(be.partial)
	return nil
}
