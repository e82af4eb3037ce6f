// The reconstruct stage of the decoder, and the hand-off from the parse stage
// (DESIGN.md §13.4).
//
// A chunk decode is two stages. The parse stage (decoder.go) is the entropy
// engine: it reads bins and fills, per CTU, a batch of leaf records and level
// blocks. The reconstruct stage below is the pixel pipeline: for each leaf of
// a batch it gathers references, predicts, dequantises, inverse-transforms
// and stores the block. Every chunk goes through batches; what varies is only
// who runs the second stage — the parsing goroutine itself after each CTU, or
// a goroutine of its own when the pool has more workers than chunks.
//
// The stages share no mutable state but the batches, and each scratch field a
// decode touches has one owner:
//
//	parse        ctx, cabacDec, chunk, dec, and the batch it is filling
//	reconstruct  rcn, pred, rec, coefA, nz, refsAbove/Left, smAbove/Left,
//	             transforms, dst4, reconPlane, and the batches handed to it
//
// Frame state (rcn.recon, rcn.prev) is written by the parsing
// goroutine, but only in beginFrame and endFrame, which it calls with the
// stage drained; the channel operations of the drain order those writes
// against the stage's reads.
package codec

import (
	"time"

	"repro/internal/cpufeat"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
)

// minLeaf is the smallest leaf edge any profile or tool set produces (H.264's
// minimum CU); maxLeaves is how many of them tile the largest CTU.
const (
	minLeaf   = 4
	maxLeaves = (maxCU / minLeaf) * (maxCU / minLeaf)
)

// ringDepth is how many CTU batches the parse stage may run ahead of the
// reconstruct stage. The slack has two things to absorb: the stages cost
// about the same per CTU on average but not CTU by CTU (a flat CTU is one cbf
// bin and a 32×32 prediction, a busy one a thousand coefficients), and a
// stage that ran dry is parked and takes a while to wake — ≈ 125 µs on the
// two-vCPU development container, five to ten CTU parses. With 4 batches the
// parse fills the ring before the other stage is awake and the two take
// turns (no faster than inline); 8 covers the wake; 16 and 32 measured the
// same as 8 and only grow the scratch (5.4 KB a batch).
const ringDepth = 8

// leafRec is one parsed leaf: where it is and how it is predicted.
type leafRec struct {
	x, y, size int32
	inter      bool
	mode       intra.Mode // intra leaves
	mvx, mvy   int32      // inter leaves
}

// ctuBatch is one parsed CTU: its leaves in coding order and their level
// blocks back to back in lev (the leaves tile the CTU, so the blocks fill at
// most CTU² entries).
type ctuBatch struct {
	n      int
	leaves [maxLeaves]leafRec
	levN   int
	lev    [maxBlock]int32
}

// reconstructor is the reconstruct stage's state for one chunk.
type reconstructor struct {
	prof  profileParams
	tools Tools
	qp    int
	scr   *scratch

	recon *frame.Plane // padded reconstruction of the current frame
	prev  *frame.Plane // cropped reconstruction of the previous one (inter)

	// busyNs accumulates reconstruct time when timed is set (metrics
	// enabled); one clock pair per batch, none otherwise.
	timed  bool
	busyNs int64
}

// beginFrame sets up the padded w×h reconstruction of the next frame; the
// previous frame's crop becomes the inter reference.
func (r *reconstructor) beginFrame(w, h int) {
	r.prev = r.recon
	// The padded reconstruction is recycled from the scratch arena; stale
	// contents are safe because no uncoded pixel is ever read (mirrors the
	// encoder, which is what keeps the two reconstructions bit-identical).
	r.recon = r.scr.reconPlane.Reuse(w, h)
}

// endFrame crops the finished reconstruction to the source dims. The crop is
// a fresh plane: it leaves the codec as API output.
func (r *reconstructor) endFrame(srcW, srcH int) *frame.Plane {
	crop := frame.NewPlane(srcW, srcH)
	for y := 0; y < srcH; y++ {
		copy(crop.Row(y), r.recon.Row(y)[:srcW])
	}
	r.recon = crop
	return crop
}

// run reconstructs one batch, timing it when metrics are on.
func (r *reconstructor) run(b *ctuBatch) {
	if !r.timed {
		r.reconstruct(b)
		return
	}
	t0 := time.Now()
	r.reconstruct(b)
	r.busyNs += int64(time.Since(t0))
}

// reconstruct rebuilds the pixels of every leaf of a parsed CTU, in coding
// order, into the frame's reconstruction.
func (r *reconstructor) reconstruct(b *ctuBatch) {
	s := r.scr
	levOff := 0
	for i := range b.leaves[:b.n] {
		lf := &b.leaves[i]
		x, y, size := int(lf.x), int(lf.y), int(lf.size)
		n2 := size * size
		lev := b.lev[levOff : levOff+n2]
		levOff += n2

		pred := s.pred[:n2]
		switch {
		case lf.inter:
			motionPredict(r.prev, pred, x, y, size, lf.mvx, lf.mvy)
		case r.tools.IntraPred:
			refs := intra.Refs{Above: s.refsAbove[:2*size], Left: s.refsLeft[:2*size]}
			refs = gatherRefsInto(r.recon, r.prof.ctuSize, x, y, size, refs)
			if r.prof.smoothing && intra.UseSmoothing(size, lf.mode) {
				refs = refs.SmoothedInto(intra.Refs{Above: s.smAbove[:2*size], Left: s.smLeft[:2*size]})
			}
			intra.Predict(lf.mode, size, refs, pred)
		default:
			for i := range pred {
				pred[i] = 128
			}
		}

		// reconstructBlockInto (refimpl_test.go) and storeDef in one go: the
		// dequantiser reports where the levels are, so the inverse scans
		// nothing, and the pixels go from the prediction and the residual into
		// the plane without a block of their own. TestReconstructEquivalence
		// holds this to the definition.
		var res []int32
		switch {
		case !r.tools.Transform:
			res = s.rec[:n2]
			dequantizeSpatial(res, lev, r.qp)
		case dct.DequantizeMasked(s.coefA[:n2], lev, size, r.qp, &s.nz):
			res = s.rec[:n2]
			s.transformFor(size, !lf.inter && r.prof.dst4).InverseMasked(res, s.coefA[:n2], &s.nz)
		}
		storeResidual(r.recon, pred, res, x, y, size)
	}
}

// storeResidual commits a leaf: the pixels clipPixel(pred+res) into the
// padded recon plane at (x, y). A nil res is the all-zero residual of a leaf
// that coded no level, or of an encoder leaf whose pred is already its
// reconstruction.
func storeResidual(recon *frame.Plane, pred, res []int32, x, y, size int) {
	if cpufeat.Lanes8(size) {
		n2, at, end := size*size, y*recon.W+x, (y+size-1)*recon.W+x+size
		var r *int32
		if res != nil {
			r = &res[:n2][0]
		}
		storeAVX2(&recon.Pix[at:end][0], recon.W, &pred[:n2][0], r, size)
		return
	}
	for dy := 0; dy < size; dy++ {
		row := recon.Row(y + dy)[x : x+size]
		for dx, v := range pred[dy*size:][:size] {
			if res != nil {
				v += res[dy*size+dx]
			}
			row[dx] = uint8(clipPixel(v))
		}
	}
}

// reconStage is a reconstruct stage running on its own goroutine. The parse
// stage takes empty batches from free and sends parsed ones on full; closing
// full ends the stage. Both channels hold the whole ring, so neither side
// ever blocks on a send — the parse waits only for an empty batch, the stage
// only for a parsed one.
type reconStage struct {
	full, free chan *ctuBatch
	done       chan struct{}

	// failed is the value of a panic out of reconstruct — a defect, since the
	// parse validates everything a hostile stream controls — published by the
	// close of done. After it the stage reconstructs nothing more but keeps
	// recycling batches, so the parse runs to its own end and join reports it.
	failed any
}

// startReconStage starts the stage over the scratch's ring, every batch
// free. The caller must join it.
func startReconStage(r *reconstructor, chunk int) *reconStage {
	st := &reconStage{
		full: make(chan *ctuBatch, ringDepth),
		free: make(chan *ctuBatch, ringDepth),
		done: make(chan struct{}),
	}
	for i := range r.scr.ring {
		st.free <- &r.scr.ring[i]
	}
	go func() {
		defer close(st.done)
		if r.timed {
			workerLabels("decode-recon", chunk, func() { st.loop(r) })
		} else {
			st.loop(r)
		}
	}()
	return st
}

func (st *reconStage) loop(r *reconstructor) {
	for b := range st.full {
		if st.failed == nil {
			st.failed = runTrapped(r, b)
		}
		st.free <- b
	}
}

// runTrapped reconstructs one batch and returns the value of a panic out of
// it, nil when there was none.
func runTrapped(r *reconstructor, b *ctuBatch) (failed any) {
	defer func() { failed = recover() }()
	r.run(b)
	return nil
}

// join ends the stage, waits for its goroutine to exit and reports the panic
// value it trapped, if any. Batches still queued are reconstructed first;
// that is at most a ring of CTUs, well inside the cancellation budget.
func (st *reconStage) join() any {
	close(st.full)
	<-st.done
	return st.failed
}
