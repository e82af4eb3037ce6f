package codec

import (
	"context"
	"encoding/binary"
	"time"

	"repro/internal/cabac"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
)

// decoder is the parse stage of a chunk decode (DESIGN.md §13.4): it owns the
// bin reader, the entropy contexts and the mode predictor, and turns the
// substream into per-CTU batches of leaf records and level blocks. It never
// looks at a pixel; the reconstruct stage (recon.go) consumes the batches in
// order, inline after each CTU or — when the pool has workers to spare — on
// a goroutine of its own behind the scratch's batch ring.
type decoder struct {
	prof  profileParams
	tools Tools
	fIdx  int

	br binDecoder

	// scr is the per-worker scratch arena; owned exclusively by this decode
	// for the duration of the chunk. scr.rcn is the reconstruct stage's
	// state, which the parse stage touches only at frame boundaries, when
	// that stage is drained.
	scr *scratch

	// stage is the running reconstruct goroutine, nil when batches are
	// reconstructed inline.
	stage *reconStage

	// cancel, when non-nil, is a cancellable context polled once per CTU —
	// the decoder-side twin of encoder.cancel (DESIGN.md §12).
	cancel context.Context

	prevMode intra.Mode

	// rec times the CTU parses into stages when metrics are on, one clock
	// pair a CTU; nil, none.
	rec    *stageRecorder
	stages stageRecorder
}

// checkPreamble validates the fixed 8-byte preamble plus the minimum header
// tail shared by every container version.
func checkPreamble(data []byte) error {
	if len(data) < 4 {
		return truncatedf("codec: %d-byte stream", len(data))
	}
	for i := range magic {
		if data[i] != magic[i] {
			return corruptf("codec: bad magic")
		}
	}
	if len(data) < 12 {
		return truncatedf("codec: %d-byte stream", len(data))
	}
	return nil
}

// parseHeader reads the header fields every container version shares into pc
// (profile, tools, qp, the optional entropy-backend extension, frame count
// and dims), returning the offset of the first version-specific byte. A valid
// rANS backend extension sets tools.Backend to BackendRANS; with tables set,
// ransTabs then holds its class decode tables.
func (pc *parsedContainer) parseHeader(data []byte, tables bool) (off int, err error) {
	var ok bool
	if pc.prof, ok = profileOfWire(data[5]); !ok {
		return 0, corruptf("codec: unknown profile id %d", data[5])
	}
	switch t := data[6]; {
	case t&^toolsKnown != 0:
		return 0, corruptf("codec: tools byte 0x%02x sets reserved bits 0x%02x", t, t&^toolsKnown)
	case t&toolsEntropy == 0:
		return 0, corruptf("codec: retired raw-bin layout: tools byte 0x%02x has no entropy-coding bit", t)
	}
	pc.tools = toolsFromBits(data[6])
	if pc.qp = int(data[7]); pc.qp > dct.MaxQP {
		return 0, corruptf("codec: qp %d out of range", pc.qp)
	}
	off = 8
	if data[6]&toolsBackendExt != 0 {
		// Backend extension: backend id, then (for rANS) the class tables
		// (parseRansExt). Every reserved id — 0 too, since a CABAC stream
		// never carries the extension — is a structural violation.
		if len(data) < off+1 {
			return 0, truncatedf("codec: header ends before backend id")
		}
		id := data[off]
		off++
		if id != uint8(BackendRANS) {
			return 0, corruptf("codec: unknown entropy backend %d", id)
		}
		if tables {
			pc.ransTabs = new(ransTables)
		}
		n, err := parseRansExt(data[off:], pc.ransTabs)
		if err != nil {
			return 0, err
		}
		off += n
		pc.tools.Backend = BackendRANS
	}
	if len(data) < off+4 {
		return 0, truncatedf("codec: header ends before frame count")
	}
	nFrames := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nFrames <= 0 || nFrames > 1<<20 {
		return 0, corruptf("codec: frame count %d out of range", nFrames)
	}
	if len(data) < off+8*nFrames+4 {
		// Allocation cap: the dim table is sized from the header, so reject
		// counts the remaining bytes cannot possibly hold before any make.
		return 0, truncatedf("codec: header ends inside %d-entry dim table", nFrames)
	}
	dims := make([][2]int, nFrames)
	totalPix := int64(0)
	for i := range dims {
		dims[i][0] = int(binary.BigEndian.Uint32(data[off:]))
		dims[i][1] = int(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
		// Dims above the profile's frame limit can never have been emitted
		// by the encoder; rejecting them here also caps the planes a forged
		// header can make the decoder allocate (§hardening, DESIGN.md §9).
		if dims[i][0] <= 0 || dims[i][1] <= 0 ||
			dims[i][0] > pc.prof.MaxFrameDim() || dims[i][1] > pc.prof.MaxFrameDim() {
			return 0, corruptf("codec: frame %d dims %dx%d out of range", i, dims[i][0], dims[i][1])
		}
		totalPix += int64(dims[i][0]) * int64(dims[i][1])
	}
	if totalPix > maxDecodePixels {
		return 0, corruptf("codec: header declares %d pixels, cap is %d", totalPix, int64(maxDecodePixels))
	}
	pc.dims = dims
	return off, nil
}

// maxDecodePixels caps the total source pixels a container header may
// declare (~256 Mpx ≈ 256 MB of planes). A CABAC payload reads zeros past
// its end instead of failing, so without this cap a few forged header bytes
// could commit the decoder to gigabytes of plane allocations before any
// payload byte is validated. Raise it if tensors beyond 256 Mpx per decode
// call ever become real; the fuzz harness relies on it staying finite.
const maxDecodePixels = 1 << 28

// decodeChunkPayload decodes chunk c of a parsed container — one independent
// substream — into freshly allocated planes, using the caller's scratch s for
// every transient buffer. Distinct chunks may be decoded concurrently as long
// as each call owns its scratch.
//
// surplus says the pool has more workers than chunks, so the reconstruct
// stage runs beside the parse on a goroutine of its own instead of after each
// CTU; the planes are identical either way. That goroutine is started and
// joined here, on every exit — normal return, a decodeError or cancelAbort
// panic out of the parse, a defect panic in either stage — so it never
// outlives the call and the scratch is quiescent when it goes back to the pool.
func decodeChunkPayload(ctx context.Context, c *chunkMeta, pc *parsedContainer, surplus bool, m *decMetrics, s *scratch) (planes []*frame.Plane, err error) {
	// recover() must be called directly by the deferred function, so the
	// panic trap is inlined here rather than delegated to a helper. Known
	// decode panics travel as decodeError values; a cancelAbort carries a
	// context cancellation out of the per-CTU loop; anything else (an index
	// out of range, a failed allocation guard) is a defect we still refuse
	// to let take the process down — it surfaces as ErrCorrupt with the
	// panic payload preserved for debugging.
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case decodeError:
				err = classifyStreamErr(v.err)
			case cancelAbort:
				err = v.err
			default:
				err = corruptf("codec: decode panic: %v", r)
			}
			planes = nil
		}
	}()

	d := &s.dec
	*d = decoder{
		prof:   pc.prof.params(),
		tools:  pc.tools,
		scr:    s,
		cancel: cancellable(ctx),
		rec:    m.recorder(&d.stages),
	}
	s.rcn = reconstructor{prof: d.prof, tools: pc.tools, qp: pc.qp, scr: s, rec: m.recorder(&s.rcn.stages)}
	var rc *ransChunk
	switch {
	case pc.tools.Backend == BackendRANS:
		rc = &s.chunk // every symbol pre-decoded before the syntax parse
		segs, err := rc.readFraming(c.payload, pc.ransTabs, codedPixels(c.dims, pc.prof.CTUSize()))
		if err == nil {
			err = rc.predecode(&segs, pc.ransTabs)
		}
		if err != nil {
			return nil, classifyStreamErr(err)
		}
		d.br = rc
	default:
		s.ctx.init()
		s.cabacDec = cabacBinDec{d: cabac.NewDecoder(c.payload), ctx: &s.ctx}
		d.br = &s.cabacDec
	}

	var stageStart time.Time
	if surplus {
		stageStart = d.rec.start()
		d.stage = startReconStage(&s.rcn, c.index)
	}
	// Registered after the recover above, so on a panic it runs first: the
	// stage is joined before the panic becomes this call's error.
	defer func() {
		if d.stage != nil {
			if failed := d.stage.join(); failed != nil && err == nil {
				planes, err = nil, corruptf("codec: decode panic: %v", failed)
			}
		}
		m.flush(d.rec, s.rcn.rec, d.stage != nil, stageStart)
	}()

	planes = make([]*frame.Plane, len(c.dims))
	for i := range c.dims {
		d.fIdx = i
		planes[i] = d.decodeFrame(c.dims[i][0], c.dims[i][1])
	}
	if rc != nil {
		// Strict end-of-chunk rule: the syntax parse must have consumed every
		// pre-decoded symbol and bypass bit the payload declared.
		if err := rc.close(); err != nil {
			return nil, err
		}
	}
	return planes, nil
}

// decodeFrame parses one frame CTU by CTU, handing each CTU's batch to the
// reconstruct stage, and returns the cropped reconstruction. The frame is a
// barrier between the stages: the reconstruction is set up before the first
// batch and cropped after the last has been reconstructed, so frame state
// changes hands only while the stage is idle (and an inter-predicted frame
// always finds its reference complete).
func (d *decoder) decodeFrame(srcW, srcH int) *frame.Plane {
	ctu := d.prof.ctuSize
	w, h := padTo(srcW, ctu), padTo(srcH, ctu)
	d.scr.rcn.beginFrame(w, h)
	d.prevMode = intra.DC

	for y := 0; y < h; y += ctu {
		for x := 0; x < w; x += ctu {
			// Cooperative cancellation point, mirroring the encoder: one
			// poll per CTU, one nil check when not cancellable.
			if d.cancel != nil {
				if err := d.cancel.Err(); err != nil {
					panic(cancelAbort{err})
				}
			}
			b := d.emptyBatch()
			t := d.rec.start()
			d.parseCU(b, x, y, ctu, 0)
			d.rec.stop(stageEntropy, t)
			d.submit(b)
		}
	}
	d.drain()
	return d.scr.rcn.endFrame(srcW, srcH)
}

// emptyBatch returns the batch the next CTU is parsed into: the scratch's
// first when reconstruction is inline, otherwise the next one the stage has
// finished with (waiting for it when the parse is a full ring ahead).
func (d *decoder) emptyBatch() *ctuBatch {
	b := &d.scr.ring[0]
	if d.stage != nil {
		b = <-d.stage.free
	}
	b.n, b.levN = 0, 0
	return b
}

// submit hands a parsed CTU to the reconstruct stage.
func (d *decoder) submit(b *ctuBatch) {
	if d.stage != nil {
		d.stage.full <- b
		return
	}
	d.scr.rcn.run(b)
}

// drain returns once every submitted batch has been reconstructed. The stage
// frees a batch only after reconstructing it, so holding the whole ring
// means it is idle.
func (d *decoder) drain() {
	if d.stage == nil {
		return
	}
	for range d.scr.ring {
		<-d.stage.free
	}
	for i := range d.scr.ring {
		d.stage.free <- &d.scr.ring[i]
	}
}

func (d *decoder) parseCU(b *ctuBatch, x, y, size, depth int) {
	split := false
	switch splitKindFor(d.prof, d.tools, size) {
	case splitForced:
		split = true
	case splitSignaled:
		split = d.br.bit(splitSlot(depth)) == 1
	case splitLeafOnly:
	}
	if split {
		h := size / 2
		for i := 0; i < 4; i++ {
			d.parseCU(b, x+(i%2)*h, y+(i/2)*h, h, depth+1)
		}
		return
	}
	d.parseLeaf(b, x, y, size)
}

// parseLeaf appends one leaf — its prediction decision and its level block —
// to the batch.
func (d *decoder) parseLeaf(b *ctuBatch, x, y, size int) {
	lf := &b.leaves[b.n]
	b.n++
	*lf = leafRec{x: int32(x), y: int32(y), size: int32(size), mode: intra.DC}
	if d.tools.InterPred && d.fIdx > 0 {
		lf.inter = d.br.bit(ctxInterFlag) == 1
	}
	if lf.inter {
		lf.mvx = unzigzag(d.br.expGolomb(1))
		lf.mvy = unzigzag(d.br.expGolomb(1))
	} else if d.tools.IntraPred {
		if d.br.bit(ctxModeSame) == 1 {
			lf.mode = d.prevMode
		} else {
			idx := int(d.br.bypassBits(modeIdxBits(len(d.prof.modes))))
			if idx >= len(d.prof.modes) {
				panic(decodeError{ErrCorrupt})
			}
			lf.mode = d.prof.modes[idx]
		}
		d.prevMode = lf.mode
	}
	lev := b.lev[b.levN : b.levN+size*size]
	b.levN += size * size
	d.parseResidual(lev, size, d.tools.Transform)
}

// maxLevel is the largest level magnitude the parse accepts. No encode comes
// near it — a ±255 residual block through the 32-point Forward, over QP 0's
// step, stays below 13 000 — and 2¹⁶ steps of QP 51 still fit an int32, so
// past this check neither the escape's 3+rem nor Dequantize's product can
// overflow: a damaged stream without a CRC (v1/v2) decodes to a typed error or
// to the same planes on every architecture.
const maxLevel = 1 << 16

// parseResidual decodes one level block into lev (size×size, row-major). The
// residual syntax is spelled twice, once per backend: CABAC's block form,
// cabac.DecodeLevels, and the rANS block form, ransChunk.parseResidual, over
// symbols.
func (d *decoder) parseResidual(lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan, sigSlot := residualScan(size, transformed)
	switch br := d.br.(type) {
	case *cabacBinDec:
		ctx := br.ctx
		if !br.d.DecodeLevels(lev, scan, sigSlot, ctx[:], &ctx[ctxCbf+si], &ctx[ctxG1+si], &ctx[ctxG2+si], maxLevel) {
			panic(decodeError{ErrCorrupt})
		}
	case *ransChunk:
		br.parseResidual(lev, scan, si)
	}
}
