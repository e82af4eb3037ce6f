// Per-worker scratch arena for the encode/decode hot paths (DESIGN.md §11):
// every transient a chunk touches, by lifetime — fixed per-trial block
// buffers sized to the 32×32 maximum CU, per-CTU bump arenas for decisions
// that outlive a call (address-stable chunks, reset each CTU), and per-frame
// and per-chunk state re-initialized in place — so the steady-state hot path
// allocates nothing. A scratch is owned by one encoder or decoder at a time,
// one per worker goroutine; nothing returned across the package boundary
// aliases it, and a package-level sync.Pool is the only way to obtain one.
package codec

import (
	"sync"

	"repro/internal/cabac"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
)

// maxCU is the largest coding-unit edge any profile uses (HEVC/AV1 CTUs).
const maxCU = 32

// maxBlock is the area of the largest coding unit — the size every per-block
// scratch buffer is provisioned for.
const maxBlock = maxCU * maxCU

// nodeBlockLen is the cuDec arena growth quantum.
const nodeBlockLen = 256

// levBlockLen is the levels arena growth quantum (int32 entries per block;
// requests never exceed maxBlock, so any request fits in a fresh block).
const levBlockLen = 1 << 14

// scratch is the per-worker arena. See the package comment above for the
// lifetime rules. The fixed arrays make one scratch a single ~200 KB
// allocation; everything else grows on demand and is retained for reuse.
type scratch struct {
	// Per-trial block buffers (int32, one block each).
	orig     [maxBlock]int32 // source samples of the block being decided
	res      [maxBlock]int32 // residual
	trialLev [maxBlock]int32 // candidate quantized levels
	coefA    [maxBlock]int32 // transform coefficients, forward then dequantized
	rec      [maxBlock]int32 // reconstructed samples
	pred     [maxBlock]int32 // single prediction (apply/inter/decoder paths)
	mcPred   [maxBlock]int32 // motion-search probe prediction
	nz       dct.RowMasks    // where a trial's, or a decoded leaf's, non-zero levels are

	// predsArena holds one prediction block per coarse-search survivor, by
	// rank, for the full-RD stage.
	predsArena [rdCandidates * maxBlock]int32

	// Intra reference rows: the gathered and the smoothed above/left arrays
	// (2·maxCU each).
	refsAbove, refsLeft [2 * maxCU]int32
	smAbove, smLeft     [2 * maxCU]int32

	// scorer holds the leaf being decided packed for the coarse intra search.
	scorer intra.Scorer

	// Frame-lifetime state, reused across frames and chunks.
	origPlane  frame.Plane // padded source
	reconPlane frame.Plane // padded reconstruction

	// Sequence-lifetime encoder state, re-initialized per chunk. (The
	// context set itself sits with the decoder's parse-stage fields below.)
	cabacEnc cabacBinEnc

	// DCTs for every size (4..32, by sizeIdx) plus the 4×4 DST-VII; profiles
	// with a smaller largest transform never look the larger ones up.
	// Transform scratch is internal to *dct.Transform, which is why
	// transforms belong to the per-worker scratch and not to a global.
	transforms [4]*dct.Transform
	dst4       *dct.Transform

	// Bump arenas for decisions that outlive their call; reset per CTU.
	nodes              [][]cuDec
	nodeBlock, nodeIdx int
	levels             [][]int32
	levBlock, levIdx   int

	// Embedded per-chunk state, so a chunk needs no allocation for it: the
	// encoder, and the decoder's reconstruct stage.
	enc encoder
	rcn reconstructor

	// Everything above this line that a decode touches belongs to its
	// reconstruct stage; everything below belongs to its parse stage
	// (recon.go has the ownership table). When the two run on different
	// goroutines the parse writes ctx once per bin and dec and a ring batch
	// once per leaf while the reconstruct reads the fields above once per
	// leaf, so the pads keep the stages — and the batches from the parse
	// state — on cache lines of their own.
	_        stagePad
	ctx      contexts // shared with the encoder, which has one stage
	cabacDec cabacBinDec
	chunk    ransChunk // the rANS chunk reader, its symbol buffer kept warm
	dec      decoder
	_        stagePad
	ring     [ringDepth]ctuBatch
}

// stagePad separates fields written by one decode stage from fields read by
// the other: two 64-byte lines, because the adjacent-line prefetcher pairs
// them.
type stagePad [128]byte

// scratchPool recycles per-worker scratches across calls; see getScratch.
var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch {
	s := &scratch{dst4: dct.NewDST4()}
	for si := range s.transforms {
		s.transforms[si] = dct.NewDCT(4 << si)
	}
	return s
}

// transformFor picks the transform for a block: the DCT of its size, or the
// DST-VII when dst4 (a 4×4 intra block under a profile that enables it).
func (s *scratch) transformFor(size int, dst4 bool) *dct.Transform {
	if dst4 && size == 4 {
		return s.dst4
	}
	return s.transforms[sizeIdx(size)]
}

// getScratch obtains a (possibly warm) scratch from the pool. The caller
// owns it exclusively until putScratch.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns a scratch to the pool. The scratch must not be
// referenced afterwards; everything handed out of the codec is copied, so no
// escaped data can alias it.
func putScratch(s *scratch) { scratchPool.Put(s) }

// binEnc returns the CABAC back-end for a fresh chunk, reusing the
// underlying engine and its output buffer. finish() hands back a slice
// aliasing that buffer, so encodeChunk copies the payload out before the
// scratch can be reused or pooled.
func (s *scratch) binEnc() binEncoder {
	if s.cabacEnc.e == nil {
		s.cabacEnc = cabacBinEnc{e: cabac.NewEncoder(), ctx: &s.ctx}
	} else {
		s.cabacEnc.e.Reset()
	}
	return &s.cabacEnc
}

// predAt returns the prediction buffer of the k-th ranked survivor, sized n2.
func (s *scratch) predAt(k, n2 int) []int32 {
	return s.predsArena[k*maxBlock : k*maxBlock+n2 : k*maxBlock+n2]
}

// resetCTU recycles the node and levels arenas. Called before each CTU's
// decision pass: after the previous CTU was emitted, none of its decisions
// are reachable.
func (s *scratch) resetCTU() {
	s.nodeBlock, s.nodeIdx = 0, 0
	s.levBlock, s.levIdx = 0, 0
}

// newNode bump-allocates a zeroed cuDec with a stable address.
func (s *scratch) newNode() *cuDec {
	if s.nodeBlock >= len(s.nodes) {
		s.nodes = append(s.nodes, make([]cuDec, nodeBlockLen))
	}
	n := &s.nodes[s.nodeBlock][s.nodeIdx]
	*n = cuDec{}
	s.nodeIdx++
	if s.nodeIdx == nodeBlockLen {
		s.nodeBlock++
		s.nodeIdx = 0
	}
	return n
}

// newLevels bump-allocates an n-entry level slice (contents unspecified)
// with a stable backing array. n must be ≤ levBlockLen.
func (s *scratch) newLevels(n int) []int32 {
	if s.levIdx+n > levBlockLen {
		s.levBlock++
		s.levIdx = 0
	}
	if s.levBlock >= len(s.levels) {
		s.levels = append(s.levels, make([]int32, levBlockLen))
	}
	lev := s.levels[s.levBlock][s.levIdx : s.levIdx+n : s.levIdx+n]
	s.levIdx += n
	return lev
}
