// Package codec implements the intra-only block video codec at the heart of
// LLM.265: CTU quadtree partitioning, intra prediction, integer transform
// coding, QP quantization and CABAC entropy coding, plus an optional
// inter-frame (motion compensated) mode used to reproduce the paper's
// negative result that inter prediction does not help tensors (§3.1).
//
// The encoder is two-phase per CTU: a decision phase searches the quadtree
// and prediction modes with rate-distortion estimates while maintaining the
// reconstruction plane, and an emission phase serializes the chosen decisions
// through the (context-adaptive) bin coder. The decoder mirrors the emission
// phase exactly, so encoder and decoder reconstructions are bit-identical.
package codec

import (
	"fmt"
	"slices"

	"repro/internal/intra"
)

// Profile names one of the three coding tool sets the paper compares (Fig. 6,
// Table 2): H.265/HEVC-like, H.264-like and AV1-like. Like HEVC's
// general_profile_idc, it is all the stream carries: a one-byte id from which
// encoder and decoder alike derive every tool, so no tool is settable apart
// from its profile. The zero value is HEVC, the shipping default.
type Profile uint8

const (
	HEVC Profile = iota
	H264
	AV1
)

// profileParams is a profile's row of coding parameters.
type profileParams struct {
	name               string
	wire               uint8        // the header's profile byte
	ctuSize, minCUSize int          // largest and smallest coding unit edge
	modes              []intra.Mode // allowed intra modes
	maxTransform       int          // largest transform size
	dst4, smoothing    bool         // DST-VII for 4×4 intra residuals; [1 2 1] reference smoothing
	maxFrameDim        int          // hardware frame-size limit (per Table 2)
}

// profiles is the one table of coding parameters. Numbers follow the paper's
// Table 2: H.264 engines handle up to 4K frames, H.265 and AV1 up to 8K. The
// wire ids predate the Profile values and never move.
var profiles = [...]profileParams{
	HEVC: {name: "H.265", wire: 1, ctuSize: 32, minCUSize: 8, modes: intra.HEVCModes, maxTransform: 32, dst4: true, smoothing: true, maxFrameDim: 8192},
	H264: {name: "H.264", wire: 0, ctuSize: 16, minCUSize: 4, modes: intra.H264Modes, maxTransform: 8, maxFrameDim: 4096},
	AV1:  {name: "AV1", wire: 2, ctuSize: 32, minCUSize: 8, modes: intra.AV1Modes, maxTransform: 32, dst4: true, smoothing: true, maxFrameDim: 8192},
}

// params is p's row of the table. An out-of-range p has only a name: its
// CTUSize and MaxFrameDim are 0, and Encode refuses it.
func (p Profile) params() profileParams {
	if int(p) < len(profiles) {
		return profiles[p]
	}
	return profileParams{name: fmt.Sprintf("profile(%d)", uint8(p))}
}

// String names the profile as the paper's figures do.
func (p Profile) String() string { return p.params().name }

// CTUSize is the profile's coding tree unit edge, which planes are padded to.
func (p Profile) CTUSize() int { return p.params().ctuSize }

// MaxFrameDim is the profile's frame-size limit in pixels, on each axis.
func (p Profile) MaxFrameDim() int { return p.params().maxFrameDim }

// profileOfWire maps the header's profile byte back to its Profile.
func profileOfWire(id uint8) (Profile, bool) {
	p := slices.IndexFunc(profiles[:], func(row profileParams) bool { return row.wire == id })
	return Profile(p), p >= 0
}

// EntropyBackend selects the entropy-coding stage for context-coded bins.
//
// BackendCABAC is the shipping default: adaptive binary arithmetic coding,
// bit-serial within a chunk, byte-pinned by the golden conformance corpus.
// BackendRANS is the paper's parallel-decode alternative (VcLLM's two-pass
// scheme): per-class symbol statistics become static tables in the v3
// header, and each chunk's symbols are coded through rans.Interleave states
// that decode together, with no serial adaptation chain (backend.go).
type EntropyBackend uint8

const (
	// BackendCABAC is adaptive arithmetic coding (the default).
	BackendCABAC EntropyBackend = 0
	// BackendRANS is interleaved static rANS over per-class tables.
	BackendRANS EntropyBackend = 1
)

// String names the backend for flags and error messages.
func (b EntropyBackend) String() string {
	switch b {
	case BackendCABAC:
		return "cabac"
	case BackendRANS:
		return "rans"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// StreamBackend reports which entropy backend a container was encoded with,
// from the header bytes alone (the backend extension sits right after the qp
// byte). Short or damaged streams report CABAC; full validation is Decode's
// job.
func StreamBackend(data []byte) EntropyBackend {
	if len(data) > 8 && data[6]&toolsBackendExt != 0 {
		return EntropyBackend(data[8])
	}
	return BackendCABAC
}

// ParseBackend maps a flag/query value to a backend.
func ParseBackend(s string) (EntropyBackend, error) {
	switch s {
	case "", "cabac":
		return BackendCABAC, nil
	case "rans":
		return BackendRANS, nil
	}
	return 0, fmt.Errorf("codec: unknown entropy backend %q (want cabac or rans)", s)
}

// ParseProfile maps a flag/query value to a profile; empty selects HEVC.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "", "h265", "hevc":
		return HEVC, nil
	case "h264", "avc":
		return H264, nil
	case "av1":
		return AV1, nil
	}
	return 0, fmt.Errorf("codec: unknown profile %q (want h264, h265 or av1)", s)
}

// Tools toggles individual pipeline stages, enabling the Fig. 2(b) ablation.
// Every stream is entropy-coded, so the zero value is Fig. 2's stage (2),
// entropy coding alone; AllTools is the full codec.
type Tools struct {
	Partitioning bool // RD quadtree splitting (else fixed 16×16 CUs)
	Transform    bool // DCT/DST transform (else spatial-domain quantization)
	IntraPred    bool // intra prediction (else constant mid-gray predictor)
	InterPred    bool // motion-compensated P-frames (hurts tensors)

	// Backend codes the context-coded bins. It rides on Tools because every
	// seam threads Tools; on the wire it is the toolsBackendExt bit plus the
	// backend extension.
	Backend EntropyBackend
}

// AllTools is the full intra pipeline the paper ships (inter disabled, per
// §3.2: "LLM.265 enforces an intra-frame-only encoding").
var AllTools = Tools{Partitioning: true, Transform: true, IntraPred: true}

// The tools byte: the four stage bits (Tools' fields in order, from bit 0),
// toolsEntropy, which every stream sets, and toolsBackendExt. A stream
// without toolsEntropy is the retired raw-bin layout, which wrote every bin
// as one literal bit; the top two bits are reserved. parseHeader refuses
// both.
const (
	toolsEntropy = 0x10
	// toolsBackendExt announces that a backend extension (backend id +
	// shared probability table) follows the header's qp byte. Absent for
	// CABAC, so default streams carry the historical tools byte.
	toolsBackendExt = 0x20
	toolsKnown      = 0x3F
)

// toolsBits packs Tools into a byte for the bitstream header.
func (t Tools) bits() uint8 {
	return uint8(b2i(t.Partitioning) | b2i(t.Transform)<<1 | b2i(t.IntraPred)<<2 | b2i(t.InterPred)<<3 |
		toolsEntropy | b2i(t.Backend != BackendCABAC)*toolsBackendExt)
}

func toolsFromBits(b uint8) Tools {
	return Tools{
		Partitioning: b&1 != 0,
		Transform:    b&2 != 0,
		IntraPred:    b&4 != 0,
		InterPred:    b&8 != 0,
		// Backend is NOT recovered here: the tools byte only flags that a
		// backend extension exists; parseHeader validates and applies
		// the extension's backend id.
	}
}

// fixedCUSize is the block size used when Partitioning is disabled.
const fixedCUSize = 16

// splitKind classifies how a CU of the given size partitions: forced split,
// signaled split, or leaf-only.
type splitKind int

const (
	splitForced splitKind = iota
	splitSignaled
	splitLeafOnly
)

// splitKindFor is the partition rule, spelled once: the encoder's decide and
// emit walks and the decoder's parse all ask it, so the two sides agree on the
// quadtree's shape by construction. Above the transform limit a CU always
// splits; down to the leaf floor — the profile's minimum CU edge, or with the
// Partitioning tool ablated a fixed size, where the split is forced and never
// signaled — it may; at the floor it is a leaf.
func splitKindFor(prof profileParams, tools Tools, size int) splitKind {
	minCU, above := prof.minCUSize, splitSignaled
	if !tools.Partitioning {
		minCU, above = min(fixedCUSize, prof.maxTransform), splitForced
	}
	switch {
	case size > prof.maxTransform:
		return splitForced
	case size > minCU:
		return above
	}
	return splitLeafOnly
}
