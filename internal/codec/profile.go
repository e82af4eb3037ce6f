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

	"repro/internal/intra"
)

// Profile selects the coding tool set, mirroring the three hardware codecs
// the paper evaluates (Fig. 6): H.264-like, H.265/HEVC-like and AV1-like.
type Profile struct {
	Name         string
	CTUSize      int          // coding tree unit edge (largest block)
	MinCUSize    int          // smallest coding unit edge
	Modes        []intra.Mode // allowed intra modes
	MaxTransform int          // largest transform size
	UseDST4      bool         // DST-VII for 4×4 intra residuals
	RefSmoothing bool         // [1 2 1] reference smoothing
	MaxFrameDim  int          // hardware frame-size limit (per Table 2)
}

// Predefined profiles. Numbers follow the paper's Table 2: H.264 engines
// handle up to 4K frames, H.265 and AV1 up to 8K.
var (
	H264 = Profile{
		Name: "H.264", CTUSize: 16, MinCUSize: 4,
		Modes: intra.H264Modes, MaxTransform: 8,
		UseDST4: false, RefSmoothing: false, MaxFrameDim: 4096,
	}
	HEVC = Profile{
		Name: "H.265", CTUSize: 32, MinCUSize: 8,
		Modes: intra.HEVCModes, MaxTransform: 32,
		UseDST4: true, RefSmoothing: true, MaxFrameDim: 8192,
	}
	AV1 = Profile{
		Name: "AV1", CTUSize: 32, MinCUSize: 8,
		Modes: intra.AV1Modes, MaxTransform: 32,
		UseDST4: true, RefSmoothing: true, MaxFrameDim: 8192,
	}
)

// profileByID maps the on-wire profile identifier to a Profile.
var profileByID = map[uint8]Profile{0: H264, 1: HEVC, 2: AV1}

func (p Profile) id() uint8 {
	switch p.Name {
	case "H.264":
		return 0
	case "H.265":
		return 1
	case "AV1":
		return 2
	}
	panic(fmt.Sprintf("codec: unknown profile %q", p.Name))
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
	return Profile{}, fmt.Errorf("codec: unknown profile %q (want h264, h265 or av1)", s)
}

// Tools toggles individual pipeline stages, enabling the Fig. 2(b) ablation.
// The all-true value is the full codec.
type Tools struct {
	Partitioning bool // RD quadtree splitting (else fixed 16×16 CUs)
	Transform    bool // DCT/DST transform (else spatial-domain quantization)
	IntraPred    bool // intra prediction (else constant mid-gray predictor)
	InterPred    bool // motion-compensated P-frames (hurts tensors)
	CABAC        bool // arithmetic coding (else fixed/VLC bin writing)

	// Backend selects the entropy stage used for context-coded bins when
	// CABAC (the "entropy coding on" ablation switch) is set: adaptive
	// arithmetic coding by default, or interleaved static rANS. It rides on
	// Tools because every encode/decode seam already threads Tools; on the
	// wire it is the toolsBackendExt bit of the tools byte plus a backend
	// extension in the header, so CABAC streams stay byte-identical.
	Backend EntropyBackend
}

// AllTools is the full intra pipeline the paper ships (inter disabled, per
// §3.2: "LLM.265 enforces an intra-frame-only encoding").
var AllTools = Tools{Partitioning: true, Transform: true, IntraPred: true, CABAC: true}

// toolsBackendExt is the tools-byte bit announcing that a backend extension
// (backend id + shared probability table) follows the header's qp byte.
// Absent for CABAC, so default streams carry the historical tools byte.
const toolsBackendExt = 0x20

// toolsBits packs Tools into a byte for the bitstream header.
func (t Tools) bits() uint8 {
	return uint8(b2i(t.Partitioning) | b2i(t.Transform)<<1 | b2i(t.IntraPred)<<2 | b2i(t.InterPred)<<3 |
		b2i(t.CABAC)<<4 | b2i(t.Backend != BackendCABAC)*toolsBackendExt)
}

func toolsFromBits(b uint8) Tools {
	return Tools{
		Partitioning: b&1 != 0,
		Transform:    b&2 != 0,
		IntraPred:    b&4 != 0,
		InterPred:    b&8 != 0,
		CABAC:        b&16 != 0,
		// Backend is NOT recovered here: the tools byte only flags that a
		// backend extension exists; parseCommonHeader validates and applies
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
// splits; down to the leaf floor — the profile's MinCUSize, or with the
// Partitioning tool ablated a fixed size, where the split is forced and never
// signaled — it may; at the floor it is a leaf.
func splitKindFor(prof Profile, tools Tools, size int) splitKind {
	minCU, above := prof.MinCUSize, splitSignaled
	if !tools.Partitioning {
		minCU, above = min(fixedCUSize, prof.MaxTransform), splitForced
	}
	switch {
	case size > prof.MaxTransform:
		return splitForced
	case size > minCU:
		return above
	}
	return splitLeafOnly
}
