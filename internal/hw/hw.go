// Package hw models the hardware-cost side of the paper (§6–§7): die area,
// power and energy of video codecs, NICs, GPUs and the proposed three-in-one
// tensor codec.
//
// Published numbers from the paper (Table 3, Fig. 12) are carried as data —
// they were obtained by synthesizing open-source RTL with ASAP7 and by die
// measurement, neither of which is reproducible offline — and every derived
// result (energy ratios, codec+NIC system area, sharing savings) is computed
// from them by the same arithmetic the paper uses.
package hw

// Component is a hardware block with its published characteristics.
type Component struct {
	Name           string
	PowerW         float64
	AreaMM2        float64
	EnergyPerBitPJ float64 // energy per tensor bit processed / transmitted
	ThroughputGbps float64 // sustained tensor throughput
}

// Table 3 of the paper.
var (
	NCCLEndToEnd = Component{Name: "NCCL End to End", EnergyPerBitPJ: 5120}

	H264Enc = Component{Name: "H.264 Enc (100Gbps)", PowerW: 1.1, AreaMM2: 0.96, EnergyPerBitPJ: 167.8, ThroughputGbps: 100}
	H264Dec = Component{Name: "H.264 Dec (100Gbps)", PowerW: 1.0, AreaMM2: 0.97, EnergyPerBitPJ: 154.3, ThroughputGbps: 100}
	H265Enc = Component{Name: "H.265 Enc (100Gbps)", PowerW: 11.0, AreaMM2: 11.7, EnergyPerBitPJ: 1707.5, ThroughputGbps: 100}
	H265Dec = Component{Name: "H.265 Dec (100Gbps)", PowerW: 4.3, AreaMM2: 2.1, EnergyPerBitPJ: 665.4, ThroughputGbps: 100}

	ThreeInOneEnc = Component{Name: "Three-in-one Enc", PowerW: 0.78, AreaMM2: 0.70, EnergyPerBitPJ: 97.8, ThroughputGbps: 100}
	ThreeInOneDec = Component{Name: "Three-in-one Dec", PowerW: 0.58, AreaMM2: 0.58, EnergyPerBitPJ: 63.5, ThroughputGbps: 100}
)

// Devices of Fig. 12. GPU area is published at Samsung 8nm (628 mm²) and
// scaled to 7nm (398 mm²); the NIC is a direct die measurement.
var (
	GPURTX3090     = Component{Name: "RTX 3090 GPU (8nm)", AreaMM2: 628, PowerW: 350}
	GPURTX3090At7  = Component{Name: "RTX 3090 GPU (scaled 7nm)", AreaMM2: 398, PowerW: 350}
	NICMellanoxCX5 = Component{Name: "Mellanox CX5 100Gbps NIC", AreaMM2: 169.7, PowerW: 25, ThroughputGbps: 100}
	// Server-class CPU for the Fig. 12 comparison (modeled: EPYC-class
	// compute+IO dies at 7nm).
	CPUServer = Component{Name: "Server CPU (7nm, modeled)", AreaMM2: 416, PowerW: 200}
)

// SingleInstanceThroughputGbps is one hardware codec instance's tensor
// throughput: 3840×2160 luma pixels at 60 fps and 8 bits each ≈ 4 Gb/s.
const SingleInstanceThroughputGbps = 3840 * 2160 * 60 * 8 / 1e9

// InstancesFor reports how many single codec instances must be aggregated to
// sustain targetGbps (the Fig. 12 normalization).
func InstancesFor(targetGbps float64) int {
	n := int(targetGbps / SingleInstanceThroughputGbps)
	if float64(n)*SingleInstanceThroughputGbps < targetGbps {
		n++
	}
	return n
}

// Breakdown is a die-area decomposition by pipeline component (fractions sum
// to 1). Fractions are modeled from the paper's Fig. 12 layouts, which show
// inter-frame prediction and the frame buffer dominating.
type Breakdown struct {
	InterPred   float64
	FrameBuffer float64
	IntraPred   float64
	Transform   float64
	Entropy     float64
	Misc        float64
}

// EncoderBreakdown and DecoderBreakdown are the modeled Fig. 12(a–d)
// component splits.
var (
	EncoderBreakdown = Breakdown{InterPred: 0.30, FrameBuffer: 0.25, IntraPred: 0.15, Transform: 0.12, Entropy: 0.10, Misc: 0.08}
	DecoderBreakdown = Breakdown{InterPred: 0.25, FrameBuffer: 0.30, IntraPred: 0.15, Transform: 0.12, Entropy: 0.12, Misc: 0.06}
)

// TensorOnlyFraction reports the fraction of die area a codec retains once
// inter-frame prediction is removed and the frame buffer shrinks (the paper:
// dropping inter also "drastically decreases the buffer size requirement";
// we model the buffer shrinking to a quarter).
func (b Breakdown) TensorOnlyFraction() float64 {
	return b.IntraPred + b.Transform + b.Entropy + b.Misc + b.FrameBuffer*0.25
}

// SharedPipelineFraction is the fraction of the three-in-one encoder spent
// on the pipeline shared by tensor/image/video inputs (§7: 80%).
const SharedPipelineFraction = 0.80

// EnergyRatioVsNCCL reports how much cheaper one encode+decode pass is than
// moving the same bits with NCCL: 5120/(97.8+63.5) ≈ 31.7× for the
// three-in-one codec (§7.3).
func EnergyRatioVsNCCL(enc, dec Component) float64 {
	return NCCLEndToEnd.EnergyPerBitPJ / (enc.EnergyPerBitPJ + dec.EnergyPerBitPJ)
}

// CompressionEnergyEfficiency reports the end-to-end energy gain of
// compress-transfer-decompress at compression ratio r versus raw transfer
// (§7.3): 5120 / (5120/r + Eenc + Edec).
func CompressionEnergyEfficiency(enc, dec Component, ratio float64) float64 {
	if ratio <= 0 {
		panic("hw: ratio must be positive")
	}
	raw := NCCLEndToEnd.EnergyPerBitPJ
	compressed := raw/ratio + enc.EnergyPerBitPJ + dec.EnergyPerBitPJ
	return raw / compressed
}

// SystemArea reports the total die area of a 100 Gbps-effective
// communication system: the codec pair plus a NIC sized for the post-
// compression traffic (NIC area scales with required line rate — the Fig. 15
// model where better compression shrinks the dominant NIC cost).
func SystemArea(encArea, decArea, compressionRatio float64) float64 {
	if compressionRatio < 1 {
		compressionRatio = 1
	}
	nic := NICMellanoxCX5.AreaMM2 / compressionRatio
	return encArea + decArea + nic
}

// TransferEnergyPJ reports the total energy in pJ to move payloadBits of
// tensor data through a codec pair and the network at the given compression
// ratio.
func TransferEnergyPJ(enc, dec Component, compressionRatio, payloadBits float64) float64 {
	if compressionRatio < 1 {
		compressionRatio = 1
	}
	wire := payloadBits / compressionRatio * NCCLEndToEnd.EnergyPerBitPJ
	codec := payloadBits * (enc.EnergyPerBitPJ + dec.EnergyPerBitPJ)
	return wire + codec
}

// BaselineCodec describes a hardware implementation of one of the §7.1
// chained baseline compressors (modeled from the cited open-source RTL,
// normalized to 100 Gbps at 7nm).
type BaselineCodec struct {
	Name    string
	EncArea float64 // mm²
	DecArea float64
	EncPJ   float64 // pJ per tensor bit
	DecPJ   float64
}

// BaselineCodecs are the four entropy back-ends of the Fig. 15 comparison.
// CABAC's serial bin loop makes it the most expensive; LZ4 is cheap but
// compresses tensors poorly; Huffman and Deflate sit between.
var BaselineCodecs = []BaselineCodec{
	{Name: "Huffman", EncArea: 0.18, DecArea: 0.15, EncPJ: 35, DecPJ: 30},
	{Name: "Deflate", EncArea: 0.65, DecArea: 0.40, EncPJ: 120, DecPJ: 80},
	{Name: "LZ4", EncArea: 0.30, DecArea: 0.20, EncPJ: 45, DecPJ: 35},
	{Name: "CABAC", EncArea: 0.28, DecArea: 0.26, EncPJ: 140, DecPJ: 130},
}
