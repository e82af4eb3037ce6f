package hw

import (
	"math"
	"testing"
)

func TestEnergyRatioMatchesPaper(t *testing.T) {
	// §7.3: 5120/(97.8+63.5) = 31.7×.
	r := EnergyRatioVsNCCL(ThreeInOneEnc, ThreeInOneDec)
	if math.Abs(r-31.7) > 0.1 {
		t.Fatalf("three-in-one energy ratio %.2f, paper says 31.7", r)
	}
}

func TestCompressionEnergyEfficiencyMatchesPaper(t *testing.T) {
	// §7.3 example: 5× compression → 5120/(5120/5+97.8+63.5) = 4.32×.
	e := CompressionEnergyEfficiency(ThreeInOneEnc, ThreeInOneDec, 5)
	if math.Abs(e-4.32) > 0.01 {
		t.Fatalf("efficiency at 5× = %.3f, paper says 4.32", e)
	}
	// Monotone in ratio, and ratio 1 still pays codec energy (< 1×).
	if CompressionEnergyEfficiency(ThreeInOneEnc, ThreeInOneDec, 1) >= 1 {
		t.Fatal("ratio-1 compression should not be a net win")
	}
	if CompressionEnergyEfficiency(ThreeInOneEnc, ThreeInOneDec, 10) <= e {
		t.Fatal("efficiency should grow with ratio")
	}
}

func TestH264PairTinyVsGPU(t *testing.T) {
	// Fig. 12: H.264 enc+dec pair < 2 mm², ≈199× smaller than the 7nm GPU
	// and ≈86× smaller than the CX5 NIC.
	pair := H264Enc.AreaMM2 + H264Dec.AreaMM2
	if pair >= 2 {
		t.Fatalf("H.264 pair %.2f mm², want < 2", pair)
	}
	if ratio := GPURTX3090At7.AreaMM2 / pair; math.Abs(ratio-206) > 10 {
		t.Fatalf("GPU/codec ratio %.0f, want ≈199-206", ratio)
	}
	if ratio := NICMellanoxCX5.AreaMM2 / pair; ratio < 80 || ratio > 95 {
		t.Fatalf("NIC/codec ratio %.0f, want ≈86", ratio)
	}
}

func TestInstancesFor100Gbps(t *testing.T) {
	// One 4K60 instance ≈ 3.98 Gb/s → 26 instances for 100 Gb/s.
	n := InstancesFor(100)
	if n < 24 || n > 27 {
		t.Fatalf("instances for 100Gbps = %d, want ~26", n)
	}
	if InstancesFor(SingleInstanceThroughputGbps) != 1 {
		t.Fatal("single instance should cover its own throughput")
	}
}

func TestBreakdownsSumToOne(t *testing.T) {
	for _, b := range []Breakdown{EncoderBreakdown, DecoderBreakdown} {
		sum := b.InterPred + b.FrameBuffer + b.IntraPred + b.Transform + b.Entropy + b.Misc
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("breakdown sums to %f", sum)
		}
	}
}

func TestTensorOnlySavesMostArea(t *testing.T) {
	// Removing inter prediction and shrinking the buffer must cut the die
	// roughly in half (the §6.2 argument for tensor-specialized codecs).
	f := EncoderBreakdown.TensorOnlyFraction()
	if f > 0.60 || f < 0.35 {
		t.Fatalf("tensor-only fraction %.2f outside the plausible band", f)
	}
}

func TestThreeInOneCheaperThanH265(t *testing.T) {
	if ThreeInOneEnc.AreaMM2 >= H265Enc.AreaMM2 || ThreeInOneEnc.PowerW >= H265Enc.PowerW {
		t.Fatal("three-in-one encoder should undercut the H.265 encoder")
	}
	if ThreeInOneDec.EnergyPerBitPJ >= H265Dec.EnergyPerBitPJ {
		t.Fatal("three-in-one decoder energy should undercut H.265")
	}
}

func TestSystemAreaShrinksWithCompression(t *testing.T) {
	raw := SystemArea(ThreeInOneEnc.AreaMM2, ThreeInOneDec.AreaMM2, 1)
	at5 := SystemArea(ThreeInOneEnc.AreaMM2, ThreeInOneDec.AreaMM2, 5)
	if at5 >= raw {
		t.Fatal("compression should shrink the codec+NIC system")
	}
	// NIC dominates at ratio 1.
	if raw < NICMellanoxCX5.AreaMM2 {
		t.Fatal("system area must include the NIC")
	}
}

func TestTransferEnergyDecomposition(t *testing.T) {
	bits := 1e9
	e := TransferEnergyPJ(ThreeInOneEnc, ThreeInOneDec, 4, bits)
	want := bits/4*5120 + bits*(97.8+63.5)
	if math.Abs(e-want) > 1 {
		t.Fatalf("energy %.0f, want %.0f", e, want)
	}
	// Ratios below 1 clamp to raw transfer + codec cost.
	if TransferEnergyPJ(ThreeInOneEnc, ThreeInOneDec, 0.5, bits) !=
		TransferEnergyPJ(ThreeInOneEnc, ThreeInOneDec, 1, bits) {
		t.Fatal("ratio clamp broken")
	}
}

func TestBaselineCodecs(t *testing.T) {
	want := []string{"Huffman", "Deflate", "LZ4", "CABAC"}
	if len(BaselineCodecs) != len(want) {
		t.Fatalf("%d baseline codecs, want %d", len(BaselineCodecs), len(want))
	}
	for i, b := range BaselineCodecs {
		if b.Name != want[i] {
			t.Fatalf("baseline %d is %q, want %q", i, b.Name, want[i])
		}
		if b.EncArea <= 0 || b.EncPJ <= 0 {
			t.Fatalf("%s: non-positive costs", b.Name)
		}
	}
}
