package codec

import (
	"flag"
	"fmt"
	"math"
	"testing"
)

var printRatePins = flag.Bool("print-rate-pins", false, "print TestEstimateLevelBitsPinned's table instead of checking it")

// ratePinCase is one level block of TestEstimateLevelBitsPinned. fill writes
// the block given its scan, so a case can place levels by scan position.
type ratePinCase struct {
	name        string
	size        int
	transformed bool
	fill        func(lev []int32, scan []int)
}

// lcg is a fixed generator for the pinned blocks: the table must not depend
// on math/rand's algorithm.
type lcg uint64

func (g *lcg) next(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int(uint64(*g) >> 33 % uint64(n))
}

func ratePinCases() []ratePinCase {
	var cases []ratePinCase
	add := func(name string, size int, transformed bool, fill func(lev []int32, scan []int)) {
		cases = append(cases, ratePinCase{fmt.Sprintf("%s/n%d/t=%v", name, size, transformed), size, transformed, fill})
	}
	for _, size := range []int{4, 8, 16, 32} {
		size := size
		for _, tr := range []bool{true, false} {
			add("all-zero", size, tr, func([]int32, []int) {})
			add("dense±1", size, tr, func(lev []int32, _ []int) {
				for i := range lev {
					lev[i] = 1 - 2*int32(i&1)
				}
			})
		}
		for _, dc := range []int32{1, -1, 2, -3, 4, 1000} {
			dc := dc
			add(fmt.Sprintf("dc=%d", dc), size, true, func(lev []int32, _ []int) { lev[0] = dc })
		}
		// Exp-Golomb tails: every prefix-length boundary of egLen(a−3, 0) up
		// to 2²⁰, alternating sign, on the leading scan positions with zeros
		// between them.
		add("eg-tails", size, true, func(lev []int32, scan []int) {
			vals := []int32{3, 4, 5, 6, 9, 10, 17, 18, 33, 34, 65, 66, 257, 258, 1 << 15, 1<<15 + 2, 1 << 20, 1<<20 + 2}
			for i, v := range vals {
				if 2*i >= len(scan) {
					break
				}
				lev[scan[2*i]] = v * (1 - 2*int32(i&1))
			}
		})
		// Last significant coefficient at representative scan positions over
		// a bed of zeros, and over a dense bed (so the 0.6s and 2.0s before
		// it both take part in the sum).
		n2 := size * size
		for _, last := range []int{1, 2, n2 / 4, n2/2 - 1, n2 / 2, n2 - 2, n2 - 1} {
			last := last
			add(fmt.Sprintf("last@%d", last), size, true, func(lev []int32, scan []int) { lev[scan[last]] = -2 })
			add(fmt.Sprintf("dense-to@%d", last), size, true, func(lev []int32, scan []int) {
				for i := 0; i <= last; i++ {
					lev[scan[i]] = int32(i%5) - 2
				}
				lev[scan[last]] = 7
			})
		}
		// Where (x+2)+1+eg and x+(3+eg) differ in the last bit: a short run of
		// zeros leaves the sum's low bits so that a level long enough to cross
		// three binades double-rounds. (Found by search; the one-step form of
		// a level's additions must fall back to the definition here.)
		add("double-rounding-a", size, true, func(lev []int32, scan []int) {
			lev[scan[0]], lev[scan[7]] = -1, 4099
		})
		add("double-rounding-b", size, true, func(lev []int32, scan []int) {
			lev[scan[1]], lev[scan[8]] = 1, -(1<<18 + 2)
		})
		// Quantiser-shaped blocks: magnitudes falling off along the scan.
		for seed := 1; seed <= 3; seed++ {
			seed := seed
			add(fmt.Sprintf("decay#%d", seed), size, true, func(lev []int32, scan []int) {
				g := lcg(seed)
				for i, pos := range scan {
					amp := 40 * (len(scan) - i) / len(scan) / seed
					if amp > 0 {
						lev[pos] = int32(g.next(2*amp+1) - amp)
					}
				}
			})
		}
	}
	return cases
}

// ratePinSweep folds the estimate for a single ±3 at every scan position of
// every size into one word: the binade crossings of the running sum are
// where a reassociated addition shows.
func ratePinSweep() uint64 {
	h := uint64(14695981039346656037)
	for _, size := range []int{4, 8, 16, 32} {
		scan, _ := residualScan(size, true)
		lev := make([]int32, size*size)
		for i, pos := range scan {
			lev[pos] = 3
			if i > 0 {
				lev[scan[i-1]] = int32(i%4) - 1
			}
			h = (h ^ math.Float64bits(estimateLevelBits(lev, size, true))) * 1099511628211
		}
	}
	return h
}

// ratePins is estimateLevelBits' output on ratePinCases, recorded at PR 17
// (commit c563641) before the kernel rewrite touched the function;
// `go test ./internal/codec -run TestEstimateLevelBitsPinned -print-rate-pins`
// regenerates it.
var ratePins = []uint64{
	0x3ff0000000000000, // all-zero/n4/t=true = 1
	0x4040800000000000, // dense±1/n4/t=true = 33
	0x3ff0000000000000, // all-zero/n4/t=false = 1
	0x4040800000000000, // dense±1/n4/t=false = 33
	0x4010cccccccccccd, // dc=1/n4/t=true = 4.2
	0x4010cccccccccccd, // dc=-1/n4/t=true = 4.2
	0x4014cccccccccccd, // dc=2/n4/t=true = 5.2
	0x4018cccccccccccd, // dc=-3/n4/t=true = 6.2
	0x4020666666666666, // dc=4/n4/t=true = 8.2
	0x4038333333333333, // dc=1000/n4/t=true = 24.2
	0x405151eb851eb853, // eg-tails/n4/t=true = 69.28000000000002
	0x4016e147ae147ae1, // last@1/n4/t=true = 5.72
	0x402a3d70a3d70a3e, // dense-to@1/n4/t=true = 13.120000000000001
	0x4018f5c28f5c28f6, // last@2/n4/t=true = 6.24
	0x402e147ae147ae14, // dense-to@2/n4/t=true = 15.04
	0x401d1eb851eb851f, // last@4/n4/t=true = 7.28
	0x40317ae147ae147b, // dense-to@4/n4/t=true = 17.48
	0x4021ae147ae147ae, // last@7/n4/t=true = 8.84
	0x40393d70a3d70a3e, // dense-to@7/n4/t=true = 25.240000000000002
	0x4022b851eb851eb8, // last@8/n4/t=true = 9.36
	0x4039c28f5c28f5c3, // dense-to@8/n4/t=true = 25.76
	0x4028f5c28f5c28f4, // last@14/n4/t=true = 12.479999999999997
	0x4042f0a3d70a3d71, // dense-to@14/n4/t=true = 37.88
	0x4029fffffffffffe, // last@15/n4/t=true = 12.999999999999996
	0x4044666666666667, // dense-to@15/n4/t=true = 40.800000000000004
	0x40419eb851eb851e, // double-rounding-a/n4/t=true = 35.239999999999995
	0x4047e147ae147ae2, // double-rounding-b/n4/t=true = 47.760000000000005
	0x4060228f5c28f5c3, // decay#1/n4/t=true = 129.08
	0x4056400000000000, // decay#2/n4/t=true = 89
	0x404e147ae147ae14, // decay#3/n4/t=true = 60.16
	0x3ff0000000000000, // all-zero/n8/t=true = 1
	0x4060200000000000, // dense±1/n8/t=true = 129
	0x3ff0000000000000, // all-zero/n8/t=false = 1
	0x4060200000000000, // dense±1/n8/t=false = 129
	0x4020147ae147ae14, // dc=1/n8/t=true = 8.04
	0x4020147ae147ae14, // dc=-1/n8/t=true = 8.04
	0x4022147ae147ae14, // dc=2/n8/t=true = 9.04
	0x4024147ae147ae14, // dc=-3/n8/t=true = 10.04
	0x4028147ae147ae14, // dc=4/n8/t=true = 12.04
	0x403c0a3d70a3d70a, // dc=1000/n8/t=true = 28.04
	0x40743851eb851eb8, // eg-tails/n8/t=true = 323.52
	0x40231eb851eb851e, // last@1/n8/t=true = 9.559999999999999
	0x4030f5c28f5c28f6, // dense-to@1/n8/t=true = 16.96
	0x402428f5c28f5c29, // last@2/n8/t=true = 10.08
	0x4032e147ae147ae1, // dense-to@2/n8/t=true = 18.88
	0x40315c28f5c28f5b, // last@16/n8/t=true = 17.359999999999996
	0x4047c7ae147ae148, // dense-to@16/n8/t=true = 47.56
	0x403928f5c28f5c29, // last@31/n8/t=true = 25.16
	0x40538a3d70a3d70b, // dense-to@31/n8/t=true = 78.16000000000001
	0x4039ae147ae147af, // last@32/n8/t=true = 25.680000000000003
	0x4054051eb851eb86, // dense-to@32/n8/t=true = 80.08000000000001
	0x4044a3d70a3d70aa, // last@62/n8/t=true = 41.280000000000044
	0x4061a8f5c28f5c29, // dense-to@62/n8/t=true = 141.28
	0x4044e6666666666d, // last@63/n8/t=true = 41.80000000000005
	0x4061b99999999999, // dense-to@63/n8/t=true = 141.79999999999998
	0x40438a3d70a3d70a, // double-rounding-a/n8/t=true = 39.08
	0x4049cccccccccccd, // double-rounding-b/n8/t=true = 51.6
	0x407bbe147ae147af, // decay#1/n8/t=true = 443.88000000000005
	0x4076270a3d70a3d8, // decay#2/n8/t=true = 354.44000000000005
	0x4070e851eb851eb9, // decay#3/n8/t=true = 270.52000000000004
	0x3ff0000000000000, // all-zero/n16/t=true = 1
	0x4080080000000000, // dense±1/n16/t=true = 513
	0x3ff0000000000000, // all-zero/n16/t=false = 1
	0x4080080000000000, // dense±1/n16/t=false = 513
	0x4037666666666667, // dc=1/n16/t=true = 23.400000000000002
	0x4037666666666667, // dc=-1/n16/t=true = 23.400000000000002
	0x4038666666666667, // dc=2/n16/t=true = 24.400000000000002
	0x4039666666666667, // dc=-3/n16/t=true = 25.400000000000002
	0x403b666666666667, // dc=4/n16/t=true = 27.400000000000002
	0x4045b33333333334, // dc=1000/n16/t=true = 43.400000000000006
	0x40752e147ae147ae, // eg-tails/n16/t=true = 338.88
	0x4038eb851eb851ec, // last@1/n16/t=true = 24.92
	0x404028f5c28f5c29, // dense-to@1/n16/t=true = 32.32
	0x403970a3d70a3d71, // last@2/n16/t=true = 25.44
	0x40411eb851eb851f, // dense-to@2/n16/t=true = 34.24
	0x404cd70a3d70a3de, // last@64/n16/t=true = 57.68000000000005
	0x4063e28f5c28f5c2, // dense-to@64/n16/t=true = 159.07999999999998
	0x40569c28f5c28f5a, // last@127/n16/t=true = 90.43999999999997
	0x407213d70a3d70a3, // dense-to@127/n16/t=true = 289.23999999999995
	0x4056bd70a3d70a3b, // last@128/n16/t=true = 90.95999999999997
	0x40721c28f5c28f5c, // dense-to@128/n16/t=true = 289.76
	0x40638f5c28f5c276, // last@254/n16/t=true = 156.47999999999928
	0x40811570a3d70a42, // dense-to@254/n16/t=true = 546.6800000000005
	0x40639fffffffffe6, // last@255/n16/t=true = 156.99999999999926
	0x40812cccccccccd1, // dense-to@255/n16/t=true = 549.6000000000005
	0x404b3851eb851eb8, // double-rounding-a/n16/t=true = 54.44
	0x4050bd70a3d70a3e, // double-rounding-b/n16/t=true = 66.96000000000001
	0x409cf51eb851eb81, // decay#1/n16/t=true = 1853.279999999999
	0x4096035c28f5c28b, // decay#2/n16/t=true = 1408.839999999999
	0x408f6a8f5c28f5c8, // decay#3/n16/t=true = 1005.3200000000006
	0x3ff0000000000000, // all-zero/n32/t=true = 1
	0x40a0020000000000, // dense±1/n32/t=true = 2049
	0x3ff0000000000000, // all-zero/n32/t=false = 1
	0x40a0020000000000, // dense±1/n32/t=false = 2049
	0x405535c28f5c28f6, // dc=1/n32/t=true = 84.84
	0x405535c28f5c28f6, // dc=-1/n32/t=true = 84.84
	0x405575c28f5c28f6, // dc=2/n32/t=true = 85.84
	0x4055b5c28f5c28f6, // dc=-3/n32/t=true = 86.84
	0x405635c28f5c28f6, // dc=4/n32/t=true = 88.84
	0x405a35c28f5c28f6, // dc=1000/n32/t=true = 104.84
	0x4079051eb851eb85, // eg-tails/n32/t=true = 400.32
	0x4055970a3d70a3d7, // last@1/n32/t=true = 86.36
	0x405770a3d70a3d71, // dense-to@1/n32/t=true = 93.76
	0x4055b851eb851eb9, // last@2/n32/t=true = 86.88000000000001
	0x4057eb851eb851ec, // dense-to@2/n32/t=true = 95.68
	0x406b5eb851eb8504, // last@256/n32/t=true = 218.95999999999924
	0x40832fae147ae14c, // dense-to@256/n32/t=true = 613.9600000000005
	0x4075f8f5c28f5c2d, // last@511/n32/t=true = 351.56000000000023
	0x4091b8a3d70a3d75, // dense-to@511/n32/t=true = 1134.160000000001
	0x40760147ae147ae6, // last@512/n32/t=true = 352.08000000000027
	0x4091c051eb851ebd, // dense-to@512/n32/t=true = 1136.080000000001
	0x40834a3d70a3d773, // last@1022/n32/t=true = 617.2800000000119
	0x40a100f5c28f5c17, // dense-to@1022/n32/t=true = 2176.479999999992
	0x40834e66666666cf, // last@1023/n32/t=true = 617.8000000000119
	0x40a101ffffffffee, // dense-to@1023/n32/t=true = 2176.999999999992
	0x405cf851eb851eb8, // double-rounding-a/n32/t=true = 115.88
	0x40600ccccccccccd, // double-rounding-b/n32/t=true = 128.4
	0x40bdd099999999ac, // decay#1/n32/t=true = 7632.600000000017
	0x40b5377ae147ae24, // decay#2/n32/t=true = 5431.480000000014
	0x40b0da7ae147ae1c, // decay#3/n32/t=true = 4314.480000000007
}

const ratePinSweepWant uint64 = 0xff2f4c4b9810eb91

// TestEstimateLevelBitsPinned pins the RD rate estimate bit for bit. The
// estimate is a float64 sum whose rounding depends on the order of its
// additions, and it feeds RD comparisons, so a reassociation that looks
// harmless ((x+2)+1 → x+3) can flip a mode decision and move stream bytes;
// without this test only the golden corpus would notice. The pins hold on
// every kernel path the host runs.
func TestEstimateLevelBitsPinned(t *testing.T) {
	cases := ratePinCases()
	kernelPaths(func(simd bool) {
		got := make([]uint64, len(cases))
		for i, c := range cases {
			scan, _ := residualScan(c.size, c.transformed)
			lev := make([]int32, c.size*c.size)
			c.fill(lev, scan)
			got[i] = math.Float64bits(estimateLevelBits(lev, c.size, c.transformed))
		}
		sweep := ratePinSweep()
		if *printRatePins {
			if !simd {
				fmt.Println("var ratePins = []uint64{")
				for i, c := range cases {
					fmt.Printf("\t%#016x, // %s = %v\n", got[i], c.name, math.Float64frombits(got[i]))
				}
				fmt.Printf("}\n\nconst ratePinSweepWant uint64 = %#016x\n", sweep)
			}
			return
		}
		if len(ratePins) != len(cases) {
			t.Fatalf("%d pins for %d cases: regenerate with -print-rate-pins", len(ratePins), len(cases))
		}
		for i, c := range cases {
			if got[i] != ratePins[i] {
				t.Errorf("simd=%v %s: estimate %v (%#016x), pinned %v (%#016x)", simd, c.name,
					math.Float64frombits(got[i]), got[i], math.Float64frombits(ratePins[i]), ratePins[i])
			}
		}
		if sweep != ratePinSweepWant {
			t.Errorf("simd=%v: sweep over every last-significant position: %#016x, pinned %#016x", simd, sweep, ratePinSweepWant)
		}
	})
}
