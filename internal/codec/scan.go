package codec

// The coefficient scans for the four block sizes, indexed by sizeIdx. Built
// once at package init and read-only afterwards: every RD trial, emitted leaf
// and parsed leaf of every worker looks one up.
var zigzagScans, rasterScans [4][]int

// zigzagSigSlots[si][i] is the context slot of the significance bin of the
// i-th coefficient in scan order — ctxSig + si·sigBins + diagBin(scan[i], n) —
// and rasterSigSlots the same for the raster scan. Indexed by scan position,
// not by coefficient, so emitResidual and parseResidual walk scan and slots
// in step and pay no division per coefficient.
var zigzagSigSlots, rasterSigSlots [4][]uint8

// zigzagRanks[si][pos] is one more than coefficient pos's place in the zigzag
// scan, and rasterRanks the same for the raster scan: the inverse scans
// estimateLevelBits' vector pass takes the last non-zero coefficient from.
var zigzagRanks, rasterRanks [4][]int32

func init() {
	for si := range zigzagScans {
		n := 4 << si
		zigzagScans[si] = zigzagScan(n)
		rasterScans[si] = make([]int, n*n)
		for i := range rasterScans[si] {
			rasterScans[si][i] = i
		}
		zigzagSigSlots[si] = sigSlots(zigzagScans[si], si)
		rasterSigSlots[si] = sigSlots(rasterScans[si], si)
		zigzagRanks[si] = ranks(zigzagScans[si])
		rasterRanks[si] = ranks(rasterScans[si])
	}
}

func ranks(scan []int) []int32 {
	r := make([]int32, len(scan))
	for i, pos := range scan {
		r[pos] = int32(i + 1)
	}
	return r
}

func sigSlots(scan []int, si int) []uint8 {
	slots := make([]uint8, len(scan))
	for i, pos := range scan {
		slots[i] = uint8(ctxSig + si*sigBins + diagBin(pos, 4<<si))
	}
	return slots
}

// residualScan returns the coefficient scan of a size×size level block with
// the significance-context slot of every scan position. Under the transform
// the scan is the zigzag: positions ordered by anti-diagonal from the DC
// corner, which fronts the low-frequency coefficients where the energy
// concentrates; with the transform stage disabled residuals are coded in the
// spatial domain, in raster order. Both slices are shared; callers must not
// modify them.
func residualScan(size int, transformed bool) (scan []int, sigSlot []uint8) {
	si := sizeIdx(size)
	if transformed {
		return zigzagScans[si], zigzagSigSlots[si]
	}
	return rasterScans[si], rasterSigSlots[si]
}

func zigzagScan(n int) []int {
	s := make([]int, 0, n*n)
	for d := 0; d <= 2*(n-1); d++ {
		if d%2 == 0 {
			// Walk up-right.
			y := d
			if y > n-1 {
				y = n - 1
			}
			x := d - y
			for x < n && y >= 0 {
				s = append(s, y*n+x)
				x++
				y--
			}
		} else {
			// Walk down-left.
			x := d
			if x > n-1 {
				x = n - 1
			}
			y := d - x
			for y < n && x >= 0 {
				s = append(s, y*n+x)
				y++
				x--
			}
		}
	}
	return s
}

// diagBin maps a coefficient position's anti-diagonal to a context bin in
// [0, sigBins). It is the definition the sigSlots tables are built from; the
// hot loops read the tables.
func diagBin(pos, n int) int {
	d := pos/n + pos%n
	b := d * sigBins / (2*n - 1)
	if b > sigBins-1 {
		b = sigBins - 1
	}
	return b
}
