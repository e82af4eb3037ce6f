package codec

// The coefficient scans for the four block sizes, indexed by sizeIdx. Built
// once at package init and read-only afterwards: every RD trial, emitted leaf
// and parsed leaf of every worker looks one up.
var zigzagScans, rasterScans [4][]int

func init() {
	for si := range zigzagScans {
		n := 4 << si
		zigzagScans[si] = zigzagScan(n)
		rasterScans[si] = make([]int, n*n)
		for i := range rasterScans[si] {
			rasterScans[si][i] = i
		}
	}
}

// scanOrder returns the zigzag coefficient scan for an n×n block: positions
// ordered by anti-diagonal from the DC corner, which fronts the low-frequency
// coefficients where the energy concentrates after the transform. The slice
// is shared; callers must not modify it.
func scanOrder(n int) []int { return zigzagScans[sizeIdx(n)] }

// rasterOrder returns the raster scan (used when the transform stage is
// disabled and residuals are coded in the spatial domain). Shared, like
// scanOrder's.
func rasterOrder(n int) []int { return rasterScans[sizeIdx(n)] }

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

// diagBin maps a scan position's anti-diagonal to a context bin in [0, 8].
func diagBin(pos, n int) int {
	d := pos/n + pos%n
	b := d * 9 / (2*n - 1)
	if b > 8 {
		b = 8
	}
	return b
}
