// SATD — the sum of absolute transformed differences — is a coarse distortion
// metric: a Walsh–Hadamard transform of the residual approximates the DCT's
// energy compaction with butterflies only, no multiplies. The encoder does not
// rank by it: DESIGN.md §11, "Why there is one search".
//
// No caller outside benchmark/ladder.go, which times it for a ladder rung and
// which no PR but a [benchmark] issue may edit; like the wrappers in
// codec/compat.go, delete it with the rung at the next [benchmark] issue
// (ROADMAP 2(b)/(c)).
package dct

// SATD returns the sum of absolute Walsh–Hadamard transformed values of the
// n×n residual block res (row-major), halved per the usual convention so the
// magnitudes are comparable with SAD. n must be 4, 8, 16 or 32. 4×4 blocks
// use a 4×4 Hadamard; larger blocks are tiled with 8×8 transforms. The
// function allocates nothing.
func SATD(res []int32, n int) int64 {
	if len(res) != n*n {
		panic("dct: bad block size")
	}
	if n == 4 {
		return satd4(res, 0, 4)
	}
	var sum int64
	for by := 0; by < n; by += 8 {
		for bx := 0; bx < n; bx += 8 {
			sum += satd8(res, by*n+bx, n)
		}
	}
	return sum
}

// satd4 computes the 4×4 Hadamard SATD of the tile at offset off with the
// given row stride.
func satd4(res []int32, off, stride int) int64 {
	var m [16]int32
	for y := 0; y < 4; y++ {
		copy(m[y*4:y*4+4], res[off+y*stride:off+y*stride+4])
	}
	// Horizontal butterflies.
	for y := 0; y < 4; y++ {
		r := m[y*4 : y*4+4]
		a, b := r[0]+r[1], r[0]-r[1]
		c, d := r[2]+r[3], r[2]-r[3]
		r[0], r[2] = a+c, a-c
		r[1], r[3] = b+d, b-d
	}
	// Vertical butterflies and accumulation.
	var sum int64
	for x := 0; x < 4; x++ {
		a, b := m[x]+m[4+x], m[x]-m[4+x]
		c, d := m[8+x]+m[12+x], m[8+x]-m[12+x]
		for _, v := range [4]int32{a + c, b + d, a - c, b - d} {
			if v < 0 {
				v = -v
			}
			sum += int64(v)
		}
	}
	return (sum + 1) >> 1
}

// satd8 computes the 8×8 Hadamard SATD of the tile at offset off with the
// given row stride.
func satd8(res []int32, off, stride int) int64 {
	var m [64]int32
	for y := 0; y < 8; y++ {
		copy(m[y*8:y*8+8], res[off+y*stride:off+y*stride+8])
	}
	// Horizontal 8-point Walsh–Hadamard on every row.
	for y := 0; y < 8; y++ {
		hadamard8(m[y*8 : y*8+8 : y*8+8])
	}
	// Vertical pass, one column at a time, accumulating |coef|.
	var sum int64
	for x := 0; x < 8; x++ {
		var c [8]int32
		for y := 0; y < 8; y++ {
			c[y] = m[y*8+x]
		}
		hadamard8(c[:])
		for _, v := range c {
			if v < 0 {
				v = -v
			}
			sum += int64(v)
		}
	}
	return (sum + 2) >> 2
}

// hadamard8 applies the unnormalized 8-point Walsh–Hadamard transform in
// place.
func hadamard8(v []int32) {
	_ = v[7]
	for s := 1; s < 8; s <<= 1 {
		for i := 0; i < 8; i += s << 1 {
			for j := i; j < i+s; j++ {
				a, b := v[j], v[j+s]
				v[j], v[j+s] = a+b, a-b
			}
		}
	}
}
