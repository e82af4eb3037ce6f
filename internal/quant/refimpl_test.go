package quant

import (
	"math"

	"repro/internal/cpufeat"
)

// The definitions the package's kernels are held to (DESIGN.md §11.1):
//
//	MinMax    minMaxDef: the sequential scan for the first least and the
//	          first greatest sanitized value
//	ToUint8   toUint8Def: minMaxDef, then math.Round of each
//	          (value − lo)·(1/scale), clamped to [0, 255]
//
// beside the kernel paths they run on (kernelPaths).

func minMaxDef(data []float32) (lo, hi float32) {
	if len(data) == 0 {
		return 0, 0
	}
	lo64, hi64 := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		f := Sanitize(v)
		if f < lo64 {
			lo64 = f
		}
		if f > hi64 {
			hi64 = f
		}
	}
	return float32(lo64), float32(hi64)
}

func toUint8Def(data []float32) (pix []uint8, scale, zero float32) {
	lo, hi := minMaxDef(data)
	pix = make([]uint8, len(data))
	if hi == lo {
		return pix, 0, lo
	}
	s := (float64(hi) - float64(lo)) / 255
	for i, v := range data {
		pix[i] = uint8(min(max(math.Round((Sanitize(v)-float64(lo))*(1/s)), 0), 255))
	}
	return pix, float32(s), lo
}

// kernelPaths calls f once for each kernel path this host runs, with
// cpufeat.AVX2FMA set to select it: the pure-Go loops (simd false) always,
// the AVX2 kernels (simd true) where the CPU has AVX2 and FMA. It restores
// the flag.
func kernelPaths(f func(simd bool)) {
	host := cpufeat.AVX2FMA
	defer func() { cpufeat.AVX2FMA = host }()
	for _, simd := range []bool{false, true} {
		if simd && !host {
			break
		}
		cpufeat.AVX2FMA = simd
		f(simd)
	}
}
