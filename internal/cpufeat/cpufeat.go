// Package cpufeat reports, once at start-up, whether the CPU runs the SIMD
// kernels of internal/dct, internal/intra, internal/codec and internal/quant (DESIGN.md
// §11.1, "Dispatch"). It is the only place the choice is made: there is no
// option, flag, environment variable or build tag, only GOARCH and what the
// CPU and OS report.
package cpufeat

// AVX2FMA is true on amd64 when the CPU has AVX2 and FMA and the OS saves the
// YMM registers across context switches, and false on every other GOARCH. It
// is set once, by package initialisation. Tests clear it, and restore it, to
// run the pure-Go kernels beside the SIMD ones; nothing else writes it.
var AVX2FMA = detect()

// Lanes8 reports whether the kernels of an n×n block take their AVX2 paths,
// eight lanes at a time: n a non-zero multiple of 8 — n = 4 fills no vector —
// where the CPU has AVX2 and FMA. It is the one dispatch rule of the SIMD
// kernels of internal/dct, internal/intra and internal/codec.
func Lanes8(n int) bool { return n >= 8 && n%8 == 0 && AVX2FMA }
