package core

import (
	"testing"

	"repro/internal/cpufeat"
)

// TestGenericKernelsPinned re-runs the search pins and the stack-level
// reconstruction contract with the pure-Go kernels of internal/dct and
// internal/intra forced (DESIGN.md §11.1, "SIMD kernels"): the plain run of
// each took the SIMD ones, so the same pins hold both.
func TestGenericKernelsPinned(t *testing.T) {
	if !cpufeat.AVX2FMA {
		t.Skip("no SIMD kernels on this CPU: every test already runs the pure-Go ones")
	}
	cpufeat.AVX2FMA = false
	defer func() { cpufeat.AVX2FMA = true }()
	t.Run("SearchPins", TestSearchPins)
	t.Run("EncodeStackReconIsDecode", TestEncodeStackReconIsDecode)
}
