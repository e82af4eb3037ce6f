package cpufeat

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detect reads CPUID leaf 1 (ECX: FMA bit 12, OSXSAVE bit 27), XCR0 (bits 1
// and 2: the OS saves the SSE and the AVX register state) and leaf 7 (EBX:
// AVX2 bit 5).
func detect() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave = 1 << 12, 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 || ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
