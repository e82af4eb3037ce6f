#include "textflag.h"

// func sadLinesAVX2(ref, src *int16, n, angle int, bound int64) int64
//
// Line l (pos = (l+1)·angle) blends a = ref[i+x], b = ref[i+1+x] from
// i = n+1 + pos>>5 at frac = pos&31 as (a<<5 + frac·(b−a) + 16) >> 5, one
// sample a 16-bit lane, and adds Σ|v − src| to the running sum, returning
// once that exceeds bound. The horizontal sum is VPSADBW against zero: every
// |v − s| ≤ 255 is a byte in the low half of its word.
//
// SI ref, DI the current source line, CX lines left, DX angle, R8 bound,
// R9 pos, R10 n+1, AX the running sum; X9/Y9 zero, Y10 pos and Y11 angle in
// every word, Y12 31 and Y13 16 in every word.
TEXT ·sadLinesAVX2(SB), NOSPLIT, $0-48
	MOVQ ref+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ angle+24(FP), DX
	MOVQ bound+32(FP), R8
	XORQ AX, AX
	MOVQ DX, R9
	LEAQ 1(CX), R10
	VPXOR Y9, Y9, Y9
	VMOVD DX, X11
	VPBROADCASTW X11, Y11
	VMOVDQU Y11, Y10
	MOVL $31, BX
	VMOVD BX, X12
	VPBROADCASTW X12, Y12
	MOVL $16, BX
	VMOVD BX, X13
	VPBROADCASTW X13, Y13
	CMPQ CX, $16
	JEQ  line16
	JGT  line32

line8:
	MOVQ R9, BX
	SARQ $5, BX
	ADDQ R10, BX
	VPAND X12, X10, X2
	VMOVDQU (SI)(BX*2), X0
	VMOVDQU 2(SI)(BX*2), X1
	VPSUBW X0, X1, X1
	VPMULLW X2, X1, X1
	VPSLLW $5, X0, X0
	VPADDW X0, X1, X1
	VPADDW X13, X1, X1
	VPSRAW $5, X1, X1
	VPSUBW (DI), X1, X1
	VPABSW X1, X1
	VPSADBW X9, X1, X1
	VPSHUFD $0x4E, X1, X2
	VPADDQ X2, X1, X1
	VMOVQ X1, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  done
	ADDQ DX, R9
	VPADDW X11, X10, X10
	ADDQ $16, DI
	DECQ CX
	JNZ  line8
	JMP  done

line16:
	MOVQ R9, BX
	SARQ $5, BX
	ADDQ R10, BX
	VPAND Y12, Y10, Y2
	VMOVDQU (SI)(BX*2), Y0
	VMOVDQU 2(SI)(BX*2), Y1
	VPSUBW Y0, Y1, Y1
	VPMULLW Y2, Y1, Y1
	VPSLLW $5, Y0, Y0
	VPADDW Y0, Y1, Y1
	VPADDW Y13, Y1, Y1
	VPSRAW $5, Y1, Y1
	VPSUBW (DI), Y1, Y1
	VPABSW Y1, Y1
	VPSADBW Y9, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPADDQ X2, X1, X1
	VPSHUFD $0x4E, X1, X2
	VPADDQ X2, X1, X1
	VMOVQ X1, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  done
	ADDQ DX, R9
	VPADDW Y11, Y10, Y10
	ADDQ $32, DI
	DECQ CX
	JNZ  line16
	JMP  done

line32:
	MOVQ R9, BX
	SARQ $5, BX
	ADDQ R10, BX
	VPAND Y12, Y10, Y2
	VMOVDQU (SI)(BX*2), Y0
	VMOVDQU 2(SI)(BX*2), Y1
	VMOVDQU 32(SI)(BX*2), Y3
	VMOVDQU 34(SI)(BX*2), Y4
	VPSUBW Y0, Y1, Y1
	VPSUBW Y3, Y4, Y4
	VPMULLW Y2, Y1, Y1
	VPMULLW Y2, Y4, Y4
	VPSLLW $5, Y0, Y0
	VPSLLW $5, Y3, Y3
	VPADDW Y0, Y1, Y1
	VPADDW Y3, Y4, Y4
	VPADDW Y13, Y1, Y1
	VPADDW Y13, Y4, Y4
	VPSRAW $5, Y1, Y1
	VPSRAW $5, Y4, Y4
	VPSUBW (DI), Y1, Y1
	VPSUBW 32(DI), Y4, Y4
	VPABSW Y1, Y1
	VPABSW Y4, Y4
	VPACKUSWB Y4, Y1, Y1 // 32 bytes, each ≤ 255, in some order
	VPSADBW Y9, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPADDQ X2, X1, X1
	VPSHUFD $0x4E, X1, X2
	VPADDQ X2, X1, X1
	VMOVQ X1, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  done
	ADDQ DX, R9
	VPADDW Y11, Y10, Y10
	ADDQ $64, DI
	DECQ CX
	JNZ  line32

done:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET
