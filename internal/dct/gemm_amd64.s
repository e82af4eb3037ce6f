#include "textflag.h"

// func widenAVX2(dst *float64, src *int32, count int) int32
//
// dst[i] = float64(src[i]) for count a multiple of 8, returning the OR of
// src[i] ^ src[i]>>31 over the block: the magnitude scan of dct.go's Lanes.
TEXT ·widenAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ count+16(FP), CX
	VPXOR Y3, Y3, Y3

widen:
	VMOVDQU (SI), Y0
	VPSRAD $31, Y0, Y1
	VPXOR Y0, Y1, Y1
	VPOR Y1, Y3, Y3
	VCVTDQ2PD X0, Y1
	VEXTRACTI128 $1, Y0, X2
	VCVTDQ2PD X2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  widen

	VEXTRACTI128 $1, Y3, X0
	VPOR X0, X3, X3
	VPSHUFD $0x4E, X3, X0
	VPOR X0, X3, X3
	VPSHUFD $0xB1, X3, X0
	VPOR X0, X3, X3
	VMOVD X3, AX
	VZEROUPPER
	MOVL AX, scan+24(FP)
	RET

// func gemmAVX2(c, a, b *float64, n int)
//
// c = a·b for row-major n×n matrices, n a multiple of 8, c aliasing neither.
// Each 4-row × 8-column block of c is eight YMM accumulators (Y0–Y7, two per
// row) that take one VFMADD231PD per row and half-row for every k: row k of b
// in Y8:Y9, a[i][k] broadcast in Y10–Y13.
//
// DI c, SI a, DX b, R8 the row stride 8n, BX 3·stride, CX 8n² (the end of
// the row blocks), R9 the row block's offset, R12 the column block's, R13
// a[i][k] and R10 its end, AX b[k][j], R11 the store pointer.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ R8, CX
	IMULQ R8, CX
	SHLQ $3, R8
	SHLQ $3, CX
	LEAQ (R8)(R8*2), BX
	XORQ R9, R9

rows:
	XORQ R12, R12

cols:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (SI)(R9*1), R13
	LEAQ (R13)(R8*1), R10
	LEAQ (DX)(R12*1), AX

k:
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	VBROADCASTSD (R13), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (R13)(R8*1), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (R13)(R8*2), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VBROADCASTSD (R13)(BX*1), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $8, R13
	ADDQ R8, AX
	CMPQ R13, R10
	JNE  k

	LEAQ (DI)(R9*1), R11
	ADDQ R12, R11
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	ADDQ R8, R11
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	ADDQ R8, R11
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, 32(R11)
	ADDQ R8, R11
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	ADDQ $64, R12
	CMPQ R12, R8
	JNE  cols
	LEAQ (R9)(R8*4), R9
	CMPQ R9, CX
	JNE  rows
	VZEROUPPER
	RET

// func narrowAVX2(dst *int32, src *float64, count int, half, scale float64)
//
// dst[i] = int32(floor((src[i] + half) · scale)) for count a multiple of 8:
// with half = 2^(s−1) and scale = 2^−s, roundShift(src[i], s).
TEXT ·narrowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ count+16(FP), CX
	VBROADCASTSD half+24(FP), Y2
	VBROADCASTSD scale+32(FP), Y3

narrow:
	VADDPD (SI), Y2, Y0
	VADDPD 32(SI), Y2, Y1
	VMULPD Y3, Y0, Y0
	VMULPD Y3, Y1, Y1
	VROUNDPD $1, Y0, Y0
	VROUNDPD $1, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VMOVDQU X0, (DI)
	VMOVDQU X1, 16(DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  narrow
	VZEROUPPER
	RET
