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

// func foldAVX2(c, b, p *float64, n int)
//
// cᵀ = A·b for row-major n×n matrices, n a multiple of 8, c aliasing
// nothing: Forward's pass. Row k of A is even or odd about its middle,
// A[k][n−1−j] = (−1)ᵏ·A[k][j], so row k of A·b is Σ_{j<n/2} A[k][j]·(b[j] ±
// b[n−1−j]), the sum for even k and the difference for odd: half the
// multiply-adds of the dense product. p is A's left half in panels of eight
// rows, p[r][j][q] = A[8r+q][j] for j < n/2. A block is rows 8r…8r+7 × four
// columns in eight YMM accumulators (Y0–Y7), fed per j by b[j] + b[n−1−j]
// (Y10) and b[j] − b[n−1−j] (Y9) against p[r][j][q] broadcast in Y11, then
// transposed in two 4×4 tiles and stored as columns 8r…8r+7 of rows j0…j0+3
// of c.
//
// DI c's column 8r, SI b, DX p[r], R8 the row stride 8n, BX 3·stride, R9
// the column block's offset, R10 p[r]'s end, R11 the store pointer, R12 the
// offset of b's last row, R13 p[r][j], AX b[j], CX b[n−1−j].
TEXT ·foldAVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ R8, R12
	DECQ R12
	IMULQ R8, R12
	SHLQ $3, R8
	SHLQ $3, R12
	LEAQ (R8)(R8*2), BX

frows:
	MOVQ DI, R11
	LEAQ (DX)(R8*4), R10
	XORQ R9, R9

fcols:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, R13
	LEAQ (SI)(R9*1), AX
	LEAQ (AX)(R12*1), CX

fk:
	VMOVUPD (AX), Y8
	VMOVUPD (CX), Y9
	VADDPD Y9, Y8, Y10
	VSUBPD Y9, Y8, Y9
	VBROADCASTSD 0(R13), Y11
	VFMADD231PD Y10, Y11, Y0
	VBROADCASTSD 8(R13), Y11
	VFMADD231PD Y9, Y11, Y1
	VBROADCASTSD 16(R13), Y11
	VFMADD231PD Y10, Y11, Y2
	VBROADCASTSD 24(R13), Y11
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 32(R13), Y11
	VFMADD231PD Y10, Y11, Y4
	VBROADCASTSD 40(R13), Y11
	VFMADD231PD Y9, Y11, Y5
	VBROADCASTSD 48(R13), Y11
	VFMADD231PD Y10, Y11, Y6
	VBROADCASTSD 56(R13), Y11
	VFMADD231PD Y9, Y11, Y7
	ADDQ $64, R13
	ADDQ R8, AX
	SUBQ R8, CX
	CMPQ R13, R10
	JNE  fk

	VUNPCKLPD Y1, Y0, Y12
	VUNPCKHPD Y1, Y0, Y13
	VUNPCKLPD Y3, Y2, Y14
	VUNPCKHPD Y3, Y2, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	VMOVUPD Y8, (R11)
	VMOVUPD Y9, (R11)(R8*1)
	VMOVUPD Y10, (R11)(R8*2)
	VMOVUPD Y11, (R11)(BX*1)
	VUNPCKLPD Y5, Y4, Y12
	VUNPCKHPD Y5, Y4, Y13
	VUNPCKLPD Y7, Y6, Y14
	VUNPCKHPD Y7, Y6, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	VMOVUPD Y8, 32(R11)
	VMOVUPD Y9, 32(R11)(R8*1)
	VMOVUPD Y10, 32(R11)(R8*2)
	VMOVUPD Y11, 32(R11)(BX*1)
	LEAQ (R11)(R8*4), R11
	ADDQ $32, R9
	CMPQ R9, R8
	JNE  fcols

	MOVQ R10, DX
	ADDQ $64, DI
	MOVQ c+0(FP), AX
	ADDQ R8, AX
	CMPQ DI, AX
	JNE  frows
	VZEROUPPER
	RET

// func unfoldAVX2(c, b, p *float64, n int)
//
// cᵀ = Aᵀ·b for row-major n×n matrices, n a multiple of 8, c aliasing
// nothing: the inverse's pass. By the same symmetry, rows i and n−1−i of
// Aᵀ·b are E ± O with E = Σ_m A[2m][i]·b[2m] and O = Σ_m A[2m+1][i]·b[2m+1],
// m < n/2: half the multiply-adds again. p is A's left half in panels of four
// columns, p[r][m] = A[2m][4r…4r+3], A[2m+1][4r…4r+3]. A block is E (Y0–Y3)
// and O (Y4–Y7) of rows 4r…4r+3 × four columns, fed per m by b[2m] (Y8) and
// b[2m+1] (Y9) against p[r][m][q] broadcast in Y10/Y11; E + O are stored as
// columns 4r…4r+3 and E − O as columns n−4−4r…n−1−4r of rows j0…j0+3 of c,
// each through a 4×4 transpose.
//
// DI c's column 4r, R12 its column n−4−4r, SI b, DX p[r], R8 the row stride
// 8n, BX 3·stride, R9 the column block's offset, R10 p[r]'s end, R11 and CX
// the store pointers, R13 p[r][m], AX b[2m].
TEXT ·unfoldAVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ n+24(FP), R8
	SHLQ $3, R8
	LEAQ -32(DI)(R8*1), R12
	LEAQ (R8)(R8*2), BX

urows:
	MOVQ DI, R11
	MOVQ R12, CX
	LEAQ (DX)(R8*4), R10
	XORQ R9, R9

ucols:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, R13
	LEAQ (SI)(R9*1), AX

uk:
	VMOVUPD (AX), Y8
	VMOVUPD (AX)(R8*1), Y9
	VBROADCASTSD 0(R13), Y10
	VFMADD231PD Y8, Y10, Y0
	VBROADCASTSD 8(R13), Y11
	VFMADD231PD Y8, Y11, Y1
	VBROADCASTSD 16(R13), Y10
	VFMADD231PD Y8, Y10, Y2
	VBROADCASTSD 24(R13), Y11
	VFMADD231PD Y8, Y11, Y3
	VBROADCASTSD 32(R13), Y10
	VFMADD231PD Y9, Y10, Y4
	VBROADCASTSD 40(R13), Y11
	VFMADD231PD Y9, Y11, Y5
	VBROADCASTSD 48(R13), Y10
	VFMADD231PD Y9, Y10, Y6
	VBROADCASTSD 56(R13), Y11
	VFMADD231PD Y9, Y11, Y7
	ADDQ $64, R13
	LEAQ (AX)(R8*2), AX
	CMPQ R13, R10
	JNE  uk

	VADDPD Y4, Y0, Y8
	VADDPD Y5, Y1, Y9
	VADDPD Y6, Y2, Y10
	VADDPD Y7, Y3, Y11
	VSUBPD Y4, Y0, Y0
	VSUBPD Y5, Y1, Y1
	VSUBPD Y6, Y2, Y2
	VSUBPD Y7, Y3, Y3
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y4
	VPERM2F128 $0x20, Y15, Y13, Y5
	VPERM2F128 $0x31, Y14, Y12, Y6
	VPERM2F128 $0x31, Y15, Y13, Y7
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, (R11)(R8*1)
	VMOVUPD Y6, (R11)(R8*2)
	VMOVUPD Y7, (R11)(BX*1)
	VUNPCKLPD Y2, Y3, Y12
	VUNPCKHPD Y2, Y3, Y13
	VUNPCKLPD Y0, Y1, Y14
	VUNPCKHPD Y0, Y1, Y15
	VPERM2F128 $0x20, Y14, Y12, Y4
	VPERM2F128 $0x20, Y15, Y13, Y5
	VPERM2F128 $0x31, Y14, Y12, Y6
	VPERM2F128 $0x31, Y15, Y13, Y7
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, (CX)(R8*1)
	VMOVUPD Y6, (CX)(R8*2)
	VMOVUPD Y7, (CX)(BX*1)
	LEAQ (R11)(R8*4), R11
	LEAQ (CX)(R8*4), CX
	ADDQ $32, R9
	CMPQ R9, R8
	JNE  ucols

	MOVQ R10, DX
	ADDQ $32, DI
	SUBQ $32, R12
	CMPQ DI, R12
	JB   urows
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
