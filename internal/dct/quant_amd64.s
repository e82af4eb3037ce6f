#include "textflag.h"

// func quantDeqAVX2(levels, deq, coef *int32, nz *uint32, n int, inv float64, recon *int32) (rows uint32, large bool)
//
// QuantizeDequantize over an n×n block, n a multiple of 8, eight coefficients
// at a time: a = int32(|c|·inv + ⅓) by VCVTDQ2PD, VANDPD, VMULPD, VADDPD and
// VCVTTPD2DQ (a multiply and an add, each rounded, as quantizer.level's are),
// the level a with c's sign (VPSIGND: −a, 0 or a as c < 0, = 0, > 0), the
// reconstruction recon[min(a, 255)] gathered and signed the same way, and
// nz[k], row k's mask of non-zero levels, one VMOVMSKPS byte per eight. It
// returns the OR of the masks and whether some a is above 255: there the
// reconstruction written is recon[255]'s, and the caller redoes it.
//
// DI levels, DX deq, SI coef, R8 nz, R9 n/8, R10 recon, BX lines left, R11
// the group in the line, AX the OR of the masks; Y15 the float64 magnitude
// mask, Y14 inv, Y13 ⅓, Y12 255 in every dword, Y11 zero, Y10 the OR of
// a > 255.
TEXT ·quantDeqAVX2(SB), NOSPLIT, $0-61
	MOVQ levels+0(FP), DI
	MOVQ deq+8(FP), DX
	MOVQ coef+16(FP), SI
	MOVQ nz+24(FP), R8
	MOVQ n+32(FP), BX
	VBROADCASTSD inv+40(FP), Y14
	MOVQ recon+48(FP), R10
	MOVQ BX, R9
	SHRQ $3, R9
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ $1, Y15, Y15
	MOVQ $0x3fd5555555555555, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVL $255, AX
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	VPXOR Y11, Y11, Y11
	VPXOR Y10, Y10, Y10
	XORL AX, AX

qline:
	MOVL $0, (R8)
	XORQ R11, R11

qgroup:
	VMOVDQU (SI), Y0
	VCVTDQ2PD X0, Y1
	VEXTRACTI128 $1, Y0, X2
	VCVTDQ2PD X2, Y2
	VANDPD Y15, Y1, Y1
	VANDPD Y15, Y2, Y2
	VMULPD Y14, Y1, Y1
	VMULPD Y14, Y2, Y2
	VADDPD Y13, Y1, Y1
	VADDPD Y13, Y2, Y2
	VCVTTPD2DQY Y1, X1
	VCVTTPD2DQY Y2, X2
	VINSERTI128 $1, X2, Y1, Y1
	VPSIGND Y0, Y1, Y2
	VMOVDQU Y2, (DI)
	VPCMPGTD Y12, Y1, Y3
	VPOR Y3, Y10, Y10
	VPMINUD Y12, Y1, Y3
	VPCMPEQD Y4, Y4, Y4
	VPGATHERDD Y4, (R10)(Y3*4), Y5
	VPSIGND Y0, Y5, Y5
	VMOVDQU Y5, (DX)
	VPCMPEQD Y11, Y1, Y1
	VMOVMSKPS Y1, R12
	XORL $0xff, R12
	MOVB R12, (R8)(R11*1)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	INCQ R11
	CMPQ R11, R9
	JNE  qgroup
	ORL  (R8), AX
	ADDQ $4, R8
	DECQ BX
	JNZ  qline

	VPTEST Y10, Y10
	SETNE large+60(FP)
	MOVL AX, rows+56(FP)
	VZEROUPPER
	RET

// func dequantAVX2(dst, levels *int32, nz *uint32, n int, recon *int32) (rows uint32, ok bool)
//
// DequantizeMasked over an n×n block, n a multiple of 8, when every |level|
// is below 256: dst = recon[|l|] with l's sign (VPSIGND), gathered eight at a
// time, and nz[k] as quantDeqAVX2 builds it, returning the OR of the masks
// and true. A first pass ORs the magnitudes (VPABSD leaves MinInt32 with its
// top bit set); if any is above 255 it returns false, having written nothing,
// and the caller takes the formula.
//
// DX dst, SI levels, R8 nz, R9 n/8, R10 recon, BX lines left (first the
// block's bytes), R11 the group in the line (first the scan's offset), AX the
// OR of the masks; Y12 255 in every dword, Y11 zero, Y10 the OR of the
// magnitudes.
TEXT ·dequantAVX2(SB), NOSPLIT, $0-45
	MOVQ dst+0(FP), DX
	MOVQ levels+8(FP), SI
	MOVQ nz+16(FP), R8
	MOVQ n+24(FP), BX
	MOVQ recon+32(FP), R10
	MOVQ BX, R9
	SHRQ $3, R9
	IMULQ BX, BX
	SHLQ $2, BX
	XORQ R11, R11
	VPXOR Y10, Y10, Y10

scan:
	VPABSD (SI)(R11*1), Y0
	VPOR Y0, Y10, Y10
	ADDQ $32, R11
	CMPQ R11, BX
	JNE  scan
	MOVL $255, AX
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	VPANDN Y10, Y12, Y10
	VPTEST Y10, Y10
	JNZ  refuse

	MOVQ n+24(FP), BX
	VPXOR Y11, Y11, Y11
	XORL AX, AX

dline:
	MOVL $0, (R8)
	XORQ R11, R11

dgroup:
	VMOVDQU (SI), Y0
	VPABSD Y0, Y1
	VPCMPEQD Y4, Y4, Y4
	VPGATHERDD Y4, (R10)(Y1*4), Y5
	VPSIGND Y0, Y5, Y5
	VMOVDQU Y5, (DX)
	VPCMPEQD Y11, Y0, Y1
	VMOVMSKPS Y1, R12
	XORL $0xff, R12
	MOVB R12, (R8)(R11*1)
	ADDQ $32, SI
	ADDQ $32, DX
	INCQ R11
	CMPQ R11, R9
	JNE  dgroup
	ORL  (R8), AX
	ADDQ $4, R8
	DECQ BX
	JNZ  dline

	MOVL AX, rows+40(FP)
	MOVB $1, ok+44(FP)
	VZEROUPPER
	RET

refuse:
	MOVL $0, rows+40(FP)
	MOVB $0, ok+44(FP)
	VZEROUPPER
	RET
