#include "textflag.h"

// func subAVX2(dst, a, b *int32, count int)
//
// dst[i] = a[i] − b[i] for count a multiple of 8: trialResidual's residual.
TEXT ·subAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ count+24(FP), CX

sub:
	VMOVDQU (SI), Y0
	VPSUBD  (DX), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     sub
	VZEROUPPER
	RET

// func addClipSSEAVX2(rec, pred, orig *int32, count int) (sse int64)
//
// rec[i] = min(max(pred[i] + rec[i], 0), 255) for count a multiple of 8, and
// the sum of (orig[i] − rec[i])²: trialResidual's last pass. The squares
// gather in eight int32 lanes; with orig a pixel each is at most 255², so a
// 32×32 block puts at most 128·255² < 2²³ in a lane and 1024·255² < 2²⁷ in
// the sum.
//
// DI rec, SI pred, DX orig, CX samples left; Y7 zero, Y6 255 in every dword,
// Y5 the lanes of the sum.
TEXT ·addClipSSEAVX2(SB), NOSPLIT, $0-40
	MOVQ rec+0(FP), DI
	MOVQ pred+8(FP), SI
	MOVQ orig+16(FP), DX
	MOVQ count+24(FP), CX
	VPXOR Y7, Y7, Y7
	MOVL $255, AX
	VMOVD AX, X6
	VPBROADCASTD X6, Y6
	VPXOR Y5, Y5, Y5

clip:
	VMOVDQU (SI), Y0
	VPADDD  (DI), Y0, Y0
	VPMAXSD Y7, Y0, Y0
	VPMINSD Y6, Y0, Y0
	VMOVDQU Y0, (DI)
	VMOVDQU (DX), Y1
	VPSUBD  Y0, Y1, Y1
	VPMULLD Y1, Y1, Y1
	VPADDD  Y1, Y5, Y5
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JNZ     clip

	VEXTRACTI128 $1, Y5, X0
	VPADDD X0, X5, X5
	VPSHUFD $0x4E, X5, X0
	VPADDD X0, X5, X5
	VPSHUFD $0xB1, X5, X0
	VPADDD X0, X5, X5
	VMOVD X5, AX
	MOVQ AX, sse+32(FP)
	VZEROUPPER
	RET

// func storeAVX2(pix *uint8, stride int, pred, res *int32, n int)
//
// storeResidual for n a multiple of 8: row r of the block, at pix plus
// r·stride, takes clip(pred + res) — pred alone when res is nil — eight
// pixels at a time, VPACKSSDW and VPACKUSWB saturating to [−2¹⁵, 2¹⁵) and
// then to [0, 255], which together are the clip.
//
// DI pix, R9 stride, SI pred, DX res, CX n, BX rows left, R10 the column.
TEXT ·storeAVX2(SB), NOSPLIT, $0-40
	MOVQ pix+0(FP), DI
	MOVQ stride+8(FP), R9
	MOVQ pred+16(FP), SI
	MOVQ res+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ CX, BX

srow:
	XORQ R10, R10

scol:
	VMOVDQU (SI), Y0
	TESTQ   DX, DX
	JZ      pack
	VPADDD  (DX), Y0, Y0
	ADDQ    $32, DX

pack:
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0
	VPACKUSWB X0, X0, X0
	VMOVQ X0, (DI)(R10*1)
	ADDQ  $32, SI
	ADDQ  $8, R10
	CMPQ  R10, CX
	JNE   scol
	ADDQ  R9, DI
	DECQ  BX
	JNZ   srow
	VZEROUPPER
	RET

// func levelBitsAVX2(lev, rank *int32, count int) (sum, last int32, ok bool)
//
// estimateLevelBits' two reductions over a level block, count a multiple of
// 8, in one pass in eight int32 lanes: sum is Σ levelRate(|lev[i]|) over
// every coefficient and last the largest rank[i] — the coefficient's place in
// the scan, plus one — of a non-zero one, 0 for none. levelRate of a ≥ 3 is
// 400 + 200·⌊log₂(a−2)⌋, the exponent of a−2 converted to float32 (exact
// below 2²⁴), and of 0, 1 and 2 the table 60, 200, 300 by VPERMD. ok is false
// when some |lev[i]| is 2²⁴ or more, and then sum is not levelRate's. A lane
// sums at most 128 rates below 5,000.
//
// SI lev, DX rank, CX count; Y15 the small-level table, Y14 2, Y13 3, Y12
// 200, Y11 400 − 127·200, Y10 zero, Y9 the rate sums, Y8 the largest ranks,
// Y7 the OR of the magnitudes.
TEXT ·levelBitsAVX2(SB), NOSPLIT, $0-33
	MOVQ lev+0(FP), SI
	MOVQ rank+8(FP), DX
	MOVQ count+16(FP), CX
	MOVQ $0x000000c80000003c, AX
	VMOVQ AX, X15
	MOVL $300, AX
	VPINSRD $2, AX, X15, X15
	MOVL $2, AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	MOVL $3, AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13
	MOVL $200, AX
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $-25000, AX
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	VPXOR Y10, Y10, Y10
	VPXOR Y9, Y9, Y9
	VPXOR Y8, Y8, Y8
	VPXOR Y7, Y7, Y7

bits:
	VMOVDQU (SI), Y0
	VPABSD Y0, Y0
	VPOR Y0, Y7, Y7
	VPCMPEQD Y10, Y0, Y1
	VPANDN (DX), Y1, Y2
	VPMAXUD Y2, Y8, Y8
	VPSUBD Y14, Y0, Y3
	VCVTDQ2PS Y3, Y3
	VPSRLD $23, Y3, Y3
	VPMULLD Y12, Y3, Y3
	VPADDD Y11, Y3, Y3
	VPMINUD Y13, Y0, Y4
	VPERMD Y15, Y4, Y4
	VPCMPGTD Y14, Y0, Y5
	VPBLENDVB Y5, Y3, Y4, Y4
	VPADDD Y4, Y9, Y9
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $8, CX
	JNZ  bits

	VEXTRACTI128 $1, Y9, X0
	VPADDD X0, X9, X9
	VPSHUFD $0x4E, X9, X0
	VPADDD X0, X9, X9
	VPSHUFD $0xB1, X9, X0
	VPADDD X0, X9, X9
	VMOVD X9, AX
	MOVL AX, sum+24(FP)
	VEXTRACTI128 $1, Y8, X0
	VPMAXUD X0, X8, X8
	VPSHUFD $0x4E, X8, X0
	VPMAXUD X0, X8, X8
	VPSHUFD $0xB1, X8, X0
	VPMAXUD X0, X8, X8
	VMOVD X8, AX
	MOVL AX, last+28(FP)
	VEXTRACTI128 $1, Y7, X0
	VPOR X0, X7, X7
	VPSHUFD $0x4E, X7, X0
	VPOR X0, X7, X7
	VPSHUFD $0xB1, X7, X0
	VPOR X0, X7, X7
	VMOVD X7, AX
	VZEROUPPER
	TESTL $0xff000000, AX
	SETEQ ok+32(FP)
	RET
