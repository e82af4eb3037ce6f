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

// func sadRowsAVX2(a, b *int32, n int, bound int64) int64
//
// sadWithin for n a multiple of 8: row r's Σ|a − b| in eight int32 lanes,
// which wrap as the pure-Go row sum does, reduced and sign-extended at the
// row's end into the running sum — returned at the end of the first row where
// it exceeds bound, the full SAD otherwise.
//
// SI a, DX b, R8 bound, R9 the row's bytes, R10 the column's offset, BX rows
// left, AX the running sum; Y0 the row's lanes.
TEXT ·sadRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), BX
	MOVQ bound+24(FP), R8
	MOVQ BX, R9
	SHLQ $2, R9
	XORQ AX, AX

row:
	VPXOR Y0, Y0, Y0
	XORQ  R10, R10

col:
	VMOVDQU (SI)(R10*1), Y1
	VPSUBD  (DX)(R10*1), Y1, Y1
	VPABSD  Y1, Y1
	VPADDD  Y1, Y0, Y0
	ADDQ    $32, R10
	CMPQ    R10, R9
	JNE     col

	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPADDD X1, X0, X0
	VMOVD X0, R11
	MOVLQSX R11, R11
	ADDQ R11, AX
	CMPQ AX, R8
	JGT  done
	ADDQ R9, SI
	ADDQ R9, DX
	DECQ BX
	JNZ  row

done:
	MOVQ AX, ret+32(FP)
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
