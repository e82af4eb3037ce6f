#include "textflag.h"

// BLEND(a, b, f, r) leaves in a the line samples (a<<5 + f·(b−a) + r) >> 5 of
// a = ref[i+x] and b = ref[i+1+x], with f the line's frac and r 16 in every
// word; b is clobbered. Every kernel below that interpolates a line does it
// here.
#define BLEND(a, b, f, r) \
	VPSUBW  a, b, b; \
	VPMULLW f, b, b; \
	VPSLLW  $5, a, a; \
	VPADDW  a, b, b; \
	VPADDW  r, b, b; \
	VPSRAW  $5, b, a

// TRANSPOSE8 transposes the 8×8 int16 block whose rows are r0…r7 (in each
// 128-bit lane of YMM operands, in the one of XMM operands), using t. Column
// j lands in, for j = 0…7: r0, r5, r7, r4, t, r1, r2, r3.
#define TRANSPOSE8(r0, r1, r2, r3, r4, r5, r6, r7, t) \
	VPUNPCKHWD  r1, r0, t; \
	VPUNPCKLWD  r1, r0, r0; \
	VPUNPCKHWD  r3, r2, r1; \
	VPUNPCKLWD  r3, r2, r2; \
	VPUNPCKHWD  r5, r4, r3; \
	VPUNPCKLWD  r5, r4, r4; \
	VPUNPCKHWD  r7, r6, r5; \
	VPUNPCKLWD  r7, r6, r6; \
	VPUNPCKHDQ  r2, r0, r7; \
	VPUNPCKLDQ  r2, r0, r0; \
	VPUNPCKHDQ  r1, t, r2; \
	VPUNPCKLDQ  r1, t, t; \
	VPUNPCKHDQ  r6, r4, r1; \
	VPUNPCKLDQ  r6, r4, r4; \
	VPUNPCKHDQ  r5, r3, r6; \
	VPUNPCKLDQ  r5, r3, r3; \
	VPUNPCKHQDQ r4, r0, r5; \
	VPUNPCKLQDQ r4, r0, r0; \
	VPUNPCKHQDQ r1, r7, r4; \
	VPUNPCKLQDQ r1, r7, r7; \
	VPUNPCKHQDQ r3, t, r1; \
	VPUNPCKLQDQ r3, t, t; \
	VPUNPCKHQDQ r6, r2, r3; \
	VPUNPCKLQDQ r6, r2, r2

// The line set-up the angular kernels share: SI ref, CX n, DX angle, R9 pos,
// R10 n+1; Y10 pos and Y11 angle in every word (ANGLE_SETUP), Y12 31 and Y13
// 16 in every word (LANE_CONSTANTS).
#define ANGLE_SETUP \
	MOVQ  DX, R9; \
	LEAQ  1(CX), R10; \
	VMOVD DX, X11; \
	VPBROADCASTW X11, Y11; \
	VMOVDQU Y11, Y10

#define LANE_CONSTANTS \
	MOVL  $31, BX; \
	VMOVD BX, X12; \
	VPBROADCASTW X12, Y12; \
	MOVL  $16, BX; \
	VMOVD BX, X13; \
	VPBROADCASTW X13, Y13

#define ANGULAR_SETUP ANGLE_SETUP; LANE_CONSTANTS

// LINE(d, b, fy, fx, r) leaves in d the samples of the line at pos R9 (16 of
// them for YMM operands, 8 for XMM), and steps to the next line. fy and fx
// name one register, which takes the frac, and r is Y13 or X13 as d is wide.
#define LINE(d, b, fy, fx, r) \
	MOVQ    R9, BX; \
	SARQ    $5, BX; \
	ADDQ    R10, BX; \
	VPAND   Y12, Y10, fy; \
	VMOVDQU (SI)(BX*2), d; \
	VMOVDQU 2(SI)(BX*2), b; \
	BLEND(d, b, fx, r); \
	ADDQ    DX, R9; \
	VPADDW  Y11, Y10, Y10

// func sadLinesAVX2(ref, src *int16, n, angle int, bound int64) int64
//
// Line l (pos = (l+1)·angle) blends a = ref[i+x], b = ref[i+1+x] from
// i = n+1 + pos>>5 at frac = pos&31 as (a<<5 + frac·(b−a) + 16) >> 5, one
// sample a 16-bit lane, and adds Σ|v − src| to the running sum, returning
// once that exceeds bound. The horizontal sum is VPSADBW against zero: every
// |v − s| ≤ 255 is a byte in the low half of its word. n is 16 or 32 (an
// 8×8 block is sadLines8AVX2's).
//
// The differences of two lines are packed to bytes together (VPACKUSWB) for
// one VPSADBW and one horizontal sum. When the pair's sum crosses the bound,
// the exit is still line l's if the running sum after it alone exceeds the
// bound (split).
//
// DI the current source line, R8 bound, AX the running sum, X9/Y9 zero; the
// rest as ANGULAR_SETUP.
TEXT ·sadLinesAVX2(SB), NOSPLIT, $0-48
	MOVQ ref+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ angle+24(FP), DX
	MOVQ bound+32(FP), R8
	XORQ AX, AX
	VPXOR Y9, Y9, Y9
	ANGULAR_SETUP
	CMPQ CX, $16
	JGT  line32

line16:
	SHRQ $1, CX

pair16:
	LINE(Y0, Y1, Y2, Y2, Y13)
	LINE(Y3, Y4, Y2, Y2, Y13)
	VPSUBW (DI), Y0, Y0
	VPSUBW 32(DI), Y3, Y3
	VPABSW Y0, Y0
	VPABSW Y3, Y3
	VPACKUSWB Y3, Y0, Y0 // line l's bytes in qwords 0 and 2, l+1's in 1 and 3
	VPSADBW Y9, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4E, X0, X2
	VPADDQ X2, X0, X3
	VMOVQ X3, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  split
	ADDQ $64, DI
	DECQ CX
	JNZ  pair16
	JMP  done

line32:
	SHRQ $1, CX

pair32:
	MOVQ R9, BX
	SARQ $5, BX
	ADDQ R10, BX
	VPAND Y12, Y10, Y2
	VMOVDQU (SI)(BX*2), Y0
	VMOVDQU 2(SI)(BX*2), Y1
	VMOVDQU 32(SI)(BX*2), Y3
	VMOVDQU 34(SI)(BX*2), Y4
	BLEND(Y0, Y1, Y2, Y13)
	BLEND(Y3, Y4, Y2, Y13)
	ADDQ DX, R9
	VPADDW Y11, Y10, Y10
	VPSUBW (DI), Y0, Y0
	VPSUBW 32(DI), Y3, Y3
	VPABSW Y0, Y0
	VPABSW Y3, Y3
	VPACKUSWB Y3, Y0, Y0 // line l: 32 bytes, each ≤ 255, in some order
	MOVQ R9, BX
	SARQ $5, BX
	ADDQ R10, BX
	VPAND Y12, Y10, Y2
	VMOVDQU (SI)(BX*2), Y3
	VMOVDQU 2(SI)(BX*2), Y1
	VMOVDQU 32(SI)(BX*2), Y5
	VMOVDQU 34(SI)(BX*2), Y4
	BLEND(Y3, Y1, Y2, Y13)
	BLEND(Y5, Y4, Y2, Y13)
	ADDQ DX, R9
	VPADDW Y11, Y10, Y10
	VPSUBW 64(DI), Y3, Y3
	VPSUBW 96(DI), Y5, Y5
	VPABSW Y3, Y3
	VPABSW Y5, Y5
	VPACKUSWB Y5, Y3, Y3 // line l+1
	VPSADBW Y9, Y0, Y0
	VPSADBW Y9, Y3, Y3
	VPADDQ Y3, Y0, Y1
	VEXTRACTI128 $1, Y1, X2
	VPADDQ X2, X1, X1
	VPSHUFD $0x4E, X1, X2
	VPADDQ X2, X1, X1
	VMOVQ X1, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  split32
	ADDQ $128, DI
	DECQ CX
	JNZ  pair32
	JMP  done

split32:
	// Line l's sum into the low qword of X0, as pair16 leaves it.
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0

split:
	// The pair crossed the bound: return the sum after line l, the low
	// qword of X0, if it does.
	VMOVQ X0, R12
	SUBQ BX, R12
	ADDQ AX, R12
	CMPQ R12, R8
	CMOVQGT R12, AX

done:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// GATHER8(ya, yb, off) leaves in ya lines 2p (low lane) and 2p+1 (high
// lane) of an n = 8 block from the pair's lines8 entry at off(R11): a and b
// gathered from the byte tables Y14 and Y15, blended at the fracs. yb and Y5
// are clobbered. GATHER8P is GATHER8 from Y14 alone.
#define GATHER8(ya, yb, off) \
	VPSHUFB off+32(R11), Y14, ya; \
	VPSHUFB off+96(R11), Y15, Y5; \
	VPOR    Y5, ya, ya; \
	VPSHUFB off+64(R11), Y14, yb; \
	VPSHUFB off+128(R11), Y15, Y5; \
	VPOR    Y5, yb, yb; \
	BLEND(ya, yb, off(R11), Y13)

#define GATHER8P(ya, yb, off) \
	VPSHUFB off+32(R11), Y14, ya; \
	VPSHUFB off+64(R11), Y14, yb; \
	BLEND(ya, yb, off(R11), Y13)

// SCORE4(off) adds to AX the SAD of the four lines in Y0 and Y3 against the
// source lines at off(DI), and goes to split8 once AX exceeds R8. It leaves
// the lines' sums in X0 (l, l+2) and X1 (l+1, l+3) and the four's in BX.
#define SCORE4(off) \
	VPSUBW off(DI), Y0, Y0; \
	VPSUBW off+32(DI), Y3, Y3; \
	VPABSW Y0, Y0; \
	VPABSW Y3, Y3; \
	VPACKUSWB Y3, Y0, Y0; \
	VPSADBW Y9, Y0, Y0; \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDQ X1, X0, X3; \
	VPSHUFD $0x4E, X3, X2; \
	VPADDQ X2, X3, X3; \
	VMOVQ X3, BX; \
	ADDQ BX, AX; \
	CMPQ AX, R8; \
	JGT  split8

// BYTES16(r, y, x) leaves in both lanes of y the 16 int16 samples at (r) as
// bytes; x is y's low half.
#define BYTES16(r, y, x) \
	VMOVDQU   (r), x; \
	VPACKUSWB 16(r), x, x; \
	VPERMQ    $0x44, y, y

// func sadLines8AVX2(t1, t2, src *int16, lines *lines8, bound int64) int64
//
// sadLinesAVX2 for an n = 8 block, whose lines' samples are gathered from
// registers instead of loaded from a main array: the 16 samples at t1 and,
// for a negative angle, at t2, as bytes, are the tables, and lines holds per
// pair of lines the fracs and the VPSHUFB controls that pick each word of a
// and b from one of them (0x80 from the other). So a negative-angle mode
// needs no projected samples in memory; a mode of angle ≥ 0 reads t1 alone
// (t2 nil). Lines l and l+1 share a register, one in each 128-bit lane, and
// four lines are scored a VPSADBW (SCORE4); when they cross the bound,
// split8 finds the first line that does.
//
// R11 lines; the rest as sadLinesAVX2.
TEXT ·sadLines8AVX2(SB), NOSPLIT, $0-48
	MOVQ t1+0(FP), SI
	MOVQ t2+8(FP), R12
	MOVQ src+16(FP), DI
	MOVQ lines+24(FP), R11
	MOVQ bound+32(FP), R8
	XORQ AX, AX
	VPXOR Y9, Y9, Y9
	MOVL $16, BX
	VMOVD BX, X13
	VPBROADCASTW X13, Y13
	BYTES16(SI, Y14, X14)
	TESTQ R12, R12
	JZ   from1
	BYTES16(R12, Y15, X15)
	GATHER8(Y0, Y1, 0)
	GATHER8(Y3, Y4, 160)
	SCORE4(0)
	GATHER8(Y0, Y1, 320)
	GATHER8(Y3, Y4, 480)
	SCORE4(64)
	JMP  done8

from1:
	GATHER8P(Y0, Y1, 0)
	GATHER8P(Y3, Y4, 160)
	SCORE4(0)
	GATHER8P(Y0, Y1, 320)
	GATHER8P(Y3, Y4, 480)
	SCORE4(64)
	JMP  done8

split8:
	// The four lines crossed the bound: add them back one at a time.
	SUBQ BX, AX
	VMOVQ X0, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  done8
	VMOVQ X1, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  done8
	VPEXTRQ $1, X0, BX
	ADDQ BX, AX
	CMPQ AX, R8
	JGT  done8
	VPEXTRQ $1, X1, BX
	ADDQ BX, AX

done8:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// WIDEN(y, x, off) stores the 16 int16 samples of y, sign-extended, as 16
// int32 at off(DI); x is y's low half, and both are clobbered.
#define WIDEN(y, x, off) \
	VPMOVSXWD x, Y9; \
	VMOVDQU   Y9, off(DI); \
	VEXTRACTI128 $1, y, x; \
	VPMOVSXWD x, Y9; \
	VMOVDQU   Y9, 32+off(DI)

// COLUMN(y, x) stores y, column j of a transposed tile, as two 8-sample runs
// of int32: its low lane at (AX), its high lane eight rows further down at
// (AX)(R13*1); AX steps to the next row.
#define COLUMN(y, x) \
	VPMOVSXWD x, Y9; \
	VMOVDQU   Y9, (AX); \
	VEXTRACTI128 $1, y, x; \
	VPMOVSXWD x, Y9; \
	VMOVDQU   Y9, (AX)(R13*1); \
	ADDQ      R12, AX

// func predLinesAVX2(ref *int16, dst *int32, n, angle int, columns bool)
//
// Writes the n×n prediction of the angular mode of the given angle from the
// int16 array ref, laid out as sadLinesAVX2's: the lines of sadLinesAVX2,
// sign-extended to int32. A vertical mode's lines are dst's rows, stored as
// they are made. A horizontal mode's (columns) are dst's columns: eight lines
// are made at a time, transposed as 8×8 tiles, and stored as rows.
//
// DI dst; the rest as ANGULAR_SETUP.
TEXT ·predLinesAVX2(SB), NOSPLIT, $0-33
	MOVQ ref+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ angle+24(FP), DX
	MOVBQZX columns+32(FP), R11
	ANGULAR_SETUP
	TESTQ R11, R11
	JNZ  cols
	CMPQ CX, $16
	JEQ  rows16
	JGT  rows32

rows8:
	LINE(X0, X1, Y2, X2, X13)
	VPMOVSXWD X0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  rows8
	JMP  pdone

rows16:
	LINE(Y0, Y1, Y2, Y2, Y13)
	WIDEN(Y0, X0, 0)
	ADDQ $64, DI
	DECQ CX
	JNZ  rows16
	JMP  pdone

rows32:
	MOVQ R9, BX
	SARQ $5, BX
	ADDQ R10, BX
	VPAND Y12, Y10, Y2
	VMOVDQU (SI)(BX*2), Y0
	VMOVDQU 2(SI)(BX*2), Y1
	VMOVDQU 32(SI)(BX*2), Y3
	VMOVDQU 34(SI)(BX*2), Y4
	BLEND(Y0, Y1, Y2, Y13)
	BLEND(Y3, Y4, Y2, Y13)
	WIDEN(Y0, X0, 0)
	WIDEN(Y3, X3, 64)
	ADDQ DX, R9
	VPADDW Y11, Y10, Y10
	ADDQ $128, DI
	DECQ CX
	JNZ  rows32
	JMP  pdone

cols:
	CMPQ CX, $8
	JNE  cols16
	LINE(X0, X15, Y14, X14, X13)
	LINE(X1, X15, Y14, X14, X13)
	LINE(X2, X15, Y14, X14, X13)
	LINE(X3, X15, Y14, X14, X13)
	LINE(X4, X15, Y14, X14, X13)
	LINE(X5, X15, Y14, X14, X13)
	LINE(X6, X15, Y14, X14, X13)
	LINE(X7, X15, Y14, X14, X13)
	TRANSPOSE8(X0, X1, X2, X3, X4, X5, X6, X7, X8)
	VPMOVSXWD X0, Y0
	VMOVDQU Y0, (DI)
	VPMOVSXWD X5, Y5
	VMOVDQU Y5, 32(DI)
	VPMOVSXWD X7, Y7
	VMOVDQU Y7, 64(DI)
	VPMOVSXWD X4, Y4
	VMOVDQU Y4, 96(DI)
	VPMOVSXWD X8, Y8
	VMOVDQU Y8, 128(DI)
	VPMOVSXWD X1, Y1
	VMOVDQU Y1, 160(DI)
	VPMOVSXWD X2, Y2
	VMOVDQU Y2, 192(DI)
	VPMOVSXWD X3, Y3
	VMOVDQU Y3, 224(DI)
	JMP  pdone

	// n = 16 or 32: each pass makes samples 16h…16h+15 of every line, eight
	// lines at a time; a tile's column j holds row 16h+j of dst in its low
	// lane and row 16h+8+j in its high one. R12 one row of dst in bytes, R13
	// eight rows, R8 passes left, R11 the group's first store, CX the end of
	// the pass's first row.
cols16:
	MOVQ CX, R12
	SHLQ $2, R12
	MOVQ R12, R13
	SHLQ $3, R13
	SHRQ $4, CX
	MOVQ CX, R8

pass:
	MOVQ DX, R9
	VMOVDQU Y11, Y10
	MOVQ DI, R11
	LEAQ (DI)(R12*1), CX

group:
	LINE(Y0, Y15, Y14, Y14, Y13)
	LINE(Y1, Y15, Y14, Y14, Y13)
	LINE(Y2, Y15, Y14, Y14, Y13)
	LINE(Y3, Y15, Y14, Y14, Y13)
	LINE(Y4, Y15, Y14, Y14, Y13)
	LINE(Y5, Y15, Y14, Y14, Y13)
	LINE(Y6, Y15, Y14, Y14, Y13)
	LINE(Y7, Y15, Y14, Y14, Y13)
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8)
	MOVQ R11, AX
	COLUMN(Y0, X0)
	COLUMN(Y5, X5)
	COLUMN(Y7, X7)
	COLUMN(Y4, X4)
	COLUMN(Y8, X8)
	COLUMN(Y1, X1)
	COLUMN(Y2, X2)
	COLUMN(Y3, X3)
	ADDQ $32, R11
	CMPQ R11, CX
	JNE  group
	ADDQ $32, SI
	LEAQ (DI)(R13*2), DI
	DECQ R8
	JNZ  pass

pdone:
	VZEROUPPER
	RET

// PLANAR(w, v, d, o) leaves in o row y of a Planar/DC form, (L[y]·w + v) >>
// shift with L[y] at (BX) and the shift in X14, and steps v to the next row.
#define PLANAR(w, v, d, o) \
	VPBROADCASTW (BX), o; \
	VPMULLW w, o, o; \
	VPADDW  v, o, o; \
	VPSRLW  X14, o, o; \
	VPADDW  d, v, v

// func planarLinesAVX2(form, src *int16, dst *int32, n, shift int, bound int64) int64
//
// Row y of Planar or DC is (L[y]·W + V + y·D) >> shift over the form's words
// W (0), V (32), D (64) and L (96), one sample a 16-bit lane. With dst nil it
// scores the rows against src, as sadLinesAVX2 scores lines, and returns the
// sum; otherwise it writes the rows to dst as int32 and returns 0.
//
// SI form, DI src, DX dst, CX rows left, R8 bound, BX L[y], AX the running
// sum; X9/Y9 zero, X14 the shift, and W, V, D in Y4, Y5, Y6 (samples 16…31
// in Y7, Y8, Y10).
TEXT ·planarLinesAVX2(SB), NOSPLIT, $0-56
	MOVQ form+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ dst+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ shift+32(FP), BX
	MOVQ bound+40(FP), R8
	XORQ AX, AX
	VMOVQ BX, X14
	VPXOR Y9, Y9, Y9
	LEAQ 192(SI), BX
	VMOVDQU (SI), Y4
	VMOVDQU 64(SI), Y5
	VMOVDQU 128(SI), Y6
	VMOVDQU 32(SI), Y7
	VMOVDQU 96(SI), Y8
	VMOVDQU 160(SI), Y10
	TESTQ DX, DX
	JNZ  write
	CMPQ CX, $16
	JEQ  score16
	JGT  score32

score8:
	PLANAR(X4, X5, X6, X0)
	VPSUBW (DI), X0, X0
	VPABSW X0, X0
	VPSADBW X9, X0, X0
	VPSHUFD $0x4E, X0, X2
	VPADDQ X2, X0, X0
	VMOVQ X0, R9
	ADDQ R9, AX
	CMPQ AX, R8
	JGT  ldone
	ADDQ $2, BX
	ADDQ $16, DI
	DECQ CX
	JNZ  score8
	JMP  ldone

score16:
	PLANAR(Y4, Y5, Y6, Y0)
	VPSUBW (DI), Y0, Y0
	VPABSW Y0, Y0
	VPSADBW Y9, Y0, Y0
	VEXTRACTI128 $1, Y0, X2
	VPADDQ X2, X0, X0
	VPSHUFD $0x4E, X0, X2
	VPADDQ X2, X0, X0
	VMOVQ X0, R9
	ADDQ R9, AX
	CMPQ AX, R8
	JGT  ldone
	ADDQ $2, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  score16
	JMP  ldone

score32:
	PLANAR(Y4, Y5, Y6, Y0)
	PLANAR(Y7, Y8, Y10, Y3)
	VPSUBW (DI), Y0, Y0
	VPSUBW 32(DI), Y3, Y3
	VPABSW Y0, Y0
	VPABSW Y3, Y3
	VPACKUSWB Y3, Y0, Y0
	VPSADBW Y9, Y0, Y0
	VEXTRACTI128 $1, Y0, X2
	VPADDQ X2, X0, X0
	VPSHUFD $0x4E, X0, X2
	VPADDQ X2, X0, X0
	VMOVQ X0, R9
	ADDQ R9, AX
	CMPQ AX, R8
	JGT  ldone
	ADDQ $2, BX
	ADDQ $64, DI
	DECQ CX
	JNZ  score32
	JMP  ldone

write:
	MOVQ DX, DI
	CMPQ CX, $16
	JEQ  write16
	JGT  write32

write8:
	PLANAR(X4, X5, X6, X0)
	VPMOVSXWD X0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $2, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  write8
	JMP  ldone

write16:
	PLANAR(Y4, Y5, Y6, Y0)
	WIDEN(Y0, X0, 0)
	ADDQ $2, BX
	ADDQ $64, DI
	DECQ CX
	JNZ  write16
	JMP  ldone

write32:
	PLANAR(Y4, Y5, Y6, Y0)
	PLANAR(Y7, Y8, Y10, Y3)
	WIDEN(Y0, X0, 0)
	WIDEN(Y3, X3, 64)
	ADDQ $2, BX
	ADDQ $128, DI
	DECQ CX
	JNZ  write32

ldone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func packLinesAVX2(src *int32, dst *int16, n int, columns bool)
//
// Writes the n×n block src as int16 lines to dst: its rows, packed in order
// by packSamples<>; or its columns, one 8×8 tile at a time — eight rows of eight
// samples packed, transposed by TRANSPOSE8 and stored as eight runs of
// eight samples of consecutive lines. Samples are 8-bit, so no pack
// saturates.
//
// R8 one src row in bytes (4n), R9 one dst line (2n); SI and DI the tile
// row's first sample and first line, BX the tile's src column in bytes, R11
// and R13 the rows being loaded and the lines being stored, R12 the tile's
// first line, CX tile rows left.
TEXT ·packLinesAVX2(SB), NOSPLIT, $0-25
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	MOVBQZX columns+24(FP), DX
	TESTQ DX, DX
	JNZ  tiles
	IMULQ CX, CX
	CALL packSamples<>(SB)
	JMP  kdone

// ROW8(x) packs the eight samples at (R11) into x and steps R11 a row.
#define ROW8(x) \
	VMOVDQU (R11), Y9; \
	VEXTRACTI128 $1, Y9, X10; \
	VPACKSSDW X10, X9, x; \
	ADDQ R8, R11

// LINE8(x) stores x's eight samples at (R13) and steps R13 a line.
#define LINE8(x) \
	VMOVDQU x, (R13); \
	ADDQ R9, R13

tiles:
	MOVQ CX, R8
	SHLQ $2, R8
	MOVQ CX, R9
	SHLQ $1, R9
	SHRQ $3, CX

tilerow:
	XORQ BX, BX
	MOVQ DI, R12

tile:
	LEAQ (SI)(BX*1), R11
	ROW8(X0)
	ROW8(X1)
	ROW8(X2)
	ROW8(X3)
	ROW8(X4)
	ROW8(X5)
	ROW8(X6)
	ROW8(X7)
	TRANSPOSE8(X0, X1, X2, X3, X4, X5, X6, X7, X8)
	MOVQ R12, R13
	LINE8(X0)
	LINE8(X5)
	LINE8(X7)
	LINE8(X4)
	LINE8(X8)
	LINE8(X1)
	LINE8(X2)
	LINE8(X3)
	MOVQ R13, R12
	ADDQ $32, BX
	CMPQ BX, R8
	JNE  tile
	LEAQ (SI)(R8*8), SI
	ADDQ $16, DI
	DECQ CX
	JNZ  tilerow

kdone:
	VZEROUPPER
	RET

// func packSamplesAVX2(src *int32, dst *int16, count int)
//
// Writes count int32 samples, a multiple of 16 that fit int16, to dst as
// int16, sixteen at a time (VPACKSSDW, then VPERMQ to undo its lane
// interleave).
TEXT ·packSamplesAVX2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ count+16(FP), CX
	CALL packSamples<>(SB)
	VZEROUPPER
	RET

// packSamples<> is packSamplesAVX2 on SI, DI and CX; it clobbers them and
// Y0–Y1.
TEXT packSamples<>(SB), NOSPLIT, $0
	SHRQ $4, CX

pack:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPACKSSDW Y1, Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  pack
	RET
