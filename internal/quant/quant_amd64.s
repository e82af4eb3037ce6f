#include "textflag.h"

// The lanes of quant.go's Sanitize on eight float32s in Y0: NaN becomes +0
// (VCMPPS unordered, VANDNPS) and ±Inf clamps to ±MaxFloat32 (VMAXPS against
// Y14, VMINPS against Y15). Y1 is clobbered.
#define SANITIZE \
	VCMPPS $3, Y0, Y0, Y1; \
	VANDNPS Y0, Y1, Y0; \
	VMAXPS Y14, Y0, Y0; \
	VMINPS Y15, Y0, Y0

// Y15 = MaxFloat32 and Y14 = −MaxFloat32 in every lane.
#define FINITE_RANGE \
	MOVL $0x7f7fffff, AX; \
	VMOVD AX, X15; \
	VBROADCASTSS X15, Y15; \
	MOVL $0xff7fffff, AX; \
	VMOVD AX, X14; \
	VBROADCASTSS X14, Y14

// func minMaxAVX2(data *float32, count int) (lo, hi float32)
//
// The least and the greatest Sanitize(data[i]) for count a non-zero multiple
// of 8, in float32 lanes (VMINPS, VMAXPS). Which of two equal zeros a lane
// keeps is not Go's first-wins: the caller settles a zero result.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-24
	MOVQ data+0(FP), SI
	MOVQ count+8(FP), CX
	FINITE_RANGE
	VMOVUPS (SI), Y0
	SANITIZE
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3

minmax:
	VMOVUPS (SI), Y0
	SANITIZE
	VMINPS Y0, Y2, Y2
	VMAXPS Y0, Y3, Y3
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  minmax

	VEXTRACTF128 $1, Y2, X0
	VMINPS X0, X2, X2
	VPERMILPS $0x4E, X2, X0
	VMINPS X0, X2, X2
	VPERMILPS $0xB1, X2, X0
	VMINPS X0, X2, X2
	VEXTRACTF128 $1, Y3, X0
	VMAXPS X0, X3, X3
	VPERMILPS $0x4E, X3, X0
	VMAXPS X0, X3, X3
	VPERMILPS $0xB1, X3, X0
	VMAXPS X0, X3, X3
	VMOVSS X2, lo+16(FP)
	VMOVSS X3, hi+20(FP)
	VZEROUPPER
	RET

// func toUint8AVX2(pix *uint8, data *float32, count int, lo, inv float64)
//
// ToUint8's map for count a multiple of 8: pix[i] = min(max(round((
// Sanitize(data[i]) − lo)·inv), 0), 255), the subtraction and the product each
// rounded in float64 (VSUBPD, VMULPD: no fused multiply-add) as the Go loop's
// are. round is math.Round's half away from zero where it decides a pixel,
// x ≥ 0: t = trunc(x) (VROUNDPD), plus one where x − t ≥ ½ — exact, as the
// fraction of a double is. A negative x gives t ≤ 0, which clamps to 0 as
// math.Round's result does.
//
// DI pix, SI data, CX count; Y13 lo, Y12 inv, Y11 ½, Y10 1, Y9 0, Y8 255.
TEXT ·toUint8AVX2(SB), NOSPLIT, $0-40
	MOVQ pix+0(FP), DI
	MOVQ data+8(FP), SI
	MOVQ count+16(FP), CX
	VBROADCASTSD lo+24(FP), Y13
	VBROADCASTSD inv+32(FP), Y12
	FINITE_RANGE
	MOVQ $0x3fe0000000000000, AX
	VMOVQ AX, X11
	VBROADCASTSD X11, Y11
	MOVQ $0x3ff0000000000000, AX
	VMOVQ AX, X10
	VBROADCASTSD X10, Y10
	VXORPD Y9, Y9, Y9
	MOVQ $0x406fe00000000000, AX
	VMOVQ AX, X8
	VBROADCASTSD X8, Y8

pixels:
	VMOVUPS (SI), Y0
	SANITIZE
	VCVTPS2PD X0, Y2
	VEXTRACTF128 $1, Y0, X3
	VCVTPS2PD X3, Y3
	VSUBPD Y13, Y2, Y2
	VSUBPD Y13, Y3, Y3
	VMULPD Y12, Y2, Y2
	VMULPD Y12, Y3, Y3
	VROUNDPD $3, Y2, Y4
	VROUNDPD $3, Y3, Y5
	VSUBPD Y4, Y2, Y2
	VSUBPD Y5, Y3, Y3
	VCMPPD $0x0d, Y11, Y2, Y2
	VCMPPD $0x0d, Y11, Y3, Y3
	VANDPD Y10, Y2, Y2
	VANDPD Y10, Y3, Y3
	VADDPD Y2, Y4, Y4
	VADDPD Y3, Y5, Y5
	VMAXPD Y9, Y4, Y4
	VMAXPD Y9, Y5, Y5
	VMINPD Y8, Y4, Y4
	VMINPD Y8, Y5, Y5
	VCVTTPD2DQY Y4, X4
	VCVTTPD2DQY Y5, X5
	VPACKSSDW X5, X4, X4
	VPACKUSWB X4, X4, X4
	VMOVQ X4, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  pixels
	VZEROUPPER
	RET
