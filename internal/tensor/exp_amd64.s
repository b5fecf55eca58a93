//go:build amd64

#include "textflag.h"

// The exp kernel is math.Exp's amd64 assembly (math/exp_amd64.s, the avxfma
// branch: Shibata's method, from SLEEF) run on four lanes at once, the same
// constants and the same instruction per step, so an in-range lane gets the
// scalar routine's bits. Only the lastStep path of that routine is taken
// here: a group with a lane outside [expLo, expHi] (NaN, ±Inf, overflow, a
// subnormal result) is left to the caller.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Broadcast sources, one float64 each; bias is the int64 0x3FF.
DATA expconst<>+0(SB)/8, $-708.0
DATA expconst<>+8(SB)/8, $709.0
DATA expconst<>+16(SB)/8, $LOG2E
DATA expconst<>+24(SB)/8, $LN2U
DATA expconst<>+32(SB)/8, $LN2L
DATA expconst<>+40(SB)/8, $0.0625
DATA expconst<>+48(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+56(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+64(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+72(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+80(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+88(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+96(SB)/8, $0.5
DATA expconst<>+104(SB)/8, $1.0
DATA expconst<>+112(SB)/8, $2.0
DATA expconst<>+120(SB)/8, $0x3FF
GLOBL expconst<>(SB), RODATA|NOPTR, $128

// func expAVX2(x *float64, n int) int
//
// x[i] = math.Exp(x[i]) for i in [0, done), four lanes at a time, stopping
// before the first group of four with a lane outside [-708, 709] (NaN fails
// both compares); returns done, a multiple of 4. n must be a multiple of 4.
// Registers Y4–Y15 hold the reduction and Horner constants; the range
// bounds, the leading coefficient and the exponent bias are broadcast per
// group into the scratch registers.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ expconst<>(SB), SI
	VBROADCASTSD 16(SI), Y4  // LOG2E
	VBROADCASTSD 24(SI), Y5  // LN2U
	VBROADCASTSD 32(SI), Y6  // LN2L
	VBROADCASTSD 40(SI), Y7  // 0.0625
	VBROADCASTSD 56(SI), Y8  // 1/7!
	VBROADCASTSD 64(SI), Y9  // 1/6!
	VBROADCASTSD 72(SI), Y10 // 1/5!
	VBROADCASTSD 80(SI), Y11 // 1/4!
	VBROADCASTSD 88(SI), Y12 // 1/3!
	VBROADCASTSD 96(SI), Y13 // 0.5
	VBROADCASTSD 104(SI), Y14 // 1.0
	VBROADCASTSD 112(SI), Y15 // 2.0
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE  expdone
	VMOVUPD (DI)(AX*8), Y0
	// Range check: every lane in [-708, 709], so that the exponent n below
	// lands in [-1021, 1023] and math.Exp would take lastStep.
	VBROADCASTSD 0(SI), Y1
	VBROADCASTSD 8(SI), Y3
	VCMPPD $0x1D, Y1, Y0, Y1 // x >= -708 (GE_OQ)
	VCMPPD $0x12, Y3, Y0, Y3 // x <= 709 (LE_OQ)
	VANDPD Y3, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ BX, $15
	JNE  expdone

	// n = round(x·LOG2E); x −= n·LN2U; x −= n·LN2L (fused); x ·= 1/16.
	VMULPD Y4, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y5, Y1, Y0
	VFNMADD231PD Y6, Y1, Y0
	VMULPD Y7, Y0, Y0

	// Degree-8 Horner chain, then four squarings (e·(e+2)), the last fused
	// with +1.
	VBROADCASTSD 48(SI), Y1 // 1/8!
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y11, Y0, Y1
	VFMADD213PD Y12, Y0, Y1
	VFMADD213PD Y13, Y0, Y1
	VFMADD213PD Y14, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VFMADD213PD Y14, Y1, Y0

	// Scale by 2^n: (n + 0x3FF) << 52 is the float64 2^n.
	VPMOVSXDQ X2, Y3
	VPBROADCASTQ 120(SI), Y1
	VPADDQ Y1, Y3, Y3
	VPSLLQ $52, Y3, Y3
	VMULPD Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exploop

expdone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
