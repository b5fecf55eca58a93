//go:build amd64

#include "textflag.h"

// The dropout kernels of dropout.go. A mask byte covers eight elements; the
// lane masks of one byte are the byte broadcast, ANDed with maskLanes and
// compared equal to it: all ones in lane j when bit j is set.

DATA maskLanes<>+0(SB)/4, $1
DATA maskLanes<>+4(SB)/4, $2
DATA maskLanes<>+8(SB)/4, $4
DATA maskLanes<>+12(SB)/4, $8
DATA maskLanes<>+16(SB)/4, $16
DATA maskLanes<>+20(SB)/4, $32
DATA maskLanes<>+24(SB)/4, $64
DATA maskLanes<>+28(SB)/4, $128
GLOBL maskLanes<>(SB), RODATA|NOPTR, $32

// The SplitMix64 output mix's two multipliers, each followed by its high
// half, and the state step of eight draws, 8γ.
DATA splitmix<>+0(SB)/8, $0xbf58476d1ce4e5b9
DATA splitmix<>+8(SB)/8, $0xbf58476d
DATA splitmix<>+16(SB)/8, $0x94d049bb133111eb
DATA splitmix<>+24(SB)/8, $0x94d049bb
DATA splitmix<>+32(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL splitmix<>(SB), RODATA|NOPTR, $40

// MUL64 sets z to the low 64 bits of z·c in every lane from three 32×32→64
// multiplies: zlo·clo + (zhi·clo + zlo·chi)<<32. clo holds c, chi c>>32.
#define MUL64(z, clo, chi, t0, t1) \
	VPSRLQ   $32, z, t0    \
	VPMULUDQ clo, t0, t0   \
	VPMULUDQ chi, z, t1    \
	VPADDQ   t1, t0, t0    \
	VPSLLQ   $32, t0, t0   \
	VPMULUDQ clo, z, z     \
	VPADDQ   t0, z, z

// func keepBytesAVX2(bits *uint64, from, n int, lanes *[8]uint64, t uint64)
//
// Writes bytes [from, from+n) of the bitset with the keep bits of 8n
// SplitMix64 draws: a draw is kept when its z has z>>40 < t. Two 4-lane
// vectors hold the states of one byte's eight draws, the even draws in the
// first (lanes[0:4]) and the odd in the second (lanes[4:8]), so one dword
// blend puts draw j's compare in dword j for VMOVMSKPS. Each state steps by
// 8γ per byte. The output mix's last step, z ^= z>>31, is left out: it does
// not reach bits 40–63. n ≥ 1.
TEXT ·keepBytesAVX2(SB), NOSPLIT, $0-40
	MOVQ bits+0(FP), DI
	ADDQ from+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ lanes+24(FP), SI
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VPBROADCASTQ t+32(FP), Y9
	VPBROADCASTQ splitmix<>+0(SB), Y10
	VPBROADCASTQ splitmix<>+8(SB), Y11
	VPBROADCASTQ splitmix<>+16(SB), Y12
	VPBROADCASTQ splitmix<>+24(SB), Y13
	VPBROADCASTQ splitmix<>+32(SB), Y14
keeploop:
	VPSRLQ $30, Y0, Y2
	VPXOR  Y0, Y2, Y2
	VPSRLQ $30, Y1, Y3
	VPXOR  Y1, Y3, Y3
	MUL64(Y2, Y10, Y11, Y4, Y5)
	MUL64(Y3, Y10, Y11, Y6, Y7)
	VPSRLQ $27, Y2, Y4
	VPXOR  Y4, Y2, Y2
	VPSRLQ $27, Y3, Y6
	VPXOR  Y6, Y3, Y3
	MUL64(Y2, Y12, Y13, Y4, Y5)
	MUL64(Y3, Y12, Y13, Y6, Y7)
	VPSRLQ   $40, Y2, Y2
	VPCMPGTQ Y2, Y9, Y2 // t > z>>40
	VPSRLQ   $40, Y3, Y3
	VPCMPGTQ Y3, Y9, Y3
	VPBLENDD  $0xaa, Y3, Y2, Y2 // dword 2k: draw 2k, dword 2k+1: draw 2k+1
	VMOVMSKPS Y2, AX
	MOVB AX, (DI)
	VPADDQ Y14, Y0, Y0
	VPADDQ Y14, Y1, Y1
	INCQ DI
	DECQ CX
	JNZ  keeploop
	VZEROUPPER
	RET

// func maskScaleAVX2(dst, src *float32, bits *uint64, from, n int, scale float32)
//
// For the 8n floats from dst and src on, masked by bytes [from, from+n) of
// the bitset: dst = (src·scale) AND lane mask. n ≥ 1.
TEXT ·maskScaleAVX2(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ bits+16(FP), BX
	ADDQ from+24(FP), BX
	MOVQ n+32(FP), CX
	VBROADCASTSS scale+40(FP), Y14
	VMOVDQU maskLanes<>(SB), Y15
scaleloop:
	VPBROADCASTB (BX), Y2
	VPAND    Y15, Y2, Y2
	VPCMPEQD Y15, Y2, Y2
	VMULPS   (SI), Y14, Y3
	VANDPS   Y2, Y3, Y3
	VMOVUPS  Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	INCQ BX
	DECQ CX
	JNZ  scaleloop
	VZEROUPPER
	RET

// func maskMulAVX2(grad *float32, bits *uint64, from, n int, scale float32)
//
// For the 8n floats from grad on, masked by bytes [from, from+n) of the bitset:
// grad = grad·(scale AND lane mask). n ≥ 1.
TEXT ·maskMulAVX2(SB), NOSPLIT, $0-36
	MOVQ grad+0(FP), DI
	MOVQ bits+8(FP), BX
	ADDQ from+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSS scale+32(FP), Y14
	VMOVDQU maskLanes<>(SB), Y15
mulloop:
	VPBROADCASTB (BX), Y2
	VPAND    Y15, Y2, Y2
	VPCMPEQD Y15, Y2, Y2
	VANDPS   Y14, Y2, Y2
	VMULPS   (DI), Y2, Y3
	VMOVUPS  Y3, (DI)
	ADDQ $32, DI
	INCQ BX
	DECQ CX
	JNZ  mulloop
	VZEROUPPER
	RET
