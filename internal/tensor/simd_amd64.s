//go:build amd64

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4AVX2(dst, b0, b1, b2, b3 *float32, n int, a *[4]float32)
//
// dst[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j], j in [0,n).
// n must be a multiple of 8. Main loop handles 16 floats per iteration with
// two destination accumulators; a single 8-wide block mops up n%16.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ a+48(FP), AX
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   axpy4tail
axpy4loop:
	VMOVUPS (DI)(BX*4), Y4
	VMOVUPS 32(DI)(BX*4), Y5
	VFMADD231PS (SI)(BX*4), Y0, Y4
	VFMADD231PS 32(SI)(BX*4), Y0, Y5
	VFMADD231PS (R8)(BX*4), Y1, Y4
	VFMADD231PS 32(R8)(BX*4), Y1, Y5
	VFMADD231PS (R9)(BX*4), Y2, Y4
	VFMADD231PS 32(R9)(BX*4), Y2, Y5
	VFMADD231PS (R10)(BX*4), Y3, Y4
	VFMADD231PS 32(R10)(BX*4), Y3, Y5
	VMOVUPS Y4, (DI)(BX*4)
	VMOVUPS Y5, 32(DI)(BX*4)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  axpy4loop
axpy4tail:
	CMPQ BX, CX
	JGE  axpy4done
	VMOVUPS (DI)(BX*4), Y4
	VFMADD231PS (SI)(BX*4), Y0, Y4
	VFMADD231PS (R8)(BX*4), Y1, Y4
	VFMADD231PS (R9)(BX*4), Y2, Y4
	VFMADD231PS (R10)(BX*4), Y3, Y4
	VMOVUPS Y4, (DI)(BX*4)
axpy4done:
	VZEROUPPER
	RET

// func dot4AVX2(a, b0, b1, b2, b3 *float32, n int, out *[4]float32)
//
// out[i] = sum_j a[j]*bi[j] over j in [0,n); n must be a multiple of 8.
// Eight accumulators (two per dot product) hide the FMA latency.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   dot4tail
dot4loop:
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	VFMADD231PS (R8)(BX*4), Y0, Y4
	VFMADD231PS 32(R8)(BX*4), Y1, Y5
	VFMADD231PS (R9)(BX*4), Y0, Y6
	VFMADD231PS 32(R9)(BX*4), Y1, Y7
	VFMADD231PS (R10)(BX*4), Y0, Y8
	VFMADD231PS 32(R10)(BX*4), Y1, Y9
	VFMADD231PS (R11)(BX*4), Y0, Y10
	VFMADD231PS 32(R11)(BX*4), Y1, Y11
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  dot4loop
dot4tail:
	CMPQ BX, CX
	JGE  dot4reduce
	VMOVUPS (SI)(BX*4), Y0
	VFMADD231PS (R8)(BX*4), Y0, Y4
	VFMADD231PS (R9)(BX*4), Y0, Y6
	VFMADD231PS (R10)(BX*4), Y0, Y8
	VFMADD231PS (R11)(BX*4), Y0, Y10
dot4reduce:
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y9, Y8, Y8
	VADDPS Y11, Y10, Y10
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4
	VMOVSS X4, 0(DI)
	VEXTRACTF128 $1, Y6, X5
	VADDPS X5, X6, X6
	VHADDPS X6, X6, X6
	VHADDPS X6, X6, X6
	VMOVSS X6, 4(DI)
	VEXTRACTF128 $1, Y8, X5
	VADDPS X5, X8, X8
	VHADDPS X8, X8, X8
	VHADDPS X8, X8, X8
	VMOVSS X8, 8(DI)
	VEXTRACTF128 $1, Y10, X5
	VADDPS X5, X10, X10
	VHADDPS X10, X10, X10
	VHADDPS X10, X10, X10
	VMOVSS X10, 12(DI)
	VZEROUPPER
	RET

// func dotAVX2(a, b *float32, n int) float32
//
// Returns sum_j a[j]*b[j] over j in [0,n); n must be a multiple of 8.
// Two accumulators hide the FMA latency (the same schedule as one dot4AVX2
// lane); the reduction is dot4AVX2's extract+hadd sequence.
TEXT ·dotAVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   dottail
dotloop:
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	VFMADD231PS (DI)(BX*4), Y0, Y4
	VFMADD231PS 32(DI)(BX*4), Y1, Y5
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  dotloop
dottail:
	CMPQ BX, CX
	JGE  dotreduce
	VMOVUPS (SI)(BX*4), Y0
	VFMADD231PS (DI)(BX*4), Y0, Y4
dotreduce:
	VADDPS Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4
	VMOVSS X4, ret+24(FP)
	VZEROUPPER
	RET

// func dotRowsAVX2(out, a *float32, n int, idx *int32, terms int, x *float32, ldx, xrows int) (ok bool)
//
// out[t] = sum_j a[j]*x[idx[t]*ldx + j] over j in [0,n) for t in [0,terms);
// n must be a multiple of 8. Four terms at a time run dot4AVX2's loop and
// tail unchanged, then reduce the four dots in one tree: per dot odd into
// even and high half into low, then hadd(d0,d1), hadd(d2,d3) and hadd of
// those two. Lane t of the tree adds the same operands in the same source
// positions as dot4AVX2's per-dot hadd;hadd, so every bit (NaN payloads
// too) is dot4AVX2's, and the four results are stored with one move. The
// last terms%4 are dotAVX2's sequence. Each row id is compared with xrows as
// it is loaded (a negative one is a huge unsigned one); the first outside
// [0,xrows) returns false before its four (or single) dots are stored.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-65
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ idx+24(FP), R12
	MOVQ terms+32(FP), R13
	MOVQ x+40(FP), AX
	MOVQ CX, DX
	ANDQ $-16, DX
	SUBQ $4, R13
	JLT  dotRowsSingles
dotRowsQuad:
	MOVLQSX 0(R12), R8
	CMPQ R8, xrows+56(FP)
	JAE  dotRowsBad
	IMULQ ldx+48(FP), R8
	LEAQ (AX)(R8*4), R8
	MOVLQSX 4(R12), R9
	CMPQ R9, xrows+56(FP)
	JAE  dotRowsBad
	IMULQ ldx+48(FP), R9
	LEAQ (AX)(R9*4), R9
	MOVLQSX 8(R12), R10
	CMPQ R10, xrows+56(FP)
	JAE  dotRowsBad
	IMULQ ldx+48(FP), R10
	LEAQ (AX)(R10*4), R10
	MOVLQSX 12(R12), R11
	CMPQ R11, xrows+56(FP)
	JAE  dotRowsBad
	IMULQ ldx+48(FP), R11
	LEAQ (AX)(R11*4), R11
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ BX, BX
	CMPQ DX, $0
	JE   dotRowsQuadTail
dotRowsQuadLoop:
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	VFMADD231PS (R8)(BX*4), Y0, Y4
	VFMADD231PS 32(R8)(BX*4), Y1, Y5
	VFMADD231PS (R9)(BX*4), Y0, Y6
	VFMADD231PS 32(R9)(BX*4), Y1, Y7
	VFMADD231PS (R10)(BX*4), Y0, Y8
	VFMADD231PS 32(R10)(BX*4), Y1, Y9
	VFMADD231PS (R11)(BX*4), Y0, Y10
	VFMADD231PS 32(R11)(BX*4), Y1, Y11
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  dotRowsQuadLoop
dotRowsQuadTail:
	CMPQ BX, CX
	JGE  dotRowsQuadReduce
	VMOVUPS (SI)(BX*4), Y0
	VFMADD231PS (R8)(BX*4), Y0, Y4
	VFMADD231PS (R9)(BX*4), Y0, Y6
	VFMADD231PS (R10)(BX*4), Y0, Y8
	VFMADD231PS (R11)(BX*4), Y0, Y10
dotRowsQuadReduce:
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y9, Y8, Y8
	VADDPS Y11, Y10, Y10
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	VEXTRACTF128 $1, Y6, X7
	VADDPS X7, X6, X6
	VEXTRACTF128 $1, Y8, X9
	VADDPS X9, X8, X8
	VEXTRACTF128 $1, Y10, X11
	VADDPS X11, X10, X10
	VHADDPS X6, X4, X4
	VHADDPS X10, X8, X8
	VHADDPS X8, X4, X4
	VMOVUPS X4, 0(DI)
	ADDQ $16, DI
	ADDQ $16, R12
	SUBQ $4, R13
	JGE  dotRowsQuad
dotRowsSingles:
	ADDQ $4, R13
	JE   dotRowsDone
dotRowsSingle:
	MOVLQSX 0(R12), R8
	CMPQ R8, xrows+56(FP)
	JAE  dotRowsBad
	IMULQ ldx+48(FP), R8
	LEAQ (AX)(R8*4), R8
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	XORQ BX, BX
	CMPQ DX, $0
	JE   dotRowsSingleTail
dotRowsSingleLoop:
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	VFMADD231PS (R8)(BX*4), Y0, Y4
	VFMADD231PS 32(R8)(BX*4), Y1, Y5
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  dotRowsSingleLoop
dotRowsSingleTail:
	CMPQ BX, CX
	JGE  dotRowsSingleReduce
	VMOVUPS (SI)(BX*4), Y0
	VFMADD231PS (R8)(BX*4), Y0, Y4
dotRowsSingleReduce:
	VADDPS Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4
	VMOVSS X4, 0(DI)
	ADDQ $4, DI
	ADDQ $4, R12
	DECQ R13
	JNE  dotRowsSingle
dotRowsDone:
	VZEROUPPER
	MOVB $1, ok+64(FP)
	RET
dotRowsBad:
	VZEROUPPER
	MOVB $0, ok+64(FP)
	RET

// func addAVX2(dst, src *float32, n int)
//
// dst[j] += src[j] for j in [0,n); n must be a multiple of 8.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   addtail
addloop:
	VMOVUPS (DI)(BX*4), Y0
	VMOVUPS 32(DI)(BX*4), Y1
	VADDPS (SI)(BX*4), Y0, Y0
	VADDPS 32(SI)(BX*4), Y1, Y1
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  addloop
addtail:
	CMPQ BX, CX
	JGE  adddone
	VMOVUPS (DI)(BX*4), Y0
	VADDPS (SI)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
adddone:
	VZEROUPPER
	RET

// func axpyAVX2(dst, src *float32, n int, a float32)
//
// dst[j] += a*src[j] for j in [0,n); n must be a multiple of 8.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Y2
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   axpytail
axpyloop:
	VMOVUPS (DI)(BX*4), Y0
	VMOVUPS 32(DI)(BX*4), Y1
	VFMADD231PS (SI)(BX*4), Y2, Y0
	VFMADD231PS 32(SI)(BX*4), Y2, Y1
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  axpyloop
axpytail:
	CMPQ BX, CX
	JGE  axpydone
	VMOVUPS (DI)(BX*4), Y0
	VFMADD231PS (SI)(BX*4), Y2, Y0
	VMOVUPS Y0, (DI)(BX*4)
axpydone:
	VZEROUPPER
	RET
