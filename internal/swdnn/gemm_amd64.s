#include "textflag.h"

// Packed-SSE2 primitives of the reference GEMMs (see gemm_amd64.go).
// Every lane is one output element and sees exactly the operations the
// portable Go loops apply to it, in the same order: MULPS/ADDPS round
// each lane as MULSS/ADDSS round a scalar, and the tails use the scalar
// forms themselves. Unaligned loads and stores throughout.

// DOT4ROW adds a[kk+t]·t for t = 0…3, in that order, to acc, where a
// row starts at ap and X5, X9, X7, X6 hold the transposed t0…t3.
#define DOT4ROW(ap, acc) \
	MOVUPS (ap)(AX*4), X10; \
	PSHUFD $0x00, X10, X11; \
	PSHUFD $0x55, X10, X12; \
	PSHUFD $0xaa, X10, X13; \
	PSHUFD $0xff, X10, X14; \
	MULPS  X5, X11; \
	MULPS  X9, X12; \
	MULPS  X7, X13; \
	MULPS  X6, X14; \
	ADDPS  X11, acc; \
	ADDPS  X12, acc; \
	ADDPS  X13, acc; \
	ADDPS  X14, acc

// DOT1ROW adds a[kk]·X5 to acc, X5 holding element kk of rows 0…3.
#define DOT1ROW(ap, acc) \
	MOVSS  (ap)(AX*4), X11; \
	SHUFPS $0x00, X11, X11; \
	MULPS  X5, X11; \
	ADDPS  X11, acc

// func axpy(c, b []float32, a float32)
TEXT ·axpy(SB), NOSPLIT, $0-52
	MOVQ  c_base+0(FP), DI
	MOVQ  c_len+8(FP), CX
	MOVQ  b_base+24(FP), SI
	MOVSS a+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-8, BX

axpy8:
	CMPQ   AX, BX
	JAE    axpy4w
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI)(AX*4), X3
	MOVUPS 16(DI)(AX*4), X4
	ADDPS  X1, X3
	ADDPS  X2, X4
	MOVUPS X3, (DI)(AX*4)
	MOVUPS X4, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    axpy8

axpy4w:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     axpy1
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X3
	ADDPS  X1, X3
	MOVUPS X3, (DI)(AX*4)
	ADDQ   $4, AX

axpy1:
	CMPQ  AX, CX
	JAE   axpydone
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X3
	ADDSS X1, X3
	MOVSS X3, (DI)(AX*4)
	INCQ  AX
	JMP   axpy1

axpydone:
	RET

// func axpy4(c, b0, b1, b2, b3 []float32, a *[4]float32)
TEXT ·axpy4(SB), NOSPLIT, $0-128
	MOVQ   c_base+0(FP), DI
	MOVQ   c_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	MOVQ   b2_base+72(FP), R10
	MOVQ   b3_base+96(FP), R11
	MOVQ   a+120(FP), DX
	MOVUPS (DX), X4
	PSHUFD $0x00, X4, X0
	PSHUFD $0x55, X4, X1
	PSHUFD $0xaa, X4, X2
	PSHUFD $0xff, X4, X3
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-8, BX

q8:
	CMPQ   AX, BX
	JAE    q4
	MOVUPS (R8)(AX*4), X6
	MOVUPS 16(R8)(AX*4), X7
	MOVUPS (R9)(AX*4), X8
	MOVUPS 16(R9)(AX*4), X9
	MOVUPS (R10)(AX*4), X10
	MOVUPS 16(R10)(AX*4), X11
	MOVUPS (R11)(AX*4), X12
	MOVUPS 16(R11)(AX*4), X13
	MULPS  X0, X6
	MULPS  X0, X7
	MULPS  X1, X8
	MULPS  X1, X9
	MULPS  X2, X10
	MULPS  X2, X11
	MULPS  X3, X12
	MULPS  X3, X13
	MOVUPS (DI)(AX*4), X4
	MOVUPS 16(DI)(AX*4), X5
	ADDPS  X6, X4
	ADDPS  X7, X5
	ADDPS  X8, X4
	ADDPS  X9, X5
	ADDPS  X10, X4
	ADDPS  X11, X5
	ADDPS  X12, X4
	ADDPS  X13, X5
	MOVUPS X4, (DI)(AX*4)
	MOVUPS X5, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    q8

q4:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     q1
	MOVUPS (R8)(AX*4), X6
	MOVUPS (R9)(AX*4), X8
	MOVUPS (R10)(AX*4), X10
	MOVUPS (R11)(AX*4), X12
	MULPS  X0, X6
	MULPS  X1, X8
	MULPS  X2, X10
	MULPS  X3, X12
	MOVUPS (DI)(AX*4), X4
	ADDPS  X6, X4
	ADDPS  X8, X4
	ADDPS  X10, X4
	ADDPS  X12, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX

q1:
	CMPQ  AX, CX
	JAE   qdone
	MOVSS (R8)(AX*4), X6
	MOVSS (R9)(AX*4), X8
	MOVSS (R10)(AX*4), X10
	MOVSS (R11)(AX*4), X12
	MULSS X0, X6
	MULSS X1, X8
	MULSS X2, X10
	MULSS X3, X12
	MOVSS (DI)(AX*4), X4
	ADDSS X6, X4
	ADDSS X8, X4
	ADDSS X10, X4
	ADDSS X12, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   q1

qdone:
	RET

// func dot4(s *[4][4]float32, a, b []float32)
//
// b holds four rows of k = len(b)/4 elements, a holds rows = len(a)/k
// rows (one to four). Lane j of accumulator Xr sums row r of a against
// row j of b. Each step of four kk loads four consecutive elements of
// every b row and transposes them so that register t holds element
// kk+t of rows 0…3 (the transpose is shared by all rows of a); every a
// row then adds a[kk+t]·t in t order.
TEXT ·dot4(SB), NOSPLIT, $0-56
	MOVQ b_base+32(FP), R8
	MOVQ b_len+40(FP), CX
	SHRQ $2, CX              // k
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	MOVQ a_len+16(FP), AX
	XORQ DX, DX
	DIVQ CX
	MOVQ AX, DX              // rows of a
	MOVQ a_base+8(FP), SI
	LEAQ (SI)(CX*4), DI
	LEAQ (DI)(CX*4), R12
	LEAQ (R12)(CX*4), R13
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

d4:
	CMPQ     AX, BX
	JAE      d1
	MOVUPS   (R8)(AX*4), X4   // row 0: r0k0 r0k1 r0k2 r0k3
	MOVUPS   (R9)(AX*4), X5   // row 1
	MOVUPS   (R10)(AX*4), X6  // row 2
	MOVUPS   (R11)(AX*4), X7  // row 3
	MOVAPS   X4, X8
	UNPCKLPS X5, X8           // r0k0 r1k0 r0k1 r1k1
	UNPCKHPS X5, X4           // r0k2 r1k2 r0k3 r1k3
	MOVAPS   X6, X9
	UNPCKLPS X7, X9           // r2k0 r3k0 r2k1 r3k1
	UNPCKHPS X7, X6           // r2k2 r3k2 r2k3 r3k3
	MOVAPS   X8, X5
	MOVLHPS  X9, X5           // t0: r0k0 r1k0 r2k0 r3k0
	MOVHLPS  X8, X9           // t1: r0k1 r1k1 r2k1 r3k1
	MOVAPS   X4, X7
	MOVLHPS  X6, X7           // t2
	MOVHLPS  X4, X6           // t3
	DOT4ROW(SI, X0)
	CMPQ     DX, $2
	JB       d4next
	DOT4ROW(DI, X1)
	CMPQ     DX, $3
	JB       d4next
	DOT4ROW(R12, X2)
	CMPQ     DX, $4
	JB       d4next
	DOT4ROW(R13, X3)

d4next:
	ADDQ $4, AX
	JMP  d4

d1:
	CMPQ     AX, CX
	JAE      ddone
	MOVSS    (R8)(AX*4), X5
	MOVSS    (R9)(AX*4), X6
	MOVSS    (R10)(AX*4), X7
	MOVSS    (R11)(AX*4), X8
	UNPCKLPS X6, X5           // r0 r1 0 0
	UNPCKLPS X8, X7           // r2 r3 0 0
	MOVLHPS  X7, X5           // r0 r1 r2 r3
	DOT1ROW(SI, X0)
	CMPQ     DX, $2
	JB       d1next
	DOT1ROW(DI, X1)
	CMPQ     DX, $3
	JB       d1next
	DOT1ROW(R12, X2)
	CMPQ     DX, $4
	JB       d1next
	DOT1ROW(R13, X3)

d1next:
	INCQ AX
	JMP  d1

ddone:
	MOVQ   s+0(FP), DI
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET
