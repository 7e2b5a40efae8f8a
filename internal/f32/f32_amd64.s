#include "textflag.h"

// Packed-SSE2 bodies of the elementwise primitives (see f32_amd64.go).
// Every lane is one element and sees exactly the operations the
// portable Go loop applies to it: ADDPS/MULPS round each lane as
// ADDSS/MULSS round a scalar, and the tails use the scalar forms. The
// ReLU select is branch-free: CMPPS builds the all-ones mask of 0 < v
// (false for ±0 and NaN, as the Go comparison is), and ANDPS/ANDNPS/
// ORPS blend the two candidates lane by lane. Unaligned loads and
// stores throughout; each block is loaded before it is stored, so an
// operand may be the destination itself.

// BLEND4(c, a, b, m) leaves in m the lanes of a where 0 < c and those
// of b elsewhere; a is clobbered, and may be c itself.
#define BLEND4(c, a, b, m) \
	XORPS  m, m; \
	CMPPS  c, m, $1; \
	ANDPS  m, a; \
	ANDNPS b, m; \
	ORPS   a, m

// BLEND1 is BLEND4 on the low lane.
#define BLEND1(c, a, b, m) \
	XORPS  m, m; \
	CMPSS  c, m, $1; \
	ANDPS  m, a; \
	ANDNPS b, m; \
	ORPS   a, m

// func add(dst, a, b []float32)
TEXT ·add(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-16, BX

add16:
	CMPQ   AX, BX
	JAE    add4
	MOVUPS (SI)(AX*4), X0
	MOVUPS 16(SI)(AX*4), X1
	MOVUPS 32(SI)(AX*4), X2
	MOVUPS 48(SI)(AX*4), X3
	MOVUPS (DX)(AX*4), X4
	MOVUPS 16(DX)(AX*4), X5
	MOVUPS 32(DX)(AX*4), X6
	MOVUPS 48(DX)(AX*4), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, (DI)(AX*4)
	MOVUPS X1, 16(DI)(AX*4)
	MOVUPS X2, 32(DI)(AX*4)
	MOVUPS X3, 48(DI)(AX*4)
	ADDQ   $16, AX
	JMP    add16

add4:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     add1
	MOVUPS (SI)(AX*4), X0
	MOVUPS (DX)(AX*4), X4
	ADDPS  X4, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    add4

add1:
	CMPQ  AX, CX
	JAE   adddone
	MOVSS (SI)(AX*4), X0
	MOVSS (DX)(AX*4), X4
	ADDSS X4, X0
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	JMP   add1

adddone:
	RET

// func relu(out, in []float32, s float32)
TEXT ·relu(SB), NOSPLIT, $0-52
	MOVQ   out_base+0(FP), DI
	MOVQ   out_len+8(FP), CX
	MOVQ   in_base+24(FP), SI
	MOVSS  s+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-8, BX

relu8:
	CMPQ   AX, BX
	JAE    relu4
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MOVAPS X1, X3
	MOVAPS X2, X4
	MULPS  X0, X3
	MULPS  X0, X4
	BLEND4(X1, X1, X3, X5)
	BLEND4(X2, X2, X4, X6)
	MOVUPS X5, (DI)(AX*4)
	MOVUPS X6, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    relu8

relu4:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     relu1
	MOVUPS (SI)(AX*4), X1
	MOVAPS X1, X3
	MULPS  X0, X3
	BLEND4(X1, X1, X3, X5)
	MOVUPS X5, (DI)(AX*4)
	ADDQ   $4, AX

relu1:
	CMPQ   AX, CX
	JAE    reludone
	MOVSS  (SI)(AX*4), X1
	MOVAPS X1, X3
	MULSS  X0, X3
	BLEND1(X1, X1, X3, X5)
	MOVSS  X5, (DI)(AX*4)
	INCQ   AX
	JMP    relu1

reludone:
	RET

// func reluGrad(dx, in, dy []float32, s float32)
TEXT ·reluGrad(SB), NOSPLIT, $0-76
	MOVQ   dx_base+0(FP), DI
	MOVQ   dx_len+8(FP), CX
	MOVQ   in_base+24(FP), SI
	MOVQ   dy_base+48(FP), DX
	MOVSS  s+72(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-8, BX

grad8:
	CMPQ   AX, BX
	JAE    grad4
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MOVUPS (DX)(AX*4), X7
	MOVUPS 16(DX)(AX*4), X8
	MOVAPS X7, X3
	MOVAPS X8, X4
	MULPS  X0, X3
	MULPS  X0, X4
	BLEND4(X1, X7, X3, X5)
	BLEND4(X2, X8, X4, X6)
	MOVUPS (DI)(AX*4), X9
	MOVUPS 16(DI)(AX*4), X10
	ADDPS  X5, X9
	ADDPS  X6, X10
	MOVUPS X9, (DI)(AX*4)
	MOVUPS X10, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    grad8

grad4:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     grad1
	MOVUPS (SI)(AX*4), X1
	MOVUPS (DX)(AX*4), X7
	MOVAPS X7, X3
	MULPS  X0, X3
	BLEND4(X1, X7, X3, X5)
	MOVUPS (DI)(AX*4), X9
	ADDPS  X5, X9
	MOVUPS X9, (DI)(AX*4)
	ADDQ   $4, AX

grad1:
	CMPQ   AX, CX
	JAE    graddone
	MOVSS  (SI)(AX*4), X1
	MOVSS  (DX)(AX*4), X7
	MOVAPS X7, X3
	MULSS  X0, X3
	BLEND1(X1, X7, X3, X5)
	MOVSS  (DI)(AX*4), X9
	ADDSS  X5, X9
	MOVSS  X9, (DI)(AX*4)
	INCQ   AX
	JMP    grad1

graddone:
	RET

// func scale(dst, src []float32, s float32)
TEXT ·scale(SB), NOSPLIT, $0-52
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	MOVSS  s+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-16, BX

scale16:
	CMPQ   AX, BX
	JAE    scale4
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MOVUPS 32(SI)(AX*4), X3
	MOVUPS 48(SI)(AX*4), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS X1, (DI)(AX*4)
	MOVUPS X2, 16(DI)(AX*4)
	MOVUPS X3, 32(DI)(AX*4)
	MOVUPS X4, 48(DI)(AX*4)
	ADDQ   $16, AX
	JMP    scale16

scale4:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     scale1
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    scale4

scale1:
	CMPQ  AX, CX
	JAE   scaledone
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   scale1

scaledone:
	RET

// SGD4(w, g, h, t) updates one block: t = decay·w; g += t; h = mom·h;
// g = lr·g; h += g; w −= h. X0, X1 and X2 hold decay, lr and mom in
// every lane. The SS form is the same on the low lane.
#define SGD4(w, g, h, t) \
	MOVAPS w, t; \
	MULPS  X0, t; \
	ADDPS  t, g; \
	MULPS  X2, h; \
	MULPS  X1, g; \
	ADDPS  g, h; \
	SUBPS  h, w

#define SGD1(w, g, h, t) \
	MOVAPS w, t; \
	MULSS  X0, t; \
	ADDSS  t, g; \
	MULSS  X2, h; \
	MULSS  X1, g; \
	ADDSS  g, h; \
	SUBSS  h, w

// func sgd(w, h, g []float32, decay, lr, mom float32)
TEXT ·sgd(SB), NOSPLIT, $0-84
	MOVQ   w_base+0(FP), DI
	MOVQ   w_len+8(FP), CX
	MOVQ   h_base+24(FP), SI
	MOVQ   g_base+48(FP), DX
	MOVSS  decay+72(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  lr+76(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  mom+80(FP), X2
	SHUFPS $0x00, X2, X2
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-8, BX

sgd8:
	CMPQ   AX, BX
	JAE    sgd4
	MOVUPS (DI)(AX*4), X3
	MOVUPS 16(DI)(AX*4), X7
	MOVUPS (DX)(AX*4), X4
	MOVUPS 16(DX)(AX*4), X8
	MOVUPS (SI)(AX*4), X5
	MOVUPS 16(SI)(AX*4), X9
	SGD4(X3, X4, X5, X6)
	SGD4(X7, X8, X9, X10)
	MOVUPS X5, (SI)(AX*4)
	MOVUPS X9, 16(SI)(AX*4)
	MOVUPS X3, (DI)(AX*4)
	MOVUPS X7, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    sgd8

sgd4:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $4
	JB     sgd1
	MOVUPS (DI)(AX*4), X3
	MOVUPS (DX)(AX*4), X4
	MOVUPS (SI)(AX*4), X5
	SGD4(X3, X4, X5, X6)
	MOVUPS X5, (SI)(AX*4)
	MOVUPS X3, (DI)(AX*4)
	ADDQ   $4, AX

sgd1:
	CMPQ  AX, CX
	JAE   sgddone
	MOVSS (DI)(AX*4), X3
	MOVSS (DX)(AX*4), X4
	MOVSS (SI)(AX*4), X5
	SGD1(X3, X4, X5, X6)
	MOVSS X5, (SI)(AX*4)
	MOVSS X3, (DI)(AX*4)
	INCQ  AX
	JMP   sgd1

sgddone:
	RET
