#include "textflag.h"

// AVX bodies of the reference GEMMs (see gemm_amd64.go). Every lane is
// one output element and sees exactly the operations the portable Go
// loops apply to it, in the same order: VMULPS/VADDPS round each lane
// as MULSS/ADDSS round a scalar, and no fused multiply-add is used.
// Unaligned loads and stores throughout; a partial block of columns is
// read and written through VMASKMOVPS, so no operand is touched past
// its end. Every body ends with VZEROUPPER.

// func hasAVX() bool
//
// CPUID.1:ECX reports AVX (bit 28) and OSXSAVE (bit 27); XCR0 bits 1
// and 2 report that the OS saves the XMM and YMM state.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    noavx
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    noavx
	MOVB   $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// NNSKIP jumps to skip when the coefficient AX points at is ±0 (the
// doubling shifts out the sign bit; NaN is not skipped) and otherwise
// broadcasts it to Y4.
#define NNSKIP(skip) \
	MOVL (AX), DX; \
	ADDL DX, DX; \
	JZ   skip; \
	VBROADCASTSS (AX), Y4

// func gemmNNAVX(a, b, c []float32, m, k, n, rs, ks int)
//
// C[m×n] += A·B with B [k×n] and A's element (i, kk) at a[i·rs+kk·ks]:
// NN is rs = k, ks = 1, and TN is rs = 1, ks = m. For each C row the
// columns go in blocks of 32 (four accumulators), then 8, then one
// masked block of the last n mod 8; a block is held in registers for
// the whole ascending kk loop and stored once.
TEXT ·gemmNNAVX(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), SI
	MOVQ c_base+48(FP), DI
	MOVQ m+72(FP), R12
	MOVQ k+80(FP), R13
	MOVQ n+88(FP), R9
	MOVQ ks+104(FP), R10
	SHLQ $2, R10            // A's kk step in bytes
	LEAQ (R9*4), R11        // B's row in bytes

nnrow:
	XORQ R8, R8             // j

nn32:
	MOVQ R9, DX
	SUBQ R8, DX
	CMPQ DX, $32
	JB   nn16
	VMOVUPS (DI)(R8*4), Y0
	VMOVUPS 32(DI)(R8*4), Y1
	VMOVUPS 64(DI)(R8*4), Y2
	VMOVUPS 96(DI)(R8*4), Y3
	MOVQ SI, AX
	MOVQ b_base+24(FP), BX
	LEAQ (BX)(R8*4), BX
	MOVQ R13, CX

nn32k:
	NNSKIP(nn32skip)
	VMULPS (BX), Y4, Y5
	VMULPS 32(BX), Y4, Y6
	VMULPS 64(BX), Y4, Y7
	VMULPS 96(BX), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3

nn32skip:
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  nn32k
	VMOVUPS Y0, (DI)(R8*4)
	VMOVUPS Y1, 32(DI)(R8*4)
	VMOVUPS Y2, 64(DI)(R8*4)
	VMOVUPS Y3, 96(DI)(R8*4)
	ADDQ $32, R8
	JMP  nn32

nn16:
	MOVQ R9, DX
	SUBQ R8, DX
	CMPQ DX, $16
	JB   nn8
	VMOVUPS (DI)(R8*4), Y0
	VMOVUPS 32(DI)(R8*4), Y1
	MOVQ SI, AX
	MOVQ b_base+24(FP), BX
	LEAQ (BX)(R8*4), BX
	MOVQ R13, CX

nn16k:
	NNSKIP(nn16skip)
	VMULPS (BX), Y4, Y5
	VMULPS 32(BX), Y4, Y6
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1

nn16skip:
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  nn16k
	VMOVUPS Y0, (DI)(R8*4)
	VMOVUPS Y1, 32(DI)(R8*4)
	ADDQ $16, R8

nn8:
	MOVQ R9, DX
	SUBQ R8, DX
	CMPQ DX, $8
	JB   nntail
	VMOVUPS (DI)(R8*4), Y0
	MOVQ SI, AX
	MOVQ b_base+24(FP), BX
	LEAQ (BX)(R8*4), BX
	MOVQ R13, CX

nn8k:
	NNSKIP(nn8skip)
	VMULPS (BX), Y4, Y5
	VADDPS Y5, Y0, Y0

nn8skip:
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  nn8k
	VMOVUPS Y0, (DI)(R8*4)
	ADDQ $8, R8
	JMP  nn8

nntail:
	TESTQ DX, DX
	JZ    nnnext
	NEGQ  DX
	LEAQ  ·gemmMask(SB), AX
	VMOVUPS 64(AX)(DX*4), Y15 // the first n−j lanes
	VMASKMOVPS (DI)(R8*4), Y15, Y0
	MOVQ SI, AX
	MOVQ b_base+24(FP), BX
	LEAQ (BX)(R8*4), BX
	MOVQ R13, CX

nntk:
	NNSKIP(nntskip)
	VMASKMOVPS (BX), Y15, Y5
	VMULPS Y5, Y4, Y5
	VADDPS Y5, Y0, Y0

nntskip:
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  nntk
	VMASKMOVPS Y0, Y15, (DI)(R8*4)

nnnext:
	MOVQ rs+96(FP), DX
	LEAQ (SI)(DX*4), SI
	ADDQ R11, DI
	DECQ R12
	JNZ  nnrow
	VZEROUPPER
	RET

// NTROW4 adds a[kk+t]·Yt for t = 0…3, in that order, to acc, where the
// A row starts at ap and Y0…Y3 hold B's transposed columns kk…kk+3.
#define NTROW4(ap, acc) \
	VBROADCASTSS ap, Y12; \
	VMULPS Y0, Y12, Y13; \
	VADDPS Y13, acc, acc; \
	VBROADCASTSS 4 ap, Y12; \
	VMULPS Y1, Y12, Y13; \
	VADDPS Y13, acc, acc; \
	VBROADCASTSS 8 ap, Y12; \
	VMULPS Y2, Y12, Y13; \
	VADDPS Y13, acc, acc; \
	VBROADCASTSS 12 ap, Y12; \
	VMULPS Y3, Y12, Y13; \
	VADDPS Y13, acc, acc

// NTROW1 adds a[kk]·Y0 to acc.
#define NTROW1(ap, acc) \
	VBROADCASTSS ap, Y12; \
	VMULPS Y0, Y12, Y13; \
	VADDPS Y13, acc, acc

// NTSTORE adds acc to the C row at cp, in the lanes of Y15.
#define NTSTORE(cp, acc) \
	VMASKMOVPS cp, Y15, Y12; \
	VADDPS acc, Y12, Y12; \
	VMASKMOVPS Y12, Y15, cp

// func gemmNTAVX(a, b, c []float32, m, k, n int)
//
// C[m×n] += A·Bᵀ with A [m×k] and B [n×k], n ≥ 8. Rows of C go four at
// a time and columns eight at a time, one accumulator per row starting
// at +0; B's eight rows are read four kk at a time, rows r and r+4 into
// the halves of one register, and transposed in-lane so that Yt holds
// column kk+t of all eight. The last kk mod 4 columns are gathered one
// at a time. A block past n−8 is moved back to end at n, and its store
// mask keeps only the columns not yet written.
TEXT ·gemmNTAVX(SB), NOSPLIT, $0-96
	MOVQ k+80(FP), CX
	MOVQ CX, BX
	ANDQ $-4, BX
	LEAQ (CX*4), R10        // row of A and of B in bytes
	LEAQ (R10)(R10*2), R11
	XORQ R12, R12           // i

ntrows:
	MOVQ m+72(FP), DX
	SUBQ R12, DX
	CMPQ DX, $4
	JBE  ntcols
	MOVQ $4, DX             // rows of this block

ntcols:
	XORQ R13, R13           // j

ntblock:
	MOVQ n+88(FP), R9
	SUBQ R13, R9            // n − j
	MOVQ R13, R8
	CMPQ R9, $8
	JAE  ntmask
	MOVQ n+88(FP), R8
	SUBQ $8, R8             // the block's first column

ntmask:
	CMPQ R9, $8
	JBE  ntload
	MOVQ $8, R9

ntload:
	LEAQ ·gemmMask(SB), AX
	VMOVUPS (AX)(R9*4), Y15 // the last min(n−j, 8) lanes
	MOVQ n+88(FP), AX
	IMULQ R12, AX
	ADDQ R8, AX
	MOVQ c_base+48(FP), DI
	LEAQ (DI)(AX*4), DI
	MOVQ R10, AX
	IMULQ R8, AX
	MOVQ b_base+24(FP), R8
	ADDQ AX, R8
	LEAQ (R8)(R10*4), R9
	MOVQ R10, AX
	IMULQ R12, AX
	MOVQ a_base+0(FP), SI
	ADDQ AX, SI
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ AX, AX             // kk

ntk4:
	CMPQ AX, BX
	JAE  ntk1
	VMOVUPS (R8), X0
	VINSERTF128 $1, (R9), Y0, Y0
	VMOVUPS (R8)(R10*1), X1
	VINSERTF128 $1, (R9)(R10*1), Y1, Y1
	VMOVUPS (R8)(R10*2), X2
	VINSERTF128 $1, (R9)(R10*2), Y2, Y2
	VMOVUPS (R8)(R11*1), X3
	VINSERTF128 $1, (R9)(R11*1), Y3, Y3
	VUNPCKLPS Y1, Y0, Y4    // r0k0 r1k0 r0k1 r1k1 per lane
	VUNPCKHPS Y1, Y0, Y5    // r0k2 r1k2 r0k3 r1k3
	VUNPCKLPS Y3, Y2, Y6    // r2k0 r3k0 r2k1 r3k1
	VUNPCKHPS Y3, Y2, Y7    // r2k2 r3k2 r2k3 r3k3
	VSHUFPS $0x44, Y6, Y4, Y0
	VSHUFPS $0xee, Y6, Y4, Y1
	VSHUFPS $0x44, Y7, Y5, Y2
	VSHUFPS $0xee, Y7, Y5, Y3
	NTROW4((SI), Y8)
	CMPQ DX, $2
	JB   ntk4next
	NTROW4((SI)(R10*1), Y9)
	CMPQ DX, $3
	JB   ntk4next
	NTROW4((SI)(R10*2), Y10)
	CMPQ DX, $4
	JB   ntk4next
	NTROW4((SI)(R11*1), Y11)

ntk4next:
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, SI
	ADDQ $4, AX
	JMP  ntk4

ntk1:
	CMPQ AX, CX
	JAE  ntstore
	VMOVSS (R8), X0
	VINSERTPS $0x10, (R8)(R10*1), X0, X0
	VINSERTPS $0x20, (R8)(R10*2), X0, X0
	VINSERTPS $0x30, (R8)(R11*1), X0, X0
	VMOVSS (R9), X1
	VINSERTPS $0x10, (R9)(R10*1), X1, X1
	VINSERTPS $0x20, (R9)(R10*2), X1, X1
	VINSERTPS $0x30, (R9)(R11*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	NTROW1((SI), Y8)
	CMPQ DX, $2
	JB   ntk1next
	NTROW1((SI)(R10*1), Y9)
	CMPQ DX, $3
	JB   ntk1next
	NTROW1((SI)(R10*2), Y10)
	CMPQ DX, $4
	JB   ntk1next
	NTROW1((SI)(R11*1), Y11)

ntk1next:
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, SI
	INCQ AX
	JMP  ntk1

ntstore:
	MOVQ n+88(FP), AX
	SHLQ $2, AX             // row of C in bytes
	NTSTORE((DI), Y8)
	CMPQ DX, $2
	JB   ntnext
	ADDQ AX, DI
	NTSTORE((DI), Y9)
	CMPQ DX, $3
	JB   ntnext
	ADDQ AX, DI
	NTSTORE((DI), Y10)
	CMPQ DX, $4
	JB   ntnext
	ADDQ AX, DI
	NTSTORE((DI), Y11)

ntnext:
	ADDQ $8, R13
	CMPQ R13, n+88(FP)
	JB   ntblock
	ADDQ $4, R12
	CMPQ R12, m+72(FP)
	JB   ntrows
	VZEROUPPER
	RET
