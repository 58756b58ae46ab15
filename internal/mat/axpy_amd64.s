// AVX2 kernel for Axpy. See vec.go for the dispatch and axpyGeneric, the
// portable loop this must match bit for bit.

#include "textflag.h"

// func axpyAVX2(alpha float64, x, y *float64, n int)
//
// y[i] += alpha·x[i] for i in [0, n), as one VMULPD and one VADDPD per
// four elements — not VFMADD231PD: a fused multiply-add rounds once where
// the Go loop rounds twice, and every index file would then depend on the
// CPU that built it. The operand order (x·alpha, then product + y) is the
// compiled Go loop's, so even NaN payloads propagate identically. The
// tail below four elements runs the same two operations scalar.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

	CMPQ CX, $16
	JLT  chunk4

chunk16:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     chunk16

chunk4:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     chunk4

tail:
	TESTQ CX, CX
	JZ    done
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy4AVX2(alpha *[4]float64, x0, x1, x2, x3, y *float64, n int)
//
// y[i] = (((y[i] + a0·x0[i]) + a1·x1[i]) + a2·x2[i]) + a3·x3[i]: four
// consecutive Axpy calls onto one y with y loaded and stored once.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ         alpha+0(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ         x0+8(FP), R8
	MOVQ         x1+16(FP), R9
	MOVQ         x2+24(FP), R10
	MOVQ         x3+32(FP), R11
	MOVQ         y+40(FP), DI
	MOVQ         n+48(FP), CX

	CMPQ CX, $8
	JLT  f4

f8:
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  (DI), Y4, Y4
	VADDPD  32(DI), Y5, Y5
	VMOVUPD (R9), Y6
	VMOVUPD 32(R9), Y7
	VMULPD  Y1, Y6, Y6
	VMULPD  Y1, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD (R10), Y6
	VMOVUPD 32(R10), Y7
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7
	VMULPD  Y3, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    $64, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     f8

f4:
	CMPQ    CX, $4
	JLT     ftail
	VMOVUPD (R8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y4, Y4
	VMOVUPD (R9), Y6
	VMULPD  Y1, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R10), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R11), Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, DI
	SUBQ    $4, CX

ftail:
	TESTQ  CX, CX
	JZ     fdone
	VMOVSD (R8), X4
	VMULSD X0, X4, X4
	VADDSD (DI), X4, X4
	VMOVSD (R9), X6
	VMULSD X1, X6, X6
	VADDSD X4, X6, X4
	VMOVSD (R10), X6
	VMULSD X2, X6, X6
	VADDSD X4, X6, X4
	VMOVSD (R11), X6
	VMULSD X3, X6, X6
	VADDSD X4, X6, X4
	VMOVSD X4, (DI)
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	ADDQ   $8, DI
	DECQ   CX
	JMP    ftail

fdone:
	VZEROUPPER
	RET
