// AVX-512 register tile behind the packed product. See mul.go for the
// driver and mat.go's mulRows, the axpy4 loop this must match bit for bit.

#include "textflag.h"

// func mulTileAVX512(a *float64, lda, inc int, b *float64, kc int, c *float64, ldc int)
//
// c[r][j] is updated, for k in [0, kc) in ascending order, as
// c[r][j] = b[k][j]·a[r][k] + c[r][j], for the four rows r of c (stride
// ldc) and a (a[r][k] at a + 8·(r·lda + k·inc)) and the sixteen columns j
// of one packed strip of b (k-th row at b + 128·k). The tile lives in Z0-Z7 for all kc
// steps; each step is one VMULPD and one VADDPD per element, not a
// fused multiply-add, with axpy4AVX2's operand order (x·α, then
// product + accumulator), so NaN payloads propagate identically.
TEXT ·mulTileAVX512(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ inc+16(FP), R12
	SHLQ $3, R12
	MOVQ b+24(FP), BX
	MOVQ kc+32(FP), CX
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11

	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R10*1), Z2
	VMOVUPD 64(DI)(R10*1), Z3
	VMOVUPD (DI)(R10*2), Z4
	VMOVUPD 64(DI)(R10*2), Z5
	VMOVUPD (DI)(R11*1), Z6
	VMOVUPD 64(DI)(R11*1), Z7

step:
	VMOVUPD      (BX), Z8
	VMOVUPD      64(BX), Z9
	VBROADCASTSD (AX), Z10
	VBROADCASTSD (AX)(R8*1), Z11
	VBROADCASTSD (AX)(R8*2), Z12
	VBROADCASTSD (AX)(R9*1), Z13
	VMULPD       Z10, Z8, Z14
	VMULPD       Z10, Z9, Z15
	VMULPD       Z11, Z8, Z16
	VMULPD       Z11, Z9, Z17
	VMULPD       Z12, Z8, Z18
	VMULPD       Z12, Z9, Z19
	VMULPD       Z13, Z8, Z20
	VMULPD       Z13, Z9, Z21
	VADDPD       Z0, Z14, Z0
	VADDPD       Z1, Z15, Z1
	VADDPD       Z2, Z16, Z2
	VADDPD       Z3, Z17, Z3
	VADDPD       Z4, Z18, Z4
	VADDPD       Z5, Z19, Z5
	VADDPD       Z6, Z20, Z6
	VADDPD       Z7, Z21, Z7
	ADDQ         R12, AX
	ADDQ         $128, BX
	DECQ         CX
	JNZ          step

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R10*1)
	VMOVUPD Z3, 64(DI)(R10*1)
	VMOVUPD Z4, (DI)(R10*2)
	VMOVUPD Z5, 64(DI)(R10*2)
	VMOVUPD Z6, (DI)(R11*1)
	VMOVUPD Z7, 64(DI)(R11*1)
	VZEROUPPER
	RET

// func solvePanelAVX512(x *float64, ldx int, r *float64, ldr, w int, t *float64)
//
// The forward substitution of eight rows of x (stride ldx) through the
// w×w upper triangle of r (stride ldr, w ≥ 1), one row to a lane: for d
// in [0, w), x[q][d] /= r[d][d], then x[q][e] = r[d][e]·(−x[q][d]) +
// x[q][e] for e in (d, w). These are Axpy's operations in its operand
// order (solveRow), less its zero-α skip, which solveTile's caller
// excludes the need for. The columns live transposed in t (column e at
// t + 64·e) while they are solved; each solved column is written back to
// x and its negation left in t, the a operand of the tile's trailing
// update (a[q][d] at t + 8·(q + 8·d)).
TEXT ·solvePanelAVX512(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), DI
	MOVQ ldx+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ r+16(FP), BX
	MOVQ ldr+24(FP), R10
	LEAQ 8(R10*8), R10
	MOVQ w+32(FP), CX
	MOVQ t+40(FP), SI

	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ CX, R11

gather:
	LEAQ          (AX)(R8*4), R12
	VMOVSD        (AX), X0
	VMOVHPD       (AX)(R8*1), X0, X0
	VMOVSD        (AX)(R8*2), X1
	VMOVHPD       (AX)(R9*1), X1, X1
	VINSERTF128   $1, X1, Y0, Y0
	VMOVSD        (R12), X2
	VMOVHPD       (R12)(R8*1), X2, X2
	VMOVSD        (R12)(R8*2), X3
	VMOVHPD       (R12)(R9*1), X3, X3
	VINSERTF128   $1, X3, Y2, Y2
	VINSERTF64X4  $1, Y2, Z0, Z0
	VMOVUPD       Z0, (DX)
	ADDQ          $8, AX
	ADDQ          $64, DX
	DECQ          R11
	JNZ           gather

	VPTERNLOGQ $0xff, Z15, Z15, Z15
	VPSLLQ     $63, Z15, Z15

diag:
	VBROADCASTSD  (BX), Z1
	VMOVUPD       (SI), Z0
	VDIVPD        Z1, Z0, Z0
	LEAQ          (DI)(R8*4), R12
	VEXTRACTF64X4 $1, Z0, Y2
	VMOVSD        X0, (DI)
	VMOVHPD       X0, (DI)(R8*1)
	VEXTRACTF128  $1, Y0, X1
	VMOVSD        X1, (DI)(R8*2)
	VMOVHPD       X1, (DI)(R9*1)
	VMOVSD        X2, (R12)
	VMOVHPD       X2, (R12)(R8*1)
	VEXTRACTF128  $1, Y2, X3
	VMOVSD        X3, (R12)(R8*2)
	VMOVHPD       X3, (R12)(R9*1)
	VPXORQ        Z15, Z0, Z0
	VMOVUPD       Z0, (SI)
	DECQ          CX
	JZ            done
	MOVQ          CX, DX
	LEAQ          8(BX), AX
	LEAQ          64(SI), R11

update:
	VBROADCASTSD (AX), Z2
	VMULPD       Z0, Z2, Z2
	VADDPD       (R11), Z2, Z2
	VMOVUPD      Z2, (R11)
	ADDQ         $8, AX
	ADDQ         $64, R11
	DECQ         DX
	JNZ          update

	ADDQ R10, BX
	ADDQ $8, DI
	ADDQ $64, SI
	JMP  diag

done:
	VZEROUPPER
	RET
