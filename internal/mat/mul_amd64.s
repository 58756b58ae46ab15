// AVX-512 register tile behind the packed product. See mul.go for the
// driver and mat.go's mulRows, the axpy4 loop this must match bit for bit.

#include "textflag.h"

// func mulTileAVX512(a *float64, lda int, b *float64, kc int, c *float64, ldc int)
//
// c[r][j] is updated, for k in [0, kc) in ascending order, as
// c[r][j] = b[k][j]·a[r][k] + c[r][j], for the four rows r of c (stride
// ldc) and a (stride lda) and the sixteen columns j of one packed strip
// of b (k-th row at b + 128·k). The tile lives in Z0-Z7 for all kc
// steps; each step is one VMULPD and one VADDPD per element, not a
// fused multiply-add, with axpy4AVX2's operand order (x·α, then
// product + accumulator), so NaN payloads propagate identically.
TEXT ·mulTileAVX512(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ b+16(FP), BX
	MOVQ kc+24(FP), CX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R10
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
	ADDQ         $8, AX
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
