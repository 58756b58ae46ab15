// AVX2 kernel for DotNorm32's dot. See kernels.go for the dispatch and
// dot32Generic, the portable loop this must match bit for bit.

#include "textflag.h"

// func dot32AVX2(x []float64, y []float32) float64
//
// Σ x[i]·float64(y[i]) for i < len(x) in dot32Generic's fixed shape: Y0–Y3
// are the four accumulators of four lanes. Each four y values widen exactly
// (VCVTPS2PD), multiply (VMULPD) and add (VADDPD) — two roundings, not
// VFMADD231PD's one, so the result does not depend on the CPU. A block of
// four after the last sixteen goes to Y0; the accumulators reduce as
// (Y0+Y1)+(Y2+Y3), the lanes as (l0+l2)+(l1+l3); the last len(x)%4
// products add one at a time.
TEXT ·dot32AVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	CMPQ CX, $16
	JLT  block4

block16:
	VCVTPS2PD (DI), Y4
	VCVTPS2PD 16(DI), Y5
	VCVTPS2PD 32(DI), Y6
	VCVTPS2PD 48(DI), Y7
	VMULPD    (SI), Y4, Y4
	VMULPD    32(SI), Y5, Y5
	VMULPD    64(SI), Y6, Y6
	VMULPD    96(SI), Y7, Y7
	VADDPD    Y4, Y0, Y0
	VADDPD    Y5, Y1, Y1
	VADDPD    Y6, Y2, Y2
	VADDPD    Y7, Y3, Y3
	ADDQ      $128, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JGE       block16

block4:
	CMPQ      CX, $4
	JLT       reduce
	VCVTPS2PD (DI), Y4
	VMULPD    (SI), Y4, Y4
	VADDPD    Y4, Y0, Y0
	ADDQ      $32, SI
	ADDQ      $16, DI
	SUBQ      $4, CX
	JMP       block4

reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

tail:
	TESTQ     CX, CX
	JZ        done
	VCVTSS2SD (DI), X4, X4
	VMULSD    (SI), X4, X4
	VADDSD    X4, X0, X0
	ADDQ      $8, SI
	ADDQ      $4, DI
	DECQ      CX
	JMP       tail

done:
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET
