// AVX2 kernel for the quantized scan's blocked int8 dot product. See
// dotint8_amd64.go for the dispatch logic and kernels.go for the
// portable scalar kernel this must match bit for bit (integer
// accumulation is exact, so "match" means equal, not close).

#include "textflag.h"

// func dotInt8BlockedAVX2(q *int16, codes *int8, dots *int32, dim, rows, dim16 int)
//
// dots[j] = Σ_{i<dim16} q[i]·codes[j·dim+i] for j in [0, rows): the
// first dim16 elements of every row, with dim16 = dim &^ 15 > 0
// supplied by the caller (the Go wrapper adds the scalar tail). Each
// 16-element step sign-extends 16 codes to int16 lanes (VPMOVSXBW),
// multiplies against the pre-widened query and pairwise-adds into 8
// int32 lanes (VPMADDWD — products fit int32 since |q|,|code| ≤ 127),
// and accumulates (VPADDD). Two accumulators hide the VPADDD
// dependency chain; integer lanes make the result independent of the
// accumulation split, so this equals the scalar kernel exactly.
TEXT ·dotInt8BlockedAVX2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ codes+8(FP), DI
	MOVQ dots+16(FP), DX
	MOVQ dim+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ dim16+40(FP), R10
	TESTQ R9, R9
	JZ   done

rowloop:
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4
	MOVQ  DI, R12 // cursor into this row's codes
	MOVQ  SI, R13 // cursor into the query
	MOVQ  R10, R11 // SIMD elements left in this row

	CMPQ R11, $32
	JLT  chunk16

chunk32:
	VPMOVSXBW (R12), Y1
	VPMADDWD  (R13), Y1, Y1
	VPADDD    Y1, Y0, Y0
	VPMOVSXBW 16(R12), Y2
	VPMADDWD  32(R13), Y2, Y2
	VPADDD    Y2, Y4, Y4
	ADDQ      $32, R12
	ADDQ      $64, R13
	SUBQ      $32, R11
	CMPQ      R11, $32
	JGE       chunk32

chunk16:
	CMPQ      R11, $16
	JLT       rowsum
	VPMOVSXBW (R12), Y1
	VPMADDWD  (R13), Y1, Y1
	VPADDD    Y1, Y0, Y0
	ADDQ      $16, R12
	ADDQ      $32, R13
	SUBQ      $16, R11
	JMP       chunk16

rowsum:
	// Horizontal sum of the 8 int32 lanes into dots[j].
	VPADDD       Y4, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, (DX)
	ADDQ         $4, DX
	ADDQ         R8, DI // next row starts dim code bytes later
	DECQ         R9
	JNZ          rowloop

done:
	VZEROUPPER
	RET
