#include "go_asm.h"
#include "textflag.h"

// func sweepAVX(acc []float64, q8 []int8, stride int, lanes []lane)
//
// Rows go sixteen at a time, as four groups of four in Y0–Y3, while there
// are sixteen left, then four at a time in Y0. For each lane, in order,
// every group adds the products of its rows' int8 lanes with the lane's
// value into its accumulators, so each row's sum takes the same adds in
// the same order as sweepGo's.
TEXT ·sweepAVX(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ q8_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ lanes_base+56(FP), R8
	MOVQ lanes_len+64(FP), R11
	IMUL3Q $lane__size, R11, R11
	ADDQ R8, R11 // end of lanes

rows16:
	CMPQ CX, $16
	JLT  rows4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ R8, R10

lanes16:
	MOVLQSX lane_i(R10), AX
	IMULQ DX, AX
	ADDQ SI, AX // &q8[i*stride + row]
	VBROADCASTSD lane_v(R10), Y4
	VPMOVSXBD 0(AX), X5
	VPMOVSXBD 4(AX), X6
	VPMOVSXBD 8(AX), X7
	VPMOVSXBD 12(AX), X8
	VCVTDQ2PD X5, Y5
	VCVTDQ2PD X6, Y6
	VCVTDQ2PD X7, Y7
	VCVTDQ2PD X8, Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $lane__size, R10
	CMPQ R10, R11
	JNE  lanes16

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $16, SI
	SUBQ $16, CX
	JMP  rows16

rows4:
	TESTQ CX, CX
	JEQ   done
	VMOVUPD 0(DI), Y0
	MOVQ R8, R10

lanes4:
	MOVLQSX lane_i(R10), AX
	IMULQ DX, AX
	VBROADCASTSD lane_v(R10), Y4
	VPMOVSXBD (SI)(AX*1), X5
	VCVTDQ2PD X5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $lane__size, R10
	CMPQ R10, R11
	JNE  lanes4

	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $4, SI
	SUBQ $4, CX
	JMP  rows4

done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
