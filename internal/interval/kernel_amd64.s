//go:build amd64 && !purego

#include "textflag.h"

// AVX2 four-lane Marzullo batch kernel, plus the CPUID/XGETBV probes
// backing the runtime dispatch (kernel_amd64.go).
//
// fuseK2AVX2 is the selection pass described in kernel_amd64.go: one
// pass over the base endpoint arrays with four k=2 candidate lanes
// riding each iteration. Lanes live in Batch's SoA layout (stride 4:
// -Inf sentinel, two sorted endpoints, +Inf sentinel); a 4x4 transpose
// of the four consecutive segments yields the per-position column
// vectors CLO0/CLO1 (and CHI0/CHI1 from the Hi segments). Comparison
// masks (VCMPPD, all-ones per true qword) are summed directly with
// VPADDQ/VPSUBQ, so the candidate coverage contribution d at a base
// threshold is an int64 per lane; VPCMPGTQ against the precomputed
// thrLo/thrHi tables qualifies the threshold and VBLENDVPD folds it
// into the running VMINPD/VMAXPD selection. Everything is comparisons
// and min/max — no arithmetic touches the endpoint values, preserving
// bit-identity with the scalar kernels.
//
// Register plan (persistent across the loop):
//	Y4-Y7   CLO0, CLO1, CHI0, CHI1 (candidate endpoint columns)
//	Y8, Y9  running lo (init +Inf) and hi (init -Inf) selections
//	Y10-Y13 base coverage accumulators at CLO0, CLO1, CHI0, CHI1
//	Y0, Y1  broadcast blos[i], bhis[i]; Y2, Y3, Y14, Y15 scratch

DATA kposinf<>+0(SB)/8, $0x7FF0000000000000
GLOBL kposinf<>(SB), RODATA|NOPTR, $8
DATA kneginf<>+0(SB)/8, $0xFFF0000000000000
GLOBL kneginf<>(SB), RODATA|NOPTR, $8

// func fuseK2AVX2(blos, bhis *float64, nb int, thrLo, thrHi *int64,
//	clos, chis *float64, outLo, outHi *float64, bcov *int64)
TEXT ·fuseK2AVX2(SB), NOSPLIT, $0-80
	MOVQ blos+0(FP), SI
	MOVQ bhis+8(FP), DI
	MOVQ nb+16(FP), CX
	MOVQ thrLo+24(FP), R8
	MOVQ thrHi+32(FP), R9
	MOVQ clos+40(FP), R10
	MOVQ chis+48(FP), R11

	// Transpose the four Lo segments: columns 1 and 2 are the sorted
	// candidate Lo endpoints (columns 0 and 3 are the sentinels).
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	VUNPCKHPD Y1, Y0, Y14       // [l0[1] l1[1] l0[3] l1[3]]
	VUNPCKHPD Y3, Y2, Y15       // [l2[1] l3[1] l2[3] l3[3]]
	VPERM2F128 $0x20, Y15, Y14, Y4 // CLO0 = column 1
	VUNPCKLPD Y1, Y0, Y14       // [l0[0] l1[0] l0[2] l1[2]]
	VUNPCKLPD Y3, Y2, Y15       // [l2[0] l3[0] l2[2] l3[2]]
	VPERM2F128 $0x31, Y15, Y14, Y5 // CLO1 = column 2

	// Same transpose for the four Hi segments.
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3
	VUNPCKHPD Y1, Y0, Y14
	VUNPCKHPD Y3, Y2, Y15
	VPERM2F128 $0x20, Y15, Y14, Y6 // CHI0
	VUNPCKLPD Y1, Y0, Y14
	VUNPCKLPD Y3, Y2, Y15
	VPERM2F128 $0x31, Y15, Y14, Y7 // CHI1

	VBROADCASTSD kposinf<>(SB), Y8 // lo selection: +Inf = nothing yet
	VBROADCASTSD kneginf<>(SB), Y9 // hi selection: -Inf = nothing yet
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13

	TESTQ CX, CX
	JZ   store

loop:
	VBROADCASTSD (SI), Y0 // xl = blos[i]
	VBROADCASTSD (DI), Y1 // xh = bhis[i]
	ADDQ $8, SI
	ADDQ $8, DI

	// Part A, lo: d = [CLO0<=xl] + [CLO1<=xl] - [CHI0<xl] - [CHI1<xl];
	// qualify d > thrLo[i], then fold xl into the min selection.
	VPXOR Y2, Y2, Y2
	VCMPPD $0x12, Y0, Y4, Y3 // CLO0 <= xl (LE_OQ)
	VPSUBQ Y3, Y2, Y2
	VCMPPD $0x12, Y0, Y5, Y3 // CLO1 <= xl
	VPSUBQ Y3, Y2, Y2
	VCMPPD $0x11, Y0, Y6, Y3 // CHI0 < xl (LT_OQ)
	VPADDQ Y3, Y2, Y2
	VCMPPD $0x11, Y0, Y7, Y3 // CHI1 < xl
	VPADDQ Y3, Y2, Y2
	VPBROADCASTQ (R8), Y3    // thrLo[i]
	ADDQ $8, R8
	VPCMPGTQ Y3, Y2, Y2      // qual = d > thr
	VMINPD Y0, Y8, Y3
	VBLENDVPD Y2, Y3, Y8, Y8

	// Part A, hi: same with xh, thrHi, and the max selection.
	VPXOR Y2, Y2, Y2
	VCMPPD $0x12, Y1, Y4, Y3
	VPSUBQ Y3, Y2, Y2
	VCMPPD $0x12, Y1, Y5, Y3
	VPSUBQ Y3, Y2, Y2
	VCMPPD $0x11, Y1, Y6, Y3
	VPADDQ Y3, Y2, Y2
	VCMPPD $0x11, Y1, Y7, Y3
	VPADDQ Y3, Y2, Y2
	VPBROADCASTQ (R9), Y3
	ADDQ $8, R9
	VPCMPGTQ Y3, Y2, Y2
	VMAXPD Y1, Y9, Y3
	VBLENDVPD Y2, Y3, Y9, Y9

	// Part B: bcov(T) += [xl <= T] - [xh < T] at the four candidate
	// thresholds (subtracting an all-ones mask adds 1).
	VCMPPD $0x12, Y4, Y0, Y3 // xl <= CLO0
	VPSUBQ Y3, Y10, Y10
	VCMPPD $0x11, Y4, Y1, Y3 // xh < CLO0
	VPADDQ Y3, Y10, Y10
	VCMPPD $0x12, Y5, Y0, Y3
	VPSUBQ Y3, Y11, Y11
	VCMPPD $0x11, Y5, Y1, Y3
	VPADDQ Y3, Y11, Y11
	VCMPPD $0x12, Y6, Y0, Y3
	VPSUBQ Y3, Y12, Y12
	VCMPPD $0x11, Y6, Y1, Y3
	VPADDQ Y3, Y12, Y12
	VCMPPD $0x12, Y7, Y0, Y3
	VPSUBQ Y3, Y13, Y13
	VCMPPD $0x11, Y7, Y1, Y3
	VPADDQ Y3, Y13, Y13

	DECQ CX
	JNZ  loop

store:
	MOVQ outLo+56(FP), AX
	VMOVUPD Y8, (AX)
	MOVQ outHi+64(FP), AX
	VMOVUPD Y9, (AX)
	MOVQ bcov+72(FP), AX
	VMOVDQU Y10, (AX)
	VMOVDQU Y11, 32(AX)
	VMOVDQU Y12, 64(AX)
	VMOVDQU Y13, 96(AX)
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
