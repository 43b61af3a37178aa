#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0
// must have the SSE and AVX state bits (1 and 2) set: the OS saves the
// YMM registers across context switches.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func mulRunAVX(c, a, b *float64, k, stride, w int)
//
// For j in [0, w), w a positive multiple of 4, and k > 0:
// c[j] += Σ_{t<k} a[t]·b[t·stride + j], one pivot at a time in ascending
// t, skipping a[t] == ±0. Groups of 16 columns keep four YMM
// accumulators across all k pivots, then groups of 4 keep one. Each lane
// rounds its product and its sum as the scalar kernel does: B is the
// multiply's first source and the accumulator the add's, so a NaN
// payload propagates as in the compiled Go.
TEXT ·mulRunAVX(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), R9
	SHLQ $3, R9
	MOVQ w+40(FP), BX

group16:
	CMPQ    BX, $16
	JLT     group4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    CX, R12

pivot16:
	MOVQ         (R10), R8
	SHLQ         $1, R8
	JZ           skip16
	VBROADCASTSD (R10), Y4
	VMOVUPD      (R11), Y5
	VMOVUPD      32(R11), Y6
	VMOVUPD      64(R11), Y7
	VMOVUPD      96(R11), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y0, Y5, Y0
	VADDPD       Y1, Y6, Y1
	VADDPD       Y2, Y7, Y2
	VADDPD       Y3, Y8, Y3

skip16:
	ADDQ    $8, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     pivot16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, BX
	JMP     group16

group4:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DI), Y0
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    CX, R12

pivot4:
	MOVQ         (R10), R8
	SHLQ         $1, R8
	JZ           skip4
	VBROADCASTSD (R10), Y4
	VMOVUPD      (R11), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y0, Y5, Y0

skip4:
	ADDQ    $8, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     pivot4
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, BX
	JMP     group4

done:
	VZEROUPPER
	RET

// func mulTileAVX(c, a, b *float64, k, stride, bstride, w int)
//
// For rows r in [0, 4), j in [0, w), w a positive multiple of 8, and
// k > 0: c[r·stride + j] += Σ_{t<k} a[r·stride + t]·b[t·bstride + j], one
// pivot at a time in ascending t. It skips no pivot: the caller has
// checked that no a[r·stride + t] is ±0. Each 8-column group keeps its
// 4×8 cells in eight YMM accumulators (Y0–Y7, two per row) across all k
// pivots. Per pivot it loads the group's eight B elements once (Y8, Y9)
// for all four rows, and for each row broadcasts a[r·stride + t] (Y10)
// and does VMULPD, then VADDPD, with the scalar kernel's operand order:
// B is the multiply's first source and the product the add's.
TEXT ·mulTileAVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R8
	MOVQ bstride+40(FP), R13
	SHLQ $3, R13
	MOVQ w+48(FP), BX

group8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R9*1), Y2
	VMOVUPD 32(DI)(R9*1), Y3
	VMOVUPD (DI)(R9*2), Y4
	VMOVUPD 32(DI)(R9*2), Y5
	VMOVUPD (DI)(R8*1), Y6
	VMOVUPD 32(DI)(R8*1), Y7
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    CX, R12

pivot8:
	VMOVUPD      (R11), Y8
	VMOVUPD      32(R11), Y9
	VBROADCASTSD (R10), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y0, Y11, Y0
	VADDPD       Y1, Y12, Y1
	VBROADCASTSD (R10)(R9*1), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y2, Y11, Y2
	VADDPD       Y3, Y12, Y3
	VBROADCASTSD (R10)(R9*2), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y4, Y11, Y4
	VADDPD       Y5, Y12, Y5
	VBROADCASTSD (R10)(R8*1), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y6, Y11, Y6
	VADDPD       Y7, Y12, Y7
	ADDQ         $8, R10
	ADDQ         R13, R11
	DECQ         R12
	JNZ          pivot8
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, (DI)(R9*1)
	VMOVUPD      Y3, 32(DI)(R9*1)
	VMOVUPD      Y4, (DI)(R9*2)
	VMOVUPD      Y5, 32(DI)(R9*2)
	VMOVUPD      Y6, (DI)(R8*1)
	VMOVUPD      Y7, 32(DI)(R8*1)
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $8, BX
	JNZ          group8
	VZEROUPPER
	RET
