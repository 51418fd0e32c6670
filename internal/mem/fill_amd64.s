#include "textflag.h"

// The AVX2 splitmix64 fill kernel and the CPU probe (fill_amd64.go). Only
// VEX-encoded instructions touch the X and Y registers, and VZEROUPPER runs
// before RET: a legacy SSE instruction after a 256-bit one stalls on the
// upper halves, which cost every call several hundred nanoseconds.

// Counter offsets k·γ mod 2^64 (γ = fillGamma): lane k of the first vector
// starts k+1 steps past z and lane k of the second k+5; 8γ steps both a
// block. Then splitmix64's two multipliers, each with its high half for
// MUL64.
DATA fillConsts<>+0(SB)/8, $0x9e3779b97f4a7c15  // 1γ
DATA fillConsts<>+8(SB)/8, $0x3c6ef372fe94f82a  // 2γ
DATA fillConsts<>+16(SB)/8, $0xdaa66d2c7ddf743f // 3γ
DATA fillConsts<>+24(SB)/8, $0x78dde6e5fd29f054 // 4γ
DATA fillConsts<>+32(SB)/8, $0x1715609f7c746c69 // 5γ
DATA fillConsts<>+40(SB)/8, $0xb54cda58fbbee87e // 6γ
DATA fillConsts<>+48(SB)/8, $0x538454127b096493 // 7γ
DATA fillConsts<>+56(SB)/8, $0xf1bbcdcbfa53e0a8 // 8γ
DATA fillConsts<>+64(SB)/8, $0xbf58476d1ce4e5b9
DATA fillConsts<>+72(SB)/8, $0x00000000bf58476d
DATA fillConsts<>+80(SB)/8, $0x94d049bb133111eb
DATA fillConsts<>+88(SB)/8, $0x0000000094d049bb
GLOBL fillConsts<>(SB), RODATA|NOPTR, $96

// MUL64 sets each 64-bit lane of a to a·c mod 2^64, where chi holds c>>32:
// lo(a)·lo(c) + ((hi(a)·lo(c) + lo(a)·hi(c)) << 32). AVX2 multiplies only
// 32-bit halves (VPMULUDQ). t0 and t1 are scratch.
#define MUL64(a, c, chi, t0, t1) \
	VPSRLQ   $32, a, t0; \
	VPMULUDQ c, t0, t0;  \
	VPMULUDQ chi, a, t1; \
	VPADDQ   t0, t1, t0; \
	VPSLLQ   $32, t0, t0; \
	VPMULUDQ c, a, a;    \
	VPADDQ   t0, a, a

// MIX sets x to fillMix of each lane of the counters z, with splitmix64's
// multipliers and their high halves in Y3 to Y6; t0 and t1 are scratch.
#define MIX(z, x, t0, t1) \
	VPSRLQ $30, z, t0;          \
	VPXOR  t0, z, x;            \
	MUL64(x, Y3, Y4, t0, t1);   \
	VPSRLQ $27, x, t0;          \
	VPXOR  t0, x, x;            \
	MUL64(x, Y5, Y6, t0, t1);   \
	VPSRLQ $31, x, t0;          \
	VPXOR  t0, x, x

// func fillWordsAVX2(dst []byte, z uint64)
TEXT ·fillWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $6, CX
	JZ   done
	MOVQ z+24(FP), AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VPADDQ       fillConsts<>+32(SB), Y0, Y1
	VPADDQ       fillConsts<>+0(SB), Y0, Y0
	VPBROADCASTQ fillConsts<>+56(SB), Y2
	VPBROADCASTQ fillConsts<>+64(SB), Y3
	VPBROADCASTQ fillConsts<>+72(SB), Y4
	VPBROADCASTQ fillConsts<>+80(SB), Y5
	VPBROADCASTQ fillConsts<>+88(SB), Y6

block:
	MIX(Y0, Y7, Y9, Y10)
	MIX(Y1, Y8, Y11, Y12)
	VMOVDQU Y7, 0(DI)
	VMOVDQU Y8, 32(DI)
	VPADDQ  Y2, Y0, Y0
	VPADDQ  Y2, Y1, Y1
	ADDQ    $64, DI
	DECQ    CX
	JNZ     block
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
