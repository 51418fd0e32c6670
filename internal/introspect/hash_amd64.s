#include "textflag.h"

// The AVX2 djb2 block kernel (hash_amd64.go). Only VEX-encoded
// instructions touch the X and Y registers, and VZEROUPPER runs before
// RET: a legacy SSE instruction after a 256-bit one stalls on the upper
// halves, which cost every call several hundred nanoseconds.

// Lane constants, each broadcast to every 64-bit lane.
DATA djb2Consts<>+0(SB)/8, $0x0121012101210121  // bytes 33, 1: c_{2j}·33 + c_{2j+1}
DATA djb2Consts<>+8(SB)/8, $0x0001044100010441  // words 1089, 1: l_{2j}·33^2 + l_{2j+1}
DATA djb2Consts<>+16(SB)/8, $0x0000000000121881 // 33^4
DATA djb2Consts<>+24(SB)/8, $0xd91c4f6c193f1001 // 33^128 mod 2^64, one block step
DATA djb2Consts<>+32(SB)/8, $0x00000000d91c4f6c // 33^128 >> 32
GLOBL djb2Consts<>(SB), RODATA|NOPTR, $40

// The weights of a block's 16 words, 33^(8(15-i)) mod 2^64 for word i:
// the combine multiplies accumulator lane k of slot b by entry 4b+k.
DATA djb2Weights<>+0(SB)/8, $0xfa42d1cf77939f01   // 33^120
DATA djb2Weights<>+8(SB)/8, $0x7c1af847edc92e01   // 33^112
DATA djb2Weights<>+16(SB)/8, $0x977443102adfbd01  // 33^104
DATA djb2Weights<>+24(SB)/8, $0x82875623ddd74c01  // 33^96
DATA djb2Weights<>+32(SB)/8, $0x0752c83fb5afdb01  // 33^88
DATA djb2Weights<>+40(SB)/8, $0xcd98f1e161696a01  // 33^80
DATA djb2Weights<>+48(SB)/8, $0x477ebc479003f901  // 33^72
DATA djb2Weights<>+56(SB)/8, $0x2fcb7071f07f8801  // 33^64
DATA djb2Weights<>+64(SB)/8, $0x88c9862131dc1701  // 33^56
DATA djb2Weights<>+72(SB)/8, $0x0ac872d70319a601  // 33^48
DATA djb2Weights<>+80(SB)/8, $0xf13f78d613383501  // 33^40
DATA djb2Weights<>+88(SB)/8, $0x159176221137c401  // 33^32
DATA djb2Weights<>+96(SB)/8, $0x4671b37fac185301  // 33^24
DATA djb2Weights<>+104(SB)/8, $0xcae9b37492d9e201 // 33^16
DATA djb2Weights<>+112(SB)/8, $0x00000147747c7101 // 33^8
DATA djb2Weights<>+120(SB)/8, $0x0000000000000001 // 33^0
GLOBL djb2Weights<>(SB), RODATA|NOPTR, $128

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

// SLOT folds the 32 bytes at off(SI) into accumulator a: it reduces the
// four words to their terms t0..t3 (djb2Word on each lane) and steps
// a = a·33^128 + t lane-wise.
#define SLOT(off, a) \
	VMOVDQU    off(SI), Y9;  \
	VPMADDUBSW Y4, Y9, Y9;   \
	VPMADDWD   Y5, Y9, Y9;   \
	VPMULUDQ   Y6, Y9, Y10;  \
	VPSRLQ     $32, Y9, Y9;  \
	VPADDQ     Y10, Y9, Y9;  \
	MUL64(a, Y7, Y8, Y10, Y11); \
	VPADDQ     Y9, a, a

// COMBINE sets a to a·w lane-wise, w being the 4 weights at off into
// djb2Weights.
#define COMBINE(off, a) \
	VMOVDQU djb2Weights<>+off(SB), Y12; \
	VPSRLQ  $32, Y12, Y13;             \
	MUL64(a, Y12, Y13, Y10, Y11)

// func djb2BlocksAVX2(data []byte) uint64
TEXT ·djb2BlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ data_base+0(FP), SI
	MOVQ data_len+8(FP), CX
	SHRQ $7, CX
	VPBROADCASTQ djb2Consts<>+0(SB), Y4
	VPBROADCASTQ djb2Consts<>+8(SB), Y5
	VPBROADCASTQ djb2Consts<>+16(SB), Y6
	VPBROADCASTQ djb2Consts<>+24(SB), Y7
	VPBROADCASTQ djb2Consts<>+32(SB), Y8
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ CX, CX
	JZ    combine

block:
	SLOT(0, Y0)
	SLOT(32, Y1)
	SLOT(64, Y2)
	SLOT(96, Y3)
	ADDQ $128, SI
	DECQ CX
	JNZ  block

combine:
	COMBINE(0, Y0)
	COMBINE(32, Y1)
	COMBINE(64, Y2)
	COMBINE(96, Y3)
	VPADDQ       Y1, Y0, Y0
	VPADDQ       Y3, Y2, Y2
	VPADDQ       Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
