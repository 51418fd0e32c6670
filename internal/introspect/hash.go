// Package introspect provides the secure-world introspection substrate
// shared by the baseline checkers and SATIN: the djb2 hash the paper uses
// (§IV-B1), a chunked memory checker whose reads interleave with normal-world
// memory writes in virtual time (reproducing the TOCTTOU race of Figure 3)
// for both of Table I's techniques, hash in place and snapshot then hash,
// and the baseline periodic full-kernel checker that TZ-Evader defeats.
package introspect

import (
	"encoding/binary"

	"satin/internal/mem"
)

// Djb2Seed is the djb2 initial value ("hash = 5381").
const Djb2Seed uint64 = 5381

// Powers of the djb2 multiplier. Applying h = h*33 + c once per byte of a
// block B expands to h·33^len(B) + Σ c_i·33^(len(B)-1-i), so the kernel can
// weight a block's bytes by these powers and step the state once per block;
// all arithmetic is mod 2^64 either way, which keeps the expansion
// bit-identical to the byte loop. 33^16 and beyond exceed 2^64, which Go's
// exact constant arithmetic refuses, so they are written reduced mod 2^64
// (TestPow33 checks them against pow33).
const (
	djb2p1  = 33
	djb2p2  = djb2p1 * djb2p1
	djb2p4  = djb2p2 * djb2p2
	djb2p8  = djb2p4 * djb2p4
	djb2p16 = 0xcae9b37492d9e201
	djb2p24 = 0x4671b37fac185301
	djb2p32 = 0x159176221137c401
)

// Djb2Update folds data into h with the classic djb2 step
// (hash = hash*33 + c), the hash function the paper's prototype uses
// (§IV-B1, citing Bernstein via the "Hash functions" page). The 64-bit
// variant keeps collisions irrelevant at kernel scale.
//
// On a CPU with AVX2 the vector kernel folds data's whole 128-byte blocks
// (djb2UpdateAVX2) and the lane kernel the tail; elsewhere the lane kernel
// folds it all (djb2Lanes). The kernel is chosen once, at init, by the
// CPU probe mem.FillWords follows too (mem.HasAVX2). All arithmetic is
// mod 2^64 on the same affine expansion, so both are bit-identical to
// djb2UpdateRef (hash_test.go proves each kernel exhaustively at the lane
// bounds and by fuzzing).
func Djb2Update(h uint64, data []byte) uint64 {
	if mem.HasAVX2() {
		return djb2UpdateAVX2(h, data)
	}
	return djb2Lanes(h, data)
}

// djb2Block is the vector kernel's step: four 32-byte slots, one per
// accumulator. djb2MaxBlocks, a page of blocks, is the most one kernel
// call folds.
const (
	djb2Block     = 128
	djb2MaxBlocks = mem.PageSize / djb2Block
)

// djb2BlockPow[n] is 33^(128n) mod 2^64, the factor n blocks apply to the
// state entering them.
var djb2BlockPow = func() (p [djb2MaxBlocks + 1]uint64) {
	for n := range p {
		p[n] = pow33(n * djb2Block)
	}
	return p
}()

// djb2UpdateAVX2 folds data into h on a CPU with AVX2: up to a page of
// whole blocks at a time through djb2BlocksAVX2, whose term enters the
// state by the affine split h·33^len + term, then the tail through the
// lane kernel.
func djb2UpdateAVX2(h uint64, data []byte) uint64 {
	for len(data) >= djb2Block {
		n := min(len(data)/djb2Block, djb2MaxBlocks)
		h = h*djb2BlockPow[n] + djb2BlocksAVX2(data[:n*djb2Block])
		data = data[n*djb2Block:]
	}
	return djb2Lanes(h, data)
}

// djb2Lanes is the lane kernel. It reads 32 bytes as four little-endian
// words, reduces each to its term Σ c_i·33^(7-i) with djb2Word, and steps
// the state once: h·33^32 + t0·33^24 + t1·33^16 + t2·33^8 + t3. An 8-byte
// loop and the byte loop take the tail.
func djb2Lanes(h uint64, data []byte) uint64 {
	for len(data) >= 32 {
		t0 := djb2Word(binary.LittleEndian.Uint64(data))
		t1 := djb2Word(binary.LittleEndian.Uint64(data[8:]))
		t2 := djb2Word(binary.LittleEndian.Uint64(data[16:]))
		t3 := djb2Word(binary.LittleEndian.Uint64(data[24:]))
		h = h*djb2p32 + t0*djb2p24 + t1*djb2p16 + t2*djb2p8 + t3
		data = data[32:]
	}
	for len(data) >= 8 {
		h = h*djb2p8 + djb2Word(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	for _, c := range data {
		h = h*33 + uint64(c)
	}
	return h
}

// djb2Word returns the djb2 term of a little-endian word's bytes c0..c7,
// Σ c_i·33^(7-i), by reducing them through lanes. Adjacent bytes pair into
// four 16-bit lanes c_{2j}·33 + c_{2j+1} (at most 255·33 + 255 = 8,670),
// adjacent lanes into two 32-bit lanes (at most 8,670·1,089 + 8,670 =
// 9,450,300), and the halves into the term with 33^4. No lane can carry
// into its neighbour, so each multiply weights every lane at once.
func djb2Word(w uint64) uint64 {
	const bytes, halves = 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF
	w = (w&bytes)*djb2p1 + (w>>8)&bytes
	w = (w&halves)*djb2p2 + (w>>16)&halves
	return (w&0xFFFFFFFF)*djb2p4 + w>>32
}

// djb2UpdateRef is the byte-at-a-time reference both kernels are proved
// against. Tests only.
func djb2UpdateRef(h uint64, data []byte) uint64 {
	for _, c := range data {
		h = h*33 + uint64(c)
	}
	return h
}

// djb2Term is the mem.TermFold of chunk terms. djb2 is affine in its
// state: each step multiplies the state by 33 and adds a byte, so
//
//	Djb2Update(h, B) = h·33^len(B) + Djb2Update(0, B)  (mod 2^64).
//
// A chunk's term, Djb2Update(0, B), therefore does not depend on the state
// entering the chunk, and the golden pass and the checker fold one memoized
// term per chunk wherever the chunk holds the same bytes.
type djb2Term struct{}

// Bytes folds b into h.
func (djb2Term) Bytes(h uint64, b []byte) uint64 { return Djb2Update(h, b) }

// Fill folds the n boot-fill words from word k of seed's static kernel
// into h: it generates up to a page of them at a time into a block on the
// stack (mem.FillWords) and folds the block with Djb2Update, so the fill
// takes the kernels memory does and its words never reach the heap.
func (djb2Term) Fill(h, seed uint64, k, n int) uint64 {
	var block [mem.PageSize]byte
	for n > 0 {
		w := min(n, len(block)/8)
		mem.FillWords(block[:8*w], seed, k)
		h = Djb2Update(h, block[:8*w])
		k, n = k+w, n-w
	}
	return h
}

// pow33 returns 33^n mod 2^64, the factor an n-byte chunk applies to the
// state entering it.
func pow33(n int) uint64 {
	p, b := uint64(1), uint64(djb2p1)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p *= b
		}
		b *= b
	}
	return p
}

// Djb2 hashes data from the seed in one call.
func Djb2(data []byte) uint64 {
	return Djb2Update(Djb2Seed, data)
}

// HashKind names the hash a golden table is computed with. djb2 is the
// only kind: the checker hashes with it, as the paper's prototype does.
type HashKind int

// HashDjb2 is the djb2 hash (§IV-B1).
const HashDjb2 HashKind = 1

// String names the hash.
func (k HashKind) String() string {
	if k == HashDjb2 {
		return "djb2"
	}
	return "unknown-hash"
}
