// Package introspect provides the secure-world introspection substrate
// shared by the baseline checkers and SATIN: the djb2 hash the paper uses
// (§IV-B1), a chunked memory checker whose reads interleave with normal-world
// memory writes in virtual time (reproducing the TOCTTOU race of Figure 3),
// a snapshot-then-hash engine, and the baseline periodic full-kernel
// checker that TZ-Evader defeats.
package introspect

import "encoding/binary"

// Djb2Seed is the djb2 initial value ("hash = 5381").
const Djb2Seed uint64 = 5381

// Powers of the djb2 multiplier, precomputed so the word-wide kernel can
// fold 8 bytes per iteration: applying h = h*33 + c eight times expands to
// h*33^8 + c0*33^7 + c1*33^6 + … + c7, and every multiply below is
// independent of the others, so the CPU pipelines them. All arithmetic is
// mod 2^64 either way, which is what makes the expansion bit-identical to
// the byte loop (proved exhaustively and by fuzzing in hash_test.go).
const (
	djb2p1 = 33
	djb2p2 = djb2p1 * 33
	djb2p3 = djb2p2 * 33
	djb2p4 = djb2p3 * 33
	djb2p5 = djb2p4 * 33
	djb2p6 = djb2p5 * 33
	djb2p7 = djb2p6 * 33
	djb2p8 = djb2p7 * 33
)

// Djb2Update folds data into h with the classic djb2 step
// (hash = hash*33 + c), the hash function the paper's prototype uses
// (§IV-B1, citing Bernstein via the "Hash functions" page). The 64-bit
// variant keeps collisions irrelevant at kernel scale. The kernel processes
// 8 bytes per iteration using the precomputed multiplier powers; the result
// is bit-identical to djb2UpdateRef.
func Djb2Update(h uint64, data []byte) uint64 {
	for len(data) >= 8 {
		w := binary.LittleEndian.Uint64(data)
		h = h*djb2p8 +
			uint64(byte(w))*djb2p7 +
			uint64(byte(w>>8))*djb2p6 +
			uint64(byte(w>>16))*djb2p5 +
			uint64(byte(w>>24))*djb2p4 +
			uint64(byte(w>>32))*djb2p3 +
			uint64(byte(w>>40))*djb2p2 +
			uint64(byte(w>>48))*djb2p1 +
			uint64(byte(w>>56))
		data = data[8:]
	}
	for _, c := range data {
		h = h*33 + uint64(c)
	}
	return h
}

// djb2UpdateRef is the byte-at-a-time reference the word-wide kernel is
// proved against. Tests only.
func djb2UpdateRef(h uint64, data []byte) uint64 {
	for _, c := range data {
		h = h*33 + uint64(c)
	}
	return h
}

// djb2Term is the mem.Summer of chunk terms. djb2 is affine in its state:
// each step multiplies the state by 33 and adds a byte, so
//
//	Djb2Update(h, B) = h·33^len(B) + Djb2Update(0, B)  (mod 2^64).
//
// A chunk's term, Djb2Update(0, B), therefore does not depend on the state
// entering the chunk, and the golden pass and the checker fold one memoized
// term per chunk wherever the chunk holds the same bytes.
type djb2Term struct{}

// Sum returns data's term.
func (djb2Term) Sum(data []byte) uint64 { return Djb2Update(0, data) }

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
