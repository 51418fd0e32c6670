package introspect

import (
	"bytes"
	"testing"
)

// FuzzHashIncremental fuzzes the invariant the chunked checker relies on:
// hashing any split of the data equals hashing it whole.
func FuzzHashIncremental(f *testing.F) {
	f.Add([]byte("the quick brown fox"), 5)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x00, 0xFF, 0x80}, 1)
	// Chunk boundaries: a zero-length first read and a zero-length second
	// read — the cases the chunked checker hits at area edges.
	f.Add([]byte("area boundary"), 0)
	f.Add([]byte("area boundary"), 13)
	// Zero-length data with a nonzero requested cut (clamped to 0).
	f.Add([]byte{}, 7)
	// A single byte split at both boundaries.
	f.Add([]byte{0xAA}, 0)
	f.Add([]byte{0xAA}, 1)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 {
			cut = -cut
		}
		if len(data) > 0 {
			cut %= len(data) + 1
		} else {
			cut = 0
		}
		whole := Djb2(data)
		h := Djb2Update(Djb2Seed, data[:cut])
		h = Djb2Update(h, data[cut:])
		if h != whole {
			t.Fatalf("split hash %#x != whole %#x (cut %d, len %d)", h, whole, cut, len(data))
		}
	})
}

// FuzzHashWordWide fuzzes the lane kernel against the byte-at-a-time
// reference from arbitrary states: the optimization must be bit-identical
// for every (seed, data, offset) — offsets exercise tails of every residue
// mod 32 and misaligned starts. It also fuzzes the affine split the boot
// terms rest on: the fold equals h·33^len plus the chunk's term.
func FuzzHashWordWide(f *testing.F) {
	f.Add(uint64(Djb2Seed), []byte("the quick brown fox jumps over"), 0)
	f.Add(uint64(0x0123456789abcdef), []byte{0xFF, 0x00, 0x80, 0x7F, 1, 2, 3, 4, 5}, 3)
	f.Add(uint64(0), []byte{}, 0)
	f.Add(^uint64(0), []byte("0123456789abcdef"), 7)
	// A 100-byte 0xFF run at offset 3: every lane at its bound, misaligned,
	// over three 32-byte steps and a tail.
	f.Add(uint64(Djb2Seed), append([]byte{1, 2, 3}, bytes.Repeat([]byte{0xFF}, 100)...), 3)
	f.Fuzz(func(t *testing.T, h uint64, data []byte, off int) {
		if off < 0 {
			off = -off
		}
		if len(data) > 0 {
			off %= len(data) + 1
		} else {
			off = 0
		}
		sub := data[off:]
		got, want := Djb2Update(h, sub), djb2UpdateRef(h, sub)
		if got != want {
			t.Fatalf("Djb2Update(h=%#x, len=%d) = %#x, ref %#x", h, len(sub), got, want)
		}
		if split := h*pow33(len(sub)) + (djb2Term{}).Sum(sub); split != want {
			t.Fatalf("affine split of h=%#x, len=%d = %#x, ref %#x", h, len(sub), split, want)
		}
	})
}

// FuzzDjb2Sensitivity fuzzes that flipping any single byte changes the
// digest — the property every integrity alarm in the system rests on.
func FuzzDjb2Sensitivity(f *testing.F) {
	f.Add([]byte("kernel text bytes"), 3, byte(1))
	// Boundary flips: first byte, last byte, and a full-byte inversion.
	f.Add([]byte("kernel text bytes"), 0, byte(0x01))
	f.Add([]byte("kernel text bytes"), 16, byte(0x80))
	f.Add([]byte{0x00}, 0, byte(0xFF))
	f.Fuzz(func(t *testing.T, data []byte, idx int, delta byte) {
		if len(data) == 0 || delta == 0 {
			return
		}
		if idx < 0 {
			idx = -idx
		}
		idx %= len(data)
		orig := Djb2(data)
		data[idx] ^= delta
		if Djb2(data) == orig {
			t.Fatalf("flip at %d (delta %#x) left djb2 unchanged", idx, delta)
		}
	})
}
