package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fillKernel is one way to write fill words from word k of the static
// kernel booted from seed.
type fillKernel struct {
	name string
	fill func(dst []byte, seed uint64, k int)
}

// fillKernels lists every kernel this host can run, each proved against
// FillWord directly rather than through the dispatch: FillWords itself,
// the scalar loop, and the vector kernel where the CPU has AVX2. The
// scalar loop is proved on an AVX2 host too, where FillWords uses it only
// for tails.
func fillKernels() []fillKernel {
	counter := func(seed uint64, k int) uint64 { return seed + uint64(k)*fillGamma }
	ks := []fillKernel{
		{"FillWords", FillWords},
		{"scalar", func(dst []byte, seed uint64, k int) { fillScalar(dst, counter(seed, k)) }},
	}
	if HasAVX2() {
		ks = append(ks, fillKernel{"avx2", func(dst []byte, seed uint64, k int) { fillAVX2(dst, counter(seed, k)) }})
	}
	return ks
}

// checkFill runs each kernel over a buffer of n words from word k of
// seed's fill and tail < 8 more bytes, and fails on any word that differs
// from FillWord. A 0xAA sentinel fills the tail and a word past the
// buffer's end, in the same array, and must come back untouched.
func checkFill(t *testing.T, kernels []fillKernel, seed uint64, k, n, tail int) {
	t.Helper()
	buf := make([]byte, 8*n+tail+8)
	sentinel := bytes.Repeat([]byte{0xAA}, tail+8)
	for _, kn := range kernels {
		for i := range buf {
			buf[i] = 0xAA
		}
		kn.fill(buf[:8*n+tail], seed, k)
		for i := 0; i < n; i++ {
			if got, want := binary.LittleEndian.Uint64(buf[8*i:]), FillWord(seed, k+i); got != want {
				t.Fatalf("%s(seed=%#x, k=%d, %d words): word %d = %#x, FillWord %#x", kn.name, seed, k, n, i, got, want)
			}
		}
		if !bytes.Equal(buf[8*n:], sentinel) {
			t.Fatalf("%s(seed=%#x, k=%d, %d words + %d bytes) wrote past the last whole word: % x", kn.name, seed, k, n, tail, buf[8*n:])
		}
	}
}

// TestFillKernels proves each kernel word for word against FillWord: on
// every count of words from 0 through 130 (both sides of the vector
// kernel's 8-word block, several blocks and tails of every residue), at
// 511 through 513 (a page's words) and at two pages plus 9 words, which
// FillWords splits at the per-call page cap; from word offsets 0, 1, 7,
// 511 and 2^40 (half MaxInt where int has 32 bits), four seeds each, and
// with the 0 to 7 bytes past the last whole word left untouched.
func TestFillKernels(t *testing.T) {
	kernels := fillKernels()
	var counts []int
	for n := 0; n <= 130; n++ {
		counts = append(counts, n)
	}
	counts = append(counts, 511, 512, 513, 2*PageSize/8+9)
	for _, seed := range []uint64{0, 2, 1<<63 + 99, ^uint64(0)} {
		for _, k := range []int{0, 1, 7, 511, min(1<<40, math.MaxInt/2)} {
			for i, n := range counts {
				checkFill(t, kernels, seed, k, n, i%8)
			}
		}
	}
}

// FuzzFillWords holds each kernel (fillKernels: FillWords, the scalar
// loop, and the vector kernel where the CPU has AVX2) to FillWord word by
// word from any seed and word offset, over any length up to three pages,
// so calls cross the vector kernel's per-call page cap and end on tails of
// every residue, and leave the bytes past the last whole word untouched.
func FuzzFillWords(f *testing.F) {
	f.Add(uint64(0), 0, uint16(0))
	f.Add(uint64(2), 1, uint16(8*130+7))
	f.Add(uint64(1<<63+99), 511, uint16(PageSize+64))
	f.Add(^uint64(0), 7, uint16(2*PageSize+8*9+3))
	kernels := fillKernels()
	f.Fuzz(func(t *testing.T, seed uint64, k int, size uint16) {
		k &= math.MaxInt >> 1
		size %= 3*PageSize + 8
		checkFill(t, kernels, seed, k, int(size)/8, int(size)%8)
	})
}
