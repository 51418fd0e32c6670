package introspect

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"satin/internal/mem"
)

func TestDjb2KnownValues(t *testing.T) {
	// djb2 reference: h = 5381; h = h*33 + c.
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 5381},
		{"a", 5381*33 + 'a'},
		{"ab", (5381*33+'a')*33 + 'b'},
	}
	for _, tc := range cases {
		if got := Djb2([]byte(tc.in)); got != tc.want {
			t.Errorf("Djb2(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestHashIncrementalEqualsWhole(t *testing.T) {
	// Property: hashing in arbitrary splits equals hashing whole — the
	// invariant the chunked checker relies on.
	f := func(data []byte, split uint8) bool {
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		h := Djb2Update(Djb2Seed, data[:cut])
		return Djb2Update(h, data[cut:]) == Djb2(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// djb2Kernel is one way to fold bytes into a djb2 state.
type djb2Kernel struct {
	name string
	fold func(h uint64, data []byte) uint64
}

// djb2Kernels lists every kernel this host can run, each proved against
// djb2UpdateRef directly rather than through the dispatch: Djb2Update
// itself, the lane kernel, and the vector kernel where the CPU has AVX2.
// The lane kernel is proved on an AVX2 host too, where Djb2Update uses it
// only for tails.
func djb2Kernels() []djb2Kernel {
	ks := []djb2Kernel{{"Djb2Update", Djb2Update}, {"lanes", djb2Lanes}}
	if mem.HasAVX2() {
		ks = append(ks, djb2Kernel{"avx2", djb2UpdateAVX2})
	}
	return ks
}

// TestWordWideKernelsExhaustiveSmall proves each kernel bit-identical to
// the byte-at-a-time reference from four states: on every length from 0
// through 520 (both sides of the 8-, 32- and 128-byte steps, four vector
// blocks and tails of every residue) at start offsets 0 through 31 into a
// larger buffer, for a varied pattern, all 0xFF (the only input that fills
// every lane to its bound, 8,670 and 9,450,300) and alternating 0xFF/0x00;
// on every value of every byte of a 128-byte block whose other bytes are
// 0xFF; and on every possible single byte.
func TestWordWideKernelsExhaustiveSmall(t *testing.T) {
	seeds := []uint64{0, Djb2Seed, ^uint64(0), 0x0123456789abcdef}
	kernels := djb2Kernels()
	check := func(data []byte, what func() string) {
		t.Helper()
		for _, h := range seeds {
			want := djb2UpdateRef(h, data)
			for _, k := range kernels {
				if got := k.fold(h, data); got != want {
					t.Fatalf("%s: %s(h=%#x, len=%d) = %#x, ref %#x", what(), k.name, h, len(data), got, want)
				}
			}
		}
	}
	patterns := []struct {
		name string
		fill func(i int) byte
	}{
		{"varied", func(i int) byte { return byte(i*37 + 11) }},
		{"0xFF", func(int) byte { return 0xFF }},
		{"0xFF/0x00", func(i int) byte { return byte(^i&1) * 0xFF }},
	}
	const maxLen, maxOff = 520, 31
	buf := make([]byte, maxLen+maxOff)
	for _, p := range patterns {
		for i := range buf {
			buf[i] = p.fill(i)
		}
		for off := 0; off <= maxOff; off++ {
			for n := 0; n <= maxLen; n++ {
				check(buf[off:off+n], func() string { return fmt.Sprintf("%s at offset %d", p.name, off) })
			}
		}
	}
	block := make([]byte, djb2Block)
	for i := range block {
		for j := range block {
			block[j] = 0xFF
		}
		for b := 0; b < 256; b++ {
			block[i] = byte(b)
			check(block, func() string { return fmt.Sprintf("0xFF block with byte %d = %#x", i, b) })
		}
	}
	for b := 0; b < 256; b++ {
		check([]byte{byte(b)}, func() string { return fmt.Sprintf("single byte %#x", b) })
	}
}

// TestWordWideKernelsProperty: same bit-identity for each kernel over
// arbitrary data and seeds, including word-aligned interior slices, and
// over random runs of up to three pages at random offsets, which reach the
// vector kernel's page-sized calls and the blocks after them.
func TestWordWideKernelsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 3*mem.PageSize+djb2Block)
	rng.Read(data)
	for _, k := range djb2Kernels() {
		f := func(h uint64, data []byte) bool {
			return k.fold(h, data) == djb2UpdateRef(h, data)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", k.name, err)
		}
		for i := 0; i < 300; i++ {
			n := rng.Intn(len(data) + 1)
			off := rng.Intn(len(data) - n + 1)
			h := rng.Uint64()
			if got, want := k.fold(h, data[off:off+n]), djb2UpdateRef(h, data[off:off+n]); got != want {
				t.Fatalf("%s(h=%#x, %d bytes at %d) = %#x, ref %#x", k.name, h, n, off, got, want)
			}
		}
	}
}

// TestDjb2TermFillFoldsTheFill: folding n fill words from word k equals
// folding the bytes FillWord gives them, across the stack block's page
// boundary and from unaligned word indices.
func TestDjb2TermFillFoldsTheFill(t *testing.T) {
	const seed = 3
	for _, k := range []int{0, 1, 5, 511} {
		for _, n := range []int{0, 1, 3, 4, 15, 16, 17, 511, 512, 513, 1100} {
			words := make([]byte, 8*n)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(words[8*i:], mem.FillWord(seed, k+i))
			}
			for _, h := range []uint64{0, Djb2Seed, ^uint64(0)} {
				if got, want := (djb2Term{}).Fill(h, seed, k, n), djb2UpdateRef(h, words); got != want {
					t.Fatalf("Fill(h=%#x, k=%d, n=%d) = %#x, ref %#x", h, k, n, got, want)
				}
			}
		}
	}
}

// TestPow33 checks pow33 against repeated multiplication, across the chunk
// sizes the checker folds and a little past them, and the kernel's power
// constants against pow33 (the ones past 2^64 are written reduced).
func TestPow33(t *testing.T) {
	want := uint64(1)
	for n := 0; n <= 3*DefaultChunkSize+1; n++ {
		if got := pow33(n); got != want {
			t.Fatalf("pow33(%d) = %#x, want %#x", n, got, want)
		}
		want *= 33
	}
	for _, c := range []struct {
		n int
		p uint64
	}{{1, djb2p1}, {2, djb2p2}, {4, djb2p4}, {8, djb2p8}, {16, djb2p16}, {24, djb2p24}, {32, djb2p32}} {
		if got := pow33(c.n); got != c.p {
			t.Errorf("djb2p%d = %#x, pow33(%d) = %#x", c.n, c.p, c.n, got)
		}
	}
}

// TestDjb2SumsPinned pins the sums themselves to values computed outside
// the code: for two seeds' Juno images, the golden table of the 19 areas and
// the golden hash of the whole static kernel, digested as SHA-256 over the
// 20 sums in order, each as 8 little-endian bytes. Every other hash test
// compares the kernel against djb2UpdateRef or two folds made by the same
// code, so a change to the reference, the fold or the boot fill's bytes
// would pass them; it cannot pass this one. The guarded case takes the
// sums after the sync guard's trusted boot, whose trusted copy mixes pages
// the guard wrote with pages still the boot's.
func TestDjb2SumsPinned(t *testing.T) {
	cases := []struct {
		seed    uint64
		guarded bool
		digest  string
		spot    map[int]uint64 // sum index → value; index 19 is the whole kernel
	}{
		{1, false, "47068f4a91bc4fad66019577ede0d799242632eed43c5fbddd4b46ac274fdd27",
			map[int]uint64{0: 0x3dd2ec639eebf350, 14: 0x0973404619c37d33, 19: 0x251bca39d2a8a739}},
		{3, false, "3cfaceee9a969ea443461255ab8cdc6e356d67e181b8bb57028f2af0b6b38f87", nil},
		{1, true, "664b6f276119b2fcfa0bfeae18929591757a0b2cf0f327c4eb3e6330dee346bd",
			map[int]uint64{14: 0x0973404619c37d33, 17: 0x9494059ad110e4c5, 19: 0xd80a5bad9e706839}},
	}
	for _, tc := range cases {
		im, err := mem.NewJunoImage(tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if tc.guarded {
			guardTrustedBoot(t, im)
		}
		layout := im.Layout()
		areas, err := mem.BuildAreas(layout, mem.JunoAreaGroups())
		if err != nil {
			t.Fatal(err)
		}
		sums, err := GoldenTable(im, HashDjb2, areas)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := GoldenRange(im, HashDjb2, layout.Base, layout.TotalSize())
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, whole)
		if len(sums) != 20 {
			t.Fatalf("seed %d: %d sums, want 19 areas and the whole kernel", tc.seed, len(sums))
		}
		for i, want := range tc.spot {
			if sums[i] != want {
				t.Errorf("seed %d (guarded %v): sum %d = %#x, want %#x", tc.seed, tc.guarded, i, sums[i], want)
			}
		}
		d := sha256.New()
		for _, s := range sums {
			d.Write(binary.LittleEndian.AppendUint64(nil, s))
		}
		if got := hex.EncodeToString(d.Sum(nil)); got != tc.digest {
			t.Errorf("seed %d (guarded %v): sums digest %s, want %s", tc.seed, tc.guarded, got, tc.digest)
		}
	}
}

// guardTrustedBoot makes the sync guard's boot-time changes to im: the two
// Protect calls of syncguard's Install, then the recapture of the trusted
// copy.
func guardTrustedBoot(t *testing.T, im *mem.Image) {
	t.Helper()
	mmu, err := mem.NewMMU(im, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := im.Layout()
	if err := mmu.Protect(l.VBAR, 16*mem.VectorSize); err != nil {
		t.Fatal(err)
	}
	if err := mmu.Protect(l.SyscallTableAddr, l.SyscallCount*mem.SyscallEntrySize); err != nil {
		t.Fatal(err)
	}
	im.RecapturePristine()
}

// TestDjb2AffineSplit proves the split the boot terms rest on,
// Djb2Update(h, b) == h·33^len(b) + Djb2Update(0, b): exhaustively for every
// b of length 0 to 2 at several states, and for random data up to three
// chunks long.
func TestDjb2AffineSplit(t *testing.T) {
	states := []uint64{0, 1, Djb2Seed, ^uint64(0), 0x0123456789abcdef}
	split := func(h uint64, b []byte) bool {
		return Djb2Update(h, b) == h*pow33(len(b))+(djb2Term{}).Bytes(0, b)
	}
	b := make([]byte, 2)
	for _, h := range states {
		if !split(h, nil) {
			t.Fatalf("h=%#x: the empty fold does not split", h)
		}
		for x := 0; x < 256; x++ {
			b[0] = byte(x)
			if !split(h, b[:1]) {
				t.Fatalf("h=%#x: %x does not split", h, b[:1])
			}
			for y := 0; y < 256; y++ {
				b[1] = byte(y)
				if !split(h, b) {
					t.Fatalf("h=%#x: %x does not split", h, b)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3*DefaultChunkSize)
	rng.Read(data)
	for i := 0; i < 200; i++ {
		n := rng.Intn(len(data) + 1)
		off := rng.Intn(len(data) - n + 1)
		if h := rng.Uint64(); !split(h, data[off:off+n]) {
			t.Fatalf("h=%#x: %d bytes at %d do not split", h, n, off)
		}
	}
}

func TestHashDetectsSingleBitFlip(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	orig := Djb2(data)
	data[2048] ^= 1
	if Djb2(data) == orig {
		t.Error("djb2 missed a single-bit flip")
	}
}

func TestHashKindStrings(t *testing.T) {
	if HashDjb2.String() != "djb2" {
		t.Error("hash names wrong")
	}
	if HashKind(9).String() == "" {
		t.Error("unknown kind must render")
	}
}
