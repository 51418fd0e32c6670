package mem

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// BootState is the immutable outcome of booting a kernel image from a seed
// (NewImage, then Image.Boot): the static kernel right after the boot fill
// and the page generations the fill left behind. SATIN computes its golden
// hashes once, "during booting stage" (§V-B); a BootState lets every image
// booted from the same seed share that stage instead of repeating it.
//
// A boot state holds no copy of the kernel. The fill is splitmix64 in
// counter mode (FillWord), so every static page is a function of the seed,
// except the few pages the boot installs tables into: the syscall table,
// the vector table and the page-permission table, which the boot state
// keeps. Any other page is generated when something first reads it (Read,
// ByteAt, Views, PageView) and published once, atomically; a copy-on-write
// of a page nobody has generated generates it straight into the copy.
//
// Images built from one BootState share its pages as the pages of their
// live memory until they write them, and as the pages of one read-only
// trusted copy (Trusted). Terms over boot bytes are memoized here
// (Memory.BootSum), so images sharing a boot state fold each range once
// between them, and a range over pages nobody has generated folds the
// fill's words without making its pages (TermFold). Nothing writes a page
// once it is published, and a mutex guards the memo, so one BootState may
// build and serve images on several goroutines at once.
type BootState struct {
	layout Layout
	seed   uint64
	gens   []uint64 // every page's generation right after the fill
	// pages[p] is static page p once generated, the install pages from the
	// boot on: a full page, its tail past the static kernel the module
	// arena's first zeros. Each is published once and never written.
	pages []atomic.Pointer[[PageSize]byte]
	// trusted is the static kernel as a read-only page table over pages:
	// the trusted copy every image built from the boot state starts with.
	trusted *Memory
	// terms is the memo of range terms, termSlots slots per page of a
	// range's start, under mu.
	mu    sync.Mutex
	terms []termSlot
}

// Seed reports the seed the static kernel was filled from.
func (b *BootState) Seed() uint64 { return b.seed }

// NewImage builds a live image from the boot state. Its live memory shares
// the boot pages and starts from the boot generations; its trusted copy is
// the boot state's own, shared. Building one costs a page table, not a
// copy of the kernel.
func (b *BootState) NewImage() (*Image, error) {
	m := newImageMemory(b)
	copy(m.gens, b.gens)
	return &Image{
		mem:        m,
		layout:     b.layout,
		moduleBase: b.layout.End(),
		trusted:    b.trusted,
	}, nil
}

// Generate generates, in one pass, every static page nobody has generated
// yet. A reader that will read every page's bytes anyway, such as a checker
// with its hash cache off, calls it before the golden pass: the pass then
// folds the pages' bytes instead of generating words for terms nothing
// reuses, and no page is generated twice. The pages are allocated
// generateBatch at a time: one 4 KiB allocation per page made a boot with
// its golden pass about half again as slow.
func (b *BootState) Generate() {
	var batch []byte
	for p := range b.pages {
		if b.pages[p].Load() != nil {
			continue
		}
		if len(batch) == 0 {
			batch = make([]byte, min(generateBatch, len(b.pages)-p)*PageSize)
		}
		pg := (*[PageSize]byte)(batch)
		batch = batch[PageSize:]
		b.generate(p, pg[:])
		b.pages[p].CompareAndSwap(nil, pg)
	}
}

// generateBatch is how many pages Generate allocates at once.
const generateBatch = 64

// fillGamma is splitmix64's counter step, the golden ratio in 64 bits.
const fillGamma = 0x9E3779B97F4A7C15

// FillWord returns word k of the static kernel booted from seed as the fill
// leaves it, before the boot installs its tables: bytes 8k to 8k+7,
// little-endian. It is splitmix64 in counter mode: tiny, deterministic, and
// good enough to make every byte of "kernel text" unique so hash checks
// are meaningful. A static kernel whose size is not a multiple of 8 ends
// on its last word's low bytes.
func FillWord(seed uint64, k int) uint64 {
	return fillMix(seed + uint64(k+1)*fillGamma)
}

// fillMix is splitmix64's output function over the counter state z.
func fillMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// FillWords writes len(dst)/8 fill words, from word k of the static
// kernel booted from seed on, into dst, little-endian: the words FillWord
// gives, with the counter stepped once per word rather than multiplied
// out for each. Bytes past the last whole word are left as they are.
//
// On a CPU with AVX2 (HasAVX2) the vector kernel writes dst's whole
// 64-byte blocks and the scalar loop the tail (fillAVX2); elsewhere the
// scalar loop writes it all (fillScalar). Both step the counter mod 2^64,
// so both are bit-identical to FillWord (fill_test.go proves each kernel).
func FillWords(dst []byte, seed uint64, k int) {
	z := seed + uint64(k)*fillGamma
	if hasAVX2 {
		fillAVX2(dst, z)
		return
	}
	fillScalar(dst, z)
}

// HasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: the one CPU probe, read once at init, that picks FillWords'
// kernel and introspect's djb2 kernel. It is false off amd64.
func HasAVX2() bool { return hasAVX2 }

// fillBlock is the vector kernel's step: two vectors of four words.
const fillBlock = 64

// fillAVX2 writes dst's fill words from counter state z on a CPU with
// AVX2: up to a page of whole blocks at a time through fillWordsAVX2, the
// counter stepped past each call's words, then the tail through
// fillScalar.
func fillAVX2(dst []byte, z uint64) {
	for len(dst) >= fillBlock {
		n := min(len(dst), PageSize) &^ (fillBlock - 1)
		fillWordsAVX2(dst[:n], z)
		z += uint64(n/8) * fillGamma
		dst = dst[n:]
	}
	fillScalar(dst, z)
}

// fillScalar is the scalar kernel: it writes dst's fill words one at a
// time, word i being fillMix(z + (i+1)·fillGamma).
func fillScalar(dst []byte, z uint64) {
	for ; len(dst) >= 8; dst = dst[8:] {
		z += fillGamma
		binary.LittleEndian.PutUint64(dst, fillMix(z))
	}
}

// generate writes static page p's fill into dst, a zeroed buffer at most a
// page long; bytes past the static kernel stay zero.
func (b *BootState) generate(p int, dst []byte) {
	lo := p * PageSize
	n := min(len(dst), b.trusted.size-lo)
	whole := n &^ 7
	FillWords(dst[:whole], b.seed, lo/8)
	if whole < n {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], FillWord(b.seed, (lo+whole)/8))
		copy(dst[whole:n], w[:])
	}
}

// page returns static page p, generating and publishing it on first use.
// Two goroutines generating one page at once make equal bytes; the first
// to publish wins.
func (b *BootState) page(p int) *[PageSize]byte {
	if pg := b.pages[p].Load(); pg != nil {
		return pg
	}
	pg := new([PageSize]byte)
	b.generate(p, pg[:])
	if b.pages[p].CompareAndSwap(nil, pg) {
		return pg
	}
	return b.pages[p].Load()
}

// copyPage returns a private n-byte copy of static page p: the published
// page's bytes, or, for a page nobody has generated, the fill generated
// straight into the copy.
func (b *BootState) copyPage(p, n int) []byte {
	out := make([]byte, n)
	if pg := b.pages[p].Load(); pg != nil {
		copy(out, pg[:])
	} else {
		b.generate(p, out)
	}
	return out
}

// TermFold folds boot bytes into a running state, as a streaming hash does:
// folding a range's segments in address order from the state 0 gives the
// range's term, which a boot state memoizes (Memory.BootSum). Bytes folds
// b into h. Fill folds the n words of the fill from word k of the static
// kernel booted from seed (FillWord); the boot state passes it the pages
// nobody has generated, so their terms need no page of bytes. A boot state
// memoizes one term per range, so every fold its callers pass must give
// equal terms over equal bytes.
type TermFold interface {
	Bytes(h uint64, b []byte) uint64
	Fill(h, seed uint64, k, n int) uint64
}

// termSlots is how many terms the memo keeps per page of a range's start.
// The checker and the golden pass fold chunks DefaultChunkSize apart from
// each area's start; on the paper's kernel at most two of the 19 areas'
// chunks start in one page, and the full-kernel baseline's page-aligned
// grid adds a third.
const termSlots = 4

// termSlot is one memoized term of the n > 0 bytes at offset off; n is 0
// while the slot is free. Offset and length are 32-bit, so a slot is 16
// bytes.
type termSlot struct {
	off, n uint32
	term   uint64
}

// sum returns f's term over the n boot bytes at offset off, from the memo
// or folded and memoized in a free slot of its page. When the page's slots
// are full, or the range does not fit a slot's 32 bits, the term is not
// kept, and the next call folds it again. The fold runs outside the lock:
// two images missing on one range at once both fold the same pure value.
func (b *BootState) sum(f TermFold, off, n int) uint64 {
	if n <= 0 || uint64(off) > math.MaxUint32 || uint64(n) > math.MaxUint32 {
		return b.fold(f, off, n)
	}
	if t, ok := b.memoized(off, n); ok {
		return t
	}
	t := b.fold(f, off, n)
	b.mu.Lock()
	defer b.mu.Unlock()
	slots := b.slots(off)
	for i := range slots {
		if slots[i].n == 0 {
			slots[i] = termSlot{off: uint32(off), n: uint32(n), term: t}
			break
		}
	}
	return t
}

// memoized returns the memo's term of the n > 0 boot bytes at offset off,
// if it holds one.
func (b *BootState) memoized(off, n int) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.slots(off) {
		if uint64(s.off) == uint64(off) && uint64(s.n) == uint64(n) {
			return s.term, true
		}
	}
	return 0, false
}

// slots returns the memo's slots for ranges starting in off's page.
func (b *BootState) slots(off int) []termSlot {
	return b.terms[off/PageSize*termSlots:][:termSlots]
}

// fold folds the n boot bytes at offset off into f's state from 0, in
// address order: a generated page folds its bytes, and a run of pages
// nobody has generated folds the fill's words. A page published while the
// fold runs holds the same bytes as the fill, since install pages are
// published at boot.
func (b *BootState) fold(f TermFold, off, n int) uint64 {
	var h uint64
	for end := off + n; off < end; {
		p := off / PageSize
		stop := min(end, (p+1)*PageSize)
		if pg := b.pages[p].Load(); pg != nil {
			h = f.Bytes(h, pg[off-p*PageSize:stop-p*PageSize])
			off = stop
			continue
		}
		for stop < end && b.pages[stop/PageSize].Load() == nil {
			stop = min(end, stop+PageSize)
		}
		h = b.foldFill(f, h, off, stop-off)
		off = stop
	}
	return h
}

// foldFill folds the n fill bytes at offset off into h: whole words
// through f.Fill, and the bytes of a word the range cuts through f.Bytes.
func (b *BootState) foldFill(f TermFold, h uint64, off, n int) uint64 {
	if r := off % 8; r != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], FillWord(b.seed, off/8))
		k := min(8-r, n)
		h = f.Bytes(h, w[r:r+k])
		off, n = off+k, n-k
	}
	if words := n / 8; words > 0 {
		h = f.Fill(h, b.seed, off/8, words)
		off, n = off+8*words, n-8*words
	}
	if n > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], FillWord(b.seed, off/8))
		h = f.Bytes(h, w[:n])
	}
	return h
}
