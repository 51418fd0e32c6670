package mem

import "sync"

// BootState is the immutable outcome of booting a kernel image from a seed
// (NewImage, then Image.Boot): the static-kernel bytes right after the boot
// fill and the page generations the fill left behind. SATIN computes its
// golden hashes once, "during booting stage" (§V-B); a BootState lets every
// image booted from the same seed share that stage instead of repeating it.
//
// The boot bytes are the only copy of a seed's kernel. Images built from
// one BootState share them as the pages of their live memory until they
// write them, and as the pages of one read-only trusted copy (Trusted).
// Sums over boot bytes are memoized here (Memory.BootSum), so images
// sharing a boot state hash each range once between them. Nothing writes
// the boot bytes once they are filled and the memo is locked, so one
// BootState may build and serve images on several goroutines at once.
type BootState struct {
	layout Layout
	seed   uint64
	// data is the static kernel page-rounded, its tail the module arena's
	// first zeros, so every boot page is a full page.
	data []byte
	gens []uint64 // every page's generation right after the fill
	// trusted is the static kernel as a read-only page table over data:
	// the trusted copy every image built from the boot state starts with.
	trusted *Memory

	mu   sync.Mutex
	sums map[sumKey]uint64
}

type sumKey struct {
	h      Summer
	off, n int
}

// Summer digests a byte range. The boot-sum memo is keyed on Summer
// values, so implementations must be comparable and pure: equal values give
// equal sums over equal bytes.
type Summer interface {
	Sum(data []byte) uint64
}

// Seed reports the seed the static kernel was filled from.
func (b *BootState) Seed() uint64 { return b.seed }

// NewImage builds a live image from the boot state. Its live memory shares
// the boot bytes page by page and starts from the boot generations; its
// trusted copy is the boot state's own, shared. Building one costs a page
// table, not a copy of the kernel.
func (b *BootState) NewImage() (*Image, error) {
	m := newImageMemory(b.layout, b.data, false)
	m.boot = b
	copy(m.gens, b.gens)
	return &Image{
		mem:        m,
		layout:     b.layout,
		moduleBase: b.layout.End(),
		trusted:    b.trusted,
	}, nil
}

// sum returns h's sum over the n boot bytes at offset off, computing it
// once per key. The hash runs outside the lock: two images missing on one
// key at once both compute the same pure value.
func (b *BootState) sum(h Summer, off, n int) uint64 {
	k := sumKey{h: h, off: off, n: n}
	b.mu.Lock()
	s, ok := b.sums[k]
	b.mu.Unlock()
	if ok {
		return s
	}
	s = h.Sum(b.data[off : off+n])
	b.mu.Lock()
	if b.sums == nil {
		b.sums = make(map[sumKey]uint64)
	}
	b.sums[k] = s
	b.mu.Unlock()
	return s
}
