package mem

import "sync"

// BootState is the immutable outcome of booting a kernel image from a seed
// (NewImage, then Image.Boot): the static-kernel bytes right after the boot
// fill and the page generations the fill left behind. SATIN computes its
// golden hashes once, "during booting stage" (§V-B); a BootState lets every
// image booted from the same seed share that stage instead of repeating it.
//
// The boot bytes are the only copy of a seed's kernel. Images built from
// one BootState share them as their pristine copy, with the memo of sums
// taken over pristine ranges (PristineSum, BootSum), and as the pages of
// their live memory until they write them. Nothing writes the boot bytes
// once they are filled and the memo is locked, so one BootState may build
// and serve images on several goroutines at once.
type BootState struct {
	layout Layout
	seed   uint64
	// data is the static kernel page-rounded, its tail the module arena's
	// first zeros, so every boot page is a full page.
	data     []byte
	gens     []uint64 // every page's generation right after the fill
	pristine *pristine
}

// pristine is a trusted copy of the static kernel plus the memo of sums
// over its ranges. data never changes once built; an image whose trusted
// state changes (RecapturePristine) gets a new pristine instead.
type pristine struct {
	data []byte

	mu   sync.Mutex
	sums map[sumKey]uint64
}

type sumKey struct {
	h      Summer
	off, n int
}

// Summer digests a byte range. The pristine-sum memo is keyed on Summer
// values, so implementations must be comparable and pure: equal values give
// equal sums over equal bytes.
type Summer interface {
	Sum(data []byte) uint64
}

// Seed reports the seed the static kernel was filled from.
func (b *BootState) Seed() uint64 { return b.seed }

// NewImage builds a live image from the boot state. Its live memory shares
// the boot bytes page by page and starts from the boot generations; its
// pristine copy is the boot state's own, shared. Building one costs a page
// table, not a copy of the kernel.
func (b *BootState) NewImage() (*Image, error) {
	m := newImageMemory(b.layout, b.data, false)
	copy(m.gens, b.gens)
	return &Image{
		mem:        m,
		layout:     b.layout,
		moduleBase: b.layout.End(),
		boot:       b,
		pristine:   b.pristine,
	}, nil
}

// sum returns h's sum over data[off:off+n], computing it once per key. The
// hash runs outside the lock: two images missing on one key at once both
// compute the same pure value.
func (p *pristine) sum(h Summer, off, n int) uint64 {
	k := sumKey{h: h, off: off, n: n}
	p.mu.Lock()
	s, ok := p.sums[k]
	p.mu.Unlock()
	if ok {
		return s
	}
	s = h.Sum(p.data[off : off+n])
	p.mu.Lock()
	if p.sums == nil {
		p.sums = make(map[sumKey]uint64)
	}
	p.sums[k] = s
	p.mu.Unlock()
	return s
}
