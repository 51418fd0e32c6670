package mem

import "sync"

// BootState is the immutable outcome of booting a kernel image from a seed
// (NewImage, then Image.Boot): the static-kernel bytes right after the boot
// fill and the page generations the fill left behind. SATIN computes its
// golden hashes once, "during booting stage" (§V-B); a BootState lets every
// image booted from the same seed share that stage instead of repeating it.
//
// Images built from one BootState share its bytes as their pristine copy,
// and with them a memo of the sums taken over pristine ranges (PristineSum).
// Each image owns a private copy of the bytes as its live memory. Nothing
// writes the boot bytes once they are captured and the memo is locked, so
// one BootState may build images on several goroutines at once.
type BootState struct {
	layout   Layout
	seed     uint64
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

// NewImage builds a live image from the boot state. Its live memory is a
// private copy of the boot bytes and generations followed by a zeroed
// module arena; its pristine copy is the boot state's own, shared.
func (b *BootState) NewImage() (*Image, error) {
	m, err := newImageMemory(b.layout)
	if err != nil {
		return nil, err
	}
	copy(m.data, b.pristine.data)
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
