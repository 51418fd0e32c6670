package mem

import "fmt"

// Checkpoint support: page-granular accessors for the copy-on-write memory
// capture. A snapshot never copies the whole region — it records the bytes of
// pages whose generation differs from a baseline taken right after scenario
// construction, plus the full generation array. The generation array must be
// restored exactly (not merely bumped) because the incremental hash cache
// validates entries by generation sums; RestorePage therefore writes bytes
// without touching generations, and SetPageGens installs the recorded array.

// PageView returns a read-only view of page p's bytes, aliasing the live
// memory. Callers must not mutate it.
func (m *Memory) PageView(p int) ([]byte, error) {
	if err := m.checkPage(p); err != nil {
		return nil, err
	}
	return m.page(p), nil
}

// checkPage validates a page index.
func (m *Memory) checkPage(p int) error {
	if p < 0 || p >= len(m.pages) {
		return fmt.Errorf("mem: page %d outside [0, %d)", p, len(m.pages))
	}
	return nil
}

// RestorePage overwrites page p's bytes without bumping its generation —
// the generation array is restored separately via SetPageGens. data must be
// exactly the page's length (PageSize, or the tail for a partial last page).
// Like Write, it gives a shared page a private copy, here without reading
// the shared bytes it overwrites, and it refuses a read-only region.
func (m *Memory) RestorePage(p int, data []byte) error {
	if err := m.writable(); err != nil {
		return err
	}
	if err := m.checkPage(p); err != nil {
		return err
	}
	if n := m.pageLen(p); len(data) != n {
		return fmt.Errorf("mem: page %d is %d bytes, restore data is %d", p, n, len(data))
	}
	if m.pages[p] == nil {
		m.pages[p] = make([]byte, len(data))
	}
	copy(m.pages[p], data)
	return nil
}

// PageGens returns a copy of the full per-page generation array.
func (m *Memory) PageGens() []uint64 {
	return append([]uint64(nil), m.gens...)
}

// SetPageGens overwrites the full per-page generation array.
func (m *Memory) SetPageGens(gens []uint64) error {
	if len(gens) != len(m.gens) {
		return fmt.Errorf("mem: generation array has %d pages, region has %d", len(gens), len(m.gens))
	}
	copy(m.gens, gens)
	return nil
}
