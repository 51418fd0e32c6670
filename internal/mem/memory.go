// Package mem models the normal-world physical memory the introspection
// mechanisms inspect: a byte-addressable RAM holding a synthetic rich-OS
// kernel image whose layout mirrors the paper's target (an 11,916,240-byte
// lsk-4.4-armlt kernel divided into 19 System.map-derived areas, §VI-A2),
// plus a loadable-module arena where attack code lives outside the
// statically-checked region.
//
// Memory contents are real bytes: the rootkit genuinely overwrites the
// GETTID syscall-table entry, KProber-I genuinely rewrites the IRQ exception
// vector, and the introspection genuinely hashes what is there at the
// virtual instant each chunk is read. Detection therefore emerges from event
// interleaving — the same TOCTTOU structure as the hardware race in the
// paper's Figure 3 — rather than from a formula.
package mem

import (
	"fmt"
	"slices"
)

// Memory is a byte-addressable physical memory region kept as PageSize
// pages.
//
// A page starts out shared: with the boot state the region was built from
// (BootState), which generates it from the seed when it is first read, or,
// where the region holds no boot bytes, with one read-only zero page.
// Write and RestorePage copy a shared page on its first write, and nothing
// ever writes a shared page, so images built from one boot state pay only
// for the pages they write and may run on separate goroutines.
//
// Every mutation through Write (and the helpers built on it) bumps a
// per-page generation counter. Generations are the invalidation
// substrate for anything that caches derived views of memory — the
// introspection layer's incremental hash cache keys chunk digests on them —
// and a reusable primitive for future diff-based features: two reads of a
// page with the same generation are guaranteed byte-identical. A region
// without generations (an image's trusted copy) is read-only: Write and
// RestorePage refuse it.
type Memory struct {
	base uint64
	size int
	// boot is the boot state whose static pages are the region's leading
	// pages; nil for NewMemory, whose every page starts as the zero page.
	boot *BootState
	// pages[p] is page p's private copy once the region has written it,
	// and nil while the page is shared (page). Every page but the last is
	// PageSize long.
	pages [][]byte
	// gens[p] counts writes that touched page p since boot. The boot's
	// table installs happen before any observer exists, so they do not
	// count. nil for a read-only region.
	gens []uint64
}

// zeroPage backs every page of a region that holds no boot bytes until the
// page is first written. Nothing writes it.
var zeroPage [PageSize]byte

// NewMemory allocates a zeroed region of n bytes starting at physical
// address base.
func NewMemory(base uint64, n int) (*Memory, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mem: size %d must be positive", n)
	}
	return newMemory(base, n, nil), nil
}

// newMemory builds a writable n-byte region at base whose leading pages are
// boot's static pages, when boot is not nil, and whose remaining pages are
// the zero page, all shared.
func newMemory(base uint64, n int, boot *BootState) *Memory {
	m := newReadOnly(base, n, boot)
	m.gens = make([]uint64, len(m.pages))
	return m
}

// newReadOnly builds the pages of newMemory's region without generations:
// a read-only region.
func newReadOnly(base uint64, n int, boot *BootState) *Memory {
	return &Memory{
		base:  base,
		size:  n,
		boot:  boot,
		pages: make([][]byte, (n+PageSize-1)/PageSize),
	}
}

// pageLen reports page p's length: PageSize, or the tail of a region that
// ends mid-page.
func (m *Memory) pageLen(p int) int { return min(PageSize, m.size-p*PageSize) }

// bootPage reports whether page p, while shared, is the boot state's.
func (m *Memory) bootPage(p int) bool { return m.boot != nil && p < len(m.boot.pages) }

// page returns page p's bytes: the region's own copy, the boot state's page
// (generated on first use) or the zero page. Callers must not mutate a
// shared page.
func (m *Memory) page(p int) []byte {
	if page := m.pages[p]; page != nil {
		return page
	}
	n := m.pageLen(p)
	if m.bootPage(p) {
		return m.boot.page(p)[:n:n]
	}
	return zeroPage[:n:n]
}

// Base reports the first mapped address.
func (m *Memory) Base() uint64 { return m.base }

// Size reports the mapped length in bytes.
func (m *Memory) Size() int { return m.size }

// Contains reports whether the n-byte range at addr is fully mapped.
func (m *Memory) Contains(addr uint64, n int) bool {
	if n < 0 || addr < m.base {
		return false
	}
	off := addr - m.base
	return off <= uint64(m.size) && uint64(n) <= uint64(m.size)-off
}

// check converts addr to an offset, validating the n-byte access.
func (m *Memory) check(addr uint64, n int) (int, error) {
	if !m.Contains(addr, n) {
		return 0, fmt.Errorf("mem: access [%#x, %#x+%d) outside [%#x, %#x)",
			addr, addr, n, m.base, m.base+uint64(m.size))
	}
	return int(addr - m.base), nil
}

// writable refuses a read-only region.
func (m *Memory) writable() error {
	if m.gens == nil {
		return fmt.Errorf("mem: region [%#x, %#x) is read-only", m.base, m.base+uint64(m.size))
	}
	return nil
}

// own returns page p's bytes for writing, copying the page on its first
// write.
func (m *Memory) own(p int) []byte {
	if m.pages[p] == nil {
		if m.bootPage(p) {
			m.pages[p] = m.boot.copyPage(p, m.pageLen(p))
		} else {
			m.pages[p] = make([]byte, m.pageLen(p))
		}
	}
	return m.pages[p]
}

// BootSum returns f's term over the n bytes at addr, memoized on the boot
// state the region was built from, when the range lies in that boot
// state's static kernel and every page it spans is still the boot's (no
// Write or RestorePage has copied it): the bytes are then the boot bytes.
// Otherwise, and always for a region with no boot state, it reports false.
// The answer holds at the instant of the call; a later write copies the
// page first and so withdraws it.
func (m *Memory) BootSum(f TermFold, addr uint64, n int) (uint64, bool) {
	if m.boot == nil || !m.boot.trusted.Contains(addr, n) {
		return 0, false
	}
	off := int(addr - m.base)
	for p := off / PageSize; p*PageSize < off+n; p++ {
		if m.pages[p] != nil {
			return 0, false
		}
	}
	return m.boot.sum(f, off, n), true
}

// freeze returns a read-only region over m's first n bytes as they are
// now: pages m still shares stay shared, and pages m owns are copied.
func (m *Memory) freeze(n int) *Memory {
	f := newReadOnly(m.base, n, m.boot)
	for p := range f.pages {
		if page := m.pages[p]; page != nil {
			f.pages[p] = slices.Clone(page[:f.pageLen(p)])
		}
	}
	return f
}

// Read copies len(buf) bytes starting at addr into buf.
func (m *Memory) Read(addr uint64, buf []byte) error {
	off, err := m.check(addr, len(buf))
	if err != nil {
		return err
	}
	for len(buf) > 0 {
		k := copy(buf, m.page(off / PageSize)[off%PageSize:])
		buf = buf[k:]
		off += k
	}
	return nil
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) (byte, error) {
	off, err := m.check(addr, 1)
	if err != nil {
		return 0, err
	}
	return m.page(off / PageSize)[off%PageSize], nil
}

// Views appends to dst one read-only view per page the n-byte range at
// addr spans, in address order, and returns the extended slice. The views
// alias memory: they are how the secure world "directly reads the normal
// world OS' kernel" (§IV-B1) without a copy. Callers must not mutate them,
// and reuse dst across queries to keep the read path allocation-free.
func (m *Memory) Views(addr uint64, n int, dst [][]byte) ([][]byte, error) {
	off, err := m.check(addr, n)
	if err != nil {
		return dst, err
	}
	for end := off + n; off < end; {
		page, in := m.page(off/PageSize), off%PageSize
		k := min(len(page)-in, end-off)
		dst = append(dst, page[in:in+k:in+k])
		off += k
	}
	return dst, nil
}

// Write copies data into memory starting at addr and bumps the generation
// of every page the write touches. A read-only region refuses it.
func (m *Memory) Write(addr uint64, data []byte) error {
	if err := m.writable(); err != nil {
		return err
	}
	off, err := m.check(addr, len(data))
	if err != nil {
		return err
	}
	for len(data) > 0 {
		p := off / PageSize
		k := copy(m.own(p)[off%PageSize:], data)
		m.gens[p]++
		data = data[k:]
		off += k
	}
	return nil
}

// GenSum returns the sum of the generation counters of every page
// overlapping [addr, addr+n). Because generations only ever increase, the
// sum changes if and only if some overlapping page was written — a single
// uint64 compare validates an arbitrary range. The range must be mapped
// (callers validate once up front) in a writable region, since a read-only
// one has no generations; n <= 0 sums to 0.
func (m *Memory) GenSum(addr uint64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	off := int(addr - m.base)
	var sum uint64
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		sum += m.gens[p]
	}
	return sum
}

// PutUint64 writes a 64-bit little-endian value (ARM is little-endian).
func (m *Memory) PutUint64(addr uint64, v uint64) error {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:])
}

// Uint64 reads a 64-bit little-endian value.
func (m *Memory) Uint64(addr uint64) (uint64, error) {
	var buf [8]byte
	if err := m.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i, b := range buf {
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}
