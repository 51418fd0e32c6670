package mem

import (
	"fmt"
)

// PageSize is the translation granule: 4 KiB, as on the paper's platform.
const PageSize = 4096

// PTE layout: one byte per static-kernel page (a deliberately compact stand-
// in for the 8-byte descriptors of a real table — only the permission bit
// matters to the mechanisms modeled here). Bit 7 mirrors AP[2] of ARMv8-A
// stage-1 descriptors: set = read-only at EL1.
const PTEReadOnly byte = 1 << 7

// FaultHandler screens a write that hit a read-only page — the synchronous-
// introspection trap of §VII-A (SPROBES/TZ-RKP route the fault to the
// secure world for inspection). Returning nil lets the write proceed;
// returning an error denies it.
type FaultHandler func(addr uint64, data []byte) error

// MMU routes kernel-privilege writes through the live page permissions.
// The permission array itself lives *inside* the static kernel image (as
// swapper_pg_dir does in a real kernel's .data), which is what makes the
// paper's §VII-A bypass — flipping AP bits through a write-what-where
// vulnerability — both possible and, in turn, visible to asynchronous
// introspection: the flipped PTE bytes are in a checked area.
type MMU struct {
	image  *Image
	layout Layout
	fault  FaultHandler
}

// NewMMU builds the MMU over a booted image. The layout must carry a page
// table (PTBase != 0).
func NewMMU(image *Image, fault FaultHandler) (*MMU, error) {
	layout := image.Layout()
	if layout.PTBase == 0 {
		return nil, fmt.Errorf("mem: layout has no page table")
	}
	return &MMU{image: image, layout: layout, fault: fault}, nil
}

// pteAddr returns the PTE byte governing addr, or an error for addresses
// outside the static kernel (the module arena is always writable — loadable
// module space is not under the static protections).
func (m *MMU) pteAddr(addr uint64) (uint64, bool) {
	if !m.image.trusted.Contains(addr, 1) {
		return 0, false
	}
	return m.layout.PTBase + (addr-m.layout.Base)/PageSize, true
}

// ReadOnly reports whether the page holding addr is write-protected.
func (m *MMU) ReadOnly(addr uint64) (bool, error) {
	pte, ok := m.pteAddr(addr)
	if !ok {
		return false, nil
	}
	b, err := m.image.mem.ByteAt(pte)
	if err != nil {
		return false, fmt.Errorf("mem: reading PTE: %w", err)
	}
	return b&PTEReadOnly != 0, nil
}

// Write performs a kernel-privilege write honoring page permissions: writes
// to read-only pages trap to the fault handler (deny by default when no
// handler is installed). A write spanning pages is checked page by page and
// is all-or-nothing.
func (m *MMU) Write(addr uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	first := addr / PageSize
	last := (addr + uint64(len(data)) - 1) / PageSize
	for page := first; page <= last; page++ {
		pageStart := page * PageSize
		if pageStart < addr {
			pageStart = addr
		}
		ro, err := m.ReadOnly(pageStart)
		if err != nil {
			return err
		}
		if ro {
			if m.fault == nil {
				return fmt.Errorf("mem: write to read-only page at %#x", pageStart)
			}
			if err := m.fault(addr, data); err != nil {
				return fmt.Errorf("mem: write to %#x denied: %w", addr, err)
			}
		}
	}
	return m.image.mem.Write(addr, data)
}

// PutUint64 writes a 64-bit little-endian value through the permission
// check.
func (m *MMU) PutUint64(addr uint64, v uint64) error {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:])
}

// Protect marks every page overlapping [addr, addr+size) read-only. It
// writes the PTE bytes directly (boot/secure-world privilege); the guarded
// range must lie in the static kernel, and a range that does not changes
// no PTE.
func (m *MMU) Protect(addr uint64, size int) error {
	return m.setPermission(addr, size, true)
}

// Unprotect clears the read-only bit for every page overlapping the range.
func (m *MMU) Unprotect(addr uint64, size int) error {
	return m.setPermission(addr, size, false)
}

func (m *MMU) setPermission(addr uint64, size int, ro bool) error {
	if size <= 0 {
		return fmt.Errorf("mem: protection range size %d must be positive", size)
	}
	// The whole range is checked before any PTE is written, and without
	// adding size to addr, which would wrap near 2^64.
	if !m.image.trusted.Contains(addr, size) {
		return fmt.Errorf("mem: protection range [%#x,+%d) outside the static kernel", addr, size)
	}
	off := addr - m.layout.Base
	for page := off / PageSize; page <= (off+uint64(size)-1)/PageSize; page++ {
		pte := m.layout.PTBase + page
		b, err := m.image.mem.ByteAt(pte)
		if err != nil {
			return err
		}
		if ro {
			b |= PTEReadOnly
		} else {
			b &^= PTEReadOnly
		}
		if err := m.image.mem.Write(pte, []byte{b}); err != nil {
			return err
		}
	}
	return nil
}

// PTEAddrOf exposes the PTE byte address governing addr — what the §VII-A
// write-what-where exploit targets.
func (m *MMU) PTEAddrOf(addr uint64) (uint64, error) {
	pte, ok := m.pteAddr(addr)
	if !ok {
		return 0, fmt.Errorf("mem: address %#x outside the static kernel", addr)
	}
	return pte, nil
}
