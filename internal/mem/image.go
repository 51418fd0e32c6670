package mem

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// ModuleArenaSize is the size of the loadable-module arena mapped after the
// static kernel. Attack code (the rootkit body, KProber threads) lives here:
// like real LKM memory it is *not* part of the static region the integrity
// checkers hash, which is why the paper's sample attack is only detectable
// through the 8 bytes it flips inside the syscall table (§IV-A2).
const ModuleArenaSize = 2 << 20

// Image is a booted kernel image: live memory, its layout, and a trusted
// copy of the static region captured at boot (the trusted state the
// secure world hashes during the trusted boot, §V-B).
type Image struct {
	// mem is the live memory, sharing its boot state's pages until it
	// writes them.
	mem        *Memory
	layout     Layout
	moduleBase uint64
	// trusted starts out as the boot state's shared copy and is replaced,
	// never written, when the trusted state is recaptured.
	trusted *Memory
}

// NewImage boots an image with the given layout: the static kernel holds
// deterministic pseudo-random content derived from seed (FillWord), with a
// plausible syscall table, exception vector table and page-permission table
// installed. The boot makes only the pages the installs write; the image's
// boot state (Boot) generates the others when they are first read, and
// further images of the same seed can be built from it.
func NewImage(layout Layout, seed uint64) (*Image, error) {
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("mem: invalid layout: %w", err)
	}
	np := layout.PageCount()
	b := &BootState{
		layout: layout,
		seed:   seed,
		pages:  make([]atomic.Pointer[[PageSize]byte], np),
		terms:  make([]termSlot, np*termSlots),
	}
	b.trusted = newReadOnly(layout.Base, layout.TotalSize(), b)
	m := newImageMemory(b)
	install(m, layout)
	// From here on the pages the installs wrote are the boot state's.
	for p, page := range m.pages[:np] {
		if page != nil {
			b.pages[p].Store((*[PageSize]byte)(page))
			m.pages[p] = nil
		}
	}
	b.gens = m.PageGens()
	return &Image{
		mem:        m,
		layout:     layout,
		moduleBase: layout.End(),
		trusted:    b.trusted,
	}, nil
}

// newImageMemory builds the live region of an image: the static kernel,
// whose pages are b's, followed by the module arena.
func newImageMemory(b *BootState) *Memory {
	return newMemory(b.layout.Base, b.layout.TotalSize()+ModuleArenaSize, b)
}

// NewJunoImage boots the paper's synthetic lsk-4.4-armlt kernel.
func NewJunoImage(seed uint64) (*Image, error) {
	return NewImage(JunoKernelLayout(), seed)
}

// install writes the boot's tables over the fill through m, so they count
// as page generations.
func install(m *Memory, layout Layout) {
	// Install the syscall table: entry nr points at a distinct "handler"
	// in kernel text.
	for nr := 0; nr < layout.SyscallCount; nr++ {
		addr := layout.SyscallEntryAddr(nr)
		if err := m.PutUint64(addr, benignHandler(layout, nr)); err != nil {
			panic(err) // unreachable: layout validated
		}
	}
	// Install the exception vector table: each vector begins with the
	// address of its handler (standing in for the branch instruction a
	// real vector holds).
	for v := 0; v < 16; v++ {
		vecAddr := layout.VBAR + uint64(v)*VectorSize
		handler := layout.Base + 0x2000 + uint64(v)*0x200
		if err := m.PutUint64(vecAddr, handler); err != nil {
			panic(err) // unreachable: layout validated
		}
	}
	// Zero the page-permission table: every page boots writable (no
	// synchronous protections until a guard installs them).
	if layout.PTBase != 0 {
		zeros := make([]byte, layout.PageCount())
		if err := m.Write(layout.PTBase, zeros); err != nil {
			panic(err) // unreachable: layout validated
		}
	}
}

// RecapturePristine refreshes the trusted (golden) copy from live memory.
// The trusted-boot sequence calls it after applying boot-time protections
// (e.g. a synchronous guard setting PTE bits), so the authorized hashes
// describe the protected state rather than the raw image. The new trusted
// copy is a page table like live memory's: pages the image has not written
// stay the boot state's, and only written pages are copied. The boot state
// and every other image's trusted copy are left untouched.
func (im *Image) RecapturePristine() {
	im.trusted = im.mem.freeze(im.layout.TotalSize())
}

// BenignHandler returns the legitimate handler address for syscall nr, the
// value the trusted table holds.
func (im *Image) BenignHandler(nr int) uint64 {
	return benignHandler(im.layout, nr)
}

func benignHandler(layout Layout, nr int) uint64 {
	return layout.Base + 0x10000 + uint64(nr)*0x100
}

// Mem exposes the live memory.
func (im *Image) Mem() *Memory { return im.mem }

// Layout exposes the kernel layout.
func (im *Image) Layout() Layout { return im.layout }

// ModuleBase reports the start of the loadable-module arena.
func (im *Image) ModuleBase() uint64 { return im.moduleBase }

// Boot returns the boot state the image was built from. RecapturePristine
// does not change it: an image built from it starts from the seed's fill,
// and its own trusted boot recaptures again.
func (im *Image) Boot() *BootState { return im.mem.boot }

// Trusted returns the trusted copy of the static kernel: a read-only
// region spanning exactly the static kernel, whose bytes the golden hashes
// describe. It has no page generations, and Write and RestorePage refuse
// it; callers must not mutate the views it hands out (Views, PageView).
// Pages it shares with the boot state serve its terms from the boot
// state's memo (BootSum), folded from the fill's words while nobody has
// read the pages.
func (im *Image) Trusted() *Memory { return im.trusted }

// Pristine returns a copy of the n trusted (boot-time) bytes at addr,
// which must lie in the static kernel.
func (im *Image) Pristine(addr uint64, n int) ([]byte, error) {
	if !im.trusted.Contains(addr, n) {
		return nil, fmt.Errorf("mem: pristine range [%#x,+%d) outside static kernel", addr, n)
	}
	out := make([]byte, n)
	return out, im.trusted.Read(addr, out)
}

// Modified returns the addresses (ascending) of static-kernel bytes whose
// live value differs from the trusted copy, comparing one page at a time
// and skipping the pages both still share with the boot state.
// Diagnostics and tests use it; the introspection mechanisms do not (they
// only see hashes, like the real system).
func (im *Image) Modified() []uint64 {
	var out []uint64
	for p, copied := range im.trusted.pages {
		if copied == nil && im.mem.pages[p] == nil {
			continue
		}
		want := im.trusted.page(p)
		live := im.mem.page(p)[:len(want)]
		if bytes.Equal(live, want) {
			continue
		}
		for i := range want {
			if live[i] != want[i] {
				out = append(out, im.layout.Base+uint64(p*PageSize+i))
			}
		}
	}
	return out
}
