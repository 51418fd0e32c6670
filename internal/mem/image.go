package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// NewImage boots an image with the given layout, filling the static kernel
// with deterministic pseudo-random content derived from seed and installing
// a plausible syscall table and exception vector table. The fill is written
// in place into the buffer that becomes the image's boot state (Boot): the
// image's pages and its trusted copy share it, and further images of the
// same seed can be built from it.
func NewImage(layout Layout, seed uint64) (*Image, error) {
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("mem: invalid layout: %w", err)
	}
	// The boot bytes are page-rounded, so every boot page is a full page;
	// the tail past the static kernel holds the module arena's first zeros.
	data := make([]byte, layout.PageCount()*PageSize)
	m := newImageMemory(layout, data, true)
	fill(m, data, layout, seed)
	clear(m.owned) // from here on the filled pages are the boot state's
	b := &BootState{layout: layout, seed: seed, data: data, gens: m.PageGens()}
	b.trusted = newReadOnly(layout.Base, layout.TotalSize(), data, false)
	b.trusted.boot, m.boot = b, b
	return &Image{
		mem:        m,
		layout:     layout,
		moduleBase: layout.End(),
		trusted:    b.trusted,
	}, nil
}

// newImageMemory builds the live region of an image: the static kernel,
// whose pages are the boot bytes data, followed by the module arena.
func newImageMemory(layout Layout, data []byte, own bool) *Memory {
	return newMemory(layout.Base, layout.TotalSize()+ModuleArenaSize, data, own)
}

// NewJunoImage boots the paper's synthetic lsk-4.4-armlt kernel.
func NewJunoImage(seed uint64) (*Image, error) {
	return NewImage(JunoKernelLayout(), seed)
}

// fill populates the static kernel with deterministic content: data is the
// buffer m's static pages own, and the installs write through m so they
// count as page generations.
func fill(m *Memory, data []byte, layout Layout, seed uint64) {
	fillRandom(data[:layout.TotalSize()], seed)
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

// fillRandom fills data with splitmix64 output: tiny, deterministic, and
// good enough to make every byte of "kernel text" unique so hash checks are
// meaningful. It is its own function so the loop keeps its state in
// registers; inside fill it spilled to the stack.
func fillRandom(data []byte, seed uint64) {
	state := seed
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], next())
	}
	if i < len(data) {
		v := next()
		for j := 0; i+j < len(data); j++ {
			data[i+j] = byte(v >> (8 * j))
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
// Pages it shares with the boot state serve its sums from the boot state's
// memo (BootSum).
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
// live value differs from the trusted copy, comparing one page at a time.
// Diagnostics and tests use it; the introspection mechanisms do not (they
// only see hashes, like the real system).
func (im *Image) Modified() []uint64 {
	var out []uint64
	for p, want := range im.trusted.pages {
		live := im.mem.pages[p][:len(want)]
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
