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

// Image is a booted kernel image: live memory, its layout, and a pristine
// copy of the static region captured at boot (the trusted state the
// secure world hashes during the trusted boot, §V-B).
type Image struct {
	mem        *Memory
	layout     Layout
	moduleBase uint64
	// boot is the state the image was built from; the live memory shares
	// its pages until it writes them. pristine starts out as boot's shared
	// copy and is replaced, never written, when the trusted state is
	// recaptured.
	boot     *BootState
	pristine *pristine
}

// NewImage boots an image with the given layout, filling the static kernel
// with deterministic pseudo-random content derived from seed and installing
// a plausible syscall table and exception vector table. The fill is written
// in place into the buffer that becomes the image's boot state (Boot): the
// image's pages share it, it is the pristine copy, and further images of
// the same seed can be built from it.
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
	p := &pristine{data: data[:layout.TotalSize()]}
	b := &BootState{layout: layout, seed: seed, data: data, gens: m.PageGens(), pristine: p}
	return &Image{
		mem:        m,
		layout:     layout,
		moduleBase: layout.End(),
		boot:       b,
		pristine:   p,
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
// describe the protected state rather than the raw image. The image gets a
// pristine copy of its own, with an empty sum memo; the boot state it may
// share with other images is left untouched.
func (im *Image) RecapturePristine() error {
	p := &pristine{data: make([]byte, im.layout.TotalSize())}
	if err := im.mem.Read(im.layout.Base, p.data); err != nil {
		return err
	}
	im.pristine = p
	return nil
}

// BenignHandler returns the legitimate handler address for syscall nr, the
// value the pristine table holds.
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
func (im *Image) Boot() *BootState { return im.boot }

// pristineOffset validates that the n-byte range at addr lies in the static
// kernel and converts addr to an offset into the pristine copy. The
// comparison never adds to addr, so a negative or huge n cannot wrap past
// the check.
func (im *Image) pristineOffset(addr uint64, n int) (int, error) {
	size := uint64(im.layout.TotalSize())
	if n < 0 || addr < im.layout.Base || addr-im.layout.Base > size || uint64(n) > size-(addr-im.layout.Base) {
		return 0, fmt.Errorf("mem: pristine range [%#x,+%d) outside static kernel", addr, n)
	}
	return int(addr - im.layout.Base), nil
}

// CheckPristine reports an error unless the n-byte range at addr lies in
// the static kernel, the region every pristine accessor reads.
func (im *Image) CheckPristine(addr uint64, n int) error {
	_, err := im.pristineOffset(addr, n)
	return err
}

// Pristine returns a copy of the n pristine (boot-time) bytes at addr, which
// must lie in the static kernel.
func (im *Image) Pristine(addr uint64, n int) ([]byte, error) {
	off, err := im.pristineOffset(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, im.pristine.data[off:off+n])
	return out, nil
}

// PristineSum returns h's sum over the n pristine bytes at addr. Sums are
// memoized on the pristine copy, so images sharing a boot state hash each
// range once between them — the golden table is computed "during booting
// stage" (§V-B), not once per image.
func (im *Image) PristineSum(h Summer, addr uint64, n int) (uint64, error) {
	off, err := im.pristineOffset(addr, n)
	if err != nil {
		return 0, err
	}
	return im.pristine.sum(h, off, n), nil
}

// BootSum returns h's sum over the n boot bytes at addr, memoized on the
// boot state like PristineSum's, when the range lies in the static kernel
// and every page it spans still shares the boot state's bytes: the live
// bytes are then the boot bytes, whatever the image's pristine copy says.
// Otherwise it reports false. The answer holds at the instant of the call;
// a later write copies the page first and so withdraws it.
func (im *Image) BootSum(h Summer, addr uint64, n int) (uint64, bool) {
	off, err := im.pristineOffset(addr, n)
	if err != nil || !im.mem.shared(off, n) {
		return 0, false
	}
	return im.boot.pristine.sum(h, off, n), true
}

// Modified returns the addresses (ascending) of static-kernel bytes whose
// live value differs from the pristine copy. Diagnostics and tests use it;
// the introspection mechanisms do not (they only see hashes, like the real
// system).
func (im *Image) Modified() []uint64 {
	var out []uint64
	size := im.layout.TotalSize()
	for lo := 0; lo < size; lo += PageSize {
		live := im.mem.pages[lo/PageSize][:min(PageSize, size-lo)]
		want := im.pristine.data[lo : lo+len(live)]
		if bytes.Equal(live, want) {
			continue
		}
		for i := range live {
			if live[i] != want[i] {
				out = append(out, im.layout.Base+uint64(lo+i))
			}
		}
	}
	return out
}
