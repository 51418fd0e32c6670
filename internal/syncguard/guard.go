// Package syncguard models the synchronous introspection the paper's
// related work deploys (§II, §VII-A): a SPROBES/TZ-RKP-style guard that
// write-protects security-critical kernel structures and screens every
// trapped write from the secure world.
//
// The package exists for two of the paper's arguments:
//
//   - §VII-A: TZ-Evader's preparation steps (hijacking the IRQ vector for
//     KProber-I, hijacking the syscall table) are blocked by a synchronous
//     guard — until the attacker runs a write-what-where data attack that
//     flips the Access Permission bits of the relevant page-table entries,
//     after which the same writes sail through unmediated (the published
//     KNOX-RKP bypass the paper cites).
//   - §VII-C: the bypass leaves its own bytes behind (the flipped PTE lives
//     in kernel .data, area 17 of the Juno partition), so asynchronous
//     introspection adds exactly the layer of defense the paper argues for.
package syncguard

import (
	"fmt"

	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
)

// DeniedWrite records one write the guard screened and rejected.
type DeniedWrite struct {
	At   simclock.Time
	Addr uint64
	Len  int
}

// Guard is the synchronous introspection mechanism.
type Guard struct {
	os    *richos.OS
	image *mem.Image
	mmu   *mem.MMU

	installed bool
	trapped   int
	denied    []DeniedWrite
}

// New prepares a guard for the OS.
func New(os *richos.OS) *Guard {
	return &Guard{os: os, image: os.Image()}
}

// Install applies the boot-time protections: build the permission-checking
// MMU, write-protect the exception vector table and the syscall table,
// route kernel-privilege writes through the MMU, and re-capture the trusted
// image so asynchronous golden hashes describe the protected state. Mirrors
// the paper's description of TZ-RKP/SPROBES setting "the vector table as
// non-writable" (§VII-A).
func (g *Guard) Install() error {
	if g.installed {
		return fmt.Errorf("syncguard: already installed")
	}
	mmu, err := mem.NewMMU(g.image, g.screen)
	if err != nil {
		return fmt.Errorf("syncguard: %w", err)
	}
	layout := g.image.Layout()
	// The full exception vector table: 16 vectors.
	if err := mmu.Protect(layout.VBAR, 16*mem.VectorSize); err != nil {
		return fmt.Errorf("syncguard: protecting vector table: %w", err)
	}
	if err := mmu.Protect(layout.SyscallTableAddr, layout.SyscallCount*mem.SyscallEntrySize); err != nil {
		return fmt.Errorf("syncguard: protecting syscall table: %w", err)
	}
	// Trusted boot: the golden image now includes the protection bits.
	g.image.RecapturePristine()
	g.os.SetMMU(mmu)
	g.mmu = mmu
	g.installed = true
	return nil
}

// screen is the secure-world inspection of a trapped write. This guard's
// policy is the simplest sound one: nothing in the normal world may
// legitimately rewrite the vector table or the syscall table at runtime, so
// every trapped write is denied.
func (g *Guard) screen(addr uint64, data []byte) error {
	g.trapped++
	g.denied = append(g.denied, DeniedWrite{
		At:   g.os.ReadCounter(),
		Addr: addr,
		Len:  len(data),
	})
	return fmt.Errorf("syncguard: write to protected structure at %#x rejected", addr)
}

// Installed reports whether the protections are active.
func (g *Guard) Installed() bool { return g.installed }

// Trapped reports how many writes reached the screen.
func (g *Guard) Trapped() int { return g.trapped }

// Denied returns the rejected-write log.
func (g *Guard) Denied() []DeniedWrite { return g.denied }

// MMU exposes the guard's MMU (tests and the exploit target it).
func (g *Guard) MMU() *mem.MMU { return g.mmu }

// APFlipExploit is the §VII-A bypass: "after getting the root privilege,
// the attack can utilize a write-what-where vulnerability to change the
// Access Permissions (AP) bits of the related page table entry from
// non-writable to writable. After that, the attacker can freely modify the
// vector table without triggering the corresponding synchronous
// introspection."
//
// The exploit's arbitrary write lands through raw physical access — the
// unmediated path the vulnerability provides — and flips the read-only bit
// of every page covering [addr, addr+size). It returns the PTE addresses it
// modified: bytes inside kernel .data that a subsequent asynchronous check
// of area 17 will flag.
func APFlipExploit(image *mem.Image, addr uint64, size int) ([]uint64, error) {
	layout := image.Layout()
	if layout.PTBase == 0 {
		return nil, fmt.Errorf("syncguard: image has no page table to attack")
	}
	if size <= 0 {
		return nil, fmt.Errorf("syncguard: exploit range size %d must be positive", size)
	}
	// Checked whole before any PTE is written, without adding size to
	// addr: the address is a spec's rootkit_addr, and the sum wraps near
	// 2^64.
	if !image.Trusted().Contains(addr, size) {
		return nil, fmt.Errorf("syncguard: exploit range [%#x,+%d) outside the static kernel", addr, size)
	}
	var flipped []uint64
	off := addr - layout.Base
	for page := off / mem.PageSize; page <= (off+uint64(size)-1)/mem.PageSize; page++ {
		pte := layout.PTBase + page
		b, err := image.Mem().ByteAt(pte)
		if err != nil {
			return nil, err
		}
		if b&mem.PTEReadOnly == 0 {
			continue // already writable; nothing to flip
		}
		if err := image.Mem().Write(pte, []byte{b &^ mem.PTEReadOnly}); err != nil {
			return nil, err
		}
		flipped = append(flipped, pte)
	}
	return flipped, nil
}
