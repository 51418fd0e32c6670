package mem

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func newMMURig(t *testing.T, fault FaultHandler) (*Image, *MMU) {
	t.Helper()
	im, err := NewJunoImage(42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMMU(im, fault)
	if err != nil {
		t.Fatal(err)
	}
	return im, m
}

func TestLayoutCarriesPageTable(t *testing.T) {
	l := JunoKernelLayout()
	if l.PTBase == 0 {
		t.Fatal("Juno layout has no page table")
	}
	// 11,916,240 bytes at 4 KiB per page.
	if got := l.PageCount(); got != 2910 {
		t.Errorf("PageCount = %d, want 2910", got)
	}
	// The table lives inside .data_b — area 17 of the Juno partition — so
	// PTE tampering is introspection-visible.
	s, err := l.SectionContaining(l.PTBase)
	if err != nil || s.Name != ".data_b" {
		t.Errorf("page table in section %q, %v; want .data_b", s.Name, err)
	}
	areas, err := BuildAreas(l, JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := AreaContaining(areas, l.PTBase)
	if err != nil || idx != 17 {
		t.Errorf("page table in area %d, %v; want 17", idx, err)
	}
}

func TestImageBootsAllPagesWritable(t *testing.T) {
	im, m := newMMURig(t, nil)
	l := im.Layout()
	for _, addr := range []uint64{l.Base, l.SyscallTableAddr, l.IRQVectorAddr(), l.End() - 1} {
		ro, err := m.ReadOnly(addr)
		if err != nil {
			t.Fatal(err)
		}
		if ro {
			t.Errorf("page of %#x boots read-only", addr)
		}
	}
	if len(im.Modified()) != 0 {
		t.Error("zeroed page table should be part of the pristine image")
	}
}

func TestMMUWriteThroughWhenWritable(t *testing.T) {
	im, m := newMMURig(t, nil)
	entry := im.Layout().SyscallEntryAddr(GettidNR)
	if err := m.PutUint64(entry, 0x1234); err != nil {
		t.Fatalf("write to writable page failed: %v", err)
	}
	got, err := im.Mem().Uint64(entry)
	if err != nil || got != 0x1234 {
		t.Errorf("entry = %#x, %v", got, err)
	}
	if err := m.Write(entry, nil); err != nil {
		t.Errorf("empty write errored: %v", err)
	}
}

func TestMMUProtectTrapsWrites(t *testing.T) {
	denied := errors.New("screened and denied")
	faults := 0
	im, m := newMMURig(t, func(addr uint64, data []byte) error {
		faults++
		return denied
	})
	l := im.Layout()
	tableSize := l.SyscallCount * SyscallEntrySize
	if err := m.Protect(l.SyscallTableAddr, tableSize); err != nil {
		t.Fatal(err)
	}
	entry := l.SyscallEntryAddr(GettidNR)
	before, err := im.Mem().Uint64(entry)
	if err != nil {
		t.Fatal(err)
	}
	err = m.PutUint64(entry, 0xBAD)
	if !errors.Is(err, denied) {
		t.Fatalf("protected write error = %v, want screened denial", err)
	}
	if faults != 1 {
		t.Errorf("fault handler ran %d times, want 1", faults)
	}
	after, err := im.Mem().Uint64(entry)
	if err != nil || after != before {
		t.Error("denied write modified memory")
	}
	// Raw physical access (the DMA/exploit channel) is NOT mediated.
	if err := im.Mem().PutUint64(entry, before); err != nil {
		t.Errorf("raw write failed: %v", err)
	}
}

func TestMMUNoHandlerDeniesByDefault(t *testing.T) {
	im, m := newMMURig(t, nil)
	l := im.Layout()
	if err := m.Protect(l.VBAR, VectorSize*16); err != nil {
		t.Fatal(err)
	}
	if err := m.PutUint64(l.IRQVectorAddr(), 0xBAD); err == nil {
		t.Error("write to protected page succeeded with no fault handler")
	}
}

func TestMMUFaultHandlerCanAllow(t *testing.T) {
	im, m := newMMURig(t, func(addr uint64, data []byte) error {
		return nil // the screen approves this write
	})
	l := im.Layout()
	if err := m.Protect(l.SyscallTableAddr, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.PutUint64(l.SyscallTableAddr, 0x77); err != nil {
		t.Errorf("approved write failed: %v", err)
	}
	got, err := im.Mem().Uint64(l.SyscallTableAddr)
	if err != nil || got != 0x77 {
		t.Errorf("approved write not applied: %#x, %v", got, err)
	}
}

func TestMMUUnprotect(t *testing.T) {
	im, m := newMMURig(t, nil)
	l := im.Layout()
	if err := m.Protect(l.SyscallTableAddr, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Unprotect(l.SyscallTableAddr, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.PutUint64(l.SyscallTableAddr, 0x42); err != nil {
		t.Errorf("write after unprotect failed: %v", err)
	}
}

func TestMMUWriteSpanningPages(t *testing.T) {
	im, m := newMMURig(t, nil)
	l := im.Layout()
	// Protect only the second of two adjacent pages; a straddling write
	// must be denied entirely.
	pageBoundary := l.Base + 2*PageSize
	if err := m.Protect(pageBoundary, 8); err != nil {
		t.Fatal(err)
	}
	straddle := pageBoundary - 4
	before := make([]byte, 8)
	if err := im.Mem().Read(straddle, before); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(straddle, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("straddling write into protected page succeeded")
	}
	after := make([]byte, 8)
	if err := im.Mem().Read(straddle, after); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("denied straddling write partially applied")
		}
	}
}

func TestMMUModuleArenaAlwaysWritable(t *testing.T) {
	im, m := newMMURig(t, nil)
	if err := m.Write(im.ModuleBase()+0x10, []byte{0xAA}); err != nil {
		t.Errorf("module arena write through MMU failed: %v", err)
	}
	ro, err := m.ReadOnly(im.ModuleBase())
	if err != nil || ro {
		t.Errorf("module arena reported read-only: %v, %v", ro, err)
	}
}

// TestMMUProtectValidation: a range that is empty or leaves the static
// kernel is refused whole, and a refused Protect or Unprotect changes no
// PTE byte, not even the pages of the range that lie inside the kernel.
// The huge and wrapping ranges would pass a check that adds size to addr.
func TestMMUProtectValidation(t *testing.T) {
	im, m := newMMURig(t, nil)
	l := im.Layout()
	if err := m.Protect(l.SyscallTableAddr, 8); err != nil {
		t.Fatal(err)
	}
	ptes := func() []byte {
		b := make([]byte, l.PageCount())
		if err := im.Mem().Read(l.PTBase, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := ptes()
	cases := []struct {
		name string
		addr uint64
		size int
	}{
		{"zero size", l.Base, 0},
		{"negative size", l.Base, -1},
		{"module arena", im.ModuleBase(), 8},
		{"below base", l.Base - 8, 16},
		{"past the end", l.End() - 8, 4097},
		{"huge", l.Base, int(min(uint64(1)<<62, uint64(math.MaxInt)))},
		{"wraps", 0xFFFFFFFFFFFFFFFC, 8},
	}
	for _, tc := range cases {
		for name, set := range map[string]func(uint64, int) error{"Protect": m.Protect, "Unprotect": m.Unprotect} {
			if err := set(tc.addr, tc.size); err == nil {
				t.Errorf("%s: %s accepted the range", tc.name, name)
			}
			if !bytes.Equal(ptes(), before) {
				t.Fatalf("%s: a refused %s changed the page table", tc.name, name)
			}
		}
	}
	if _, err := m.PTEAddrOf(im.ModuleBase()); err == nil {
		t.Error("PTEAddrOf outside kernel accepted")
	}
}

// TestMMUProtectCoversEveryOverlappedPage: a short range that crosses a
// page boundary protects both pages it touches, and nothing beyond.
func TestMMUProtectCoversEveryOverlappedPage(t *testing.T) {
	im, m := newMMURig(t, nil)
	l := im.Layout()
	if err := m.Protect(l.Base+PageSize-96, 200); err != nil {
		t.Fatal(err)
	}
	for page, want := range []bool{true, true, false} {
		ro, err := m.ReadOnly(l.Base + uint64(page)*PageSize)
		if err != nil || ro != want {
			t.Errorf("page %d read-only = %v, %v; want %v", page, ro, err, want)
		}
	}
}

func TestAPFlipExploitPath(t *testing.T) {
	// The §VII-A bypass end to end: protected page, write denied; the
	// write-what-where exploit flips the PTE byte through raw physical
	// access; the same write now sails through with NO fault — and the
	// flipped PTE byte is a modification in area 17 that asynchronous
	// introspection can find.
	faults := 0
	im, m := newMMURig(t, func(uint64, []byte) error {
		faults++
		return errors.New("denied")
	})
	l := im.Layout()
	if err := m.Protect(l.SyscallTableAddr, l.SyscallCount*SyscallEntrySize); err != nil {
		t.Fatal(err)
	}
	im.RecapturePristine()
	entry := l.SyscallEntryAddr(GettidNR)
	if err := m.PutUint64(entry, 0xBAD); err == nil {
		t.Fatal("hijack succeeded against the guard")
	}

	// write-what-where: clear the read-only bit via raw physical write.
	pte, err := m.PTEAddrOf(entry)
	if err != nil {
		t.Fatal(err)
	}
	b, err := im.Mem().ByteAt(pte)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Mem().Write(pte, []byte{b &^ PTEReadOnly}); err != nil {
		t.Fatal(err)
	}
	faultsBefore := faults
	if err := m.PutUint64(entry, 0xBAD); err != nil {
		t.Fatalf("hijack after AP flip failed: %v", err)
	}
	if faults != faultsBefore {
		t.Error("bypassed write still trapped")
	}
	// The exploit left its own trace: modified bytes in the page table
	// (area 17) and the syscall table (area 14).
	mod := im.Modified()
	sawPTE, sawEntry := false, false
	for _, a := range mod {
		if a == pte {
			sawPTE = true
		}
		if a >= entry && a < entry+8 {
			sawEntry = true
		}
	}
	if !sawPTE || !sawEntry {
		t.Errorf("modified set misses the attack traces: pte=%v entry=%v", sawPTE, sawEntry)
	}
}

func TestNewMMURequiresPageTable(t *testing.T) {
	l := JunoKernelLayout()
	l.PTBase = 0
	im, err := NewImage(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMMU(im, nil); err == nil || !strings.Contains(err.Error(), "page table") {
		t.Errorf("NewMMU without page table: %v", err)
	}
}
