package mem

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m, err := NewMemory(0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.Base() != 0x1000 || m.Size() != 64 {
		t.Errorf("Base/Size = %#x/%d", m.Base(), m.Size())
	}
	if err := m.Write(0x1010, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := m.Read(0x1010, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Errorf("Read = %v", buf)
	}
	b, err := m.ByteAt(0x1011)
	if err != nil || b != 2 {
		t.Errorf("ByteAt = %v, %v", b, err)
	}
}

func TestMemoryBounds(t *testing.T) {
	m, err := NewMemory(0x1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		addr uint64
		n    int
	}{
		{"below base", 0xFFF, 1},
		{"past end", 0x1010, 1},
		{"straddles end", 0x100F, 2},
		{"negative length", 0x1000, -1},
		{"huge length", 0x1000, int(min(uint64(1)<<40, uint64(math.MaxInt)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if m.Contains(tc.addr, tc.n) {
				t.Error("Contains = true, want false")
			}
			if views, err := m.Views(tc.addr, tc.n, nil); err == nil || len(views) != 0 {
				t.Errorf("Views = %d views, %v out of bounds; want an error and none", len(views), err)
			}
		})
	}
	if !m.Contains(0x1000, 16) {
		t.Error("full-range Contains = false")
	}
	if !m.Contains(0x100F, 1) {
		t.Error("last-byte Contains = false")
	}
	if !m.Contains(0x1010, 0) {
		t.Error("zero-length at end should be contained")
	}
}

func TestNewMemoryRejectsNonPositiveSize(t *testing.T) {
	if _, err := NewMemory(0, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewMemory(0, -5); err == nil {
		t.Error("negative size accepted")
	}
}

// TestMemoryViews: Views splits a range at page boundaries, a view of an
// owned page aliases it, and a view of a shared page keeps the boot bytes
// after another image built from the same boot state writes that page.
func TestMemoryViews(t *testing.T) {
	m, err := NewMemory(0, 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(PageSize-2, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	views, err := m.Views(PageSize-2, PageSize+4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 || len(views[0]) != 2 || len(views[1]) != PageSize || len(views[2]) != 2 {
		t.Fatalf("Views over two page boundaries gave %d views, want 3 of 2, %d and 2 bytes", len(views), PageSize)
	}
	if views[0][0] != 9 || views[1][1] != 9 {
		t.Errorf("views read %v and %v, want the written 9s", views[0], views[1][:2])
	}
	if err := m.Write(PageSize-2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if views[0][0] != 1 {
		t.Error("a view of an owned page does not alias it")
	}
	dst := make([][]byte, 0, 4)
	if got, err := m.Views(0, 10, dst); err != nil || len(got) != 1 || &got[:1][0] != &dst[:1][0] {
		t.Errorf("Views did not append into dst's capacity (%d views, %v)", len(got), err)
	}

	layout := JunoKernelLayout()
	b := bootState(t, layout, 4)
	a, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	entry := layout.SyscallEntryAddr(GettidNR)
	shared, err := a.Mem().Views(entry, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(shared[0])
	if err := c.Mem().PutUint64(entry, 0xBADC0DE); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shared[0], before) {
		t.Error("a sibling's write reached a view of a shared page")
	}
	if got, _ := c.Mem().Uint64(entry); got != 0xBADC0DE {
		t.Errorf("the writing sibling reads %#x, want its write", got)
	}
}

func TestMemoryUint64RoundTrip(t *testing.T) {
	m, err := NewMemory(0x100, 16)
	if err != nil {
		t.Fatal(err)
	}
	const v = 0xDEADBEEF12345678
	if err := m.PutUint64(0x104, v); err != nil {
		t.Fatal(err)
	}
	got, err := m.Uint64(0x104)
	if err != nil || got != v {
		t.Errorf("Uint64 = %#x, %v; want %#x", got, err, uint64(v))
	}
	// Little-endian byte order (ARM).
	b, err := m.ByteAt(0x104)
	if err != nil || b != 0x78 {
		t.Errorf("low byte = %#x, want 0x78 (little-endian)", b)
	}
}

func TestJunoKernelLayoutGeometry(t *testing.T) {
	l := JunoKernelLayout()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The paper's kernel is 11,916,240 bytes (§IV-C).
	if got := l.TotalSize(); got != 11916240 {
		t.Errorf("TotalSize = %d, want 11916240", got)
	}
	// The syscall table must hold gettid.
	if l.SyscallCount <= GettidNR {
		t.Errorf("SyscallCount = %d, must exceed GettidNR %d", l.SyscallCount, GettidNR)
	}
	// The gettid entry lies inside .rodata.syscalls.
	s, err := l.SectionContaining(l.SyscallEntryAddr(GettidNR))
	if err != nil || s.Name != ".rodata.syscalls" {
		t.Errorf("gettid entry in section %q, %v; want .rodata.syscalls", s.Name, err)
	}
	// The IRQ vector lies inside .text.entry.
	s, err = l.SectionContaining(l.IRQVectorAddr())
	if err != nil || s.Name != ".text.entry" {
		t.Errorf("IRQ vector in section %q, %v; want .text.entry", s.Name, err)
	}
}

func TestJunoAreasMatchPaper(t *testing.T) {
	l := JunoKernelLayout()
	areas, err := BuildAreas(l, JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	// §VI-A2: 19 areas, largest 876,616 bytes, smallest 431,360 bytes.
	if len(areas) != 19 {
		t.Fatalf("len(areas) = %d, want 19", len(areas))
	}
	if got := MaxAreaSize(areas); got != 876616 {
		t.Errorf("largest area = %d, want 876616", got)
	}
	if got := MinAreaSize(areas); got != 431360 {
		t.Errorf("smallest area = %d, want 431360", got)
	}
	// §IV-C: every area respects the race bound of 1,218,351 bytes.
	for _, a := range areas {
		if a.Size >= 1218351 {
			t.Errorf("%v exceeds the evasion-race bound", a)
		}
	}
	// Areas tile the kernel contiguously.
	next := l.Base
	total := 0
	for _, a := range areas {
		if a.Addr != next {
			t.Errorf("%v starts at %#x, want %#x", a, a.Addr, next)
		}
		next = a.End()
		total += a.Size
	}
	if total != l.TotalSize() {
		t.Errorf("areas cover %d bytes, kernel has %d", total, l.TotalSize())
	}
	// §VI-B1: the syscall table lives in area 14.
	idx, err := AreaContaining(areas, l.SyscallEntryAddr(GettidNR))
	if err != nil || idx != 14 {
		t.Errorf("gettid entry in area %d, %v; want 14", idx, err)
	}
	// KProber-I's vector-table trace is inside the checked region (area 0).
	idx, err = AreaContaining(areas, l.IRQVectorAddr())
	if err != nil || idx != 0 {
		t.Errorf("IRQ vector in area %d, %v; want 0", idx, err)
	}
}

func TestBuildAreasRejectsBadGroups(t *testing.T) {
	l := JunoKernelLayout()
	cases := []struct {
		name   string
		groups [][]int
	}{
		{"empty group", [][]int{{}}},
		{"out of order", [][]int{{1, 0}}},
		{"gap", [][]int{{0}, {2}}},
		{"incomplete cover", [][]int{{0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildAreas(l, tc.groups); err == nil {
				t.Error("BuildAreas accepted invalid groups")
			}
		})
	}
}

func TestPartitionSectionsGreedy(t *testing.T) {
	sections := []Section{
		{Name: "a", Addr: 0, Size: 400},
		{Name: "b", Addr: 400, Size: 400},
		{Name: "c", Addr: 800, Size: 400},
		{Name: "d", Addr: 1200, Size: 100},
	}
	groups, err := PartitionSections(sections, 900)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy: [a b], [c d].
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Errorf("groups = %v", groups)
	}
	// Oversized section is an error.
	if _, err := PartitionSections(sections, 399); err == nil {
		t.Error("oversized section accepted")
	}
	if _, err := PartitionSections(sections, 0); err == nil {
		t.Error("non-positive maxSize accepted")
	}
}

func TestPartitionSectionsProperty(t *testing.T) {
	// Property: for arbitrary section sizes under the cap, the partition
	// tiles in order and every area respects the cap.
	f := func(sizes []uint16) bool {
		const cap = 5000
		sections := make([]Section, 0, len(sizes))
		addr := uint64(0)
		for _, raw := range sizes {
			size := int(raw%cap) + 1
			sections = append(sections, Section{Name: "s", Addr: addr, Size: size})
			addr += uint64(size)
		}
		if len(sections) == 0 {
			return true
		}
		groups, err := PartitionSections(sections, cap)
		if err != nil {
			return false
		}
		next := 0
		for _, g := range groups {
			total := 0
			for _, si := range g {
				if si != next {
					return false
				}
				total += sections[si].Size
				next++
			}
			if total > cap || len(g) == 0 {
				return false
			}
		}
		return next == len(sections)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionThenBuildRoundTrip(t *testing.T) {
	l := JunoKernelLayout()
	groups, err := PartitionSections(l.Sections, 1218350)
	if err != nil {
		t.Fatal(err)
	}
	areas, err := BuildAreas(l, groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range areas {
		if a.Size > 1218350 {
			t.Errorf("%v exceeds cap", a)
		}
	}
}

func TestImageBootAndPristine(t *testing.T) {
	im, err := NewJunoImage(7)
	if err != nil {
		t.Fatal(err)
	}
	l := im.Layout()
	// Syscall table entries point at benign handlers.
	got, err := im.Mem().Uint64(l.SyscallEntryAddr(GettidNR))
	if err != nil || got != im.BenignHandler(GettidNR) {
		t.Errorf("gettid entry = %#x, %v; want %#x", got, err, im.BenignHandler(GettidNR))
	}
	// Vector table entries are installed.
	vec, err := im.Mem().Uint64(l.IRQVectorAddr())
	if err != nil || vec == 0 {
		t.Errorf("IRQ vector = %#x, %v; want nonzero", vec, err)
	}
	// Image boots clean.
	if mod := im.Modified(); len(mod) != 0 {
		t.Errorf("freshly booted image has %d modified bytes", len(mod))
	}
	// Deterministic content across boots with the same seed.
	im2, err := NewJunoImage(7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := im.Pristine(l.Base, 4096)
	b, _ := im2.Pristine(l.Base, 4096)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different images")
	}
	// Different seed produces different content.
	im3, err := NewJunoImage(8)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := im3.Pristine(l.Base, 4096)
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical images")
	}
}

func TestImageModifyAndRestore(t *testing.T) {
	im, err := NewJunoImage(1)
	if err != nil {
		t.Fatal(err)
	}
	l := im.Layout()
	entry := l.SyscallEntryAddr(GettidNR)
	evil := im.ModuleBase() + 0x100
	if err := im.Mem().PutUint64(entry, evil); err != nil {
		t.Fatal(err)
	}
	mod := im.Modified()
	if len(mod) == 0 || len(mod) > 8 {
		t.Errorf("Modified reports %d bytes, want 1..8", len(mod))
	}
	for _, addr := range mod {
		if addr < entry || addr >= entry+8 {
			t.Errorf("modified byte %#x outside hijacked entry", addr)
		}
	}
	benign, err := im.Pristine(entry, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Mem().Write(entry, benign); err != nil {
		t.Fatal(err)
	}
	if mod := im.Modified(); len(mod) != 0 {
		t.Errorf("after restore, %d bytes still modified", len(mod))
	}
	got, err := im.Mem().Uint64(entry)
	if err != nil || got != im.BenignHandler(GettidNR) {
		t.Errorf("restored entry = %#x, want benign handler", got)
	}
}

// TestImagePristineBounds: the trusted copy spans exactly the static
// kernel, so Pristine rejects a range outside it with an error and
// BootSum, over live memory or the trusted copy, with ok=false. The
// negative and huge lengths wrap addr+n past the end check at the kernel's
// high base address, so the check must never add n to addr.
func TestImagePristineBounds(t *testing.T) {
	im, err := NewJunoImage(1)
	if err != nil {
		t.Fatal(err)
	}
	l := im.Layout()
	regions := map[string]*Memory{"live": im.Mem(), "trusted": im.Trusted()}
	cases := []struct {
		name string
		addr uint64
		n    int
	}{
		{"module arena", im.ModuleBase(), 8},
		{"below base", l.Base - 1, 8},
		{"n=-1", l.Base, -1},
		{"n=-50", l.Base + 100, -50},
		{"n=1<<62", l.Base, int(min(uint64(1)<<62, uint64(math.MaxInt)))},
		{"addr past end", l.End() + 1, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := im.Pristine(tc.addr, tc.n); err == nil {
				t.Error("Pristine accepted the range")
			}
			if im.Trusted().Contains(tc.addr, tc.n) {
				t.Error("the trusted copy contains the range")
			}
			for name, m := range regions {
				if _, ok := m.BootSum(crcSum{}, tc.addr, tc.n); ok {
					t.Errorf("%s BootSum answered for the range", name)
				}
			}
		})
	}
	for _, addr := range []uint64{l.Base, l.End() - 16} {
		if v, err := im.Pristine(addr, 16); err != nil || len(v) != 16 {
			t.Errorf("Pristine(%#x, 16) = %d bytes, %v", addr, len(v), err)
		}
		for name, m := range regions {
			if _, ok := m.BootSum(crcSum{}, addr, 16); !ok {
				t.Errorf("%s BootSum(%#x, 16) did not answer for an unwritten range", name, addr)
			}
		}
	}
	if base, size := im.Trusted().Base(), im.Trusted().Size(); base != l.Base || size != l.TotalSize() {
		t.Errorf("trusted copy spans [%#x,+%d), want the static kernel [%#x,+%d)", base, size, l.Base, l.TotalSize())
	}
	fresh, err := NewMemory(l.Base, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.BootSum(crcSum{}, l.Base, 16); ok {
		t.Error("BootSum answered for a region with no boot state")
	}
}

func TestModuleArenaMapped(t *testing.T) {
	im, err := NewJunoImage(1)
	if err != nil {
		t.Fatal(err)
	}
	// Module arena is writable memory outside the static kernel.
	if err := im.Mem().Write(im.ModuleBase(), []byte{0xAA}); err != nil {
		t.Errorf("module arena write: %v", err)
	}
	if len(im.Modified()) != 0 {
		t.Error("module arena writes must not count as static-kernel modifications")
	}
	if im.ModuleBase() != im.Layout().End() {
		t.Error("module arena should start at kernel end")
	}
}

func TestSectionLookup(t *testing.T) {
	l := JunoKernelLayout()
	s, err := l.Section(".text.fs")
	if err != nil || s.Size != 876616 {
		t.Errorf("Section(.text.fs) = %+v, %v", s, err)
	}
	if _, err := l.Section(".nope"); err == nil {
		t.Error("unknown section lookup succeeded")
	}
	if _, err := l.SectionContaining(l.Base - 1); err == nil {
		t.Error("SectionContaining below base succeeded")
	}
	if _, err := l.SectionContaining(l.End()); err == nil {
		t.Error("SectionContaining at end succeeded")
	}
}

func TestLayoutValidateCatchesDefects(t *testing.T) {
	good := JunoKernelLayout()
	mutate := []struct {
		name string
		fn   func(*Layout)
	}{
		{"no sections", func(l *Layout) { l.Sections = nil }},
		{"gap", func(l *Layout) { l.Sections[1].Addr += 8 }},
		{"zero size", func(l *Layout) { l.Sections[0].Size = 0 }},
		{"duplicate name", func(l *Layout) { l.Sections[1].Name = l.Sections[0].Name }},
		{"syscall table outside", func(l *Layout) { l.SyscallTableAddr = l.End() }},
		{"tiny syscall table", func(l *Layout) { l.SyscallCount = 10 }},
		{"vbar outside", func(l *Layout) { l.VBAR = l.Base - 0x1000 }},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			l := JunoKernelLayout()
			l.Sections = append([]Section(nil), good.Sections...)
			tc.fn(&l)
			if err := l.Validate(); err == nil {
				t.Error("defect passed validation")
			}
		})
	}
}

func TestPageGenerationsTrackWrites(t *testing.T) {
	m, err := NewMemory(0x8000, 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x8000)
	check := func(step string, want ...uint64) {
		t.Helper()
		if got := m.PageGens(); !slices.Equal(got, want) {
			t.Fatalf("%s: page generations %v, want %v", step, got, want)
		}
	}
	check("fresh", 0, 0, 0)
	// A write inside one page bumps that page only.
	if err := m.Write(base+10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	check("one-page write", 1, 0, 0)
	// A straddling write bumps every page it touches, once each.
	if err := m.Write(base+PageSize-2, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	check("straddling write", 2, 1, 0)
	// PutUint64 routes through Write and counts too.
	if err := m.PutUint64(base+2*PageSize, 42); err != nil {
		t.Fatal(err)
	}
	check("PutUint64", 2, 1, 1)
	// Zero-length writes bump nothing.
	if err := m.Write(base, nil); err != nil {
		t.Fatal(err)
	}
	check("empty write", 2, 1, 1)
	// PageGens is a copy, and SetPageGens installs an array of the
	// region's length only.
	m.PageGens()[0] = 99
	check("after mutating a copy", 2, 1, 1)
	if err := m.SetPageGens([]uint64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	check("SetPageGens", 5, 6, 7)
	if err := m.SetPageGens([]uint64{1}); err == nil {
		t.Error("SetPageGens accepted a short array")
	}
}

func TestGenSumAndGenerations(t *testing.T) {
	m, err := NewMemory(0, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.GenSum(0, 4*PageSize); s != 0 {
		t.Fatalf("fresh GenSum = %d, want 0", s)
	}
	if s := m.GenSum(0, 0); s != 0 {
		t.Fatalf("empty-range GenSum = %d, want 0", s)
	}
	for i := 0; i < 3; i++ {
		if err := m.Write(PageSize, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Write(3*PageSize, []byte{9}); err != nil {
		t.Fatal(err)
	}
	// GenSum over all pages = 3 (page 1) + 1 (page 3).
	if s := m.GenSum(0, 4*PageSize); s != 4 {
		t.Fatalf("GenSum all = %d, want 4", s)
	}
	// A sub-range that misses page 3 sums only page 1's writes.
	if s := m.GenSum(0, 2*PageSize); s != 3 {
		t.Fatalf("GenSum pages 0-1 = %d, want 3", s)
	}
	// A one-byte range at the end of page 1 still sees its generation.
	if s := m.GenSum(2*PageSize-1, 1); s != 3 {
		t.Fatalf("GenSum last byte of page 1 = %d, want 3", s)
	}
}
