package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// crcSum is a TermFold for tests (the package cannot import introspect's
// hashes): CRC-32 streams like djb2, so a range's term is the checksum of
// its bytes. calls, when set, counts how often a fold is actually run.
type crcSum struct{ calls *int }

func (c crcSum) Bytes(h uint64, b []byte) uint64 {
	if c.calls != nil {
		*c.calls++
	}
	return uint64(crc32.Update(uint32(h), crc32.IEEETable, b))
}

func (c crcSum) Fill(h, seed uint64, k, n int) uint64 {
	if c.calls != nil {
		*c.calls++
	}
	var w [8]byte
	for ; n > 0; n-- {
		binary.LittleEndian.PutUint64(w[:], FillWord(seed, k))
		h = uint64(crc32.Update(uint32(h), crc32.IEEETable, w[:]))
		k++
	}
	return h
}

// Sum returns data's term.
func (crcSum) Sum(data []byte) uint64 { return uint64(crc32.ChecksumIEEE(data)) }

// fillRandom is the boot fill as it once ran, eagerly over the whole
// static kernel: splitmix64 stepped once per word, written little-endian,
// the last word cut to the bytes left. FillWord and the generated pages
// are checked against it.
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

// refImage fills a flat live region from seed with the eager fill, installs
// the boot's tables over it with no boot state or page sharing involved,
// and copies the static kernel out as the trusted copy.
func refImage(t *testing.T, layout Layout, seed uint64) (live []byte, gens []uint64, pristine []byte) {
	t.Helper()
	live = make([]byte, layout.TotalSize()+ModuleArenaSize)
	fillRandom(live[:layout.TotalSize()], seed)
	m := newMemory(layout.Base, len(live), nil)
	for p := range m.pages {
		m.pages[p] = live[p*PageSize : p*PageSize+m.pageLen(p)]
	}
	install(m, layout)
	return live, m.gens, append([]byte(nil), live[:layout.TotalSize()]...)
}

// bootBytes returns every static page of b, generating the pages nobody
// has yet: the boot's static kernel, page-rounded with the module arena's
// first zeros.
func bootBytes(b *BootState) []byte {
	out := make([]byte, 0, len(b.pages)*PageSize)
	for p := range b.pages {
		out = append(out, b.page(p)[:]...)
	}
	return out
}

// memoLen counts the terms b's memo holds.
func memoLen(b *BootState) int {
	n := 0
	for _, s := range b.terms {
		if s.n != 0 {
			n++
		}
	}
	return n
}

// regionBytes reads a whole region: an image's live memory or its trusted
// copy.
func regionBytes(t *testing.T, m *Memory) []byte {
	t.Helper()
	out := make([]byte, m.Size())
	if err := m.Read(m.Base(), out); err != nil {
		t.Fatal(err)
	}
	return out
}

// bootState boots an image from seed and returns its boot state.
func bootState(t *testing.T, layout Layout, seed uint64) *BootState {
	t.Helper()
	im, err := NewImage(layout, seed)
	if err != nil {
		t.Fatal(err)
	}
	return im.Boot()
}

// TestBootStateImageMatchesReference pins byte identity: the image that
// booted from the seed and a sibling built later from its boot state both
// hold exactly the live bytes, page generations, trusted bytes and boot
// sums of an image filled in place from the same seed.
func TestBootStateImageMatchesReference(t *testing.T) {
	layout := JunoKernelLayout()
	areas := []Area{{Addr: layout.Base, Size: layout.TotalSize()}, {Addr: layout.SyscallTableAddr, Size: 4096}}
	for _, seed := range []uint64{0, 1, 7, 1<<63 + 12345} {
		live, gens, pristine := refImage(t, layout, seed)
		wants := make([]uint64, len(areas))
		for i, a := range areas {
			wants[i] = crcSum{}.Sum(pristine[a.Addr-layout.Base:][:a.Size])
		}
		booted, err := NewImage(layout, seed)
		if err != nil {
			t.Fatal(err)
		}
		b := booted.Boot()
		if b.Seed() != seed {
			t.Errorf("seed %d: Seed() = %d", seed, b.Seed())
		}
		for _, a := range areas {
			if _, ok := booted.Trusted().BootSum(crcSum{}, a.Addr, a.Size); !ok {
				t.Fatalf("seed %d: the trusted copy refused a boot sum over %v", seed, a)
			}
		}
		sibling, err := b.NewImage()
		if err != nil {
			t.Fatal(err)
		}
		for name, im := range map[string]*Image{"booted": booted, "sibling": sibling} {
			if !bytes.Equal(regionBytes(t, im.Mem()), live) {
				t.Errorf("seed %d, %s: live bytes differ from the reference", seed, name)
			}
			if !slices.Equal(im.mem.gens, gens) {
				t.Errorf("seed %d, %s: page generations differ from the reference", seed, name)
			}
			if !bytes.Equal(regionBytes(t, im.Trusted()), pristine) {
				t.Errorf("seed %d, %s: trusted bytes differ from the reference", seed, name)
			}
			for i, a := range areas {
				for region, m := range map[string]*Memory{"live": im.Mem(), "trusted": im.Trusted()} {
					got, ok := m.BootSum(crcSum{}, a.Addr, a.Size)
					if want := wants[i]; !ok || got != want {
						t.Errorf("seed %d, %s: %s BootSum(%#x,+%d) = %#x, %v; want %#x", seed, name, region, a.Addr, a.Size, got, ok, want)
					}
				}
			}
			if im.Boot() != b {
				t.Errorf("seed %d, %s: image does not report its boot state", seed, name)
			}
		}
		if sibling.Trusted() != booted.Trusted() {
			t.Errorf("seed %d: siblings do not share the boot state's trusted copy", seed)
		}
	}
}

// TestBootStateSiblingIsolation: live memory is private to each image. A
// write to one sibling reaches neither the other sibling nor the shared
// trusted copy.
func TestBootStateSiblingIsolation(t *testing.T) {
	layout := JunoKernelLayout()
	_, gens, pristine := refImage(t, layout, 3)
	b := bootState(t, layout, 3)
	a, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	entry := layout.SyscallEntryAddr(GettidNR)
	if err := a.Mem().PutUint64(entry, 0xBADC0DE); err != nil {
		t.Fatal(err)
	}
	if err := a.Mem().Write(a.ModuleBase(), []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if len(a.Modified()) == 0 {
		t.Error("the written sibling reports no modification")
	}
	if mod := c.Modified(); len(mod) != 0 {
		t.Errorf("the other sibling reports %d modified bytes", len(mod))
	}
	if got, _ := c.Mem().Uint64(entry); got != c.BenignHandler(GettidNR) {
		t.Errorf("the other sibling's entry = %#x, want the benign handler", got)
	}
	if got, _ := c.Mem().ByteAt(c.ModuleBase()); got != 0 {
		t.Errorf("the other sibling's module arena = %#x, want 0", got)
	}
	if !slices.Equal(c.mem.gens, gens) {
		t.Error("the other sibling's page generations moved")
	}
	if !bytes.Equal(regionBytes(t, b.trusted), pristine) {
		t.Error("a sibling's write reached the shared trusted copy")
	}
}

// TestRecapturePristineLeavesSiblings: the trusted boot's recapture gives
// one image a trusted page table of its own. Pages the image wrote are
// copied into it, and later live writes do not reach them; pages it left
// alone stay the boot state's and still answer from the shared memo. The
// shared copy, its memo and every other sibling's view stay untouched.
func TestRecapturePristineLeavesSiblings(t *testing.T) {
	layout := JunoKernelLayout()
	b := bootState(t, layout, 5)
	a, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	table := Area{Addr: layout.SyscallTableAddr, Size: layout.SyscallCount * SyscallEntrySize}
	before, ok := c.Trusted().BootSum(crcSum{}, table.Addr, table.Size)
	if !ok {
		t.Fatal("the boot state's trusted copy refused a boot sum")
	}
	pristineBefore, err := c.Pristine(table.Addr, table.Size)
	if err != nil {
		t.Fatal(err)
	}
	memoBefore := memoLen(b)

	entry := layout.SyscallEntryAddr(GettidNR)
	if err := a.Mem().PutUint64(entry, 0xBADC0DE); err != nil {
		t.Fatal(err)
	}
	a.RecapturePristine()
	if a.Trusted() == b.trusted {
		t.Fatal("RecapturePristine kept the shared trusted copy")
	}
	if mod := a.Modified(); len(mod) != 0 {
		t.Errorf("recaptured image reports %d modified bytes, want 0", len(mod))
	}
	if !bytes.Equal(regionBytes(t, a.Trusted()), regionBytes(t, a.Mem())[:layout.TotalSize()]) {
		t.Error("the recaptured trusted copy differs from the live static kernel")
	}
	if _, ok := a.Trusted().BootSum(crcSum{}, table.Addr, table.Size); ok {
		t.Error("the recaptured copy answered a boot sum over a page the image wrote")
	}
	if err := a.Mem().PutUint64(entry, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Trusted().Uint64(entry); got != 0xBADC0DE {
		t.Errorf("recaptured entry = %#x after a later live write, want 0xbadc0de", got)
	}

	if c.Trusted() != b.trusted {
		t.Error("the other sibling lost the shared trusted copy")
	}
	if got, _ := c.Pristine(table.Addr, table.Size); !bytes.Equal(got, pristineBefore) {
		t.Error("the other sibling's trusted bytes changed")
	}
	if got, ok := b.memoized(int(table.Addr-layout.Base), table.Size); !ok || got != before || memoLen(b) != memoBefore {
		t.Error("the shared memo changed")
	}
	if got, ok := c.Trusted().BootSum(crcSum{}, table.Addr, table.Size); !ok || got != before {
		t.Errorf("the other sibling's sum = %#x, %v; want %#x", got, ok, before)
	}
	calls := 0
	first := crcSum{calls: &calls}
	want, _ := c.Trusted().BootSum(first, layout.Base, PageSize)
	if got, ok := a.Trusted().BootSum(first, layout.Base, PageSize); !ok || got != want || calls != 1 {
		t.Errorf("an unwritten page of the recaptured copy: sum %#x, %v after %d hashes; want %#x from the shared memo", got, ok, calls, want)
	}
	if a.Boot() != b {
		t.Error("a recaptured image must still report the boot state it was built from")
	}
}

// TestRecapturePristineAllocation: the sync guard's trusted boot — its two
// Protect calls, then RecapturePristine — copies only the pages the guard
// wrote, not the 11.9 MB static kernel.
func TestRecapturePristineAllocation(t *testing.T) {
	layout := JunoKernelLayout()
	im, err := bootState(t, layout, 4).NewImage()
	if err != nil {
		t.Fatal(err)
	}
	mmu, err := NewMMU(im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmu.Protect(layout.VBAR, 16*VectorSize); err != nil {
		t.Fatal(err)
	}
	if err := mmu.Protect(layout.SyscallTableAddr, layout.SyscallCount*SyscallEntrySize); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	im.RecapturePristine()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("RecapturePristine allocated %d bytes, want under 256 KiB", got)
	}
	if mod := im.Modified(); len(mod) != 0 {
		t.Errorf("recaptured image reports %d modified bytes, want 0", len(mod))
	}
}

// TestTrustedCopyRefusesWrites: the trusted copy, the boot state's shared
// one and a recaptured one alike, is read-only: Write and RestorePage fail
// and leave its bytes as they were.
func TestTrustedCopyRefusesWrites(t *testing.T) {
	layout := JunoKernelLayout()
	im, err := bootState(t, layout, 6).NewImage()
	if err != nil {
		t.Fatal(err)
	}
	entry := layout.SyscallEntryAddr(GettidNR)
	for _, name := range []string{"boot", "recaptured"} {
		if name == "recaptured" {
			if err := im.Mem().PutUint64(entry, 0xBADC0DE); err != nil {
				t.Fatal(err)
			}
			im.RecapturePristine()
		}
		trusted := im.Trusted()
		before := regionBytes(t, trusted)
		if err := trusted.PutUint64(entry, 0xFEED); err == nil {
			t.Errorf("%s trusted copy: Write accepted", name)
		}
		page := make([]byte, PageSize)
		if err := trusted.RestorePage(0, page); err == nil {
			t.Errorf("%s trusted copy: RestorePage accepted", name)
		}
		if !bytes.Equal(regionBytes(t, trusted), before) {
			t.Errorf("%s trusted copy: bytes changed", name)
		}
	}
}

// TestBootSumMemoized: images sharing a boot state compute each (summer,
// range) once between them, through their live memory and their trusted
// copy alike.
func TestBootSumMemoized(t *testing.T) {
	layout := JunoKernelLayout()
	b := bootState(t, layout, 9)
	calls := 0
	h := crcSum{calls: &calls}
	for i := 0; i < 3; i++ {
		im, err := b.NewImage()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Memory{im.Mem(), im.Trusted()} {
			if _, ok := m.BootSum(h, layout.Base, 4096); !ok {
				t.Fatal("BootSum refused an unwritten page")
			}
		}
	}
	if calls != 1 {
		t.Errorf("one range over three sibling images hashed %d times, want 1", calls)
	}
	im, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := im.Trusted().BootSum(h, layout.Base, 8192); !ok {
		t.Fatal("BootSum refused unwritten pages")
	}
	if calls != 2 {
		t.Errorf("a new range hashed %d times in total, want 2", calls)
	}
}

// TestBootStateConcurrentImages builds, writes, recaptures, reads and sums
// images from one boot state on several goroutines at once (run under
// -race): each even image writes a page the others read through the
// shared boot bytes and recaptures its trusted copy, and BootSum answers
// from the shared memo for the pages an image left alone.
func TestBootStateConcurrentImages(t *testing.T) {
	layout := JunoKernelLayout()
	b := bootState(t, layout, 11)
	data := bootBytes(b)
	want := crcSum{}.Sum(data[:layout.TotalSize()])
	entry := layout.SyscallEntryAddr(GettidNR)
	wantEntry := crcSum{}.Sum(data[entry-layout.Base:][:PageSize])
	wantFirst := crcSum{}.Sum(data[:PageSize])
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = func() error {
				im, err := b.NewImage()
				if err != nil {
					return err
				}
				if g%2 == 1 {
					if got, ok := im.Mem().BootSum(crcSum{}, entry, PageSize); !ok || got != wantEntry {
						return fmt.Errorf("BootSum over an unwritten page = %#x, %v; want %#x", got, ok, wantEntry)
					}
					if got, ok := im.Trusted().BootSum(crcSum{}, layout.Base, layout.TotalSize()); !ok || got != want {
						return fmt.Errorf("whole-kernel BootSum = %#x, %v; want %#x", got, ok, want)
					}
					return nil
				}
				if err := im.Mem().PutUint64(entry, uint64(g)); err != nil {
					return err
				}
				if _, ok := im.Mem().BootSum(crcSum{}, entry, PageSize); ok {
					return fmt.Errorf("BootSum answered over a written page")
				}
				im.RecapturePristine()
				if got, _ := im.Trusted().Uint64(entry); got != uint64(g) {
					return fmt.Errorf("recaptured entry = %#x, want %#x", got, g)
				}
				if _, ok := im.Trusted().BootSum(crcSum{}, layout.Base, layout.TotalSize()); ok {
					return fmt.Errorf("the recaptured copy answered over a written page")
				}
				if got, ok := im.Trusted().BootSum(crcSum{}, layout.Base, PageSize); !ok || got != wantFirst {
					return fmt.Errorf("the recaptured copy's first page = %#x, %v; want %#x", got, ok, wantFirst)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestBootStateNewImageAllocation: an image built from a boot state shares
// its pages, so building one allocates a page table and generation array,
// not a copy of the 14 MB region.
func TestBootStateNewImageAllocation(t *testing.T) {
	b := bootState(t, JunoKernelLayout(), 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	im, err := b.NewImage()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("BootState.NewImage allocated %d bytes, want under 256 KiB", got)
	}
	runtime.KeepAlive(im)
}

// oddLayout is a small kernel whose size is a multiple of neither the page
// nor the word: its last page is partial and its last fill word is cut.
func oddLayout() Layout {
	l := Layout{Base: 0x40000000, SyscallCount: 200}
	addr := l.Base
	for _, sp := range []struct {
		name string
		size int
	}{{".text", 9000}, {".rodata", 7001}, {".data", 5003}} {
		l.Sections = append(l.Sections, Section{Name: sp.name, Addr: addr, Size: sp.size})
		addr += uint64(sp.size)
	}
	l.VBAR = l.Base
	l.SyscallTableAddr = l.Sections[1].Addr
	l.PTBase = l.Sections[2].Addr
	return l
}

// TestGeneratedPagesMatchEagerFill: a boot makes only the pages its table
// installs write, and every page a boot state generates later, published
// on a read or straight into a copy-on-write, equals the eager fill's
// bytes with the installs over them, byte for byte, the page-rounded tail
// zero. FillWord is the eager fill's word sequence.
func TestGeneratedPagesMatchEagerFill(t *testing.T) {
	for _, layout := range []Layout{JunoKernelLayout(), oddLayout()} {
		if err := layout.Validate(); err != nil {
			t.Fatal(err)
		}
		np := layout.PageCount()
		for _, seed := range []uint64{2, 1<<63 + 99} {
			live, gens, _ := refImage(t, layout, seed)
			want := live[:np*PageSize]
			raw := make([]byte, layout.TotalSize())
			fillRandom(raw, seed)
			for k := 0; k < 1000 && 8*k+8 <= len(raw); k++ {
				if got := FillWord(seed, k); got != binary.LittleEndian.Uint64(raw[8*k:]) {
					t.Fatalf("seed %d: FillWord(%d) = %#x, want the eager fill's %#x", seed, k, got, binary.LittleEndian.Uint64(raw[8*k:]))
				}
			}

			b := bootState(t, layout, seed)
			installs := 0
			for p := range b.pages {
				if gens[p] != 0 {
					installs++
				}
				if published := b.pages[p].Load() != nil; published != (gens[p] != 0) {
					t.Errorf("seed %d, page %d: published %v after the boot, but written by the installs %v", seed, p, published, gens[p] != 0)
				}
			}
			if installs == 0 {
				t.Fatalf("seed %d: the installs wrote no page", seed)
			}
			for p := range b.pages {
				if got := b.copyPage(p, PageSize); !bytes.Equal(got, want[p*PageSize:][:PageSize]) {
					t.Errorf("seed %d: page %d generated into a copy differs from the eager fill", seed, p)
				}
			}
			if !bytes.Equal(bootBytes(b), want) {
				t.Errorf("seed %d: published pages differ from the eager fill", seed)
			}
		}
	}
}
