package mem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// crcSum is a Summer for tests (the package cannot import introspect's
// hashes). calls, when set, counts how often a sum is actually computed.
type crcSum struct{ calls *int }

func (c crcSum) Sum(data []byte) uint64 {
	if c.calls != nil {
		*c.calls++
	}
	return uint64(crc32.ChecksumIEEE(data))
}

// refImage fills a flat live region in place from seed, with no boot state
// or page sharing involved, and copies the static kernel out as the
// pristine copy.
func refImage(t *testing.T, layout Layout, seed uint64) (live []byte, gens []uint64, pristine []byte) {
	t.Helper()
	live = make([]byte, layout.TotalSize()+ModuleArenaSize)
	m := newMemory(layout.Base, len(live), live, true)
	fill(m, live, layout, seed)
	return live, m.gens, append([]byte(nil), live[:layout.TotalSize()]...)
}

// liveBytes reads an image's whole live region.
func liveBytes(t *testing.T, im *Image) []byte {
	t.Helper()
	out := make([]byte, im.mem.Size())
	if err := im.mem.Read(im.mem.Base(), out); err != nil {
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
// hold exactly the live bytes, page generations, pristine bytes and
// pristine sums of an image filled in place from the same seed.
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
			if _, err := booted.PristineSum(crcSum{}, a.Addr, a.Size); err != nil {
				t.Fatal(err)
			}
		}
		sibling, err := b.NewImage()
		if err != nil {
			t.Fatal(err)
		}
		for name, im := range map[string]*Image{"booted": booted, "sibling": sibling} {
			if !bytes.Equal(liveBytes(t, im), live) {
				t.Errorf("seed %d, %s: live bytes differ from the reference", seed, name)
			}
			if !slices.Equal(im.mem.gens, gens) {
				t.Errorf("seed %d, %s: page generations differ from the reference", seed, name)
			}
			if !bytes.Equal(im.pristine.data, pristine) {
				t.Errorf("seed %d, %s: pristine bytes differ from the reference", seed, name)
			}
			for i, a := range areas {
				got, err := im.PristineSum(crcSum{}, a.Addr, a.Size)
				if want := wants[i]; err != nil || got != want {
					t.Errorf("seed %d, %s: PristineSum(%#x,+%d) = %#x, %v; want %#x", seed, name, a.Addr, a.Size, got, err, want)
				}
			}
			if im.Boot() != b {
				t.Errorf("seed %d, %s: image does not report its boot state", seed, name)
			}
		}
		if sibling.pristine != booted.pristine {
			t.Errorf("seed %d: siblings do not share the boot state's pristine copy", seed)
		}
	}
}

// TestBootStateSiblingIsolation: live memory is private to each image. A
// write to one sibling reaches neither the other sibling nor the shared
// pristine copy.
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
	if !bytes.Equal(b.pristine.data, pristine) {
		t.Error("a sibling's write reached the shared pristine copy")
	}
}

// TestRecapturePristineLeavesSiblings: the trusted boot's recapture gives
// one image its own pristine copy and an empty memo, leaving the shared
// copy, its memo, and every other sibling's view untouched.
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
	before, err := c.PristineSum(crcSum{}, table.Addr, table.Size)
	if err != nil {
		t.Fatal(err)
	}
	pristineBefore, err := c.Pristine(table.Addr, table.Size)
	if err != nil {
		t.Fatal(err)
	}
	memoBefore := len(b.pristine.sums)

	entry := layout.SyscallEntryAddr(GettidNR)
	if err := a.Mem().PutUint64(entry, 0xBADC0DE); err != nil {
		t.Fatal(err)
	}
	if err := a.RecapturePristine(); err != nil {
		t.Fatal(err)
	}
	if a.pristine == b.pristine {
		t.Fatal("RecapturePristine kept the shared pristine copy")
	}
	if len(a.pristine.sums) != 0 {
		t.Errorf("recaptured image starts with %d memoized sums, want 0", len(a.pristine.sums))
	}
	if mod := a.Modified(); len(mod) != 0 {
		t.Errorf("recaptured image reports %d modified bytes, want 0", len(mod))
	}
	after, err := a.PristineSum(crcSum{}, table.Addr, table.Size)
	if err != nil || after == before {
		t.Errorf("recaptured image's sum = %#x, %v; want the recaptured bytes' sum, not the boot's %#x", after, err, before)
	}

	if c.pristine != b.pristine {
		t.Error("the other sibling lost the shared pristine copy")
	}
	if got, _ := c.Pristine(table.Addr, table.Size); !bytes.Equal(got, pristineBefore) {
		t.Error("the other sibling's pristine bytes changed")
	}
	if got, ok := b.pristine.sums[sumKey{h: crcSum{}, off: int(table.Addr - layout.Base), n: table.Size}]; !ok || got != before || len(b.pristine.sums) != memoBefore {
		t.Error("the shared memo changed")
	}
	if got, err := c.PristineSum(crcSum{}, table.Addr, table.Size); err != nil || got != before {
		t.Errorf("the other sibling's sum = %#x, %v; want %#x", got, err, before)
	}
	if a.Boot() != b {
		t.Error("a recaptured image must still report the boot state it was built from")
	}
}

// TestPristineSumMemoized: images sharing a boot state compute each
// (summer, range) once between them.
func TestPristineSumMemoized(t *testing.T) {
	layout := JunoKernelLayout()
	b := bootState(t, layout, 9)
	calls := 0
	h := crcSum{calls: &calls}
	for i := 0; i < 3; i++ {
		im, err := b.NewImage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := im.PristineSum(h, layout.Base, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Errorf("one range over three sibling images hashed %d times, want 1", calls)
	}
	im, err := b.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.PristineSum(h, layout.Base, 8192); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("a new range hashed %d times in total, want 2", calls)
	}
}

// TestBootStateConcurrentImages builds, writes, reads and sums images from
// one boot state on several goroutines at once (run under -race): each
// image writes pages the others read through the shared boot bytes, and
// BootSum answers from the shared memo for the pages it left alone.
func TestBootStateConcurrentImages(t *testing.T) {
	layout := JunoKernelLayout()
	b := bootState(t, layout, 11)
	want := crcSum{}.Sum(b.pristine.data)
	entry := layout.SyscallEntryAddr(GettidNR)
	wantEntry := crcSum{}.Sum(b.pristine.data[entry-layout.Base:][:PageSize])
	var wg sync.WaitGroup
	errs := make([]error, 4)
	sums := make([]uint64, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			im, err := b.NewImage()
			if err != nil {
				errs[g] = err
				return
			}
			if g%2 == 0 {
				if err := im.Mem().PutUint64(entry, uint64(g)); err != nil {
					errs[g] = err
					return
				}
				if _, ok := im.BootSum(crcSum{}, entry, PageSize); ok {
					errs[g] = fmt.Errorf("BootSum answered over a written page")
					return
				}
			} else if got, ok := im.BootSum(crcSum{}, entry, PageSize); !ok || got != wantEntry {
				errs[g] = fmt.Errorf("BootSum over an unwritten page = %#x, %v; want %#x", got, ok, wantEntry)
				return
			}
			sums[g], errs[g] = im.PristineSum(crcSum{}, layout.Base, layout.TotalSize())
		}()
	}
	wg.Wait()
	for g := range errs {
		if errs[g] != nil || sums[g] != want {
			t.Errorf("goroutine %d: sum %#x, %v; want %#x", g, sums[g], errs[g], want)
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
