package introspect

import (
	"runtime"
	"testing"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/simclock"
	"satin/internal/trustzone"
)

type rig struct {
	engine  *simclock.Engine
	plat    *hw.Platform
	image   *mem.Image
	monitor *trustzone.Monitor
	checker *Checker
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := simclock.NewEngine()
	p, err := hw.NewJunoR1(e)
	if err != nil {
		t.Fatal(err)
	}
	im, err := mem.NewJunoImage(42)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChecker(im, p.Perf(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{engine: e, plat: p, image: im, monitor: trustzone.NewMonitor(p, 3), checker: ch}
}

// restoreStatic rewrites the n bytes at addr with their pristine content —
// the model of the evader "recovering the malicious byte as benign".
func restoreStatic(im *mem.Image, addr uint64, n int) error {
	benign, err := im.Pristine(addr, n)
	if err != nil {
		return err
	}
	return im.Mem().Write(addr, benign)
}

// naiveSum hashes the n live bytes at addr with the byte-at-a-time
// reference, the expectation every cached or boot-term check must meet.
func naiveSum(t *testing.T, im *mem.Image, addr uint64, n int) uint64 {
	t.Helper()
	buf := make([]byte, n)
	if err := im.Mem().Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	return djb2UpdateRef(Djb2Seed, buf)
}

// checkOn runs one check synchronously-in-sim and returns the result.
func (r *rig) checkOn(t *testing.T, coreID int, tech Technique, addr uint64, size int) Result {
	t.Helper()
	var out Result
	got := false
	err := r.monitor.RequestSecure(coreID, func(ctx *trustzone.Context) {
		if err := r.checker.Check(ctx, tech, addr, size, func(res Result) {
			out = res
			got = true
			ctx.Exit()
		}); err != nil {
			t.Errorf("Check: %v", err)
			ctx.Exit()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.engine.Run()
	if !got {
		t.Fatal("check never completed")
	}
	return out
}

func TestNewCheckerValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewChecker(nil, r.plat.Perf(), 1); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := NewChecker(r.image, r.plat.Perf(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestCheckValidation: a check refused for its size, range or technique
// fails synchronously and never reaches introspect.checks.
func TestCheckValidation(t *testing.T) {
	r := newRig(t)
	reg := obs.NewRegistry()
	r.checker.Observe(reg)
	err := r.monitor.RequestSecure(0, func(ctx *trustzone.Context) {
		defer ctx.Exit()
		if err := r.checker.Check(ctx, DirectHash, r.image.Layout().Base, 0, nil); err == nil {
			t.Error("zero size accepted")
		}
		if err := r.checker.Check(ctx, DirectHash, 0, 16, nil); err == nil {
			t.Error("unmapped range accepted")
		}
		if err := r.checker.Check(ctx, Technique(9), r.image.Layout().Base, 16, nil); err == nil {
			t.Error("unknown technique accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.engine.Run()
	if got := reg.Counter("introspect.checks").Value(); got != 0 {
		t.Errorf("introspect.checks = %d after three rejected checks, want 0", got)
	}
}

func TestCleanKernelMatchesGolden(t *testing.T) {
	r := newRig(t)
	layout := r.image.Layout()
	areas, err := mem.BuildAreas(layout, mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenTable(r.image, HashDjb2, areas)
	if err != nil {
		t.Fatal(err)
	}
	// Check three representative areas on an A57 core.
	for _, idx := range []int{0, 14, 18} {
		a := areas[idx]
		res := r.checkOn(t, 4, DirectHash, a.Addr, a.Size)
		if res.Sum != golden[idx] {
			t.Errorf("clean area %d hash %#x != golden %#x", idx, res.Sum, golden[idx])
		}
	}
}

func TestDirectHashDetectsModification(t *testing.T) {
	r := newRig(t)
	layout := r.image.Layout()
	entry := layout.SyscallEntryAddr(mem.GettidNR)
	if err := r.image.Mem().PutUint64(entry, r.image.ModuleBase()+0x40); err != nil {
		t.Fatal(err)
	}
	areas, err := mem.BuildAreas(layout, mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenTable(r.image, HashDjb2, areas)
	if err != nil {
		t.Fatal(err)
	}
	res := r.checkOn(t, 4, DirectHash, areas[14].Addr, areas[14].Size)
	if res.Sum == golden[14] {
		t.Error("modified area hashed clean")
	}
	// Neighboring areas remain clean.
	res = r.checkOn(t, 4, DirectHash, areas[13].Addr, areas[13].Size)
	if res.Sum != golden[13] {
		t.Error("unmodified area hashed dirty")
	}
}

func TestCheckTimingMatchesTable1(t *testing.T) {
	// Table I: hashing the full kernel (11,916,240 B) takes
	// size × Ts_1byte: ≈0.080 s average on A57 (6.71 ns/B) and
	// ≈0.127 s on A53 (10.7 ns/B). The paper quotes "the average time for
	// one core to conduct a kernel integrity check is 8.04e-2 s".
	r := newRig(t)
	layout := r.image.Layout()
	size := layout.TotalSize()

	resA57 := r.checkOn(t, 4, DirectHash, layout.Base, size)
	if got := resA57.Elapsed().Seconds(); got < 0.075 || got > 0.095 {
		t.Errorf("A57 full-kernel hash took %.4f s, want ≈0.080 s", got)
	}
	resA53 := r.checkOn(t, 0, DirectHash, layout.Base, size)
	if got := resA53.Elapsed().Seconds(); got < 0.10 || got > 0.145 {
		t.Errorf("A53 full-kernel hash took %.4f s, want ≈0.127 s", got)
	}
	if resA57.Elapsed() >= resA53.Elapsed() {
		t.Error("A57 not faster than A53")
	}
}

func TestSnapshotTimingAndResult(t *testing.T) {
	r := newRig(t)
	layout := r.image.Layout()
	areas, err := mem.BuildAreas(layout, mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	a := areas[3] // largest
	golden, err := GoldenRange(r.image, HashDjb2, a.Addr, a.Size)
	if err != nil {
		t.Fatal(err)
	}
	res := r.checkOn(t, 4, SnapshotHash, a.Addr, a.Size)
	if res.Sum != golden {
		t.Error("snapshot hash of clean area mismatched golden")
	}
	// Snapshot per-byte ≈ 6.75 ns on A57 ⇒ 876,616 B ≈ 5.9 ms.
	if got := res.Elapsed(); got < 5*time.Millisecond || got > 7*time.Millisecond {
		t.Errorf("snapshot of largest area took %v, want ≈5.9ms", got)
	}
}

func TestSnapshotFreezesBytesAtCapture(t *testing.T) {
	// A write AFTER the capture pass but BEFORE analysis completes must
	// still be detected... from the snapshot's perspective: the snapshot
	// holds the malicious bytes captured earlier even though live memory
	// was restored — the TOCTTOU-resistance of the snapshot technique.
	r := newRig(t)
	layout := r.image.Layout()
	areas, err := mem.BuildAreas(layout, mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	a := areas[14]
	golden, err := GoldenRange(r.image, HashDjb2, a.Addr, a.Size)
	if err != nil {
		t.Fatal(err)
	}
	entry := layout.SyscallEntryAddr(mem.GettidNR)
	if err := r.image.Mem().PutUint64(entry, r.image.ModuleBase()+0x40); err != nil {
		t.Fatal(err)
	}
	// Restore the entry late in the check: after capture (first ~50% of
	// ~4.2ms), before analysis ends.
	r.engine.After(3*time.Millisecond, "late-restore", func() {
		if err := restoreStatic(r.image, entry, 8); err != nil {
			t.Error(err)
		}
	})
	res := r.checkOn(t, 4, SnapshotHash, a.Addr, a.Size)
	if res.Sum == golden {
		t.Error("snapshot technique missed bytes restored after capture")
	}
}

// TestSnapshotSumIsTheCapturedBytes: a SnapshotHash sums each chunk as it
// was when the capture pass copied it. Area 14's first chunk is the syscall
// table; the capture pass over the area ends about 2.1 ms into the check
// on an A57, and the analysis of the frozen copy about 2.1 ms later.
func TestSnapshotSumIsTheCapturedBytes(t *testing.T) {
	cases := []struct {
		name string
		// word picks the 8 bytes to overwrite, given the layout and area.
		word func(l mem.Layout, a mem.Area) uint64
		at   time.Duration
		// live: the sum is the live area's at the end; otherwise the clean
		// golden, though live memory is dirty.
		live bool
	}{
		{"written after its chunk was captured",
			func(l mem.Layout, _ mem.Area) uint64 { return l.SyscallEntryAddr(mem.GettidNR) },
			time.Millisecond, false},
		{"written before its chunk was captured",
			func(_ mem.Layout, a mem.Area) uint64 { return a.Addr + uint64(a.Size) - 16 },
			time.Millisecond, true},
		{"written after the capture pass",
			func(_ mem.Layout, a mem.Area) uint64 { return a.Addr + uint64(a.Size) - 16 },
			3 * time.Millisecond, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			areas, err := mem.BuildAreas(r.image.Layout(), mem.JunoAreaGroups())
			if err != nil {
				t.Fatal(err)
			}
			a := areas[14]
			golden, err := GoldenRange(r.image, HashDjb2, a.Addr, a.Size)
			if err != nil {
				t.Fatal(err)
			}
			addr := tc.word(r.image.Layout(), a)
			r.engine.After(tc.at, "write", func() {
				v, err := r.image.Mem().Uint64(addr)
				if err == nil {
					err = r.image.Mem().PutUint64(addr, ^v)
				}
				if err != nil {
					t.Error(err)
				}
			})
			res := r.checkOn(t, 4, SnapshotHash, a.Addr, a.Size)
			live := naiveSum(t, r.image, a.Addr, a.Size)
			if live == golden {
				t.Fatal("the write left the area clean")
			}
			want := golden
			if tc.live {
				want = live
			}
			if res.Sum != want {
				t.Errorf("sum %#x, want %#x (golden %#x, live %#x)", res.Sum, want, golden, live)
			}
		})
	}
}

// TestSnapshotAllocatesNoCopy: a snapshot folds each chunk as it copies it,
// so even a whole-kernel SnapshotHash on a fresh checker holds no copy of
// the range in simulator memory.
func TestSnapshotAllocatesNoCopy(t *testing.T) {
	r := newRig(t)
	layout := r.image.Layout()
	before := totalAlloc()
	res := r.checkOn(t, 4, SnapshotHash, layout.Base, layout.TotalSize())
	if got := totalAlloc() - before; got >= 64<<10 {
		t.Errorf("whole-kernel snapshot allocated %d bytes, want under 64 KiB", got)
	}
	if want := naiveSum(t, r.image, layout.Base, layout.TotalSize()); res.Sum != want {
		t.Errorf("sum %#x, want %#x", res.Sum, want)
	}
}

// TestBootAllocatesNoKernel: booting the paper's kernel and taking its
// golden table folds every chunk's term from the boot fill's words, so the
// boot stage allocates page tables and the term memo, not the 11.9 MB
// static kernel.
func TestBootAllocatesNoKernel(t *testing.T) {
	areas, err := mem.BuildAreas(mem.JunoKernelLayout(), mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	im, err := mem.NewJunoImage(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GoldenTable(im, HashDjb2, areas); err != nil {
		t.Fatal(err)
	}
	if got := totalAlloc() - before; got >= 1<<20 {
		t.Errorf("boot and golden table allocated %d bytes, want under 1 MiB", got)
	}
	runtime.KeepAlive(im)
}

// TestBootTermSlotsAreCompact: the boot state's term memo keeps 4 slots
// per static page, each a 32-bit offset and length and a term, 16 bytes.
// With int fields a slot was 24 bytes on a 64-bit build, and booting the
// paper's kernel plus its golden table allocated 551,304 bytes.
func TestBootTermSlotsAreCompact(t *testing.T) {
	areas, err := mem.BuildAreas(mem.JunoKernelLayout(), mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	im, err := mem.NewJunoImage(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GoldenTable(im, HashDjb2, areas); err != nil {
		t.Fatal(err)
	}
	if got := totalAlloc() - before; got >= 480_000 {
		t.Errorf("boot and golden table allocated %d bytes, want under 480,000", got)
	}
	runtime.KeepAlive(im)
}

// TestHashCacheOffGeneratesPagesOnce: a checker with the cache off reads
// every page, so turning the cache off generates the boot pages up front;
// the golden pass then folds their bytes, and neither it nor a full scan
// of the areas after it generates a page again (a generated page would
// allocate 4 KiB).
func TestHashCacheOffGeneratesPagesOnce(t *testing.T) {
	r := newRig(t)
	r.checker.SetHashCache(false)
	areas, err := mem.BuildAreas(r.image.Layout(), mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	golden, err := GoldenTable(r.image, HashDjb2, areas)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range areas {
		if res := r.checkOn(t, 4, DirectHash, a.Addr, a.Size); res.Sum != golden[i] {
			t.Errorf("area %d: sum %#x, want the golden %#x", i, res.Sum, golden[i])
		}
	}
	if got := totalAlloc() - before; got >= 64<<10 {
		t.Errorf("golden pass and scan with the cache off allocated %d bytes, want under 64 KiB", got)
	}
}

func TestDirectHashRaceEvaderWinsWhenRestoredBeforeTouch(t *testing.T) {
	// The core TOCTTOU race of Figure 3: the malicious bytes sit deep in
	// the checked range; the evader restores them before the checker's
	// sequential scan reaches them, so the check comes back clean.
	r := newRig(t)
	layout := r.image.Layout()
	entry := layout.SyscallEntryAddr(mem.GettidNR) // ~9.7 MB into the kernel
	if err := r.image.Mem().PutUint64(entry, r.image.ModuleBase()+0x40); err != nil {
		t.Fatal(err)
	}
	size := layout.TotalSize()
	golden, err := GoldenRange(r.image, HashDjb2, layout.Base, size)
	if err != nil {
		t.Fatal(err)
	}
	// Full scan takes ≈80 ms on A57; the syscall table (~81% in) is
	// touched at ≈65 ms. Restoring at 10 ms beats the scan comfortably.
	r.engine.After(10*time.Millisecond, "evade", func() {
		if err := restoreStatic(r.image, entry, 8); err != nil {
			t.Error(err)
		}
	})
	res := r.checkOn(t, 4, DirectHash, layout.Base, size)
	if res.Sum != golden {
		t.Error("checker detected bytes that were restored before it touched them; race model broken")
	}
}

func TestDirectHashRaceCheckerWinsWhenRestoredTooLate(t *testing.T) {
	r := newRig(t)
	layout := r.image.Layout()
	entry := layout.SyscallEntryAddr(mem.GettidNR)
	if err := r.image.Mem().PutUint64(entry, r.image.ModuleBase()+0x40); err != nil {
		t.Fatal(err)
	}
	size := layout.TotalSize()
	golden, err := GoldenRange(r.image, HashDjb2, layout.Base, size)
	if err != nil {
		t.Fatal(err)
	}
	// Restore at 75 ms: the scan already passed the syscall table (~65 ms).
	r.engine.After(75*time.Millisecond, "too-late", func() {
		if err := restoreStatic(r.image, entry, 8); err != nil {
			t.Error(err)
		}
	})
	res := r.checkOn(t, 4, DirectHash, layout.Base, size)
	if res.Sum == golden {
		t.Error("checker missed bytes it touched before they were restored")
	}
}

func TestGoldenTableMatchesAreas(t *testing.T) {
	r := newRig(t)
	areas, err := mem.BuildAreas(r.image.Layout(), mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenTable(r.image, HashDjb2, areas)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 19 {
		t.Fatalf("golden table has %d entries, want 19", len(golden))
	}
	// All distinct (pseudo-random content makes collisions implausible).
	seen := make(map[uint64]bool)
	for _, h := range golden {
		if seen[h] {
			t.Error("duplicate golden hash")
		}
		seen[h] = true
	}
}

func TestTechniqueStrings(t *testing.T) {
	if DirectHash.String() != "hash" || SnapshotHash.String() != "snapshot" {
		t.Error("technique names wrong")
	}
	if Technique(9).String() == "" {
		t.Error("unknown technique must render")
	}
}

func TestBufferBytesReflectsTechnique(t *testing.T) {
	// Table I's memory claim: direct hashing needs no copy buffer; the
	// snapshot approach buffers the whole range.
	r := newRig(t)
	areas, err := mem.BuildAreas(r.image.Layout(), mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	a := areas[5]
	direct := r.checkOn(t, 4, DirectHash, a.Addr, a.Size)
	if direct.BufferBytes != 0 {
		t.Errorf("DirectHash BufferBytes = %d, want 0", direct.BufferBytes)
	}
	snap := r.checkOn(t, 4, SnapshotHash, a.Addr, a.Size)
	if snap.BufferBytes != a.Size {
		t.Errorf("SnapshotHash BufferBytes = %d, want %d", snap.BufferBytes, a.Size)
	}
}
