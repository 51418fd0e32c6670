package syncguard

import (
	"bytes"
	"math"
	"testing"
	"time"

	"satin/internal/attack"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
	"satin/internal/trustzone"
)

type rig struct {
	engine  *simclock.Engine
	plat    *hw.Platform
	image   *mem.Image
	os      *richos.OS
	monitor *trustzone.Monitor
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
	os, err := richos.NewOS(p, im, richos.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{engine: e, plat: p, image: im, os: os, monitor: trustzone.NewMonitor(p, 3)}
}

func installedGuard(t *testing.T, r *rig) *Guard {
	t.Helper()
	g := New(r.os)
	if err := g.Install(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGuardBlocksRootkitInstall(t *testing.T) {
	r := newRig(t)
	g := installedGuard(t, r)
	rk := attack.NewRootkit(r.os, r.image)
	if err := rk.Install(0); err == nil {
		t.Fatal("rootkit installed against an active synchronous guard")
	}
	if rk.State() != attack.RootkitHidden {
		t.Error("rootkit state changed despite denial")
	}
	if g.Trapped() != 1 || len(g.Denied()) != 1 {
		t.Errorf("guard trapped %d / denied %d, want 1/1", g.Trapped(), len(g.Denied()))
	}
	// Memory untouched.
	if len(r.image.Modified()) != 0 {
		t.Error("denied install modified kernel memory")
	}
}

func TestGuardBlocksKProber1VectorHijack(t *testing.T) {
	r := newRig(t)
	installedGuard(t, r)
	buf, err := attack.NewReportBuffer(r.plat.NumCores(), attack.JunoCrossCoreNoise(), 9)
	if err != nil {
		t.Fatal(err)
	}
	kp1 := attack.NewKProber1(r.os, buf)
	if err := kp1.Install(false); err == nil {
		t.Fatal("KProber-I hijacked the protected vector table")
	}
	if kp1.Installed() {
		t.Error("KProber-I reports installed after denial")
	}
}

func TestGuardDoubleInstall(t *testing.T) {
	r := newRig(t)
	g := installedGuard(t, r)
	if err := g.Install(); err == nil {
		t.Error("double install accepted")
	}
	if !g.Installed() {
		t.Error("Installed() = false")
	}
}

func TestAPFlipBypassesGuard(t *testing.T) {
	// §VII-A end to end: denied → exploit → undetected success.
	r := newRig(t)
	g := installedGuard(t, r)
	rk := attack.NewRootkit(r.os, r.image)
	if err := rk.Install(0); err == nil {
		t.Fatal("install should be denied before the exploit")
	}
	layout := r.image.Layout()
	entry := layout.SyscallEntryAddr(mem.GettidNR)
	flipped, err := APFlipExploit(r.image, entry, mem.SyscallEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	if len(flipped) != 1 {
		t.Fatalf("exploit flipped %d PTEs, want 1", len(flipped))
	}
	trappedBefore := g.Trapped()
	if err := rk.Install(1); err != nil {
		t.Fatalf("install after AP flip failed: %v", err)
	}
	if g.Trapped() != trappedBefore {
		t.Error("bypassed write still reached the screen; the guard should see nothing")
	}
	if rk.State() != attack.RootkitActive {
		t.Error("rootkit not active")
	}
}

// TestAPFlipExploitValidation: the exploit's range comes from outside
// input (a spec's rootkit_addr). One that is empty or leaves the static
// kernel is refused whole and flips no PTE; the huge and wrapping ranges
// would pass a check that adds size to addr.
func TestAPFlipExploitValidation(t *testing.T) {
	r := newRig(t)
	installedGuard(t, r)
	layout := r.image.Layout()
	ptes := func() []byte {
		b := make([]byte, layout.PageCount())
		if err := r.image.Mem().Read(layout.PTBase, b); err != nil {
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
		{"zero size", layout.Base, 0},
		{"module arena", r.image.ModuleBase(), 8},
		{"below base", layout.Base - 8, 16},
		{"past the end", layout.End() - 8, 4097},
		{"huge", layout.Base, int(min(uint64(1)<<62, uint64(math.MaxInt)))},
		{"huge from the table", layout.SyscallTableAddr, int(min(uint64(1)<<62, uint64(math.MaxInt)))},
		{"wraps", 0xFFFFFFFFFFFFFFFC, 8},
	}
	for _, tc := range cases {
		if flipped, err := APFlipExploit(r.image, tc.addr, tc.size); err == nil {
			t.Errorf("%s: exploit accepted, flipped %d PTEs", tc.name, len(flipped))
		}
	}
	if !bytes.Equal(ptes(), before) {
		t.Error("a refused exploit changed the page table")
	}
	// Flipping an already-writable page is a no-op.
	flipped, err := APFlipExploit(r.image, layout.Base, 8)
	if err != nil || len(flipped) != 0 {
		t.Errorf("no-op exploit: %v, %v", flipped, err)
	}
}

func TestAsyncIntrospectionCatchesTheBypass(t *testing.T) {
	// §VII-C: the layered-defense argument. The synchronous guard is
	// bypassed, but SATIN's next pass flags BOTH traces: the hijacked
	// syscall table (area 14) and the flipped PTE bytes (area 17).
	r := newRig(t)
	installedGuard(t, r)
	checker, err := introspect.NewChecker(r.image, r.plat.Perf(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// SATIN boots from the post-protection trusted image (the guard
	// already recaptured it), so a clean pass would raise nothing.
	areas, err := mem.BuildAreas(r.image.Layout(), mem.JunoAreaGroups())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := introspect.GoldenTable(r.image, introspect.HashDjb2, areas)
	if err != nil {
		t.Fatal(err)
	}

	// The attack: exploit, then hijack; no evasion (the point here is the
	// trace inventory, not the race).
	entry := r.image.Layout().SyscallEntryAddr(mem.GettidNR)
	if _, err := APFlipExploit(r.image, entry, mem.SyscallEntrySize); err != nil {
		t.Fatal(err)
	}
	rk := attack.NewRootkit(r.os, r.image)
	if err := rk.Install(0); err != nil {
		t.Fatal(err)
	}

	// One asynchronous check of each area: areas 14 and 17 must mismatch.
	var dirty []int
	var scan func(i int)
	scan = func(i int) {
		if i == len(areas) {
			return
		}
		err := r.monitor.RequestSecure(4, func(ctx *trustzone.Context) {
			cerr := checker.Check(ctx, introspect.DirectHash, areas[i].Addr, areas[i].Size, func(res introspect.Result) {
				if res.Sum != golden[i] {
					dirty = append(dirty, i)
				}
				ctx.Exit()
				r.engine.After(time.Millisecond, "next", func() { scan(i + 1) })
			})
			if cerr != nil {
				t.Errorf("check %d: %v", i, cerr)
				ctx.Exit()
			}
		})
		if err != nil {
			t.Errorf("entry %d: %v", i, err)
		}
	}
	scan(0)
	r.engine.Run()
	if len(dirty) != 2 || dirty[0] != 14 || dirty[1] != 17 {
		t.Errorf("dirty areas = %v, want [14 17] (syscall table + flipped PTE)", dirty)
	}
}

func TestGuardProtectedStateHashesClean(t *testing.T) {
	// Installing the guard must not, by itself, trip asynchronous
	// introspection: the trusted image is recaptured after protection.
	r := newRig(t)
	installedGuard(t, r)
	if mod := r.image.Modified(); len(mod) != 0 {
		t.Errorf("guarded-but-unattacked image shows %d modified bytes", len(mod))
	}
}
