package richos

import (
	"strings"
	"testing"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/simclock"
)

func TestSyscallBenignDispatch(t *testing.T) {
	e, _, _, os := newRig(t)
	var got uint64
	var gotErr error
	done := false
	if _, err := os.Spawn("caller", PolicyCFS, 0, []int{0}, ProgramFunc(func(tc *ThreadContext) Step {
		if done {
			return Exit()
		}
		got, gotErr = tc.Syscall(mem.GettidNR)
		done = true
		return Compute(time.Microsecond)
	})); err != nil {
		t.Fatal(err)
	}
	e.RunFor(10 * time.Millisecond)
	if gotErr != nil || got != uint64(mem.GettidNR) {
		t.Errorf("Syscall(gettid) = %d, %v; want %d", got, gotErr, mem.GettidNR)
	}
}

func TestSyscallHijackThroughLiveTable(t *testing.T) {
	e, _, im, os := newRig(t)
	// The rootkit pattern: register malicious code in the module arena and
	// rewrite the live table entry to point at it.
	evil := im.ModuleBase() + 0x100
	hijackCalls := 0
	os.RegisterSyscallHandler(evil, func(tc *ThreadContext, nr int) uint64 {
		hijackCalls++
		return 0xBAD
	})
	entry := im.Layout().SyscallEntryAddr(mem.GettidNR)
	if err := im.Mem().PutUint64(entry, evil); err != nil {
		t.Fatal(err)
	}
	var results []uint64
	calls := 0
	if _, err := os.Spawn("victim", PolicyCFS, 0, []int{0}, ProgramFunc(func(tc *ThreadContext) Step {
		calls++
		switch calls {
		case 1:
			v, err := tc.Syscall(mem.GettidNR)
			if err != nil {
				t.Errorf("hijacked syscall errored: %v", err)
			}
			results = append(results, v)
			// Attacker restores the entry (hiding its trace).
			benign, err := im.Pristine(entry, 8)
			if err == nil {
				err = im.Mem().Write(entry, benign)
			}
			if err != nil {
				t.Errorf("restore: %v", err)
			}
			return Compute(time.Microsecond)
		case 2:
			v, err := tc.Syscall(mem.GettidNR)
			if err != nil {
				t.Errorf("restored syscall errored: %v", err)
			}
			results = append(results, v)
			return Compute(time.Microsecond)
		default:
			return Exit()
		}
	})); err != nil {
		t.Fatal(err)
	}
	e.RunFor(50 * time.Millisecond)
	if hijackCalls != 1 {
		t.Errorf("malicious handler called %d times, want 1", hijackCalls)
	}
	if len(results) != 2 || results[0] != 0xBAD || results[1] != uint64(mem.GettidNR) {
		t.Errorf("results = %v, want [0xBAD, gettid]", results)
	}
}

func TestSyscallOutOfRangeAndUnmapped(t *testing.T) {
	e, _, im, os := newRig(t)
	checked := false
	if _, err := os.Spawn("prober", PolicyCFS, 0, []int{0}, ProgramFunc(func(tc *ThreadContext) Step {
		if checked {
			return Exit()
		}
		checked = true
		if _, err := tc.Syscall(-1); err == nil {
			t.Error("negative syscall accepted")
		}
		if _, err := tc.Syscall(im.Layout().SyscallCount); err == nil {
			t.Error("out-of-range syscall accepted")
		}
		// Point an entry at unmapped code: the call must fail.
		entry := im.Layout().SyscallEntryAddr(5)
		if err := im.Mem().PutUint64(entry, 0xDEAD); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.Syscall(5); err == nil {
			t.Error("unmapped syscall vector dispatched")
		}
		return Compute(time.Microsecond)
	})); err != nil {
		t.Fatal(err)
	}
	e.RunFor(10 * time.Millisecond)
	if !checked {
		t.Fatal("prober never ran")
	}
}

func TestIRQVectorHijack(t *testing.T) {
	e, _, im, os := newRig(t)
	// KProber-I pattern: prober body in the module arena, IRQ vector
	// rewritten to reach it, trampoline back into the kernel tick.
	proberAddr := im.ModuleBase() + 0x2000
	proberTicks := 0
	os.RegisterIRQHandler(proberAddr, func(coreID int) {
		proberTicks++
		os.KernelTick(coreID) // trampoline to the original handler
	})
	if err := im.Mem().PutUint64(im.Layout().IRQVectorAddr(), proberAddr); err != nil {
		t.Fatal(err)
	}
	// A busy thread keeps core 0 out of NO_HZ idle so ticks keep coming.
	if _, err := os.Spawn("busy", PolicyCFS, 0, []int{0}, &busyLoop{quantum: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	e.RunFor(100 * time.Millisecond)
	// HZ=250 ⇒ 25 ticks in 100ms on the busy core.
	if proberTicks < 20 || proberTicks > 30 {
		t.Errorf("hijacked handler ran %d times, want ≈25 (HZ=250)", proberTicks)
	}
	if crashed, msg := os.Crashed(); crashed {
		t.Errorf("kernel crashed: %s", msg)
	}
	// The hijack is visible in memory: introspection diff shows the vector.
	modified := im.Modified()
	if len(modified) == 0 {
		t.Fatal("vector hijack left no memory trace")
	}
	vecAddr := im.Layout().IRQVectorAddr()
	for _, a := range modified {
		if a < vecAddr || a >= vecAddr+8 {
			t.Errorf("unexpected modified byte at %#x", a)
		}
	}
}

func TestIRQVectorToGarbageCrashesKernel(t *testing.T) {
	e, _, im, os := newRig(t)
	if err := im.Mem().PutUint64(im.Layout().IRQVectorAddr(), 0x1234); err != nil {
		t.Fatal(err)
	}
	th, err := os.Spawn("busy", PolicyCFS, 0, []int{0}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(100 * time.Millisecond)
	crashed, msg := os.Crashed()
	if !crashed {
		t.Fatal("kernel survived a garbage IRQ vector")
	}
	if !strings.Contains(msg, "unmapped") {
		t.Errorf("crash message = %q", msg)
	}
	// After the crash nothing runs.
	if th.CPUTime() > 10*time.Millisecond {
		t.Errorf("thread kept running after crash: %v", th.CPUTime())
	}
}

func TestSecureWorldPausesPinnedThread(t *testing.T) {
	e, p, _, os := newRig(t)
	th, err := os.Spawn("pinned", PolicyCFS, 0, []int{2}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var pausedThreads []*Thread
	os.OnSecurePause(func(t *Thread, coreID int) { pausedThreads = append(pausedThreads, t) })

	// Steal core 2 for 20ms starting at t=50ms.
	e.After(50*time.Millisecond, "steal", func() { p.Core(2).SetWorld(hw.SecureWorld) })
	e.After(70*time.Millisecond, "release", func() { p.Core(2).SetWorld(hw.NormalWorld) })
	e.RunFor(100 * time.Millisecond)

	// The thread lost the 20ms window: ~80ms of CPU, not 100.
	if th.CPUTime() < 75*time.Millisecond || th.CPUTime() > 85*time.Millisecond {
		t.Errorf("CPUTime = %v, want ≈80ms (paused during secure window)", th.CPUTime())
	}
	if th.SecurePauses() != 1 {
		t.Errorf("SecurePauses = %d, want 1", th.SecurePauses())
	}
	if len(pausedThreads) != 1 || pausedThreads[0] != th {
		t.Errorf("pause hook saw %v", pausedThreads)
	}
	if th.LastCore() != 2 {
		t.Errorf("pinned thread migrated to core %d", th.LastCore())
	}
}

func TestSecureWorldMigratesUnpinnedThread(t *testing.T) {
	e, p, _, os := newRig(t)
	// Two floating threads; give each its own core initially.
	a, err := os.Spawn("a", PolicyCFS, 0, []int{0, 1}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.Spawn("b", PolicyCFS, 0, []int{0, 1}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Steal whichever core thread a is on.
	var stolen int
	e.After(50*time.Millisecond, "steal", func() {
		stolen = a.LastCore()
		p.Core(stolen).SetWorld(hw.SecureWorld)
	})
	e.RunFor(100 * time.Millisecond)
	// a should have migrated to the other core and kept running (sharing).
	if a.LastCore() == stolen {
		t.Errorf("unpinned thread stayed on stolen core %d", stolen)
	}
	// Both threads keep accumulating CPU: combined ≈ 100ms (one core) +
	// 50ms (second core before steal).
	total := a.CPUTime() + b.CPUTime()
	if total < 140*time.Millisecond {
		t.Errorf("combined CPU = %v, want ≈150ms", total)
	}
}

// TestThreadContextTracksMigration: a floating thread that the secure world
// chases from core to core sees, at every step, its own thread and the core
// it runs on, though every step is handed the same context.
func TestThreadContextTracksMigration(t *testing.T) {
	e, p, _, os := newRig(t)
	threads := map[*Thread]bool{}
	seen := map[int]bool{}
	steps := 0
	th, err := os.Spawn("mover", PolicyCFS, 0, []int{0, 1}, ProgramFunc(func(tc *ThreadContext) Step {
		steps++
		if tc.CoreID() != tc.Thread().LastCore() {
			t.Errorf("step %d: context says core %d, thread last ran on %d", steps, tc.CoreID(), tc.Thread().LastCore())
		}
		threads[tc.Thread()] = true
		seen[tc.CoreID()] = true
		return Compute(time.Millisecond)
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Steal the thread's core twice, releasing the first before the second
	// steal, so it migrates away and back.
	var first int
	e.After(20*time.Millisecond, "steal", func() {
		first = th.LastCore()
		p.Core(first).SetWorld(hw.SecureWorld)
	})
	e.After(40*time.Millisecond, "release", func() { p.Core(first).SetWorld(hw.NormalWorld) })
	e.After(50*time.Millisecond, "steal again", func() { p.Core(th.LastCore()).SetWorld(hw.SecureWorld) })
	e.RunFor(80 * time.Millisecond)
	if !seen[0] || !seen[1] || steps < 50 {
		t.Fatalf("thread ran %d steps on cores %v, want both cores 0 and 1", steps, seen)
	}
	if len(threads) != 1 || !threads[th] {
		t.Fatalf("context named %d threads, want only %v", len(threads), th)
	}
}

func TestSleepingPinnedThreadWaitsForSecureExit(t *testing.T) {
	e, p, _, os := newRig(t)
	prog := &periodic{work: 100 * time.Microsecond, sleep: 10 * time.Millisecond}
	if _, err := os.Spawn("reporter", PolicyFIFO, MaxRTPriority, []int{3}, prog); err != nil {
		t.Fatal(err)
	}
	// Steal core 3 from 35ms to 85ms.
	e.After(35*time.Millisecond, "steal", func() { p.Core(3).SetWorld(hw.SecureWorld) })
	e.After(85*time.Millisecond, "release", func() { p.Core(3).SetWorld(hw.NormalWorld) })
	e.RunFor(150 * time.Millisecond)

	// No run instant may fall inside the secure window: the pinned
	// reporter freezes — this IS the side channel TZ-Evader reads.
	for _, at := range prog.ranAt {
		d := at.Duration()
		if d > 36*time.Millisecond && d < 85*time.Millisecond {
			t.Errorf("pinned thread ran at %v inside the secure window", at)
		}
	}
	// And it resumes promptly after release.
	resumed := false
	for _, at := range prog.ranAt {
		d := at.Duration()
		if d >= 85*time.Millisecond && d < 87*time.Millisecond {
			resumed = true
		}
	}
	if !resumed {
		t.Errorf("thread did not resume promptly; runs: %v", prog.ranAt)
	}
}

func TestTickStallsWhileCoreSecure(t *testing.T) {
	e, p, im, os := newRig(t)
	proberAddr := im.ModuleBase() + 0x2000
	var tickTimes []simclock.Time
	os.RegisterIRQHandler(proberAddr, func(coreID int) {
		tickTimes = append(tickTimes, e.Now())
		os.KernelTick(coreID)
	})
	if err := im.Mem().PutUint64(im.Layout().IRQVectorAddr(), proberAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Spawn("busy", PolicyCFS, 0, []int{0}, &busyLoop{quantum: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	e.After(40*time.Millisecond, "steal", func() { p.Core(0).SetWorld(hw.SecureWorld) })
	e.After(80*time.Millisecond, "release", func() { p.Core(0).SetWorld(hw.NormalWorld) })
	e.RunFor(150 * time.Millisecond)
	// Ticks must not fire on the core while it is in the secure world
	// (they pend at the GIC), and must resume after release.
	var during, after int
	for _, at := range tickTimes {
		d := at.Duration()
		if d > 40*time.Millisecond && d < 80*time.Millisecond {
			during++
		}
		if d >= 80*time.Millisecond {
			after++
		}
	}
	if during != 0 {
		t.Errorf("%d ticks fired during the secure window (KProber-I would keep reporting!)", during)
	}
	if after < 10 {
		t.Errorf("only %d ticks after release; tick chain did not resume", after)
	}
}

func TestCurrentThreadAndReadCounter(t *testing.T) {
	e, _, _, os := newRig(t)
	th, err := os.Spawn("busy", PolicyCFS, 0, []int{5}, &busyLoop{quantum: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(5 * time.Millisecond)
	if os.CurrentThread(5) != th {
		t.Error("CurrentThread(5) mismatch")
	}
	if os.IdleCore(5) {
		t.Error("busy core reported idle")
	}
	if os.ReadCounter() != simclock.Time(5*time.Millisecond) {
		t.Errorf("ReadCounter = %v", os.ReadCounter())
	}
}
