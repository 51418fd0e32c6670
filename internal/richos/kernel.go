package richos

import (
	"fmt"
	"time"

	"satin/internal/mem"
	"satin/internal/simclock"
)

// armTick schedules the next scheduling-clock tick for a core. The tick is
// raised through the GIC as the non-secure timer PPI, so while the core is
// held by the secure world the interrupt pends and the tick chain stalls —
// exactly what freezes KProber-I's reports.
func (os *OS) armTick(cs *coreState) {
	cs.tickArmed = true
	period := time.Second / time.Duration(os.cfg.HZ)
	os.platform.Engine().ScheduleAfter(period, "tick", cs.onTick)
}

// handleTimerIRQ is the CPU's response to the non-secure timer PPI: fetch
// the IRQ exception vector from kernel memory and jump to whatever it
// points at. This is the dispatch KProber-I hijacks by rewriting the vector
// bytes — and the hijack is visible to any introspection that hashes the
// vector table's area.
func (os *OS) handleTimerIRQ(coreID int) {
	if os.crashed {
		return
	}
	vector, err := os.image.Mem().Uint64(os.image.Layout().IRQVectorAddr())
	if err != nil {
		os.crash(fmt.Sprintf("IRQ vector unreadable: %v", err))
		return
	}
	handler, ok := os.irqHandlers[vector]
	if !ok {
		// The vector points into the weeds: instant kernel panic.
		os.crash(fmt.Sprintf("IRQ vector %#x points at unmapped code", vector))
		return
	}
	handler(coreID)
}

// KernelTick is the benign timer-interrupt body: run the scheduler's tick
// work and re-arm the per-core timer. A hijacking IRQ handler that wants to
// stay stealthy must call this to resume normal interrupt handling, just as
// KProber-I's trampoline jumps back to the original handler.
func (os *OS) KernelTick(coreID int) {
	cs := os.cores[coreID]
	os.schedulerTick(cs)
	// CONFIG_NO_HZ_IDLE: keep ticking only while there is work.
	if cs.current != nil || cs.readyCount() > 0 {
		os.armTick(cs)
	} else {
		cs.tickArmed = false
	}
}

// schedulerTick is the CFS preemption check: round-robin the core among CFS
// threads once the running one has had its slice.
func (os *OS) schedulerTick(cs *coreState) {
	t := cs.current
	if t == nil || t.policy != PolicyCFS || len(cs.cfs) == 0 {
		return
	}
	ran := os.platform.Engine().Now().Sub(cs.sliceStart)
	if ran < os.cfg.CFSSlice {
		return
	}
	os.preempt(cs)
	os.dispatch(cs)
}

// dispatchSyscall performs a system call: fetch the handler pointer from the
// live syscall table in kernel memory and jump to it.
func (os *OS) dispatchSyscall(tc *ThreadContext, nr int) (uint64, error) {
	layout := os.image.Layout()
	if nr < 0 || nr >= layout.SyscallCount {
		return 0, fmt.Errorf("richos: syscall %d out of range", nr)
	}
	target, err := os.image.Mem().Uint64(layout.SyscallEntryAddr(nr))
	if err != nil {
		return 0, fmt.Errorf("richos: syscall table unreadable: %w", err)
	}
	handler, ok := os.syscallHandlers[target]
	if !ok {
		return 0, fmt.Errorf("richos: syscall %d vector %#x points at unmapped code", nr, target)
	}
	return handler(tc, nr), nil
}

// SetMMU routes kernel-privilege writes through a permission-checking MMU.
// Synchronous-introspection guards install one (see internal/syncguard);
// without it, KernelWrite is a plain physical write.
func (os *OS) SetMMU(m *mem.MMU) { os.mmu = m }

// MMU returns the installed MMU, or nil.
func (os *OS) MMU() *mem.MMU { return os.mmu }

// KernelWrite performs a kernel-privilege memory write — the path rootkits
// and kernel modules use. With an MMU installed, writes to write-protected
// pages trap to the synchronous guard exactly as under SPROBES/TZ-RKP
// (§VII-A); raw physical access (image.Mem().Write) models the
// write-what-where exploit channel that bypasses this mediation.
func (os *OS) KernelWrite(addr uint64, data []byte) error {
	if os.mmu != nil {
		return os.mmu.Write(addr, data)
	}
	return os.image.Mem().Write(addr, data)
}

// KernelPutUint64 is KernelWrite for a 64-bit little-endian value.
func (os *OS) KernelPutUint64(addr uint64, v uint64) error {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return os.KernelWrite(addr, buf[:])
}

// IdleCore reports whether core id currently has neither a running nor a
// ready thread. Tests and diagnostics only.
func (os *OS) IdleCore(id int) bool {
	cs := os.cores[id]
	return cs.current == nil && cs.readyCount() == 0
}

// CurrentThread reports the thread running on core id, or nil. Tests and
// diagnostics only.
func (os *OS) CurrentThread(id int) *Thread { return os.cores[id].current }

// ReadCounter exposes the shared physical counter to modeled software.
func (os *OS) ReadCounter() simclock.Time { return os.platform.ReadCounter() }
