// Package richos models the rich OS of the paper's normal world: a
// Linux-like kernel (the testbed ran OpenEmbedded with lsk-4.4-armlt)
// reduced to the mechanisms the paper's attack and defense actually
// exercise:
//
//   - threads with CPU affinity, scheduled per core by a simplified CFS and
//     a SCHED_FIFO real-time class (KProber-II raises its threads to the
//     maximum FIFO priority, §III-C2);
//   - a per-core scheduling-clock tick at HZ in the CONFIG_NO_HZ_IDLE
//     style — no ticks on idle cores (§III-C1);
//   - a timer-interrupt path that dispatches through the exception vector
//     table *as bytes in kernel memory*, so KProber-I's hijack is a real,
//     introspection-visible modification;
//   - a syscall table dispatched the same way, so the sample GETTID rootkit
//     is a real 8-byte modification (§IV-A2).
//
// Crucially for the paper's threat model, nothing in this package reads a
// core's TrustZone world to make visible decisions for modeled software:
// when the secure world steals a core, threads on it simply stop making
// progress, which is exactly the side channel TZ-Evader measures.
package richos

import (
	"fmt"
	"time"

	"satin/internal/simclock"
)

// Policy is a scheduling class.
type Policy int

// Scheduling classes, mirroring Linux: SCHED_FIFO beats CFS; higher FIFO
// priority beats lower.
const (
	PolicyCFS Policy = iota + 1
	PolicyFIFO
)

// String names the policy like Linux does.
func (p Policy) String() string {
	switch p {
	case PolicyCFS:
		return "SCHED_OTHER"
	case PolicyFIFO:
		return "SCHED_FIFO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// FIFO priority bounds, as in Linux. KProber-II uses MaxRTPriority
// (sched_get_priority_max(SCHED_FIFO), §IV-A1).
const (
	MinRTPriority = 1
	MaxRTPriority = 99
)

// ThreadState is a thread's lifecycle state.
type ThreadState int

// Thread states.
const (
	StateReady ThreadState = iota + 1
	StateRunning
	StateSleeping
	StateExited
)

// String names the state.
func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Thread is one schedulable entity.
type Thread struct {
	id      int
	name    string
	policy  Policy
	rtPrio  int
	program Program
	// tc is the context handed to every program.Next; its coreID is set
	// before each call.
	tc ThreadContext

	// affinity is the set of cores the thread may run on; pinned threads
	// have exactly one. The probers pin one thread per core (§III-B1).
	affinity []int

	state ThreadState
	// core is the core the thread is on (running or queued) or last ran on.
	core int

	// pendingCompute is CPU time the thread still owes before its program
	// is consulted again — the remainder after a preemption or secure-world
	// pause, plus any dispatch latency.
	pendingCompute time.Duration

	// vruntime is the CFS virtual runtime.
	vruntime time.Duration

	// enqueueSeq orders FIFO threads of equal priority.
	enqueueSeq uint64

	wake simclock.Handle

	// Accounting.
	cpuTime      time.Duration
	schedules    int
	securePauses int
}

// ID reports the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Name reports the thread's name.
func (t *Thread) Name() string { return t.name }

// Policy reports the scheduling class.
func (t *Thread) Policy() Policy { return t.policy }

// RTPriority reports the FIFO priority (0 for CFS threads).
func (t *Thread) RTPriority() int { return t.rtPrio }

// State reports the lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// Affinity returns the cores the thread may run on. Callers must not mutate
// the returned slice.
func (t *Thread) Affinity() []int { return t.affinity }

// Pinned reports whether the thread is fixed to a single core.
func (t *Thread) Pinned() bool { return len(t.affinity) == 1 }

// LastCore reports the core the thread is running or queued on, or last ran
// on.
func (t *Thread) LastCore() int { return t.core }

// CPUTime reports the total CPU time the thread has consumed. Workload
// throughput measurements are built on this.
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// Schedules reports how many times the thread was dispatched.
func (t *Thread) Schedules() int { return t.schedules }

// SecurePauses reports how many times the thread lost its core to the
// secure world mid-run.
func (t *Thread) SecurePauses() int { return t.securePauses }

// allows reports whether the thread may run on core id.
func (t *Thread) allows(id int) bool {
	for _, c := range t.affinity {
		if c == id {
			return true
		}
	}
	return false
}

// String renders like "thread3(reporter-2)".
func (t *Thread) String() string {
	return fmt.Sprintf("thread%d(%s)", t.id, t.name)
}

// beats reports whether a waking thread t should immediately preempt the
// running thread cur: RT beats CFS, and higher RT priority beats lower
// (SCHED_FIFO semantics — equal priority does not preempt).
func (t *Thread) beats(cur *Thread) bool {
	if t.policy == PolicyFIFO && cur.policy == PolicyCFS {
		return true
	}
	if t.policy == PolicyFIFO && cur.policy == PolicyFIFO {
		return t.rtPrio > cur.rtPrio
	}
	return false
}
