package attack

import (
	"fmt"

	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
)

// rootkitBodyOffset is where the rootkit's malicious GETTID body is
// "loaded" in the module arena.
const rootkitBodyOffset = 0x100

// RootkitState is the attack-trace state.
type RootkitState int

// Rootkit states.
const (
	// RootkitHidden: the syscall table holds the benign pointer.
	RootkitHidden RootkitState = iota + 1
	// RootkitActive: the table entry points at the malicious body.
	RootkitActive
)

// String names the state.
func (s RootkitState) String() string {
	switch s {
	case RootkitHidden:
		return "hidden"
	case RootkitActive:
		return "active"
	default:
		return fmt.Sprintf("RootkitState(%d)", int(s))
	}
}

// Rootkit is the paper's sample kernel-level attack (§IV-A2): it hijacks
// the GETTID system call by rewriting the call's 8-byte syscall-table
// entry. The modified bytes sit in area 14 of the Juno layout — the M = 8
// bytes of attacking trace that TZ-Evader races to remove.
type Rootkit struct {
	os    *richos.OS
	image *mem.Image

	bodyAddr uint64
	// targets are the static-kernel addresses the attack modifies, 8
	// bytes each. The paper's sample attack has exactly one (the GETTID
	// entry, M = 8); NewRootkitSpread generalizes to larger M.
	targets []uint64
	state   RootkitState
	// Captures is how many times the malicious body ran (e.g. per GETTID
	// call intercepted — the key-logger analogy of §III-A).
	captures int
	// transitions log every install/hide for the experiments.
	transitions []Transition
}

// Transition is one rootkit state change.
type Transition struct {
	At    simclock.Time
	State RootkitState
}

// NewRootkit prepares the rootkit: the malicious body is registered in the
// module arena but the syscall table is untouched until Install.
func NewRootkit(os *richos.OS, image *mem.Image) *Rootkit {
	r := NewRootkitAt(os, image, image.Layout().SyscallEntryAddr(mem.GettidNR))
	os.RegisterSyscallHandler(r.bodyAddr, func(tc *richos.ThreadContext, nr int) uint64 {
		r.captures++
		// Pass through so the victim sees a working syscall.
		return uint64(nr)
	})
	return r
}

// NewRootkitAt prepares a rootkit whose 8-byte trace lands at an arbitrary
// static-kernel address — the generalization the race-analysis sweep of
// §IV-C needs ("supposing the attack bytes appears randomly in the
// kernel"). No syscall handler is registered; the trace is pure bytes.
func NewRootkitAt(os *richos.OS, image *mem.Image, target uint64) *Rootkit {
	return NewRootkitSpread(os, image, []uint64{target})
}

// NewRootkitSpread prepares a rootkit with M = 8*len(targets) bytes of
// attacking trace spread across the given addresses — the general M of the
// paper's race formalization (§III-B2), whose recovery cost
// Tns_recover = M * Tns_1byte is the evader's timing bottleneck (§IV-C
// observation 4).
func NewRootkitSpread(os *richos.OS, image *mem.Image, targets []uint64) *Rootkit {
	return &Rootkit{
		os:       os,
		image:    image,
		bodyAddr: image.ModuleBase() + rootkitBodyOffset,
		targets:  append([]uint64(nil), targets...),
		state:    RootkitHidden,
	}
}

// TraceBytes is M: the number of attacking-trace bytes the evader must
// recover, "one 8-bytes address of the system call table" (§IV-A2).
const TraceBytes = mem.SyscallEntrySize

// TargetAddr reports where the (first) trace lands.
func (r *Rootkit) TargetAddr() uint64 { return r.targets[0] }

// TraceSize reports M: the total attacking-trace bytes the evader must
// recover.
func (r *Rootkit) TraceSize() int { return len(r.targets) * mem.SyscallEntrySize }

// Install writes the malicious pointer into the live syscall table. The
// write goes through the kernel-privilege path (OS.KernelWrite): when a
// synchronous guard protects the table, installation faults and is denied —
// the attacker must first run the §VII-A AP-flip exploit (see
// internal/syncguard).
func (r *Rootkit) Install(at simclock.Time) error {
	if r.state == RootkitActive {
		return fmt.Errorf("attack: rootkit already active")
	}
	for i, target := range r.targets {
		if err := r.os.KernelPutUint64(target, r.bodyAddr); err != nil {
			// All-or-nothing: undo what landed before the failure (a
			// half-installed attack would be a free trace for the
			// defender with no benefit for the attacker).
			for _, done := range r.targets[:i] {
				benign, perr := r.image.Pristine(done, mem.SyscallEntrySize)
				if perr == nil {
					_ = r.os.KernelWrite(done, benign)
				}
			}
			return fmt.Errorf("attack: hijacking target %#x: %w", target, err)
		}
	}
	r.state = RootkitActive
	r.transitions = append(r.transitions, Transition{At: at, State: RootkitActive})
	return nil
}

// Hide restores the benign pointer, removing the attacking trace. The
// *time cost* of hiding (Tns_recover) is modeled by the evader thread that
// calls this after computing for the recovery duration; Hide itself is the
// final write.
func (r *Rootkit) Hide(at simclock.Time) error {
	if r.state == RootkitHidden {
		return fmt.Errorf("attack: rootkit already hidden")
	}
	for _, target := range r.targets {
		benign, err := r.image.Pristine(target, mem.SyscallEntrySize)
		if err != nil {
			return fmt.Errorf("attack: reading benign bytes: %w", err)
		}
		if err := r.os.KernelWrite(target, benign); err != nil {
			return fmt.Errorf("attack: restoring target %#x: %w", target, err)
		}
	}
	r.state = RootkitHidden
	r.transitions = append(r.transitions, Transition{At: at, State: RootkitHidden})
	return nil
}

// State reports whether the trace is currently present.
func (r *Rootkit) State() RootkitState { return r.state }

// Captures reports how many syscalls the malicious body intercepted.
func (r *Rootkit) Captures() int { return r.captures }

// Transitions returns the install/hide log.
func (r *Rootkit) Transitions() []Transition { return r.transitions }

// ActiveBetween reports whether the trace was present during the entire
// interval [from, to] — the question the introspection race turns on.
func (r *Rootkit) ActiveBetween(from, to simclock.Time) bool {
	state := RootkitHidden
	// State at instant `from`: replay transitions up to it.
	i := 0
	for ; i < len(r.transitions) && !r.transitions[i].At.After(from); i++ {
		state = r.transitions[i].State
	}
	if state != RootkitActive {
		return false
	}
	for ; i < len(r.transitions) && !r.transitions[i].At.After(to); i++ {
		if r.transitions[i].State != RootkitActive {
			return false
		}
	}
	return true
}
