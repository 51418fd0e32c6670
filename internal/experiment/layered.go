package experiment

import (
	"fmt"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
	"satin/internal/stats"
	"satin/internal/syncguard"
	"satin/internal/trustzone"
)

// SyncBypassResult reproduces §VII-A and §VII-C: the synchronous guard
// blocks the rootkit; the write-what-where AP-flip bypasses it silently;
// asynchronous introspection then catches both the hijack and the bypass's
// own trace.
type SyncBypassResult struct {
	// InstallDenied: the guard rejected the first hijack attempt.
	InstallDenied bool
	// GuardTraps is how many writes the guard screened.
	GuardTraps int
	// BypassSucceeded: after the AP flip, the hijack landed.
	BypassSucceeded bool
	// GuardSawBypass: whether the post-exploit hijack reached the screen
	// (§VII-A says it must not: "without triggering the corresponding
	// synchronous introspection").
	GuardSawBypass bool
	// DirtyAreas are the areas one full asynchronous pass flagged
	// (expected: 14, the syscall table, and 17, the flipped PTE).
	DirtyAreas []int
}

// Render prints the layered-defense story.
func (r SyncBypassResult) Render() string {
	tbl := stats.NewTable("Stage", "Outcome")
	verdict := func(b bool, yes, no string) string {
		if b {
			return yes
		}
		return no
	}
	tbl.AddRow("rootkit vs synchronous guard", verdict(r.InstallDenied, "DENIED (trapped and screened)", "installed?!"))
	tbl.AddRow("guard traps", fmt.Sprintf("%d", r.GuardTraps))
	tbl.AddRow("AP-flip write-what-where", verdict(r.BypassSucceeded, "hijack landed", "failed"))
	tbl.AddRow("guard saw the bypassed write", verdict(r.GuardSawBypass, "yes?!", "no (bypass is silent)"))
	areas := ""
	for i, a := range r.DirtyAreas {
		if i > 0 {
			areas += " "
		}
		areas += fmt.Sprintf("%d", a)
	}
	tbl.AddRow("async introspection flags areas", areas+"  (14 = syscall table, 17 = flipped PTE)")
	return tbl.String()
}

// RunSyncBypass runs the layered-defense experiment end to end.
func RunSyncBypass(seed uint64) (SyncBypassResult, error) {
	rig, err := NewRig(seed)
	if err != nil {
		return SyncBypassResult{}, err
	}
	guard := syncguard.New(rig.OS)
	if err := guard.Install(); err != nil {
		return SyncBypassResult{}, err
	}
	var result SyncBypassResult

	rootkit := attack.NewRootkit(rig.OS, rig.Image)
	result.InstallDenied = rootkit.Install(0) != nil
	result.GuardTraps = guard.Trapped()

	layout := rig.Image.Layout()
	entry := layout.SyscallEntryAddr(mem.GettidNR)
	if _, err := syncguard.APFlipExploit(rig.Image, entry, mem.SyscallEntrySize); err != nil {
		return SyncBypassResult{}, err
	}
	trapsBefore := guard.Trapped()
	result.BypassSucceeded = rootkit.Install(1) == nil
	result.GuardSawBypass = guard.Trapped() != trapsBefore

	// One asynchronous pass over every area against the post-protection
	// golden hashes.
	areas, err := rig.JunoAreas()
	if err != nil {
		return SyncBypassResult{}, err
	}
	golden, err := introspect.GoldenTable(rig.Image, introspect.HashDjb2, areas)
	if err != nil {
		return SyncBypassResult{}, err
	}
	var scan func(i int)
	scan = func(i int) {
		if i == len(areas) {
			return
		}
		err := rig.Monitor.RequestSecure(4, func(ctx *trustzone.Context) {
			cerr := rig.Checker.Check(ctx, introspect.DirectHash, areas[i].Addr, areas[i].Size, func(res introspect.Result) {
				if res.Sum != golden[i] {
					result.DirtyAreas = append(result.DirtyAreas, i)
				}
				ctx.Exit()
				rig.Engine.After(time.Millisecond, "next-area", func() { scan(i + 1) })
			})
			if cerr != nil {
				panic(cerr) // unreachable: areas validated
			}
		})
		if err != nil {
			panic(err) // unreachable: core free between areas
		}
	}
	scan(0)
	rig.Engine.Run()
	return result, nil
}

// UserProberResult reproduces §III-B1's user-level prober evaluation: on a
// loaded system (one CFS hog per core, like the paper's OpenEmbedded
// testbed), a pure EL0 prober (no kernel privilege) calibrates its
// threshold, then detects a full-kernel-check-sized secure residency with
// Tns_delay well under the check's duration. The paper measured
// Tns_delay < 5.97e-3 s against an 8.04e-2 s check.
type UserProberResult struct {
	// Threshold is the calibrated Tns_threshold.
	Threshold time.Duration
	// Delay is the measured Tns_delay against a live secure entry.
	Delay time.Duration
	// CheckDuration is the secure residency it had to beat.
	CheckDuration time.Duration
}

// Capable reports the paper's conclusion: the prober detects the check
// while it is still running.
func (r UserProberResult) Capable() bool { return r.Delay < r.CheckDuration }

// Render prints the measurement.
func (r UserProberResult) Render() string {
	tbl := stats.NewTable("Quantity", "Measured", "Paper")
	tbl.AddRow("calibrated threshold", stats.SciSeconds(r.Threshold.Seconds()), "—")
	tbl.AddRow("Tns_delay", stats.SciSeconds(r.Delay.Seconds()), "< 5.97e-03 s")
	tbl.AddRow("kernel check duration", stats.SciSeconds(r.CheckDuration.Seconds()), "8.04e-02 s")
	verdict := "prober detects the check in flight"
	if !r.Capable() {
		verdict = "prober too slow"
	}
	tbl.AddRow("verdict", verdict, "capable")
	return tbl.String()
}

// loadEveryCore spawns one CFS busy thread per core: the prober must share
// the machine, as on the paper's OpenEmbedded testbed.
func loadEveryCore(rig *Rig) error {
	for c := 0; c < rig.Plat.NumCores(); c++ {
		if _, err := rig.OS.Spawn(fmt.Sprintf("load-%d", c), richos.PolicyCFS, 0, []int{c},
			richos.ProgramFunc(func(*richos.ThreadContext) richos.Step {
				return richos.Compute(time.Millisecond)
			})); err != nil {
			return err
		}
	}
	return nil
}

// RunUserProber calibrates and evaluates the user-level prober on a loaded
// system.
func RunUserProber(seed uint64) (UserProberResult, error) {
	rig, err := NewRig(seed)
	if err != nil {
		return UserProberResult{}, err
	}
	if err := loadEveryCore(rig); err != nil {
		return UserProberResult{}, err
	}
	buffer, err := attack.NewReportBuffer(rig.Plat.NumCores(), attack.JunoCrossCoreNoise(), seed+4)
	if err != nil {
		return UserProberResult{}, err
	}
	// Calibration run (§VII-B) with user-level (CFS) probing threads.
	finish, err := attack.CalibrateThreshold(rig.OS, buffer, attack.UserProber, 5*time.Second, attack.DefaultThresholdSafety)
	if err != nil {
		return UserProberResult{}, err
	}
	rig.Engine.RunFor(5*time.Second + 100*time.Millisecond)
	threshold, err := finish()
	if err != nil {
		return UserProberResult{}, err
	}

	// Fresh rig for the measurement run.
	rig2, err := NewRig(seed + 50)
	if err != nil {
		return UserProberResult{}, err
	}
	if err := loadEveryCore(rig2); err != nil {
		return UserProberResult{}, err
	}
	buffer2, err := attack.NewReportBuffer(rig2.Plat.NumCores(), attack.JunoCrossCoreNoise(), seed+5)
	if err != nil {
		return UserProberResult{}, err
	}
	var suspectAt simclock.Time
	prober, err := attack.NewThreadProber(rig2.OS, buffer2, attack.ProberConfig{
		Kind:      attack.UserProber,
		Threshold: threshold,
		OnSuspect: func(core int, at simclock.Time) {
			if suspectAt == 0 {
				suspectAt = at
			}
		},
	})
	if err != nil {
		return UserProberResult{}, err
	}
	if err := prober.Start(); err != nil {
		return UserProberResult{}, err
	}
	// One A53 full-kernel-check-sized residency: ≈127 ms.
	const entry = 2 * time.Second
	check := 127 * time.Millisecond
	rig2.Engine.After(entry, "steal", func() { rig2.Plat.Core(1).SetWorld(hw.SecureWorld) })
	rig2.Engine.After(entry+check, "release", func() { rig2.Plat.Core(1).SetWorld(hw.NormalWorld) })
	rig2.Engine.RunFor(3 * time.Second)
	if suspectAt == 0 {
		return UserProberResult{}, fmt.Errorf("experiment: user prober missed the check entirely")
	}
	return UserProberResult{
		Threshold:     threshold,
		Delay:         suspectAt.Sub(simclock.Time(entry)),
		CheckDuration: check,
	}, nil
}

// KProber1ExposureResult reproduces §III-C1's caveat: KProber-I's vector
// hijack is itself an attacking trace. SATIN flags area 0 (which holds the
// exception vector table) on every pass, even with no rootkit installed.
type KProber1ExposureResult struct {
	Passes      int
	Area0Alarms int
}

// Render prints the result.
func (r KProber1ExposureResult) Render() string {
	tbl := stats.NewTable("Quantity", "Value")
	tbl.AddRow("full kernel passes", fmt.Sprintf("%d", r.Passes))
	tbl.AddRow("area-0 alarms (vector hijack trace)", fmt.Sprintf("%d", r.Area0Alarms))
	return tbl.String()
}

// RunKProber1Exposure installs KProber-I (and nothing else) and runs SATIN
// for the given number of passes.
func RunKProber1Exposure(seed uint64, passes int) (KProber1ExposureResult, error) {
	if passes <= 0 {
		return KProber1ExposureResult{}, fmt.Errorf("experiment: passes %d must be positive", passes)
	}
	rig, err := NewRig(seed)
	if err != nil {
		return KProber1ExposureResult{}, err
	}
	buffer, err := attack.NewReportBuffer(rig.Plat.NumCores(), attack.JunoCrossCoreNoise(), seed+4)
	if err != nil {
		return KProber1ExposureResult{}, err
	}
	kp1 := attack.NewKProber1(rig.OS, buffer)
	if err := kp1.Install(true); err != nil {
		return KProber1ExposureResult{}, err
	}
	areas, err := rig.JunoAreas()
	if err != nil {
		return KProber1ExposureResult{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Tgoal = time.Duration(len(areas)) * time.Second
	cfg.MaxRounds = passes * len(areas)
	cfg.Seed = seed + 6
	satin, err := core.New(rig.Plat, rig.Monitor, rig.Image, rig.Checker, areas, cfg)
	if err != nil {
		return KProber1ExposureResult{}, err
	}
	if err := satin.Start(); err != nil {
		return KProber1ExposureResult{}, err
	}
	// KProber-I's busy threads tick forever: bounded horizon.
	rig.Engine.RunFor(time.Duration(cfg.MaxRounds+len(areas)) * 2 * time.Second)
	result := KProber1ExposureResult{Passes: satin.FullScans()}
	for _, a := range satin.Alarms() {
		if a.Area == 0 {
			result.Area0Alarms++
		}
	}
	return result, nil
}
