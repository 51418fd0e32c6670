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
	"satin/internal/trustzone"
)

// Rig is a fully assembled Juno r1 testbed: platform, secure monitor,
// booted kernel image, rich OS, and a checker. It is the one place the
// testbed is assembled; the satin facade and tzevader build on it too.
type Rig struct {
	Engine  *simclock.Engine
	Plat    *hw.Platform
	Image   *mem.Image
	Monitor *trustzone.Monitor
	OS      *richos.OS
	Checker *introspect.Checker
}

// NewRig assembles the standard testbed with deterministic streams derived
// from seed: the rich OS draws from seed+1, the checker from seed+2 and the
// secure monitor from seed+3.
func NewRig(seed uint64) (*Rig, error) { return NewRigFrom(seed, nil) }

// NewRigFrom is NewRig building the kernel image from boot, when it is not
// nil, instead of booting it from the seed: the boot state of an earlier
// image of the same seed, whose pages and golden-pass chunk terms the new
// image shares. The images are byte-identical either way, so many rigs of
// one seed boot the kernel once. A boot state booted from another seed is
// an error.
func NewRigFrom(seed uint64, boot *mem.BootState) (*Rig, error) {
	e := simclock.NewEngine()
	p, err := hw.NewJunoR1(e)
	if err != nil {
		return nil, fmt.Errorf("experiment: platform: %w", err)
	}
	var im *mem.Image
	switch {
	case boot == nil:
		im, err = mem.NewJunoImage(seed)
	case boot.Seed() != seed:
		return nil, fmt.Errorf("experiment: boot state was booted from seed %d, not the rig's seed %d", boot.Seed(), seed)
	default:
		im, err = boot.NewImage()
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: image: %w", err)
	}
	os, err := richos.NewOS(p, im, richos.Config{Seed: seed + 1})
	if err != nil {
		return nil, fmt.Errorf("experiment: rich OS: %w", err)
	}
	ch, err := introspect.NewChecker(im, p.Perf(), seed+2)
	if err != nil {
		return nil, fmt.Errorf("experiment: checker: %w", err)
	}
	return &Rig{
		Engine:  e,
		Plat:    p,
		Image:   im,
		Monitor: trustzone.NewMonitor(p, seed+3),
		OS:      os,
		Checker: ch,
	}, nil
}

// bootJuno boots the paper's kernel from seed and returns its boot state,
// from which NewRigFrom builds the images of the seed's rigs.
func bootJuno(seed uint64) (*mem.BootState, error) {
	im, err := mem.NewJunoImage(seed)
	if err != nil {
		return nil, fmt.Errorf("experiment: image: %w", err)
	}
	return im.Boot(), nil
}

// JunoAreas returns the 19-area partition of the rig's kernel.
func (r *Rig) JunoAreas() ([]mem.Area, error) {
	return mem.BuildAreas(r.Image.Layout(), mem.JunoAreaGroups())
}

// raced is one raced check (§IV-C, Fig. 3): the check's result, whether it
// caught the trace, and the evader it raced.
type raced struct {
	introspect.Result
	detected bool
	evader   *attack.FastEvader
}

// raceCheck stages one race on the rig. It starts the calibrated fast
// evader over rootkit, drawing from evaderSeed, takes the golden hash of
// [addr, addr+size), runs one DirectHash check of that range on the first
// A57 core at virtual instant at, and drains the engine.
func (r *Rig) raceCheck(rootkit *attack.Rootkit, evaderSeed uint64, at time.Duration, addr uint64, size int) (raced, error) {
	evader, err := attack.NewFastEvader(r.Plat, r.Image, rootkit,
		attack.DefaultProberSleep, core.DefaultTnsThreshold, evaderSeed)
	if err != nil {
		return raced{}, err
	}
	if err := evader.Start(); err != nil {
		return raced{}, err
	}
	golden, err := introspect.GoldenRange(r.Image, introspect.HashDjb2, addr, size)
	if err != nil {
		return raced{}, err
	}
	a57, err := r.Plat.FirstCoreOfType(hw.CortexA57)
	if err != nil {
		return raced{}, err
	}
	out := raced{evader: evader}
	r.Engine.After(at, "race-check", func() {
		err := r.Monitor.RequestSecure(a57.ID(), func(ctx *trustzone.Context) {
			cerr := r.Checker.Check(ctx, introspect.DirectHash, addr, size, func(res introspect.Result) {
				out.Result = res
				ctx.Exit()
			})
			if cerr != nil {
				panic(cerr) // unreachable: the golden pass validated the range
			}
		})
		if err != nil {
			panic(err) // unreachable: the core exists and is free
		}
	})
	r.Engine.Run()
	out.detected = out.Sum != golden
	return out, nil
}

// firstReactions returns the instants of the evader's first suspicion
// (t_start + Tns_delay) and of its first completed hide (+ Tns_recover),
// each zero if the evader never got there.
func (rc raced) firstReactions() (suspect, hidden time.Duration) {
	for _, e := range rc.evader.Events() {
		switch {
		case e.Kind == attack.EventSuspect && suspect == 0:
			suspect = e.At.Duration()
		case e.Kind == attack.EventHidden && hidden == 0:
			hidden = e.At.Duration()
		}
	}
	return suspect, hidden
}
