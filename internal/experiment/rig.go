package experiment

import (
	"fmt"

	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
	"satin/internal/trustzone"
)

// Rig is a fully assembled Juno r1 testbed: platform, secure monitor,
// booted kernel image, rich OS, and a checker.
type Rig struct {
	Engine  *simclock.Engine
	Plat    *hw.Platform
	Image   *mem.Image
	Monitor *trustzone.Monitor
	OS      *richos.OS
	Checker *introspect.Checker
}

// NewRig assembles the standard testbed with deterministic streams derived
// from seed.
func NewRig(seed uint64) (*Rig, error) { return newRig(seed, nil) }

// newRig is NewRig building the kernel image from boot, the boot state of
// an earlier image of the same seed, when it is not nil. An experiment that
// runs many rigs of one seed boots the kernel once that way; the images are
// byte-identical either way.
func newRig(seed uint64, boot *mem.BootState) (*Rig, error) {
	e := simclock.NewEngine()
	p, err := hw.NewJunoR1(e)
	if err != nil {
		return nil, fmt.Errorf("experiment: platform: %w", err)
	}
	var im *mem.Image
	if boot != nil {
		im, err = boot.NewImage()
	} else {
		im, err = mem.NewJunoImage(seed)
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
// from which newRig builds the images of the seed's rigs.
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
