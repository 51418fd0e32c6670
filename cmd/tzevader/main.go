// Command tzevader runs the attack-side studies: probing threshold
// calibration (§VII-B), the prober's detection delay against a live secure
// entry, the KProber-I trace demonstration, and the §V-B interrupt flood.
//
// Usage:
//
//	tzevader -mode calibrate -observe 30s     # learn Tns_threshold on a quiet device
//	tzevader -mode detect                     # measure Tns_delay against one secure entry
//	tzevader -mode kprober1                   # show KProber-I's tick reports and its memory trace
//	tzevader -mode flood                      # raise a 30 kHz SGI flood on every core for 2s
//
// -observe is read only by calibrate, and -prober (user | kprober2) only by
// calibrate and detect; setting either for another mode is an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"satin/internal/attack"
	"satin/internal/experiment"
	"satin/internal/hw"
	"satin/internal/simclock"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tzevader: %v\n", err)
		os.Exit(1)
	}
}

// modeFlags lists, for each -mode, the flags it reads besides -seed and
// -mode.
var modeFlags = map[string][]string{
	"calibrate": {"observe", "prober"},
	"detect":    {"prober"},
	"kprober1":  nil,
	"flood":     nil,
}

// checkFlags rejects an unknown -mode and names every flag set on the
// command line that the mode does not read, so that none is silently
// dropped.
func checkFlags(fs *flag.FlagSet, mode string) error {
	reads, ok := modeFlags[mode]
	if !ok {
		return fmt.Errorf("unknown mode %q", mode)
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "seed" && f.Name != "mode" && !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("%s: flags that -mode %s does not read", strings.Join(unread, ", "), mode)
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tzevader", flag.ContinueOnError)
	fs.SetOutput(out)
	seed := fs.Uint64("seed", 1, "root seed")
	mode := fs.String("mode", "calibrate", "calibrate | detect | kprober1 | flood")
	observe := fs.Duration("observe", 30*time.Second, "calibration observation window")
	kind := fs.String("prober", "kprober2", "prober kind: user | kprober2")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFlags(fs, *mode); err != nil {
		return err
	}

	proberKind := attack.KProberII
	if *kind == "user" {
		proberKind = attack.UserProber
	} else if *kind != "kprober2" {
		return fmt.Errorf("unknown prober %q", *kind)
	}

	r, err := experiment.NewRig(*seed)
	if err != nil {
		return err
	}
	// The probers' report buffer draws from its own named stream, so
	// sharing seed+2 with the rig's checker couples no draws.
	buffer, err := attack.NewReportBuffer(r.Plat.NumCores(), attack.JunoCrossCoreNoise(), *seed+2)
	if err != nil {
		return err
	}
	switch *mode {
	case "calibrate":
		finish, err := attack.CalibrateThreshold(r.OS, buffer, proberKind, *observe, attack.DefaultThresholdSafety)
		if err != nil {
			return err
		}
		r.Engine.RunFor(*observe + time.Second)
		threshold, err := finish()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "observed for %v on a quiet device (%s)\n", observe, proberKind)
		fmt.Fprintf(out, "suggested Tns_threshold: %v (paper operates at 1.8ms)\n", threshold)
		return nil

	case "detect":
		var suspectAt simclock.Time
		prober, err := attack.NewThreadProber(r.OS, buffer, attack.ProberConfig{
			Kind:      proberKind,
			Threshold: 1800 * time.Microsecond,
			OnSuspect: func(core int, at simclock.Time) {
				if suspectAt == 0 {
					suspectAt = at
					fmt.Fprintf(out, "prober flagged core %d at %v\n", core, at.Duration())
				}
			},
		})
		if err != nil {
			return err
		}
		if err := prober.Start(); err != nil {
			return err
		}
		const entry = 2 * time.Second
		r.Engine.After(entry, "steal", func() { r.Plat.Core(4).SetWorld(hw.SecureWorld) })
		r.Engine.After(entry+80*time.Millisecond, "release", func() { r.Plat.Core(4).SetWorld(hw.NormalWorld) })
		r.Engine.RunFor(3 * time.Second)
		if suspectAt == 0 {
			return fmt.Errorf("prober missed the secure entry")
		}
		fmt.Fprintf(out, "secure entry at %v; Tns_delay = %v\n", entry, suspectAt.Duration()-entry)
		return nil

	case "kprober1":
		kp1 := attack.NewKProber1(r.OS, buffer)
		if err := kp1.Install(true); err != nil {
			return err
		}
		r.Engine.RunFor(2 * time.Second)
		fmt.Fprintf(out, "KProber-I installed at %#x (IRQ vector hijack)\n", kp1.HijackAddr())
		for c := 0; c < r.Plat.NumCores(); c++ {
			fmt.Fprintf(out, "  core %d reported %d times in 2s (HZ=%d)\n", c, kp1.ReportCount(c), r.OS.Config().HZ)
		}
		mod := r.Image.Modified()
		fmt.Fprintf(out, "memory trace: %d modified bytes in kernel text (introspection of area 0 finds them)\n", len(mod))
		return nil

	default: // "flood"; checkFlags admits no other mode
		flood, err := attack.NewInterruptFlood(r.Plat, 30000, nil)
		if err != nil {
			return err
		}
		if err := flood.Start(); err != nil {
			return err
		}
		r.Engine.RunFor(2 * time.Second)
		fmt.Fprintf(out, "SGI flood: %d interrupts raised in 2s across %d cores (30 kHz per core)\n",
			flood.Raised(), r.Plat.NumCores())
		fmt.Fprintln(out, "against SATIN's SCR_EL3.IRQ=0 routing this is inert; see `benchtables -only flood`")
		return nil
	}
}
