package experiment

import (
	"strings"
	"testing"
	"time"

	"satin/internal/trustzone"
)

func TestFloodAblationShape(t *testing.T) {
	cfg := DefaultFloodConfig()
	cfg.Depths = 4 // keep CI fast; `make paper-check` pins the default sweep
	res, err := RunFlood(cfg)
	if err != nil {
		t.Fatal(err)
	}
	np, err := res.Row(trustzone.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := res.Row(trustzone.Preemptive)
	if err != nil {
		t.Fatal(err)
	}
	// SATIN's SCR_EL3.IRQ=0 configuration: the flood is inert.
	if np.Rate() != 1.0 {
		t.Errorf("non-preemptive detection rate = %.2f, want 1.0", np.Rate())
	}
	if np.Preemptions != 0 {
		t.Errorf("non-preemptive saw %d preemptions, want 0", np.Preemptions)
	}
	if np.MeanRound > 10*time.Millisecond {
		t.Errorf("non-preemptive mean round %v; flood should not stretch it", np.MeanRound)
	}
	// Preemptive routing: the flood stretches checks well past the race
	// window and detection collapses for all but shallow traces.
	if pe.Rate() > 0.5 {
		t.Errorf("preemptive detection rate = %.2f; the flood should defeat most depths", pe.Rate())
	}
	if pe.MeanRound < 3*np.MeanRound {
		t.Errorf("preemptive mean round %v not clearly stretched vs %v", pe.MeanRound, np.MeanRound)
	}
	if pe.Preemptions == 0 {
		t.Error("preemptive mode recorded no preemptions under a 30kHz flood")
	}
	if !strings.Contains(res.Render(), "non-preemptive") {
		t.Error("render missing rows")
	}
	if _, err := RunFlood(FloodConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}
