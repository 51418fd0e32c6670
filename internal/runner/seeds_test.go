package runner_test

import (
	"strings"
	"testing"

	"satin"
)

// TestRunSweepRejectsEmpty keeps the seed-count guard of the deleted
// runner.RunSweep under test beside the pool: a seed sweep over runner.Run
// gets its seed count from satin.RunSeeds, which refuses fewer than 1 seed
// before any trial runs and names the sweep in the error.
func TestRunSweepRejectsEmpty(t *testing.T) {
	for _, seeds := range []int{0, -1} {
		_, err := satin.RunSeeds("x", 0, seeds, 1, func(uint64) (satin.SweepMetrics, error) {
			t.Errorf("seeds=%d: a trial ran", seeds)
			return nil, nil
		})
		if err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("seeds=%d: err = %v, want an error naming sweep \"x\"", seeds, err)
		}
	}
}
