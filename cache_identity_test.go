package satin

// Golden byte-identity regression for the incremental hash cache: the cache
// (and the rest of the hot-path overhaul) may only change wall-clock time,
// never a virtual-time outcome. The cache-enabled path is already locked by
// the golden tests in obs_test.go and faults_test.go; here the same runs are
// repeated with the cache force-disabled ("hash_cache": false) and
// compared against the same checked-in goldens and against each other.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runGoldenTrace runs the golden scenario with the given spec mutations and
// returns its streamed JSONL, rendered timeline, and metrics snapshot.
func runGoldenTrace(t *testing.T, muts ...func(*ScenarioSpec)) (trace, timeline, metrics string, sc *Scenario) {
	t.Helper()
	sc = goldenScenario(t, muts...)
	var out bytes.Buffer
	sink, err := NewStreamSink(&out, ExportJSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	sc.Bus().Subscribe(sink.OnEvent)
	sc.RunToCompletion()
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var tl bytes.Buffer
	if err := sc.Timeline().WriteText(&tl); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return out.String(), tl.String(), sc.Metrics().String(), sc
}

// TestHashCacheDisabledMatchesGoldens: the seed-1 golden run with the cache
// force-disabled must reproduce the checked-in timeline and JSONL goldens
// byte for byte — proving the naive path is still exactly the pre-overhaul
// simulation.
func TestHashCacheDisabledMatchesGoldens(t *testing.T) {
	trace, timeline, _, sc := runGoldenTrace(t, hashCacheOff)
	if hits, misses := sc.Checker().CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("disabled cache saw traffic: %d hits / %d misses", hits, misses)
	}
	for _, tc := range []struct {
		got  string
		file string
	}{
		{timeline, "timeline_seed1.golden"},
		{trace, "trace_seed1.jsonl.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		if tc.got != string(want) {
			t.Errorf("cache-off run drifted from %s", tc.file)
		}
	}
}

// TestHashCacheOnOffIdentical compares complete cache-on and cache-off runs —
// trace, timeline, metrics, and Report — for the clean golden scenario and
// the faulted variant. The cache must be invisible everywhere except its own
// hit/miss counters, which are excluded from the metrics comparison.
func TestHashCacheOnOffIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wantHits bool
		mut      func(*ScenarioSpec)
	}{
		// The 19-round golden budget is exactly one full scan — no chunk is
		// visited twice, so these two variants exercise the all-miss path.
		{"clean", false, func(*ScenarioSpec) {}},
		{"faulted", false, withFaults(faultedGolden)},
		// Two full scans: the second scan is served almost entirely from the
		// cache, so this variant exercises the hit path the others cannot.
		{"two-scans", true, func(s *ScenarioSpec) { s.Defense.SATIN.MaxRounds = 38 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onTrace, onTL, onMetrics, onSc := runGoldenTrace(t, tc.mut)
			offTrace, offTL, offMetrics, offSc := runGoldenTrace(t, tc.mut, hashCacheOff)
			if !onSc.Checker().HashCacheEnabled() || offSc.Checker().HashCacheEnabled() {
				t.Fatal("cache toggle not reflected by the checkers")
			}
			if hits, misses := onSc.Checker().CacheStats(); tc.wantHits && hits == 0 {
				t.Error("cache-on run recorded no hits; the identity check proved nothing")
			} else if misses == 0 {
				t.Error("cache-on run recorded no misses; the checker never consulted the cache")
			}
			if onTrace != offTrace {
				t.Error("JSONL trace differs between cache on and off")
			}
			if onTL != offTL {
				t.Error("timeline differs between cache on and off")
			}
			scrub := func(s string) string {
				var kept bytes.Buffer
				for _, line := range bytes.Split([]byte(s), []byte("\n")) {
					if bytes.Contains(line, []byte("introspect.cache_")) {
						continue
					}
					kept.Write(line)
					kept.WriteByte('\n')
				}
				return kept.String()
			}
			if scrub(onMetrics) != scrub(offMetrics) {
				t.Errorf("metrics differ between cache on and off:\n--- on ---\n%s--- off ---\n%s",
					scrub(onMetrics), scrub(offMetrics))
			}
			ron, roff := onSc.Report(), offSc.Report()
			ron.Metrics, roff.Metrics = MetricsSnapshot{}, MetricsSnapshot{}
			if fmt.Sprintf("%+v", ron) != fmt.Sprintf("%+v", roff) {
				t.Errorf("Report differs between cache on and off:\non:  %+v\noff: %+v", ron, roff)
			}
		})
	}
}
