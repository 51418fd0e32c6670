package introspect

import (
	"fmt"
	"sort"
)

// Checkpoint support. The checker never holds pending events at a claimable
// instant: its chunk walks (DirectHash and SnapshotHash alike) live
// entirely inside a secure-world residence, which the protocol steps past
// before capturing, so the pooled walks are all parked on the free list
// and no walk carries a running sum across the instant. What remains is
// pure state:
// the dispersion RNG, and the incremental hash cache (entries plus its
// internal hit/miss counters — the obs counters ride the registry snapshot
// separately). The baseline service likewise schedules nothing itself — the
// secure timers it programs belong to hw.Core — so its state is the RNG and
// the round record.

// CacheEntry is one memoized chunk transition in serialized form, keyed by
// the chunk's start address. N is the chunk's length; an entry restored
// without one (N zero) never matches a lookup.
type CacheEntry struct {
	Addr   uint64 `json:"addr"`
	N      int    `json:"n"`
	HIn    uint64 `json:"h_in"`
	HOut   uint64 `json:"h_out"`
	GenSum uint64 `json:"gen_sum"`
}

// CheckerState is the checker's state at a claimable instant.
type CheckerState struct {
	RNG          []byte `json:"rng"`
	CacheEnabled bool   `json:"cache_enabled"`
	// CacheEntries is sorted by Addr so the serialized form is canonical.
	CacheEntries []CacheEntry `json:"cache_entries,omitempty"`
	CacheHits    uint64       `json:"cache_hits"`
	CacheMisses  uint64       `json:"cache_misses"`
}

// CheckpointState captures the checker's state.
func (c *Checker) CheckpointState() (CheckerState, error) {
	rng, err := c.rng.MarshalState()
	if err != nil {
		return CheckerState{}, fmt.Errorf("introspect: marshaling checker rng: %w", err)
	}
	st := CheckerState{RNG: rng}
	if c.cache != nil {
		st.CacheEnabled = true
		st.CacheHits = c.cache.hits
		st.CacheMisses = c.cache.misses
		st.CacheEntries = make([]CacheEntry, 0, len(c.cache.entries))
		for addr, e := range c.cache.entries {
			st.CacheEntries = append(st.CacheEntries, CacheEntry{Addr: addr, N: e.n, HIn: e.hIn, HOut: e.hOut, GenSum: e.genSum})
		}
		sort.Slice(st.CacheEntries, func(i, j int) bool { return st.CacheEntries[i].Addr < st.CacheEntries[j].Addr })
	}
	return st, nil
}

// RestoreState overwrites the checker's state with a captured one. The cache
// configuration must match: a snapshot taken with the cache disabled can only
// restore into a checker whose cache is also disabled, and vice versa. The
// timeline would not fork (a walk elapses rate·n for every chunk, hit or
// miss), but the cache counters would: a cache-on prefix restored into a
// cache-off checker would carry prefix counters that neither from-scratch
// run has, and a cache-off prefix restored into a cache-on checker would
// lack the ones a cache-on run counts.
func (c *Checker) RestoreState(st CheckerState) error {
	if st.CacheEnabled != (c.cache != nil) {
		return fmt.Errorf("introspect: snapshot hash cache enabled=%v, checker has enabled=%v", st.CacheEnabled, c.cache != nil)
	}
	if err := c.rng.RestoreState(st.RNG); err != nil {
		return fmt.Errorf("introspect: restoring checker rng: %w", err)
	}
	if c.cache != nil {
		c.cache.hits = st.CacheHits
		c.cache.misses = st.CacheMisses
		c.cache.entries = make(map[uint64]chunkEntry, max(len(st.CacheEntries), c.cache.size))
		for _, e := range st.CacheEntries {
			c.cache.entries[e.Addr] = chunkEntry{n: e.N, hIn: e.HIn, hOut: e.HOut, genSum: e.GenSum}
		}
	}
	return nil
}

// BaselineState is the baseline service's state at a claimable instant.
type BaselineState struct {
	RNG      []byte    `json:"rng"`
	Rounds   int       `json:"rounds"`
	Outcomes []Outcome `json:"outcomes"`
}

// CheckpointState captures the baseline's state.
func (b *Baseline) CheckpointState() (BaselineState, error) {
	rng, err := b.rng.MarshalState()
	if err != nil {
		return BaselineState{}, fmt.Errorf("introspect: marshaling baseline rng: %w", err)
	}
	return BaselineState{
		RNG:      rng,
		Rounds:   b.rounds,
		Outcomes: append([]Outcome(nil), b.outcomes...),
	}, nil
}

// RestoreState overwrites the baseline's state with a captured one.
func (b *Baseline) RestoreState(st BaselineState) error {
	if err := b.rng.RestoreState(st.RNG); err != nil {
		return fmt.Errorf("introspect: restoring baseline rng: %w", err)
	}
	b.rounds = st.Rounds
	b.outcomes = append(b.outcomes[:0], st.Outcomes...)
	return nil
}
