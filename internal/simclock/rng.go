package simclock

import (
	"hash/fnv"
	"math/rand/v2"
	"time"
)

// RNG is a deterministic random stream for one simulation component. Streams
// are derived from a root seed plus a stream name, so adding a new component
// (or reordering draws inside one) never perturbs the randomness any other
// component observes — the property that keeps calibrated experiments stable
// across refactors.
type RNG struct {
	r *rand.Rand
	// src is the stream's PCG source, retained so checkpointing can
	// serialize and restore the stream position (rand.Rand itself holds no
	// state beyond its source).
	src *rand.PCG
}

// NewRNG derives the stream named name from the root seed.
func NewRNG(seed uint64, name string) *RNG {
	h := fnv.New64a()
	// Writes to hash.Hash never fail.
	_, _ = h.Write([]byte(name))
	src := rand.NewPCG(seed, h.Sum64())
	return &RNG{r: rand.New(src), src: src}
}

// MarshalState serializes the stream's current position. Restoring it with
// RestoreState resumes the stream exactly where it was: the next draw after a
// restore equals the next draw after the marshal.
func (g *RNG) MarshalState() ([]byte, error) { return g.src.MarshalBinary() }

// RestoreState rewinds (or fast-forwards) the stream to a position captured
// by MarshalState.
func (g *RNG) RestoreState(state []byte) error { return g.src.UnmarshalBinary(state) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0, n). n must be positive.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// DurationBetween returns a uniform duration in [lo, hi]. It panics if
// lo > hi, which always indicates a mis-specified model.
func (g *RNG) DurationBetween(lo, hi time.Duration) time.Duration {
	if lo > hi {
		panic("simclock: DurationBetween with lo > hi")
	}
	if lo == hi {
		return lo
	}
	return lo + time.Duration(g.r.Int64N(int64(hi-lo)+1))
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
