package introspect

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/profile"
	"satin/internal/simclock"
	"satin/internal/trustzone"
)

// Technique is the introspection data-acquisition technique of Table I.
type Technique int

// Acquisition techniques.
const (
	// DirectHash reads the live normal-world kernel from the secure world
	// and hashes it in place — the technique the paper finds faster and
	// leaner, and the one SATIN adopts (§IV-B1).
	DirectHash Technique = iota + 1
	// SnapshotHash copies the kernel bytes first, then hashes the frozen
	// copy — the traditional hardware-assisted approach (Copilot,
	// HyperCheck). Once a byte is captured, later normal-world writes
	// cannot change the verdict.
	SnapshotHash
)

// String names the technique as Table I does.
func (t Technique) String() string {
	switch t {
	case DirectHash:
		return "hash"
	case SnapshotHash:
		return "snapshot"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// SnapshotCaptureFraction is the share of a SnapshotHash check spent copying
// bytes out (the capture pass); the remainder is offline analysis of the
// frozen copy. The paper reports only the combined per-byte time (Table I),
// so the split is a modeling assumption — it only influences *when* within
// a check the TOCTTOU window closes, not the check's duration.
const SnapshotCaptureFraction = 0.5

// DefaultChunkSize is how many bytes a checker reads per scheduling event.
// 4 KiB at ~7–11 ns/byte gives ~30–45 µs timing resolution for the race —
// two orders of magnitude finer than the millisecond-scale quantities that
// decide it (Tns_recover, Tns_delay).
const DefaultChunkSize = 4096

// Checker reads and hashes normal-world memory from the secure world.
//
// Both techniques run one chunk walk: read a chunk at the virtual instant
// the checker reaches it, fold it into the running djb2 state, elapse the
// chunk's time, repeat. A snapshot folds each chunk as it copies it (djb2
// streams, and a captured chunk is never read again), so it holds no copy
// in simulator memory; Result.BufferBytes still charges the copy to the
// technique. The wall-clock hot path is allocation-free in steady state:
// walks are pooled instead of built from per-chunk closures, and the
// incremental hash cache (on by default; see SetHashCache) lets DirectHash
// skip re-hashing chunks whose pages have not been written since they were
// last folded, or whose pages are still the boot state's (their terms come
// from the golden pass). None of this moves a single virtual-time instant:
// cached and naive checks are bit-identical.
type Checker struct {
	image *mem.Image
	rng   *simclock.RNG

	// cache memoizes chunk hash transitions; nil when disabled via
	// SetHashCache(false).
	cache *hashCache
	// walks is the free list of chunk walks; views is the page-view
	// scratch a live chunk fold reuses.
	walks []*walk
	views [][]byte

	// Observability (nil unless Observe was called; all nil-safe).
	checks      *obs.Counter
	bytesHashed *obs.Counter
	bytesCopied *obs.Counter
	snapshots   *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// prof receives one completed span per chunk walked (nil unless
	// SetProfiler was called). The chunk's area is inherited from the
	// enclosing round span, so the checker never needs to know it.
	prof *profile.Profiler
}

// SetProfiler attaches the causal span profiler: every chunk the checker
// walks — hash fold or snapshot copy — becomes a completed span covering
// the chunk's virtual read-plus-elapse interval. Passing nil detaches; the
// detached hot path pays one nil check per chunk.
func (c *Checker) SetProfiler(p *profile.Profiler) { c.prof = p }

// Observe wires the checker's hot path into the metrics registry: bytes
// hashed and snapshot-copied are counted per chunk, at the virtual instant
// the checker touches them (bytes_hashed counts bytes *covered*; a chunk
// served from the hash cache still covers its bytes). reg may be nil.
func (c *Checker) Observe(reg *obs.Registry) {
	c.checks = reg.Counter("introspect.checks")
	c.bytesHashed = reg.Counter("introspect.bytes_hashed")
	c.bytesCopied = reg.Counter("introspect.bytes_copied")
	c.snapshots = reg.Counter("introspect.snapshot_copies")
	c.cacheHits = reg.Counter("introspect.cache_hits")
	c.cacheMisses = reg.Counter("introspect.cache_misses")
}

// NewChecker builds a checker over the image. perf is the platform timing
// model the checker's cores were calibrated from; it is validated here, but
// at check time the per-byte rates come from the core the check runs on
// (Core.Rates), so runtime rescaling — DVFS steps, fault-injected jitter —
// is honored. It hashes with djb2 in DefaultChunkSize steps.
func NewChecker(image *mem.Image, perf hw.PerfModel, seed uint64) (*Checker, error) {
	if image == nil {
		return nil, fmt.Errorf("introspect: nil image")
	}
	if err := perf.Validate(); err != nil {
		return nil, fmt.Errorf("introspect: perf model: %w", err)
	}
	return &Checker{
		image: image,
		rng:   simclock.NewRNG(seed, "introspect.checker"),
		cache: newHashCache(image.Layout()),
	}, nil
}

// SetHashCache enables or disables the incremental hash cache, and with it
// the boot state's chunk terms. It is on by default; disabling it is the
// escape hatch the golden byte-identity regression uses to prove cached and
// naive runs agree, since the checker then hashes every chunk's live bytes.
// Because it will read every page, disabling it generates the image's boot
// pages up front (mem.BootState.Generate): a golden pass run after it folds
// those bytes, and no page is generated twice. Re-enabling starts from an
// empty cache. Results are identical either way — only wall-clock time
// changes.
func (c *Checker) SetHashCache(enabled bool) {
	if !enabled {
		c.cache = nil
		c.image.Boot().Generate()
		return
	}
	if c.cache == nil {
		c.cache = newHashCache(c.image.Layout())
	}
}

// HashCacheEnabled reports whether the incremental hash cache is active.
func (c *Checker) HashCacheEnabled() bool { return c.cache != nil }

// CacheStats reports incremental-cache hits and misses since construction
// (both zero when the cache is disabled).
func (c *Checker) CacheStats() (hits, misses uint64) {
	if c.cache == nil {
		return 0, 0
	}
	return c.cache.hits, c.cache.misses
}

// Result is the outcome of one check.
type Result struct {
	Technique Technique
	Addr      uint64
	Size      int
	Sum       uint64
	Started   simclock.Time
	Finished  simclock.Time
	// BufferBytes is the secure-world memory the check needed beyond the
	// hash state: zero for DirectHash, the full range for SnapshotHash —
	// Table I's "it consumes less memory than the snapshot approach".
	BufferBytes int
}

// Elapsed reports how long the check took.
func (r Result) Elapsed() time.Duration { return r.Finished.Sub(r.Started) }

// Check hashes size bytes at addr inside the secure context using the given
// technique and hands the Result to done. Work is chunked: each chunk's
// bytes are read at the virtual instant the checker reaches them, so
// normal-world writes racing the check are honored exactly as on hardware.
// Errors are impossible once the range validates; validation failures are
// reported synchronously.
func (c *Checker) Check(ctx *trustzone.Context, tech Technique, addr uint64, size int, done func(Result)) error {
	if tech != DirectHash && tech != SnapshotHash {
		return fmt.Errorf("introspect: unknown technique %v", tech)
	}
	if size <= 0 {
		return fmt.Errorf("introspect: check size %d must be positive", size)
	}
	if !c.image.Mem().Contains(addr, size) {
		return fmt.Errorf("introspect: check range [%#x,+%d) unmapped", addr, size)
	}
	// Effective rates of the core the check runs on: the Table I calibration
	// times any DVFS/fault rescaling currently applied to this core.
	rates := ctx.Core().Rates()
	res := Result{Technique: tech, Addr: addr, Size: size, Started: ctx.Now()}
	c.checks.Inc()
	w := c.getWalk()
	w.ctx, w.tech, w.addr, w.remaining, w.sum = ctx, tech, addr, size, Djb2Seed
	finish := func(sum uint64) {
		res.Sum = sum
		res.Finished = ctx.Now()
		done(res)
	}
	if tech == DirectHash {
		// One per-byte rate per check, as the paper measures per run.
		w.rate = rates.HashPerByte.Draw(c.rng)
		w.done = finish
	} else {
		c.snapshots.Inc()
		total := rates.SnapshotPerByte.Draw(c.rng)
		w.rate = total * SnapshotCaptureFraction
		analysis := secondsDuration(total * (1 - SnapshotCaptureFraction) * float64(size))
		res.BufferBytes = size
		w.done = func(sum uint64) {
			// Analysis of the frozen copy: one block of secure CPU time.
			ctx.Elapse(analysis, func() { finish(sum) })
		}
	}
	w.advance()
	return nil
}

// walk is the pooled state of one in-flight chunk walk. The walk carries
// its state here instead of in per-chunk closures so a steady-state round
// schedules its chunks without allocating: step is the single func value
// handed to Elapse for every chunk.
type walk struct {
	c         *Checker
	ctx       *trustzone.Context
	tech      Technique
	addr      uint64
	remaining int
	rate      float64
	sum       uint64
	done      func(uint64)
	step      func()
}

func (c *Checker) getWalk() *walk {
	if n := len(c.walks); n > 0 {
		w := c.walks[n-1]
		c.walks = c.walks[:n-1]
		return w
	}
	w := &walk{c: c}
	w.step = w.advance
	return w
}

// advance folds the next chunk at the current virtual instant, then elapses
// the chunk's secure CPU time. DirectHash folds the chunk in place through
// hashChunk. SnapshotHash copies it out: it folds the chunk's bytes as they
// are now, never the cache, which gives the frozen copy's sum because djb2
// streams and a captured chunk is never read again. With the cache on, a
// chunk whose pages are still the boot's folds its boot term, as
// hashChunk's miss path does; with it off, the live bytes. On completion
// the walk is recycled before done fires, so done may immediately start
// another check.
func (w *walk) advance() {
	c := w.c
	if w.remaining == 0 {
		done, sum := w.done, w.sum
		w.ctx, w.done = nil, nil
		c.walks = append(c.walks, w)
		done(sum)
		return
	}
	n := min(DefaultChunkSize, w.remaining)
	span := profile.SpanHashChunk
	if w.tech == DirectHash {
		w.sum = c.hashChunk(w.addr, n, w.sum)
		c.bytesHashed.Add(int64(n))
	} else {
		if c.cache != nil {
			w.sum, c.views = foldChunk(c.image.Mem(), w.addr, n, w.sum, c.views)
		} else {
			w.sum, c.views = foldViews(c.image.Mem(), w.addr, n, w.sum, c.views)
		}
		c.bytesCopied.Add(int64(n))
		span = profile.SpanSnapshotChunk
	}
	d := secondsDuration(w.rate * float64(n))
	if c.prof != nil {
		at := w.ctx.Now().Duration()
		c.prof.Complete(span, w.ctx.Core().ID(), -1, at, at+d)
	}
	w.addr += uint64(n)
	w.remaining -= n
	w.ctx.Elapse(d, w.step)
}

// hashChunk folds the n bytes at addr into h, consulting the incremental
// cache first and then foldChunk: while every page the chunk spans still
// shares the boot bytes, its term over them is the one the golden pass
// memoized, so a boot group hashes each chunk once. Both count as the
// cache's; with the cache off the checker always hashes the live bytes.
// Reads — cached or not — happen at the current virtual instant, so racing
// writes are honored exactly as before: a write copies its page first,
// which withdraws the boot term.
func (c *Checker) hashChunk(addr uint64, n int, h uint64) uint64 {
	m := c.image.Mem()
	if c.cache == nil {
		h, c.views = foldViews(m, addr, n, h, c.views)
		return h
	}
	if out, ok := c.cache.lookup(m, addr, n, h); ok {
		c.cacheHits.Inc()
		return out
	}
	var out uint64
	out, c.views = foldChunk(m, addr, n, h, c.views)
	c.cache.store(m, addr, n, h, out)
	c.cacheMisses.Inc()
	return out
}

// foldChunk folds the n bytes of m at addr into h. While every page the
// chunk spans is still the boot state's, it takes the chunk's term from
// the boot state's memo (mem.Memory.BootSum), which folds it from the
// fill's words where no page has been generated; otherwise it hashes the
// page views. views is scratch for the page views, returned for reuse.
func foldChunk(m *mem.Memory, addr uint64, n int, h uint64, views [][]byte) (uint64, [][]byte) {
	if term, ok := m.BootSum(djb2Term{}, addr, n); ok {
		return h*pow33(n) + term, views
	}
	return foldViews(m, addr, n, h, views)
}

// foldViews folds the bytes of m at [addr, addr+n) into h, one page view
// at a time: djb2 is a streaming hash. views is scratch for the page
// views, returned for reuse.
func foldViews(m *mem.Memory, addr uint64, n int, h uint64, views [][]byte) (uint64, [][]byte) {
	views, err := m.Views(addr, n, views[:0])
	if err != nil {
		panic(fmt.Sprintf("introspect: validated range became unreadable: %v", err))
	}
	for _, v := range views {
		h = Djb2Update(h, v)
	}
	return h, views
}

func secondsDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// GoldenTable computes the authorized hash of every area — the table SATIN
// prepares "during booting stage" and stores in secure memory (§V-B). djb2
// is the only hash kind.
func GoldenTable(image *mem.Image, hash HashKind, areas []mem.Area) ([]uint64, error) {
	out := make([]uint64, len(areas))
	for i, a := range areas {
		h, err := goldenSum(image, a.Addr, a.Size)
		if err != nil {
			return nil, fmt.Errorf("introspect: golden hash of %v: %w", a, err)
		}
		out[i] = h
	}
	return out, nil
}

// GoldenRange computes the trusted hash of an arbitrary static-kernel
// range, used by the full-kernel baseline.
func GoldenRange(image *mem.Image, hash HashKind, addr uint64, size int) (uint64, error) {
	h, err := goldenSum(image, addr, size)
	if err != nil {
		return 0, fmt.Errorf("introspect: golden hash of [%#x,+%d): %w", addr, size, err)
	}
	return h, nil
}

// goldenSum is the golden pass over the trusted range [addr, addr+n): once
// the whole range validates, it folds the image's trusted copy through
// foldChunk in the checker's own steps, DefaultChunkSize from addr. Images
// sharing a boot state share its memo, so the pass hashes each chunk the
// trusted copy still shares with the boot once per boot rather than once
// per image, and the memo then holds exactly the terms a checker's first
// scan of the range asks the boot state for.
func goldenSum(image *mem.Image, addr uint64, n int) (uint64, error) {
	trusted := image.Trusted()
	if !trusted.Contains(addr, n) {
		return 0, fmt.Errorf("range outside the static kernel")
	}
	h := Djb2Seed
	var views [][]byte
	for ; n > 0; n -= DefaultChunkSize {
		k := min(n, DefaultChunkSize)
		h, views = foldChunk(trusted, addr, k, h, views)
		addr += uint64(k)
	}
	return h, nil
}
