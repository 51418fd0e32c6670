package introspect

import (
	"satin/internal/mem"
)

// hashCache is the incremental hash cache: it memoizes the hash-state
// transition of every chunk the checker reads, keyed by the chunk's start
// address and validated by (a) the chunk's length, (b) the hash state
// entering the chunk and (c) the write-generation sum of the pages the
// chunk spans.
//
// Correctness argument (the determinism constraint of the hot-path
// overhaul): a cached transition (hIn → hOut) was recorded when the n-byte
// chunk held bytes B. An equal length means the lookup covers those same
// bytes (a check that ends mid-chunk reads a shorter chunk at the same
// start). Page generations increase on every Memory.Write, so an unchanged
// generation sum at lookup time proves no write touched those pages since
// the entry was stored — the chunk still holds B — and an equal hIn means
// folding B in again would reproduce hOut exactly. Both checks
// happen at the same virtual instant the naive path would have read the
// bytes, so writes racing a check (the paper's Figure 3 TOCTTOU structure)
// invalidate precisely the chunks they would have changed: cached and naive
// checks return bit-identical sums in every interleaving. The differential
// property tests in cache_test.go drive randomized write/check sequences
// against a naive re-hash to enforce this.
//
// The common case the cache exists for: an attack flips ~8 bytes out of a
// ~12 MB kernel, so all but one chunk of every round after the first full
// scan hits, and steady-state rounds cost two integer compares per 4 KiB
// instead of a hash over them.
type hashCache struct {
	// entries is allocated by the first store, with room for size entries,
	// so a full first scan never rehashes it.
	entries map[uint64]chunkEntry
	size    int
	hits    uint64
	misses  uint64
}

// chunkEntry is one memoized chunk transition.
type chunkEntry struct {
	n      int    // chunk length in bytes
	hIn    uint64 // hash state entering the chunk when stored
	hOut   uint64 // resulting state after folding the chunk's bytes
	genSum uint64 // mem.GenSum over the chunk's pages when stored
}

// newHashCache sizes the cache for one full scan of the static kernel in l:
// one entry per chunk, plus one per section for the partial chunk an area
// may end on (areas are runs of whole sections, so no partition has more
// areas than sections).
func newHashCache(l mem.Layout) *hashCache {
	chunks := (l.TotalSize() + DefaultChunkSize - 1) / DefaultChunkSize
	return &hashCache{size: chunks + len(l.Sections)}
}

// lookup returns the memoized outgoing hash state for the chunk at
// [addr, addr+n) entered with state hIn, if the entry is still valid at the
// current instant.
func (hc *hashCache) lookup(m *mem.Memory, addr uint64, n int, hIn uint64) (uint64, bool) {
	e, ok := hc.entries[addr]
	if !ok || e.n != n || e.hIn != hIn || e.genSum != m.GenSum(addr, n) {
		hc.misses++
		return 0, false
	}
	hc.hits++
	return e.hOut, true
}

// store memoizes the transition hIn → hOut for the chunk at [addr, addr+n),
// stamped with the pages' current generation sum. Must be called at the
// same virtual instant the bytes were read.
func (hc *hashCache) store(m *mem.Memory, addr uint64, n int, hIn, hOut uint64) {
	if hc.entries == nil {
		hc.entries = make(map[uint64]chunkEntry, hc.size)
	}
	hc.entries[addr] = chunkEntry{n: n, hIn: hIn, hOut: hOut, genSum: m.GenSum(addr, n)}
}
