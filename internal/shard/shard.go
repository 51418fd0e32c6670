// Package shard partitions a campaign's flat cell list into K shards for
// cross-process execution. The planner's one non-negotiable rule is that a
// group — cells sharing a forkable prefix or a seed's kernel boot, the unit
// the campaign executor runs on one worker to share that work — is never
// split across shards: a shard either holds the whole group or none of it,
// so boot sharing applies within every shard exactly as it would in one
// process. Around that constraint the planner balances cell counts with a
// deterministic longest-processing-time greedy; a group larger than the
// even share leaves the shards uneven.
//
// A plan only shapes which process computes which cells; the merged result
// is byte-invariant to it (campaign.Merge sorts by cell index). Determinism
// here is still worth having — the same campaign and K always plan the same
// shards, so lease handouts and smoke runs are reproducible.
package shard

import (
	"fmt"
	"sort"

	"satin/internal/campaign"
)

// Plan is one sharding of a campaign: Shards[i] lists the cell indices
// shard i executes, each ascending. Every cell appears in exactly one
// shard; shards may be empty when K exceeds the number of atomic blocks.
type Plan struct {
	Shards [][]int
}

// Count reports the number of shards.
func (p Plan) Count() int { return len(p.Shards) }

// Cells reports the total cell count across shards.
func (p Plan) Cells() int {
	n := 0
	for _, s := range p.Shards {
		n += len(s)
	}
	return n
}

// block is one atomic scheduling unit: a group, or a single ungrouped cell.
type block struct {
	first int // lowest cell index, the deterministic identity
	cells []int
}

// PlanCells partitions cells into k shards. key, when non-nil, classifies
// cells into groups (the campaign.GroupKeyFunc contract: matching keys with
// ok=true share boot work); grouped cells are kept together. A nil key
// plans every cell independently.
func PlanCells(cells []campaign.Cell, k int, key campaign.GroupKeyFunc) (Plan, error) {
	if k < 1 {
		return Plan{}, fmt.Errorf("shard: shard count %d: need at least 1", k)
	}
	blocks := blocksOf(cells, key)

	// LPT greedy: biggest blocks first (ties by first cell index, so the
	// order — and therefore the plan — is deterministic), each onto the
	// least-loaded shard (ties by shard number).
	sort.Slice(blocks, func(i, j int) bool {
		if len(blocks[i].cells) != len(blocks[j].cells) {
			return len(blocks[i].cells) > len(blocks[j].cells)
		}
		return blocks[i].first < blocks[j].first
	})
	plan := Plan{Shards: make([][]int, k)}
	for i := range plan.Shards {
		plan.Shards[i] = []int{}
	}
	load := make([]int, k)
	for _, b := range blocks {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		plan.Shards[best] = append(plan.Shards[best], b.cells...)
		load[best] += len(b.cells)
	}
	for _, s := range plan.Shards {
		sort.Ints(s)
	}
	return plan, nil
}

// blocksOf groups the cells into atomic blocks: groups of two or more stay
// whole, everything else is a singleton. Mirrors the executor's groupUnits
// — a group the executor would run as one unit is exactly a block the
// planner keeps intact.
func blocksOf(cells []campaign.Cell, key campaign.GroupKeyFunc) []block {
	grouped := map[string][]int{}
	keyOf := make([]string, len(cells))
	if key != nil {
		for i, c := range cells {
			if c.Scenario == nil {
				continue
			}
			if k, ok := key(*c.Scenario); ok {
				keyOf[i] = k
				grouped[k] = append(grouped[k], c.Index)
			}
		}
	}
	var blocks []block
	emitted := map[string]bool{}
	for i, c := range cells {
		k := keyOf[i]
		if k == "" || len(grouped[k]) < 2 {
			blocks = append(blocks, block{first: c.Index, cells: []int{c.Index}})
			continue
		}
		if !emitted[k] {
			emitted[k] = true
			blocks = append(blocks, block{first: grouped[k][0], cells: grouped[k]})
		}
	}
	return blocks
}
