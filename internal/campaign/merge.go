package campaign

import (
	"bytes"
	"fmt"
	"sort"
)

// Merge combines per-shard result files into one finalized campaign result
// at outPath. Every input must embed the same canonical campaign (a shard
// file never absorbs foreign cells, and neither does a merge), and together
// the inputs must cover every cell of the expansion. The output is the
// canonical finalized form — byte-identical to a single-process Run of the
// same campaign, for any shard count and any lease or kill history.
//
// The same cell may appear in several inputs (a lease that expired mid-run
// was reassigned, and both workers eventually uploaded): cells are
// deterministic, so duplicates are tolerated as long as their records agree
// byte for byte. Records that disagree mean non-determinism or corruption,
// and fail the merge naming the cell.
func Merge(outPath string, shardPaths ...string) (int, error) {
	if len(shardPaths) == 0 {
		return 0, fmt.Errorf("campaign: merge: no shard files")
	}
	var specBytes []byte
	done := map[int]CellResult{}
	for _, path := range shardPaths {
		shardSpec, results, _, err := ReadResults(path)
		if err != nil {
			return 0, fmt.Errorf("campaign: merge: %s: %w", path, err)
		}
		if specBytes == nil {
			specBytes = shardSpec
		} else if !bytes.Equal(specBytes, shardSpec) {
			return 0, fmt.Errorf("campaign: merge: %s belongs to a different campaign than %s (embedded specs differ)", path, shardPaths[0])
		}
		for _, res := range results {
			prev, dup := done[res.Index]
			if !dup {
				done[res.Index] = res
				continue
			}
			if !bytes.Equal(encodeCell(prev), encodeCell(res)) {
				return 0, fmt.Errorf("campaign: merge: cell %d has conflicting results across shard files (%s disagrees with an earlier shard)", res.Index, path)
			}
		}
	}

	c, err := Parse(specBytes)
	if err != nil {
		return 0, fmt.Errorf("campaign: merge: embedded spec: %w", err)
	}
	cells, err := Cells(c)
	if err != nil {
		return 0, fmt.Errorf("campaign: merge: embedded spec: %w", err)
	}
	ordered := make([]CellResult, 0, len(cells))
	for i := range cells {
		res, ok := done[i]
		if !ok {
			return 0, fmt.Errorf("campaign: merge: cell %d missing (shards cover %d of %d cells)", i, len(done), len(cells))
		}
		ordered = append(ordered, res)
	}
	if len(done) > len(cells) {
		return 0, fmt.Errorf("campaign: merge: shards hold %d cells but the campaign expands to %d", len(done), len(cells))
	}
	if err := writeFinalized(outPath, specBytes, ordered); err != nil {
		return 0, fmt.Errorf("campaign: merge: %w", err)
	}
	return len(cells), nil
}

// ReadFile is ReadResults on an in-memory image — the upload-validation
// form. It returns the embedded canonical spec and the cells in index order.
func ReadFile(data []byte) (specBytes []byte, results []CellResult, finalized bool, err error) {
	specBytes, rest, err := decodeHeader(data)
	if err != nil {
		return nil, nil, false, err
	}
	done, _, finalized, err := decodeRecords(rest, true)
	if err != nil {
		return nil, nil, false, err
	}
	indices := make([]int, 0, len(done))
	for i := range done {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	for _, i := range indices {
		results = append(results, done[i])
	}
	return specBytes, results, finalized, nil
}
