package core

import (
	"context"

	"twoview/internal/dataset"
)

// CheckSelectAgainstOracle exposes checkSelectAgainstOracle to the
// external tests of this package, which can import internal/synth
// (itself an importer of core) for paper-profile data.
var CheckSelectAgainstOracle = checkSelectAgainstOracle

// CheckMemoSavesWork exposes checkMemoSavesWork likewise.
var CheckMemoSavesWork = checkMemoSavesWork

// BuildCoverIndex builds the index the local cover c scores through, as
// its first Score does.
func BuildCoverIndex(ctx context.Context, c Cover) error {
	lc := c.(*localCover)
	return lc.ix.build(ctx, lc.s.d, lc.workers)
}

// DropIndexLayout unbuilds the index MaterializeTids attached to cands,
// so that the next local cover over them builds it again.
func DropIndexLayout(cands []Candidate) {
	ix := cands[0].ix
	ix.cells, ix.cellOf, ix.cellOff = nil, nil, nil
}

// GreedyOrder returns the indices of d's candidates in GREEDY's order.
func GreedyOrder(d *dataset.Dataset, cands []Candidate) []int {
	keys, _ := greedyOrder(d, cands, nil, nil)
	order := make([]int, len(keys))
	for i, ci := range keys {
		order[i] = int(ci)
	}
	return order
}
