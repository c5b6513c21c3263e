package core

import "context"

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
	return lc.ix.build(ctx, lc.s.d, lc.rt, lc.workers)
}

// DropIndexLayout unbuilds the index MaterializeTids attached to cands,
// so that the next local cover over them builds it again.
func DropIndexLayout(cands []Candidate) {
	ix := cands[0].ix
	ix.cells, ix.cellOf, ix.cellOff = nil, nil, nil
}
