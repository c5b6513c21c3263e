package core

import (
	"context"
	"encoding/binary"
	"weak"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mine/eclat"
	"twoview/internal/pool"
)

// Candidate is one candidate rule skeleton for TRANSLATOR-SELECT and
// TRANSLATOR-GREEDY: a two-view itemset Z split into X = Z ∩ I_L and
// Y = Z ∩ I_R, with cached support tidsets for both sides.
type Candidate struct {
	X, Y itemset.Itemset
	// Supp is the joint support |supp(X ∪ Y)|.
	Supp int
	// TidX and TidY are the per-view supports of X and Y, used to
	// compute gains without re-intersecting columns. They are
	// read-only and may be shared: MaterializeTids points every
	// candidate with an equal X (or Y) at the same set, which is what
	// lets the local Cover count each distinct (antecedent, item) pair
	// once.
	TidX, TidY *bitset.Set

	// ix is the index of the MaterializeTids call that set TidX and
	// TidY, shared by every candidate of that call, and pos the
	// candidate's position in it (see candIndex); nil for candidates
	// built elsewhere. A cover uses ix only while TidX and TidY are
	// still the index's sets for pos.
	ix  *candIndex
	pos int32
}

// MineCandidates mines closed frequent two-view itemsets at the given
// minimum support and converts them into candidates, mirroring §5.3 ("all
// itemsets Z with |supp(Z)| > minsup, Z ∩ I_L ≠ ∅ and Z ∩ I_R ≠ ∅",
// restricted to closed sets as in §6.1). maxResults guards against
// pattern explosion (0 = unbounded). Both the ECLAT walk and the
// tidset materialization (MaterializeTids) run on the internal/pool
// worker pool sized by par; the result is identical for any worker
// count. Cancelling ctx aborts the walk and returns ctx.Err().
func MineCandidates(ctx context.Context, d *dataset.Dataset, minSupport, maxResults int, par ParallelOptions) ([]Candidate, error) {
	fis, err := eclat.Mine(ctx, d, eclat.Options{
		MinSupport: minSupport,
		Closed:     true,
		TwoView:    true,
		MaxResults: maxResults,
		Workers:    par.Workers,
	})
	if err != nil {
		return nil, err
	}
	// Split each mined itemset in place: the joined itemset is already a
	// fresh, owned allocation (fis is discarded afterwards), so X and Y
	// can alias its two halves.
	nLeft := d.Items(dataset.Left)
	cands := make([]Candidate, len(fis))
	for i := range fis {
		x, y := eclat.SplitInPlace(fis[i].Items, nLeft)
		cands[i] = Candidate{X: x, Y: y, Supp: fis[i].Supp}
	}
	if err := MaterializeTids(ctx, d, cands, par); err != nil {
		return nil, err
	}
	return cands, nil
}

// tidChunk is the number of distinct tidsets one MaterializeTids task
// fills: a constant, so the task split never depends on the worker
// count.
const tidChunk = 16

// MaterializeTids sets TidX and TidY of every candidate to the support
// of its X in the Left view and of its Y in the Right view, with one
// shared, read-only set per distinct X and per distinct Y. The
// distinct itemsets are interned serially in candidate order; the sets
// are carved from one batch allocation and filled on the worker pool
// sized by par, each task writing only its own sets, so the result is
// identical for any worker count. The fill's last intersection counts
// each set, and the candidates share one candIndex with the sizes and
// their side ids, which every SELECT and GREEDY run over them, or over
// any subset or reordering of them, reads. Cancelling ctx aborts the
// fill and returns ctx.Err(), leaving the candidates' tidsets unusable.
func MaterializeTids(ctx context.Context, d *dataset.Dataset, cands []Candidate, par ParallelOptions) error {
	// Intern: ids[2i] and ids[2i+1] index candidate i's X and Y into
	// sups, keyed by the view and the items.
	type support struct {
		v     dataset.View
		items itemset.Itemset
	}
	var sups []support
	seen := make(map[string]int32)
	var key []byte
	intern := func(v dataset.View, items itemset.Itemset) int32 {
		key = append(key[:0], byte(v))
		for _, it := range items {
			key = binary.AppendUvarint(key, uint64(it))
		}
		id, ok := seen[string(key)]
		if !ok {
			id = int32(len(sups))
			seen[string(key)] = id
			sups = append(sups, support{v, items})
		}
		return id
	}
	ids := make([]int32, 2*len(cands))
	for i := range cands {
		ids[2*i], ids[2*i+1] = intern(dataset.Left, cands[i].X), intern(dataset.Right, cands[i].Y)
	}
	tids := bitset.NewBatch(len(sups), d.Size())
	ix := &candIndex{d: weak.Make(d), tids: make([]*bitset.Set, len(sups)), size: make([]int32, len(sups)), side: ids}
	for k := range tids {
		ix.tids[k] = &tids[k]
	}
	ix.items = func(p int) (x, y itemset.Itemset) { return sups[ids[2*p]].items, sups[ids[2*p+1]].items }
	for i := range cands {
		cands[i].TidX, cands[i].TidY = ix.tids[ids[2*i]], ix.tids[ids[2*i+1]]
		cands[i].ix, cands[i].pos = ix, int32(i)
	}
	return pool.ForChunksCtx(ctx, par.Workers, len(sups), tidChunk, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ix.size[k] = int32(d.SupportSetInto(&tids[k], sups[k].v, sups[k].items))
		}
	})
}

// MineCandidatesCapped mines candidates like MineCandidates but, instead
// of failing on a pattern explosion, doubles the minimum support until at
// most maxResults candidates remain — the paper's protocol of fixing
// minsup "such that the number of candidates remains manageable" (§6.1).
// It returns the candidates and the effective minimum support.
// A context cancellation is never retried: it aborts the doubling loop
// immediately with ctx.Err().
func MineCandidatesCapped(ctx context.Context, d *dataset.Dataset, minSupport, maxResults int, par ParallelOptions) ([]Candidate, int, error) {
	if minSupport < 1 {
		minSupport = 1
	}
	if maxResults <= 0 {
		cands, err := MineCandidates(ctx, d, minSupport, 0, par)
		return cands, minSupport, err
	}
	for {
		cands, err := MineCandidates(ctx, d, minSupport, maxResults, par)
		if err == nil {
			return cands, minSupport, nil
		}
		if ctx.Err() != nil {
			return nil, minSupport, ctx.Err()
		}
		next := minSupport * 2
		if next > d.Size() {
			return nil, minSupport, err
		}
		minSupport = next
	}
}
