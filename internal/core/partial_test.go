package core

import (
	"slices"
	"testing"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// splitRange partitions [0, m) into n ascending contiguous ranges, the
// same balanced split internal/shard uses.
func splitRange(m, n, p int) (lo, hi int) {
	return p * m / n, (p + 1) * m / n
}

// partitionAll builds the n PartialStates covering both item alphabets.
func partitionAll(d *dataset.Dataset, n int) []*PartialState {
	parts := make([]*PartialState, n)
	for p := 0; p < n; p++ {
		loL, hiL := splitRange(d.Items(dataset.Left), n, p)
		loR, hiR := splitRange(d.Items(dataset.Right), n, p)
		parts[p] = NewPartialState(d, loL, hiL, loR, hiR)
	}
	return parts
}

// mergedDeltas concatenates the partitions' unmasked counts of one
// direction, in partition order, into the per-item covered − errors
// deltas of the full consequent.
func mergedDeltas(parts [][]ItemCount) []int32 {
	var delta []int32
	for _, part := range parts {
		for _, c := range part {
			delta = append(delta, c.Covered-c.Errors)
		}
	}
	return delta
}

// TestPartialStateMirrorsState drives a realistic rule sequence through
// a monolithic State and, in parallel, through every partition count in
// the acceptance grid, checking after every rule that
//
//   - the merged ScoreDir counts, folded by foldGain as the drivers
//     fold Cover.Score's deltas, reproduce gainDir's floats exactly,
//   - CoverTotals reproduces the scalar summaries exactly, and
//   - the partitions' columns equal the owned slices of the State's.
func TestPartialStateMirrorsState(t *testing.T) {
	d := plantedDataset(t, 101)
	coder := mdl.NewCoder(d)
	// A realistic rule log: whatever SELECT mines, which exercises
	// covered and error updates across both views.
	cands := mustCandidates(t, d, 5, 0, ParallelOptions{Workers: 1})
	table := mustSelect(t, d, cands, SelectOptions{K: 3}).Table
	if len(table.Rules) == 0 {
		t.Fatal("planted dataset mined no rules; test is vacuous")
	}

	for _, shards := range []int{1, 2, 3, 4, 7} {
		s := NewState(d, coder)
		parts := partitionAll(d, shards)
		totals := NewCoverTotals(d, coder)

		if totals.UOnes != [2]int{s.totals.UOnes[0], s.totals.UOnes[1]} || totals.CorrLen != s.totals.CorrLen {
			t.Fatalf("shards=%d: initial totals diverge: %+v vs %v/%v", shards, totals, s.totals.UOnes, s.totals.CorrLen)
		}

		for ri, r := range table.Rules {
			// Scoring parity before the rule is applied.
			tidX := d.SupportSet(dataset.Left, r.X)
			tidY := d.SupportSet(dataset.Right, r.Y)
			var fwdParts, backParts [][]ItemCount
			for _, ps := range parts {
				fwdParts = append(fwdParts, ps.ScoreDir(dataset.Right, tidX, r.Y, nil))
				backParts = append(backParts, ps.ScoreDir(dataset.Left, tidY, r.X, nil))
			}
			if got, want := foldGain(coder, dataset.Right, r.Y, mergedDeltas(fwdParts)), s.gainDir(dataset.Left, tidX, r.Y); got != want {
				t.Fatalf("shards=%d rule %d: fwd gain %v != gainDir %v", shards, ri, got, want)
			}
			if got, want := foldGain(coder, dataset.Left, r.X, mergedDeltas(backParts)), s.gainDir(dataset.Right, tidY, r.X); got != want {
				t.Fatalf("shards=%d rule %d: back gain %v != gainDir %v", shards, ri, got, want)
			}

			// Apply through both paths.
			fwdParts, backParts = fwdParts[:0], backParts[:0]
			for _, ps := range parts {
				pc := ps.Apply(r, nil, nil)
				fwdParts = append(fwdParts, pc.Fwd)
				backParts = append(backParts, pc.Back)
			}
			totals.Apply(r, fwdParts, backParts)
			s.AddRule(r)

			if totals.UOnes != s.totals.UOnes || totals.EOnes != s.totals.EOnes || totals.CorrLen != s.totals.CorrLen {
				t.Fatalf("shards=%d rule %d: totals diverge:\n got %+v\nwant %v %v %v",
					shards, ri, totals, s.totals.UOnes, s.totals.EOnes, s.totals.CorrLen)
			}
			sub := &Table{Rules: table.Rules[:ri+1]}
			if got, want := totals.Score(sub), s.Score(); got != want {
				t.Fatalf("shards=%d rule %d: score %v != %v", shards, ri, got, want)
			}
		}

		// Column parity and replay determinism after the full log.
		for p, ps := range parts {
			replayed := NewPartialState(d,
				ps.lo[dataset.Left], ps.hi[dataset.Left],
				ps.lo[dataset.Right], ps.hi[dataset.Right])
			replayed.Replay(table.Rules, nil)
			for _, v := range []dataset.View{dataset.Left, dataset.Right} {
				lo, hi := ps.lo[v], ps.hi[v]
				for i := lo; i < hi; i++ {
					if !ps.ucol[v][i-lo].Equal(&s.ucol[v][i]) ||
						!ps.ecol[v][i-lo].Equal(&s.ecol[v][i]) {
						t.Fatalf("shards=%d part %d: columns diverge at view %v item %d", shards, p, v, i)
					}
					if !replayed.ucol[v][i-lo].Equal(&ps.ucol[v][i-lo]) ||
						!replayed.ecol[v][i-lo].Equal(&ps.ecol[v][i-lo]) {
						t.Fatalf("shards=%d part %d: replay diverges at view %v item %d", shards, p, v, i)
					}
				}
			}
		}
	}
}

// TestPartialStateScoreRuleMatchesScoreDir pins ScoreRule over the
// candidates' cached support tidsets to ScoreRule over supports freshly
// computed from the itemsets.
func TestPartialStateScoreRuleMatchesScoreDir(t *testing.T) {
	d := plantedDataset(t, 102)
	cands := mustCandidates(t, d, 5, 0, ParallelOptions{Workers: 1})
	ps := NewPartialState(d, 0, d.Items(dataset.Left), 0, d.Items(dataset.Right))
	tidX, tidY := bitset.New(d.Size()), bitset.New(d.Size())
	for ci := range cands {
		c := &cands[ci]
		cached := ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, nil)
		d.SupportSetInto(tidX, dataset.Left, c.X)
		d.SupportSetInto(tidY, dataset.Right, c.Y)
		fresh := ps.ScoreRule(c.X, c.Y, tidX, tidY, nil)
		if len(cached.Fwd) != len(fresh.Fwd) || len(cached.Back) != len(fresh.Back) {
			t.Fatalf("cand %d: count lengths diverge", ci)
		}
		for i := range cached.Fwd {
			if cached.Fwd[i] != fresh.Fwd[i] {
				t.Fatalf("cand %d fwd[%d]: %+v != %+v", ci, i, cached.Fwd[i], fresh.Fwd[i])
			}
		}
		for i := range cached.Back {
			if cached.Back[i] != fresh.Back[i] {
				t.Fatalf("cand %d back[%d]: %+v != %+v", ci, i, cached.Back[i], fresh.Back[i])
			}
		}
	}
}

// TestPartialStateScoreRuleMask pins the dirty filter: a masked
// ScoreRule returns exactly the unmasked counts of the items the mask
// marks in each direction's target view, in the same order, and a mask
// with no items returns no counts.
func TestPartialStateScoreRuleMask(t *testing.T) {
	d := plantedDataset(t, 103)
	cands := mustCandidates(t, d, 5, 0, ParallelOptions{Workers: 1})
	ps := NewPartialState(d, 1, d.Items(dataset.Left), 0, d.Items(dataset.Right)-1)
	masks := []*[2]itemset.Itemset{
		{itemset.New(0, 1, 4), itemset.New(1, 2, 5)},
		{nil, itemset.New(0, 1, 2, 3, 4, 5)},
		{nil, nil},
	}
	filter := func(counts []ItemCount, keep itemset.Itemset) []ItemCount {
		var out []ItemCount
		for _, c := range counts {
			if keep.Contains(int(c.Item)) {
				out = append(out, c)
			}
		}
		return out
	}
	for _, items := range masks {
		dirty := NewDirtyItems(d, items)
		for ci := range cands {
			c := &cands[ci]
			all := ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, nil)
			got := ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, dirty)
			if want := filter(all.Fwd, items[dataset.Right]); !slices.Equal(got.Fwd, want) {
				t.Fatalf("mask %v cand %d fwd: %+v, want %+v", *items, ci, got.Fwd, want)
			}
			if want := filter(all.Back, items[dataset.Left]); !slices.Equal(got.Back, want) {
				t.Fatalf("mask %v cand %d back: %+v, want %+v", *items, ci, got.Back, want)
			}
		}
	}
}
