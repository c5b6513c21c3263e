package eclat

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// This file pins the kids-first walk to the seed implementation:
// referenceMine is the original one-branch-per-extension walk (fresh
// allocations per node, closure by a subset test against every item, no
// in-place itemset edits), kept verbatim as an executable
// specification. The property tests require Mine — kid passes, closure
// by absorption, per-depth storage — to emit exactly the same FI
// sequence, order included, on random datasets.

// referenceMine mirrors Mine with the seed allocation behavior, serial.
func referenceMine(d *dataset.Dataset, opt Options) ([]FI, error) {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	nL := d.Items(dataset.Left)
	m := nL + d.Items(dataset.Right)
	cols := make([]*bitset.Set, m)
	for i, c := range d.Columns(dataset.Left) {
		cols[i] = c
	}
	for i, c := range d.Columns(dataset.Right) {
		cols[nL+i] = c
	}
	var freq []int
	for i := 0; i < m; i++ {
		if cols[i].Count() >= opt.MinSupport {
			freq = append(freq, i)
		}
	}
	sort.Slice(freq, func(a, b int) bool {
		ca, cb := cols[freq[a]].Count(), cols[freq[b]].Count()
		if ca != cb {
			return ca < cb
		}
		return freq[a] < freq[b]
	})
	r := &refMiner{d: d, opt: opt, nLeft: nL, cols: cols, order: freq}
	all := bitset.New(d.Size())
	all.Fill()
	for k := range r.order {
		if err := r.branch(nil, all, k); err != nil {
			return nil, err
		}
	}
	sort.Slice(r.out, func(a, b int) bool {
		if r.out[a].Supp != r.out[b].Supp {
			return r.out[a].Supp > r.out[b].Supp
		}
		return itemset.Compare(r.out[a].Items, r.out[b].Items) < 0
	})
	return r.out, nil
}

type refMiner struct {
	d     *dataset.Dataset
	opt   Options
	nLeft int
	cols  []*bitset.Set
	order []int
	out   []FI
}

func (m *refMiner) branch(cur itemset.Itemset, tids *bitset.Set, k int) error {
	it := m.order[k]
	if cur.Contains(it) {
		return nil
	}
	child := bitset.New(m.d.Size())
	bitset.IntersectInto(child, tids, m.cols[it])
	supp := child.Count()
	if supp < m.opt.MinSupport {
		return nil
	}
	cand := refInsert(cur, it)
	if m.opt.MaxItems > 0 && len(cand) > m.opt.MaxItems {
		return nil
	}
	next, emit := cand, cand
	if m.opt.Closed {
		closure, ok := m.closure(cand, child, k)
		if !ok {
			return nil
		}
		next, emit = closure, closure
		if m.opt.MaxItems > 0 && len(emit) > m.opt.MaxItems {
			emit = nil
		}
	}
	if emit != nil && (!m.opt.TwoView || len(emit) >= 2 && emit[0] < m.nLeft && emit[len(emit)-1] >= m.nLeft) {
		m.out = append(m.out, FI{Items: emit, Supp: supp})
		if m.opt.MaxResults > 0 && len(m.out) > m.opt.MaxResults {
			return errRefOverflow
		}
	}
	for j := k + 1; j < len(m.order); j++ {
		if err := m.branch(next, child, j); err != nil {
			return err
		}
	}
	return nil
}

func (m *refMiner) closure(cur itemset.Itemset, tids *bitset.Set, k int) (itemset.Itemset, bool) {
	closure := cur
	for r, it := range m.order {
		if cur.Contains(it) {
			continue
		}
		if tids.SubsetOf(m.cols[it]) {
			if r < k {
				return nil, false
			}
			closure = refInsert(closure, it)
		}
	}
	return closure, true
}

func refInsert(s itemset.Itemset, x int) itemset.Itemset {
	i := sort.SearchInts(s, x)
	out := make(itemset.Itemset, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	return append(out, s[i:]...)
}

type refOverflow struct{}

func (refOverflow) Error() string { return "reference overflow" }

var errRefOverflow = refOverflow{}

// sameFIs requires bit-identical output sequences: itemsets and
// supports, in the same order.
func sameFIs(t *testing.T, got, want []FI, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d itemsets, reference %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !got[i].Items.Equal(want[i].Items) || got[i].Supp != want[i].Supp {
			t.Fatalf("%s: itemset %d = %v/%d, reference %v/%d",
				ctx, i, got[i].Items, got[i].Supp, want[i].Items, want[i].Supp)
		}
	}
}

// The kids-first walk must emit exactly the reference FI sequence on
// random datasets, for every option mix and worker count.
func TestRecyclingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		d := randomDataset(r)
		for _, opt := range []Options{
			{MinSupport: 1},
			{MinSupport: 2},
			{MinSupport: 1, Closed: true},
			{MinSupport: 1, Closed: true, TwoView: true},
			{MinSupport: 1, MaxItems: 2},
			{MinSupport: 1, Closed: true, MaxItems: 2},
		} {
			want, refErr := referenceMine(d, opt)
			if refErr != nil {
				t.Fatal(refErr)
			}
			for _, workers := range []int{1, 2, 4, 7} {
				opt.Workers = workers
				got, err := Mine(context.Background(), d, opt)
				if err != nil {
					t.Fatalf("trial %d workers %d: %v", trial, workers, err)
				}
				sameFIs(t, got, want, "trial/workers mix")
			}
		}
	}
}

// quick.Check property: for arbitrary seeds, closed two-view mining
// by the kids-first walk equals the seed implementation, order included.
func TestQuickRecyclingMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		opt := Options{MinSupport: 1 + r.Intn(3), Closed: r.Intn(2) == 0,
			TwoView: r.Intn(2) == 0, MaxItems: r.Intn(4)}
		want, err := referenceMine(d, opt)
		if err != nil {
			return false
		}
		opt.Workers = 1 + r.Intn(4)
		got, err := Mine(context.Background(), d, opt)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if !got[i].Items.Equal(want[i].Items) || got[i].Supp != want[i].Supp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
