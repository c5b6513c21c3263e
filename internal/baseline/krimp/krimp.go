// Package krimp is a from-scratch implementation of the KRIMP algorithm
// (Vreeken, van Leeuwen & Siebes, "Krimp: mining itemsets that compress",
// DMKD 23(1), 2011) used as a baseline in §6.3: KRIMP is run on the
// *concatenation* of the two views, and the accepted non-singleton code
// table itemsets are then interpreted as bidirectional translation rules.
// Itemsets contained in a single view cannot form translation rules (one
// side would be empty) and are dropped during conversion; the paper's
// point — that the resulting "translation table" inflates the translation
// dramatically — is reproduced by scoring the converted table under the
// translation encoding.
package krimp

import (
	"context"
	"math"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/mine/eclat"
)

// Entry is one row of a code table: an itemset over the joined alphabet
// with its current usage under the cover function.
type Entry struct {
	Items itemset.Itemset // joined ids (right items offset by |I_L|)
	Supp  int             // support in the joined data
	Usage int             // cover usage (recomputed by CoverAll)
}

// CodeTable is a KRIMP code table in standard cover order. It always
// contains all singletons of the joined alphabet, so every transaction
// can be covered.
type CodeTable struct {
	entries []Entry // maintained in standard cover order
	nItems  int     // joined alphabet size
}

// Entries returns the entries in standard cover order. Read-only.
func (ct *CodeTable) Entries() []Entry { return ct.entries }

// standardCoverLess orders entries by length desc, support desc, then
// lexicographically — the standard cover order of the KRIMP paper.
func standardCoverLess(a, b *Entry) bool {
	if len(a.Items) != len(b.Items) {
		return len(a.Items) > len(b.Items)
	}
	if a.Supp != b.Supp {
		return a.Supp > b.Supp
	}
	return itemset.Compare(a.Items, b.Items) < 0
}

// standardCandidateLess orders candidates by support desc, length desc,
// then lexicographically — the standard candidate order.
func standardCandidateLess(a, b *eclat.FI) bool {
	if a.Supp != b.Supp {
		return a.Supp > b.Supp
	}
	if len(a.Items) != len(b.Items) {
		return len(a.Items) > len(b.Items)
	}
	return itemset.Compare(a.Items, b.Items) < 0
}

// Result is the outcome of running KRIMP.
type Result struct {
	CT *CodeTable
	// TotalLen is L(CT, D) = L(D|CT) + L(CT|D) in bits.
	TotalLen float64
	// BaselineLen is L(ST, D), the total size under the singleton-only
	// code table.
	BaselineLen float64
	// Candidates is the number of candidate itemsets considered.
	Candidates int
	// Accepted is the number of non-singleton itemsets in the final CT.
	Accepted int
}

// Options configures Mine.
type Options struct {
	// MinSupport is the candidate minimum support; values < 1 mean 1.
	MinSupport int
	// MaxResults guards against candidate explosion (0 = unbounded).
	MaxResults int
	// Pruning enables post-acceptance pruning: after each accepted
	// candidate, code table entries whose usage decreased are removed
	// if that improves compression (the KRIMP paper's recommended
	// variant).
	Pruning bool
}

// joined holds the concatenated two-view data.
type joined struct {
	rows []*bitset.Set // width nItems
	cols []*bitset.Set
	n    int // alphabet size
}

func joinViews(d *dataset.Dataset) *joined {
	nL, nR := d.Items(dataset.Left), d.Items(dataset.Right)
	j := &joined{n: nL + nR}
	j.rows = make([]*bitset.Set, d.Size())
	for t := 0; t < d.Size(); t++ {
		row := bitset.New(j.n)
		d.Row(dataset.Left, t).ForEach(func(i int) bool {
			row.Add(i)
			return true
		})
		d.Row(dataset.Right, t).ForEach(func(i int) bool {
			row.Add(nL + i)
			return true
		})
		j.rows[t] = row
	}
	j.cols = make([]*bitset.Set, j.n)
	for i := 0; i < j.n; i++ {
		j.cols[i] = bitset.New(d.Size())
	}
	for t, row := range j.rows {
		row.ForEach(func(i int) bool {
			j.cols[i].Add(t)
			return true
		})
	}
	return j
}

// coverTransaction covers one transaction with the standard greedy cover
// function (scan entries in standard cover order, use every entry
// contained in the still-uncovered part), adjusting usages by delta
// (+1 to add the transaction's contributions, -1 to remove them).
func (ct *CodeTable) coverTransaction(j *joined, t int, uncovered *bitset.Set, delta int) {
	uncovered.Copy(j.rows[t])
	for i := range ct.entries {
		e := &ct.entries[i]
		if !subsetOfBits(e.Items, uncovered) {
			continue
		}
		e.Usage += delta
		for _, it := range e.Items {
			uncovered.Remove(it)
		}
		if uncovered.Empty() {
			break
		}
	}
}

// coverAll recomputes all usages from scratch.
func (ct *CodeTable) coverAll(j *joined) {
	for i := range ct.entries {
		ct.entries[i].Usage = 0
	}
	uncovered := bitset.New(ct.nItems)
	for t := range j.rows {
		ct.coverTransaction(j, t, uncovered, 1)
	}
}

// recoverTids re-covers only the given transactions with the current
// table, adjusting usages by delta. Inserting or removing an itemset e
// can only change the cover of transactions containing e (for all others
// the relative order and availability of the remaining entries is
// unchanged), so the acceptance loop calls this with supp(e) instead of
// recovering the whole database.
func (ct *CodeTable) recoverTids(j *joined, tids *bitset.Set, delta int) {
	uncovered := bitset.New(ct.nItems)
	tids.ForEach(func(t int) bool {
		ct.coverTransaction(j, t, uncovered, delta)
		return true
	})
}

func subsetOfBits(s itemset.Itemset, b *bitset.Set) bool {
	for _, i := range s {
		if !b.Contains(i) {
			return false
		}
	}
	return true
}

// totalLen returns L(CT, D) = L(D|CT) + L(CT|D) for the current usages.
// stLen are the standard-code lengths of the singletons (for encoding the
// itemsets inside the code table).
func (ct *CodeTable) totalLen(stLen []float64) float64 {
	totalUsage := 0
	for i := range ct.entries {
		totalUsage += ct.entries[i].Usage
	}
	if totalUsage == 0 {
		return 0
	}
	logTotal := math.Log2(float64(totalUsage))
	dataBits, tableBits := 0.0, 0.0
	for i := range ct.entries {
		e := &ct.entries[i]
		if e.Usage == 0 {
			continue // zero-usage entries carry no code
		}
		codeLen := logTotal - math.Log2(float64(e.Usage))
		dataBits += float64(e.Usage) * codeLen
		tableBits += codeLen
		for _, it := range e.Items {
			tableBits += stLen[it]
		}
	}
	return dataBits + tableBits
}

// Mine runs KRIMP on the joined views of d.
func Mine(d *dataset.Dataset, opt Options) (*Result, error) {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	j := joinViews(d)

	// Standard code lengths: singleton codes under the singleton-only
	// cover, i.e. usage(i) = supp(i), total = total ones.
	totalOnes := 0
	for _, c := range j.cols {
		totalOnes += c.Count()
	}
	stLen := make([]float64, j.n)
	for i, c := range j.cols {
		if s := c.Count(); s > 0 {
			stLen[i] = math.Log2(float64(totalOnes)) - math.Log2(float64(s))
		} else {
			stLen[i] = math.Inf(1)
		}
	}

	// Initial code table: all occurring singletons.
	ct := &CodeTable{nItems: j.n}
	for i, c := range j.cols {
		if !c.Empty() {
			ct.entries = append(ct.entries, Entry{Items: itemset.New(i), Supp: c.Count()})
		}
	}
	sortEntries(ct)
	ct.coverAll(j)
	baseline := ct.totalLen(stLen)
	curLen := baseline

	// Candidates: closed frequent itemsets of the joined data in
	// standard candidate order.
	fis, err := eclat.Mine(context.Background(), d, eclat.Options{
		MinSupport: opt.MinSupport,
		Closed:     true,
		MaxResults: opt.MaxResults,
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(fis, func(a, b int) bool { return standardCandidateLess(&fis[a], &fis[b]) })

	for i := range fis {
		fi := &fis[i]
		if len(fi.Items) < 2 {
			continue
		}
		// Incremental cover update: only transactions containing the
		// candidate can change their cover.
		tids := suppSetOf(j, fi.Items)
		ct.recoverTids(j, tids, -1)
		ct.entries = append(ct.entries, Entry{Items: fi.Items, Supp: fi.Supp})
		sortEntries(ct)
		ct.recoverTids(j, tids, +1)
		newLen := ct.totalLen(stLen)
		if newLen < curLen {
			curLen = newLen
			if opt.Pruning {
				curLen = ct.prune(j, stLen, curLen)
			}
		} else {
			ct.recoverTids(j, tids, -1)
			removeEntry(ct, fi.Items)
			ct.recoverTids(j, tids, +1)
		}
	}

	accepted := 0
	for i := range ct.entries {
		if len(ct.entries[i].Items) > 1 {
			accepted++
		}
	}
	return &Result{
		CT:          ct,
		TotalLen:    curLen,
		BaselineLen: baseline,
		Candidates:  len(fis),
		Accepted:    accepted,
	}, nil
}

// prune removes non-singleton entries whose removal improves compression,
// iterating until stable (the KRIMP "prune on acceptance" strategy,
// considering entries by increasing usage).
func (ct *CodeTable) prune(j *joined, stLen []float64, curLen float64) float64 {
	for {
		// Candidates: non-singleton entries, lowest usage first.
		idx := make([]int, 0, len(ct.entries))
		for i := range ct.entries {
			if len(ct.entries[i].Items) > 1 {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool {
			ea, eb := &ct.entries[idx[a]], &ct.entries[idx[b]]
			if ea.Usage != eb.Usage {
				return ea.Usage < eb.Usage
			}
			return itemset.Compare(ea.Items, eb.Items) < 0
		})
		improved := false
		for _, i := range idx {
			items := ct.entries[i].Items
			tids := suppSetOf(j, items)
			ct.recoverTids(j, tids, -1)
			removeEntry(ct, items)
			ct.recoverTids(j, tids, +1)
			if l := ct.totalLen(stLen); l < curLen {
				curLen = l
				improved = true
				break // indices shifted; restart scan
			}
			// Put it back.
			ct.recoverTids(j, tids, -1)
			ct.entries = append(ct.entries, Entry{Items: items, Supp: tids.Count()})
			sortEntries(ct)
			ct.recoverTids(j, tids, +1)
		}
		if !improved {
			return curLen
		}
	}
}

// suppSetOf returns the transactions containing items, from their
// joined columns.
func suppSetOf(j *joined, items itemset.Itemset) *bitset.Set {
	tids := bitset.New(j.cols[0].Len())
	tids.Fill()
	for _, i := range items {
		tids.And(j.cols[i])
	}
	return tids
}

func sortEntries(ct *CodeTable) {
	sort.Slice(ct.entries, func(a, b int) bool {
		return standardCoverLess(&ct.entries[a], &ct.entries[b])
	})
}

func removeEntry(ct *CodeTable, items itemset.Itemset) {
	for i := range ct.entries {
		if ct.entries[i].Items.Equal(items) {
			ct.entries = append(ct.entries[:i], ct.entries[i+1:]...)
			return
		}
	}
}

// ToTranslationTable interprets the code table as a translation table, as
// §6.3 prescribes: every used non-singleton itemset spanning both views
// becomes one bidirectional rule. Itemsets lying within a single view
// cannot form valid rules (one side would be empty); they are returned
// separately (as joined-id itemsets) so callers can still charge their
// encoding cost to the table — the paper treats the *complete* code table
// as the model, which is what makes KRIMP's translation compression so
// poor (ratios up to 816% in Table 3).
func ToTranslationTable(res *Result, d *dataset.Dataset) (*core.Table, []itemset.Itemset) {
	nL := d.Items(dataset.Left)
	t := &core.Table{}
	var dropped []itemset.Itemset
	for _, e := range res.CT.Entries() {
		if len(e.Items) < 2 || e.Usage == 0 {
			continue
		}
		x, y := eclat.Split(e.Items, nL)
		if x.Empty() || y.Empty() {
			dropped = append(dropped, e.Items)
			continue
		}
		t.Rules = append(t.Rules, core.Rule{X: x, Dir: core.Both, Y: y})
	}
	return t, dropped
}

// SingleViewTableLen returns the encoded length, under the translation
// encoding, of single-view code table itemsets when kept in a translation
// table: item code lengths plus one direction bit per itemset. This is
// the cost the paper implicitly charges by putting the whole code table
// into the model.
func SingleViewTableLen(d *dataset.Dataset, coder *mdl.Coder, dropped []itemset.Itemset) float64 {
	nL := d.Items(dataset.Left)
	total := 0.0
	for _, items := range dropped {
		x, y := eclat.Split(items, nL)
		total += coder.SetLen(dataset.Left, x) + coder.SetLen(dataset.Right, y) + 1
	}
	return total
}
