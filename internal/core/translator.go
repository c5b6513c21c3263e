package core

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
)

// This file implements the compiled serving layer: a Translator is a
// translation table prepared once against a dataset's vocabularies so
// that the per-row cost of "mine once, Apply many" serving is a few
// posting-list walks and word-level set operations instead of a full
// rule scan with per-item subset probes.
//
// Compilation builds, per translation direction, an item-indexed
// posting list (post[i] = the rules whose antecedent contains item i)
// plus a per-rule consequent bit mask. A row is translated with the
// counting subset matcher: walking the postings of the row's items
// increments one counter per touched rule, and a rule fires exactly
// when its counter reaches its antecedent size — each rule is examined
// proportionally to its overlap with the row, so rules whose antecedent
// shares nothing with the row cost nothing.

// Translator is a translation table compiled against a dataset's
// vocabularies for repeated application — the serving-side artifact of
// "mine once, Apply many". Compile it once with CompileTranslator and
// share it freely: a Translator is immutable after compilation and all
// its methods are safe for concurrent use by any number of goroutines
// (per-call scratch is pooled internally), so one instance can serve
// every request thread of a process.
type Translator struct {
	names   [2][]string // vocabularies captured at compile time, by view
	items   [2]int      // vocabulary sizes, by view
	dirs    [2]compiledDir
	nRules  int // rules in the source table
	scratch sync.Pool
}

// compiledDir is the compiled program for one translation direction,
// indexed by the from-view.
type compiledDir struct {
	rules []compiledRule
	post  [][]int32 // post[fromItem] = indices into rules
}

// compiledRule is one rule prepared for the counting matcher.
type compiledRule struct {
	rhs    *bitset.Set // consequent mask over the target vocabulary
	lhsLen int32       // |antecedent|: the counter value at which the rule fires
}

// translatorScratch is the per-call working set: one rule-hit counter
// slice (shared by both directions; sized to the larger), the matching
// generation tags, one translation accumulator per target view, and one
// row per view that the id entries and ApplyStream fill from item ids.
//
// The counters are reset lazily via the generation tags: a counter is
// valid only when its tag equals the scratch's current generation, and
// every row bumps the generation instead of clearing the whole counter
// prefix. That makes the per-row reset cost O(rules touched by the row)
// instead of O(|T|) — on thousand-rule tables with sparse rows the
// clear of the counter slice used to dominate the matcher itself (see
// BenchmarkTranslatorSparseRow).
type translatorScratch struct {
	counts []int32
	gens   []uint32
	gen    uint32
	out    [2]*bitset.Set // indexed by the *target* view
	row    [2]*bitset.Set // indexed by view
}

// nextGen advances the scratch to a fresh generation, invalidating
// every counter in O(1). On uint32 wraparound (once per 2^32 rows) the
// tags are resynchronized with one full clear so a stale tag from four
// billion rows ago can never alias the new generation.
func (sc *translatorScratch) nextGen() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.gens)
		sc.gen = 1
	}
	return sc.gen
}

// CompileTranslator compiles t against d's vocabularies. The table is
// validated first (itemsets canonical and within the vocabularies);
// compilation is O(Σ |rule|) and the result references only its own
// storage, so d and t may be mutated or discarded afterwards.
func CompileTranslator(d *dataset.Dataset, t *Table) (*Translator, error) {
	if err := t.Validate(d); err != nil {
		return nil, fmt.Errorf("core: cannot compile translator: %w", err)
	}
	tr := &Translator{nRules: t.Size()}
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		tr.names[v] = slices.Clone(d.Names(v))
		tr.items[v] = d.Items(v)
	}
	for _, from := range []dataset.View{dataset.Left, dataset.Right} {
		cd := &tr.dirs[from]
		nFrom, nTo := tr.items[from], tr.items[from.Opposite()]
		cd.post = make([][]int32, nFrom)
		for _, r := range t.Rules {
			if !r.AppliesTo(from) {
				continue
			}
			ante, cons := r.Antecedent(from), r.Consequent(from)
			idx := int32(len(cd.rules))
			cd.rules = append(cd.rules, compiledRule{
				rhs:    bitset.FromIndices(nTo, cons),
				lhsLen: int32(len(ante)),
			})
			for _, i := range ante {
				cd.post[i] = append(cd.post[i], idx)
			}
		}
	}
	return tr, nil
}

// Items returns the compiled vocabulary size of view v.
func (tr *Translator) Items(v dataset.View) int { return tr.items[v] }

// Rules returns the number of rules in the compiled table.
func (tr *Translator) Rules() int { return tr.nRules }

func (tr *Translator) getScratch() *translatorScratch {
	sc, _ := tr.scratch.Get().(*translatorScratch)
	if sc == nil {
		n := max(len(tr.dirs[0].rules), len(tr.dirs[1].rules))
		sc = &translatorScratch{counts: make([]int32, n), gens: make([]uint32, n)}
		sc.out[dataset.Left] = bitset.New(tr.items[dataset.Left])
		sc.out[dataset.Right] = bitset.New(tr.items[dataset.Right])
		sc.row[dataset.Left] = bitset.New(tr.items[dataset.Left])
		sc.row[dataset.Right] = bitset.New(tr.items[dataset.Right])
	}
	return sc
}

func (tr *Translator) putScratch(sc *translatorScratch) { tr.scratch.Put(sc) }

// translateInto writes the translation t′ of row into out using the
// counting matcher. Counter hygiene is generational: the row starts a
// fresh generation and a counter is zeroed the first time its rule is
// touched, so rules the row never overlaps cost nothing — neither a
// probe nor a clear.
func (cd *compiledDir) translateInto(out *bitset.Set, row *bitset.Set, sc *translatorScratch) {
	out.Clear()
	gen := sc.nextGen()
	counts, gens := sc.counts, sc.gens
	for wi, w := range row.Words() {
		base := wi * bitset.WordBits
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			for _, ri := range cd.post[i] {
				if gens[ri] != gen {
					gens[ri] = gen
					counts[ri] = 0
				}
				if counts[ri]++; counts[ri] == cd.rules[ri].lhsLen {
					out.Or(cd.rules[ri].rhs)
				}
			}
		}
	}
}

// TranslateIDs translates one from-view transaction given directly as
// item ids — the serving entry for fresh traffic that arrives as ids
// rather than prebuilt rows. The translated target-view ids (the t′ of
// Algorithm 1, bit-identical to the reference TranslateRow) are
// appended to dst in ascending order. Out-of-vocabulary ids error.
// Safe for concurrent use; steady-state calls allocate nothing beyond
// dst's growth.
func (tr *Translator) TranslateIDs(dst []int, from dataset.View, ids []int) ([]int, error) {
	sc := tr.getScratch()
	defer tr.putScratch(sc)
	row := sc.row[from]
	if err := fillRow(row, ids); err != nil {
		return dst, fmt.Errorf("core: %v row: %w", from, err)
	}
	out := sc.out[from.Opposite()]
	tr.dirs[from].translateInto(out, row, sc)
	return out.AppendIndices(dst), nil
}

// translateCtxProbe bounds the cancellation latency of the batch and
// stream paths: one ctx.Err() probe every 256 rows.
const translateCtxProbe = 256 - 1

// TranslateBatchIDs translates many from-view transactions given
// directly as item id lists — the serving daemon's batch entry, where a
// request body carries many transactions that never exist as a
// Dataset — returning one ascending id slice per row. All rows are
// translated through one pooled scratch and one amortized arena: growth
// reallocations leave already-sliced rows pointing at the previous
// backing array, which stays valid, so the batch does O(log n)
// allocations instead of one per row. Out-of-vocabulary ids fail the
// whole batch with the offending row's index; cancelling ctx aborts
// between rows with ctx.Err(). Safe for concurrent use.
func (tr *Translator) TranslateBatchIDs(ctx context.Context, from dataset.View, rows [][]int) ([][]int, error) {
	sc := tr.getScratch()
	defer tr.putScratch(sc)
	cd := &tr.dirs[from]
	out := sc.out[from.Opposite()]
	row := sc.row[from]
	res := make([][]int, len(rows))
	arena := make([]int, 0, len(rows)*2)
	for t, ids := range rows {
		if t&translateCtxProbe == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := fillRow(row, ids); err != nil {
			return nil, fmt.Errorf("core: row %d: %w", t, err)
		}
		cd.translateInto(out, row, sc)
		start := len(arena)
		arena = out.AppendIndices(arena)
		res[t] = arena[start:len(arena):len(arena)]
	}
	return res, nil
}

// Apply applies the compiled table to every transaction of d and
// reports the translation and correction statistics — the serving-path
// equivalent of the package-level Apply, reproducing its report
// bit-for-bit without materializing per-row translation or correction
// sets. d may be any dataset over vocabularies of the compiled sizes
// (the mined dataset, a holdout split, fresh traffic). Cancelling ctx
// aborts between rows with ctx.Err(). Safe for concurrent use.
func (tr *Translator) Apply(ctx context.Context, d *dataset.Dataset, from dataset.View) (ApplyReport, error) {
	if err := tr.compatible(d); err != nil {
		return ApplyReport{}, err
	}
	target := from.Opposite()
	rep := ApplyReport{From: from, Cells: d.Size() * d.Items(target)}
	sc := tr.getScratch()
	defer tr.putScratch(sc)
	cd := &tr.dirs[from]
	out := sc.out[target]
	for t := 0; t < d.Size(); t++ {
		if t&translateCtxProbe == 0 {
			if err := ctx.Err(); err != nil {
				return ApplyReport{}, err
			}
		}
		cd.translateInto(out, d.Row(from, t), sc)
		truth := d.Row(target, t)
		rep.TranslatedOnes += out.Count()
		rep.Uncovered += bitset.AndNotCount(truth, out) // |t \ t′| = |U_t|
		rep.Errors += bitset.AndNotCount(out, truth)    // |t′ \ t| = |E_t|
	}
	return rep, nil
}

// ApplyStream is Apply over the text dataset format read incrementally:
// transactions are translated and scored as they are parsed, so
// datasets far larger than memory stream through in one pass. The
// stream's L/R vocabularies must match the compiled ones exactly (names
// and order). Cancelling ctx aborts between rows with ctx.Err(). Safe
// for concurrent use.
func (tr *Translator) ApplyStream(ctx context.Context, r io.Reader, from dataset.View) (ApplyReport, error) {
	rr := dataset.NewRowReader(r)
	namesL, namesR, err := rr.Header()
	if err != nil {
		return ApplyReport{}, err
	}
	if !slices.Equal(namesL, tr.names[dataset.Left]) || !slices.Equal(namesR, tr.names[dataset.Right]) {
		return ApplyReport{}, fmt.Errorf("core: stream vocabularies do not match the compiled translator")
	}
	target := from.Opposite()
	sc := tr.getScratch()
	defer tr.putScratch(sc)
	cd := &tr.dirs[from]
	out := sc.out[target]
	rowF, rowT := sc.row[from], sc.row[target]
	rep := ApplyReport{From: from}
	for n := 0; ; n++ {
		if n&translateCtxProbe == 0 {
			if err := ctx.Err(); err != nil {
				return ApplyReport{}, err
			}
		}
		left, right, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ApplyReport{}, err
		}
		src, dst := left, right
		if from == dataset.Right {
			src, dst = right, left
		}
		if err := fillRow(rowF, src); err != nil {
			return ApplyReport{}, fmt.Errorf("core: line %d: %w", rr.Line(), err)
		}
		if err := fillRow(rowT, dst); err != nil {
			return ApplyReport{}, fmt.Errorf("core: line %d: %w", rr.Line(), err)
		}
		cd.translateInto(out, rowF, sc)
		rep.TranslatedOnes += out.Count()
		rep.Uncovered += bitset.AndNotCount(rowT, out)
		rep.Errors += bitset.AndNotCount(out, rowT)
		rep.Cells += tr.items[target]
	}
	return rep, nil
}

// compatible checks that d's vocabulary sizes match the compiled ones;
// translation is id-based, so sizes (not names) are the hard contract.
func (tr *Translator) compatible(d *dataset.Dataset) error {
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		if d.Items(v) != tr.items[v] {
			return fmt.Errorf("core: dataset has %d %v items, compiled translator has %d",
				d.Items(v), v, tr.items[v])
		}
	}
	return nil
}

// fillRow loads sorted-or-not item ids into a cleared row bitset,
// range-checking each id against the row's width. Callers add their
// own context (stream line, view) when wrapping the error.
func fillRow(row *bitset.Set, ids []int) error {
	row.Clear()
	for _, id := range ids {
		if id < 0 || id >= row.Len() {
			return fmt.Errorf("item %d out of range [0,%d)", id, row.Len())
		}
		row.Add(id)
	}
	return nil
}
