package core

import (
	"math"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// State maintains, incrementally, everything needed to score a growing
// translation table: per target view the uncovered items U (in the data
// but not yet translated) and the errors E (translated but not in the
// data), the encoded correction lengths and the table length (§5.1).
// It keeps nothing per transaction: EXACT's transaction-based bounds
// tub (§5.2) live with its search (exactTub).
//
// U and E are kept columnar, ucol[v][i]/ecol[v][i]: one tidset over the
// transactions per *item*, the same vertical layout as Dataset.Columns.
// Scoring a candidate rule against a support tidset is then a handful of
// fused popcount loops per consequent item (see gainDir) instead of
// per-transaction bit probes. The scalars (|U|, |E|, L(C|T)) live in a
// CoverTotals, the type a sharded run's coordinator keeps, so each
// scalar update has one implementation. The columns are property-tested
// against the correction tables Algorithm 1 defines (TranslateRow) in
// columnar_test.go and state_test.go. All column bitsets are carved out
// of per-view batch allocations (bitset.NewBatch), so building a State
// costs O(1) allocations per view.
//
// Invariants (checked in tests), with t′ = TranslateRow(t) for the
// current table:
//   - ucol[v][i] = {t : i ∈ t \ t′} and ecol[v][i] = {t : i ∈ t′ \ t};
//   - E only grows as rules are added (errors are never removed);
//   - ucol[v][i] ⊆ supp(i) and ecol[v][i] ∩ supp(i) = ∅ (an item is
//     uncovered only where it occurs and an error only where it does
//     not), so U and E are disjoint and, for any tidset t, the cover
//     delta |t ∩ U| − |t \ (supp ∪ E)| equals |t ∩ (U ∪ E)| +
//     (|t ∩ supp| − |t|). The bracket never changes, so a candIndex
//     counts it once per cell for every cover over its candidates, and
//     each recount is the one fused pass of coverHits;
//   - totals.CorrLen[v] = Σ_t L(U_t) + L(E_t) up to rounding: it starts
//     from the item supports and moves by applyItem's per-item products;
//   - version[v][i] changes whenever ucol[v][i] or ecol[v][i] may have:
//     applyDir, the only writer after NewState, bumps it for every item
//     it updates, so at version 0 the U column is still supp(i) and the
//     E column empty. A cover delta (coverDelta) reads nothing else of the
//     state, so a delta counted at one version is exact for as long as
//     the version stands. localCover's memo rests on this; keeping the
//     version here rather than in the cover means every mutation path
//     (Cover.Apply or a direct AddRule) invalidates the memo.
type State struct {
	coder *mdl.Coder
	table Table

	// Indexed by the *target* view of a translation:
	// target Right ⇔ translation D_L→R, target Left ⇔ D_L←R.
	columns              // columnar U and E over the full alphabets
	totals  *CoverTotals // |U|, |E| and L(C|T) per target view
	// version counts, per item, the applyDir updates of its U/E
	// columns: the stamp that validates localCover's memo cells.
	version [2][]uint32
}

// columns is the columnar U/E store over one item range per target
// view: ucol[v][i-lo[v]] and ecol[v][i-lo[v]] are the U and E tidsets
// of item i in [lo[v], hi[v]). A State keeps it over the full
// alphabets and a PartialState over one partition's ranges, so its two
// per-item methods are the only U/E kernel code either has.
type columns struct {
	d          *dataset.Dataset
	supp       [2][]*bitset.Set // d.Columns, the item supports
	lo, hi     [2]int
	ucol, ecol [2][]bitset.Set

	errs *bitset.Set // applyItem's serial new-error scratch
}

// newColumns returns the empty-table columns of items [loL, hiL) ×
// [loR, hiR): every U column is the item's support tidset, every E
// column is empty.
func newColumns(d *dataset.Dataset, loL, hiL, loR, hiR int) columns {
	c := columns{d: d, lo: [2]int{loL, loR}, hi: [2]int{hiL, hiR}}
	n := d.Size()
	for v := range c.lo {
		lo, hi := c.lo[v], c.hi[v]
		c.supp[v] = d.Columns(dataset.View(v))
		c.ucol[v] = bitset.NewBatch(hi-lo, n)
		c.ecol[v] = bitset.NewBatch(hi-lo, n)
		for i := lo; i < hi; i++ {
			c.ucol[v][i-lo].Copy(c.supp[v][i])
		}
	}
	c.errs = bitset.New(n)
	return c
}

// countItem returns, for item y of the target view and an antecedent
// support tidset, the number of transactions where y becomes covered,
// |tids ∩ ucol[y]| (the L(Y ∩ U_t) terms), and the number where it
// becomes a new error, |tids \ (supp(y) ∪ ecol[y])| (the
// L(Y \ (t ∪ E_t)) terms). It only reads the columns, so concurrent
// calls are safe.
func (c *columns) countItem(target dataset.View, tids *bitset.Set, y int) (covered, errs int) {
	i := y - c.lo[target]
	return bitset.AndCount(tids, &c.ucol[target][i]),
		bitset.AndNotAndNotCount(tids, c.supp[target][y], &c.ecol[target][i])
}

// applyItem adds one rule direction with antecedent support tids to
// consequent item y: y becomes covered where it was still uncovered,
// and a new error where it is neither in the data nor already an error
// (errors are never removed). It updates the columns wholesale with
// word-level operations and returns the two counts countItem would have
// returned. It uses the scratch, so it must never run concurrently with
// any other call.
func (c *columns) applyItem(target dataset.View, tids *bitset.Set, y int) (covered, errs int) {
	i := y - c.lo[target]
	ucol, ecol := &c.ucol[target][i], &c.ecol[target][i]

	if covered = bitset.AndCount(tids, ucol); covered > 0 {
		ucol.AndNot(tids)
	}

	c.errs.Copy(tids)
	c.errs.AndNot(c.supp[target][y])
	c.errs.AndNot(ecol)
	if errs = c.errs.Count(); errs > 0 {
		ecol.Or(c.errs)
	}
	return covered, errs
}

// NewState returns the state of the empty translation table: everything is
// uncovered, nothing is in error, and the score is the baseline L(D,∅).
func NewState(d *dataset.Dataset, coder *mdl.Coder) *State {
	s := &State{
		coder:   coder,
		columns: newColumns(d, 0, d.Items(dataset.Left), 0, d.Items(dataset.Right)),
		totals:  NewCoverTotals(d, coder),
	}
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		s.version[v] = make([]uint32, d.Items(v))
	}
	return s
}

// Dataset returns the underlying dataset.
func (s *State) Dataset() *dataset.Dataset { return s.d }

// Coder returns the coder used for all lengths.
func (s *State) Coder() *mdl.Coder { return s.coder }

// Table returns the current translation table. Callers must not modify it.
// The table shares the rules' storage but not the State (see
// Table.clipped), so holding a mined table does not keep the cover
// state's column bitsets alive.
func (s *State) Table() *Table { return s.table.clipped() }

// CorrectionOnes returns |C| = |U|+|E| summed over both views, the
// numerator of the |C|% metric of Table 3.
func (s *State) CorrectionOnes() int {
	return s.totals.UOnes[0] + s.totals.UOnes[1] + s.totals.EOnes[0] + s.totals.EOnes[1]
}

// CorrLen returns L(C_target | T) in bits.
func (s *State) CorrLen(target dataset.View) float64 { return s.totals.CorrLen[target] }

// TableLen returns L(T) in bits.
func (s *State) TableLen() float64 { return s.table.Len(s.coder) }

// Score returns the total encoded size L(D_L↔R, T) = L(T) + L(C_L|T) +
// L(C_R|T) minimized in Problem 1.
func (s *State) Score() float64 { return s.totals.Score(&s.table) }

// Baseline returns L(D,∅), the score of the empty table.
func (s *State) Baseline() float64 { return s.coder.BaselineLen(s.d) }

// gainDir computes Δ_{D|T} for one direction of a rule (Equation 2): the
// antecedent's support tidset in view `from` and the consequent itemset in
// the opposite view. It does not subtract the rule length.
//
// This is EXACT's innermost loop, and it runs entirely on the U and E
// columns: per consequent item y, two fused popcount word loops
// (coverDelta), no per-transaction branching, no allocation. The
// accumulation is foldGain's, item by item in consequent order, which is
// how SELECT and GREEDY fold the same deltas from Cover.Score.
func (s *State) gainDir(from dataset.View, tids *bitset.Set, cons itemset.Itemset) float64 {
	target := from.Opposite()
	gain := 0.0
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); callers probe ctx at rule granularity
	for _, y := range cons {
		if delta := s.coverDelta(target, tids, y); delta != 0 {
			gain += s.coder.ItemLen(target, y) * float64(delta)
		}
	}
	return gain
}

// coverDelta returns the integer gainDir weighs by L(y): countItem's
// covered count minus its new-error count.
func (s *State) coverDelta(target dataset.View, tids *bitset.Set, y int) int {
	covered, errs := s.countItem(target, tids, y)
	return covered - errs
}

// coverHits returns |tids ∩ (ucol[y] ∪ ecol[y])| in one fused pass:
// coverDelta minus the state-free |tids ∩ supp(y)| − |tids| (see the
// State invariants).
func (s *State) coverHits(target dataset.View, tids *bitset.Set, y int) int {
	return bitset.AndOrCount(tids, &s.ucol[target][y], &s.ecol[target][y])
}

// Gain returns Δ_{D,T}(r) = Δ_{D|T}(r) − L(r) (Equation 1): the decrease in
// total compressed size obtained by adding r to the current table.
func (s *State) Gain(r Rule) float64 {
	return s.GainWithTids(r, nil, nil)
}

// GainWithTids is Gain with optional precomputed support tidsets for X (in
// the left view) and Y (in the right view); nil tidsets are computed on
// the fly. Passing cached tidsets avoids recomputation in the search
// algorithms' inner loops.
func (s *State) GainWithTids(r Rule, tidX, tidY *bitset.Set) float64 {
	gain := 0.0
	if r.AppliesTo(dataset.Left) {
		if tidX == nil {
			tidX = s.d.SupportSet(dataset.Left, r.X)
		}
		gain += s.gainDir(dataset.Left, tidX, r.Y)
	}
	if r.AppliesTo(dataset.Right) {
		if tidY == nil {
			tidY = s.d.SupportSet(dataset.Right, r.Y)
		}
		gain += s.gainDir(dataset.Right, tidY, r.X)
	}
	return gain - r.Len(s.coder)
}

// Qub returns the quick upper bound qub(X ◇ Y) of §5.2, valid for all
// three directions of the rule: |supp(X)|·L(Y|D_R) + |supp(Y)|·L(X|D_L) −
// L(X↔Y). It cannot be used for subtree pruning but safely skips exact
// gain computations.
func (s *State) Qub(x, y itemset.Itemset, suppX, suppY int) float64 {
	return qub(s.coder, x, y, suppX, suppY)
}

// applyDir updates the U and E columns and the totals for one direction
// of a rule. Like gainDir it works item-major: per consequent item y,
// applyItem updates the columns and the two counts fold into the totals
// (CoverTotals.applyItem) — the scalar updates a sharded run's
// coordinator makes from its shards' counts, in the same order, so both
// stay bit-identical. applyDir is only called between search phases
// (AddRule), never concurrently.
func (s *State) applyDir(from dataset.View, tids *bitset.Set, cons itemset.Itemset) {
	target := from.Opposite()
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); AddRule runs between iteration checkpoints
	for _, y := range cons {
		s.version[target][y]++
		covCnt, errCnt := s.applyItem(target, tids, y)
		s.totals.applyItem(target, y, covCnt, errCnt)
	}
}

// AddRule appends r to the table and updates all incremental structures.
// The change in Score equals -Gain(r) computed immediately before the call.
func (s *State) AddRule(r Rule) {
	if r.AppliesTo(dataset.Left) {
		s.applyDir(dataset.Left, s.d.SupportSet(dataset.Left, r.X), r.Y)
	}
	if r.AppliesTo(dataset.Right) {
		s.applyDir(dataset.Right, s.d.SupportSet(dataset.Right, r.Y), r.X)
	}
	s.table.Rules = append(s.table.Rules, r)
	s.checkFinite()
}

// EvaluateTable scores an arbitrary translation table against a dataset by
// replaying its rules through a fresh state. Because translation is
// order-independent, the resulting state is canonical for the table. This
// is how baseline rule sets (MAGNUM OPUS, REREMI, KRIMP) are compared
// under the paper's encoding in Table 3.
func EvaluateTable(d *dataset.Dataset, coder *mdl.Coder, t *Table) *State {
	s := NewState(d, coder)
	for _, r := range t.Rules {
		s.AddRule(r)
	}
	return s
}

// CompressionRatio returns L% = L(D,T) / L(D,∅) as a percentage. An empty
// dataset has ratio 100 (nothing to compress). Ratios above 100 mean the
// table inflates the translation.
func (s *State) CompressionRatio() float64 {
	base := s.Baseline()
	if base == 0 {
		return 100
	}
	return 100 * s.Score() / base
}

// CorrectionRatio returns |C|% = |C| / ((|I_L|+|I_R|)·|D|) as a percentage
// (Table 3).
func (s *State) CorrectionRatio() float64 {
	cells := (s.d.Items(dataset.Left) + s.d.Items(dataset.Right)) * s.d.Size()
	if cells == 0 {
		return 0
	}
	return 100 * float64(s.CorrectionOnes()) / float64(cells)
}

// checkFinite panics if the score became NaN/Inf, which would indicate a
// rule or correction referencing a zero-support item.
func (s *State) checkFinite() {
	if sc := s.Score(); math.IsNaN(sc) || math.IsInf(sc, 0) {
		panic("core: non-finite score; rule or correction uses a zero-support item")
	}
}
