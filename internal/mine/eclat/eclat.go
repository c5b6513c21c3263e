// Package eclat mines frequent and closed frequent itemsets over the
// joined alphabet of a two-view dataset using depth-first tidset
// intersection (the ECLAT algorithm of Zaki et al.), with a
// prefix-preserving closure extension for closed itemsets. It provides the
// candidate sets used by TRANSLATOR-SELECT and TRANSLATOR-GREEDY: closed
// frequent *two-view* itemsets, i.e. itemsets with items from both views
// (§5.3 of the paper).
//
// The walk parallelizes over the top-level branches of the search tree
// (one branch per frequent item, in the global search order) on the
// internal/pool worker pool: within one call the columns, search order
// and closure structures are read-only, every worker collects its own
// output slice, and the final support-descending sort is a total order,
// so the mined set is bit-identical for every worker count. The
// MaxResults overflow guard counts emissions through a shared
// pool.Counter; it trips in every schedule iff the total number of
// results exceeds the cap, so success/failure is deterministic too.
//
// The walk is kids first: a node intersects its tidset with each of its
// frequent later siblings in one fused pass, absorbs the siblings that
// contain its whole tidset into its closure, and recurses into the
// frequent rest. Each worker keeps the kid tidsets and the itemsets in
// per-depth storage that grows only when the walk first gets that deep
// or that wide, so the only allocations that survive warm-up are the
// emitted results themselves. Emitted tidsets and itemsets are
// caller-owned copies.
//
// A top-level branch whose subtree pays for it runs over its own rows
// (FP-growth's and LCM's projected database, on bit tidsets): after its
// kids pass, pays weighs the words its kids' intersections save against
// gathering the columns onto its tidset (bitset.Gather). At projectCost
// 1.0, chesskrvk (scale 1.0, minimum support 64) projects 41 of 58
// branches and mines in 58–68 ms, not 88–113 (one worker, 2 vCPUs).
package eclat

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/pool"
)

// FI is a mined frequent itemset over the joined alphabet: left items keep
// their ids, right items are offset by |I_L|.
type FI struct {
	Items itemset.Itemset // joined ids, canonical
	Supp  int             // |supp(Items)| over the joined data
	Tids  *bitset.Set     // supporting transactions (nil under DropTids)
}

// Split separates a joined itemset into its left and right parts, undoing
// the offset.
func Split(joined itemset.Itemset, nLeft int) (x, y itemset.Itemset) {
	for _, i := range joined {
		if i < nLeft {
			x = append(x, i)
		} else {
			y = append(y, i-nLeft)
		}
	}
	return x, y
}

// SplitInPlace is Split without the allocations: x aliases the left half
// of joined (capacity-capped) and y its right half with the offset
// removed by mutating joined. The caller must own joined and not use it
// afterwards.
func SplitInPlace(joined itemset.Itemset, nLeft int) (x, y itemset.Itemset) {
	split := sort.SearchInts(joined, nLeft)
	x, y = joined[:split:split], joined[split:]
	for k := range y {
		y[k] -= nLeft
	}
	return x, y
}

// Options configures mining.
type Options struct {
	// MinSupport is the minimal absolute support; values < 1 are
	// treated as 1 (every itemset must occur).
	MinSupport int
	// Closed restricts output to closed itemsets (no superset with the
	// same support).
	Closed bool
	// TwoView keeps only itemsets with at least one item in each view.
	TwoView bool
	// MaxItems bounds the itemset size; 0 means unbounded.
	MaxItems int
	// MaxResults aborts mining with an error when exceeded; it protects
	// against accidental pattern explosions. 0 means unbounded.
	MaxResults int
	// DropTids omits the supporting tidsets from the results (FI.Tids
	// is nil). Callers that only need the itemsets and supports — the
	// candidate mine derives per-view tidsets separately — should set
	// it: the mine then allocates almost nothing beyond the itemsets
	// themselves.
	DropTids bool
	// Workers sets the worker-pool size for the tidset-intersection
	// walk: 0 means GOMAXPROCS, 1 disables parallelism. The mined set
	// is identical for any value.
	Workers int
	// Runtime is the persistent worker runtime to run the walk on; nil
	// means the shared pool.Default runtime.
	Runtime *pool.Runtime
}

// walk is everything the depth-first search reads but never writes: it is
// shared by all workers of one Mine call.
type walk struct {
	d       *dataset.Dataset
	ctx     context.Context
	opt     Options
	nLeft   int
	cols    []*bitset.Set // every item's column over all transactions
	order   []int         // frequent items in search order
	posOf   []int         // order position of each item, -1 if infrequent
	rowBits float64       // mean number of frequent items per transaction
	emitted *pool.Counter // MaxResults accounting across workers
}

// ctxProbeMask gates the in-branch cancellation probe: one ctx.Err()
// call per 1024 tidset intersections, so a single huge top-level branch
// still observes cancellation promptly while the steady-state walk pays
// one counter increment and mask per intersection.
const ctxProbeMask = 1<<10 - 1

// Mine returns the (closed) frequent itemsets of the joined views of d
// under the given options, sorted by decreasing support with a
// deterministic tie-break.
//
// Cancelling ctx aborts the walk between branches (and, within a
// branch, at the next intersection probe) and returns ctx.Err(); the
// partial output is discarded. With an uncancelled context the mined
// set is bit-identical for every worker count, exactly as before.
func Mine(ctx context.Context, d *dataset.Dataset, opt Options) ([]FI, error) {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	nL := d.Items(dataset.Left)
	m := nL + d.Items(dataset.Right)

	// Frequent single items, in ascending support order: extending by
	// rarer items first keeps tidsets small early (standard ECLAT
	// heuristic) while remaining deterministic. They are the kids of
	// the empty root, each with its column as its tidset.
	cols := make([]*bitset.Set, m)
	var top []kid
	ones := 0
	for v, off := range [2]int{0, nL} {
		for i, c := range d.Columns(dataset.View(v)) {
			cols[off+i] = c
			if s := d.ItemSupport(dataset.View(v), i); s >= opt.MinSupport {
				top = append(top, kid{pos: off + i, supp: s, tids: c})
				ones += s
			}
		}
	}
	slices.SortFunc(top, func(a, b kid) int {
		if a.supp != b.supp {
			return a.supp - b.supp
		}
		return a.pos - b.pos
	})
	order, posOf := make([]int, len(top)), make([]int, m)
	for i := range posOf {
		posOf[i] = -1
	}
	for k := range top {
		it := top[k].pos
		order[k], posOf[it], top[k].pos = it, k, k
	}
	w := &walk{d: d, ctx: ctx, opt: opt, nLeft: nL, cols: cols, order: order,
		posOf: posOf, rowBits: float64(ones) / float64(max(1, d.Size())), emitted: new(pool.Counter)}

	// One task per top-level branch, dynamically scheduled (branch sizes
	// are heavily skewed toward the rare early items); each worker
	// appends to its own miner.out and keeps its own kid storage.
	workers := pool.Size(opt.Workers, len(top))
	p := pool.NewOn(opt.Runtime, workers, func(int) *miner { return &miner{walk: w} })
	err := p.RunErrCtx(ctx, len(top), func(mi *miner, k int) error {
		mi.cols, mi.rows, mi.n = w.cols, nil, d.Size()
		return mi.visit(nil, top[k], top[k+1:], 0)
	})
	if err != nil {
		return nil, err
	}

	// Bucket the sets by support, descending, with a counting pass, and
	// compare items only within a bucket: end[k] ends the bucket of
	// support maxSupp − k once every set is placed.
	maxSupp := opt.MinSupport
	for _, mi := range p.States() {
		for _, fi := range mi.out {
			maxSupp = max(maxSupp, fi.Supp)
		}
	}
	end := make([]int, maxSupp-opt.MinSupport+2)
	for _, mi := range p.States() {
		for _, fi := range mi.out {
			end[maxSupp-fi.Supp+1]++
		}
	}
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	out := make([]FI, end[len(end)-1])
	for _, mi := range p.States() {
		for _, fi := range mi.out {
			out[end[maxSupp-fi.Supp]] = fi
			end[maxSupp-fi.Supp]++
		}
	}
	for k, lo := 0, 0; k+1 < len(end); lo, k = end[k], k+1 {
		slices.SortFunc(out[lo:end[k]], func(a, b FI) int { return itemset.Compare(a.Items, b.Items) })
	}
	return out, nil
}

// kid is a frequent extension of a search node by the item at order
// position pos: tids is the node's tidset intersected with the item's
// column, and supp its size.
type kid struct {
	pos  int
	supp int
	tids *bitset.Set
}

// miner is one worker's share of the walk: the shared read-only
// structures plus a private output slice, the column space of its
// current top-level branch and private per-depth scratch (kid lists,
// kid tidsets and itemset buffers).
type miner struct {
	*walk
	out []FI

	cols           []*bitset.Set // the branch's item columns over n rows (see project)
	rows, rbuf     []int         // rows[r]: row r's transaction; nil over the walk's columns
	n              int
	proj, src, dst []*bitset.Set // project's storage

	kids  [][]kid           // per-depth kid lists
	store [][]*bitset.Set   // per-depth kid tidsets, grown on demand
	sets  []itemset.Itemset // per-depth candidate/closure scratch
	ticks uint              // intersection counter driving the periodic ctx probe
}

// visit explores the search node that extends parent by kd, the kid at
// order position kd.pos, and then its own kids. sibs are kd's later
// frequent siblings: the only items that can extend the node, since an
// item infrequent beside parent stays infrequent below it.
//
// Kids first: the node intersects its tidset with every sibling's in
// one fused pass (bitset.IntersectIntoCount). A sibling whose count
// equals the node's support contains the whole tidset, so it belongs to
// the node's closure and is absorbed; the frequent rest become the
// node's kids. Every closure item after kd.pos is a sibling (an item of
// parent is in the itemset already, and an infrequent one cannot
// contain a frequent tidset), so only the items before kd.pos remain
// for the prefix-preserving test (canonical).
//
// Scratch discipline: the node's itemset lives in this depth's buffer
// and its kids' tidsets in this depth's store. Both are overwritten only
// by the node's later siblings, after this subtree has returned, and
// are cloned on emission, so the steady-state walk does not allocate.
func (m *miner) visit(parent itemset.Itemset, kd kid, sibs []kid, depth int) error {
	for len(m.sets) <= depth {
		m.sets = append(m.sets, nil)
		m.kids = append(m.kids, nil)
		m.store = append(m.store, nil)
	}
	cand := insertSortedInto(m.sets[depth][:0], parent, m.order[kd.pos])
	m.sets[depth] = cand // remember grown capacity for reuse
	if m.opt.MaxItems > 0 && len(cand) > m.opt.MaxItems {
		return nil
	}
	if m.opt.Closed && !m.canonical(cand, kd) {
		// An item before kd.pos closes cand, so this node (and every
		// extension, whose closure contains that item too) duplicates
		// an already-explored closed set.
		return nil
	}

	kids, store := m.kids[depth][:0], m.store[depth]
	for _, s := range sibs {
		if m.ticks++; m.ticks&ctxProbeMask == 0 {
			if err := m.ctx.Err(); err != nil {
				return err
			}
		}
		if len(kids) == len(store) {
			store = append(store, bitset.New(m.d.Size()))
		}
		dst := store[len(kids)]
		if dst.Len() != m.n {
			dst.Reset(m.n) // first use in this branch's column space
		}
		switch c := bitset.IntersectIntoCount(dst, kd.tids, s.tids); {
		case m.opt.Closed && c == kd.supp:
			cand = insertInPlace(cand, m.order[s.pos])
		case c >= m.opt.MinSupport:
			kids = append(kids, kid{pos: s.pos, supp: c, tids: dst})
		}
	}
	m.sets[depth], m.kids[depth], m.store[depth] = cand, kids, store

	if m.opt.MaxItems == 0 || len(cand) <= m.opt.MaxItems {
		if !m.opt.TwoView || m.isTwoView(cand) {
			fi := FI{Items: cand.Clone(), Supp: kd.supp}
			if !m.opt.DropTids {
				fi.Tids = m.fullTids(kd.tids)
			}
			m.out = append(m.out, fi)
			if m.opt.MaxResults > 0 && int(m.emitted.Add()) > m.opt.MaxResults {
				return fmt.Errorf("eclat: more than %d itemsets; raise MinSupport", m.opt.MaxResults)
			}
		}
	}
	if m.opt.MaxItems > 0 && len(cand) >= m.opt.MaxItems {
		return nil // every extension outgrows the bound
	}
	if depth == 0 && pays(len(kids), kd.pos+len(kids), kd.supp, m.n, m.rowBits) {
		m.project(kd, kids)
	}
	for j := range kids {
		if err := m.visit(cand, kids[j], kids[j+1:], depth+1); err != nil {
			return err
		}
	}
	return nil
}

// canonical is the prefix-preserving test of closed mining: it reports
// whether no item before kd's order position, outside cand, contains
// kd's tidset. An item that does contains the tidset's first
// transaction, so only the items of that row are tested.
func (m *miner) canonical(cand itemset.Itemset, kd kid) bool {
	words := kd.tids.Words()
	w := 0
	for words[w] == 0 {
		w++ // a kid's tidset is frequent, hence not empty
	}
	t := w*bitset.WordBits + bits.TrailingZeros64(words[w])
	if m.rows != nil {
		t = m.rows[t]
	}
	for v, off := range [2]int{0, m.nLeft} {
		for wi, word := range m.d.Row(dataset.View(v), t).Words() {
			for ; word != 0; word &= word - 1 {
				it := off + wi*bitset.WordBits + bits.TrailingZeros64(word)
				if r := m.posOf[it]; r >= 0 && r < kd.pos && !cand.Contains(it) && m.cols[it] != nil && kd.tids.SubsetOf(m.cols[it]) {
					return false
				}
			}
		}
	}
	return true
}

// fullTids returns a caller-owned copy of tids over all transactions.
func (m *miner) fullTids(tids *bitset.Set) *bitset.Set {
	if m.rows == nil {
		return tids.Clone()
	}
	full := bitset.New(m.d.Size())
	tids.ForEach(func(r int) bool {
		full.Add(m.rows[r])
		return true
	})
	return full
}

// projectCost weighs a projection's cost in pays, chosen by measurement.
const projectCost = 1.0

// pays is the projection rule of a top-level branch node, read off its
// kids pass: the kids' kids·(kids−1)/2 pairwise intersections shrink
// from W = ⌈n/64⌉ to ⌈supp/64⌉ words, against a gather of W words per
// gathered column plus supp·rowBits bits (frequent items per row).
func pays(kids, gathered, supp, n int, rowBits float64) bool {
	w := (n + bitset.WordBits - 1) / bitset.WordBits
	saved := float64(kids*(kids-1)/2) * float64(w-(supp+bitset.WordBits-1)/bitset.WordBits)
	return saved > projectCost*(float64(supp)*rowBits+float64(gathered*w))
}

// project moves kd's branch onto kd's transactions, renumbered
// 0..supp−1; each kid's tidset is re-gathered in place as its item's
// column. canonical asks only whether a column contains a node's tidset,
// which holds only for a kid, a closure item (never asked) or an item
// before kd in the search order: those are gathered, the rest stay nil.
func (m *miner) project(kd kid, kids []kid) {
	if m.proj == nil {
		m.proj = make([]*bitset.Set, len(m.walk.cols))
	}
	clear(m.proj)
	// Earlier items' columns go past the kids in the depth-0 store, unread below.
	for len(m.store[0]) < len(kids)+kd.pos {
		m.store[0] = append(m.store[0], bitset.New(m.d.Size()))
	}
	m.src, m.dst = m.src[:0], m.dst[:0]
	for k, it := range m.order[:kd.pos] {
		m.proj[it] = m.store[0][len(kids)+k]
		m.src, m.dst = append(m.src, m.walk.cols[it]), append(m.dst, m.proj[it])
	}
	for _, c := range kids {
		it := m.order[c.pos]
		m.proj[it] = c.tids
		m.src, m.dst = append(m.src, m.walk.cols[it]), append(m.dst, c.tids)
	}
	bitset.Gather(m.dst, m.src, kd.tids)
	m.rbuf = kd.tids.AppendIndices(m.rbuf[:0])
	m.cols, m.rows, m.n = m.proj, m.rbuf, kd.supp
}

func (m *miner) isTwoView(s itemset.Itemset) bool {
	return len(s) >= 2 && s[0] < m.nLeft && s[len(s)-1] >= m.nLeft
}

// insertSortedInto writes s ∪ {x} into dst (which must be empty and must
// not alias s), reusing dst's capacity.
func insertSortedInto(dst, s itemset.Itemset, x int) itemset.Itemset {
	i := sort.SearchInts(s, x)
	dst = append(dst, s[:i]...)
	dst = append(dst, x)
	return append(dst, s[i:]...)
}

// insertInPlace inserts x into the sorted set s, shifting the tail right;
// it allocates only when s must grow beyond its capacity.
func insertInPlace(s itemset.Itemset, x int) itemset.Itemset {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}
