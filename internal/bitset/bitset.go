// Package bitset provides dense, fixed-width bitmaps used throughout the
// repository both as transaction tidsets (one bit per transaction) and as
// item rows (one bit per item of a view). All operations are word-wise on
// 64-bit words; none allocate unless explicitly documented.
//
// Every count, logic and predicate operation is one word loop at every
// width. Only the weighted sums behind IntersectIntoSum and WeightedSum
// are striped, from 8 words up (see kernels_striped.go); their float
// accumulation order is the same on either path, so every result is
// bit-identical whichever loop ran.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// WordBits is the width of one storage word, for hot loops that walk
// Words() directly and need to convert word indices to bit positions.
const WordBits = wordBits

// Set is a fixed-width bitmap. The zero value is an empty set of width 0;
// use New to create a set of a given width. Bits at positions >= width are
// always zero (maintained as an invariant by all operations).
type Set struct {
	words []uint64
	n     int // width in bits
}

// New returns an empty set able to hold n bits.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewBatch returns count empty sets of width n carved out of a single
// backing words allocation, for bulk materialization of tidsets that
// are retained together (e.g. the per-view supports of a candidate
// set): two allocations instead of 2·count. The sets are independent —
// their word slices do not overlap — but share the backing array's
// lifetime.
func NewBatch(count, n int) []Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return sets
}

// FromIndices returns a set of width n with exactly the given bits set.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the width of the set in bits.
func (s *Set) Len() int { return s.n }

// Words exposes the underlying words for read-only iteration by hot loops.
func (s *Set) Words() []uint64 { return s.words }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of o. Widths must match.
func (s *Set) Copy(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

// Clear unsets all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset re-widths s to n bits and clears every bit, growing in place:
// the existing word storage is reused whenever its capacity suffices,
// so resetting inside a hot loop does not allocate in steady state.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) >= w {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	} else {
		s.words = make([]uint64, w)
	}
	s.n = n
}

// Fill sets all bits in [0, width).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond the width in the last word.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: width mismatch %d != %d", s.n, o.n))
	}
}

// And sets s = s ∩ o.
func (s *Set) And(o *Set) {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	for i := range a {
		a[i] &= b[i]
	}
}

// Or sets s = s ∪ o (set union).
func (s *Set) Or(o *Set) {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	for i := range a {
		a[i] |= b[i]
	}
}

// AndNot sets s = s \ o (set subtraction).
func (s *Set) AndNot(o *Set) {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	for i := range a {
		a[i] &^= b[i]
	}
}

// Xor sets s = s △ o (symmetric difference).
func (s *Set) Xor(o *Set) {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	for i := range a {
		a[i] ^= b[i]
	}
}

// IntersectInto sets dst = a ∩ b, reusing dst's storage. All three must have
// the same width. dst may alias a or b.
func IntersectInto(dst, a, b *Set) {
	a.mustMatch(b)
	a.mustMatch(dst)
	d := dst.words
	x, y := a.words[:len(d)], b.words[:len(d)]
	for i := range d {
		d[i] = x[i] & y[i]
	}
}

// IntersectIntoCount sets dst = a ∩ b like IntersectInto and returns
// |dst| from the same pass over the words. It is the kernel behind the
// ECLAT walk's kid pass, which needs every extension's tidset and
// support together.
func IntersectIntoCount(dst, a, b *Set) int {
	a.mustMatch(b)
	a.mustMatch(dst)
	d := dst.words
	x, y := a.words[:len(d)], b.words[:len(d)]
	c := 0
	for i := range d {
		w := x[i] & y[i]
		d[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// Gather projects each src[k] onto the set positions of mask: it
// re-widths dst[k] to |mask| bits, growing in place like Reset, and sets
// bit r of it to src[k]'s bit at mask's r-th set position. Every src
// must have mask's width. Per mask word, the shift masks of Hacker's
// Delight's compress (§7-4) serve all sources, six shifts a word; a
// per-bit loop measured 1.5–2.5× slower on chesskrvk-like columns.
func Gather(dst, src []*Set, mask *Set) {
	n := mask.Count()
	for k, s := range src {
		s.mustMatch(mask)
		dst[k].Reset(n)
	}
	base := 0
	for wi, m := range mask.words {
		if m == 0 {
			continue
		}
		var mv [6]uint64 // mv[i]: the bits that move right by 2^i
		mk, mm := ^m<<1, m
		for i := range mv {
			mp := mk ^ mk<<1 // parallel suffix of mk
			for sh := 2; sh < wordBits; sh <<= 1 {
				mp ^= mp << sh
			}
			mv[i] = mp & mm
			mm = mm&^mv[i] | mv[i]>>(1<<i)
			mk &^= mp
		}
		c := bits.OnesCount64(m)
		lo, sh := base/wordBits, uint(base%wordBits)
		spill := int(sh)+c > wordBits // the packed bits reach word lo+1
		for k, s := range src {
			x := s.words[wi] & m
			x = x&^mv[0] | (x&mv[0])>>1
			x = x&^mv[1] | (x&mv[1])>>2
			x = x&^mv[2] | (x&mv[2])>>4
			x = x&^mv[3] | (x&mv[3])>>8
			x = x&^mv[4] | (x&mv[4])>>16
			x = x&^mv[5] | (x&mv[5])>>32
			d := dst[k].words
			d[lo] |= x << sh
			if spill {
				d[lo+1] |= x >> (wordBits - sh)
			}
		}
		base += c
	}
}

// IntersectIntoSum sets dst = a ∩ b like IntersectInto and returns
// Σ_{i ∈ dst} w[i], accumulated in ascending bit order — the same order
// as ForEach, so the sum is bit-identical to iterating the intersection
// after the fact. The striped core only unrolls the word intersection;
// the accumulation is still one addition per set bit in ascending bit
// order, so the float result is the same on the striped and one-word
// paths (that identity is part of the contract — the exact search's rub
// bounds must not depend on the path). w must cover the set
// width. Fusing the intersection with the weighted sum saves the hot
// search loops a second pass over the words (the exact search's rub
// bound is a tub-weighted sum over every freshly intersected tidset).
func IntersectIntoSum(dst, a, b *Set, w []float64) float64 {
	a.mustMatch(b)
	a.mustMatch(dst)
	return intersectSumWords(dst.words, a.words, b.words, w)
}

// WeightedSum returns Σ_{i ∈ s} w[i], accumulated in ascending bit
// order — one addition per set bit, the same association on either
// path, so the float result is bit-identical by contract. w must cover
// the set width. It is the kernel behind EXACT's tub-weighted sums.
func WeightedSum(s *Set, w []float64) float64 {
	return weightedSumWords(s.words, w)
}

// AndCount returns |a ∩ b| in one fused pass: no temporary set, one
// popcount per word. It is the kernel behind the columnar cover state's
// "items that become covered" count.
func AndCount(a, b *Set) int {
	a.mustMatch(b)
	x := a.words
	y := b.words[:len(x)]
	c := 0
	for i, w := range x {
		c += bits.OnesCount64(w & y[i])
	}
	return c
}

// AndNotCount returns |a \ b| in one fused pass.
func AndNotCount(a, b *Set) int {
	a.mustMatch(b)
	x := a.words
	y := b.words[:len(x)]
	c := 0
	for i, w := range x {
		c += bits.OnesCount64(w &^ y[i])
	}
	return c
}

// AndNotAndNotCount returns |a \ (b ∪ c)| in one fused pass: no
// temporary set, single loop, one popcount per word. It is the kernel
// behind the columnar cover state's "items that become errors" count
// (transactions in the support that neither contain the item nor
// already carry it as an error). Note ^b and ^c set the dead bits past
// the width, but a's trailing word keeps them zero (the package-wide
// invariant), so the conjunction masks them back out.
func AndNotAndNotCount(a, b, c *Set) int {
	a.mustMatch(b)
	a.mustMatch(c)
	x := a.words
	y, z := b.words[:len(x)], c.words[:len(x)]
	n := 0
	for i, w := range x {
		n += bits.OnesCount64(w &^ y[i] &^ z[i])
	}
	return n
}

// AndOrCount returns |a ∩ (b ∪ c)| in one fused pass. It is the kernel
// behind the local cover's recount: with U and E disjoint, one pass
// over a tidset and both columns counts |tids ∩ U| + |tids ∩ E|.
func AndOrCount(a, b, c *Set) int {
	a.mustMatch(b)
	a.mustMatch(c)
	x := a.words
	y, z := b.words[:len(x)], c.words[:len(x)]
	n := 0
	for i, w := range x {
		n += bits.OnesCount64(w & (y[i] | z[i]))
	}
	return n
}

// Equal reports whether s and o contain exactly the same bits. It
// early-exits on the first differing word.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	a := s.words
	b := o.words[:len(a)]
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every bit of s is also set in o. It
// early-exits on the first violating word.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share at least one bit. It
// early-exits on the first intersecting word.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every index in idx is set, exiting on the
// first missing one. idx must be within range; it does not need to be
// sorted, but sorted slices (itemsets are kept sorted) probe each
// 64-bit word once instead of once per index.
func (s *Set) ContainsAll(idx []int) bool {
	words := s.words
	wi := -1
	var w uint64
	for _, i := range idx {
		s.check(i)
		if j := i / wordBits; j != wi {
			wi, w = j, words[j]
		}
		if w&(1<<uint(i%wordBits)) == 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit in ascending order. If f returns false,
// iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the set bits in ascending order as a fresh slice.
func (s *Set) Indices() []int {
	return s.AppendIndices(make([]int, 0, s.Count()))
}

// AppendIndices appends the set bits to dst in ascending order, for
// callers recycling an id buffer across rows (the serving layer's
// per-row translations).
func (s *Set) AppendIndices(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// String renders the set as {i1 i2 ...} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
