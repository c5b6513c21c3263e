package bitset

// Width-boundary property tests for the kernel layer: every exported
// kernel must agree with a bit-level reference implementation (written
// here with per-bit probes, independent of the word loops) on the empty
// set, single-word widths, the 64-bit word boundaries, the stripe
// boundary (stripeWords words) ± 1 word, the weighted sums' stripe gate
// ± 1, and larger widths up to 8965 bits. That covers the one-word path
// of the weighted sums below their gate and their striped path with its
// tail above it, the one word loop of every other operation at each of
// those widths, the trailing-word masking of the `&^`-style kernels and
// the exact float accumulation order of IntersectIntoSum / WeightedSum.

import (
	"math/rand"
	"testing"
)

// boundaryWidths are the bit widths every kernel property is checked
// at: 0, 1, the word boundary ±1, the stripe boundary ±1 (in words and
// in bits), the weighted sums' stripe gate ±1 (so their one-word
// fallthrough and striped path are each exercised on both sides of the
// crossover), and larger widths with partial trailing words, up to
// 8965 = 8192 + 3·256 + 5 bits.
func boundaryWidths() []int {
	stripeBits := stripeWords * wordBits
	minSumBits := stripeMinSumWords * wordBits
	widths := []int{
		0, 1, 63, 64, 65, 255, 256, 257,
		stripeBits - 1, stripeBits, stripeBits + 1,
		(stripeWords-1)*wordBits + 1, // one word short of a stripe, partial
		(stripeWords+1)*wordBits - 1, // one word past a stripe, partial
		2*stripeBits + 7,
		8191, 8192, 8193, 8199,
		minSumBits - 1, minSumBits, minSumBits + 1,
		1000, 4096, 4099,
		8965,
	}
	// Dedup while preserving order; stripe widths may collide with the
	// fixed entries (with stripeWords=4, stripeBits=256 already listed).
	seen := map[int]bool{}
	out := widths[:0]
	for _, n := range widths {
		if n >= 0 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// densities cover empty, sparse, dense and full sets; full sets are the
// trailing-word masking stress (every dead bit of b and c would leak
// into the `a &^ b &^ c` style kernels if the invariant broke).
var densities = []float64{0, 0.05, 0.5, 1}

func fillRandom(r *rand.Rand, s *Set, density float64) {
	for i := 0; i < s.Len(); i++ {
		if density == 1 || r.Float64() < density {
			s.Add(i)
		}
	}
}

// Bit-level references: one probe per bit position, no word walks.

func refAndCount(a, b *Set) int {
	c := 0
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && b.Contains(i) {
			c++
		}
	}
	return c
}

func refAndNotCount(a, b *Set) int {
	c := 0
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && !b.Contains(i) {
			c++
		}
	}
	return c
}

func refAndNotAndNotCount(a, b, c *Set) int {
	n := 0
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && !b.Contains(i) && !c.Contains(i) {
			n++
		}
	}
	return n
}

func refAndOrCount(a, b, c *Set) int {
	n := 0
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && (b.Contains(i) || c.Contains(i)) {
			n++
		}
	}
	return n
}

// refWeightedSum accumulates exactly like the contract demands: one
// addition per set bit, ascending order.
func refWeightedSum(s *Set, w []float64) float64 {
	total := 0.0
	for i := 0; i < s.Len(); i++ {
		if s.Contains(i) {
			total += w[i]
		}
	}
	return total
}

func TestKernelsMatchBitReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range boundaryWidths() {
		for _, da := range densities {
			for _, db := range densities {
				a, b, c := New(n), New(n), New(n)
				fillRandom(r, a, da)
				fillRandom(r, b, db)
				fillRandom(r, c, (da+db)/2)
				w := make([]float64, n)
				for i := range w {
					// Deliberately non-associative-friendly magnitudes so an
					// accumulation-order change actually shows up.
					w[i] = r.Float64() * float64(uint64(1)<<uint(i%40))
				}

				if got, want := AndCount(a, b), refAndCount(a, b); got != want {
					t.Fatalf("n=%d da=%v db=%v: AndCount = %d, want %d", n, da, db, got, want)
				}
				if got, want := AndNotCount(a, b), refAndNotCount(a, b); got != want {
					t.Fatalf("n=%d da=%v db=%v: AndNotCount = %d, want %d", n, da, db, got, want)
				}
				if got, want := AndNotAndNotCount(a, b, c), refAndNotAndNotCount(a, b, c); got != want {
					t.Fatalf("n=%d da=%v db=%v: AndNotAndNotCount = %d, want %d", n, da, db, got, want)
				}
				if got, want := AndOrCount(a, b, c), refAndOrCount(a, b, c); got != want {
					t.Fatalf("n=%d da=%v db=%v: AndOrCount = %d, want %d", n, da, db, got, want)
				}
				if got, want := a.Count(), refAndCount(a, a); got != want {
					t.Fatalf("n=%d da=%v: Count = %d, want %d", n, da, got, want)
				}

				// IntersectInto and the fused sum agree with the reference
				// and with each other, bit for bit on the float.
				dst := New(n)
				IntersectInto(dst, a, b)
				for i := 0; i < n; i++ {
					if dst.Contains(i) != (a.Contains(i) && b.Contains(i)) {
						t.Fatalf("n=%d: IntersectInto wrong at bit %d", n, i)
					}
				}
				dst1 := New(n)
				fillRandom(r, dst1, 0.5) // fully overwritten
				if got, want := IntersectIntoCount(dst1, a, b), refAndCount(a, b); got != want {
					t.Fatalf("n=%d da=%v db=%v: IntersectIntoCount = %d, want %d", n, da, db, got, want)
				}
				if !dst1.Equal(dst) {
					t.Fatalf("n=%d: IntersectIntoCount set differs from IntersectInto", n)
				}
				dst2 := New(n)
				sum := IntersectIntoSum(dst2, a, b, w)
				if !dst2.Equal(dst) {
					t.Fatalf("n=%d: IntersectIntoSum set differs from IntersectInto", n)
				}
				if want := refWeightedSum(dst, w); sum != want {
					t.Fatalf("n=%d: IntersectIntoSum = %v, want %v (bit-exact)", n, sum, want)
				}
				if got, want := WeightedSum(a, w), refWeightedSum(a, w); got != want {
					t.Fatalf("n=%d: WeightedSum = %v, want %v (bit-exact)", n, got, want)
				}

				// In-place word ops against per-bit expectations.
				checkOp := func(name string, op func(x, y *Set), want func(x, y bool) bool) {
					x := a.Clone()
					op(x, b)
					for i := 0; i < n; i++ {
						if x.Contains(i) != want(a.Contains(i), b.Contains(i)) {
							t.Fatalf("n=%d: %s wrong at bit %d", n, name, i)
						}
					}
				}
				checkOp("And", func(x, y *Set) { x.And(y) }, func(p, q bool) bool { return p && q })
				checkOp("Or", func(x, y *Set) { x.Or(y) }, func(p, q bool) bool { return p || q })
				checkOp("AndNot", func(x, y *Set) { x.AndNot(y) }, func(p, q bool) bool { return p && !q })
				checkOp("Xor", func(x, y *Set) { x.Xor(y) }, func(p, q bool) bool { return p != q })

				// Predicates.
				if got, want := a.Intersects(b), refAndCount(a, b) > 0; got != want {
					t.Fatalf("n=%d: Intersects = %v, want %v", n, got, want)
				}
				if got, want := a.SubsetOf(b), refAndNotCount(a, b) == 0; got != want {
					t.Fatalf("n=%d: SubsetOf = %v, want %v", n, got, want)
				}
				if got, want := a.Equal(b), refAndNotCount(a, b) == 0 && refAndNotCount(b, a) == 0; got != want {
					t.Fatalf("n=%d: Equal = %v, want %v", n, got, want)
				}
				if !a.Equal(a.Clone()) {
					t.Fatalf("n=%d: Equal(clone) = false", n)
				}
				if !a.ContainsAll(a.Indices()) {
					t.Fatalf("n=%d: ContainsAll(own indices) = false", n)
				}
				if n > 0 && da > 0 && !a.Empty() {
					// Flip one present bit off b-clone-of-a: ContainsAll must
					// early-exit false.
					missing := a.Indices()[0]
					x := a.Clone()
					x.Remove(missing)
					if x.ContainsAll(a.Indices()) {
						t.Fatalf("n=%d: ContainsAll missed a removed bit", n)
					}
				}
			}
		}
	}
}

// TestKernelsTrailingWordMasking plants garbage-free full sets right at
// partial trailing words: with every bit of a, b set in [0, n), the
// `&^`-style kernels see ^b words whose dead bits (≥ n) are all 1; the
// counts must still ignore them.
func TestKernelsTrailingWordMasking(t *testing.T) {
	for _, n := range boundaryWidths() {
		a, b, c := New(n), New(n), New(n)
		a.Fill()
		// b, c empty: a &^ b &^ c must count exactly n, not the dead bits.
		if got := AndNotCount(a, b); got != n {
			t.Fatalf("n=%d: AndNotCount(full, empty) = %d, want %d", n, got, n)
		}
		if got := AndNotAndNotCount(a, b, c); got != n {
			t.Fatalf("n=%d: AndNotAndNotCount(full, empty, empty) = %d, want %d", n, got, n)
		}
		b.Fill()
		if got := AndNotCount(a, b); got != 0 {
			t.Fatalf("n=%d: AndNotCount(full, full) = %d, want 0", n, got)
		}
		if !a.SubsetOf(b) || !a.Equal(b) {
			t.Fatalf("n=%d: full sets must be equal subsets", n)
		}
		if n > 0 && !a.Intersects(b) {
			t.Fatalf("n=%d: full sets must intersect", n)
		}
		if n == 0 && a.Intersects(b) {
			t.Fatal("width-0 sets cannot intersect")
		}
	}
}

// TestPredicatesDecideOnOneBit plants the one bit that decides Equal,
// SubsetOf, ContainsAll and Intersects in the first word, in the last
// word of the last full stripe and in the last word, at every boundary
// width. The random fills of TestKernelsMatchBitReference almost never
// leave a single deciding bit in one chosen word, which is where an
// early exit that skips words, or a loop with a wrong bound, would miss
// it.
func TestPredicatesDecideOnOneBit(t *testing.T) {
	places := []struct {
		name string
		bit  func(n int) int // -1 when width n has no such word
	}{
		{"first word", func(int) int { return 0 }},
		{"last word of the last full stripe", func(n int) int {
			stripes := (n + wordBits - 1) / wordBits / stripeWords
			if stripes == 0 {
				return -1
			}
			return min(stripes*stripeWords*wordBits, n) - 1
		}},
		{"last word", func(n int) int { return n - 1 }},
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range boundaryWidths() {
		if n == 0 {
			continue
		}
		for _, pl := range places {
			p := pl.bit(n)
			if p < 0 {
				continue
			}
			check := func(what string, got, want bool) {
				t.Helper()
				if got != want {
					t.Fatalf("n=%d, bit %d in the %s: %s = %v, want %v", n, p, pl.name, what, got, want)
				}
			}
			// b is a without p.
			a := New(n)
			fillRandom(r, a, 0.5)
			a.Add(p)
			b := a.Clone()
			b.Remove(p)
			aSubB, bSubA := refAndNotCount(a, b) == 0, refAndNotCount(b, a) == 0
			check("a.Equal(b)", a.Equal(b), aSubB && bSubA)
			check("b.Equal(a)", b.Equal(a), aSubB && bSubA)
			check("a.SubsetOf(b)", a.SubsetOf(b), aSubB)
			check("b.SubsetOf(a)", b.SubsetOf(a), bSubA)
			check("b.ContainsAll(a)", b.ContainsAll(a.Indices()), aSubB)
			check("a.ContainsAll(b)", a.ContainsAll(b.Indices()), bSubA)

			// c is a's complement, then shares only p with a.
			c := New(n)
			c.Fill()
			c.AndNot(a)
			check("a.Intersects(complement)", a.Intersects(c), refAndCount(a, c) > 0)
			c.Add(p)
			check("a.Intersects(c)", a.Intersects(c), refAndCount(a, c) > 0)
			check("c.Intersects(a)", c.Intersects(a), refAndCount(c, a) > 0)
		}
	}
}
