package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks, width-parameterized from one word to 1,024:
// words=4 is the planted datasets' tidset ballpark, and the weighted
// sums run their stripes from words=16 up (their gate is 8 words),
// where the all-zero-stripe skip must pay off on the sparse variants:
//
//	go test -run='^$' -bench 'AndCount|IntersectInto' ./internal/bitset/
var benchWords = []int{1, 4, 16, 64, 256, 1024}

func randomSet(r *rand.Rand, n int, density float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			s.Add(i)
		}
	}
	return s
}

// benchSets returns two random sets of the given word count and
// density, and a weight vector covering them.
func benchSets(seed int64, words int, density float64) (x, y *Set, w []float64) {
	r := rand.New(rand.NewSource(seed))
	n := words * WordBits
	x = randomSet(r, n, density)
	y = randomSet(r, n, density)
	w = make([]float64, n)
	for i := range w {
		w[i] = r.Float64()
	}
	return x, y, w
}

func benchWidths(b *testing.B, seed int64, run func(b *testing.B, x, y *Set, w []float64)) {
	for _, words := range benchWords {
		x, y, w := benchSets(seed, words, 0.2)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			run(b, x, y, w)
		})
	}
}

// benchWidthsSparse is the 1%-density variant: the regime of deep
// search branches, where the striped cores' all-zero-stripe skip in the
// weighted-sum kernels actually fires.
func benchWidthsSparse(b *testing.B, seed int64, run func(b *testing.B, x, y *Set, w []float64)) {
	for _, words := range benchWords {
		x, y, w := benchSets(seed, words, 0.01)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			run(b, x, y, w)
		})
	}
}

var (
	sinkInt   int
	sinkFloat float64
	sinkBool  bool
)

func BenchmarkAndCount(b *testing.B) {
	benchWidths(b, 1, func(b *testing.B, x, y *Set, _ []float64) {
		for i := 0; i < b.N; i++ {
			sinkInt = AndCount(x, y)
		}
	})
}

func BenchmarkAndNotCount(b *testing.B) {
	benchWidths(b, 2, func(b *testing.B, x, y *Set, _ []float64) {
		for i := 0; i < b.N; i++ {
			sinkInt = AndNotCount(x, y)
		}
	})
}

func BenchmarkAndNotAndNotCount(b *testing.B) {
	benchWidths(b, 3, func(b *testing.B, x, y *Set, _ []float64) {
		z := y.Clone()
		z.Xor(x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkInt = AndNotAndNotCount(x, y, z)
		}
	})
}

func BenchmarkAndOrCount(b *testing.B) {
	benchWidths(b, 3, func(b *testing.B, x, y *Set, _ []float64) {
		z := y.Clone()
		z.Xor(x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkInt = AndOrCount(x, y, z)
		}
	})
}

func BenchmarkIntersectInto(b *testing.B) {
	benchWidths(b, 4, func(b *testing.B, x, y *Set, _ []float64) {
		dst := New(x.Len())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			IntersectInto(dst, x, y)
		}
	})
}

func BenchmarkIntersectIntoCount(b *testing.B) {
	benchWidths(b, 4, func(b *testing.B, x, y *Set, _ []float64) {
		dst := New(x.Len())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkInt = IntersectIntoCount(dst, x, y)
		}
	})
}

func BenchmarkIntersectIntoSum(b *testing.B) {
	benchWidths(b, 5, func(b *testing.B, x, y *Set, w []float64) {
		dst := New(x.Len())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFloat = IntersectIntoSum(dst, x, y, w)
		}
	})
}

func BenchmarkWeightedSum(b *testing.B) {
	benchWidths(b, 6, func(b *testing.B, x, _ *Set, w []float64) {
		for i := 0; i < b.N; i++ {
			sinkFloat = WeightedSum(x, w)
		}
	})
}

func BenchmarkIntersectIntoSumSparse(b *testing.B) {
	benchWidthsSparse(b, 5, func(b *testing.B, x, y *Set, w []float64) {
		dst := New(x.Len())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFloat = IntersectIntoSum(dst, x, y, w)
		}
	})
}

func BenchmarkWeightedSumSparse(b *testing.B) {
	benchWidthsSparse(b, 6, func(b *testing.B, x, _ *Set, w []float64) {
		for i := 0; i < b.N; i++ {
			sinkFloat = WeightedSum(x, w)
		}
	})
}

func BenchmarkEqual(b *testing.B) {
	benchWidths(b, 7, func(b *testing.B, x, _ *Set, _ []float64) {
		// Worst case: equal sets, no early exit.
		y := x.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkBool = x.Equal(y)
		}
	})
}

func BenchmarkSubsetOf(b *testing.B) {
	benchWidths(b, 8, func(b *testing.B, x, y *Set, _ []float64) {
		// Worst case: a genuine subset, no early exit.
		small := x.Clone()
		small.And(y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkBool = small.SubsetOf(x)
		}
	})
}

func BenchmarkCount(b *testing.B) {
	benchWidths(b, 9, func(b *testing.B, x, _ *Set, _ []float64) {
		for i := 0; i < b.N; i++ {
			sinkInt = x.Count()
		}
	})
}

func BenchmarkForEach(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	x := randomSet(r, 50_000, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		x.ForEach(func(j int) bool {
			sum += j
			return true
		})
		sinkInt = sum
	}
}

// BenchmarkGather projects 50 columns of 20% density onto a 7% mask
// 439 words wide: one top-level ECLAT branch of chesskrvk at scale 1.0.
func BenchmarkGather(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	const n = 439 * WordBits
	mask := randomSet(r, n, 0.07)
	src, dst := make([]*Set, 50), make([]*Set, 50)
	for k := range src {
		src[k], dst[k] = randomSet(r, n, 0.2), New(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(dst, src, mask)
	}
}
