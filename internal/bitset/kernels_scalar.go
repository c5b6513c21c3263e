//go:build bitset_scalar

package bitset

import "math/bits"

// This file is the scalar differential reference for the striped cores
// in kernels_striped.go: the original one-word-at-a-time loops (as
// shipped through PR 4) behind the same internal core signatures.
// Building with `-tags bitset_scalar` swaps them in wholesale, so the
// full test suite — including the miners' bit-identical determinism
// properties — can run against either build. striped_test.go asserts
// the two cores agree word-for-word (and bit-for-bit for the float
// accumulators) on every width boundary.
const (
	// stripeWords is 1 in the scalar build: no unrolling.
	stripeWords = 1
	// The width gates of the striped build are 1 here (every width is
	// "above the gate" of a build with no stripes); striped_test.go
	// reads them to place its boundary widths.
	stripeMinWords    = 1
	stripeMinSumWords = 1
	// scalarKernels reports which build of the cores is active.
	scalarKernels = true
)

func countWords(a []uint64) int {
	c := 0
	for _, w := range a {
		c += bits.OnesCount64(w)
	}
	return c
}

func andCountWords(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

func andNotCountWords(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] &^ b[i])
	}
	return c
}

func andNotAndNotCountWords(a, b, c []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] &^ b[i] &^ c[i])
	}
	return n
}

func andOrCountWords(a, b, c []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & (b[i] | c[i]))
	}
	return n
}

func intersectCountWords(dst, a, b []uint64) int {
	c := 0
	for i := range dst {
		w := a[i] & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

func intersectWords(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

func andWords(a, b []uint64) {
	for i := range a {
		a[i] &= b[i]
	}
}

func orWords(a, b []uint64) {
	for i := range a {
		a[i] |= b[i]
	}
}

func andNotWords(a, b []uint64) {
	for i := range a {
		a[i] &^= b[i]
	}
}

func xorWords(a, b []uint64) {
	for i := range a {
		a[i] ^= b[i]
	}
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func subsetWords(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

func intersectsWords(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

func intersectSumWords(dst, a, b []uint64, w []float64) float64 {
	total := 0.0
	for i := range dst {
		word := a[i] & b[i]
		dst[i] = word
		total = addWeighted(total, word, w, i*wordBits)
	}
	return total
}

func weightedSumWords(a []uint64, w []float64) float64 {
	total := 0.0
	for i, word := range a {
		total = addWeighted(total, word, w, i*wordBits)
	}
	return total
}
