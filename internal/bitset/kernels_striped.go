package bitset

import "math/bits"

// This file holds the two weighted-sum cores, the only striped loops of
// the package: EXACT's rub kernels IntersectIntoSum and WeightedSum.
// Every other operation is one word loop at every width, written in its
// exported method over local slices so the compiler drops the per-word
// bounds check.
//
// From stripeMinSumWords up, the weighted-sum cores process stripeWords
// words per iteration and skip the bit walk of an all-zero stripe,
// which is the common case on the sparse tidsets of deep search
// branches (2.3–2.5× on 1%-dense sets, README "Kernels"); a one-word
// tail covers the remaining words. The loop runs over a truncated bound
// (n := len &^ 3) with the secondary operands pre-shrunk to len(a):
// re-slicing the operands each stripe (a = a[4:]) loses the gain to
// slice-header updates, and bounding the loop by i+4 <= len defeats
// bounds-check elimination. Both paths add one weight per set bit in
// ascending bit order through addWeighted, so the float result does
// not depend on the path.
const (
	// stripeWords is the unroll factor of the weighted-sum stripes, in
	// words.
	stripeWords = 4
	// stripeMinSumWords gates the weighted-sum stripes: the skip already
	// wins on sparse sets at a few stripes, so only sub-2-stripe inputs
	// run the one-word loop.
	stripeMinSumWords = 2 * stripeWords
)

// intersectSumWords sets dst[i] = a[i] & b[i] and returns the weighted
// sum of the result's set bits, accumulated strictly in ascending bit
// order (each addition is total += w[bit], the same association as the
// one-word tail — the float result is bit-identical by contract). The
// stripe only unrolls the word intersection; an all-zero stripe skips
// its four bit walks entirely.
func intersectSumWords(dst, a, b []uint64, w []float64) float64 {
	a = a[:len(dst)]
	b = b[:len(dst)]
	total := 0.0
	i := 0
	if len(dst) >= stripeMinSumWords {
		n := len(dst) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			w0 := a[i] & b[i]
			w1 := a[i+1] & b[i+1]
			w2 := a[i+2] & b[i+2]
			w3 := a[i+3] & b[i+3]
			dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
			if w0|w1|w2|w3 != 0 {
				base := i * wordBits
				total = addWeighted(total, w0, w, base)
				total = addWeighted(total, w1, w, base+wordBits)
				total = addWeighted(total, w2, w, base+2*wordBits)
				total = addWeighted(total, w3, w, base+3*wordBits)
			}
		}
	}
	for ; i < len(dst); i++ {
		word := a[i] & b[i]
		dst[i] = word
		total = addWeighted(total, word, w, i*wordBits)
	}
	return total
}

// weightedSumWords returns the weighted sum of a's set bits, ascending
// bit order, with the same all-zero stripe skip as intersectSumWords.
func weightedSumWords(a []uint64, w []float64) float64 {
	total := 0.0
	i := 0
	if len(a) >= stripeMinSumWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			w0, w1, w2, w3 := a[i], a[i+1], a[i+2], a[i+3]
			if w0|w1|w2|w3 != 0 {
				base := i * wordBits
				total = addWeighted(total, w0, w, base)
				total = addWeighted(total, w1, w, base+wordBits)
				total = addWeighted(total, w2, w, base+2*wordBits)
				total = addWeighted(total, w3, w, base+3*wordBits)
			}
		}
	}
	for ; i < len(a); i++ {
		total = addWeighted(total, a[i], w, i*wordBits)
	}
	return total
}

// addWeighted folds w[base+j] into total for every set bit j of word,
// in ascending bit order, one addition at a time. Shared by the striped
// and one-word paths so the association is identical by construction.
func addWeighted(total float64, word uint64, w []float64, base int) float64 {
	for word != 0 {
		total += w[base+bits.TrailingZeros64(word)]
		word &= word - 1
	}
	return total
}
