// Package itemset implements itemsets as sorted, duplicate-free slices of
// item identifiers, together with the set algebra needed by the miners and
// the translation model. Items are small non-negative integers indexing the
// vocabulary of a single view (or the joined vocabulary, by convention).
package itemset

import (
	"fmt"
	"sort"
	"strings"
)

// Itemset is a sorted, duplicate-free slice of item ids. The nil slice is
// the empty itemset. Functions in this package never mutate their inputs;
// results are freshly allocated unless stated otherwise.
type Itemset []int

// New returns a canonical itemset (sorted, deduplicated) from items.
func New(items ...int) Itemset {
	if len(items) == 0 {
		return nil
	}
	out := make(Itemset, len(items))
	copy(out, items)
	sort.Ints(out)
	// Deduplicate in place.
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// IsCanonical reports whether s is sorted strictly ascending.
func (s Itemset) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Empty reports whether s has no items.
func (s Itemset) Empty() bool { return len(s) == 0 }

// Contains reports whether item x is in s (binary search).
func (s Itemset) Contains(x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// SubsetOf reports whether every item of s is in t. Both must be canonical.
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Equal reports whether s and t contain the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Intersects reports whether s and t share at least one item.
func (s Itemset) Intersects(t Itemset) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Clone returns a copy of s.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Compare orders itemsets first by length, then lexicographically; it
// returns -1, 0 or +1. It provides the deterministic total order used for
// tie-breaking across the repository.
func Compare(a, b Itemset) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the itemset with bare item ids, e.g. "{1 4 9}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}

// Format renders the itemset using the provided item names, falling back to
// ids when a name is missing.
func (s Itemset) Format(names []string) string {
	parts := make([]string, len(s))
	for i, x := range s {
		if x >= 0 && x < len(names) && names[x] != "" {
			parts[i] = names[x]
		} else {
			parts[i] = fmt.Sprintf("#%d", x)
		}
	}
	return strings.Join(parts, ", ")
}
