package dataset

import (
	"math/rand"
	"sync"
	"testing"

	"twoview/internal/bitset"
)

// benchShapes are two Table-1 shapes (|D|, |I_L|, |I_R|, d_L, d_R):
// the datasets of perfbench's mine-dense and serve workloads.
var benchShapes = []struct {
	name           string
	size           int
	itemsL, itemsR int
	densL, densR   float64
}{
	{"chesskrvk", 28056, 24, 34, 0.167, 0.088},
	{"adult", 48842, 44, 53, 0.179, 0.132},
}

// benchRows draws size rows of independent items at the given
// densities, as item ids per view.
func benchRows(size, itemsL, itemsR int, densL, densR float64) (left, right [][]int) {
	r := rand.New(rand.NewSource(1))
	draw := func(n int, dens float64) []int {
		var ids []int
		for i := 0; i < n; i++ {
			if r.Float64() < dens {
				ids = append(ids, i)
			}
		}
		return ids
	}
	left, right = make([][]int, size), make([][]int, size)
	for t := range left {
		left[t], right[t] = draw(itemsL, densL), draw(itemsR, densR)
	}
	return left, right
}

// BenchmarkAddRow builds a whole dataset of each shape with AddRow.
func BenchmarkAddRow(b *testing.B) {
	for _, s := range benchShapes {
		left, right := benchRows(s.size, s.itemsL, s.itemsR, s.densL, s.densR)
		namesL, namesR := GenericNames("L", s.itemsL), GenericNames("R", s.itemsR)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := MustNew(namesL, namesR)
				for t := range left {
					if err := d.AddRow(left[t], right[t]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkColumns builds both views' tidsets of a dataset of each
// shape from a cold column cache.
func BenchmarkColumns(b *testing.B) {
	for _, s := range benchShapes {
		left, right := benchRows(s.size, s.itemsL, s.itemsR, s.densL, s.densR)
		d := MustNew(GenericNames("L", s.itemsL), GenericNames("R", s.itemsR))
		for t := range left {
			if err := d.AddRow(left[t], right[t]); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.colsOnce, d.cols, d.supps = [2]sync.Once{}, [2][]*bitset.Set{}, [2][]int{}
				d.Columns(Left)
				d.Columns(Right)
			}
		})
	}
}
