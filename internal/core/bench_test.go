package core

import (
	"context"
	"fmt"
	"testing"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// Micro-benchmarks of the hot core operations: gain evaluation, rule
// application, and one exact best-rule search.

func benchState(b *testing.B) (*State, *dataset.Dataset) {
	b.Helper()
	d := plantedDataset(b, 77)
	return NewState(d, mdl.NewCoder(d)), d
}

func BenchmarkGain(b *testing.B) {
	s, _ := benchState(b)
	r := Rule{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(0, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Gain(r)
	}
}

func BenchmarkGainWithTids(b *testing.B) {
	s, d := benchState(b)
	r := Rule{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(0, 1)}
	tidX := d.SupportSet(dataset.Left, r.X)
	tidY := d.SupportSet(dataset.Right, r.Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GainWithTids(r, tidX, tidY)
	}
}

func BenchmarkAddRule(b *testing.B) {
	d := plantedDataset(b, 78)
	coder := mdl.NewCoder(d)
	r := Rule{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(0, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewState(d, coder)
		s.AddRule(r)
	}
}

func BenchmarkBestRule(b *testing.B) {
	s, _ := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := bestRule(s, ExactOptions{}); !ok {
			b.Fatal("no rule found")
		}
	}
}

// BenchmarkMineExact measures full exact mining end to end; allocs/op
// tracks the scratch reuse of the DFS (itemset extension and per-depth
// tidsets), and serial vs parallel the worker-pool overhead/speedup.
func BenchmarkMineExact(b *testing.B) {
	d := plantedDataset(b, 77)
	for _, bench := range []struct {
		name string
		opt  ExactOptions
	}{
		{"serial", ExactOptions{ParallelOptions: Parallel(1)}},
		{"parallel", ExactOptions{}},
		{"serial-nobounds", ExactOptions{DisableRub: true, DisableQub: true, ParallelOptions: Parallel(1)}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := mustExact(b, d, bench.opt); res.Table.Size() == 0 {
					b.Fatal("no rules")
				}
			}
		})
	}
}

// BenchmarkMineSelect measures full SELECT mining (incremental scoring
// and add rounds) serial vs parallel over a realistic candidate set. The k1
// variants force one accepted rule per round — the many-cheap-rounds
// shape that stresses the per-phase overhead of the persistent pool.
func BenchmarkMineSelect(b *testing.B) {
	d := plantedDataset(b, 77)
	cands, err := MineCandidates(context.Background(), d, 1, 0, Parallel(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		opt  SelectOptions
	}{
		{"serial", SelectOptions{K: 25, ParallelOptions: Parallel(1)}},
		{"parallel", SelectOptions{K: 25}},
		{"serial-k1", SelectOptions{K: 1, ParallelOptions: Parallel(1)}},
		{"parallel-k1", SelectOptions{K: 1}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := mustSelect(b, d, cands, bench.opt); res.Table.Size() == 0 {
					b.Fatal("no rules")
				}
			}
		})
	}
}

// BenchmarkMineGreedy measures the single-pass filter serial vs the
// speculative block-parallel version.
func BenchmarkMineGreedy(b *testing.B) {
	d := plantedDataset(b, 77)
	cands, err := MineCandidates(context.Background(), d, 1, 0, Parallel(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		opt  GreedyOptions
	}{
		{"serial", GreedyOptions{ParallelOptions: Parallel(1)}},
		{"parallel", GreedyOptions{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := mustGreedy(b, d, cands, bench.opt); res.Table.Size() == 0 {
					b.Fatal("no rules")
				}
			}
		})
	}
}

// BenchmarkMineCandidates quantifies the parallel ECLAT walk (and the
// parallel tidset materialization) against the serial baseline.
func BenchmarkMineCandidates(b *testing.B) {
	d := plantedDataset(b, 77)
	for _, bench := range []struct {
		name string
		par  ParallelOptions
	}{
		{"serial", Parallel(1)},
		{"parallel", ParallelOptions{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cands, err := MineCandidates(context.Background(), d, 1, 0, bench.par)
				if err != nil || len(cands) == 0 {
					b.Fatalf("candidates: %v (%d)", err, len(cands))
				}
			}
		})
	}
}

func BenchmarkTranslateRow(b *testing.B) {
	d := plantedDataset(b, 79)
	tab := &Table{Rules: []Rule{
		{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(0, 1)},
		{X: itemset.New(2), Dir: Forward, Y: itemset.New(3)},
	}}
	row := d.Row(dataset.Left, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TranslateRow(d, tab, dataset.Left, row)
	}
}

// servingFixture mines a realistic table once; the serving benchmarks
// apply it many times.
func servingFixture(b *testing.B) (*dataset.Dataset, *Table) {
	b.Helper()
	d := plantedDataset(b, 81)
	cands := mustCandidates(b, d, 1, 0, Parallel(1))
	res := mustSelect(b, d, cands, SelectOptions{K: 25, ParallelOptions: Parallel(1)})
	if res.Table.Size() == 0 {
		b.Fatal("no rules to serve")
	}
	return d, res.Table
}

// BenchmarkApply measures the one-shot Apply path: table preparation
// (compilation) is paid on every call — the cost profile of the v1 API,
// which re-derived everything per call.
func BenchmarkApply(b *testing.B) {
	d, tab := servingFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(context.Background(), d, tab, dataset.Left); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslatorBatch measures the compiled batch translation:
// the Translator is compiled once outside the loop and each iteration
// runs TranslateBatchIDs over the whole view, materializing the per-row
// translations — the "mine once, Apply many" steady state. Its ns/op
// against BenchmarkApply quantifies the amortized preparation.
func BenchmarkTranslatorBatch(b *testing.B) {
	d, tab := servingFixture(b)
	tr, err := CompileTranslator(d, tab)
	if err != nil {
		b.Fatal(err)
	}
	rows := viewIDs(d, dataset.Left)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TranslateBatchIDs(context.Background(), dataset.Left, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslatorSparseRow pins the generational counter reset of
// the counting matcher: a sparse 3-item row translated through tables
// of growing size. With the lazy generation tags the per-row cost is
// O(postings touched by the row) — near-constant across the rules axis
// — where the old clear(counts[:|T|]) made it grow linearly with the
// table. A regression that reintroduces an O(|T|) per-row term shows up
// as rules=4096 drifting to a multiple of rules=128.
func BenchmarkTranslatorSparseRow(b *testing.B) {
	const items = 256
	d := dataset.MustNew(dataset.GenericNames("l", items), dataset.GenericNames("r", items))
	for _, nRules := range []int{128, 1024, 4096} {
		tab := &Table{}
		for k := 0; k < nRules; k++ {
			// Two-item antecedents spread over the vocabulary; only the
			// postings of items {0,1,2} overlap the benchmarked row.
			a, c := k%items, (k*7+1)%items
			if a == c {
				c = (c + 1) % items
			}
			tab.Rules = append(tab.Rules, Rule{
				X: itemset.New(a, c), Dir: Forward, Y: itemset.New(k % items),
			})
		}
		tr, err := CompileTranslator(d, tab)
		if err != nil {
			b.Fatal(err)
		}
		row := []int{0, 1, 2}
		b.Run(fmt.Sprintf("rules=%d", nRules), func(b *testing.B) {
			var dst []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = tr.TranslateIDs(dst[:0], dataset.Left, row); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranslatorApply measures the compiled report path (the
// counting matcher plus fused correction counts, nothing
// materialized): the pure serving cost of one Apply pass once
// compilation is amortized away.
func BenchmarkTranslatorApply(b *testing.B) {
	d, tab := servingFixture(b)
	tr, err := CompileTranslator(d, tab)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Apply(context.Background(), d, dataset.Left); err != nil {
			b.Fatal(err)
		}
	}
}
