package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// minedTable mines a table from the planted dataset with the given
// miner, for serving-path fixtures built on real mined models.
func minedTables(t testing.TB, d *dataset.Dataset) map[string]*Table {
	t.Helper()
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	return map[string]*Table{
		"exact":  mustExact(t, d, ExactOptions{}).Table,
		"select": mustSelect(t, d, cands, SelectOptions{K: 25}).Table,
		"greedy": mustGreedy(t, d, cands, GreedyOptions{}).Table,
	}
}

// The compiled single-row translation must be bit-identical to the
// reference TranslateRow, for random datasets and tables, in both
// directions.
func TestQuickTranslatorMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, tab := randomDataAndTable(r)
		tr, err := CompileTranslator(d, tab)
		if err != nil {
			return false
		}
		for _, from := range []dataset.View{dataset.Left, dataset.Right} {
			for ti := 0; ti < d.Size(); ti++ {
				row := d.Row(from, ti)
				want := TranslateRow(d, tab, from, row).Indices()
				got, err := tr.TranslateIDs(nil, from, row.Indices())
				if err != nil || len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The compiled Apply must reproduce the reference (uncompiled) report
// bit for bit on tables mined by all three miners from the planted
// dataset, and the package-level Apply is exactly that compiled path.
func TestTranslatorApplyMatchesReference(t *testing.T) {
	d := plantedDataset(t, 61)
	for name, tab := range minedTables(t, d) {
		tr, err := CompileTranslator(d, tab)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, from := range []dataset.View{dataset.Left, dataset.Right} {
			want := applyReference(d, tab, from)
			got, err := tr.Apply(context.Background(), d, from)
			if err != nil {
				t.Fatalf("%s from %v: %v", name, from, err)
			}
			if got != want {
				t.Fatalf("%s from %v: compiled report %+v, reference %+v", name, from, got, want)
			}
			viaApply, err := Apply(context.Background(), d, tab, from)
			if err != nil {
				t.Fatalf("%s from %v: Apply: %v", name, from, err)
			}
			if viaApply != want {
				t.Fatalf("%s from %v: Apply wrapper %+v, reference %+v", name, from, viaApply, want)
			}
		}
	}
}

// viewIDs returns every transaction of view v of d as item ids.
func viewIDs(d *dataset.Dataset, v dataset.View) [][]int {
	rows := make([][]int, d.Size())
	for ti := range rows {
		rows[ti] = d.Row(v, ti).Indices()
	}
	return rows
}

// TranslateBatchIDs must equal per-row TranslateIDs and honour
// cancellation.
func TestTranslatorBatch(t *testing.T) {
	d := plantedDataset(t, 63)
	tab := minedTables(t, d)["greedy"]
	tr, err := CompileTranslator(d, tab)
	if err != nil {
		t.Fatal(err)
	}
	rows := viewIDs(d, dataset.Left)
	batch, err := tr.TranslateBatchIDs(context.Background(), dataset.Left, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != d.Size() {
		t.Fatalf("batch has %d rows, dataset %d", len(batch), d.Size())
	}
	for ti := range batch {
		want, err := tr.TranslateIDs(nil, dataset.Left, rows[ti])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(batch[ti], want) {
			t.Fatalf("batch row %d = %v, per-row %v", ti, batch[ti], want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.TranslateBatchIDs(ctx, dataset.Left, rows); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v", err)
	}
}

// One Translator instance must serve many goroutines concurrently and
// agree with the serial answers (run under -race in CI).
func TestTranslatorConcurrent(t *testing.T) {
	d := plantedDataset(t, 64)
	tab := minedTables(t, d)["select"]
	tr, err := CompileTranslator(d, tab)
	if err != nil {
		t.Fatal(err)
	}
	rows := viewIDs(d, dataset.Left)
	want, err := tr.TranslateBatchIDs(context.Background(), dataset.Left, rows)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti, ids := range rows {
				if got, err := tr.TranslateIDs(nil, dataset.Left, ids); err != nil || !equalInts(got, want[ti]) {
					errs <- errors.New("concurrent translation differs")
					return
				}
			}
			// The batch path shares the pooled scratch too.
			if got, err := tr.TranslateBatchIDs(context.Background(), dataset.Left, rows); err != nil || !slices.EqualFunc(got, want, equalInts) {
				errs <- errors.New("concurrent batch translation differs")
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// ApplyStream over the serialized dataset must match the in-memory
// Apply bit for bit; vocabulary mismatches, bad ids and cancellation
// must error.
func TestTranslatorApplyStream(t *testing.T) {
	d := plantedDataset(t, 65)
	tab := minedTables(t, d)["select"]
	tr, err := CompileTranslator(d, tab)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	serialized := buf.String()

	for _, from := range []dataset.View{dataset.Left, dataset.Right} {
		want, err := tr.Apply(context.Background(), d, from)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.ApplyStream(context.Background(), strings.NewReader(serialized), from)
		if err != nil {
			t.Fatalf("from %v: %v", from, err)
		}
		if got != want {
			t.Fatalf("from %v: stream report %+v, in-memory %+v", from, got, want)
		}
	}

	// A stream over different vocabularies must be rejected.
	other := dataset.MustNew(dataset.GenericNames("x", 6), dataset.GenericNames("r", 6))
	other.AddRow([]int{0}, []int{0})
	buf.Reset()
	if err := dataset.Write(&buf, other); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ApplyStream(context.Background(), &buf, dataset.Left); err == nil {
		t.Fatal("vocabulary mismatch not detected")
	}

	// Out-of-range ids are reported with their line.
	bad := "L\tl0\tl1\tl2\tl3\tl4\tl5\nR\tr0\tr1\tr2\tr3\tr4\tr5\n0 99 | 1\n"
	if _, err := tr.ApplyStream(context.Background(), strings.NewReader(bad), dataset.Left); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("bad id not reported: %v", err)
	}

	// Cancellation aborts the stream.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.ApplyStream(ctx, strings.NewReader(serialized), dataset.Left); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream: err = %v", err)
	}
}

// TranslateIDs is the fresh-traffic entry: ids in, ids out, matching
// the reference row-based TranslateRow; out-of-vocabulary ids error.
func TestTranslatorTranslateIDs(t *testing.T) {
	d := plantedDataset(t, 66)
	tab := minedTables(t, d)["select"]
	tr, err := CompileTranslator(d, tab)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < d.Size(); ti++ {
		row := d.Row(dataset.Left, ti)
		want := TranslateRow(d, tab, dataset.Left, row).Indices()
		got, err := tr.TranslateIDs(nil, dataset.Left, row.Indices())
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, want) {
			t.Fatalf("t%d: TranslateIDs %v, TranslateRow %v", ti, got, want)
		}
	}
	if _, err := tr.TranslateIDs(nil, dataset.Left, []int{99}); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("out-of-range id not reported: %v", err)
	}
	if _, err := tr.TranslateIDs(nil, dataset.Right, []int{-1}); err == nil {
		t.Fatal("negative id accepted")
	}
}

// Compilation validates the table against the vocabularies.
func TestCompileTranslatorValidates(t *testing.T) {
	d := fig1(t)
	bad := &Table{Rules: []Rule{{X: itemset.New(99), Dir: Forward, Y: itemset.New(0)}}}
	if _, err := CompileTranslator(d, bad); err == nil {
		t.Fatal("out-of-vocabulary rule compiled")
	}
	empty := &Table{}
	tr, err := CompileTranslator(d, empty)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tr.TranslateIDs(nil, dataset.Left, d.Row(dataset.Left, 0).Indices()); err != nil || len(got) != 0 {
		t.Fatalf("empty table translated to %v", got)
	}
	if tr.Rules() != 0 || tr.Items(dataset.Left) != 5 || tr.Items(dataset.Right) != 6 {
		t.Fatal("compiled metadata wrong")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
