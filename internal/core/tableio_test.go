package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

func TestTableWriteReadRoundTrip(t *testing.T) {
	d := fig1(t)
	tab := &Table{Rules: []Rule{
		{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(1, 5)},
		{X: itemset.New(2), Dir: Forward, Y: itemset.New(4)},
		{X: itemset.New(3), Dir: Backward, Y: itemset.New(3)},
	}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, d, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != tab.Size() {
		t.Fatalf("round trip lost rules: %d != %d", got.Size(), tab.Size())
	}
	for i := range tab.Rules {
		if got.Rules[i].Compare(tab.Rules[i]) != 0 {
			t.Fatalf("rule %d: %v != %v", i, got.Rules[i], tab.Rules[i])
		}
	}
}

func TestTableFileRoundTrip(t *testing.T) {
	d := fig1(t)
	tab := &Table{Rules: []Rule{
		{X: itemset.New(0), Dir: Both, Y: itemset.New(0)},
	}}
	path := filepath.Join(t.TempDir(), "rules.tt")
	if err := WriteTableFile(path, d, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableFile(path, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 1 || got.Rules[0].Compare(tab.Rules[0]) != 0 {
		t.Fatal("file round trip wrong")
	}
}

func TestReadTableSyntax(t *testing.T) {
	d := fig1(t)
	in := `
# comment
A, B <-> L, U
C -> S
D <- Q
`
	tab, err := ReadTable(strings.NewReader(in), d)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Size() != 3 {
		t.Fatalf("parsed %d rules", tab.Size())
	}
	if tab.Rules[0].Dir != Both || tab.Rules[1].Dir != Forward || tab.Rules[2].Dir != Backward {
		t.Fatal("directions wrong")
	}
	if !tab.Rules[0].X.Equal(itemset.New(0, 1)) || !tab.Rules[0].Y.Equal(itemset.New(1, 5)) {
		t.Fatalf("rule 0 itemsets wrong: %v", tab.Rules[0])
	}
	// Names out of order canonicalize.
	tab, err = ReadTable(strings.NewReader("B, A -> U, L\n"), d)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Rules[0].X.IsCanonical() || !tab.Rules[0].Y.IsCanonical() {
		t.Fatal("itemsets not canonicalized")
	}
}

func TestReadTableErrors(t *testing.T) {
	d := fig1(t)
	for name, in := range map[string]string{
		"no direction":         "A, B\n",
		"unknown left":         "Z -> S\n",
		"unknown right":        "A -> Z\n",
		"empty left":           " -> S\n",
		"empty right":          "A -> \n",
		"reversed glyph":       "A >- S\n",
		"doubled glyph":        "A ->> S\n", // parses as ->, then "> S" is unknown
		"spaced glyph":         "A - > S\n",
		"wrong-case name":      "a -> S\n",
		"direction only":       "->\n",
		"swapped views":        "K -> A\n", // right-view name on the left side
		"truncated mid-rule":   "A, B <-> L, U\nC -",
		"truncated mid-name":   "A, B <-> L, U\nC -> SOMETHINGLON",
		"binary junk":          "\x00\x01\x02 -> S\n",
		"comma only left side": ", -> S\n",
	} {
		if _, err := ReadTable(strings.NewReader(in), d); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

// Error messages must carry the offending line number so stored tables
// can be fixed by hand.
func TestReadTableErrorLineNumbers(t *testing.T) {
	d := fig1(t)
	in := "# header comment\nA -> S\n\nZ -> S\n"
	_, err := ReadTable(strings.NewReader(in), d)
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error does not name line 4: %v", err)
	}
	if !strings.Contains(err.Error(), `"Z"`) {
		t.Fatalf("error does not name the unknown item: %v", err)
	}
}

// errReader fails after yielding its prefix, like a truncated or broken
// stream; the reader error must propagate out of ReadTable.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadTableReaderError(t *testing.T) {
	d := fig1(t)
	broken := errors.New("disk gone")
	// The prefix ends on a complete line: the parse succeeds up to the
	// cut and the stream error itself must surface.
	_, err := ReadTable(&errReader{data: []byte("A -> S\n"), err: broken}, d)
	if !errors.Is(err, broken) {
		t.Fatalf("reader error not propagated: %v", err)
	}
	// A truncated final line (no trailing newline, stream broken) still
	// errors — as a parse failure of the partial line.
	if _, err := ReadTable(&errReader{data: []byte("A -> S\nB -> "), err: broken}, d); err == nil {
		t.Fatal("truncated final line accepted")
	}
}

// A line longer than the scanner's 4 MiB ceiling is an error, not an
// OOM or a silent truncation.
func TestReadTableOverlongLine(t *testing.T) {
	d := fig1(t)
	long := "A -> S, " + strings.Repeat("S, ", 1<<21) + "S\n"
	if _, err := ReadTable(strings.NewReader(long), d); err == nil {
		t.Fatal("overlong line accepted")
	}
}

func TestWriteTableValidates(t *testing.T) {
	d := fig1(t)
	bad := &Table{Rules: []Rule{{X: itemset.New(99), Dir: Forward, Y: itemset.New(0)}}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, d, bad); err == nil {
		t.Fatal("invalid rule serialized")
	}
}

func TestQuickTableRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, tab := randomDataAndTable(r)
		var buf bytes.Buffer
		if err := WriteTable(&buf, d, tab); err != nil {
			return false
		}
		got, err := ReadTable(&buf, d)
		if err != nil || got.Size() != tab.Size() {
			return false
		}
		for i := range tab.Rules {
			if got.Rules[i].Compare(tab.Rules[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyReport(t *testing.T) {
	d := fig1(t)
	tab := &Table{Rules: []Rule{
		{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(1, 5)},
	}}
	rep, err := Apply(context.Background(), d, tab, dataset.Left)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != dataset.Left {
		t.Fatal("From wrong")
	}
	if rep.Cells != d.Size()*d.Items(dataset.Right) {
		t.Fatal("Cells wrong")
	}
	// {A,B} occurs in rows 0, 3, 4 → 3 applications × 2 items.
	if rep.TranslatedOnes != 6 {
		t.Fatalf("TranslatedOnes = %d, want 6", rep.TranslatedOnes)
	}
	// Consistency with the state implementation.
	s := NewState(d, mdl.NewCoder(d))
	s.AddRule(tab.Rules[0])
	if rep.Uncovered != s.totals.UOnes[dataset.Right] || rep.Errors != s.totals.EOnes[dataset.Right] {
		t.Fatalf("Apply (%d,%d) disagrees with state (%d,%d)",
			rep.Uncovered, rep.Errors,
			s.totals.UOnes[dataset.Right], s.totals.EOnes[dataset.Right])
	}
}
