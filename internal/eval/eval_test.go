package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	_ "twoview/internal/shard" // the sharded cover, for ParallelOptions.Shards
	"twoview/internal/synth"
)

func sampleData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.MustNew([]string{"a", "b"}, []string{"p", "q"})
	rows := [][2][]int{
		{{0, 1}, {0}},
		{{0, 1}, {0}},
		{{0}, {0, 1}},
		{{1}, {1}},
	}
	for _, r := range rows {
		if err := d.AddRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestMaxConfidence(t *testing.T) {
	d := sampleData(t)
	// a -> p: joint 3, supp(a)=3, supp(p)=3 → both directions 1.0.
	r := core.Rule{X: itemset.New(0), Dir: core.Forward, Y: itemset.New(0)}
	if got := MaxConfidence(d, r); math.Abs(got-1) > 1e-12 {
		t.Fatalf("c+ = %v, want 1", got)
	}
	// b -> q: joint 1, supp(b)=3, supp(q)=2 → max(1/3, 1/2) = 0.5.
	r = core.Rule{X: itemset.New(1), Dir: core.Forward, Y: itemset.New(1)}
	if got := MaxConfidence(d, r); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("c+ = %v, want 0.5", got)
	}
	// Zero joint support → 0.
	r = core.Rule{X: itemset.New(0, 1), Dir: core.Forward, Y: itemset.New(0, 1)}
	if got := MaxConfidence(d, r); got != 0 {
		t.Fatalf("c+ = %v, want 0", got)
	}
}

// FromResult reads a run's final cover totals where Evaluate replays
// the table, and both must report the same bits, on the local cover and
// on the sharded one (whose coordinator folds the shards' counts into
// its totals in the monolith's order).
func TestEvaluateMatchesFromResult(t *testing.T) {
	ctx := context.Background()
	d, _, sp, err := Gen(mustProfile("car"), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := core.MineCandidates(ctx, d, sp.MinSupport, 0, core.Parallel(1))
	if err != nil {
		t.Fatal(err)
	}
	coder := mdl.NewCoder(d)
	bits := func(m Metrics) [5]uint64 {
		return [5]uint64{uint64(m.NumRules), math.Float64bits(m.AvgLen), math.Float64bits(m.CorrPct),
			math.Float64bits(m.AvgConf), math.Float64bits(m.LPct)}
	}
	for _, cover := range []struct {
		name string
		par  core.ParallelOptions
	}{{"local", core.Parallel(2)}, {"shard", core.ParallelOptions{Workers: 2, Shards: 2}}} {
		for _, run := range []struct {
			name string
			mine func() (*core.Result, error)
		}{
			{"select1", func() (*core.Result, error) {
				return core.MineSelect(ctx, d, cands, core.SelectOptions{K: 1, ParallelOptions: cover.par})
			}},
			{"select25", func() (*core.Result, error) {
				return core.MineSelect(ctx, d, cands, core.SelectOptions{K: 25, ParallelOptions: cover.par})
			}},
			{"greedy", func() (*core.Result, error) {
				return core.MineGreedy(ctx, d, cands, core.GreedyOptions{ParallelOptions: cover.par})
			}},
			{"exact", func() (*core.Result, error) {
				return core.MineExact(ctx, d, core.ExactOptions{MaxRules: 4, ParallelOptions: cover.par})
			}},
		} {
			res, err := run.mine()
			if err != nil {
				t.Fatalf("%s/%s: %v", cover.name, run.name, err)
			}
			if res.Table.Size() < 2 {
				t.Fatalf("%s/%s: %d rules, want at least 2", cover.name, run.name, res.Table.Size())
			}
			got, want := FromResult(d, res), Evaluate(d, coder, res.Table)
			if bits(got) != bits(want) {
				t.Fatalf("%s/%s: FromResult %+v, Evaluate %+v", cover.name, run.name, got, want)
			}
		}
	}
}

func TestEvaluateEmptyTable(t *testing.T) {
	d := sampleData(t)
	m := Evaluate(d, mdl.NewCoder(d), &core.Table{})
	if m.NumRules != 0 || m.AvgConf != 0 || math.Abs(m.LPct-100) > 1e-9 {
		t.Fatalf("empty table metrics = %+v", m)
	}
}

func TestTopRulesAndRulesWithItem(t *testing.T) {
	d := sampleData(t)
	tab := &core.Table{Rules: []core.Rule{
		{X: itemset.New(0), Dir: core.Both, Y: itemset.New(0)},
		{X: itemset.New(1), Dir: core.Forward, Y: itemset.New(1)},
	}}
	top := TopRules(d, tab, 5)
	if len(top) != 2 {
		t.Fatalf("TopRules returned %d", len(top))
	}
	if top[0].Supp != 3 || math.Abs(top[0].Conf-1) > 1e-12 {
		t.Fatalf("TopRules[0] = %+v", top[0])
	}
	withQ := RulesWithItem(tab, dataset.Right, 1)
	if len(withQ) != 1 || !withQ[0].X.Equal(itemset.New(1)) {
		t.Fatalf("RulesWithItem = %v", withQ)
	}
	if n := len(RulesWithItem(tab, dataset.Left, 0)); n != 1 {
		t.Fatalf("RulesWithItem left = %d", n)
	}
}

func TestTextTable(t *testing.T) {
	tt := NewTextTable("name", "value")
	tt.AddRow("alpha", 3.14159)
	tt.AddRow("b", 42)
	out := tt.String()
	if !strings.Contains(out, "3.14") || !strings.Contains(out, "42") {
		t.Fatalf("render missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// All lines aligned to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator not aligned with header")
	}
}

func TestWriteDot(t *testing.T) {
	d := sampleData(t)
	tab := &core.Table{Rules: []core.Rule{
		{X: itemset.New(0), Dir: core.Both, Y: itemset.New(0)},
		{X: itemset.New(1), Dir: core.Forward, Y: itemset.New(1)},
		{X: itemset.New(0), Dir: core.Backward, Y: itemset.New(1)},
	}}
	var b strings.Builder
	if err := WriteDot(&b, d, tab, "test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"graph \"test\"",
		"L0 [label=\"a\"]",
		"R1 [label=\"q\"]",
		// Bidirectional rule: both edges black.
		"L0 -- rule0 [color=black];",
		"rule0 -- R0 [color=black];",
		// Forward rule: away from left item (grey), toward right (black).
		"L1 -- rule1 [color=grey];",
		"rule1 -- R1 [color=black];",
		// Backward rule: toward left (black), away from right (grey).
		"L0 -- rule2 [color=black];",
		"rule2 -- R1 [color=grey];",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable1Smoke(t *testing.T) {
	var b strings.Builder
	if err := RunTable1(context.Background(), &b, 0.02); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"abalone", "elections", "L(D,∅)"} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("table 1 missing %q", name)
		}
	}
}

func TestRunTable2SmallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 (small) reproduction")
	}
	// Exhaustive exact search on scaled-down versions of the narrow
	// small-group datasets; wide datasets (wine: 68 items) make EXACT
	// slow exactly as in the paper and belong to cmd/experiments, not
	// unit tests.
	light := []synth.Profile{
		mustProfile("car"), mustProfile("tictactoe"), mustProfile("yeast"),
	}
	var b strings.Builder
	rows, err := RunTable2(context.Background(), &b, 0.05, true, light...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, row := range rows {
		if len(row.Methods) != 4 {
			t.Fatalf("%s: %d methods, want 4 (incl. exact)", row.Dataset, len(row.Methods))
		}
		for _, mc := range row.Methods {
			if mc.LPct <= 0 || mc.LPct > 200 {
				t.Fatalf("%s/%s: implausible L%% %v", row.Dataset, mc.Name, mc.LPct)
			}
		}
	}
}

func TestRunTable2LargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 (large) reproduction")
	}
	var b strings.Builder
	rows, err := RunTable2(context.Background(), &b, 0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	for _, row := range rows {
		if len(row.Methods) != 3 {
			t.Fatalf("%s: %d methods, want 3 (no exact)", row.Dataset, len(row.Methods))
		}
	}
}

func TestRunTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 reproduction")
	}
	p, err := synth.ProfileByName("house")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rows, err := RunTable3(context.Background(), &b, 0.2, []synth.Profile{p})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 methods", len(rows))
	}
	methods := map[string]Metrics{}
	for _, r := range rows {
		methods[r.Method] = r.Metrics
	}
	// The paper's headline: TRANSLATOR compresses better than the
	// baselines under the translation encoding.
	tr := methods["TRANSLATOR"]
	if tr.LPct >= 100 {
		t.Fatalf("TRANSLATOR did not compress: %v", tr.LPct)
	}
	for _, name := range []string{"SIGRULES", "REREMI", "KRIMP"} {
		if m, ok := methods[name]; !ok {
			t.Fatalf("method %s missing", name)
		} else if m.LPct < tr.LPct-1e-9 {
			t.Fatalf("%s beats TRANSLATOR on L%%: %v < %v", name, m.LPct, tr.LPct)
		}
	}
}

func TestRunFig2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 2 reproduction")
	}
	var b strings.Builder
	iters, err := RunFig2(context.Background(), &b, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("no iterations traced")
	}
	// |U| must be non-increasing, |E| non-decreasing, score decreasing.
	for i := 1; i < len(iters); i++ {
		if iters[i].UncoveredL > iters[i-1].UncoveredL || iters[i].UncoveredR > iters[i-1].UncoveredR {
			t.Fatal("|U| increased")
		}
		if iters[i].ErrorsL < iters[i-1].ErrorsL || iters[i].ErrorsR < iters[i-1].ErrorsR {
			t.Fatal("|E| decreased")
		}
		if iters[i].Score >= iters[i-1].Score {
			t.Fatal("score did not decrease")
		}
	}
}

func TestRunFig3Smoke(t *testing.T) {
	var b strings.Builder
	if err := RunFig3(context.Background(), &b, 0.1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "graph \"") != 6 {
		t.Fatalf("expected 6 DOT graphs, got %d", strings.Count(out, "graph \""))
	}
}

func TestRunExampleRulesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example-rule reproduction")
	}
	var b strings.Builder
	if err := RunExampleRules(context.Background(), &b, "house", 0.3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, m := range []string{"TRANSLATOR", "SIGRULES", "REREMI"} {
		if !strings.Contains(out, m) {
			t.Fatalf("missing method %s", m)
		}
	}
	if err := RunExampleRules(context.Background(), &b, "nope", 0.3); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// The runners mine at the profile's minimum support scaled with the
// data: at the unscaled one (773 on mammals' 257 rows at scale 0.1)
// TRANSLATOR finds no rule at all.
func TestRunExampleRulesScalesMinSupport(t *testing.T) {
	var b strings.Builder
	if err := RunExampleRules(context.Background(), &b, "mammals", 0.1); err != nil {
		t.Fatal(err)
	}
	_, tr, _ := strings.Cut(b.String(), "TRANSLATOR:")
	tr, _, _ = strings.Cut(tr, "SIGRULES:")
	if !strings.Contains(tr, "supp=") {
		t.Fatalf("no TRANSLATOR rule for mammals at scale 0.1:\n%s", b.String())
	}
}

func TestRunFig6And7Smoke(t *testing.T) {
	var b strings.Builder
	if err := RunFig6(context.Background(), &b, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := RunFig7(context.Background(), &b, 0.1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig. 7") {
		t.Fatal("fig 7 output missing")
	}
}

func TestRunRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery reproduction")
	}
	p, err := synth.ProfileByName("car")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunRecovery(context.Background(), &b, 0.2, []synth.Profile{p}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "car") {
		t.Fatal("recovery output missing dataset")
	}
}

func TestRunAblationSmoke(t *testing.T) {
	p, err := synth.ProfileByName("car")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunAblation(context.Background(), &b, 0.05, 1, []synth.Profile{p}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no bounds") {
		t.Fatal("ablation output incomplete")
	}
}

func TestRunExplosionSmoke(t *testing.T) {
	p, err := synth.ProfileByName("car")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunExplosion(context.Background(), &b, 0.1, []synth.Profile{p}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pattern explosion") || !strings.Contains(b.String(), "car") {
		t.Fatalf("explosion output incomplete:\n%s", b.String())
	}
}
