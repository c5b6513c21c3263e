package synth

import (
	"context"
	"math"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

func TestGenerateDimensions(t *testing.T) {
	p := Profile{Name: "t", Size: 300, ItemsL: 20, ItemsR: 15,
		DensityL: 0.2, DensityR: 0.3, BidirRules: 2, UniRules: 2, Seed: 1}
	d, rules, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 300 || d.Items(dataset.Left) != 20 || d.Items(dataset.Right) != 15 {
		t.Fatalf("dims = %d, %d, %d", d.Size(), d.Items(dataset.Left), d.Items(dataset.Right))
	}
	if len(rules) != 4 {
		t.Fatalf("planted %d rules, want 4", len(rules))
	}
	nBidir := 0
	for _, r := range rules {
		if err := r.Validate(d); err != nil {
			t.Fatalf("ground-truth rule invalid: %v", err)
		}
		if r.Dir == core.Both {
			nBidir++
		}
	}
	if nBidir != 2 {
		t.Fatalf("%d bidirectional rules, want 2", nBidir)
	}
}

func TestGenerateDensityCalibration(t *testing.T) {
	p := Profile{Name: "t", Size: 4000, ItemsL: 30, ItemsR: 25,
		DensityL: 0.18, DensityR: 0.12, BidirRules: 3, UniRules: 3, Seed: 2}
	d, _, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Density(dataset.Left); math.Abs(got-0.18) > 0.02 {
		t.Fatalf("dL = %v, want ≈ 0.18", got)
	}
	if got := d.Density(dataset.Right); math.Abs(got-0.12) > 0.02 {
		t.Fatalf("dR = %v, want ≈ 0.12", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Name: "t", Size: 200, ItemsL: 12, ItemsR: 12,
		DensityL: 0.2, DensityR: 0.2, BidirRules: 2, UniRules: 1, Seed: 3}
	d1, r1, _ := Generate(p)
	d2, r2, _ := Generate(p)
	if d1.Size() != d2.Size() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < d1.Size(); i++ {
		if !d1.Row(dataset.Left, i).Equal(d2.Row(dataset.Left, i)) ||
			!d1.Row(dataset.Right, i).Equal(d2.Row(dataset.Right, i)) {
			t.Fatal("rows differ between identical seeds")
		}
	}
	for i := range r1 {
		if r1[i].Compare(r2[i]) != 0 {
			t.Fatal("ground truth differs")
		}
	}
	p.Seed = 4
	d3, _, _ := Generate(p)
	same := true
	for i := 0; i < d1.Size() && same; i++ {
		same = d1.Row(dataset.Left, i).Equal(d3.Row(dataset.Left, i))
	}
	if same {
		t.Fatal("different seeds gave identical data")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, _, err := Generate(Profile{Name: "bad"}); err == nil {
		t.Fatal("empty profile accepted")
	}
	p := Profile{Name: "bad", Size: 10, ItemsL: 2, ItemsR: 2,
		RuleItemsMin: 3, RuleItemsMax: 3, BidirRules: 1}
	if _, _, err := Generate(p); err == nil {
		t.Fatal("oversized rule items accepted")
	}
}

func TestPlantedStructureIsDiscoverable(t *testing.T) {
	// The planted bidirectional rule must be strongly associated: its
	// sides co-occur far above independence.
	p := Profile{Name: "t", Size: 2000, ItemsL: 15, ItemsR: 15,
		DensityL: 0.15, DensityR: 0.15, BidirRules: 1, UniRules: 0,
		CoverageMin: 0.3, CoverageMax: 0.3, Seed: 5}
	d, rules, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rules[0]
	joint := float64(d.JointSupportSet(r.X, r.Y).Count()) / float64(d.Size())
	pX := float64(d.Support(dataset.Left, r.X)) / float64(d.Size())
	pY := float64(d.Support(dataset.Right, r.Y)) / float64(d.Size())
	if joint < 3*pX*pY {
		t.Fatalf("planted rule too weak: joint=%v pX*pY=%v", joint, pX*pY)
	}
	if joint < 0.15 {
		t.Fatalf("planted coverage lost: %v", joint)
	}
}

func TestUniRuleIsAsymmetric(t *testing.T) {
	p := Profile{Name: "t", Size: 3000, ItemsL: 12, ItemsR: 12,
		DensityL: 0.1, DensityR: 0.1, BidirRules: 0, UniRules: 1,
		CoverageMin: 0.25, CoverageMax: 0.25, Seed: 6, Dropout: 0.01}
	d, rules, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rules[0]
	joint := float64(d.JointSupportSet(r.X, r.Y).Count())
	confF := joint / float64(d.Support(dataset.Left, r.X))
	confB := joint / float64(d.Support(dataset.Right, r.Y))
	if confF < 0.7 {
		t.Fatalf("forward confidence too low: %v", confF)
	}
	if confB > confF-0.1 {
		t.Fatalf("association not asymmetric: fwd=%v bwd=%v", confF, confB)
	}
}

func TestProfilesMatchTable1(t *testing.T) {
	want := map[string][3]int{ // |D|, |I_L|, |I_R|
		"abalone": {4177, 27, 31}, "adult": {48842, 44, 53},
		"cal500": {502, 78, 97}, "car": {1728, 15, 10},
		"chesskrvk": {28056, 24, 34}, "crime": {2215, 244, 294},
		"elections": {1846, 82, 867}, "emotions": {593, 430, 12},
		"house": {435, 26, 24}, "mammals": {2575, 95, 94},
		"nursery": {12960, 19, 13}, "tictactoe": {958, 15, 14},
		"wine": {178, 35, 33}, "yeast": {1484, 24, 26},
	}
	ps := Profiles()
	if len(ps) != len(want) {
		t.Fatalf("%d profiles, want %d", len(ps), len(want))
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected profile %q", p.Name)
		}
		if p.Size != w[0] || p.ItemsL != w[1] || p.ItemsR != w[2] {
			t.Fatalf("%s: dims (%d,%d,%d), want %v", p.Name, p.Size, p.ItemsL, p.ItemsR, w)
		}
	}
	if len(SmallProfiles()) != 7 || len(LargeProfiles()) != 7 {
		t.Fatal("small/large split wrong")
	}
	if _, err := ProfileByName("house"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestScaled(t *testing.T) {
	p, _ := ProfileByName("adult")
	s := p.Scaled(0.1)
	if s.Size != 4884 {
		t.Fatalf("scaled size = %d", s.Size)
	}
	if s.MinSupport != 488 {
		t.Fatalf("scaled minsup = %d", s.MinSupport)
	}
	tiny := p.Scaled(0.00001)
	if tiny.Size < 10 || tiny.MinSupport < 1 {
		t.Fatal("scaling floor violated")
	}
}

// The headline sanity check: a generated small dataset must be
// compressible by TRANSLATOR and the planted rules recoverable to a
// reasonable degree (item-level overlap between mined and planted rules).
func TestMinedTablesRecoverPlantedStructure(t *testing.T) {
	p := Profile{Name: "t", Size: 600, ItemsL: 12, ItemsR: 12,
		DensityL: 0.15, DensityR: 0.15, BidirRules: 3, UniRules: 2,
		Seed: 7}
	d, planted, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := core.MineCandidates(context.Background(), d, 5, 0, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lPct, _ := res.Totals.Ratios(d, res.Table); lPct >= 100 {
		t.Fatalf("no compression on planted data: L%%=%v", lPct)
	}
	// Each planted bidirectional rule should overlap some mined rule on
	// both sides.
	recovered := 0
	for _, pr := range planted {
		for _, mr := range res.Table.Rules {
			if pr.X.Intersects(mr.X) && pr.Y.Intersects(mr.Y) {
				recovered++
				break
			}
		}
	}
	if recovered < len(planted)*2/3 {
		t.Fatalf("only %d/%d planted rules overlapped by mined rules", recovered, len(planted))
	}
}

// BenchmarkGenerate generates the datasets of perfbench's mine-dense
// (chesskrvk) and serve (adult) workloads at scale 1.0.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"chesskrvk", "adult"} {
		p, err := ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Generate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
