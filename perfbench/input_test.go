package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"twoview/internal/dataset"
	"twoview/internal/synth"
)

func TestPermuteIsSeededAndKeepsTheData(t *testing.T) {
	p, err := synth.ProfileByName("car")
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := permute(base, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := permute(base, 1, false)
	other, _ := permute(base, 2, false)
	if !sameRows(a, again) {
		t.Errorf("the same seed gave different inputs")
	}
	if sameRows(a, other) {
		t.Errorf("different seeds gave the same input")
	}
	// A permutation keeps the size, the densities and the multiset of
	// item supports of each view.
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		if a.Ones(v) != base.Ones(v) {
			t.Errorf("view %v: %d ones, want %d", v, a.Ones(v), base.Ones(v))
		}
		if !slices.Equal(supports(a, v), supports(base, v)) {
			t.Errorf("view %v: item supports changed", v)
		}
	}
}

func sameRows(a, b *dataset.Dataset) bool {
	if a.Size() != b.Size() {
		return false
	}
	for t := 0; t < a.Size(); t++ {
		if !a.Row(dataset.Left, t).Equal(b.Row(dataset.Left, t)) || !a.Row(dataset.Right, t).Equal(b.Row(dataset.Right, t)) {
			return false
		}
	}
	return true
}

func supports(d *dataset.Dataset, v dataset.View) []int {
	var s []int
	for i := 0; i < d.Items(v); i++ {
		s = append(s, d.ItemSupport(v, i))
	}
	slices.Sort(s)
	return s
}

// TestBenchmarkJSONMatchesTheProgram keeps the metric declarations and
// workload names of BENCHMARK.json and of this program in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []decl, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(cfg.Workloads), len(specs))
	}
	for _, w := range cfg.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %s is not defined by the program", w.Name)
		}
	}
}
