package reremi_test

import (
	"math"
	"testing"

	"twoview/internal/baseline/reremi"
	"twoview/internal/core"
	"twoview/internal/eval"
)

// Redescriptions become bidirectional rules that score under the
// paper's encoding, and the perfect planted one has c+ = 1. The test
// lives outside the package because internal/eval, which holds c+,
// imports reremi.
func TestToTableAndMaxConfidence(t *testing.T) {
	d := reremi.RedescData(t)
	rds := reremi.Mine(d, reremi.Options{MinJaccard: 0.5})
	tab := reremi.ToTable(rds)
	if tab.Size() != len(rds) {
		t.Fatal("ToTable lost redescriptions")
	}
	for _, r := range tab.Rules {
		if r.Dir != core.Both {
			t.Fatal("redescription rules must be bidirectional")
		}
	}
	if err := tab.Validate(d); err != nil {
		t.Fatal(err)
	}
	if c := eval.MaxConfidence(d, tab.Rules[0]); math.Abs(c-1) > 1e-12 {
		t.Fatalf("c+ of the planted redescription = %v, want 1", c)
	}
}
