package core_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"twoview/internal/core"
)

// workBudgetFile holds, per TestWorkBudget case, the most work each
// count may take.
const workBudgetFile = "testdata/work.json"

// workCases are the runs TestWorkBudget gates: SELECT(1), SELECT(25)
// (algo select25, whose τ is the 25th best gain), GREEDY and EXACT
// (capped at workExactRules) on small internal/synth profiles at one
// worker, where every Work count is an exact function of the input.
// minsup is the candidate support of SELECT and GREEDY.
var workCases = []struct {
	algo, profile string
	scale         float64
	minsup        int
}{
	{"select", "tictactoe", 0.5, 10},
	{"select", "chesskrvk", 0.1, 40},
	{"select25", "chesskrvk", 0.1, 40},
	{"greedy", "tictactoe", 0.5, 10},
	{"greedy", "chesskrvk", 0.1, 40},
	{"exact", "tictactoe", 0.15, 0},
	{"exact", "car", 0.15, 0},
}

const workExactRules = 3

// mineWork runs one work case and returns its counts.
func mineWork(t *testing.T, algo, profile string, scale float64, minsup int) core.Work {
	t.Helper()
	ctx, par := context.Background(), core.Parallel(1)
	var res *core.Result
	var err error
	if algo == "exact" {
		d := synthDataset(t, profile, scale)
		res, err = core.MineExact(ctx, d, core.ExactOptions{MaxRules: workExactRules, ParallelOptions: par})
	} else {
		d, cands := synthCandidates(t, profile, scale, minsup, 1)
		switch algo {
		case "select":
			res, err = core.MineSelect(ctx, d, cands, core.SelectOptions{K: 1, ParallelOptions: par})
		case "select25":
			res, err = core.MineSelect(ctx, d, cands, core.SelectOptions{K: 25, ParallelOptions: par})
		default:
			res, err = core.MineGreedy(ctx, d, cands, core.GreedyOptions{ParallelOptions: par})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Work
}

// TestWorkBudget is the repository's performance gate. It mines each
// work case at one worker and fails if any Work count exceeds its
// budget in testdata/work.json, printing the observed counts as JSON.
// The counts are exact integers, so the gate has no noise: a change
// that makes a miner do more work fails it. A change that lowers the
// work lowers the budgets to the printed counts in the same change; one
// that raises a budget says why.
func TestWorkBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("counts work at one worker; runs in the full suite and CI's Work gate step")
	}
	raw, err := os.ReadFile(workBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	var budgets map[string]core.Work
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatalf("%s: %v", workBudgetFile, err)
	}
	observed := make(map[string]core.Work, len(workCases))
	for _, tc := range workCases {
		name := tc.algo + "/" + tc.profile
		got := mineWork(t, tc.algo, tc.profile, tc.scale, tc.minsup)
		observed[name] = got
		budget, ok := budgets[name]
		if !ok {
			t.Errorf("%s: no budget in %s", name, workBudgetFile)
			continue
		}
		g, b := reflect.ValueOf(got), reflect.ValueOf(budget)
		for i := 0; i < g.NumField(); i++ {
			field := g.Type().Field(i).Name
			switch gv, bv := g.Field(i).Int(), b.Field(i).Int(); {
			case gv > bv:
				t.Errorf("%s: %s = %d, over its budget of %d", name, field, gv, bv)
			case gv < bv:
				t.Logf("%s: %s = %d, under its budget of %d", name, field, gv, bv)
			}
		}
	}
	for name := range budgets {
		if _, ok := observed[name]; !ok {
			t.Errorf("%s: budget in %s for no work case", name, workBudgetFile)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(observed, "", "  ")
		t.Errorf("observed work (budgets in %s):\n%s", workBudgetFile, out)
	}
}
