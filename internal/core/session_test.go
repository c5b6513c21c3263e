package core

import (
	"context"
	"runtime"
	"testing"
)

// A whole mining session on one private Session must produce the same
// results as the shared default runtime, for any worker count, and the
// Session must survive candidate mining plus all three miners
// back-to-back (many phases on the same parked workers).
func TestSessionEndToEnd(t *testing.T) {
	d := plantedDataset(t, 31)
	ref, err := MineCandidates(context.Background(), d, 1, 0, Parallel(1))
	if err != nil {
		t.Fatal(err)
	}
	refSel := mustSelect(t, d, ref, SelectOptions{K: 25, ParallelOptions: Parallel(1)})
	refGr := mustGreedy(t, d, ref, GreedyOptions{ParallelOptions: Parallel(1)})
	refEx := mustExact(t, d, ExactOptions{MaxRules: 3, ParallelOptions: Parallel(1)})

	for _, workers := range []int{1, 2, 4, 7} {
		sess := NewSession()
		par := ParallelOptions{Workers: workers, Session: sess}

		cands, err := MineCandidates(context.Background(), d, 1, 0, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != len(ref) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(cands), len(ref))
		}
		for i := range ref {
			if !cands[i].X.Equal(ref[i].X) || !cands[i].Y.Equal(ref[i].Y) ||
				cands[i].Supp != ref[i].Supp ||
				!cands[i].TidX.Equal(ref[i].TidX) || !cands[i].TidY.Equal(ref[i].TidY) {
				t.Fatalf("workers=%d: candidate %d differs", workers, i)
			}
		}

		sel := mustSelect(t, d, cands, SelectOptions{K: 25, ParallelOptions: par})
		gr := mustGreedy(t, d, cands, GreedyOptions{ParallelOptions: par})
		ex := mustExact(t, d, ExactOptions{MaxRules: 3, ParallelOptions: par})
		sess.Close()

		for _, cmp := range []struct {
			name      string
			got, want *Result
		}{
			{"select", sel, refSel}, {"greedy", gr, refGr}, {"exact", ex, refEx},
		} {
			if cmp.got.Table.Size() != cmp.want.Table.Size() {
				t.Fatalf("workers=%d %s: %d rules, want %d",
					workers, cmp.name, cmp.got.Table.Size(), cmp.want.Table.Size())
			}
			for i := range cmp.want.Table.Rules {
				if cmp.got.Table.Rules[i].Compare(cmp.want.Table.Rules[i]) != 0 {
					t.Fatalf("workers=%d %s: rule %d differs", workers, cmp.name, i)
				}
			}
			if cmp.got.State.Score() != cmp.want.State.Score() {
				t.Fatalf("workers=%d %s: score differs", workers, cmp.name)
			}
		}
	}
}

// Close on a nil Session is a no-op, and nil Sessions fall back to the
// shared runtime.
func TestSessionNil(t *testing.T) {
	var s *Session
	s.Close()
	if s.runtime() == nil {
		t.Fatal("nil session must resolve to the default runtime")
	}
}

// A session's scratch comes back as the same buffers whatever the
// garbage collector did in between, so whether SELECT and GREEDY reuse
// their buffers does not depend on where collections fall.
func TestSessionScratchSurvivesGC(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	par := ParallelOptions{Session: sess}
	sc := par.getScratch()
	par.putScratch(sc)
	runtime.GC()
	runtime.GC()
	if got := par.getScratch(); got != sc {
		t.Fatal("the session's scratch was dropped by a garbage collection")
	}
}
