//go:build goexperiment.synctest

package core

import (
	"bytes"
	"context"
	"testing"
	"testing/synctest"
)

// Candidate mining, SELECT and GREEDY at 2 workers inside a
// testing/synctest bubble: every pool phase they run starts and ends
// its own helpers, so synctest.Run returns instead of reporting a
// deadlock, and the tables equal a run outside the bubble byte for
// byte. Built only with the synctest experiment, as in CI's Synctest
// step.
func TestSynctestMinersInBubble(t *testing.T) {
	d := plantedDataset(t, 31)
	mine := func() (sel, gr *Result, err error) {
		par := Parallel(2)
		cands, err := MineCandidates(context.Background(), d, 1, 0, par)
		if err != nil {
			return nil, nil, err
		}
		if sel, err = MineSelect(context.Background(), d, cands, SelectOptions{K: 1, ParallelOptions: par}); err != nil {
			return nil, nil, err
		}
		gr, err = MineGreedy(context.Background(), d, cands, GreedyOptions{ParallelOptions: par})
		return sel, gr, err
	}
	// The bubble runs first, so any goroutine the pool kept between
	// phases would be the bubble's and deadlock it.
	var gotSel, gotGr *Result
	var err error
	synctest.Run(func() { gotSel, gotGr, err = mine() })
	if err != nil {
		t.Fatal(err)
	}
	wantSel, wantGr, err := mine()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *Result
	}{{"select", gotSel, wantSel}, {"greedy", gotGr, wantGr}} {
		var got, want bytes.Buffer
		if err := WriteTable(&got, d, c.got.Table); err != nil {
			t.Fatal(err)
		}
		if err := WriteTable(&want, d, c.want.Table); err != nil {
			t.Fatal(err)
		}
		if c.want.Table.Size() == 0 {
			t.Fatalf("%s: empty table, the comparison shows nothing", c.name)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || !sameTotals(c.got.Totals, c.want.Totals) {
			t.Fatalf("%s: the table mined in the bubble differs:\n%s\nwant:\n%s", c.name, got.Bytes(), want.Bytes())
		}
	}
}
