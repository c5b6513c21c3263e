//go:build faultinject

package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"twoview/internal/dataset"
	"twoview/internal/fault"
)

// Chaos coverage for the mining/serving core under -tags faultinject:
// scripted failpoints (internal/fault) strike inside pool tasks and the
// streaming reader, and the recovery contract is that sessions, pools
// and translators stay fully usable — and bit-identical to undisturbed
// runs — once the fault passes.

// A panic injected into a pool *task* (not the submitter) re-raises at
// the mining call; the Session must survive and the very next mine on
// it must match a fresh session's table bit for bit.
func TestChaosSessionReuseAfterInjectedTaskPanic(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 91)
	ref := mustExact(t, d, ExactOptions{ParallelOptions: Parallel(4)})

	sess := NewSession()
	defer sess.Close()
	par := ParallelOptions{Workers: 4, Session: sess}

	fault.Set("pool.task", fault.Action{Skip: 5, Panic: "chaos: poisoned task"})
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		_, _ = MineExact(context.Background(), d, ExactOptions{ParallelOptions: par})
	}()
	if !panicked {
		t.Fatal("injected task panic did not reach the submitter")
	}
	fault.Reset()

	// Same session, clean schedule: the mine must run to completion and
	// reproduce the reference table exactly.
	res := mustExact(t, d, ExactOptions{ParallelOptions: par})
	if res.Table.Size() != ref.Table.Size() {
		t.Fatalf("table size after panic recovery: %d, want %d", res.Table.Size(), ref.Table.Size())
	}
	for i := range res.Table.Rules {
		if res.Table.Rules[i].Compare(ref.Table.Rules[i]) != 0 {
			t.Fatalf("rule %d differs after panic recovery: %v != %v",
				i, res.Table.Rules[i], ref.Table.Rules[i])
		}
	}
}

// A transient reader error mid-stream fails ApplyStream cleanly with
// the injected error in the chain; a clean retry over the same bytes
// reproduces the in-memory Apply report exactly.
func TestChaosApplyStreamReaderFault(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 92)
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	res := mustSelect(t, d, cands, SelectOptions{K: 10, ParallelOptions: Parallel(1)})
	tr, err := CompileTranslator(d, res.Table)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	transient := errors.New("chaos: storage hiccup")
	fault.Set("dataset.rowreader.next", fault.Action{Skip: 10, Err: transient})
	if _, err := tr.ApplyStream(context.Background(), strings.NewReader(text), dataset.Left); !errors.Is(err, transient) {
		t.Fatalf("ApplyStream under reader fault = %v, want wrapped %v", err, transient)
	}
	fault.Reset()

	want, err := tr.Apply(context.Background(), d, dataset.Left)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.ApplyStream(context.Background(), strings.NewReader(text), dataset.Left)
	if err != nil {
		t.Fatalf("clean retry after transient fault: %v", err)
	}
	if got != want {
		t.Fatalf("retry report %+v != in-memory report %+v", got, want)
	}
}
