package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// handleFixture compiles two distinguishable single-rule translators
// over the same tiny vocabulary: epoch A maps l0 -> r0, epoch B maps
// l0 -> r1. A reader that ever sees a mix has observed a torn table.
func handleFixture(t testing.TB) (trA, trB *Translator, d *dataset.Dataset) {
	t.Helper()
	d = dataset.MustNew(dataset.GenericNames("l", 2), dataset.GenericNames("r", 2))
	mk := func(target int) *Translator {
		tab := &Table{Rules: []Rule{{
			X: itemset.Itemset{0}, Y: itemset.Itemset{target}, Dir: Forward,
		}}}
		tr, err := CompileTranslator(d, tab)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	return mk(0), mk(1), d
}

func TestTranslatorHandleSwapAndEpochs(t *testing.T) {
	trA, trB, _ := handleFixture(t)
	h := NewTranslatorHandle(trA)
	if tr, ep := h.Current(); tr != trA || ep != 1 {
		t.Fatalf("Current = (%p, %d), want (%p, 1)", tr, ep, trA)
	}
	e := h.Acquire()
	if e.Translator() != trA || e.Epoch() != 1 {
		t.Fatalf("Acquire = epoch %d on %p", e.Epoch(), e.Translator())
	}
	old := h.Swap(trB)
	if old.Epoch() != 1 {
		t.Fatalf("retired epoch = %d, want 1", old.Epoch())
	}
	if tr, ep := h.Current(); tr != trB || ep != 2 {
		t.Fatalf("after swap Current = (%p, %d), want (%p, 2)", tr, ep, trB)
	}
	// The old epoch is still referenced: Drain must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := old.Drain(ctx); err == nil {
		t.Fatal("Drain returned while a reference was held")
	}
	e.Release()
	if err := old.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	// Draining an already-drained epoch is immediate and nil even with
	// a cancelled context racing it.
	if err := old.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// The scripted interleavings below replay, step by explicit step, the
// orderings the hammer test can only hope to hit: each party's next
// move is sequenced by the test, so every run exercises exactly the
// claimed schedule.

// The Acquire retry window: a Swap lands between a reader's epoch load
// and its reference bump. The test performs Acquire's steps by hand
// around a real Swap, pinning the backout path — including the
// documented subtlety that the retired epoch's refcount touches zero
// twice (once when Swap drops the installation reference, once when
// the backed-out reader re-releases) without double-closing the drain.
func TestTranslatorHandleScriptedAcquireSwapBackout(t *testing.T) {
	trA, trB, _ := handleFixture(t)
	h := NewTranslatorHandle(trA)

	// Reader step 1: load the current epoch, but don't pin it yet.
	stale := h.cur.Load()

	// Writer: swap. The loaded epoch is retired with no references
	// outstanding, so it is already drained.
	old := h.Swap(trB)
	if old != stale {
		t.Fatal("script broken: swap retired a different epoch than the reader loaded")
	}
	if err := old.Drain(context.Background()); err != nil {
		t.Fatalf("reference-free retired epoch not drained: %v", err)
	}

	// Reader steps 2-3: bump the stale epoch, notice the swap, back
	// out — the body of Acquire's retry loop.
	stale.refs.Add(1)
	if h.cur.Load() == stale {
		t.Fatal("script broken: stale epoch is still current")
	}
	stale.Release()

	// The zero-crossing from the backout must be idempotent: still
	// drained, no panic, and a real Acquire lands on the new epoch.
	if err := old.Drain(context.Background()); err != nil {
		t.Fatalf("drain signal lost after backout: %v", err)
	}
	e := h.Acquire()
	defer e.Release()
	if e.Epoch() != 2 || e.Translator() != trB {
		t.Fatalf("post-backout Acquire = epoch %d, want 2 on the new table", e.Epoch())
	}
}

// Drain-while-Swap-while-Acquire, fully sequenced: a reader pins epoch
// 1; the writer swaps and blocks in Drain; readers churn on epoch 2
// (admission never stalls behind a drain, and their releases must not
// leak into epoch 1's count); a context-bounded Drain times out while
// the epoch is pinned; only the pinned reader's release unblocks the
// writer — who then still holds a fully readable epoch-1 view.
func TestTranslatorHandleScriptedDrainSwapAcquire(t *testing.T) {
	trA, trB, _ := handleFixture(t)
	h := NewTranslatorHandle(trA)

	reader := h.Acquire()
	old := h.Swap(trB)

	drained := make(chan error, 1)
	go func() { drained <- old.Drain(context.Background()) }()

	// Pinned epoch: the blocking Drain must not return, and a
	// deadline-bounded one must report the deadline, not success.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	if err := old.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("bounded Drain on a pinned epoch = %v, want deadline", err)
	}
	cancel()

	// Epoch-2 churn: admission proceeds, and returning epoch 2 to idle
	// must not satisfy epoch 1's drain.
	for i := 0; i < 3; i++ {
		e := h.Acquire()
		if e.Epoch() != 2 {
			t.Fatalf("churn Acquire = epoch %d, want 2", e.Epoch())
		}
		e.Release()
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while epoch 1 was pinned", err)
	case <-time.After(20 * time.Millisecond):
	}

	// The pinned reader's table must still be epoch 1's, in full.
	ids, err := reader.Translator().TranslateIDs(nil, dataset.Left, []int{0})
	if err != nil || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("pinned reader lost its epoch-1 view: ids=%v err=%v", ids, err)
	}

	reader.Release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain after the last release: %v", err)
	}
}

// The epoch chain out of order: drain waiters parked on the installed
// epoch survive reader churn and a double swap; a later retired epoch
// (empty) drains before an earlier one (pinned); the earlier epoch's
// waiters — both parked before and arriving after its swap — all
// unblock on its final release.
func TestTranslatorHandleScriptedEpochChain(t *testing.T) {
	trA, trB, _ := handleFixture(t)
	h := NewTranslatorHandle(trA)

	pin := h.Acquire()
	e1 := h.cur.Load()
	w1, w2 := make(chan error, 1), make(chan error, 1)
	go func() { w1 <- e1.Drain(context.Background()) }()
	go func() { w2 <- e1.Drain(context.Background()) }()

	// Churn on the installed epoch: refs returns to its idle value
	// (installation + pin), which must not look like a drain.
	for i := 0; i < 3; i++ {
		e := h.Acquire()
		e.Release()
	}
	select {
	case <-w1:
		t.Fatal("Drain of the installed epoch returned before any Swap")
	case <-w2:
		t.Fatal("Drain of the installed epoch returned before any Swap")
	case <-time.After(20 * time.Millisecond):
	}

	// Double swap: epoch 1 retires pinned, epoch 2 retires empty.
	old1 := h.Swap(trB)
	old2 := h.Swap(trA)
	if old1 != e1 || old1.Epoch() != 1 || old2.Epoch() != 2 {
		t.Fatalf("retired epochs %d, %d; want 1, 2", old1.Epoch(), old2.Epoch())
	}

	// Epoch 2 drains immediately — out of order with pinned epoch 1.
	if err := old2.Drain(context.Background()); err != nil {
		t.Fatalf("empty retired epoch 2 did not drain: %v", err)
	}
	select {
	case <-w1:
		t.Fatal("epoch 1 drained while pinned")
	case <-w2:
		t.Fatal("epoch 1 drained while pinned")
	default:
	}

	// A third waiter arrives after the swaps; the release wakes all.
	w3 := make(chan error, 1)
	go func() { w3 <- old1.Drain(context.Background()) }()
	pin.Release()
	for i, w := range []chan error{w1, w2, w3} {
		if err := <-w; err != nil {
			t.Fatalf("waiter %d: %v", i+1, err)
		}
	}
	if _, ep := h.Current(); ep != 3 {
		t.Fatalf("final epoch = %d, want 3", ep)
	}
}

// Hammer the handle with concurrent readers while a writer swaps
// between two tables, asserting (a) every read is internally
// consistent — a request's translation matches the epoch it pinned,
// never a mix — and (b) every retired epoch drains. Readers yield after
// each release: with more readers than CPUs, spinning readers would
// otherwise starve the swapper until forced preemption, one time slice
// per Drain. The swapper in turn waits for a new read before each swap,
// so the readers cannot be starved either, and the read floor checks
// that they really ran.
func TestTranslatorHandleConcurrentSwapNoTornReads(t *testing.T) {
	trA, trB, _ := handleFixture(t)
	h := NewTranslatorHandle(trA)
	stop := make(chan struct{})
	var torn, reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := h.Acquire()
				ids, err := e.Translator().TranslateIDs(nil, dataset.Left, []int{0})
				if err != nil || len(ids) != 1 {
					torn.Add(1)
				} else {
					want := 0
					if e.Translator() == trB {
						want = 1
					}
					if ids[0] != want {
						torn.Add(1)
					}
				}
				e.Release()
				reads.Add(1)
				runtime.Gosched()
			}
		}()
	}
	cur := trA
	for i := 0; i < 200; i++ {
		for seen := reads.Load(); reads.Load() == seen; {
			runtime.Gosched()
		}
		if cur == trA {
			cur = trB
		} else {
			cur = trA
		}
		old := h.Swap(cur)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := old.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("swap %d: old epoch did not drain: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn/inconsistent reads", n)
	}
	// No read was torn, so every counted read succeeded.
	if n := reads.Load(); n < 200 {
		t.Fatalf("only %d successful reads across 200 swaps", n)
	}
	if _, ep := h.Current(); ep != 201 {
		t.Fatalf("final epoch = %d, want 201", ep)
	}
}
