package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/wire"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the session logs every boot and rejection
	m.Run()
}

// testRun is a coordinator's side of one run: the dataset and candidate
// list, their transfer blobs, and the HELLO announcing partition part
// over the whole alphabets.
type testRun struct {
	d                *dataset.Dataset
	cands            []core.Candidate
	dsBlob, candBlob []byte
}

func newTestRun(t *testing.T) *testRun {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	d := dataset.MustNew(dataset.GenericNames("l", 6), dataset.GenericNames("r", 5))
	for i := 0; i < 60; i++ {
		var left, right []int
		if i < 40 {
			left, right = append(left, 0, 1), append(right, 0)
		}
		for j := 2; j < 5; j++ {
			if r.Intn(4) == 0 {
				left = append(left, j)
			}
			if r.Intn(4) == 0 {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	cands, err := core.MineCandidates(context.Background(), d, 3, 0, core.ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 8 {
		t.Fatalf("only %d candidates; the test needs a multi-task phase", len(cands))
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return &testRun{d: d, cands: cands, dsBlob: buf.Bytes(), candBlob: wire.AppendCandidates(nil, cands)}
}

func (r *testRun) hello(part int32, term uint64, workers int32) *wire.Hello {
	return &wire.Hello{
		Part: part, Term: term,
		HiL: int32(r.d.Items(dataset.Left)), HiR: int32(r.d.Items(dataset.Right)),
		Workers:     workers,
		DatasetHash: wire.HashBytes(r.dsBlob),
		CandsHash:   wire.HashBytes(r.candBlob),
	}
}

// coordinator drives one worker session over an in-memory pipe.
type coordinator struct {
	t      *testing.T
	conn   net.Conn
	rbuf   []byte
	wbuf   []byte
	closed chan struct{} // closed when the worker's serve returns
}

func dial(t *testing.T, w *worker) *coordinator {
	cli, srv := net.Pipe()
	c := &coordinator{t: t, conn: cli, closed: make(chan struct{})}
	go func() {
		defer close(c.closed)
		w.serve(context.Background(), srv)
	}()
	t.Cleanup(func() {
		cli.Close()
		<-c.closed
	})
	return c
}

func (c *coordinator) send(m wire.Msg) {
	c.t.Helper()
	var err error
	if c.wbuf, err = wire.WriteMsg(c.conn, c.wbuf, m); err != nil {
		c.t.Fatalf("sending %T: %v", m, err)
	}
}

func (c *coordinator) recv() wire.Msg {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, buf, err := wire.ReadMsg(c.conn, c.rbuf)
	c.rbuf = buf
	if err != nil {
		c.t.Fatalf("reading: %v", err)
	}
	return m
}

func (c *coordinator) ack(part int32, term uint64) *wire.HelloAck {
	c.t.Helper()
	ack, ok := c.recv().(*wire.HelloAck)
	if !ok || ack.Part != part || ack.Term != term {
		c.t.Fatalf("want the HelloAck of (%d, %d), got %#v", part, term, ack)
	}
	return ack
}

// score sends a SCORE over idx and returns the Reply.
func (c *coordinator) score(part int32, term, seq uint64, idx []int32) *wire.Reply {
	c.t.Helper()
	c.send(&wire.Score{Part: part, Term: term, Seq: seq, Lease: time.Minute, CandIdx: idx})
	rep, ok := c.recv().(*wire.Reply)
	if !ok || rep.Part != part || rep.Term != term || rep.Seq != seq || len(rep.Counts) != len(idx) {
		c.t.Fatalf("want a Reply to SCORE (%d, %d, %d) over %d candidates, got %#v", part, term, seq, len(idx), rep)
	}
	return rep
}

func allIdx(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// TestSessionBootsScoresAndCaches drives a session the way a
// coordinator does: a HELLO for unseen content asks for both blobs,
// the booted incarnation's reply equals an in-process PartialState's
// counts, and a later HELLO for the same content — another partition,
// or the same incarnation re-announced — is a cache hit.
func TestSessionBootsScoresAndCaches(t *testing.T) {
	r := newTestRun(t)
	w := newWorker("", 2)
	defer w.rt.Close()
	c := dial(t, w)

	h := r.hello(0, 1, 2)
	c.send(h)
	if ack := c.ack(0, 1); ack.Need != wire.NeedDataset|wire.NeedCands {
		t.Fatalf("first HELLO: Need %b, want dataset|cands", ack.Need)
	}
	c.send(&wire.Blob{Role: wire.NeedDataset, Hash: h.DatasetHash, Data: r.dsBlob})
	c.send(&wire.Blob{Role: wire.NeedCands, Hash: h.CandsHash, Data: r.candBlob})

	idx := allIdx(len(r.cands))
	rep := c.score(0, 1, 1, idx)
	ps := core.NewPartialState(r.d, 0, r.d.Items(dataset.Left), 0, r.d.Items(dataset.Right))
	for k, ci := range idx {
		cd := &r.cands[ci]
		want := ps.ScoreRule(cd.X, cd.Y, cd.TidX, cd.TidY, nil)
		if !slices.Equal(rep.Counts[k].Fwd, want.Fwd) || !slices.Equal(rep.Counts[k].Back, want.Back) {
			t.Fatalf("candidate %d: worker counts %+v, in-process %+v", ci, rep.Counts[k], want)
		}
	}

	c.send(r.hello(1, 1, 2))
	if ack := c.ack(1, 1); ack.Need != 0 {
		t.Fatalf("HELLO for cached content: Need %b, want 0", ack.Need)
	}
	c.send(h)
	if ack := c.ack(0, 1); ack.Need != 0 {
		t.Fatalf("re-announced incarnation: Need %b, want 0", ack.Need)
	}
	// The re-announcement kept the live incarnation: it still answers.
	c.score(0, 1, 2, idx[:1])
}

// TestSessionEndsOnCorruptBlob pins the poison rule: a blob whose
// content does not hash to its name ends the session.
func TestSessionEndsOnCorruptBlob(t *testing.T) {
	r := newTestRun(t)
	w := newWorker("", 1)
	defer w.rt.Close()
	c := dial(t, w)

	h := r.hello(0, 1, 1)
	c.send(h)
	c.ack(0, 1)
	c.send(&wire.Blob{Role: wire.NeedDataset, Hash: h.DatasetHash, Data: append([]byte("#"), r.dsBlob...)})
	select {
	case <-c.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("session survived a blob that does not match its hash")
	}
	if _, _, err := wire.ReadMsg(c.conn, nil); err == nil {
		t.Fatal("connection still readable after the session ended")
	}
}

// TestSessionCrashesOnForeignCandidates pins the candidate check: a
// candidates blob naming an item past the dataset's alphabets crashes
// the incarnation it would boot, and the session lives on.
func TestSessionCrashesOnForeignCandidates(t *testing.T) {
	r := newTestRun(t)
	r.candBlob = wire.AppendCandidates(nil, []core.Candidate{{X: itemset.New(0), Y: itemset.New(r.d.Items(dataset.Right))}})
	w := newWorker("", 1)
	defer w.rt.Close()
	c := dial(t, w)

	h := r.hello(0, 1, 1)
	c.send(h)
	c.ack(0, 1)
	c.send(&wire.Blob{Role: wire.NeedDataset, Hash: h.DatasetHash, Data: r.dsBlob})
	c.send(&wire.Blob{Role: wire.NeedCands, Hash: h.CandsHash, Data: r.candBlob})
	if cr, ok := c.recv().(*wire.Crash); !ok || *cr != (wire.Crash{Part: 0, Term: 1}) {
		t.Fatalf("want Crash{0, 1} for a candidate outside the alphabets, got %#v", cr)
	}
	c.send(r.hello(1, 1, 1))
	if ack := c.ack(1, 1); ack.Need != 0 {
		t.Fatalf("after the crash: Need %b, want a cache hit", ack.Need)
	}
}

// TestWorkersCap pins the -workers ceiling: 0 and anything above
// GOMAXPROCS mean GOMAXPROCS, and a HELLO asking for more workers than
// the cap gets the cap. A pool's helpers stay parked on the runtime
// after their phase, so an uncapped request would leave one goroutine
// per requested worker behind.
func TestWorkersCap(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ flag, want int }{{0, n}, {-3, n}, {n + 1000, n}, {1, 1}} {
		if got := newWorker("", c.flag).workers; got != c.want {
			t.Errorf("-workers %d: cap %d, want %d", c.flag, got, c.want)
		}
	}

	r := newTestRun(t)
	w := newWorker("", 1)
	defer w.rt.Close()
	c := dial(t, w)
	h := r.hello(0, 1, 1<<20)
	c.send(h)
	c.ack(0, 1)
	c.send(&wire.Blob{Role: wire.NeedDataset, Hash: h.DatasetHash, Data: r.dsBlob})
	c.send(&wire.Blob{Role: wire.NeedCands, Hash: h.CandsHash, Data: r.candBlob})
	c.score(0, 1, 1, []int32{0}) // one task: no helper, whatever the cap
	before := runtime.NumGoroutine()
	c.score(0, 1, 2, allIdx(len(r.cands)))
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("a HELLO asking for %d workers left %d helper goroutines behind at -workers 1", h.Workers, after-before)
	}
}
