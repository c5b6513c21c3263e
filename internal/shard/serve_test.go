package shard

import (
	"context"
	"runtime"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/itemset"
	"twoview/internal/pool"
	"twoview/internal/wire"
)

// TestServeRejectsInvalidMessages feeds Serve every kind of coordinator
// message whose fields do not fit the dataset or candidate list. Each
// must retire the incarnation with exactly one Crash for its
// (part, term) and return, with no panic escaping. A bad HELLO must be
// refused before it sizes anything: a HiL of 1<<22 costs 4 bytes on
// the wire but, unchecked, ~400 MB of columns on an 80-row dataset.
func TestServeRejectsInvalidMessages(t *testing.T) {
	d := plantedDataset(t, 53)
	cands := mustCandidates(t, d)
	rt := pool.NewRuntime()
	defer rt.Close()

	const part, term = 1, 3
	hello := func(edit func(*wire.Hello)) *wire.Hello {
		h := &wire.Hello{Part: part, Term: term, LoL: 0, HiL: 6, LoR: 2, HiR: 6, Workers: 2}
		if edit != nil {
			edit(h)
		}
		return h
	}
	outsideR := core.Rule{X: itemset.New(0), Y: itemset.New(1, 6), Dir: core.Forward}
	score := func(idx []int32, dirty *[2]itemset.Itemset) *wire.Score {
		return &wire.Score{Part: part, Term: term, Seq: 1, Lease: time.Minute, CandIdx: idx, Dirty: dirty}
	}
	apply := func(r core.Rule) *wire.Apply {
		return &wire.Apply{Part: part, Term: term, Seq: 1, Lease: time.Minute, Rule: r}
	}

	cases := []struct {
		name  string
		hello *wire.Hello
		req   wire.Msg
	}{
		{"HELLO HiL far past I_L", hello(func(h *wire.Hello) { h.HiL = 1 << 22 }), nil},
		{"HELLO HiR past I_R", hello(func(h *wire.Hello) { h.HiR = 7 }), nil},
		{"HELLO LoL past HiL", hello(func(h *wire.Hello) { h.LoL = 5; h.HiL = 4 }), nil},
		{"HELLO negative LoR", hello(func(h *wire.Hello) { h.LoR = -1 }), nil},
		{"HELLO log rule outside I_R", hello(func(h *wire.Hello) { h.Log = []core.Rule{outsideR} }), nil},
		{"HELLO log rule with an empty side", hello(func(h *wire.Hello) { h.Log = []core.Rule{{X: itemset.New(0), Dir: core.Both}} }), nil},
		{"SCORE candidate index past the list", hello(nil), score([]int32{0, int32(len(cands))}, nil)},
		{"SCORE negative candidate index", hello(nil), score([]int32{-1}, nil)},
		{"SCORE dirty item outside I_L", hello(nil), score([]int32{0}, &[2]itemset.Itemset{itemset.New(6), nil})},
		{"SCORE negative dirty item", hello(nil), score([]int32{0}, &[2]itemset.Itemset{nil, {-1}})},
		{"APPLY rule outside I_R", hello(nil), apply(outsideR)},
		{"APPLY rule with an invalid direction", hello(nil), apply(core.Rule{X: itemset.New(0), Y: itemset.New(1), Dir: 9})},
		{"unexpected request kind", hello(nil), &wire.HelloAck{Part: part, Term: term}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mailbox := NewMailbox()
			if c.req != nil {
				mailbox <- c.req
			}
			var sent []wire.Msg
			// A Serve that accepted the message would wait for more; the
			// deadline turns that into a missing Crash, not a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Serve(ctx, d, cands, c.hello, rt, 2, mailbox, func(m wire.Msg) { sent = append(sent, m) })
			runtime.ReadMemStats(&after)

			if len(sent) != 1 {
				t.Fatalf("Serve sent %d messages, want one Crash: %#v", len(sent), sent)
			}
			if cr, ok := sent[0].(*wire.Crash); !ok || *cr != (wire.Crash{Part: part, Term: term}) {
				t.Fatalf("Serve sent %#v, want Crash{Part: %d, Term: %d}", sent[0], part, term)
			}
			if c.req == nil {
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
					t.Fatalf("refusing the HELLO allocated %d bytes, want < 1 MB", grew)
				}
			}
		})
	}

	// The same incarnation with valid messages answers instead: the
	// checks above are not refusing everything.
	mailbox := NewMailbox()
	mailbox <- score([]int32{0, int32(len(cands) - 1)}, &[2]itemset.Itemset{itemset.New(0, 5), itemset.New(2)})
	mailbox <- apply(core.Rule{X: itemset.New(0), Y: itemset.New(1, 5), Dir: core.Both})
	sent := make(chan wire.Msg, 4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, d, cands, hello(func(h *wire.Hello) { h.Log = []core.Rule{{X: itemset.New(1), Y: itemset.New(0), Dir: core.Backward}} }),
			rt, 2, mailbox, func(m wire.Msg) { sent <- m })
	}()
	for i, want := range []int{2, 1} {
		rep, ok := (<-sent).(*wire.Reply)
		if !ok || rep.Part != part || rep.Term != term || len(rep.Counts) != want {
			t.Fatalf("valid request %d answered with %#v", i, rep)
		}
	}
	cancel()
	<-done
}
