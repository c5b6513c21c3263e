package shard

import (
	"context"
	"fmt"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/fault"
	"twoview/internal/pool"
	"twoview/internal/wire"
)

// Serve runs one incarnation of partition h.Part, the same code in
// process and in cmd/shardworker: check the HELLO, rebuild the
// partition's columns from h.Log, then answer every Score and Apply
// taken from mailbox with a Reply through send, until ctx is cancelled
// (the incarnation was replaced or the run ended).
//
// An incarnation never repairs itself. An invalid HELLO or request, a
// panic (injected or real) or a blown lease retires it with one Crash
// through send; its columns die with it, so a half-applied update can
// never leak into a successor, which rebuilds from the log instead.
// Every message is checked against d and cands before any of its
// fields sizes an allocation or indexes a column: on the worker side
// they come off the network.
//
// Scoring phases run with min(h.Workers, workers) workers (at least
// one) under each request's lease.
func Serve(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, h *wire.Hello, workers int, mailbox <-chan wire.Msg, send func(wire.Msg)) {
	crash := func() { send(&wire.Crash{Part: h.Part, Term: h.Term}) }
	defer func() {
		if r := recover(); r != nil {
			crash()
		}
	}()
	if err := checkHello(d, h); err != nil {
		crash()
		return
	}
	inc := boot(d, cands, h, workers)

	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-mailbox:
			if fault.Enabled {
				fault.Fire("shard.recv")
			}
			var rep *wire.Reply
			var err error
			switch m := msg.(type) {
			case *wire.Score:
				rep, err = inc.score(ctx, m)
			case *wire.Apply:
				rep, err = inc.apply(m)
			default:
				err = fmt.Errorf("shard: unexpected %T request", msg)
			}
			if err != nil {
				// An invalid request, or a scoring phase that drained
				// early: the lease expired (or the incarnation was
				// replaced mid-phase). The supervisor's own timer may
				// not have fired yet, so the crash notice speeds
				// recovery up but is not load-bearing.
				crash()
				return
			}
			reply(send, rep)
		}
	}
}

// incarnation is what Serve has built for one HELLO: the partition's
// columns and its scoring pool.
type incarnation struct {
	d       *dataset.Dataset
	cands   []core.Candidate
	h       *wire.Hello
	ps      *core.PartialState
	scorers *pool.Pool[struct{}]
}

// boot builds the incarnation of a checked HELLO: the partition's
// columns replayed from h.Log, and a scoring pool of
// min(h.Workers, workers) slots (at least one). h.Workers comes off
// the network; workers is the host's own cap.
func boot(d *dataset.Dataset, cands []core.Candidate, h *wire.Hello, workers int) *incarnation {
	inc := &incarnation{d: d, cands: cands, h: h}
	inc.ps = core.NewPartialState(d, int(h.LoL), int(h.HiL), int(h.LoR), int(h.HiR))
	inc.ps.Replay(h.Log, func(int, core.Rule) {
		if fault.Enabled {
			fault.Fire("shard.replay")
		}
	})
	inc.scorers = pool.New(min(max(int(h.Workers), 1), workers), func(int) struct{} { return struct{}{} })
	return inc
}

// score counts the request's candidates against the partition on the
// incarnation's worker pool, under the granted lease. Scoring only
// reads the partition, so the entries are one phase of independent
// tasks; the per-entry counts land in their own slots (the pool's
// own-slot rule), so the reply is identical for every worker count.
func (inc *incarnation) score(ctx context.Context, req *wire.Score) (*wire.Reply, error) {
	for _, ci := range req.CandIdx {
		if ci < 0 || int(ci) >= len(inc.cands) {
			return nil, fmt.Errorf("shard: candidate index %d outside [0, %d)", ci, len(inc.cands))
		}
	}
	if req.Dirty != nil {
		for v, items := range req.Dirty {
			for _, it := range items {
				if it < 0 || it >= inc.d.Items(dataset.View(v)) {
					return nil, fmt.Errorf("shard: dirty item %d outside view %v", it, dataset.View(v))
				}
			}
		}
	}
	rep := &wire.Reply{Part: inc.h.Part, Term: inc.h.Term, Seq: req.Seq, Counts: make([]core.DirCounts, len(req.CandIdx))}
	lease, end := context.WithTimeout(ctx, req.Lease)
	defer end()
	dirty := core.NewDirtyItems(inc.d, req.Dirty)
	err := inc.scorers.RunCtx(lease, len(req.CandIdx), func(_ struct{}, i int) {
		if fault.Enabled {
			fault.Fire("shard.task")
		}
		c := &inc.cands[req.CandIdx[i]]
		rep.Counts[i] = inc.ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, dirty)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// apply applies the accepted rule to the partition and acknowledges
// with the per-item counts.
func (inc *incarnation) apply(req *wire.Apply) (*wire.Reply, error) {
	if err := req.Rule.Validate(inc.d); err != nil {
		return nil, err
	}
	if fault.Enabled {
		fault.Fire("shard.apply")
	}
	return &wire.Reply{
		Part: inc.h.Part, Term: inc.h.Term, Seq: req.Seq,
		Counts: []core.DirCounts{inc.ps.Apply(req.Rule, nil, nil)},
	}, nil
}

// reply sends a completion, honouring the drop/duplicate failpoints: a
// dropped completion simply never arrives (the lease recovers it), a
// duplicated one arrives twice (the dedup rule discards the second).
func reply(send func(wire.Msg), rep *wire.Reply) {
	if fault.Enabled && fault.Point("shard.reply") != nil {
		return // injected message loss
	}
	send(rep)
	if fault.Enabled && fault.Point("shard.reply.dup") != nil {
		send(rep) // injected duplicate delivery
	}
}

// checkHello validates an incarnation descriptor against the dataset:
// 0 ≤ lo ≤ hi ≤ |I_v| for both views, and every log rule within the
// alphabets.
func checkHello(d *dataset.Dataset, h *wire.Hello) error {
	for v, r := range [2][2]int32{{h.LoL, h.HiL}, {h.LoR, h.HiR}} {
		if r[0] < 0 || r[0] > r[1] || int(r[1]) > d.Items(dataset.View(v)) {
			return fmt.Errorf("shard: HELLO range [%d, %d) outside view %v", r[0], r[1], dataset.View(v))
		}
	}
	for _, r := range h.Log {
		if err := r.Validate(d); err != nil {
			return err
		}
	}
	return nil
}
