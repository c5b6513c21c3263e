package main

import (
	"context"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/pool"
	"twoview/internal/wire"
)

// hostMailboxDepth bounds each incarnation's request queue, mirroring
// the coordinator-side backpressure contract: a full mailbox drops the
// request and the coordinator's lease recovers.
const hostMailboxDepth = 2

// host is one partition incarnation — cmd/shardworker's reading of
// internal/shard's proc. It is born from (dataset, ranges, log),
// serves leased requests until cancelled, and on failure (panic, blown
// lease) retires with a CRASH frame; it never repairs itself. The
// partition state dies with the incarnation, so a half-applied update
// can never leak into a successor.
type host struct {
	sess *session
	part int32
	term uint64

	d                  *dataset.Dataset
	cands              []core.Candidate
	loL, hiL, loR, hiR int
	log                []core.Rule
	workers            int

	ctx     context.Context
	cancel  context.CancelFunc
	mailbox chan wire.Msg
}

func (h *host) loop() {
	defer h.sess.hostWG.Done()
	defer h.cancel()
	defer func() {
		if r := recover(); r != nil {
			h.crash()
		}
	}()

	ps := core.NewPartialState(h.d, h.loL, h.hiL, h.loR, h.hiR)
	ps.Replay(h.log, func(int, core.Rule) {})
	scorers := pool.NewOn(h.sess.w.rt, h.workers, func(int) struct{} { return struct{}{} })

	for {
		select {
		case <-h.ctx.Done():
			return
		case msg := <-h.mailbox:
			switch msg := msg.(type) {
			case *wire.Score:
				rep, err := h.score(scorers, ps, msg)
				if err != nil {
					// The scoring phase drained early: the lease expired
					// (or the session is dying). Retire; the coordinator
					// has already presumed us dead or soon will.
					h.crash()
					return
				}
				h.sess.send(rep)
			case *wire.Apply:
				h.sess.send(h.apply(ps, msg))
			}
		}
	}
}

// score runs the request's candidates on the host's share of the
// worker pool under the granted lease, exactly like an in-process
// shard: the per-entry counts land in their own slots, so the reply is
// identical for every worker count.
func (h *host) score(scorers *pool.Pool[struct{}], ps *core.PartialState, req *wire.Score) (*wire.Reply, error) {
	rep := &wire.Reply{Part: h.part, Term: h.term, Seq: req.Seq}
	rep.Counts = make([]core.DirCounts, len(req.CandIdx))
	lease := pool.NewLease(h.ctx, req.Lease)
	defer lease.End()
	dirty := core.NewDirtyItems(h.d, req.Dirty)
	err := scorers.RunCtx(lease.Context(), len(req.CandIdx), func(_ struct{}, i int) {
		c := &h.cands[req.CandIdx[i]]
		rep.Counts[i] = ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, dirty)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// apply applies the accepted rule to the partition and acknowledges
// with the per-item counts.
func (h *host) apply(ps *core.PartialState, req *wire.Apply) *wire.Reply {
	return &wire.Reply{
		Part: h.part, Term: h.term, Seq: req.Seq,
		Counts: []core.DirCounts{ps.Apply(req.Rule, nil, nil)},
	}
}

// crash retires the incarnation with a CRASH frame. Best-effort: if
// the session is already dead, nobody is listening.
func (h *host) crash() {
	h.sess.sendCrash(h.part, h.term)
}
