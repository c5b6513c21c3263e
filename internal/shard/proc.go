package shard

import (
	"context"

	"twoview/internal/core"
	"twoview/internal/fault"
	"twoview/internal/pool"
)

// proc is one incarnation of a shard: a goroutine group (the message
// loop plus its scoring pool's share of the run's workers) owning one
// partition's columns privately. A proc is born from the accepted-rule
// log, serves leased requests until its context is cancelled (replaced
// by the supervisor) or it fails (panic, blown lease), and on failure
// retires with a crash notice; it never repairs itself — recovery is
// the supervisor's job, by rebuilding a successor from the log.
type proc struct {
	run  *run
	part Partition
	term uint64

	ctx    context.Context
	cancel context.CancelFunc
	// mailbox receives the supervisor's requests. It is buffered so the
	// supervisor can hand a dead-but-undetected incarnation its request
	// without blocking; the request dies with the proc and the lease
	// timer recovers.
	mailbox chan *request
	// out is the supervisor's inbox.
	out chan<- *reply
	// log is the accepted-rule log snapshot this incarnation replays at
	// birth. Append-only on the supervisor side, read-only here.
	log []core.Rule
}

// loop is the proc's goroutine: rebuild the partition from the log,
// then serve requests until cancelled. Any panic — injected or real —
// is converted into a crash notice; the columns die with the
// incarnation, so a half-applied update can never leak into a
// successor, which rebuilds from the log instead.
func (p *proc) loop() {
	defer p.run.wg.Done()
	defer p.cancel()
	defer func() {
		if r := recover(); r != nil {
			p.notifyCrash()
		}
	}()

	ps := core.NewPartialState(p.run.d, p.part.LoL, p.part.HiL, p.part.LoR, p.part.HiR)
	ps.Replay(p.log, func(int, core.Rule) {
		if fault.Enabled {
			fault.Fire("shard.replay")
		}
	})
	scorers := pool.NewOn(p.run.rt, p.run.workers, func(int) struct{} { return struct{}{} })

	for {
		select {
		case <-p.ctx.Done():
			return
		case req := <-p.mailbox:
			if fault.Enabled {
				fault.Fire("shard.recv")
			}
			var rep *reply
			var err error
			switch req.kind {
			case msgScore:
				rep, err = p.handleScore(scorers, ps, req)
			case msgApply:
				rep = p.handleApply(ps, req)
			}
			if err != nil {
				// The scoring phase drained early: the lease expired
				// (or the incarnation was replaced mid-phase). Retire;
				// the supervisor's own timer may not have fired yet, so
				// the notice speeds recovery up but is not load-bearing.
				p.notifyCrash()
				return
			}
			p.send(rep)
		}
	}
}

// handleScore scores the request's candidates against the partition on
// the proc's worker pool, under the granted lease. Scoring only reads
// the partition, so the entries are one phase of independent tasks; the
// per-entry counts land in their own slots (the pool's own-slot rule).
func (p *proc) handleScore(scorers *pool.Pool[struct{}], ps *core.PartialState, req *request) (*reply, error) {
	rep := &reply{part: p.part.Index, term: p.term, seq: req.seq}
	rep.counts = make([]core.DirCounts, len(req.candIdx))
	lease := pool.NewLease(p.ctx, req.lease)
	defer lease.End()
	cands := p.run.cands
	dirty := core.NewDirtyItems(p.run.d, req.dirty)
	err := scorers.RunCtx(lease.Context(), len(req.candIdx), func(_ struct{}, i int) {
		if fault.Enabled {
			fault.Fire("shard.task")
		}
		c := &cands[req.candIdx[i]]
		rep.counts[i] = ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, dirty)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// handleApply applies the accepted rule to the partition and
// acknowledges with the per-item counts.
func (p *proc) handleApply(ps *core.PartialState, req *request) *reply {
	if fault.Enabled {
		fault.Fire("shard.apply")
	}
	return &reply{
		part: p.part.Index, term: p.term, seq: req.seq,
		counts: []core.DirCounts{ps.Apply(req.rule, nil, nil)},
	}
}

// send delivers a completion, honouring the drop/duplicate failpoints:
// a dropped completion simply never arrives (the lease recovers it), a
// duplicated one arrives twice (the dedup rule discards the second).
func (p *proc) send(rep *reply) {
	if fault.Enabled {
		if err := fault.Point("shard.reply"); err != nil {
			return // injected message loss
		}
	}
	p.deliver(rep)
	if fault.Enabled {
		if err := fault.Point("shard.reply.dup"); err != nil {
			p.deliver(rep) // injected duplicate delivery
		}
	}
}

func (p *proc) deliver(rep *reply) {
	select {
	case p.out <- rep:
	case <-p.ctx.Done():
	}
}

// notifyCrash retires the incarnation with a CRASH notice. Best-effort:
// if the incarnation was already replaced (context cancelled), nobody
// is waiting for the notice.
func (p *proc) notifyCrash() {
	select {
	case p.out <- &reply{part: p.part.Index, term: p.term, crash: true}:
	case <-p.ctx.Done():
	}
}
