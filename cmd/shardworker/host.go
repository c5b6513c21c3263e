package main

import (
	"context"

	"twoview/internal/bitset"
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

// scorer is one pool worker's scratch: support tidsets for inline-pair
// scoring.
type scorer struct {
	tidX, tidY *bitset.Set
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
	n := h.d.Size()
	scorers := pool.NewOn(h.sess.w.rt, h.workers, func(int) *scorer {
		return &scorer{tidX: bitset.New(n), tidY: bitset.New(n)}
	})

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

// score runs the request's entries on the host's share of the worker
// pool under the granted lease, exactly like an in-process shard: the
// per-entry counts land in their own slots, so the reply is identical
// for every worker count.
func (h *host) score(scorers *pool.Pool[*scorer], ps *core.PartialState, req *wire.Score) (*wire.Reply, error) {
	rep := &wire.Reply{Part: h.part, Term: h.term, Seq: req.Seq}
	lease := pool.NewLease(h.ctx, req.Lease)
	defer lease.End()
	var err error
	if len(req.CandIdx) > 0 {
		rep.Counts = make([]core.DirCounts, len(req.CandIdx))
		dirty := core.NewDirtyItems(h.d, req.Dirty)
		err = scorers.RunCtx(lease.Context(), len(req.CandIdx), func(s *scorer, i int) {
			c := &h.cands[req.CandIdx[i]]
			rep.Counts[i] = ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, dirty)
		})
	} else {
		rep.Counts = make([]core.DirCounts, len(req.Pairs))
		err = scorers.RunCtx(lease.Context(), len(req.Pairs), func(s *scorer, i int) {
			pr := req.Pairs[i]
			h.d.SupportSetInto(s.tidX, dataset.Left, pr.X)
			h.d.SupportSetInto(s.tidY, dataset.Right, pr.Y)
			rep.Counts[i] = ps.ScoreRule(pr.X, pr.Y, s.tidX, s.tidY, nil)
		})
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// apply applies the accepted rule to the partition and acknowledges
// with the per-item counts (and covered tidsets when asked — the
// CoverObserver fires in the same owned-item order the counts are
// emitted in, which is what keeps the coordinator's tub mirror folds
// aligned).
func (h *host) apply(ps *core.PartialState, req *wire.Apply) *wire.Reply {
	rep := &wire.Reply{Part: h.part, Term: h.term, Seq: req.Seq}
	var onCover core.CoverObserver
	if req.WantCover {
		covers := &wire.Covers{}
		rep.Covers = covers
		onCover = func(target dataset.View, item int, covered *bitset.Set) {
			c := covered.Clone()
			if target == dataset.Right {
				covers.Fwd = append(covers.Fwd, c)
			} else {
				covers.Back = append(covers.Back, c)
			}
		}
	}
	dc := ps.Apply(req.Rule, nil, nil, onCover)
	rep.Counts = []core.DirCounts{dc}
	return rep
}

// crash retires the incarnation with a CRASH frame. Best-effort: if
// the session is already dead, nobody is listening.
func (h *host) crash() {
	h.sess.sendCrash(h.part, h.term)
}
