package shard

import (
	"context"
	"fmt"
	"time"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/fault"
	"twoview/internal/itemset"
	"twoview/internal/wire"
)

// supervisor is the coordinator side of a sharded run: it owns the
// accepted-rule log, the partition → incarnation map, and the round
// protocol. It is a real supervisor, not a barrier — every round is a
// leased broadcast-gather in which a shard that crashes, goes silent or
// answers too late is replaced by a fresh incarnation rebuilt from the
// log, and the round completes with the successor's answer.
//
// Determinism does not depend on any of that machinery firing or not:
// replies are integers over a partition state that is a pure function
// of (dataset, ranges, log), so the gathered counts are the same
// whether they come from the original incarnation or its tenth
// replacement, and the coordinator's float folds see identical inputs
// under every failure schedule.
type supervisor struct {
	run *run
	cfg Config

	parts []Partition
	// tr is where the incarnations live: in-process goroutines or
	// shardworker daemons over TCP. The supervision protocol is
	// transport-blind.
	tr transport
	// terms[p] is partition p's current incarnation number; replies
	// from older terms are stale by definition.
	terms []uint64
	// seq is the round number, shared by all partitions.
	seq uint64
	// inbox receives every incarnation's replies and crash notices. Its
	// capacity covers a full round of replies plus crash noise, so
	// retiring incarnations never block on a supervisor that is between
	// reads. It carries only *wire.Reply and *wire.Crash.
	inbox chan wire.Msg

	// log is the accepted-rule log: the authoritative mining history,
	// appended only after the apply round for the rule has fully
	// completed, so a mid-apply rebuild of a partition that has not
	// answered yet replays up to — never into — the in-flight rule.
	log []core.Rule
	// applying is the rule of the APPLY round in flight, nil between
	// APPLY rounds.
	applying *core.Rule

	restarts int
	stale    int

	ctx    context.Context
	cancel context.CancelFunc
}

func newSupervisor(ctx context.Context, r *run) *supervisor {
	sctx, cancel := context.WithCancel(ctx)
	sv := &supervisor{
		run:    r,
		cfg:    r.cfg,
		parts:  split(r.d, r.cfg.Shards),
		ctx:    sctx,
		cancel: cancel,
		inbox:  make(chan wire.Msg, 4*r.cfg.Shards+16),
	}
	sv.terms = make([]uint64, len(sv.parts))
	if len(sv.cfg.Addrs) > 0 {
		sv.tr = newTCPTransport(sv, sv.cfg.Addrs)
	} else {
		sv.tr = newLocalTransport(sv)
	}
	for p := range sv.parts {
		sv.tr.spawn(p, 0, nil)
	}
	return sv
}

// hello is incarnation (part, term)'s descriptor, born from log: the
// in-process spawn hands it to Serve, the TCP transport sends it as the
// HELLO frame.
func (sv *supervisor) hello(part int, term uint64, log []core.Rule) *wire.Hello {
	r, p := sv.run, sv.parts[part]
	return &wire.Hello{
		Part: int32(part), Term: term,
		LoL: int32(p.LoL), HiL: int32(p.HiL),
		LoR: int32(p.LoR), HiR: int32(p.HiR),
		Workers:     int32(r.workers),
		DatasetHash: r.datasetHash,
		CandsHash:   r.candsHash,
		Log:         log,
	}
}

// close cancels every live incarnation and tears the transport down.
// Callers wait on run.wg for the goroutines themselves.
func (sv *supervisor) close() {
	sv.cancel()
	sv.tr.close()
}

// restart replaces partition part's incarnation: bump the term
// (instantly staling everything the old one might still send) and
// spawn a successor from the log; the transport replaces the old
// incarnation as a side effect. When redispatch is set the successor
// is immediately handed the in-flight request. Otherwise the partition
// has already answered the round; if that round is an APPLY, the old
// incarnation had applied the rule, so the successor is born with it.
func (sv *supervisor) restart(part int, mk func(part int) wire.Msg, redispatch bool) error {
	if sv.restarts >= sv.cfg.MaxRestarts {
		return fmt.Errorf("shard: partition %d crashed with the run's restart budget (%d) exhausted", part, sv.cfg.MaxRestarts)
	}
	sv.restarts++
	sv.terms[part]++
	log := sv.log
	if !redispatch && sv.applying != nil {
		log = append(log[:len(log):len(log)], *sv.applying)
	}
	sv.tr.spawn(part, sv.terms[part], log)
	if redispatch {
		sv.dispatch(part, mk)
	}
	return nil
}

// dispatch builds and delivers the round's request for partition part.
// Delivery never blocks: a dead incarnation, full mailbox, or broken
// connection drops the request, and the lease timer recovers.
func (sv *supervisor) dispatch(part int, mk func(part int) wire.Msg) {
	req := mk(part)
	if fault.Enabled {
		fault.Fire("shard.dispatch")
	}
	sv.tr.deliver(part, req)
}

// round runs one leased broadcast-gather: dispatch mk's request to
// every partition, then gather until every partition has answered for
// this round with its current term — restarting partitions as crash
// notices arrive and leases expire. valid checks each completion
// against the request it answers; a malformed one (only a faulty peer
// sends one) is a crash of its incarnation, so it never reaches the
// caller's fold. The returned replies are indexed by partition, so the
// caller's merge runs in partition order regardless of arrival order.
func (sv *supervisor) round(mk func(part int) wire.Msg, valid func(p Partition, rep *wire.Reply) bool) ([]*wire.Reply, error) {
	sv.seq++
	out := make([]*wire.Reply, len(sv.parts))
	pending := len(out)
	for part := range sv.parts {
		sv.dispatch(part, mk)
	}
	// The lease timer is the liveness failsafe for silent deaths (a
	// shard that can still panic sends a crash notice; one that is
	// wedged or whose completion was lost sends nothing). It re-arms
	// for as long as the round is incomplete.
	timer := time.NewTimer(sv.cfg.Lease)
	defer timer.Stop()
	for pending > 0 {
		select {
		case <-sv.ctx.Done():
			return nil, sv.ctx.Err()
		case msg := <-sv.inbox:
			if c, ok := msg.(*wire.Crash); ok {
				if c.Term != sv.terms[c.Part] {
					sv.stale++ // a replaced incarnation's dying word
					continue
				}
				if err := sv.restart(int(c.Part), mk, out[c.Part] == nil); err != nil {
					return nil, err
				}
				continue
			}
			m := msg.(*wire.Reply)
			switch {
			case m.Seq != sv.seq || m.Term != sv.terms[m.Part] || out[m.Part] != nil:
				// Stale round, stale incarnation, or duplicate delivery:
				// discarded by value — correctness never depends on the
				// transport not duplicating or reordering.
				sv.stale++
			case !valid(sv.parts[m.Part], m):
				if err := sv.restart(int(m.Part), mk, true); err != nil {
					return nil, err
				}
			default:
				out[m.Part] = m
				pending--
			}
		case <-timer.C:
			for part := range out {
				if out[part] == nil {
					if err := sv.restart(part, mk, true); err != nil {
						return nil, err
					}
				}
			}
			timer.Reset(sv.cfg.Lease)
		}
	}
	return out, nil
}

// scoreCands runs a SCORE round over indices into the run's candidate
// list, restricted to the dirty consequent items when dirty is
// non-nil. Each partition must answer every candidate with its owned
// dirty items.
func (sv *supervisor) scoreCands(idx []int32, dirty *core.DirtyItems) ([]*wire.Reply, error) {
	var items *[2]itemset.Itemset
	var dirtyL, dirtyR *bitset.Set
	if dirty != nil {
		lists := dirty.Items()
		items = &lists
		dirtyL, dirtyR = &dirty[dataset.Left], &dirty[dataset.Right]
	}
	cands := sv.run.cands
	return sv.round(func(part int) wire.Msg {
		return &wire.Score{
			Part: int32(part), Term: sv.terms[part], Seq: sv.seq, Lease: sv.cfg.Lease,
			CandIdx: idx, Dirty: items,
		}
	}, func(p Partition, rep *wire.Reply) bool {
		if len(rep.Counts) != len(idx) {
			return false
		}
		for k, ci := range idx {
			cd := &cands[ci]
			if !ownedCounts(rep.Counts[k].Fwd, cd.Y, p.LoR, p.HiR, dirtyR) ||
				!ownedCounts(rep.Counts[k].Back, cd.X, p.LoL, p.HiL, dirtyL) {
				return false
			}
		}
		return true
	})
}

// apply runs an APPLY round for an accepted rule, then — and only
// then — appends it to the log. A partition rebuilt while the round is
// in flight therefore replays a log without r and receives r via the
// re-dispatched request, or, if it had already answered, is born with
// r (see restart): the rule reaches every incarnation's columns
// exactly once.
func (sv *supervisor) apply(r core.Rule) ([]*wire.Reply, error) {
	var fwd, back itemset.Itemset
	if r.AppliesTo(dataset.Left) {
		fwd = r.Y
	}
	if r.AppliesTo(dataset.Right) {
		back = r.X
	}
	sv.applying = &r
	defer func() { sv.applying = nil }()
	reps, err := sv.round(func(part int) wire.Msg {
		return &wire.Apply{Part: int32(part), Term: sv.terms[part], Seq: sv.seq, Lease: sv.cfg.Lease, Rule: r}
	}, func(p Partition, rep *wire.Reply) bool {
		return len(rep.Counts) == 1 &&
			ownedCounts(rep.Counts[0].Fwd, fwd, p.LoR, p.HiR, nil) &&
			ownedCounts(rep.Counts[0].Back, back, p.LoL, p.HiL, nil)
	})
	if err != nil {
		return nil, err
	}
	sv.log = append(sv.log, r)
	return reps, nil
}

// ownedCounts reports whether counts names exactly the items of cons in
// [lo, hi) that dirty marks (nil marks every item), in ascending order:
// what a partition owes for one rule direction, and the shape the
// coordinator's folds index by.
func ownedCounts(counts []core.ItemCount, cons itemset.Itemset, lo, hi int, dirty *bitset.Set) bool {
	j := 0
	for _, y := range cons {
		if y < lo || y >= hi || (dirty != nil && !dirty.Contains(y)) {
			continue
		}
		if j == len(counts) || int(counts[j].Item) != y {
			return false
		}
		j++
	}
	return j == len(counts)
}
