package shard

import (
	"context"

	"twoview/internal/core"
	"twoview/internal/wire"
)

// transport is where a run's partitions live: in-process goroutine
// groups (localTransport) or shardworker daemons over TCP
// (tcpTransport). The supervisor is transport-blind — it speaks the
// same spawn/deliver protocol either way, and both transports surface
// every failure through the two channels the supervisor already
// handles: crash notices in its inbox and silence (recovered by the
// lease timer). Neither deliver path ever blocks the supervisor: a
// full queue or broken connection drops the request, which is
// indistinguishable from a crashed shard and recovered the same way.
type transport interface {
	// spawn starts (or, over TCP, announces) incarnation (part, term),
	// born from the given accepted-rule log snapshot. A previous
	// incarnation of the partition is implicitly replaced.
	spawn(part int, term uint64, log []core.Rule)
	// deliver hands the round's request (a *wire.Score or *wire.Apply)
	// to partition part's current incarnation. It never blocks: the
	// request is dropped on a full mailbox, full write queue, or broken
	// connection, and the lease timer recovers.
	deliver(part int, req wire.Msg)
	// stats folds the transport's counters into rs.
	stats(rs *runStats)
	// close tears down connections. Incarnation goroutines hang off the
	// supervisor context and are tracked on run.wg; close only has to
	// unblock what context cancellation alone cannot reach.
	close()
}

// localTransport runs every partition's Serve on its own goroutine —
// the engine exactly as it behaves without TCP.
type localTransport struct {
	sv    *supervisor
	procs []*proc
}

// proc is one in-process incarnation: the mailbox its Serve reads and
// the cancel that replaces it.
type proc struct {
	// mailbox is buffered so the supervisor can hand a
	// dead-but-undetected incarnation its request without blocking; the
	// request dies with the incarnation and the lease timer recovers.
	mailbox chan wire.Msg
	cancel  context.CancelFunc
}

// NewMailbox returns an incarnation's request mailbox, in process or
// in cmd/shardworker: queueDepth deep, and fed without blocking, so a
// full mailbox drops the request and the lease recovers.
func NewMailbox() chan wire.Msg { return make(chan wire.Msg, queueDepth) }

func newLocalTransport(sv *supervisor) *localTransport {
	return &localTransport{sv: sv, procs: make([]*proc, len(sv.parts))}
}

func (t *localTransport) spawn(part int, term uint64, log []core.Rule) {
	if old := t.procs[part]; old != nil {
		old.cancel()
	}
	ctx, cancel := context.WithCancel(t.sv.ctx)
	p := &proc{mailbox: NewMailbox(), cancel: cancel}
	r, inbox, hello := t.sv.run, t.sv.inbox, t.sv.hello(part, term, log)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer cancel()
		Serve(ctx, r.d, r.cands, hello, r.workers, p.mailbox, func(m wire.Msg) {
			select {
			case inbox <- m:
			case <-ctx.Done(): // replaced: nobody waits for this incarnation
			}
		})
	}()
	t.procs[part] = p
}

func (t *localTransport) deliver(part int, req wire.Msg) {
	select {
	case t.procs[part].mailbox <- req:
	default:
		// Mailbox full: the incarnation is wedged or already replaced.
		// Dropping here is the backpressure contract — the condition
		// surfaces as lease expiry and the partition is rebuilt, instead
		// of the supervisor blocking or the mailbox growing without
		// bound.
	}
}

func (t *localTransport) stats(*runStats) {}

func (t *localTransport) close() {} // incarnations die with the supervisor context
