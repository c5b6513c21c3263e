package main

import (
	"context"
	"log"
	"net"
	"runtime"
	"sync"

	"twoview/internal/shard"
	"twoview/internal/wire"
)

// worker is the per-process state shared by every coordinator session:
// the content-addressed blob cache and the scoring-pool cap.
type worker struct {
	cache *blobCache
	// workers caps every hosted incarnation's scoring pool, whatever
	// its HELLO requests.
	workers int
}

// newWorker returns a worker over the blob cache in dir (empty: memory
// only) whose incarnations score on at most workers goroutines each:
// the -workers flag, where 0 and anything above GOMAXPROCS mean
// GOMAXPROCS. A HELLO is untrusted input: uncapped, its worker count
// would size every scoring pool and start up to that many goroutines
// in each scoring phase.
func newWorker(dir string, workers int) *worker {
	if n := runtime.GOMAXPROCS(0); workers <= 0 || workers > n {
		workers = n
	}
	return &worker{cache: newBlobCache(dir), workers: workers}
}

// serveShard runs each hosted incarnation; it is shard.Serve, and a
// test swaps it to see the cap an incarnation is booted with.
var serveShard = shard.Serve

// serve runs one coordinator session: decode frames until the stream
// dies, then retire every hosted incarnation. The cache survives the
// session.
func (w *worker) serve(ctx context.Context, nc net.Conn) {
	sctx, cancel := context.WithCancel(ctx)
	s := &session{w: w, ctx: sctx}
	s.conn = shard.NewConn(sctx, nc, 256, &s.wg)
	s.conn.Read(s.handle)
	cancel()
	s.wg.Wait()
}

// session is one coordinator connection. The hosts and pending slices
// are owned by the reader goroutine (serve); host goroutines touch only
// their own mailbox and the connection's write queue.
type session struct {
	w    *worker
	ctx  context.Context
	conn *shard.Conn
	// wg tracks the connection's goroutines and every host's.
	wg sync.WaitGroup

	// hosts are the live incarnations, linearly searched by partition —
	// there are at most a handful per worker.
	hosts []*host
	// pending are HELLOs whose blobs have not all arrived yet; each may
	// park the newest request for its incarnation, delivered at boot.
	pending []*pendingHello
}

// host is one running shard.Serve: the incarnation it serves, its
// mailbox and the cancel that retires it.
type host struct {
	part    int32
	term    uint64
	mailbox chan wire.Msg
	cancel  context.CancelFunc
}

type pendingHello struct {
	hello  *wire.Hello
	parked wire.Msg
}

// handle processes one inbound frame; a false return poisons the
// stream (the coordinator recovers by redialing).
func (s *session) handle(msg wire.Msg) bool {
	switch msg := msg.(type) {
	case *wire.Hello:
		s.handleHello(msg)
	case *wire.Blob:
		return s.handleBlob(msg)
	case *wire.Score:
		s.route(msg.Part, msg.Term, msg)
	case *wire.Apply:
		s.route(msg.Part, msg.Term, msg)
	default:
		log.Printf("unexpected %T frame; dropping the session", msg)
		return false
	}
	return true
}

// handleHello announces (or re-announces) a partition incarnation.
// Idempotent for an already-hosted (part, term); a newer term replaces
// the incarnation; an older term is a stale retransmission and ignored.
func (s *session) handleHello(h *wire.Hello) {
	if old := s.findHost(h.Part); old != nil {
		switch {
		case old.term == h.Term:
			// Re-announcement of a live incarnation (the coordinator
			// resends its desired state after a reconnect): keep the
			// host and its state, ack the cache hit.
			s.ack(h.Part, h.Term, 0)
			return
		case old.term > h.Term:
			return
		}
		old.cancel()
		s.removeHost(old)
	}
	for i, ph := range s.pending {
		if ph.hello.Part == h.Part {
			if ph.hello.Term > h.Term {
				return
			}
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	need := s.w.cache.need(h)
	s.ack(h.Part, h.Term, need)
	if need == 0 {
		s.start(h, nil)
	} else {
		s.pending = append(s.pending, &pendingHello{hello: h})
	}
}

// handleBlob stores one verified transfer and boots every pending
// incarnation it completes. A blob whose content does not match its
// hash poisons the stream — resynchronization is the redial path.
func (s *session) handleBlob(b *wire.Blob) bool {
	if err := s.w.cache.put(b); err != nil {
		log.Printf("rejecting blob: %v", err)
		return false
	}
	var still []*pendingHello
	for _, ph := range s.pending {
		if s.w.cache.need(ph.hello) == 0 {
			s.start(ph.hello, ph.parked)
		} else {
			still = append(still, ph)
		}
	}
	s.pending = still
	return true
}

// route hands a request to the addressed incarnation. A full mailbox
// drops it (the lease recovers — same backpressure contract as the
// coordinator's queues); a request for a pending incarnation is parked,
// newest wins; anything else is a stale term and dropped.
func (s *session) route(part int32, term uint64, msg wire.Msg) {
	if h := s.findHost(part); h != nil && h.term == term {
		select {
		case h.mailbox <- msg:
		default:
		}
		return
	}
	for _, ph := range s.pending {
		if ph.hello.Part == part && ph.hello.Term == term {
			ph.parked = msg
			return
		}
	}
}

// start boots the incarnation a HELLO announced, now that its content
// is fully cached. shard.Serve checks the HELLO itself and crashes the
// incarnation if it does not fit the dataset.
func (s *session) start(hm *wire.Hello, parked wire.Msg) {
	d, cands, err := s.w.cache.materialize(hm)
	if err != nil {
		// The cached bytes are unusable (corrupt file, undecodable
		// candidates): no retry on our side fixes that, so crash the
		// incarnation and let the coordinator decide.
		log.Printf("partition %d term %d: %v", hm.Part, hm.Term, err)
		s.send(&wire.Crash{Part: hm.Part, Term: hm.Term})
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	h := &host{part: hm.Part, term: hm.Term, mailbox: shard.NewMailbox(), cancel: cancel}
	s.hosts = append(s.hosts, h)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		serveShard(ctx, d, cands, hm, s.w.workers, h.mailbox, s.send)
	}()
	if parked != nil {
		h.mailbox <- parked // fresh mailbox: never full here
	}
	log.Printf("hosting partition %d term %d (items L[%d,%d) R[%d,%d), %d log rules)",
		hm.Part, hm.Term, hm.LoL, hm.HiL, hm.LoR, hm.HiR, len(hm.Log))
}

func (s *session) findHost(part int32) *host {
	for _, h := range s.hosts {
		if h.part == part {
			return h
		}
	}
	return nil
}

func (s *session) removeHost(h *host) {
	for i, o := range s.hosts {
		if o == h {
			s.hosts = append(s.hosts[:i], s.hosts[i+1:]...)
			return
		}
	}
}

func (s *session) ack(part int32, term uint64, need uint8) {
	s.send(&wire.HelloAck{Part: part, Term: term, Need: need})
}

// send encodes and enqueues one outbound frame, blocking until the
// writer accepts it or the session dies. Encoding our own replies can
// only fail on a frame past MaxFrame; the silent drop then surfaces as
// lease expiry coordinator-side, like any other lost completion.
func (s *session) send(m wire.Msg) {
	frame, err := wire.Encode(nil, m)
	if err != nil {
		log.Printf("dropping unencodable %T: %v", m, err)
		return
	}
	s.conn.Send(frame)
}
