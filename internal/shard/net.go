package shard

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"twoview/internal/core"
	"twoview/internal/wire"
)

// tcpTransport places partitions on shardworker daemons
// (cmd/shardworker): partition p lives on Addrs[p % len(Addrs)], spoken
// to in the wire encoding of the same HELLO/SCORE/APPLY/CRASH protocol
// the in-process transport runs over channels. Every network failure is
// funneled onto a path the supervisor already handles: a broken or
// poisoned connection synthesizes crash notices for the incarnations it
// hosted, a full write queue or disconnected address drops the request
// and the lease timer recovers, and duplicated or reordered frames are
// discarded by the (part, term, seq) dedup rule. The transport itself
// makes no mining or supervision decision — the supervisor cannot tell
// it apart from the in-process one except by latency.
type tcpTransport struct {
	sv     *supervisor
	mgrs   []*connMgr
	byPart []*connMgr
}

func newTCPTransport(sv *supervisor, addrs []string) *tcpTransport {
	t := &tcpTransport{sv: sv}
	t.mgrs = make([]*connMgr, len(addrs))
	for i, a := range addrs {
		t.mgrs[i] = &connMgr{
			sv:      sv,
			addr:    a,
			desired: make([]*incarnation, len(sv.parts)),
			parked:  make([]*request, len(sv.parts)),
		}
	}
	t.byPart = make([]*connMgr, len(sv.parts))
	for p := range sv.parts {
		m := t.mgrs[p%len(t.mgrs)]
		t.byPart[p] = m
		m.nparts++
	}
	for _, m := range t.mgrs {
		sv.run.wg.Add(1)
		go m.loop()
	}
	return t
}

func (t *tcpTransport) spawn(part int, term uint64, log []core.Rule) {
	t.byPart[part].spawn(part, term, log)
}

func (t *tcpTransport) deliver(part int, req *request) {
	t.byPart[part].deliver(part, req)
}

func (t *tcpTransport) stats(rs *runStats) {
	for _, m := range t.mgrs {
		m.mu.Lock()
		rs.dials += m.dials
		if m.dials > 1 {
			rs.redials += m.dials - 1
		}
		rs.blobsSent += m.blobsSent
		rs.cacheHits += m.cacheHits
		m.mu.Unlock()
	}
}

// close is a no-op: the managers exit through the supervisor context
// (the dialer honours it and each session's watcher closes the conn).
func (t *tcpTransport) close() {}

// incarnation is one desired (term, birth log) of a partition — the
// state a fresh session announces via HELLO, and the term a dead
// session's synthesized crash notices carry.
type incarnation struct {
	term uint64
	log  []core.Rule
}

// connMgr owns one worker address: it dials (and redials, with
// deterministic backoff), announces the desired incarnations on every
// new session, relays replies, and converts session death into crash
// notices. One goroutine per address runs loop; spawn and deliver are
// called from the supervisor goroutine.
type connMgr struct {
	sv   *supervisor
	addr string
	// nparts is how many partitions this address hosts; it sizes each
	// session's write queue: queueDepth data frames per partition plus
	// headroom for the control frames (HELLOs, blobs).
	nparts int

	mu sync.Mutex
	// desired[p] is partition p's current incarnation when it is hosted
	// here, nil otherwise.
	desired []*incarnation
	// parked[p] is the newest request dispatched to partition p while no
	// session was up (the initial dial, or a redial window); a fresh
	// session sends it right after the HELLOs. One slot per partition —
	// the same depth-bounded, newest-wins contract as every other queue
	// here — and it only shortcuts the wait: a request that stayed
	// parked is recovered by the lease like any other drop.
	parked []*request
	sess   *session

	dials     int
	blobsSent int
	cacheHits int
}

func (m *connMgr) spawn(part int, term uint64, log []core.Rule) {
	m.mu.Lock()
	m.desired[part] = &incarnation{term: term, log: log}
	sess := m.sess
	m.mu.Unlock()
	if sess != nil {
		sess.sendControl(m.helloFrame(part, term, log))
	}
}

func (m *connMgr) deliver(part int, req *request) {
	m.mu.Lock()
	sess := m.sess
	if sess == nil {
		m.parked[part] = req // delivered on connect; the lease backstops
		m.mu.Unlock()
		return
	}
	m.parked[part] = nil
	m.mu.Unlock()
	frame, err := encodeRequest(int32(part), req)
	if err != nil {
		return
	}
	sess.sendData(frame)
}

// helloFrame encodes partition part's HELLO. A nil return (a log past
// MaxFrame — far beyond any real table) is silently dropped; the
// missing announcement surfaces as lease expiry.
func (m *connMgr) helloFrame(part int, term uint64, log []core.Rule) []byte {
	r := m.sv.run
	p := m.sv.parts[part]
	frame, err := wire.Encode(nil, &wire.Hello{
		Part: int32(part), Term: term,
		LoL: int32(p.LoL), HiL: int32(p.HiL),
		LoR: int32(p.LoR), HiR: int32(p.HiR),
		Workers:     int32(r.workers),
		DatasetHash: r.datasetHash,
		CandsHash:   r.candsHash,
		Log:         log,
	})
	if err != nil {
		return nil
	}
	return frame
}

// encodeRequest maps an in-process request onto its wire form.
func encodeRequest(part int32, req *request) ([]byte, error) {
	switch req.kind {
	case msgScore:
		return wire.Encode(nil, &wire.Score{
			Part: part, Term: req.term, Seq: req.seq, Lease: req.lease,
			CandIdx: req.candIdx, Dirty: req.dirty,
		})
	case msgApply:
		return wire.Encode(nil, &wire.Apply{
			Part: part, Term: req.term, Seq: req.seq, Lease: req.lease,
			Rule: req.rule,
		})
	}
	return nil, fmt.Errorf("shard: unencodable request kind %d", req.kind)
}

// loop dials the address until the run ends, serving one session per
// successful dial. Backoff doubles per consecutive failed dial from the
// configured base, capped — and with no randomness, so a failure
// schedule replays identically.
func (m *connMgr) loop() {
	defer m.sv.run.wg.Done()
	ctx := m.sv.ctx
	var dialer net.Dialer
	attempt := 0
	for ctx.Err() == nil {
		if attempt > 0 {
			if !sleepCtx(ctx, redialDelay(m.sv.cfg.RedialBackoff, attempt)) {
				return
			}
		}
		conn, err := dialer.DialContext(ctx, "tcp", m.addr)
		if err != nil {
			attempt++
			continue
		}
		m.serve(conn)
		// The session was established and died: the next dial is a
		// redial, backing off from the base again.
		attempt = 1
	}
}

// maxRedialDelay caps the backoff schedule.
const maxRedialDelay = time.Second

func redialDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < maxRedialDelay; i++ {
		d *= 2
	}
	if d > maxRedialDelay {
		d = maxRedialDelay
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// serve runs one established session: announce the desired
// incarnations, relay frames both ways, and on any failure synthesize
// crash notices for everything this address hosted — a dead connection
// and a crashed shard are the same event to the supervisor.
func (m *connMgr) serve(conn net.Conn) {
	sv := m.sv
	sess := &session{
		conn: conn,
		out:  make(chan []byte, queueDepth*m.nparts+m.nparts+4),
		done: make(chan struct{}),
	}
	sv.run.wg.Add(2)
	go func() { // a cancelled run must unblock the blocking read below
		defer sv.run.wg.Done()
		select {
		case <-sv.ctx.Done():
			sess.close()
		case <-sess.done:
		}
	}()
	go sess.writeLoop(&sv.run.wg)

	m.mu.Lock()
	m.dials++
	m.sess = sess
	announce := append([]*incarnation(nil), m.desired...)
	queued := append([]*request(nil), m.parked...)
	for part := range m.parked {
		m.parked[part] = nil
	}
	m.mu.Unlock()
	for part, inc := range announce {
		if inc != nil {
			sess.sendControl(m.helloFrame(part, inc.term, inc.log))
		}
	}
	// Requests that arrived while disconnected ride right behind the
	// HELLOs (same FIFO queue, so the worker sees the announcement
	// first); without this, every dial window would cost a full lease.
	for part, req := range queued {
		if req == nil {
			continue
		}
		if frame, err := encodeRequest(int32(part), req); err == nil {
			sess.sendData(frame)
		}
	}

	var buf []byte
	for {
		var msg wire.Msg
		var err error
		msg, buf, err = wire.ReadMsg(conn, buf)
		if err != nil {
			break
		}
		if !m.handle(sess, msg) {
			break
		}
	}
	sess.close()

	// Terms may have moved while the session was dying; the crash
	// notices carry the current desired terms so none arrives stale.
	m.mu.Lock()
	m.sess = nil
	dead := append([]*incarnation(nil), m.desired...)
	m.mu.Unlock()
	for part, inc := range dead {
		if inc == nil {
			continue
		}
		select {
		case sv.inbox <- &reply{part: part, term: inc.term, crash: true}:
		case <-sv.ctx.Done():
			return
		}
	}
}

// handle processes one inbound frame. A false return poisons the
// session: an unexpected kind, or a reply for a partition this address
// does not host, means the peer and coordinator disagree about the
// protocol state, and the only safe recovery is the redial path.
func (m *connMgr) handle(sess *session, msg wire.Msg) bool {
	switch msg := msg.(type) {
	case *wire.Reply:
		return m.hosts(msg.Part) && m.forward(&reply{part: int(msg.Part), term: msg.Term, seq: msg.Seq, counts: msg.Counts})
	case *wire.Crash:
		return m.hosts(msg.Part) && m.forward(&reply{part: int(msg.Part), term: msg.Term, crash: true})
	case *wire.HelloAck:
		m.handleAck(sess, msg)
		return true
	default:
		return false
	}
}

// hosts reports whether partition part lives on this address. A reply
// or crash notice naming any other partition is a protocol violation
// that poisons the session.
func (m *connMgr) hosts(part int32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return part >= 0 && int(part) < len(m.desired) && m.desired[part] != nil
}

func (m *connMgr) forward(rep *reply) bool {
	select {
	case m.sv.inbox <- rep:
		return true
	case <-m.sv.ctx.Done():
		return false
	}
}

// handleAck answers a HELLO acknowledgement: count the full cache hit,
// or send the blobs the worker asked for — each at most once per
// session, however many partitions request it.
func (m *connMgr) handleAck(sess *session, ack *wire.HelloAck) {
	r := m.sv.run
	if ack.Need == 0 {
		m.mu.Lock()
		m.cacheHits++
		m.mu.Unlock()
		return
	}
	sess.mu.Lock()
	needD := ack.Need&wire.NeedDataset != 0 && !sess.sentDataset
	needC := ack.Need&wire.NeedCands != 0 && !sess.sentCands && len(r.candsBlob) > 0
	sess.sentDataset = sess.sentDataset || needD
	sess.sentCands = sess.sentCands || needC
	sess.mu.Unlock()
	if needD {
		m.sendBlob(sess, wire.NeedDataset, r.datasetHash, r.datasetBlob)
	}
	if needC {
		m.sendBlob(sess, wire.NeedCands, r.candsHash, r.candsBlob)
	}
}

func (m *connMgr) sendBlob(sess *session, role uint8, hash wire.Hash, data []byte) {
	frame, err := wire.Encode(nil, &wire.Blob{Role: role, Hash: hash, Data: data})
	if err != nil {
		return // dataset past MaxFrame; surfaces as lease expiry
	}
	sess.sendControl(frame)
	m.mu.Lock()
	m.blobsSent++
	m.mu.Unlock()
}

// session is one established connection: a bounded write queue drained
// by a writer goroutine, and a done latch that ties reader, writer and
// watcher teardown together.
type session struct {
	conn net.Conn
	out  chan []byte
	done chan struct{}
	once sync.Once

	mu sync.Mutex
	// Per-session blob dedup: every partition's HELLO may ask for the
	// same content, which only has to cross the wire once.
	sentDataset, sentCands bool
}

func (s *session) close() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

// sendControl enqueues a frame that must not be silently lost (HELLO,
// Blob). If the queue is wedged full the session is poisoned instead:
// the redial resends every control frame from the desired state, which
// a drop would not.
func (s *session) sendControl(frame []byte) {
	if frame == nil {
		return
	}
	select {
	case s.out <- frame:
	case <-s.done:
	default:
		s.close()
	}
}

// sendData enqueues a request frame, dropping it when the queue is
// full — the same backpressure contract as the in-process mailbox: the
// queue never grows, the supervisor never blocks, and the drop surfaces
// as lease expiry.
func (s *session) sendData(frame []byte) {
	select {
	case s.out <- frame:
	default:
	}
}

func (s *session) writeLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case frame := <-s.out:
			if _, err := s.conn.Write(frame); err != nil {
				s.close()
				return
			}
		case <-s.done:
			return
		}
	}
}
