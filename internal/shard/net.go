package shard

import (
	"context"
	"net"
	"slices"
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
			desired: make([]*wire.Hello, len(sv.parts)),
			parked:  make([]wire.Msg, len(sv.parts)),
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
	t.byPart[part].spawn(t.sv.hello(part, term, log))
}

func (t *tcpTransport) deliver(part int, req wire.Msg) {
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
// (the dialer honours it and each connection's watcher closes it).
func (t *tcpTransport) close() {}

// connMgr owns one worker address: it dials (and redials, with
// deterministic backoff), announces the desired incarnations on every
// new connection, relays replies, and converts connection death into
// crash notices. One goroutine per address runs loop; spawn and
// deliver are called from the supervisor goroutine.
type connMgr struct {
	sv   *supervisor
	addr string
	// nparts is how many partitions this address hosts; it sizes each
	// connection's write queue: queueDepth data frames per partition
	// plus headroom for the control frames (HELLOs, blobs).
	nparts int

	mu sync.Mutex
	// desired[p] is the HELLO of partition p's current incarnation when
	// it is hosted here, nil otherwise.
	desired []*wire.Hello
	// parked[p] is the newest request dispatched to partition p while no
	// connection was up (the initial dial, or a redial window); a fresh
	// connection sends it right after the HELLOs. One slot per partition
	// — the same depth-bounded, newest-wins contract as every other
	// queue here — and it only shortcuts the wait: a request that stayed
	// parked is recovered by the lease like any other drop.
	parked []wire.Msg
	conn   *Conn

	dials     int
	blobsSent int
	cacheHits int
}

func (m *connMgr) spawn(h *wire.Hello) {
	m.mu.Lock()
	m.desired[h.Part] = h
	conn := m.conn
	m.mu.Unlock()
	if conn != nil {
		sendControl(conn, h)
	}
}

func (m *connMgr) deliver(part int, req wire.Msg) {
	m.mu.Lock()
	conn := m.conn
	if conn == nil {
		m.parked[part] = req // delivered on connect; the lease backstops
		m.mu.Unlock()
		return
	}
	m.parked[part] = nil
	m.mu.Unlock()
	conn.Offer(encode(req))
}

// encode frames m. A message past MaxFrame (a log or dataset far beyond
// any real run) encodes to nil, which writes nothing: the missing frame
// surfaces as lease expiry.
func encode(m wire.Msg) []byte {
	frame, _ := wire.Encode(nil, m)
	return frame
}

// sendControl enqueues a frame that must not be silently lost (HELLO,
// Blob). If the queue is wedged full the connection is poisoned
// instead: the redial resends every control frame from the desired
// state, which a drop would not.
func sendControl(conn *Conn, m wire.Msg) {
	if !conn.Offer(encode(m)) {
		conn.Close()
	}
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

// serve runs one established connection: announce the desired
// incarnations, relay frames both ways, and on any failure synthesize
// crash notices for everything this address hosted — a dead connection
// and a crashed shard are the same event to the supervisor.
func (m *connMgr) serve(nc net.Conn) {
	sv := m.sv
	conn := NewConn(sv.ctx, nc, queueDepth*m.nparts+m.nparts+4, &sv.run.wg)

	m.mu.Lock()
	m.dials++
	m.conn = conn
	announce := slices.Clone(m.desired)
	queued := slices.Clone(m.parked)
	clear(m.parked)
	m.mu.Unlock()
	for _, h := range announce {
		if h != nil {
			sendControl(conn, h)
		}
	}
	// Requests that arrived while disconnected ride right behind the
	// HELLOs (same FIFO queue, so the worker sees the announcement
	// first); without this, every dial window would cost a full lease.
	for _, req := range queued {
		if req != nil {
			conn.Offer(encode(req))
		}
	}

	// sent holds the Need bits of the blobs already sent: every
	// partition's HELLO may ask for the same content, which only has to
	// cross the connection once.
	var sent uint8
	conn.Read(func(msg wire.Msg) bool { return m.handle(conn, msg, &sent) })

	// Terms may have moved while the connection was dying; the crash
	// notices carry the current desired terms so none arrives stale.
	m.mu.Lock()
	m.conn = nil
	dead := slices.Clone(m.desired)
	m.mu.Unlock()
	for _, h := range dead {
		if h == nil {
			continue
		}
		select {
		case sv.inbox <- &wire.Crash{Part: h.Part, Term: h.Term}:
		case <-sv.ctx.Done():
			return
		}
	}
}

// handle processes one inbound frame. A false return poisons the
// connection: an unexpected kind, or a reply for a partition this
// address does not host, means the peer and coordinator disagree about
// the protocol state, and the only safe recovery is the redial path.
func (m *connMgr) handle(conn *Conn, msg wire.Msg, sent *uint8) bool {
	switch msg := msg.(type) {
	case *wire.Reply:
		return m.hosts(msg.Part) && m.forward(msg)
	case *wire.Crash:
		return m.hosts(msg.Part) && m.forward(msg)
	case *wire.HelloAck:
		m.handleAck(conn, msg, sent)
		return true
	default:
		return false
	}
}

// hosts reports whether partition part lives on this address. A reply
// or crash notice naming any other partition is a protocol violation
// that poisons the connection.
func (m *connMgr) hosts(part int32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return part >= 0 && int(part) < len(m.desired) && m.desired[part] != nil
}

func (m *connMgr) forward(msg wire.Msg) bool {
	select {
	case m.sv.inbox <- msg:
		return true
	case <-m.sv.ctx.Done():
		return false
	}
}

// handleAck answers a HELLO acknowledgement: count the full cache hit,
// or send the blobs the worker asked for that this connection has not
// sent yet.
func (m *connMgr) handleAck(conn *Conn, ack *wire.HelloAck, sent *uint8) {
	r := m.sv.run
	if ack.Need == 0 {
		m.mu.Lock()
		m.cacheHits++
		m.mu.Unlock()
		return
	}
	need := ack.Need &^ *sent
	if len(r.candsBlob) == 0 {
		need &^= wire.NeedCands
	}
	*sent |= need
	if need&wire.NeedDataset != 0 {
		m.sendBlob(conn, &wire.Blob{Role: wire.NeedDataset, Hash: r.datasetHash, Data: r.datasetBlob})
	}
	if need&wire.NeedCands != 0 {
		m.sendBlob(conn, &wire.Blob{Role: wire.NeedCands, Hash: r.candsHash, Data: r.candsBlob})
	}
}

func (m *connMgr) sendBlob(conn *Conn, b *wire.Blob) {
	sendControl(conn, b)
	m.mu.Lock()
	m.blobsSent++
	m.mu.Unlock()
}

// Conn is one established framed connection, the same at both ends of
// the TCP transport: a bounded write queue drained by a writer
// goroutine, a watcher that closes the connection when its context
// ends, and a done latch that ties reader, writer and watcher teardown
// together.
type Conn struct {
	nc   net.Conn
	out  chan []byte
	done chan struct{}
	once sync.Once
}

// NewConn starts nc's writer and watcher goroutines, tracked on wg;
// depth bounds the write queue.
func NewConn(ctx context.Context, nc net.Conn, depth int, wg *sync.WaitGroup) *Conn {
	c := &Conn{nc: nc, out: make(chan []byte, depth), done: make(chan struct{})}
	wg.Add(2)
	go func() { // a cancelled context must unblock the reader
		defer wg.Done()
		select {
		case <-ctx.Done():
			c.Close()
		case <-c.done:
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case frame := <-c.out:
				if _, err := c.nc.Write(frame); err != nil {
					c.Close()
					return
				}
			case <-c.done:
				return
			}
		}
	}()
	return c
}

// Close closes the connection; it is idempotent.
func (c *Conn) Close() {
	c.once.Do(func() {
		close(c.done)
		c.nc.Close()
	})
}

// Read decodes frames and hands each to handle until the stream fails
// or handle returns false, then closes the connection. Any framing or
// codec error poisons the stream: the protocol has no frame
// resynchronization, recovery is the coordinator's redial path.
func (c *Conn) Read(handle func(wire.Msg) bool) {
	var buf []byte
	for {
		msg, b, err := wire.ReadMsg(c.nc, buf)
		buf = b
		if err != nil || !handle(msg) {
			break
		}
	}
	c.Close()
}

// Offer enqueues frame without blocking and reports whether the queue
// had room. A dropped request frame is the backpressure contract of
// every queue here: the queue never grows, the sender never blocks, and
// the drop surfaces as lease expiry.
func (c *Conn) Offer(frame []byte) bool {
	select {
	case c.out <- frame:
		return true
	default:
		return false
	}
}

// Send enqueues frame, blocking until the writer has room or the
// connection is closed.
func (c *Conn) Send(frame []byte) {
	select {
	case c.out <- frame:
	case <-c.done:
	}
}
