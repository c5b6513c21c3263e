//go:build faultinject

package shard

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/wire"
)

// Network chaos for the TCP transport: every scenario runs real
// shardworker processes on loopback with a scripted network fault
// between coordinator and worker — a connection dropped mid-frame, a
// reply truncated at the wire, duplicated frames, a worker process
// killed and restarted mid-run — mines through it, and asserts the same
// contract as the in-process chaos suite: the result is bit-identical
// to the undisturbed monolith and the recovery counters (restarts,
// redials, cache hits) prove the machinery actually fired.

// chaosNetLease keeps the recovery scenarios brisk without risking
// spurious expiries on a loaded -race runner: a healthy loopback round
// on the 80-row fixtures completes in well under a millisecond.
const chaosNetLease = 500 * time.Millisecond

// proxyAction is a faultProxy script's verdict on one relayed frame.
type proxyAction int

const (
	actForward      proxyAction = iota
	actHalfThenDrop             // write half the frame, then kill both conns
	actDuplicate                // write the frame twice
)

// dirC2W/dirW2C tag the relay direction a script sees.
const (
	dirC2W = '>' // coordinator → worker
	dirW2C = '<' // worker → coordinator
)

// faultProxy is a frame-aware TCP proxy between the coordinator and one
// shardworker: it parses the length-prefixed framing (header only — the
// payload stays opaque) and asks the script what to do with each frame,
// which is how the scenarios cut connections at exact protocol moments
// instead of racing a timer. Each coordinator dial gets its own backend
// connection, so the redial path flows through untouched.
type faultProxy struct {
	tb     testing.TB
	ln     net.Listener
	target string
	// script is called per frame with the direction, kind, and the
	// 1-based frame count of that direction within the current session.
	// It may be called from two goroutines (one per direction).
	script func(dir byte, kind wire.Kind, n int) proxyAction
}

func startProxy(tb testing.TB, target string, script func(dir byte, kind wire.Kind, n int) proxyAction) *faultProxy {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := &faultProxy{tb: tb, ln: ln, target: target, script: script}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(conn)
		}
	}()
	return p
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

// relay serves one coordinator connection against a fresh backend
// connection; either side's death (or a script kill) tears down both.
func (p *faultProxy) relay(co net.Conn) {
	cw, err := net.Dial("tcp", p.target)
	if err != nil {
		co.Close()
		return
	}
	var once sync.Once
	kill := func() {
		once.Do(func() {
			co.Close()
			cw.Close()
		})
	}
	go p.pump(dirC2W, co, cw, kill)
	p.pump(dirW2C, cw, co, kill)
}

func (p *faultProxy) pump(dir byte, src, dst net.Conn, kill func()) {
	defer kill()
	n := 0
	for {
		hdr := make([]byte, wire.HeaderSize)
		if _, err := io.ReadFull(src, hdr); err != nil {
			return
		}
		plen := binary.BigEndian.Uint32(hdr)
		if plen > wire.MaxFrame {
			return
		}
		frame := make([]byte, wire.HeaderSize+int(plen))
		copy(frame, hdr)
		if _, err := io.ReadFull(src, frame[wire.HeaderSize:]); err != nil {
			return
		}
		n++
		switch p.script(dir, wire.Kind(frame[5]), n) {
		case actForward:
			if _, err := dst.Write(frame); err != nil {
				return
			}
		case actDuplicate:
			if _, err := dst.Write(frame); err != nil {
				return
			}
			if _, err := dst.Write(frame); err != nil {
				return
			}
		case actHalfThenDrop:
			dst.Write(frame[:len(frame)/2])
			return
		}
	}
}

// The connection dies mid-SCORE: the first scoring request is cut in
// half on its way to the worker, killing both sides of the proxy. The
// worker's decoder rejects the torn frame, the coordinator synthesizes
// crash notices, redials, re-announces via HELLO (a cache hit — the
// worker process never died), and the run completes bit-identically.
func TestChaosNetConnDropMidScore(t *testing.T) {
	d := plantedDataset(t, 31)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	w := startWorker(t, "", "")
	var fired atomic.Bool
	proxy := startProxy(t, w.addr, func(dir byte, kind wire.Kind, n int) proxyAction {
		if dir == dirC2W && kind == wire.KindScore && fired.CompareAndSwap(false, true) {
			return actHalfThenDrop
		}
		return actForward
	})

	res, stats, err := mineSelect(context.Background(), d, cands, core.SelectOptions{K: 3},
		Config{Shards: 2, Workers: 2, Addrs: []string{proxy.addr()}, Lease: chaosNetLease, RedialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the drop never fired; scenario is vacuous")
	}
	if stats.redials == 0 {
		t.Fatal("the cut connection was never redialed")
	}
	if stats.restarts == 0 {
		t.Fatal("the dead session never surfaced as partition crashes")
	}
	sameResult(t, "net: conn drop mid-score", ref, res)
}

// A reply is truncated at the wire — the worker's completion arrives as
// a partial frame followed by EOF. The coordinator's decoder kills the
// session, and recovery is the same crash-synthesis + redial path as a
// clean connection drop.
func TestChaosNetPartialReplyThenClose(t *testing.T) {
	d := plantedDataset(t, 37)
	cands := mustCandidates(t, d)
	ref, err := core.MineGreedy(context.Background(), d, cands, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	w := startWorker(t, "", "")
	var fired atomic.Bool
	proxy := startProxy(t, w.addr, func(dir byte, kind wire.Kind, n int) proxyAction {
		if dir == dirW2C && kind == wire.KindReply && fired.CompareAndSwap(false, true) {
			return actHalfThenDrop
		}
		return actForward
	})

	res, stats, err := mineGreedy(context.Background(), d, cands, core.GreedyOptions{},
		Config{Shards: 2, Workers: 1, Addrs: []string{proxy.addr()}, Lease: chaosNetLease, RedialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the truncation never fired; scenario is vacuous")
	}
	if stats.redials == 0 || stats.restarts == 0 {
		t.Fatalf("recovery never fired: redials=%d restarts=%d", stats.redials, stats.restarts)
	}
	sameResult(t, "net: partial reply then close", ref, res)
}

// Every completion is delivered twice. The duplicates are discarded by
// value — the (part, term, seq) dedup rule — with no restart and no
// redial: a duplicating network is not a failure, just noise.
func TestChaosNetDuplicatedReplies(t *testing.T) {
	d := plantedDataset(t, 41)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	w := startWorker(t, "", "")
	proxy := startProxy(t, w.addr, func(dir byte, kind wire.Kind, n int) proxyAction {
		if dir == dirW2C && kind == wire.KindReply {
			return actDuplicate
		}
		return actForward
	})

	res, stats, err := mineSelect(context.Background(), d, cands, core.SelectOptions{K: 3},
		Config{Shards: 3, Workers: 2, Addrs: []string{proxy.addr()}, Lease: chaosNetLease})
	if err != nil {
		t.Fatal(err)
	}
	if stats.stale == 0 {
		t.Fatal("no duplicate was discarded; dedup untested")
	}
	if stats.restarts != 0 || stats.redials != 0 {
		t.Fatalf("duplicates caused recovery (restarts=%d redials=%d); dedup should be free", stats.restarts, stats.redials)
	}
	sameResult(t, "net: duplicated replies", ref, res)
}

// The worker process is killed after the first accepted rule and a
// replacement is started on the same address with the same cache
// directory. The coordinator redials, re-announces every incarnation
// with its accepted-rule log, and the replacement answers each HELLO
// from its on-disk cache — the restart transfers zero blobs.
func TestChaosNetWorkerRestartCacheHit(t *testing.T) {
	d := twoPlantDataset(t, 43)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) < 2 {
		t.Fatal("need at least 2 reference rules so the kill lands mid-run")
	}

	cacheDir := t.TempDir()
	w := startWorker(t, "", cacheDir)
	addr := w.addr

	killed := false
	onIter := func(core.IterationStats) bool {
		if !killed {
			killed = true
			w.kill()
			// Same address, same cache: the replacement must serve every
			// re-announced HELLO without a transfer. startWorker blocks
			// until it is listening, so the coordinator's redial loop
			// (backing off deterministically against the dead port) finds
			// it as soon as the backoff allows.
			startWorker(t, addr, cacheDir)
		}
		return true
	}

	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 3, OnIteration: onIter},
		Config{Shards: 2, Workers: 2, Addrs: []string{addr}, Lease: chaosNetLease, RedialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("the kill never fired; scenario is vacuous")
	}
	if stats.redials == 0 || stats.restarts == 0 {
		t.Fatalf("recovery never fired: redials=%d restarts=%d", stats.redials, stats.restarts)
	}
	if stats.cacheHits == 0 {
		t.Fatal("the restarted worker never answered a HELLO from cache")
	}
	if stats.blobsSent != 2 {
		t.Fatalf("blobsSent = %d, want 2 (dataset+candidates, first session only — a restart must transfer nothing)", stats.blobsSent)
	}
	sameResult(t, "net: worker restart with cache-hit HELLO", ref, res)
}
