package shard

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/wire"
)

// fakePeer is a shardworker stand-in that speaks internal/wire on
// loopback. It hosts its partitions itself, as core.PartialStates over
// the test's dataset and candidates (shared in memory, so every HELLO
// is answered as a cache hit), and passes each reply it computes
// through corrupt before sending it — the hook the tests use to play a
// faulty peer.
type fakePeer struct {
	ln    net.Listener
	d     *dataset.Dataset
	cands []core.Candidate
	// corrupt returns the frame to send in place of the n-th reply
	// (counted across the peer's lifetime), or nil to send nothing.
	corrupt func(n int, rep *wire.Reply) wire.Msg

	mu    sync.Mutex
	sent  int
	conns []net.Conn
	wg    sync.WaitGroup
}

type fakeHost struct {
	term uint64
	ps   *core.PartialState
}

func startFakePeer(t *testing.T, d *dataset.Dataset, cands []core.Candidate, corrupt func(int, *wire.Reply) wire.Msg) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, d: d, cands: cands, corrupt: corrupt}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, conn)
			p.mu.Unlock()
			p.wg.Add(1)
			go p.serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

// serve answers one coordinator session, one frame at a time.
func (p *fakePeer) serve(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	hosts := map[int32]*fakeHost{}
	var rbuf, wbuf []byte
	for {
		var msg wire.Msg
		var err error
		if msg, rbuf, err = wire.ReadMsg(conn, rbuf); err != nil {
			return
		}
		var out wire.Msg
		switch m := msg.(type) {
		case *wire.Hello:
			ps := core.NewPartialState(p.d, int(m.LoL), int(m.HiL), int(m.LoR), int(m.HiR))
			ps.Replay(m.Log, nil)
			hosts[m.Part] = &fakeHost{term: m.Term, ps: ps}
			out = &wire.HelloAck{Part: m.Part, Term: m.Term}
		case *wire.Score:
			h := hosts[m.Part]
			if h == nil || h.term != m.Term {
				continue
			}
			rep := &wire.Reply{Part: m.Part, Term: m.Term, Seq: m.Seq}
			dirty := core.NewDirtyItems(p.d, m.Dirty)
			for _, ci := range m.CandIdx {
				c := &p.cands[ci]
				rep.Counts = append(rep.Counts, h.ps.ScoreRule(c.X, c.Y, c.TidX, c.TidY, dirty))
			}
			out = p.pass(rep)
		case *wire.Apply:
			h := hosts[m.Part]
			if h == nil || h.term != m.Term {
				continue
			}
			out = p.pass(&wire.Reply{Part: m.Part, Term: m.Term, Seq: m.Seq,
				Counts: []core.DirCounts{h.ps.Apply(m.Rule, nil, nil)}})
		}
		if out == nil {
			continue
		}
		if wbuf, err = wire.WriteMsg(conn, wbuf, out); err != nil {
			return
		}
	}
}

func (p *fakePeer) pass(rep *wire.Reply) wire.Msg {
	p.mu.Lock()
	n := p.sent
	p.sent++
	p.mu.Unlock()
	if p.corrupt == nil {
		return rep
	}
	return p.corrupt(n, rep)
}

// TestMalformedRepliesNeverPanic plays a faulty wire peer against the
// coordinator. Each malformed frame — a reply or crash notice naming a
// partition the connection does not host, a reply with too few or too
// many entries, a count for an item outside the partition — would have
// indexed past a slice in the supervisor or the folds. Sent once, it
// must be recovered from (a restart, then a table identical to the
// monolith's); sent every time, it must fail the run with an error.
func TestMalformedRepliesNeverPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mining sessions over loopback TCP")
	}
	d := twoPlantDataset(t, 53)
	cands := mustCandidates(t, d)
	opt := core.SelectOptions{K: 3}
	ref, err := core.MineSelect(context.Background(), d, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) < 2 {
		t.Fatal("need at least 2 reference rules, so that later rounds run")
	}

	faults := []struct {
		name    string
		corrupt func(rep *wire.Reply) wire.Msg
	}{
		{"part out of range", func(rep *wire.Reply) wire.Msg {
			rep.Part = 99
			return rep
		}},
		{"negative part", func(rep *wire.Reply) wire.Msg {
			rep.Part = -1
			return rep
		}},
		{"crash for unknown part", func(rep *wire.Reply) wire.Msg {
			return &wire.Crash{Part: 7, Term: rep.Term}
		}},
		{"missing entry", func(rep *wire.Reply) wire.Msg {
			rep.Counts = rep.Counts[:len(rep.Counts)-1]
			return rep
		}},
		{"extra entry", func(rep *wire.Reply) wire.Msg {
			rep.Counts = append(rep.Counts, core.DirCounts{})
			return rep
		}},
		{"item outside partition", func(rep *wire.Reply) wire.Msg {
			dc := &rep.Counts[0]
			dc.Fwd = append(dc.Fwd, core.ItemCount{Item: 1000, Covered: 1})
			return rep
		}},
		{"missing item", func(rep *wire.Reply) wire.Msg {
			for k := range rep.Counts {
				if dc := &rep.Counts[k]; len(dc.Back) > 0 {
					dc.Back = dc.Back[1:]
					return rep
				}
			}
			rep.Counts = nil
			return rep
		}},
	}
	// Reply 0 answers the first SCORE round; reply 5 falls in a later
	// round (two partitions answer each round on the one peer).
	for _, at := range []int{0, 5} {
		for _, f := range faults {
			peer := startFakePeer(t, d, cands, func(n int, rep *wire.Reply) wire.Msg {
				if n != at {
					return rep
				}
				return f.corrupt(rep)
			})
			cfg := Config{Shards: 2, Workers: 1, Addrs: []string{peer.ln.Addr().String()},
				Lease: 5 * time.Second, MaxRestarts: 10, RedialBackoff: 5 * time.Millisecond}
			res, stats, err := mineSelect(context.Background(), d, cands, opt, cfg)
			if err != nil {
				t.Fatalf("%s at reply %d: %v", f.name, at, err)
			}
			if stats.restarts == 0 {
				t.Fatalf("%s at reply %d: no partition was restarted", f.name, at)
			}
			sameResult(t, f.name, ref, res)
		}
	}

	// A peer that garbles every reply never completes a round: the
	// restart budget ends the run with an error.
	for _, f := range faults {
		peer := startFakePeer(t, d, cands, func(_ int, rep *wire.Reply) wire.Msg { return f.corrupt(rep) })
		cfg := Config{Shards: 2, Workers: 1, Addrs: []string{peer.ln.Addr().String()},
			Lease: 5 * time.Second, MaxRestarts: 4, RedialBackoff: 5 * time.Millisecond}
		_, _, err := mineSelect(context.Background(), d, cands, opt, cfg)
		if err == nil || !strings.Contains(err.Error(), "restart budget") {
			t.Fatalf("persistent %s: err = %v, want the restart-budget failure", f.name, err)
		}
	}
}
