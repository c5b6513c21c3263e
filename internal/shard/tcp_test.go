package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/wire"
)

// Worker-process harness shared by the TCP property tests, the network
// chaos suite (chaos_net_test.go) and BenchmarkShardTCPLoopback: build
// cmd/shardworker once per test binary, launch real worker processes on
// loopback, and scrape their ephemeral listen addresses.

var workerBin struct {
	once sync.Once
	path string
	err  error
}

// buildWorker builds the shardworker binary (once) and returns its path.
func buildWorker(tb testing.TB) string {
	tb.Helper()
	workerBin.once.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			workerBin.err = err
			return
		}
		dir, err := os.MkdirTemp("", "shardworker-bin-")
		if err != nil {
			workerBin.err = err
			return
		}
		out := filepath.Join(dir, "shardworker")
		cmd := exec.Command("go", "build", "-o", out, "./cmd/shardworker")
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			workerBin.err = fmt.Errorf("building shardworker: %v\n%s", err, msg)
			return
		}
		workerBin.path = out
	})
	if workerBin.err != nil {
		tb.Fatal(workerBin.err)
	}
	return workerBin.path
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// workerProc is one running shardworker process.
type workerProc struct {
	tb    testing.TB
	cmd   *exec.Cmd
	addr  string
	cache string
}

// startWorker launches a shardworker on the given address ("" = an
// ephemeral loopback port) with the given cache directory ("" = a fresh
// private one) and waits for it to report its listen address.
func startWorker(tb testing.TB, addr, cache string) *workerProc {
	tb.Helper()
	bin := buildWorker(tb)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if cache == "" {
		cache = tb.TempDir()
	}
	cmd := exec.Command(bin, "-addr", addr, "-cache", cache)
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		tb.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	w := &workerProc{tb: tb, cmd: cmd, cache: cache}
	tb.Cleanup(w.kill)

	lines := bufio.NewScanner(stdout)
	got := make(chan bool, 1)
	go func() { got <- lines.Scan() }()
	select {
	case ok := <-got:
		if !ok {
			tb.Fatal("shardworker exited before reporting its address")
		}
	case <-time.After(10 * time.Second):
		tb.Fatal("shardworker did not report its address")
	}
	line := lines.Text()
	w.addr = strings.TrimPrefix(line, "listening ")
	if w.addr == line || w.addr == "" {
		tb.Fatalf("unexpected shardworker banner %q", line)
	}
	// Drain the rest of stdout so the worker never blocks on a full pipe.
	go func() {
		for lines.Scan() {
		}
	}()
	return w
}

// kill terminates the worker immediately (also the cleanup path).
// Idempotent, so chaos tests can kill mid-run and let cleanup re-fire.
func (w *workerProc) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.cmd.Wait()
}

// tcpGrid is the acceptance grid of the TCP transport: shards ∈ {2, 3}
// spread over 2 worker processes, workers ∈ {1, 4} inside each shard.
var tcpShards = []int{2, 3}
var tcpWorkers = []int{1, 4}

// TestTCPShardedMatchesMonolith is the distributed acceptance property:
// SELECT and GREEDY mined over TCP — two real shardworker processes on
// loopback — must be bit-identical to the monolith for every (shards,
// workers) cell. It also pins the HELLO-time transfer
// economics across the runs sharing the workers: the dataset and
// candidate blobs cross the wire once each, and every later run boots
// from cache hits.
func TestTCPShardedMatchesMonolith(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shardworker processes")
	}
	d := plantedDataset(t, 29)
	cands := mustCandidates(t, d)
	refSelect, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	refGreedy, err := core.MineGreedy(context.Background(), d, cands, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(refSelect.Table.Rules) == 0 || len(refGreedy.Table.Rules) == 0 {
		t.Fatal("a reference mined no rules; test is vacuous")
	}

	w1 := startWorker(t, "", "")
	w2 := startWorker(t, "", "")
	addrs := []string{w1.addr, w2.addr}

	ctx := context.Background()
	totalBlobs, totalHits := 0, 0
	for _, shards := range tcpShards {
		for _, workers := range tcpWorkers {
			cfg := Config{Shards: shards, Workers: workers, Addrs: addrs}

			res, st, err := mineSelect(ctx, d, cands, core.SelectOptions{K: 3}, cfg)
			if err != nil {
				t.Fatalf("tcp select shards=%d workers=%d: %v", shards, workers, err)
			}
			sameResult(t, formatCell("tcp select", shards, workers), refSelect, res)
			if st.dials < 2 {
				t.Fatalf("select shards=%d: dialed %d workers, want 2", shards, st.dials)
			}
			totalBlobs += st.blobsSent
			totalHits += st.cacheHits

			res, st, err = mineGreedy(ctx, d, cands, core.GreedyOptions{}, cfg)
			if err != nil {
				t.Fatalf("tcp greedy shards=%d workers=%d: %v", shards, workers, err)
			}
			sameResult(t, formatCell("tcp greedy", shards, workers), refGreedy, res)
			totalBlobs += st.blobsSent
			totalHits += st.cacheHits
		}
	}
	// Across all runs, each worker needed the dataset once and the
	// candidate list once: 4 transfers total, everything else cache hits.
	if totalBlobs != 4 {
		t.Errorf("blobs sent across all runs = %d, want 4 (dataset+candidates × 2 workers)", totalBlobs)
	}
	if totalHits == 0 {
		t.Error("no HELLO answered from cache across repeat runs")
	}
}

// TestTCPPublicDispatch pins the ShardAddrs plumbing end to end: the
// public core entry point with only ShardAddrs set (Shards left 0) must
// route through the TCP engine and still match the monolith.
func TestTCPPublicDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shardworker processes")
	}
	d := plantedDataset(t, 31)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, "", "")
	w2 := startWorker(t, "", "")
	res, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{
		K:               3,
		ParallelOptions: core.ParallelOptions{ShardAddrs: []string{w1.addr, w2.addr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "public ShardAddrs dispatch", ref, res)
}

// TestMailboxBackpressure is the regression test of the backpressure
// contract: deliver on a full in-process mailbox returns immediately
// and drops (never blocks, never grows the queue), and an undrained
// queue surfaces as lease expiry — the supervisor restarts the
// partition and the round still completes.
func TestMailboxBackpressure(t *testing.T) {
	// deliver past a full mailbox: bounded and non-blocking. If it
	// blocked, the test would time out; the queue must also never exceed
	// the shared backpressure constant.
	dead := &proc{mailbox: make(chan wire.Msg, queueDepth)}
	lt := &localTransport{procs: []*proc{dead}}
	for i := 0; i < queueDepth+5; i++ {
		lt.deliver(0, &wire.Score{})
	}
	if len(dead.mailbox) != queueDepth {
		t.Fatalf("mailbox holds %d requests, want the backpressure bound %d", len(dead.mailbox), queueDepth)
	}

	// A wedged partition whose mailbox is never drained again: the
	// dispatched request sits in the bounded queue, the lease expires,
	// and the supervisor rebuilds — queue-full is lease-expiry, not a
	// hang.
	d := plantedDataset(t, 37)
	cands := mustCandidates(t, d)
	r := newRun(context.Background(), d, cands, Config{Shards: 2, Lease: 50 * time.Millisecond, MaxRestarts: 10})
	defer r.close()
	lt2 := r.sv.tr.(*localTransport)
	lt2.procs[0].cancel() // wedge partition 0 silently
	reps, err := r.sv.scoreCands([]int32{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0] == nil || reps[1] == nil {
		t.Fatal("round did not gather both partitions")
	}
	if r.sv.restarts == 0 {
		t.Fatal("undrained queue did not surface as lease expiry")
	}
}

// BenchmarkShardTCPLoopback measures a full SELECT mining run through
// the sharded engine, in-process versus two shardworker processes on
// loopback — the protocol and codec overhead of distribution.
func BenchmarkShardTCPLoopback(b *testing.B) {
	d := plantedDataset(b, 41)
	cands := mustCandidates(b, d)
	opt := core.SelectOptions{K: 3}
	ctx := context.Background()

	b.Run("inproc", func(b *testing.B) {
		cfg := Config{Shards: 2, Workers: 2}
		for i := 0; i < b.N; i++ {
			if _, _, err := mineSelect(ctx, d, cands, opt, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		w1 := startWorker(b, "", "")
		w2 := startWorker(b, "", "")
		cfg := Config{Shards: 2, Workers: 2, Addrs: []string{w1.addr, w2.addr}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mineSelect(ctx, d, cands, opt, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
