package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/wire"

	// Arm ParallelOptions.Shards / ShardAddrs (core cannot import the
	// sharded engine; it registers itself).
	_ "twoview/internal/shard"
)

// shardWorkers is the number of shardworker processes of shard-tcp.
const shardWorkers = 2

// workerProc is one running shardworker process.
type workerProc struct {
	cmd  *exec.Cmd
	addr string
}

// startWorker launches a shardworker on an ephemeral loopback port with
// an in-memory blob cache and waits for it to print its address. The
// process is killed if the benchmark dies first.
func startWorker(bin string) (*workerProc, error) {
	if bin == "" {
		return nil, errors.New("no shardworker binary given (-shardworker)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting shardworker: %w", err)
	}
	w := &workerProc{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Scan()
		line <- sc.Text()
		io.Copy(io.Discard, stdout) // until the process exits
	}()
	select {
	case l := <-line:
		addr, ok := strings.CutPrefix(l, "listening ")
		if !ok {
			w.stop()
			return nil, fmt.Errorf("shardworker printed %q, want its listen address", l)
		}
		w.addr = addr
		return w, nil
	case <-time.After(10 * time.Second):
		w.stop()
		return nil, errors.New("shardworker did not report its address")
	}
}

// peakRSS is the worker's high-water RSS in MB.
func (w *workerProc) peakRSS() (float64, error) { return peakRSSMB(w.cmd.Process.Pid) }

// stop kills the worker and waits for it to exit.
func (w *workerProc) stop() {
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

// cluster is a set of shard workers, optionally each behind a counting
// proxy.
type cluster struct {
	workers []*workerProc
	proxies []*proxy
}

func startCluster(bin string, proxied bool) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < shardWorkers; i++ {
		w, err := startWorker(bin)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		if proxied {
			p, err := startProxy(w.addr)
			if err != nil {
				c.stop()
				return nil, err
			}
			c.proxies = append(c.proxies, p)
		}
	}
	return c, nil
}

// addrs are the addresses the coordinator dials.
func (c *cluster) addrs() []string {
	var out []string
	for i, w := range c.workers {
		if c.proxies != nil {
			out = append(out, c.proxies[i].addr())
		} else {
			out = append(out, w.addr)
		}
	}
	return out
}

// traffic returns the frames and bytes the proxies forwarded, both
// directions, and resets the counters.
func (c *cluster) traffic() (frames, n int64) {
	for _, p := range c.proxies {
		frames += p.frames.Swap(0)
		n += p.bytes.Swap(0)
	}
	return frames, n
}

func (c *cluster) peakRSS() ([]float64, error) {
	var out []float64
	for _, w := range c.workers {
		rss, err := w.peakRSS()
		if err != nil {
			return nil, err
		}
		out = append(out, rss)
	}
	return out, nil
}

func (c *cluster) stop() {
	for _, p := range c.proxies {
		p.close()
	}
	for _, w := range c.workers {
		w.stop()
	}
}

// coldTransfer runs one SELECT round against fresh workers, whose
// caches are empty: the HELLO blob transfer of the dataset and the
// candidate list, so the measured runs start from warm caches.
func (b *bench) coldTransfer(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, addrs []string) error {
	_, err := core.MineSelect(ctx, d, cands, core.SelectOptions{
		K: 1, MaxRules: 1, ParallelOptions: core.ParallelOptions{Workers: b.workers, ShardAddrs: addrs},
	})
	if err != nil {
		return fmt.Errorf("cold blob transfer: %w", err)
	}
	return nil
}

// runShardTCP drives shard-tcp: the mine-dense pipeline with SELECT and
// GREEDY partitioned over shardworker processes on loopback.
func (b *bench) runShardTCP() error {
	ctx := context.Background()
	var setup []float64
	var d *dataset.Dataset
	var cl *cluster
	for i := 0; i < shardSetupReps; i++ {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		start := time.Now()
		var err error
		if d, err = makeInput(b.spec.profile, b.seed, false); err != nil {
			return err
		}
		cands, err := core.MineCandidates(ctx, d, b.spec.minsup, b.spec.maxCands, core.Parallel(b.workers))
		if err != nil {
			return err
		}
		if cl, err = startCluster(b.bin, false); err != nil {
			return err
		}
		if err := b.coldTransfer(ctx, d, cands, cl.addrs()); err != nil {
			cl.stop()
			return err
		}
		setup = append(setup, seconds(time.Since(start)))
	}
	defer cl.stop()

	ref, err := b.reference(ctx, d)
	if err != nil {
		return err
	}
	sess := core.NewSession()
	defer sess.Close()
	par := core.ParallelOptions{Workers: b.workers, ShardAddrs: cl.addrs(), Session: sess}
	outs := b.measure(ctx, d, par, nil, ref.tables, b.window)
	if len(outs) == 0 {
		return fmt.Errorf("no repetition succeeded")
	}
	if !b.traced {
		rss, err := cl.peakRSS()
		if err != nil {
			return err
		}
		return b.reportEndToEnd(d, setup, outs, rss)
	}

	// Traced: fresh workers behind counting proxies, so the cold
	// transfer and the measured runs' frames are counted separately.
	pcl, err := startCluster(b.bin, true)
	if err != nil {
		return err
	}
	defer pcl.stop()
	if err := b.coldTransfer(ctx, d, outs[0].cands, pcl.addrs()); err != nil {
		return err
	}
	_, setupBytes := pcl.traffic()
	tpar := par
	tpar.ShardAddrs = pcl.addrs()
	traced := b.measure(ctx, d, tpar, b.tr, ref.tables, b.window)
	if len(traced) == 0 {
		return fmt.Errorf("no traced repetition succeeded")
	}
	frames, n := pcl.traffic()

	mono := b.measure(ctx, d, core.ParallelOptions{Workers: b.workers, Session: sess}, nil, ref.tables, b.window/3)
	if err := b.reportLayers(ctx, d, par, layerInputs{ref: ref, untraced: outs, traced: traced, monolith: median(walls(mono))}); err != nil {
		return err
	}
	perRun := float64(len(traced))
	b.rep.set("wire.frames", float64(frames)/perRun)
	b.rep.set("wire.bytes", float64(n)/perRun)
	b.rep.set("wire.bytes_per_rule", float64(n)/perRun/float64(traced[0].rules))
	b.rep.set("wire.setup_bytes", float64(setupBytes))
	return nil
}

// shardSetupReps is how often shard-tcp repeats its set-up (two process
// spawns and a cold transfer each).
const shardSetupReps = 3

// proxy forwards TCP connections to a target, counting whole wire
// frames and bytes in both directions.
type proxy struct {
	ln     net.Listener
	target string
	frames atomic.Int64
	bytes  atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(up, down)
		go p.pump(down, up)
	}
}

// pump copies frames one way; when either side ends it closes both, so
// the opposite pump ends too.
func (p *proxy) pump(dst, src net.Conn) {
	defer p.wg.Done()
	copyFrames(dst, src, &p.frames, &p.bytes)
	dst.Close()
	src.Close()
}

// close stops accepting, cuts every connection and waits for the pumps.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// copyFrames copies whole wire frames from src to dst, adding each to
// the counters once it is forwarded. It returns nil at a clean end of
// stream between frames.
func copyFrames(dst io.Writer, src io.Reader, frames, n *atomic.Int64) error {
	var buf []byte
	hdr := make([]byte, wire.HeaderSize)
	for {
		if _, err := io.ReadFull(src, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		size, err := wire.FrameLen(hdr)
		if err != nil {
			return err
		}
		buf = slices.Grow(buf[:0], wire.HeaderSize+size)[:wire.HeaderSize+size]
		copy(buf, hdr)
		if _, err := io.ReadFull(src, buf[wire.HeaderSize:]); err != nil {
			return err
		}
		if _, err := dst.Write(buf); err != nil {
			return err
		}
		frames.Add(1)
		n.Add(int64(len(buf)))
	}
}
