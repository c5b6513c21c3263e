package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/server"
)

// The serve traffic: a seeded closed-loop mix in which 7 in 8 requests
// translate one row and 1 in 8 translate a batch of batchRows rows, all
// drawn from the left view of the workload's data.
const (
	batchRows   = 64
	batchOneIn  = 8
	checkOneIn  = 16 // every 16th response per client is checked against the in-process translator
	singlesPool = 4096
	batchesPool = 256
)

// request is one pre-encoded request body and the dataset rows it
// translates.
type request struct {
	body []byte
	rows []int
}

// traffic is the request pool of a load run plus the expected
// translation of every dataset row (the oracle).
type traffic struct {
	singles, batches []request
	expect           [][]int
}

// newTraffic draws the request pool from the seed and computes the
// expected output of every row with the in-process translator.
func newTraffic(ctx context.Context, d *dataset.Dataset, tr *core.Translator, seed int64) (*traffic, error) {
	all := leftRows(d)
	expect, err := tr.TranslateBatchIDs(ctx, dataset.Left, all)
	if err != nil {
		return nil, fmt.Errorf("in-process oracle: %w", err)
	}
	r := rand.New(rand.NewSource(seed))
	tf := &traffic{expect: expect}
	for i := 0; i < singlesPool; i++ {
		t := r.Intn(d.Size())
		body, err := json.Marshal(map[string]any{"from": "L", "items": all[t]})
		if err != nil {
			return nil, err
		}
		tf.singles = append(tf.singles, request{body: body, rows: []int{t}})
	}
	for i := 0; i < batchesPool; i++ {
		rows := make([]int, batchRows)
		ids := make([][]int, batchRows)
		for j := range rows {
			rows[j] = r.Intn(d.Size())
			ids[j] = all[rows[j]]
		}
		body, err := json.Marshal(map[string]any{"from": "L", "rows": ids})
		if err != nil {
			return nil, err
		}
		tf.batches = append(tf.batches, request{body: body, rows: rows})
	}
	return tf, nil
}

// httpServer is translatord's handler on a loopback listener.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan error
}

func startServer(tr *core.Translator) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		hs:   &http.Server{Handler: server.New(tr, server.Options{}).Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.url + "/readyz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("server readiness: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("server readiness: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// loadResult is what one closed-loop load run observed.
type loadResult struct {
	single, batch  []float64 // latency per request class, ms
	rows           int
	requests       int
	shed, timeouts int
	elapsed        time.Duration
	alloc          uint64
	problems       []string // failed requests: status, transport error or mismatch
}

func (lr *loadResult) all() []float64 { return append(slices.Clone(lr.single), lr.batch...) }

// runLoad drives the server with `clients` closed-loop keep-alive
// clients for dur. Each client draws its request sequence from its own
// seeded generator. With a tracer, every request is a span under a
// "serve" span covering the whole run.
func runLoad(url string, tf *traffic, clients int, dur time.Duration, seed int64, tr *tracer) *loadResult {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	parts := make([]loadResult, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("serve", 0)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clientLoop(client, url, tf, deadline, rand.New(rand.NewSource(seed*7919+int64(c))), tr, root, &parts[c])
		}(c)
	}
	wg.Wait()
	out := &loadResult{elapsed: time.Since(start)}
	tr.end(root)
	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// merge adds the samples and counts of another load run to lr.
func (lr *loadResult) merge(o *loadResult) {
	lr.single = append(lr.single, o.single...)
	lr.batch = append(lr.batch, o.batch...)
	lr.rows += o.rows
	lr.requests += o.requests
	lr.shed += o.shed
	lr.timeouts += o.timeouts
	lr.elapsed += o.elapsed
	lr.alloc += o.alloc
	lr.problems = append(lr.problems, o.problems...)
}

func clientLoop(client *http.Client, url string, tf *traffic, deadline time.Time, r *rand.Rand, tr *tracer, root int, out *loadResult) {
	for time.Now().Before(deadline) {
		batch := r.Intn(batchOneIn) == 0
		req, path, name := tf.singles[r.Intn(len(tf.singles))], "/translate", "request.single"
		if batch {
			req, path, name = tf.batches[r.Intn(len(tf.batches))], "/translate/batch", "request.batch"
		}
		out.requests++
		start := time.Now()
		status, body, err := post(client, url+path, req.body)
		end := time.Now()
		tr.add(name, root, start, end)
		switch {
		case err != nil:
			out.problems = append(out.problems, err.Error())
			continue
		case status == http.StatusTooManyRequests:
			out.shed++
		case status == http.StatusGatewayTimeout:
			out.timeouts++
		}
		if status != http.StatusOK {
			out.problems = append(out.problems, fmt.Sprintf("%s: status %d", path, status))
			continue
		}
		lat := millis(end.Sub(start))
		if batch {
			out.batch = append(out.batch, lat)
		} else {
			out.single = append(out.single, lat)
		}
		out.rows += len(req.rows)
		if out.requests%checkOneIn == 0 {
			if err := tf.check(body, req.rows, batch); err != nil {
				out.problems = append(out.problems, fmt.Sprintf("%s: %v", path, err))
			}
		}
	}
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// check compares a response body with the in-process translation of
// the request's rows.
func (tf *traffic) check(body []byte, rows []int, batch bool) error {
	var got [][]int
	if batch {
		var resp struct{ Rows [][]int }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = resp.Rows
	} else {
		var resp struct{ Items []int }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = [][]int{resp.Items}
	}
	if len(got) != len(rows) {
		return fmt.Errorf("response has %d rows, want %d", len(got), len(rows))
	}
	for i, t := range rows {
		if !slices.Equal(got[i], tf.expect[t]) && len(got[i])+len(tf.expect[t]) > 0 {
			return fmt.Errorf("row %d: served %v, in-process %v", t, got[i], tf.expect[t])
		}
	}
	return nil
}

// record adds a load run's requests and failures to the report.
func (b *bench) record(lr *loadResult) {
	b.rep.attempted += lr.requests
	for _, p := range lr.problems {
		b.rep.fail("request: %s", p)
	}
}

// runServe drives the serve workload: set-up mines the served table
// (SELECT(1) on adult), compiles it and starts the server; the window
// runs the closed-loop traffic against it.
func (b *bench) runServe() error {
	ctx := context.Background()
	sess := core.NewSession()
	defer sess.Close()
	par := core.ParallelOptions{Workers: b.workers, Session: sess}

	var setup []float64
	var setups []outcome
	var d *dataset.Dataset
	var tr *core.Translator
	var srv *httpServer
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		runtime.GC() // as before every mining repetition (see measure)
		start := time.Now()
		var err error
		if d, err = makeInput(b.spec.profile, b.seed, false); err != nil {
			return err
		}
		b.rep.attempted++
		out, err := b.pipeline(ctx, d, par, b.tr)
		if err != nil {
			return fmt.Errorf("mining the served table: %w", err)
		}
		if tr, err = core.CompileTranslator(d, out.table); err != nil {
			return fmt.Errorf("compiling the served table: %w", err)
		}
		if srv, err = startServer(tr); err != nil {
			return err
		}
		setup = append(setup, seconds(time.Since(start)))
		setups = append(setups, out)
	}
	defer srv.stop()

	ref, err := b.reference(ctx, d)
	if err != nil {
		return err
	}
	for i, o := range setups {
		if !bytes.Equal(o.tables, ref.tables) {
			b.rep.fail("set-up %d: tables differ from the monolith reference", i+1)
		}
	}
	tf, err := newTraffic(ctx, d, tr, b.seed)
	if err != nil {
		return err
	}
	// mine_s gets its own repetitions, in serveSlices+1 blocks: one
	// before the load window and one after each of its serveSlices
	// parts, so they spread over the whole run, and mine_s is their
	// median. The 0.1 s mining step took 0.09-0.18 s within one run, in
	// slow phases seconds long: the median of 60 repetitions in one 8 s
	// block spread 0.3 between seeds, and the least of two 5 s blocks,
	// before and after the load, 0.12-0.24.
	var mined []outcome
	mineBlock := func() error {
		outs := b.measure(ctx, d, par, nil, ref.tables, serveMineWindow/(serveSlices+1))
		if len(outs) == 0 {
			return fmt.Errorf("no mining repetition succeeded")
		}
		mined = append(mined, outs...)
		return nil
	}
	runLoad(srv.url, tf, b.workers, 200*time.Millisecond, b.seed+1, nil) // warm connections and caches
	if err := mineBlock(); err != nil {
		return err
	}
	lr := &loadResult{}
	for i := 0; i < serveSlices; i++ {
		part := runLoad(srv.url, tf, b.workers, b.window/serveSlices, b.seed*serveSlices+int64(i), nil)
		b.record(part)
		lr.merge(part)
		if err := mineBlock(); err != nil {
			return err
		}
	}
	lat := summarize(lr.all())
	b.note("request latency ms %v", lat)
	b.note("single-row %v; batch %v", summarize(lr.single), summarize(lr.batch))
	b.note("setup_s %v; mine_s %v", summarize(setup), summarize(walls(mined)))

	if !b.traced {
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		b.rep.set("setup_s", median(setup))
		b.rep.set("mine_s", median(walls(mined)))
		b.rep.set("alloc_mb", mib(lr.alloc)/float64(lr.requests))
		b.rep.set("peak_rss_mb", rss)
		b.rep.set("rows_per_s", float64(lr.rows)/seconds(lr.elapsed))
		b.rep.set("latency_p50_ms", lat.P50)
		b.rep.set("latency_p99_ms", lat.P99)
		return nil
	}
	traced := runLoad(srv.url, tf, b.workers, b.window, b.seed, b.tr)
	b.record(traced)
	if err := b.reportLayers(ctx, d, par, layerInputs{ref: ref, untraced: mined, traced: setups, load: lr, traffic: tf}); err != nil {
		return err
	}
	// On serve the traced operation is a request, not a pipeline.
	b.rep.set("trace.overhead", median(traced.all())/lat.P50)
	b.rep.set("trace.unaccounted", unaccounted(b.tr.snapshot(), "serve"))
	return nil
}

func walls(outs []outcome) []float64 {
	var w []float64
	for _, o := range outs {
		w = append(w, seconds(o.wall))
	}
	return w
}

// serverLayer sets the server metrics from a load run: per-class p50,
// the encoding/json cost of identical request and response shapes, and
// what remains of the p50 after matching and JSON (HTTP, admission,
// deadlines, loopback). It needs translator.match_ns_per_row.
func (b *bench) serverLayer(lr *loadResult, tf *traffic) error {
	singleJSON, err := jsonCost(tf.singles, tf.expect, false)
	if err != nil {
		return err
	}
	batchJSON, err := jsonCost(tf.batches, tf.expect, true)
	if err != nil {
		return err
	}
	matchUS := b.rep.vals["translator.match_ns_per_row"] / 1e3
	singleUS, batchUS := median(lr.single)*1e3, median(lr.batch)*1e3
	b.rep.set("server.single_p50_ms", singleUS/1e3)
	b.rep.set("server.batch_p50_ms", batchUS/1e3)
	b.rep.set("server.single_json_us", singleJSON)
	b.rep.set("server.batch_json_us", batchJSON)
	b.rep.set("server.single_overhead_us", singleUS-matchUS-singleJSON)
	b.rep.set("server.batch_overhead_us", batchUS-batchRows*matchUS-batchJSON)
	b.rep.set("server.shed", float64(lr.shed))
	b.rep.set("server.timeouts", float64(lr.timeouts))
	b.rep.set("server.alloc_kb_per_req", float64(lr.alloc)/float64(lr.requests)/1024)
	return nil
}

// jsonCost times decoding each request body and encoding its response
// with encoding/json, in microseconds per request (median of 5 passes).
func jsonCost(reqs []request, expect [][]int, batch bool) (float64, error) {
	var per []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for _, req := range reqs {
			var in struct {
				From  string  `json:"from"`
				Items []int   `json:"items"`
				Rows  [][]int `json:"rows"`
			}
			if err := json.Unmarshal(req.body, &in); err != nil {
				return 0, fmt.Errorf("json cost: %w", err)
			}
			var resp any = map[string]any{"items": expect[req.rows[0]], "epoch": 1}
			if batch {
				rows := make([][]int, len(req.rows))
				for i, t := range req.rows {
					rows[i] = expect[t]
				}
				resp = map[string]any{"rows": rows, "epoch": 1}
			}
			if _, err := json.Marshal(resp); err != nil {
				return 0, fmt.Errorf("json cost: %w", err)
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(reqs))/1e3)
	}
	return median(per), nil
}

// serveBurst serves a mining workload's table for a short closed-loop
// run so the server layer has figures on that table and data.
func (b *bench) serveBurst(ctx context.Context, d *dataset.Dataset, tr *core.Translator) (*loadResult, *traffic, error) {
	srv, err := startServer(tr)
	if err != nil {
		return nil, nil, err
	}
	defer srv.stop()
	tf, err := newTraffic(ctx, d, tr, b.seed)
	if err != nil {
		return nil, nil, err
	}
	runLoad(srv.url, tf, b.workers, 100*time.Millisecond, b.seed+1, nil)
	lr := runLoad(srv.url, tf, b.workers, burst, b.seed, nil)
	b.record(lr)
	return lr, tf, nil
}

const (
	// burst is the length of a mining workload's serving burst.
	burst = time.Second
	// serveMineWindow is how long serve repeats the mining of its table
	// to measure mine_s, in serveSlices+1 blocks around the serveSlices
	// parts of its load window.
	serveMineWindow = 16 * time.Second
	serveSlices     = 7
)
