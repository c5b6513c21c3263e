package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/synth"
)

// BenchmarkTranslatordLoad is the daemon's closed-loop load harness:
// a fixed client herd drives /translate/batch over real HTTP against
// planted synthetic data at GOMAXPROCS=4 and reports end-to-end
// throughput (rows/s) and served tail latency (p99-ms). A shedding or
// admission regression shows up as a p99 cliff long before correctness
// tests would notice.
func BenchmarkTranslatordLoad(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const (
		clients   = 8
		batchRows = 64
		burstsPer = 4 // batch requests per client per iteration
	)
	tr, d := serveFixture(b, 71)
	s := New(tr, Options{MaxInFlight: clients})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := make([][]int, batchRows)
	for i := range rows {
		rows[i] = d.Row(dataset.Left, i%d.Size()).Indices()
	}
	payload, err := json.Marshal(map[string]any{"from": "L", "rows": rows})
	if err != nil {
		b.Fatal(err)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	defer client.CloseIdleConnections()

	post := func() (int, error) {
		resp, err := client.Post(ts.URL+"/translate/batch", "application/json",
			bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	// Warm the connection pool outside the measured region.
	for i := 0; i < clients; i++ {
		if code, err := post(); err != nil || code != http.StatusOK {
			b.Fatalf("warmup: status %d, err %v", code, err)
		}
	}

	var mu sync.Mutex
	var lats []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < burstsPer; r++ {
					start := time.Now()
					code, err := post()
					lat := time.Since(start)
					if err != nil || code != http.StatusOK {
						b.Errorf("load request: status %d, err %v", code, err)
						return
					}
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()

	totalRows := float64(len(lats) * batchRows)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(totalRows/secs, "rows/s")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		p99 := lats[len(lats)*99/100]
		b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
	}
}

// BenchmarkServeCodec times the HTTP decode, match and encode layers of
// one translate request without the network: a body shaped like
// perfbench's serve traffic (left-view rows of synth's adult profile,
// translated by its planted rules) goes through Handler into an
// in-memory response writer. "batch" posts a 64-row body to
// /translate/batch, "single" a one-row body to /translate.
func BenchmarkServeCodec(b *testing.B) {
	p, err := synth.ProfileByName("adult")
	if err != nil {
		b.Fatal(err)
	}
	d, rules, err := synth.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.CompileTranslator(d, &core.Table{Rules: rules})
	if err != nil {
		b.Fatal(err)
	}
	h := New(tr, Options{}).Handler()
	rows := make([][]int, 64)
	for i := range rows {
		rows[i] = d.Row(dataset.Left, i*d.Size()/len(rows)).Indices()
	}
	for _, bc := range []struct {
		name, path string
		body       map[string]any
	}{
		{"batch", "/translate/batch", map[string]any{"from": "L", "rows": rows}},
		{"single", "/translate", map[string]any{"from": "L", "items": rows[0]}},
	} {
		body, err := json.Marshal(bc.body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, bc.path, io.NopCloser(rd))
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
