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

	"twoview/internal/dataset"
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
