package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/synth"
)

// serveFixture compiles a Translator from the planted rules of a small
// synthetic two-view dataset — real mined-model shape, deterministic
// content — so endpoint responses can be checked bit for bit against
// the in-process compiled path.
func serveFixture(t testing.TB, seed int64) (*core.Translator, *dataset.Dataset) {
	t.Helper()
	d, rules, err := synth.Generate(synth.Profile{
		Name: "serve", Size: 160, ItemsL: 24, ItemsR: 24,
		DensityL: 0.12, DensityR: 0.12,
		BidirRules: 4, UniRules: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.CompileTranslator(d, &core.Table{Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	return tr, d
}

// tinyTranslator compiles a one-rule table l0 -> r<target> over a tiny
// vocabulary, for reload tests that need two distinguishable epochs.
func tinyTranslator(t testing.TB, target int) *core.Translator {
	t.Helper()
	d := dataset.MustNew(dataset.GenericNames("l", 4), dataset.GenericNames("r", 4))
	tab := &core.Table{Rules: []core.Rule{
		{X: itemset.Itemset{0}, Y: itemset.Itemset{target}, Dir: core.Forward},
	}}
	tr, err := core.CompileTranslator(d, tab)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func postJSON(t testing.TB, url string, body any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func getStatus(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// Every /translate response must be bit-identical to the in-process
// compiled Translator on the same items, in both directions, and carry
// the serving epoch.
func TestServingTranslateMatchesInProcess(t *testing.T) {
	tr, d := serveFixture(t, 41)
	s := New(tr, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, from := range []dataset.View{dataset.Left, dataset.Right} {
		wire := "L"
		if from == dataset.Right {
			wire = "R"
		}
		for ti := 0; ti < d.Size(); ti += 7 {
			items := d.Row(from, ti).Indices()
			code, body, _ := postJSON(t, ts.URL+"/translate",
				map[string]any{"from": wire, "items": items}, nil)
			if code != http.StatusOK {
				t.Fatalf("row %d from %s: status %d: %s", ti, wire, code, body)
			}
			var got translateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			want, err := tr.TranslateIDs(nil, from, items)
			if err != nil {
				t.Fatal(err)
			}
			if got.Epoch != 1 {
				t.Fatalf("row %d: epoch %d, want 1", ti, got.Epoch)
			}
			if len(got.Items) != len(want) {
				t.Fatalf("row %d from %s: %v, want %v", ti, wire, got.Items, want)
			}
			for i := range want {
				if got.Items[i] != want[i] {
					t.Fatalf("row %d from %s: %v, want %v", ti, wire, got.Items, want)
				}
			}
		}
	}

	// An empty translation serializes as [], never null.
	code, body, _ := postJSON(t, ts.URL+"/translate",
		map[string]any{"from": "L", "items": []int{}}, nil)
	if code != http.StatusOK {
		t.Fatalf("empty row: status %d: %s", code, body)
	}
	if !bytes.Contains(body, []byte(`"items":[]`)) {
		t.Fatalf("empty translation not []: %s", body)
	}
}

// A batch response must match the per-row in-process results exactly,
// come from one epoch, and serialize empty rows as [].
func TestServingBatchMatchesInProcess(t *testing.T) {
	tr, d := serveFixture(t, 42)
	s := New(tr, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := make([][]int, d.Size())
	for ti := range rows {
		rows[ti] = d.Row(dataset.Left, ti).Indices()
	}
	code, body, _ := postJSON(t, ts.URL+"/translate/batch",
		map[string]any{"from": "L", "rows": rows}, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got batchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", got.Epoch)
	}
	if len(got.Rows) != len(rows) {
		t.Fatalf("%d result rows, want %d", len(got.Rows), len(rows))
	}
	for ti, items := range rows {
		want, err := tr.TranslateIDs(nil, dataset.Left, items)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows[ti] == nil {
			t.Fatalf("row %d decoded as null", ti)
		}
		if len(got.Rows[ti]) != len(want) {
			t.Fatalf("row %d: %v, want %v", ti, got.Rows[ti], want)
		}
		for i := range want {
			if got.Rows[ti][i] != want[i] {
				t.Fatalf("row %d: %v, want %v", ti, got.Rows[ti], want)
			}
		}
	}
}

func TestServingRequestValidation(t *testing.T) {
	tr, _ := serveFixture(t, 43)
	s := New(tr, Options{MaxBatchRows: 4, MaxBodyBytes: 1 << 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("unknown view", func(t *testing.T) {
		code, body, _ := postJSON(t, ts.URL+"/translate",
			map[string]any{"from": "sideways", "items": []int{0}}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", code, body)
		}
	})
	t.Run("unknown item id", func(t *testing.T) {
		code, body, _ := postJSON(t, ts.URL+"/translate",
			map[string]any{"from": "L", "items": []int{9999}}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", code, body)
		}
	})
	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/translate", "application/json",
			strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("batch over row limit", func(t *testing.T) {
		code, body, _ := postJSON(t, ts.URL+"/translate/batch",
			map[string]any{"from": "L", "rows": [][]int{{0}, {1}, {2}, {0}, {1}}}, nil)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d: %s", code, body)
		}
	})
	t.Run("body over byte limit", func(t *testing.T) {
		big := make([]int, 2048)
		code, body, _ := postJSON(t, ts.URL+"/translate",
			map[string]any{"from": "L", "items": big}, nil)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d: %s", code, body)
		}
	})
	t.Run("bad deadline header", func(t *testing.T) {
		for _, hdr := range []string{"-5", "0", "soon"} {
			code, body, _ := postJSON(t, ts.URL+"/translate",
				map[string]any{"from": "L", "items": []int{0}},
				map[string]string{"X-Deadline-Ms": hdr})
			if code != http.StatusBadRequest {
				t.Fatalf("X-Deadline-Ms=%q: status %d: %s", hdr, code, body)
			}
		}
		// A valid header is accepted (capped server-side), including
		// ones whose conversion to a Duration would overflow.
		for _, hdr := range []string{"600000", "9223372036854775807", "9300000000000"} {
			code, body, _ := postJSON(t, ts.URL+"/translate",
				map[string]any{"from": "L", "items": []int{0}},
				map[string]string{"X-Deadline-Ms": hdr})
			if code != http.StatusOK {
				t.Fatalf("valid deadline %s: status %d: %s", hdr, code, body)
			}
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		code, _ := getStatus(t, ts.URL+"/translate")
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /translate: status %d", code)
		}
	})
}

// With the in-flight budget exhausted, arrivals must shed with 429, a
// Retry-After header and a jittered retry_after_ms hint in
// [2·MaxQueueWait, 4·MaxQueueWait) — while /healthz stays green, and
// service resumes the moment slots free up.
func TestServingShedsWhenSaturated(t *testing.T) {
	tr, _ := serveFixture(t, 44)
	s := New(tr, Options{MaxInFlight: 2, MaxQueueWait: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy both in-flight slots directly: the gate is the only thing
	// between the mux and the handler, so this models two requests
	// parked inside their handlers.
	s.gate.sem <- struct{}{}
	s.gate.sem <- struct{}{}

	code, body, hdr := postJSON(t, ts.URL+"/translate",
		map[string]any{"from": "L", "items": []int{0}}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	var shed errorResponse
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatal(err)
	}
	base := int64(2 * 20) // 2 × MaxQueueWait in ms
	if shed.RetryAfterMS < base || shed.RetryAfterMS >= 2*base {
		t.Fatalf("retry_after_ms = %d, want in [%d, %d)", shed.RetryAfterMS, base, 2*base)
	}

	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while shedding: status %d", code)
	}

	<-s.gate.sem
	<-s.gate.sem
	code, body, _ = postJSON(t, ts.URL+"/translate",
		map[string]any{"from": "L", "items": []int{0}}, nil)
	if code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", code, body)
	}
}

func TestGateAdmission(t *testing.T) {
	g := newGate(1)
	if err := g.admit(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("fast path: %v", err)
	}
	if err := g.admit(context.Background(), 10*time.Millisecond); !errors.Is(err, errOverloaded) {
		t.Fatalf("saturated admit = %v, want errOverloaded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if err := g.admit(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admit = %v, want context.Canceled", err)
	}
	g.release()
	if err := g.admit(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("post-release admit: %v", err)
	}

	for i := 0; i < 200; i++ {
		ms := g.retryAfterMS(20 * time.Millisecond)
		if ms < 40 || ms >= 80 {
			t.Fatalf("hint %d: %d ms outside [40, 80)", i, ms)
		}
	}
}

// POST /reload must swap epochs atomically: responses carry the new
// epoch and the new table's output, the retired epoch drains, and
// repeated reloads keep counting up.
func TestServingReloadSwapsEpochs(t *testing.T) {
	trA, trB := tinyTranslator(t, 0), tinyTranslator(t, 1)
	next := trB
	s := New(trA, Options{
		Reload: func(context.Context) (*core.Translator, error) { return next, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	translate := func() (int, uint64) {
		t.Helper()
		code, body, _ := postJSON(t, ts.URL+"/translate",
			map[string]any{"from": "L", "items": []int{0}}, nil)
		if code != http.StatusOK {
			t.Fatalf("translate: status %d: %s", code, body)
		}
		var resp translateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Items) != 1 {
			t.Fatalf("items %v, want exactly one", resp.Items)
		}
		return resp.Items[0], resp.Epoch
	}

	if id, ep := translate(); id != 0 || ep != 1 {
		t.Fatalf("before reload: item %d epoch %d, want 0/1", id, ep)
	}

	code, body, _ := postJSON(t, ts.URL+"/reload", struct{}{}, nil)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", code, body)
	}
	var rel reloadResponse
	if err := json.Unmarshal(body, &rel); err != nil {
		t.Fatal(err)
	}
	if rel.Epoch != 2 || rel.Rules != 1 || !rel.Drained {
		t.Fatalf("reload response %+v, want epoch 2, 1 rule, drained", rel)
	}
	if id, ep := translate(); id != 1 || ep != 2 {
		t.Fatalf("after reload: item %d epoch %d, want 1/2", id, ep)
	}

	// readyz reports the new epoch; a second reload keeps counting.
	code, body = getStatus(t, ts.URL+"/readyz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"epoch":2`)) {
		t.Fatalf("readyz after reload: %d %s", code, body)
	}
	next = trA
	code, body, _ = postJSON(t, ts.URL+"/reload", struct{}{}, nil)
	if code != http.StatusOK {
		t.Fatalf("second reload: status %d: %s", code, body)
	}
	if id, ep := translate(); id != 0 || ep != 3 {
		t.Fatalf("after second reload: item %d epoch %d, want 0/3", id, ep)
	}
}

func TestServingReloadFailures(t *testing.T) {
	t.Run("not configured", func(t *testing.T) {
		s := New(tinyTranslator(t, 0), Options{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		code, body, _ := postJSON(t, ts.URL+"/reload", struct{}{}, nil)
		if code != http.StatusNotImplemented {
			t.Fatalf("status %d: %s", code, body)
		}
	})
	t.Run("source error keeps old table", func(t *testing.T) {
		s := New(tinyTranslator(t, 0), Options{
			Reload: func(context.Context) (*core.Translator, error) {
				return nil, fmt.Errorf("table file corrupted")
			},
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		code, body, _ := postJSON(t, ts.URL+"/reload", struct{}{}, nil)
		if code != http.StatusInternalServerError {
			t.Fatalf("status %d: %s", code, body)
		}
		if !bytes.Contains(body, []byte("previous table still serving")) {
			t.Fatalf("error body does not promise continuity: %s", body)
		}
		if ep := s.Epoch(); ep != 1 {
			t.Fatalf("epoch after failed reload = %d, want 1", ep)
		}
		code, _, _ = postJSON(t, ts.URL+"/translate",
			map[string]any{"from": "L", "items": []int{0}}, nil)
		if code != http.StatusOK {
			t.Fatalf("translate after failed reload: status %d", code)
		}
	})
	t.Run("single flight", func(t *testing.T) {
		s := New(tinyTranslator(t, 0), Options{
			Reload: func(context.Context) (*core.Translator, error) {
				return tinyTranslator(t, 1), nil
			},
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		s.reloading.Store(true) // a reload is mid-compile
		code, body, _ := postJSON(t, ts.URL+"/reload", struct{}{}, nil)
		if code != http.StatusConflict {
			t.Fatalf("status %d: %s", code, body)
		}
		s.reloading.Store(false)
		code, _, _ = postJSON(t, ts.URL+"/reload", struct{}{}, nil)
		if code != http.StatusOK {
			t.Fatalf("reload after conflict cleared: status %d", code)
		}
	})
}

// Liveness and readiness split: BeginShutdown flips readyz to 503 so
// the balancer stops routing, but the process stays live and keeps
// serving whatever still arrives.
func TestServingReadinessLifecycle(t *testing.T) {
	tr, _ := serveFixture(t, 45)
	s := New(tr, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := getStatus(t, ts.URL+"/readyz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"epoch":1`)) {
		t.Fatalf("readyz: %d %s", code, body)
	}
	s.BeginShutdown()
	if code, _ := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after BeginShutdown: status %d", code)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after BeginShutdown: status %d", code)
	}
	code, _, _ = postJSON(t, ts.URL+"/translate",
		map[string]any{"from": "L", "items": []int{0}}, nil)
	if code != http.StatusOK {
		t.Fatalf("in-flight traffic during drain: status %d", code)
	}
}
