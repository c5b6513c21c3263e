// Package server is the fault-tolerant HTTP serving layer of the
// translatord daemon: it wraps a compiled core.Translator in a network
// endpoint that is robust by construction, not by hope.
//
// Every request passes through three nested guards:
//
//   - Panic containment: a panic anywhere in a handler is recovered and
//     turned into a 500 for that one request; the process — and every
//     other in-flight request — survives. One bad row cannot take the
//     daemon down.
//   - Admission control: at most MaxInFlight translate requests execute
//     concurrently; arrivals beyond the budget queue for at most
//     MaxQueueWait and are then shed with 429, a Retry-After header and
//     a deterministically jittered retry_after_ms hint. Shedding keeps
//     the served p99 bounded under overload instead of letting the
//     queue collapse every request's latency; /healthz is exempt, so
//     the daemon still reports live while shedding.
//   - Deadlines: every request runs under a context deadline — the
//     server default, or the client's X-Deadline-Ms header capped at
//     MaxDeadline — and a request that outruns it gets 504 instead of
//     holding resources indefinitely.
//
// The translation table itself is served through an epoch-tagged
// core.TranslatorHandle: POST /reload compiles the replacement in the
// background (requests keep flowing on the old table), atomically swaps
// the epoch, and drains the old one before reporting success — zero
// downtime, and no request ever observes a torn table. Each response
// carries the epoch that produced it.
//
// Endpoints:
//
//	POST /translate        one row           {"from":"L","items":[...]}
//	POST /translate/batch  many rows         {"from":"L","rows":[[...],...]}
//	GET  /healthz          liveness          always 200 while the process serves
//	GET  /readyz           readiness         503 until loaded / while draining
//	POST /reload           zero-downtime table swap (single-flight)
//
// The translate bodies are streamed: the request body is parsed through
// a small fixed buffer straight into the request (codec.go), accepting
// exactly what json.NewDecoder(body).Decode accepts and decoding it to
// the same values, and the response is appended with strconv into one
// buffer whose bytes are json.Encoder's. A body is bounded by
// MaxBodyBytes, by encoding/json's nesting depth of 10,000 counted from
// the body, and, for a batch, by MaxBatchRows, which sheds the request
// with 413 at row MaxBatchRows+1 while the body is still being read.
//
// The chaos suite (-tags faultinject, see internal/fault) drives the
// failure paths deterministically: handler panics, slow handlers
// blowing deadlines, reload compiles failing or racing live batches.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/fault"
)

// Options configures a Server. The zero value of every field selects a
// production-safe default.
type Options struct {
	// DefaultDeadline is the per-request deadline applied when the
	// client sends none (default 2s).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 10s).
	MaxDeadline time.Duration
	// MaxInFlight is the concurrent translate-request budget; arrivals
	// beyond it queue and then shed (default 64).
	MaxInFlight int
	// MaxQueueWait bounds how long an arrival may wait for an
	// in-flight slot before being shed with 429 (default 100ms).
	MaxQueueWait time.Duration
	// MaxBatchRows bounds the row count of one batch request
	// (default 8192).
	MaxBatchRows int
	// MaxBodyBytes bounds request body size (default 8 MiB).
	MaxBodyBytes int64
	// Reload produces a freshly compiled Translator for POST /reload —
	// typically by re-reading the table and dataset files. nil disables
	// the endpoint (501).
	Reload func(ctx context.Context) (*core.Translator, error)
	// Log receives operational events (contained panics, reloads).
	// nil means the standard logger.
	Log *log.Logger
}

func (o Options) withDefaults() Options {
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 2 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 10 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxQueueWait <= 0 {
		o.MaxQueueWait = 100 * time.Millisecond
	}
	if o.MaxBatchRows <= 0 {
		o.MaxBatchRows = 8192
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	return o
}

// Server serves a compiled Translator over HTTP. Create it with New,
// mount Handler on an http.Server, and call BeginShutdown before
// draining connections.
type Server struct {
	opts   Options
	handle *core.TranslatorHandle
	gate   *gate
	ready  atomic.Bool
	// reloading makes POST /reload single-flight: a second reload while
	// one is compiling is rejected with 409 instead of racing the swap.
	reloading atomic.Bool
}

// New returns a Server serving tr as epoch 1.
func New(tr *core.Translator, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		handle: core.NewTranslatorHandle(tr),
		gate:   newGate(opts.MaxInFlight),
	}
	s.ready.Store(true)
	return s
}

// Epoch returns the currently installed table epoch (1-based).
func (s *Server) Epoch() uint64 {
	_, ep := s.handle.Current()
	return ep
}

// BeginShutdown flips /readyz to 503 so load balancers stop routing new
// traffic, without interrupting in-flight requests — the first step of
// the graceful drain (the second is http.Server.Shutdown).
func (s *Server) BeginShutdown() { s.ready.Store(false) }

// Handler returns the daemon's HTTP routes. Translate paths are
// panic-contained, admission-gated and deadline-bounded; health and
// reload paths are panic-contained only (shedding liveness probes or
// admin actions under load would defeat their purpose).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /translate", s.contain(s.gated(s.deadlined(s.handleTranslate))))
	mux.HandleFunc("POST /translate/batch", s.contain(s.gated(s.deadlined(s.handleBatch))))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /reload", s.contain(s.handleReload))
	return mux
}

// ---- request/response bodies ----

type translateRequest struct {
	From  string `json:"from"`
	Items []int  `json:"items"`
}

type translateResponse struct {
	Items []int  `json:"items"`
	Epoch uint64 `json:"epoch"`
}

type batchRequest struct {
	From string  `json:"from"`
	Rows [][]int `json:"rows"`
}

type batchResponse struct {
	Rows  [][]int `json:"rows"`
	Epoch uint64  `json:"epoch"`
}

type reloadResponse struct {
	Epoch     uint64 `json:"epoch"`
	Rules     int    `json:"rules"`
	Drained   bool   `json:"old_epoch_drained"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ---- middleware ----

// contain recovers a handler panic into a 500 for that request alone:
// the panic is logged with its route and the process keeps serving.
func (s *Server) contain(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.logf("panic contained serving %s: %v", r.URL.Path, p)
				// If the handler already started its response this write
				// is a no-op; the client sees a truncated body, which is
				// the honest outcome for a mid-stream panic.
				writeError(w, http.StatusInternalServerError, "internal error: request aborted")
			}
		}()
		h(w, r)
	}
}

// gated applies admission control: acquire an in-flight slot, bounded
// by the queue-wait budget, or shed the request with 429 + Retry-After.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.gate.admit(r.Context(), s.opts.MaxQueueWait); err != nil {
			if errors.Is(err, errOverloaded) {
				hint := s.gate.retryAfterMS(s.opts.MaxQueueWait)
				w.Header().Set("Retry-After", strconv.FormatInt((hint+999)/1000, 10))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{
					Error:        "overloaded: in-flight budget and queue-wait bound exceeded",
					RetryAfterMS: hint,
				})
				return
			}
			// The client went away (or its deadline fired) while queued.
			writeError(w, http.StatusServiceUnavailable, "cancelled while queued for admission")
			return
		}
		defer s.gate.release()
		h(w, r)
	}
}

// deadlined runs the handler under the per-request deadline: the server
// default, or the client's X-Deadline-Ms capped at MaxDeadline. The cap
// is taken in milliseconds before converting, since the conversion
// overflows a Duration for headers above about 9.2e12.
func (s *Server) deadlined(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.opts.DefaultDeadline
		if hdr := r.Header.Get("X-Deadline-Ms"); hdr != "" {
			ms, err := strconv.ParseInt(hdr, 10, 64)
			if err != nil || ms <= 0 {
				writeError(w, http.StatusBadRequest, "X-Deadline-Ms must be a positive integer")
				return
			}
			d = s.opts.MaxDeadline
			if ms <= d.Milliseconds() {
				d = time.Duration(ms) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// ---- handlers ----

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	d := getScratch(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	defer putScratch(d)
	var req translateRequest
	if !s.bodyOK(w, req.decode(d)) {
		return
	}
	from, ok := parseView(w, req.From)
	if !ok {
		return
	}
	if fault.Enabled {
		// Chaos hook: scripted per-request panics and slow handlers.
		fault.Fire("server.translate")
	}
	e := s.handle.Acquire()
	defer e.Release()
	ids, err := e.Translator().TranslateIDs(nil, from, req.Items)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if deadlineBlown(w, r.Context()) {
		return
	}
	writeOK(w, translateResponse{Items: ids, Epoch: e.Epoch()}.appendJSON(make([]byte, 0, 64)))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	d := getScratch(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	defer putScratch(d)
	var req batchRequest
	if !s.bodyOK(w, req.decode(d, s.opts.MaxBatchRows)) {
		return
	}
	from, ok := parseView(w, req.From)
	if !ok {
		return
	}
	if fault.Enabled {
		fault.Fire("server.translate")
	}
	// The whole batch rides one pinned epoch and one arena-backed
	// compiled call: every row of the response comes from the same
	// table generation by construction.
	e := s.handle.Acquire()
	defer e.Release()
	rows, err := e.Translator().TranslateBatchIDs(r.Context(), from, req.Rows)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded mid-batch")
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if deadlineBlown(w, r.Context()) {
		return
	}
	writeOK(w, batchResponse{Rows: rows, Epoch: e.Epoch()}.appendJSON(make([]byte, 0, 1024)))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness is unconditional while the process can run handlers:
	// shedding load (429s on translate paths) is a healthy state, not a
	// dead one, and restart loops triggered by overload would only add
	// cold-start pressure.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	tr, ep := s.handle.Current()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "epoch": ep, "rules": tr.Rules()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.Reload == nil {
		writeError(w, http.StatusNotImplemented, "no reload source configured")
		return
	}
	if !s.reloading.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, "reload already in progress")
		return
	}
	defer s.reloading.Store(false)
	start := now()

	if fault.Enabled {
		if err := fault.Point("server.reload.compile"); err != nil {
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("reload failed: %v (previous table still serving)", err))
			return
		}
	}
	// Compile in the background of live traffic: requests keep flowing
	// on the current epoch for the whole duration of this call.
	tr, err := s.opts.Reload(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("reload failed: %v (previous table still serving)", err))
		return
	}
	old := s.handle.Swap(tr)
	// Drain the retired epoch before declaring success. The drain gets
	// its own budget (not the client's, which may already be nearly
	// spent): in-flight requests hold the old epoch for at most their
	// own deadline, so MaxDeadline bounds the wait.
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.MaxDeadline)
	defer cancel()
	drained := old.Drain(drainCtx) == nil
	_, epoch := s.handle.Current()
	s.logf("reloaded table: epoch %d, %d rules, old epoch drained=%v", epoch, tr.Rules(), drained)
	writeJSON(w, http.StatusOK, reloadResponse{
		Epoch:     epoch,
		Rules:     tr.Rules(),
		Drained:   drained,
		ElapsedMS: now().Sub(start).Milliseconds(),
	})
}

// ---- plumbing ----

// deadlineBlown turns a spent request context into a 504. Handlers call
// it after producing a result: a response computed past the deadline
// must not masquerade as a timely one.
func deadlineBlown(w http.ResponseWriter, ctx context.Context) bool {
	if ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return true
	}
	return false
}

// bodyOK reports whether the request body decoded; otherwise it answers
// 413 for a body over MaxBodyBytes or a batch over MaxBatchRows and 400
// for any other decode error.
func (s *Server) bodyOK(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	case errors.Is(err, errTooManyRows):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch exceeds the %d-row limit", s.opts.MaxBatchRows))
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return false
}

// parseView resolves the wire name of a view ("L"/"R", case-insensitive
// long forms accepted), answering 400 itself on anything else.
func parseView(w http.ResponseWriter, name string) (dataset.View, bool) {
	switch name {
	case "L", "l", "left", "Left", "LEFT":
		return dataset.Left, true
	case "R", "r", "right", "Right", "RIGHT":
		return dataset.Right, true
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown view %q: want L or R", name))
	return 0, false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader have no channel back to the
	// client; the connection-level error is theirs to observe.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
		return
	}
	log.Printf("translatord: "+format, args...)
}
