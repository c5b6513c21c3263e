// Command translatord serves a mined translation table over HTTP: the
// fault-tolerant daemon form of `translator -load`. It compiles the
// table once at startup and answers single-row and batch translation
// requests with per-request deadlines, load shedding under overload,
// per-request panic containment, and zero-downtime table reloads.
//
// Usage:
//
//	translatord -data data.tv -table rules.tt [-addr :8117]
//	            [-deadline 2s] [-max-deadline 10s] [-max-inflight 64]
//	            [-queue-wait 100ms] [-max-batch 8192] [-drain 15s]
//
// Endpoints (see internal/server for the wire format):
//
//	POST /translate        {"from":"L","items":[...]}
//	POST /translate/batch  {"from":"L","rows":[[...],...]}
//	GET  /healthz          liveness (always 200 while serving)
//	GET  /readyz           readiness (503 while draining)
//	POST /reload           re-read -data/-table, compile, swap, drain old epoch
//
// SIGINT/SIGTERM triggers a graceful drain: /readyz flips to 503 so
// load balancers stop routing, in-flight requests finish, and the
// listener closes — all under the bounded -drain deadline. A second
// signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("translatord: ")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // a second signal now kills the process the default way
	}()
	err := run(ctx, os.Args[1:], os.Stderr, nil)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// errUsage is run's verdict on a command line it could not use; the
// usage message is already printed.
var errUsage = errors.New("usage")

// run serves until ctx is done, then drains. Logs and the usage
// message go to logw; listening, if not nil, learns the bound address
// once the listener is open.
func run(ctx context.Context, args []string, logw io.Writer, listening func(net.Addr)) error {
	logger := log.New(logw, "translatord: ", 0)
	fs := flag.NewFlagSet("translatord", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		data        = fs.String("data", "", "two-view dataset file the table was mined from (required)")
		table       = fs.String("table", "", "stored translation table file (required)")
		addr        = fs.String("addr", ":8117", "listen address")
		deadline    = fs.Duration("deadline", 2*time.Second, "default per-request deadline")
		maxDeadline = fs.Duration("max-deadline", 10*time.Second, "cap on client-requested deadlines (X-Deadline-Ms)")
		maxInFlight = fs.Int("max-inflight", 64, "concurrent translate-request budget before shedding")
		queueWait   = fs.Duration("queue-wait", 100*time.Millisecond, "max wait for an in-flight slot before 429")
		maxBatch    = fs.Int("max-batch", 8192, "max rows per batch request")
		drain       = fs.Duration("drain", 15*time.Second, "graceful shutdown drain deadline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *data == "" || *table == "" {
		fs.Usage()
		return errUsage
	}

	compile := func() (*core.Translator, error) {
		d, err := dataset.ReadFile(*data)
		if err != nil {
			return nil, err
		}
		tab, err := core.ReadTableFile(*table, d)
		if err != nil {
			return nil, err
		}
		return core.CompileTranslator(d, tab)
	}
	tr, err := compile()
	if err != nil {
		return err
	}

	srv := server.New(tr, server.Options{
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxInFlight:     *maxInFlight,
		MaxQueueWait:    *queueWait,
		MaxBatchRows:    *maxBatch,
		// POST /reload re-reads both files: a freshly mined table (or a
		// regenerated dataset vocabulary) goes live without a restart.
		Reload: func(context.Context) (*core.Translator, error) { return compile() },
		Log:    logger,
	})

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if listening != nil {
		listening(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("serving %d rules on %s (epoch %d)", tr.Rules(), *addr, srv.Epoch())

	select {
	case err := <-errc:
		// The listener died on its own: nothing to drain.
		return err
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining for up to %v (second signal kills)", *drain)

	srv.BeginShutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	err = httpSrv.Shutdown(drainCtx)
	cancel()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		httpSrv.Close()
		return fmt.Errorf("drain incomplete: %w", err)
	}
	logger.Print("drained; bye")
	return nil
}
