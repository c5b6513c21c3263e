// Command shardworker hosts partitions of the sharded TRANSLATOR-SELECT
// and TRANSLATOR-GREEDY engine for a remote coordinator (EXACT always
// runs in-process). The coordinator (a miner run with
// ParallelOptions.ShardAddrs set) dials in, announces partition
// incarnations via HELLO, transfers the dataset and candidate list only
// if the worker's content-hash cache misses, and then drives leased
// SCORE/APPLY rounds. Each hosted incarnation runs shard.Serve, the
// same code an in-process shard runs, on internal/wire's messages; this
// command only adds the session around it: frame decoding, the blob
// cache, routing requests to mailboxes. The worker never makes a
// mining decision — a partition's state is a pure function of
// (dataset, ranges, accepted-rule log), so the integers it returns are
// bit-identical to an in-process shard's and the mined table cannot
// depend on where partitions ran.
//
// One coordinator is served at a time; when its connection ends every
// hosted incarnation is retired (the coordinator rebuilds them, here or
// elsewhere, from its log) but the blob cache survives, so a
// reconnecting or repeating coordinator HELLOs straight into cache
// hits. With -cache DIR the cache also survives worker restarts.
//
// Usage:
//
//	shardworker [-addr 127.0.0.1:0] [-cache DIR] [-workers 0]
//
// The actual listen address is printed to stdout ("listening HOST:PORT"),
// so callers may bind port 0 and scrape the line.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardworker: ")

	var (
		addr    = flag.String("addr", "127.0.0.1:0", "TCP address to listen on (:0 = ephemeral; the actual address is printed to stdout)")
		cache   = flag.String("cache", "", "directory for the content-addressed blob cache (empty = in-memory only; a directory survives restarts, so a rejoining worker transfers nothing)")
		workers = flag.Int("workers", 0, "cap on scoring workers per hosted partition (0 = GOMAXPROCS, also the ceiling)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening %s\n", ln.Addr())

	w := newWorker(*cache, *workers)
	go func() { <-ctx.Done(); ln.Close() }()

	// One coordinator at a time: a session runs until its stream ends,
	// and the next dial waits in the listen backlog. Serving a second
	// coordinator concurrently would be safe for correctness (sessions
	// share only the cache) but would let two runs fight over the
	// machine, which is never what a two-coordinator schedule means.
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed by the shutdown watcher
		}
		log.Printf("coordinator connected from %s", conn.RemoteAddr())
		w.serve(ctx, conn)
		log.Printf("coordinator session ended")
	}

	w.rt.Close()
}
