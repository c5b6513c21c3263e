// Package shard is the supervised sharded cover behind
// core.ParallelOptions.Shards and ShardAddrs: the columnar cover state
// is partitioned by item range into N shard incarnations that own
// their ucol/ecol columns privately (core.PartialState) and exchange
// only small messages with a coordinator — no shared State. SELECT and
// GREEDY run on it bit-identical to the monolithic in-process miners
// for every shard count, worker count, and injected failure schedule.
// EXACT does not: it always runs in-process, whatever the sharding
// options say.
//
// The coordinator hosts a backend, not drivers. SELECT and GREEDY have
// one driver each, in internal/core, and they mine against the
// core.Cover interface; this package's implementation of it (cover.go)
// runs one SCORE round per Score batch and one APPLY round per Apply,
// and turns each shard's (covered, errors) pair into the driver's
// covered − errors delta as it places it. The totals each Apply folds
// are what the driver reports as core.Result.Totals, so the
// coordinator never builds a core.State: the shards' partitions are
// the only columns a sharded run holds.
//
// # Architecture
//
// One mining call builds a run: a supervisor (the caller's goroutine)
// and cfg.Shards incarnations, each one Serve call owning one
// Partition of both item alphabets. There is one incarnation and one
// message set: the in-process transport runs Serve on a goroutine per
// partition, cmd/shardworker runs the same Serve per HELLO it hosts,
// and both speak internal/wire's message types. Mining proceeds in
// rounds, each a leased broadcast-gather:
//
//	supervisor                          Serve (partition p of N)
//	----------                          ------------------------
//	seq++; for every partition:
//	  dispatch wire.Score/wire.Apply ──▶ mailbox
//	    {part, term, seq, lease}         score/apply on the partition
//	                                     (workers-wide phase under the
//	                                      lease, a context deadline)
//	  gather  ◀── wire.Reply{part, term, seq, counts}
//	  merge in partition order (bit-identical fold, see below)
//
// Shards never talk to each other, never share mutable state with the
// coordinator, and hold no floats: a shard computes integer per-item
// (covered, errors) pairs with State's own column code over its item
// ranges, and the coordinator performs all float accumulation in
// exactly the monolith's order (the drivers' gain folds and
// core.CoverTotals). Integer counts are schedule- and
// failure-independent, which is what makes the whole engine so.
//
// # Supervision: leases, terms, replay
//
// The coordinator is a supervisor, not a barrier. Every dispatched
// message is a lease with a deadline; an incarnation that panics,
// crashes by fault injection, or blows its lease is torn down and its
// partition rebuilt: the supervisor bumps the partition's term
// (incarnation number), starts a fresh incarnation whose HELLO carries
// the accepted-rule log it replays (core.PartialState Replay — a pure
// function of dataset, ranges and log), and re-dispatches the
// in-flight request. Replies are deduplicated by (partition, term,
// seq): duplicated completions, reordered completions, and completions
// from abandoned incarnations are discarded by value, never by timing.
// The rule log is appended only after an apply round fully completes,
// so a shard rebuilt mid-apply replays the log without the in-flight
// rule and then applies it via the re-dispatch — never twice. A shard
// that had already answered the apply round when it died (a dropped
// connection takes every partition on it down at once) is born with
// the in-flight rule instead, since no re-dispatch will reach it.
//
// Incarnations also self-bound: each scoring phase runs under the
// granted lease (a context.WithTimeout deadline), so one that cannot
// finish in time drains its own phase, retires with a crash notice, and
// frees its workers instead of wedging them.
//
// # Message protocol
//
// The messages are internal/wire's types: Go values over channels in
// process, where the dataset and candidates are shared pointers; wire
// frames over TCP, where those become content-addressed transfers:
//
//	Hello     the incarnation descriptor, built in one place
//	          (supervisor.hello): item ranges [loL,hiL)×[loR,hiR),
//	          term, scoring workers, the accepted-rule log to replay,
//	          and over TCP the content hashes of the dataset and
//	          candidate itemsets (workers compute the dataset-static
//	          support tidsets themselves).
//	Score     coordinator → shard: {part, term, seq, lease} plus
//	          candidate indices into the announced candidate list and
//	          the dirty items: either "all items" or, per view, an
//	          ascending item list (SELECT names the items touched
//	          since the oldest count among the round's candidates). The
//	          shard keeps no scoring cache: core's SELECT driver caches
//	          every candidate's per-item deltas and overwrites only the
//	          dirty ones, so a SCORE round after the first rescores only
//	          the stale candidates whose gain bound can reach the
//	          round's top k.
//	Apply     coordinator → shard: {part, term, seq, lease, rule}. The
//	          shard updates its columns.
//	Reply     shard → coordinator: per scored entry (Score) or for the
//	          applied rule (Apply), the owned requested consequent
//	          items' (item, covered, errors) integer triples in item
//	          order — both rule directions. The coordinator folds
//	          Apply's into its scalar totals (core.CoverTotals). Zero
//	          triples may be run-length compressed on the wire; the fold
//	          skips them by value either way.
//	Crash     shard → coordinator: {part, term} — a voluntary retire
//	          notice (invalid message, recovered panic or self-detected
//	          lease blowout). On TCP the same path is a broken/timed-out
//	          connection; the supervisor's lease timer already covers
//	          silent death.
//
// All replies carry (part, term, seq) for the dedup rule above, so the
// transport may deliver duplicates or reorder freely; the protocol is
// idempotent at the receiver by discard, not by re-execution. Checks
// run at both ends. Serve validates every Hello, Score and Apply
// against the dataset and candidate list before any field sizes an
// allocation or indexes a column, and crashes the incarnation on a bad
// one. The coordinator checks every accepted reply against its request
// — one entry per scored candidate, and per entry exactly the owned
// (and, when masked, dirty) consequent items in ascending order — and
// a TCP reply or crash notice naming a partition the connection does
// not host poisons the connection. A malformed reply is a crash: it
// never reaches a fold.
//
// # Transports: in-process and TCP
//
// The supervisor drives partitions through a transport it cannot
// otherwise observe. The in-process transport (transport.go) runs each
// incarnation's Serve on a goroutine with a bounded mailbox. The TCP
// transport (net.go), selected by core.ParallelOptions.ShardAddrs,
// places partition p on shardworker daemon Addrs[p mod len(Addrs)]
// (cmd/shardworker) and sends it the HELLO frame; the worker acks with
// the blobs its cache lacks (none after an earlier run, incarnation or
// -cache restart) and only those are transferred. Both ends of a TCP
// connection use the same Conn: a bounded write queue drained by one
// writer goroutine.
//
// Every network failure is funneled onto a supervision path that
// already exists: a broken, poisoned, or timed-out connection
// synthesizes Crash notices for the incarnations it hosted (then
// redials with deterministic doubling backoff and re-announces the
// desired incarnations via HELLO), a full queue or disconnected
// address drops the request and the lease recovers it, and duplicated
// or reordered frames are discarded by the dedup rule. Because shards
// exchange only integers and the coordinator folds them in monolith
// order, the mined tables stay bit-identical for any shard placement,
// connection-failure schedule, and worker count — the property the
// network chaos suite (chaos_net_test.go, `make chaos-net`) asserts.
//
// Backpressure is one constant, queueDepth: the capacity of every
// incarnation's mailbox (NewMailbox, in process and in
// cmd/shardworker) and the per-partition budget of the coordinator's
// write queue. A full queue never blocks the supervisor and never
// grows — delivery is dropped and surfaces as lease expiry.
//
// # Failpoints
//
// Under -tags faultinject (see internal/fault) the engine exposes:
//
//	shard.dispatch   supervisor, before handing a request to a transport
//	shard.recv       Serve, on taking a request (Delay = stall a shard
//	                 past its lease; Panic = crash before any work)
//	shard.task       Serve, around each scoring task of a phase
//	                 (Panic = crash mid-phase on a pool worker)
//	shard.apply      Serve, before applying an accepted rule
//	shard.reply      Serve, before sending a completion (Err = drop
//	                 the message; the lease expires and recovery runs)
//	shard.reply.dup  Serve, after sending (Err = send the completion
//	                 twice, exercising the dedup rule)
//	shard.replay     Serve, per replayed rule during a rebuild
//	                 (Panic = crash during recovery itself)
//
// The Serve points fire in in-process incarnations; cmd/shardworker is
// built without the tag, so they compile out there. The chaos suite
// (chaos_test.go, `make chaos-shard`) scripts these and asserts the
// mined table stays reference-identical while recovery demonstrably
// fired.
package shard
