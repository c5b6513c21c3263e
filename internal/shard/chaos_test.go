//go:build faultinject

package shard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/fault"
	"twoview/internal/mdl"
)

// leaseForTest is the short lease the lease-driven scenarios run under:
// long enough that a healthy round on the 80-row fixtures never blows
// it (even under -race on a loaded runner — spurious expiries would
// only add rebuilds, never break identity, but they would blur what a
// scenario proves), short enough to keep the stall scenarios fast.
const leaseForTest = 100 * time.Millisecond

// Chaos coverage for the sharded engine under -tags faultinject: every
// scenario scripts a failure schedule against a named failpoint
// (internal/fault), mines through it, and asserts the two halves of the
// robustness contract — the result is bit-identical to the undisturbed
// monolith (sameResult: rules rule-for-rule, every iteration float, the
// final score), and the supervision machinery actually fired (runStats,
// fault.Hits). References are computed before any schedule is armed.
//
// The scenarios map onto the protocol's failure modes:
//
//	shard.task      a scoring task panics mid-phase (crash mid-round),
//	                or stalls past its lease while it still holds its
//	                request
//	shard.recv      a shard dies on receive, or stalls past its lease
//	shard.reply     a completion is lost in transit
//	shard.reply.dup a completion is delivered twice (dedup/reorder)
//	shard.apply     a shard dies mid-apply (replay-from-log rebuild)
//	shard.replay    the rebuild itself crashes (supervised restart of
//	                the restart)

// A panic injected into one shard's scoring task re-raises on the shard
// proc, which retires with a crash notice; the supervisor rebuilds the
// partition and re-dispatches, and the round — and the whole mine —
// completes bit-identically.
func TestChaosShardCrashMidScore(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 31)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	fault.Set("shard.task", fault.Action{Skip: 3, Panic: "chaos: poisoned scoring task"})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 3}, Config{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fault.Hits("shard.task") == 0 {
		t.Fatal("schedule never fired; scenario is vacuous")
	}
	if stats.restarts == 0 {
		t.Fatal("no partition was rebuilt; the crash went unsupervised")
	}
	sameResult(t, "crash mid-score", ref, res)
}

// A panic scheduled past the first SCORE round's tasks lands in an
// incremental round: the rebuilt incarnation, replaying the log, must
// answer a masked request (only the dirty items of the stale
// candidates) with exactly the counts the coordinator's cache expects.
func TestChaosShardCrashOnMaskedScore(t *testing.T) {
	defer fault.Reset()
	d := twoPlantDataset(t, 67)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) < 2 {
		t.Fatal("need at least 2 reference rules, so that a masked round runs")
	}

	// Round 1 runs one task per surviving candidate on each shard.
	coder := mdl.NewCoder(d)
	survivors := 0
	for i := range cands {
		c := &cands[i]
		qub := float64(c.TidX.Count())*coder.SetLen(dataset.Right, c.Y) +
			float64(c.TidY.Count())*coder.SetLen(dataset.Left, c.X) -
			coder.RuleLen(c.X, c.Y, true)
		if qub > core.GainEpsilon {
			survivors++
		}
	}
	const shards = 2
	fault.Set("shard.task", fault.Action{Skip: shards * survivors, Panic: "chaos: poisoned masked task"})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 1}, Config{Shards: shards, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fault.Hits("shard.task") == 0 {
		t.Fatal("schedule never fired; scenario is vacuous")
	}
	if stats.restarts == 0 {
		t.Fatal("no partition was rebuilt; the crash went unsupervised")
	}
	if len(stats.requested) < 2 || stats.requested[1] >= stats.requested[0] {
		t.Fatalf("requested pairs per round %v: round 2 was not masked", stats.requested)
	}
	sameResult(t, "crash on masked score", ref, res)
}

// stalledReaderReps is how often the stalled-reader scenarios repeat.
// One run exposes a payload-reuse race to -race only when the stalled
// read and the coordinator's overwrite happen to be unordered (under
// half the runs for GREEDY), so the repeats make `make chaos-shard`
// catch a regression all but surely.
const stalledReaderReps = 12

// checkStalledReader mines under a schedule that stalls one scoring
// task past its lease, reps times. The supervisor replaces the stalled
// incarnation and moves on to later rounds while the stalled task is
// still to read its request's payload (the candidate indices).
// Payloads belong to their request once dispatched, so the
// drivers must never reuse a payload buffer for a later round: -race
// reports it if they do.
func checkStalledReader(t *testing.T, label string, ref *core.Result, reps int, mine func() (*core.Result, *runStats, error)) {
	t.Helper()
	defer fault.Reset()
	for rep := 0; rep < reps; rep++ {
		fault.Reset()
		fault.Set("shard.task", fault.Action{Skip: 5, Delay: 3 * leaseForTest})
		res, stats, err := mine()
		if err != nil {
			t.Fatal(err)
		}
		if stats.restarts == 0 {
			t.Fatalf("%s rep %d: the stalled incarnation was never replaced", label, rep)
		}
		sameResult(t, label, ref, res)
	}
}

func TestChaosShardStalledReaderGreedy(t *testing.T) {
	d := plantedDataset(t, 13)
	cands := mustCandidates(t, d)
	opt := core.GreedyOptions{}
	ref, err := core.MineGreedy(context.Background(), d, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkStalledReader(t, "greedy stalled reader", ref, stalledReaderReps, func() (*core.Result, *runStats, error) {
		return mineGreedy(context.Background(), d, cands, opt, Config{Shards: 2, Workers: 2, Lease: leaseForTest})
	})
}

// A shard that panics on receive dies before producing anything; the
// supervisor restarts it and hands the successor the in-flight request.
func TestChaosShardCrashOnReceive(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 37)
	cands := mustCandidates(t, d)
	ref, err := core.MineGreedy(context.Background(), d, cands, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fault.Set("shard.recv", fault.Action{Skip: 2, Panic: "chaos: killed on receive"})
	res, stats, err := mineGreedy(context.Background(), d, cands,
		core.GreedyOptions{}, Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.restarts == 0 {
		t.Fatal("no partition was rebuilt; the crash went unsupervised")
	}
	sameResult(t, "crash on receive", ref, res)
}

// A shard that stalls past its lease is presumed dead: the lease timer
// rebuilds the partition and re-dispatches, and whatever the stalled
// incarnation eventually sends is staled by its term. (No assertion on
// the stale count — the replaced incarnation may also just drop its
// late completion on its cancelled context; both exits are correct.)
func TestChaosShardDelayPastLease(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 41)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	lease := leaseForTest
	fault.Set("shard.recv", fault.Action{Delay: 6 * lease})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 2}, Config{Shards: 3, Workers: 1, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	if stats.restarts == 0 {
		t.Fatal("lease expiry never rebuilt the stalled partition")
	}
	sameResult(t, "delay past lease", ref, res)
}

// A completion lost in transit looks exactly like a stalled shard: the
// lease recovers it through a rebuilt incarnation whose completion does
// arrive.
func TestChaosShardDroppedReply(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 43)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	fault.Set("shard.reply", fault.Action{Err: errors.New("chaos: completion lost")})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 3}, Config{Shards: 2, Workers: 2, Lease: leaseForTest})
	if err != nil {
		t.Fatal(err)
	}
	if stats.restarts == 0 {
		t.Fatal("the dropped completion was never recovered")
	}
	sameResult(t, "dropped reply", ref, res)
}

// A duplicated completion is discarded by value — (part, term, seq)
// dedup — whether it lands inside its own round or trails into the
// next one as a stale seq.
func TestChaosShardDuplicateReply(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 47)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	dup := errors.New("chaos: duplicate delivery")
	fault.Set("shard.reply.dup",
		fault.Action{Err: dup}, fault.Action{Err: dup}, fault.Action{Err: dup})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 3}, Config{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.stale == 0 {
		t.Fatal("no duplicate was discarded; dedup untested")
	}
	if stats.restarts != 0 {
		t.Fatalf("duplicates caused %d rebuilds; dedup should be restart-free", stats.restarts)
	}
	sameResult(t, "duplicate reply", ref, res)
}

// A shard that dies mid-apply is rebuilt by replaying the accepted-rule
// log — which excludes the in-flight rule, delivered instead via the
// re-dispatched request, so it reaches the successor's columns exactly
// once. The schedule also kills the first rebuild during its replay,
// proving the restart path is itself supervised.
func TestChaosShardCrashDuringApplyAndReplay(t *testing.T) {
	defer fault.Reset()
	d := twoPlantDataset(t, 53)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) < 2 {
		t.Fatal("need at least 2 reference rules so a rebuild has a log to replay")
	}

	// With 2 shards, apply hits 1-2 are the first rule; hit 3 is the
	// second rule's apply on one shard, whose log then holds rule 1.
	fault.Set("shard.apply", fault.Action{Skip: 2, Panic: "chaos: killed mid-apply"})
	fault.Set("shard.replay", fault.Action{Panic: "chaos: killed mid-replay"})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 3}, Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.restarts < 2 {
		t.Fatalf("restarts = %d, want >= 2 (the apply crash, then the replay crash)", stats.restarts)
	}
	if fault.Hits("shard.replay") == 0 {
		t.Fatal("no rebuild ever replayed the log")
	}
	sameResult(t, "crash during apply+replay", ref, res)
}

// A compound schedule — a poisoned scoring task and a killed apply in
// the same run — drives one incarnation through a score-round rebuild
// and another through an apply-round rebuild that replays the log.
func TestChaosShardCompoundSchedule(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 59)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) == 0 {
		t.Fatal("reference mined no rules; test is vacuous")
	}

	fault.Set("shard.task", fault.Action{Skip: 10, Panic: "chaos: poisoned scoring task"})
	fault.Set("shard.apply", fault.Action{Panic: "chaos: killed mid-apply"})
	res, stats, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 1}, Config{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.restarts < 2 {
		t.Fatalf("restarts = %d, want >= 2 (one per armed point)", stats.restarts)
	}
	sameResult(t, "compound schedule", ref, res)
}

// A partition that crashes past the run's restart budget fails the run
// with an error instead of looping on a deterministically dying shard.
func TestChaosShardRestartBudgetExhausted(t *testing.T) {
	defer fault.Reset()
	d := plantedDataset(t, 61)
	cands := mustCandidates(t, d)

	boom := fault.Action{Panic: "chaos: persistent crash"}
	fault.Set("shard.recv", boom, boom, boom, boom)
	_, _, err := mineSelect(context.Background(), d, cands,
		core.SelectOptions{K: 3}, Config{Shards: 2, Workers: 1, MaxRestarts: 1})
	if err == nil {
		t.Fatal("a persistently crashing shard must fail the run")
	}
	if !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err = %v, want the restart-budget failure", err)
	}
}
