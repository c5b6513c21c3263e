package shard

import (
	"time"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/itemset"
)

// The in-process forms of the SCORE/APPLY/CRASH messages of the
// protocol (see the package doc for the wire-format reading). Requests
// flow supervisor → shard mailbox, replies and crash notices flow
// shard → supervisor inbox; nothing else crosses the boundary after
// bootstrap.

type msgKind uint8

const (
	msgScore msgKind = iota + 1
	msgApply
)

// pairMsg is one inline (X, Y) pair of an EXACT scoring request. The
// itemsets are owned by the coordinator and immutable once sent.
type pairMsg struct {
	x, y itemset.Itemset
}

// request is one leased work message from the supervisor to a shard.
type request struct {
	kind msgKind
	// seq is the round number and term the receiving incarnation's
	// number; the pair makes completions dedupable (see reply).
	seq, term uint64
	// lease bounds the shard's work on this message: scoring phases run
	// under a pool.Lease of this duration.
	lease time.Duration

	// msgScore payload: either indices into the run's announced
	// candidate list (SELECT/GREEDY) or inline pairs (EXACT). dirty,
	// when non-nil, restricts a candIdx request to the consequent items
	// it lists per target view (SELECT's incremental rounds); nil scores
	// every owned item. A payload belongs to its request once
	// dispatched: a replaced incarnation may still be reading it, so
	// the senders (the cover's Score, the EXACT search) build a fresh one
	// per round instead of reusing buffers.
	candIdx []int32
	pairs   []pairMsg
	dirty   *[2]itemset.Itemset

	// msgApply payload: the accepted rule, and whether the
	// acknowledgement must carry per-item covered tidsets (EXACT, for
	// the coordinator's tub mirror).
	rule      core.Rule
	wantCover bool
}

// tasks returns the number of scoring entries the request carries.
func (req *request) tasks() int {
	if len(req.candIdx) > 0 {
		return len(req.candIdx)
	}
	return len(req.pairs)
}

// dirCovers carries, aligned with an apply acknowledgement's count
// slices, the covered tidset of each owned consequent item — owned
// clones, safe to retain on the coordinator.
type dirCovers struct {
	fwd, back []*bitset.Set
}

// reply is a shard's completion or crash notice. The supervisor accepts
// a completion only if (part, term, seq) matches the incarnation and
// round it is waiting on; everything else — duplicates, reorders, and
// messages from replaced incarnations — is discarded by value. A crash
// notice carries only (part, term): it retires that incarnation.
type reply struct {
	part      int
	term, seq uint64
	crash     bool

	// counts holds one DirCounts per scored entry (msgScore) or exactly
	// one (msgApply), restricted to the partition's owned items (and,
	// for a masked SCORE, to the request's dirty items).
	counts []core.DirCounts
	// covers accompanies counts[0] of an apply acknowledgement when the
	// request set wantCover.
	covers *dirCovers
}
