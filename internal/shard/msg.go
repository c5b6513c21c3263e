package shard

import (
	"time"

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

// request is one leased work message from the supervisor to a shard.
type request struct {
	kind msgKind
	// seq is the round number and term the receiving incarnation's
	// number; the pair makes completions dedupable (see reply).
	seq, term uint64
	// lease bounds the shard's work on this message: scoring phases run
	// under a pool.Lease of this duration.
	lease time.Duration

	// msgScore payload: indices into the run's announced candidate
	// list. dirty, when non-nil, restricts the request to the
	// consequent items it lists per target view (SELECT's incremental
	// rounds); nil scores every owned item. A payload belongs to its
	// request once dispatched: a replaced incarnation may still be
	// reading it, so the cover's Score builds a fresh one per round
	// instead of reusing buffers.
	candIdx []int32
	dirty   *[2]itemset.Itemset

	// msgApply payload: the accepted rule.
	rule core.Rule
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
}
