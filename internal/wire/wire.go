package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"twoview/internal/core"
	"twoview/internal/itemset"
)

// Version is the protocol version carried by every frame header. Peers
// reject frames with any other value, so incompatible codec changes
// fail the connection at the first frame instead of corrupting a run.
// Version 2 added Score's dirty-item section; version 3 removed
// Score's inline pairs, Apply's cover flag and Reply's covered tidsets.
const Version = 3

// MaxFrame is the payload-size ceiling enforced by Encode and Decode.
// It must admit the largest legitimate frame — a dataset Blob — and
// bounds what a corrupted length prefix can make a reader buffer.
const MaxFrame = 1 << 26 // 64 MiB

// HeaderSize is the fixed frame header: 4-byte payload length,
// 1-byte version, 1-byte kind.
const HeaderSize = 6

// Kind identifies a frame's message type.
type Kind uint8

const (
	// KindHello announces one partition incarnation to a shard host:
	// ranges, term, content hashes, and the accepted-rule log to replay.
	KindHello Kind = iota + 1
	// KindHelloAck answers a Hello with the set of blobs the host still
	// needs (possibly none — the content-hash cache hit).
	KindHelloAck
	// KindBlob transfers one content-addressed payload (dataset or
	// candidate list) after a HelloAck requested it.
	KindBlob
	// KindScore is a leased scoring request over candidate indices.
	KindScore
	// KindApply is a leased apply request for one accepted rule.
	KindApply
	// KindReply is a completion: per-entry counts.
	KindReply
	// KindCrash is a shard host's voluntary retire notice.
	KindCrash

	kindMax = KindCrash
)

// Msg is one protocol message; the concrete types below implement it.
type Msg interface{ Kind() Kind }

// Hash is a SHA-256 content hash, the key of the HELLO-time transfer
// cache. The zero Hash means "absent" (a run without candidates).
type Hash [sha256.Size]byte

// HashBytes returns the content hash of b.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// IsZero reports whether h is the absent-content sentinel.
func (h Hash) IsZero() bool { return h == Hash{} }

// String returns the hex form, used as the cache file name.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Need bits of HelloAck, doubling as Blob roles: the bit a host sets in
// Need is the Role of the blob that satisfies it.
const (
	NeedDataset uint8 = 1 << iota
	NeedCands
)

// Hello announces one partition incarnation: "host items
// [LoL,HiL)×[LoR,HiR) of the content-addressed dataset at term Term,
// rebuilt from Log". It is resent verbatim after a reconnect, so a
// host must treat a Hello for an already-hosted (Part, Term) as
// idempotent.
type Hello struct {
	Part    int32
	Term    uint64
	LoL     int32
	HiL     int32
	LoR     int32
	HiR     int32
	Workers int32

	DatasetHash Hash
	// CandsHash is zero for runs with an empty candidate list.
	CandsHash Hash

	// Log is the accepted-rule log snapshot this incarnation replays at
	// birth. In process, shard.Serve receives this same Hello.
	Log []core.Rule
}

func (*Hello) Kind() Kind { return KindHello }

// HelloAck reports which of the Hello's content hashes the host cannot
// serve from its cache. Need == 0 is the cache hit: the incarnation
// boots without any transfer.
type HelloAck struct {
	Part int32
	Term uint64
	Need uint8
}

func (*HelloAck) Kind() Kind { return KindHelloAck }

// Blob is one content-addressed transfer: the serialized dataset
// (Role == NeedDataset, dataset text format) or candidate list
// (Role == NeedCands, AppendCandidates encoding).
type Blob struct {
	Role uint8
	Hash Hash
	Data []byte
}

func (*Blob) Kind() Kind { return KindBlob }

// Score is a leased scoring request over CandIdx, indices into the
// announced candidate list.
type Score struct {
	Part  int32
	Term  uint64
	Seq   uint64
	Lease time.Duration

	CandIdx []int32

	// Dirty, when non-nil, masks the request: per target view (indexed
	// by dataset.View), the strictly ascending consequent items to
	// score; the reply carries counts for those items only. nil scores
	// every owned item.
	Dirty *[2]itemset.Itemset
}

func (*Score) Kind() Kind { return KindScore }

// Apply is a leased apply request for one accepted rule.
type Apply struct {
	Part  int32
	Term  uint64
	Seq   uint64
	Lease time.Duration

	Rule core.Rule
}

func (*Apply) Kind() Kind { return KindApply }

// Reply is a completion: one DirCounts per scored entry (Score) or
// exactly one (Apply), restricted to the partition's owned items, with
// zero triples run-length compressed on the wire. The (Part, Term, Seq)
// triple is the dedup key — the transport may duplicate or reorder
// frames freely.
type Reply struct {
	Part int32
	Term uint64
	Seq  uint64

	Counts []core.DirCounts
}

func (*Reply) Kind() Kind { return KindReply }

// Crash is a host's voluntary retire notice for one incarnation:
// recovered panic or self-detected lease blowout. A broken connection
// is the involuntary spelling of the same event; the supervisor maps
// both onto its CRASH path.
type Crash struct {
	Part int32
	Term uint64
}

func (*Crash) Kind() Kind { return KindCrash }
