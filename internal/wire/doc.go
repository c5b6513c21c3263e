// Package wire holds the one message set of the sharded mining
// protocol (documented in internal/shard/doc.go) and its binary codec,
// framed for a TCP stream. internal/shard's supervisor and its
// incarnations (shard.Serve) pass these same Hello, Score, Apply, Reply
// and Crash values over channels in process; only the TCP transport and
// cmd/shardworker encode them, adding HelloAck and Blob for the
// bootstrap transfer. The codec is pure representation: nothing in
// this package makes a supervision or mining decision.
//
// # Framing
//
// Every message travels as one length-prefixed frame:
//
//	offset  size  field
//	0       4     payload length (big-endian uint32, header excluded)
//	4       1     protocol version (Version)
//	5       1     message kind (KindHello ... KindCrash)
//	6       len   payload
//
// The length prefix counts only the payload, so a reader can size its
// buffer before touching the kind byte. Frames larger than MaxFrame are
// rejected by both Encode and Decode: a corrupted or hostile length
// prefix can never make the decoder allocate past that bound, because
// every variable-length field is additionally validated against the
// bytes actually remaining in the frame before any allocation.
// A version byte other than Version fails the frame immediately —
// framing changes bump Version and old peers reject new frames at
// offset 4, not mid-payload. The current version is 3. Version 2 added
// the dirty-item section of Score. Version 3 removed everything the
// sharded EXACT search used, which now always runs in-process: Score's
// inline (X, Y) pairs, Apply's want-cover flag and Reply's per-item
// covered tidsets. A peer on an older version fails at the first frame.
//
// # Payload encoding
//
// Payload fields use unsigned varints (binary.AppendUvarint) for
// integers and varint-length-prefixed byte strings for blobs.
// Itemsets and per-item count slices are delta-encoded: items are
// strictly ascending in every message of the protocol, so the deltas
// stay small and the decoder gets ascending order (and int32 range)
// validated for free. Candidate
// index slices are the one exception — their order is part of the
// request (the greedy driver walks candidates in its own order), so
// they ride as plain uvarints.
//
// A Score ends with its dirty-item section, one flag byte: 0 asks for
// every owned item (GREEDY, and any request that is not masked), 1 is
// followed by two delta-encoded item lists, left view then right view,
// naming the consequent items to score (SELECT's incremental rounds).
// The decoder rejects any other flag byte.
//
// Count slices (core.ItemCount) are run-length encoded around their
// zero triples: a partition answers a SCORE entry with every owned
// consequent item, most of which have (covered, errors) == (0, 0) once
// mining converges, so runs of zero triples collapse to a run header
// plus their item deltas. The compression is lossless — Decode
// reconstructs exactly the triples ScoreDir emitted, zero or not — so
// the coordinator's folds see bit-identical inputs either way.
//
// # Dataset and candidate transfer
//
// The HELLO-time bootstrap transfers are content-addressed: Hello
// carries the SHA-256 of the dataset's serialized form (and of the
// candidate list, when the run has one), the host answers with the
// subset it does not already hold (HelloAck.Need), and only that subset
// flows as Blob frames. A shard host persists blobs under their hex
// hash, so repeat runs over the same dataset — and reconnects after a
// worker restart — HELLO straight into a local cache hit and transfer
// nothing.
package wire
