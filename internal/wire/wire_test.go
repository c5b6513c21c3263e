package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/itemset"
)

// sampleMsgs is one representative of every message kind, exercising
// the interesting payload shapes: empty and multi-rule logs, ordered
// and multi-byte candidate indices, masked and unmasked scores, and
// zero-triple runs inside count slices.
func sampleMsgs() []Msg {
	return []Msg{
		&Hello{
			Part: 2, Term: 7, LoL: 0, HiL: 3, LoR: 1, HiR: 6, Workers: 4,
			DatasetHash: HashBytes([]byte("dataset")),
			CandsHash:   HashBytes([]byte("cands")),
			Log: []core.Rule{
				{X: itemset.New(0, 1), Dir: core.Both, Y: itemset.New(0)},
				{X: itemset.New(2), Dir: core.Forward, Y: itemset.New(1, 4)},
			},
		},
		&Hello{Part: 0, Term: 0, HiL: 1, HiR: 1, Workers: 1, DatasetHash: HashBytes(nil)},
		&HelloAck{Part: 1, Term: 3, Need: NeedDataset | NeedCands},
		&HelloAck{Part: 0, Term: 9},
		&Blob{Role: NeedDataset, Hash: HashBytes([]byte("x")), Data: []byte("L\ta\nR\tb\n0 | 0\n")},
		&Blob{Role: NeedCands, Hash: HashBytes([]byte("y")), Data: nil},
		&Score{Part: 1, Term: 2, Seq: 40, Lease: 250 * time.Millisecond, CandIdx: []int32{0, 3, 4, 100}},
		// Non-ascending indices: the greedy driver scores candidates in
		// length-descending order, so CandIdx order must survive the wire.
		&Score{Part: 1, Term: 2, Seq: 41, Lease: 250 * time.Millisecond, CandIdx: []int32{100, 3, 7, 3, 0}},
		&Score{Part: 0, Term: 1, Seq: 1, Lease: time.Second, CandIdx: []int32{1 << 20, 0, 65535}},
		&Score{Part: 3, Term: 0, Seq: 2, Lease: 0},
		// Masked SELECT requests: dirty items in both views, and an
		// empty left list (nothing dirty there, distinct from "all").
		&Score{Part: 1, Term: 3, Seq: 9, Lease: time.Second, CandIdx: []int32{0, 2, 7},
			Dirty: &[2]itemset.Itemset{itemset.New(1), itemset.New(0, 3, 40)}},
		&Score{Part: 0, Term: 0, Seq: 10, Lease: time.Second, CandIdx: []int32{5},
			Dirty: &[2]itemset.Itemset{nil, itemset.New(2)}},
		&Apply{Part: 0, Term: 4, Seq: 17, Lease: 10 * time.Second,
			Rule: core.Rule{X: itemset.New(0, 2), Dir: core.Backward, Y: itemset.New(1)}},
		&Reply{Part: 2, Term: 5, Seq: 40, Counts: []core.DirCounts{
			{
				Fwd: []core.ItemCount{
					{Item: 0, Covered: 0, Errors: 0},
					{Item: 1, Covered: 0, Errors: 0},
					{Item: 2, Covered: 9, Errors: 1},
					{Item: 5, Covered: 0, Errors: 0},
				},
				Back: []core.ItemCount{{Item: 3, Covered: 4, Errors: 4}},
			},
			{Fwd: nil, Back: nil},
		}},
		// An apply acknowledgement: one entry, both directions.
		&Reply{Part: 0, Term: 1, Seq: 3, Counts: []core.DirCounts{{
			Fwd:  []core.ItemCount{{Item: 7, Covered: 1, Errors: 0}},
			Back: []core.ItemCount{{Item: 0, Covered: 0, Errors: 2}, {Item: 40, Covered: 12, Errors: 0}},
		}}},
		&Crash{Part: 1, Term: 6},
	}
}

// TestRoundTrip pins decode(encode(m)) == m for every message shape.
func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		enc, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if n != len(enc) {
			t.Fatalf("%T: consumed %d of %d bytes", m, n, len(enc))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T roundtrip diverged:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// TestRoundTripConcatenated pins the stream property: frames decode one
// after another from a single buffer, each reporting its consumed size.
func TestRoundTripConcatenated(t *testing.T) {
	msgs := sampleMsgs()
	var stream []byte
	var err error
	for _, m := range msgs {
		if stream, err = Encode(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(stream) > 0; i++ {
		m, n, err := Decode(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, msgs[i]) {
			t.Fatalf("frame %d diverged", i)
		}
		stream = stream[n:]
	}
}

// TestWriteReadMsg pins the io-level wrappers against a stream with
// multiple frames and a reused buffer.
func TestWriteReadMsg(t *testing.T) {
	msgs := sampleMsgs()
	var buf bytes.Buffer
	var scratch []byte
	var err error
	for _, m := range msgs {
		if scratch, err = WriteMsg(&buf, scratch, m); err != nil {
			t.Fatal(err)
		}
	}
	var rbuf []byte
	for i := range msgs {
		var m Msg
		m, rbuf, err = ReadMsg(&buf, rbuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, msgs[i]) {
			t.Fatalf("frame %d diverged", i)
		}
	}
}

// TestZeroTripleCompression pins that the RLE actually compresses: a
// count slice that is mostly zero triples must encode smaller than its
// dense 12-byte-per-triple form, and still roundtrip exactly.
func TestZeroTripleCompression(t *testing.T) {
	counts := make([]core.ItemCount, 500)
	for i := range counts {
		counts[i].Item = int32(i)
	}
	counts[250] = core.ItemCount{Item: 250, Covered: 3, Errors: 1}
	m := &Reply{Part: 0, Term: 1, Seq: 1, Counts: []core.DirCounts{{Fwd: counts}}}
	enc, err := Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 2*len(counts) {
		t.Fatalf("500 mostly-zero triples encoded to %d bytes; RLE is not engaging", len(enc))
	}
	got, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("compressed roundtrip diverged")
	}
}

// TestTruncatedFramesError pins that every proper prefix of a valid
// frame errors and never panics.
func TestTruncatedFramesError(t *testing.T) {
	for _, m := range sampleMsgs() {
		enc, err := Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(enc); i++ {
			if _, _, err := Decode(enc[:i]); err == nil {
				t.Fatalf("%T: prefix of %d/%d bytes decoded without error", m, i, len(enc))
			}
		}
	}
}

// TestHeaderValidation pins the explicit framing failures: oversized
// length prefix, version mismatch, unknown kind, trailing payload.
func TestHeaderValidation(t *testing.T) {
	valid, err := Encode(nil, &Crash{Part: 1, Term: 2})
	if err != nil {
		t.Fatal(err)
	}

	oversized := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(oversized, MaxFrame+1)
	if _, _, err := Decode(oversized); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: err = %v, want ErrFrameTooLarge", err)
	}

	badVersion := append([]byte(nil), valid...)
	badVersion[4] = Version + 1
	if _, _, err := Decode(badVersion); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: err = %v, want ErrBadVersion", err)
	}

	badKind := append([]byte(nil), valid...)
	badKind[5] = byte(kindMax) + 1
	if _, _, err := Decode(badKind); !errors.Is(err, ErrBadKind) {
		t.Fatalf("bad kind: err = %v, want ErrBadKind", err)
	}

	trailing := append(append([]byte(nil), valid...), 0xFF)
	binary.BigEndian.PutUint32(trailing, uint32(len(valid)-HeaderSize+1))
	if _, _, err := Decode(trailing); err == nil {
		t.Fatal("trailing payload bytes decoded without error")
	}
}

// TestV2FrameRejected pins the version bump: the version-2 SCORE frame
// kept in the fuzz corpus (its payload still carries the inline-pairs
// count that version 3 dropped) must fail with ErrBadVersion at the
// header, before any of its payload is read.
func TestV2FrameRejected(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzWireCodec/v2-score")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	frame, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("corpus entry: %v", err)
	}
	if frame[4] != 2 || Kind(frame[5]) != KindScore {
		t.Fatalf("corpus entry is version %d kind %d, want a version-2 Score", frame[4], frame[5])
	}
	if _, _, err := Decode([]byte(frame)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v2 frame: err = %v, want ErrBadVersion", err)
	}
}

// TestScoreDirtySection pins the masked-SCORE section of the protocol:
// an unmasked request pays one byte for it, and decodeScore rejects an
// unknown flag byte and item lists that are not strictly ascending or
// leave the int32 range.
func TestScoreDirtySection(t *testing.T) {
	base := &Score{Part: 1, Term: 2, Seq: 3, Lease: time.Second, CandIdx: []int32{4, 1}}
	enc, err := Encode(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	masked := *base
	masked.Dirty = &[2]itemset.Itemset{nil, nil}
	encMasked, err := Encode(nil, &masked)
	if err != nil {
		t.Fatal(err)
	}
	if enc[len(enc)-1] != dirtyAll || len(encMasked) != len(enc)+2 {
		t.Fatalf("unmasked frame ends in %#x, masked frame is %d bytes vs %d; want the one-byte all-items form",
			enc[len(enc)-1], len(encMasked), len(enc))
	}

	badFlag := append([]byte(nil), enc...)
	badFlag[len(badFlag)-1] = dirtyMasked + 1
	if _, _, err := Decode(badFlag); err == nil {
		t.Error("unknown dirty flag byte decoded without error")
	}

	for _, bad := range []struct {
		label string
		m     *Score
	}{
		{"descending items", &Score{CandIdx: []int32{0}, Dirty: &[2]itemset.Itemset{{5, 3}, nil}}},
		{"repeated item", &Score{CandIdx: []int32{0}, Dirty: &[2]itemset.Itemset{nil, {2, 2}}}},
		{"item above MaxInt32", &Score{CandIdx: []int32{0}, Dirty: &[2]itemset.Itemset{nil, {1 << 31}}}},
	} {
		frame, err := Encode(nil, bad.m)
		if err != nil {
			t.Fatalf("%s: encode: %v", bad.label, err)
		}
		if _, _, err := Decode(frame); err == nil {
			t.Errorf("%s: decoded without error", bad.label)
		}
	}
}

// TestLengthAmplificationRejected pins the anti-amplification guard: a
// tiny frame claiming a huge element count must error up front, not
// allocate proportionally to the claim.
func TestLengthAmplificationRejected(t *testing.T) {
	// A Reply frame whose payload claims 2^24 count entries in 4 bytes.
	payload := []byte{1, 2, 3} // part, term, seq
	payload = binary.AppendUvarint(payload, 1<<24)
	frame := make([]byte, HeaderSize, HeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	frame[4], frame[5] = Version, byte(KindReply)
	frame = append(frame, payload...)
	if _, _, err := Decode(frame); err == nil {
		t.Fatal("length-amplified frame decoded without error")
	}
}

// TestEncodeRejectsOversizedPayload pins the encoder half of MaxFrame.
func TestEncodeRejectsOversizedPayload(t *testing.T) {
	m := &Blob{Role: NeedDataset, Hash: HashBytes(nil), Data: make([]byte, MaxFrame)}
	if _, err := Encode(nil, m); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestCandidateBlobRoundTrip pins the candidate-list blob helpers.
func TestCandidateBlobRoundTrip(t *testing.T) {
	cands := []core.Candidate{
		{X: itemset.New(0, 1), Y: itemset.New(2)},
		{X: itemset.New(4), Y: itemset.New(0, 1, 5)},
	}
	b := AppendCandidates(nil, cands)
	got, err := DecodeCandidates(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cands) {
		t.Fatalf("%d candidates, want %d", len(got), len(cands))
	}
	for i := range cands {
		if !got[i].X.Equal(cands[i].X) || !got[i].Y.Equal(cands[i].Y) {
			t.Fatalf("candidate %d diverged: %v -> %v", i, cands[i], got[i])
		}
	}
	if _, err := DecodeCandidates(b[:len(b)-1]); err == nil {
		t.Fatal("truncated candidate blob decoded without error")
	}
}
