package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"twoview/internal/core"
	"twoview/internal/itemset"
)

// Payload encoding primitives and the per-message payload codecs.
// Everything here is defensive on the decode side: every length is
// validated against the bytes actually remaining before any allocation,
// growth is append-based (proportional to input, never to a claimed
// length), and no input can panic the decoder.

var (
	errTruncated = errors.New("wire: truncated payload")
	errTrailing  = errors.New("wire: trailing bytes after payload")
	errCorrupt   = errors.New("wire: corrupt payload")
)

// preallocCap bounds speculative preallocation from decoded lengths:
// the decoder may reserve up to this many elements up front, then grows
// by append so total allocation tracks the input actually supplied.
const preallocCap = 1024

// dec is a bounds-checked payload reader. After the first error every
// read returns the zero value; callers check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return v
}

// length reads a count that must be payable by at least min bytes per
// element from the remaining payload — the anti-amplification guard.
func (d *dec) length(min int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(d.b)-d.off)/uint64(min) {
		d.fail(errCorrupt)
		return 0
	}
	return int(v)
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail(errTruncated)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) hash() Hash {
	var h Hash
	copy(h[:], d.bytes(len(h)))
	return h
}

func (d *dec) int32() int32 {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail(errCorrupt)
		return 0
	}
	return int32(v)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return errTrailing
	}
	return nil
}

// appendItemset writes s as a length plus ascending deltas (first item
// absolute, then gaps): itemsets are canonical (strictly ascending,
// non-negative) everywhere in the protocol.
func appendItemset(dst []byte, s itemset.Itemset) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	prev := -1
	for _, it := range s {
		dst = binary.AppendUvarint(dst, uint64(it-prev-1))
		prev = it
	}
	return dst
}

func (d *dec) itemset() itemset.Itemset {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	s := make(itemset.Itemset, 0, min(n, preallocCap))
	next := uint64(0) // the smallest admissible item: prev + 1
	for i := 0; i < n; i++ {
		delta := d.uvarint()
		if d.err != nil {
			return nil
		}
		it := next + delta
		if delta > math.MaxInt32 || it > math.MaxInt32 {
			d.fail(errCorrupt)
			return nil
		}
		s = append(s, int(it))
		next = it + 1
	}
	return s
}

// appendRule writes the rule as X, direction, Y.
func appendRule(dst []byte, r core.Rule) []byte {
	dst = appendItemset(dst, r.X)
	dst = binary.AppendUvarint(dst, uint64(r.Dir))
	return appendItemset(dst, r.Y)
}

func (d *dec) rule() core.Rule {
	var r core.Rule
	r.X = d.itemset()
	dir := d.uvarint()
	if dir > uint64(core.Both) {
		d.fail(errCorrupt)
		return core.Rule{}
	}
	r.Dir = core.Direction(dir)
	r.Y = d.itemset()
	return r
}

// appendCounts writes one direction's per-item count slice with its
// zero triples run-length compressed: alternating run headers
// (runLen<<1 | isZero), zero runs as bare item deltas, non-zero runs as
// (delta, covered, errors) triples. Items are strictly ascending across
// the whole slice (ScoreDir emits in consequent-item order), so deltas
// encode the items exactly.
func appendCounts(dst []byte, counts []core.ItemCount) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(counts)))
	prev := -1
	for i := 0; i < len(counts); {
		zero := counts[i].Covered == 0 && counts[i].Errors == 0
		j := i + 1
		for j < len(counts) && (counts[j].Covered == 0 && counts[j].Errors == 0) == zero {
			j++
		}
		header := uint64(j-i) << 1
		if zero {
			header |= 1
		}
		dst = binary.AppendUvarint(dst, header)
		for ; i < j; i++ {
			c := counts[i]
			dst = binary.AppendUvarint(dst, uint64(int(c.Item)-prev-1))
			prev = int(c.Item)
			if !zero {
				dst = binary.AppendUvarint(dst, uint64(c.Covered))
				dst = binary.AppendUvarint(dst, uint64(c.Errors))
			}
		}
	}
	return dst
}

func (d *dec) counts() []core.ItemCount {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	counts := make([]core.ItemCount, 0, min(n, preallocCap))
	next := uint64(0) // the smallest admissible item: prev + 1
	for len(counts) < n {
		header := d.uvarint()
		if d.err != nil {
			return nil
		}
		runLen := int(header >> 1)
		zero := header&1 == 1
		if runLen < 1 || runLen > n-len(counts) {
			d.fail(errCorrupt)
			return nil
		}
		for k := 0; k < runLen; k++ {
			delta := d.uvarint()
			it := next + delta
			if delta > math.MaxInt32 || it > math.MaxInt32 {
				d.fail(errCorrupt)
				return nil
			}
			var c core.ItemCount
			c.Item = int32(it)
			next = it + 1
			if !zero {
				c.Covered = d.int32()
				c.Errors = d.int32()
			}
			if d.err != nil {
				return nil
			}
			counts = append(counts, c)
		}
	}
	return counts
}

// --- per-message payload codecs ---

func appendHello(dst []byte, m *Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, m.Term)
	for _, v := range [5]int32{m.LoL, m.HiL, m.LoR, m.HiR, m.Workers} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = append(dst, m.DatasetHash[:]...)
	dst = append(dst, m.CandsHash[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Log)))
	for _, r := range m.Log {
		dst = appendRule(dst, r)
	}
	return dst
}

func decodeHello(d *dec) *Hello {
	m := &Hello{Part: d.int32(), Term: d.uvarint()}
	m.LoL, m.HiL = d.int32(), d.int32()
	m.LoR, m.HiR = d.int32(), d.int32()
	m.Workers = d.int32()
	m.DatasetHash = d.hash()
	m.CandsHash = d.hash()
	n := d.length(1)
	if n > 0 && d.err == nil {
		m.Log = make([]core.Rule, 0, min(n, preallocCap))
		for i := 0; i < n && d.err == nil; i++ {
			m.Log = append(m.Log, d.rule())
		}
	}
	return m
}

func appendHelloAck(dst []byte, m *HelloAck) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, m.Term)
	return append(dst, m.Need)
}

func decodeHelloAck(d *dec) *HelloAck {
	m := &HelloAck{Part: d.int32(), Term: d.uvarint(), Need: d.u8()}
	if m.Need&^(NeedDataset|NeedCands) != 0 {
		d.fail(errCorrupt)
	}
	return m
}

func appendBlob(dst []byte, m *Blob) []byte {
	dst = append(dst, m.Role)
	dst = append(dst, m.Hash[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Data)))
	return append(dst, m.Data...)
}

func decodeBlob(d *dec) *Blob {
	m := &Blob{Role: d.u8(), Hash: d.hash()}
	if d.err == nil && m.Role != NeedDataset && m.Role != NeedCands {
		d.fail(errCorrupt)
		return m
	}
	n := d.length(1)
	if data := d.bytes(n); d.err == nil {
		// Copy out: frames may be decoded from a reused read buffer.
		m.Data = append([]byte(nil), data...)
	}
	return m
}

func appendScore(dst []byte, m *Score) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, m.Term)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(m.Lease))
	dst = binary.AppendUvarint(dst, uint64(len(m.CandIdx)))
	// Plain uvarints, not deltas: the order of CandIdx is part of the
	// request (the greedy driver scores candidates in its own
	// length-descending walk order), so the sequence is not monotonic.
	for _, idx := range m.CandIdx {
		dst = binary.AppendUvarint(dst, uint64(idx))
	}
	if m.Dirty == nil {
		return append(dst, dirtyAll)
	}
	dst = append(dst, dirtyMasked)
	dst = appendItemset(dst, m.Dirty[0])
	return appendItemset(dst, m.Dirty[1])
}

// The flag byte of Score's dirty section: every item (one byte in
// total, the form GREEDY requests use), or two delta-encoded item
// lists, left view then right view.
const (
	dirtyAll    uint8 = 0
	dirtyMasked uint8 = 1
)

func decodeScore(d *dec) *Score {
	m := &Score{Part: d.int32(), Term: d.uvarint(), Seq: d.uvarint()}
	m.Lease = time.Duration(d.uvarint())
	if m.Lease < 0 {
		d.fail(errCorrupt)
		return m
	}
	nIdx := d.length(1)
	if nIdx > 0 && d.err == nil {
		m.CandIdx = make([]int32, 0, min(nIdx, preallocCap))
		for i := 0; i < nIdx && d.err == nil; i++ {
			idx := d.uvarint()
			if idx > math.MaxInt32 {
				d.fail(errCorrupt)
				break
			}
			m.CandIdx = append(m.CandIdx, int32(idx))
		}
	}
	switch d.u8() {
	case dirtyAll:
	case dirtyMasked:
		m.Dirty = &[2]itemset.Itemset{d.itemset(), d.itemset()}
	default:
		d.fail(errCorrupt)
	}
	return m
}

func appendApply(dst []byte, m *Apply) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, m.Term)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(m.Lease))
	return appendRule(dst, m.Rule)
}

func decodeApply(d *dec) *Apply {
	m := &Apply{Part: d.int32(), Term: d.uvarint(), Seq: d.uvarint()}
	m.Lease = time.Duration(d.uvarint())
	if m.Lease < 0 {
		d.fail(errCorrupt)
		return m
	}
	m.Rule = d.rule()
	return m
}

func appendReply(dst []byte, m *Reply) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, m.Term)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(m.Counts)))
	for _, dc := range m.Counts {
		dst = appendCounts(dst, dc.Fwd)
		dst = appendCounts(dst, dc.Back)
	}
	return dst
}

func decodeReply(d *dec) *Reply {
	m := &Reply{Part: d.int32(), Term: d.uvarint(), Seq: d.uvarint()}
	n := d.length(2)
	if n > 0 && d.err == nil {
		m.Counts = make([]core.DirCounts, 0, min(n, preallocCap))
		for i := 0; i < n && d.err == nil; i++ {
			m.Counts = append(m.Counts, core.DirCounts{Fwd: d.counts(), Back: d.counts()})
		}
	}
	return m
}

func appendCrash(dst []byte, m *Crash) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	return binary.AppendUvarint(dst, m.Term)
}

func decodeCrash(d *dec) *Crash {
	return &Crash{Part: d.int32(), Term: d.uvarint()}
}

// AppendCandidates serializes a candidate list for the NeedCands blob:
// itemsets only. Shard hosts recompute the support tidsets themselves —
// they are dataset-static — so the transfer stays proportional to the
// pattern text, not to |D|.
func AppendCandidates(dst []byte, cands []core.Candidate) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cands)))
	for i := range cands {
		dst = appendItemset(dst, cands[i].X)
		dst = appendItemset(dst, cands[i].Y)
	}
	return dst
}

// DecodeCandidates parses a NeedCands blob. Only X and Y are populated;
// the caller derives TidX/TidY from its dataset.
func DecodeCandidates(b []byte) ([]core.Candidate, error) {
	d := &dec{b: b}
	n := d.length(2)
	var cands []core.Candidate
	if n > 0 && d.err == nil {
		cands = make([]core.Candidate, 0, min(n, preallocCap))
		for i := 0; i < n && d.err == nil; i++ {
			cands = append(cands, core.Candidate{X: d.itemset(), Y: d.itemset()})
		}
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: candidate blob: %w", err)
	}
	return cands, nil
}
