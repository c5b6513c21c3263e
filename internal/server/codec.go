package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The translate bodies' codec. Requests are parsed straight into
// translateRequest and batchRequest, with the semantics of
// json.NewDecoder(body).Decode; responses are appended with strconv into
// one buffer, byte for byte what json.NewEncoder(w).Encode writes.
// Neither side uses reflection: decoding a 64-row batch with
// encoding/json took longer than translating it.

// maxDepth is encoding/json's nesting limit, counted from the body's
// top-level value.
const maxDepth = 10000

// errTooManyRows is the batch decoder's verdict on a rows array longer
// than the row limit.
var errTooManyRows = errors.New("too many rows")

// decode fills the zero req from d's body as
// json.NewDecoder(body).Decode(req) would. req.Items lives in d's arena
// until d goes back to the pool.
func (req *translateRequest) decode(d *decoder) error {
	return d.top(func(key []byte) {
		switch {
		case is(key, "from"):
			d.from(&req.From)
		case is(key, "items"):
			req.Items = d.ints(req.Items)
		default:
			d.skip()
		}
	})
}

// decode fills the zero req from d's body as
// json.NewDecoder(body).Decode(req) would, but it stops with
// errTooManyRows at row maxRows+1 of any rows value, so an oversized
// rows array sheds the request even when a later repeated "rows" key
// would replace it. req.Rows lives in d's arena until d goes back to
// the pool.
func (req *batchRequest) decode(d *decoder, maxRows int) error {
	return d.top(func(key []byte) {
		switch {
		case is(key, "from"):
			d.from(&req.From)
		case is(key, "rows"):
			req.Rows = d.rows(req.Rows, maxRows)
		default:
			d.skip()
		}
	})
}

// is reports whether an object key selects the field named name, as
// encoding/json matches them: exactly, or else under Unicode case
// folding.
func is(key []byte, name string) bool {
	return string(key) == name || strings.EqualFold(string(key), name)
}

// decoder reads one JSON request body through a fixed buffer. Every
// value is validated as encoding/json's scanner does (JSON whitespace
// only, at most maxDepth open objects and arrays); the bytes after the
// body's value are never read.
//
// The first error sticks in err: from then on the buffer reads as
// drained and every read yields the byte 0, which no rule accepts, so
// each method returns soon after without checking err itself.
type decoder struct {
	r        io.Reader
	buf      [512]byte
	pos, end int    // the unread bytes are buf[pos:end]
	off      int    // body offset of buf[0], for error messages
	rerr     error  // the reader's last error, returned once buf is drained
	err      error  // the decode's first error
	depth    int    // open objects and arrays
	s        []byte // the string being read, quotes included
	// arena backs the decoded item lists: each is cut from it with its
	// capacity capped at its length, and growth leaves the lists cut
	// earlier on the previous backing array.
	arena []int
}

// decoders recycles decoders with their arena: a request's item lists
// are dead once it is translated, so the next request can reuse their
// memory instead of growing a new arena.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// putScratch drops an arena or string buffer larger than these rather
// than pooling it, so that one outsized body does not pin its memory.
const (
	maxPooledInts  = 1 << 16
	maxPooledBytes = 1 << 12
)

// getScratch returns a pooled decoder reading body. The lists it
// decodes are valid until putScratch returns it.
func getScratch(body io.Reader) *decoder {
	d := decoders.Get().(*decoder)
	d.r = body
	return d
}

// putScratch resets d and returns it to the pool.
func putScratch(d *decoder) {
	arena, s := d.arena[:0], d.s[:0]
	if cap(arena) > maxPooledInts {
		arena = nil
	}
	if cap(s) > maxPooledBytes {
		s = nil
	}
	*d = decoder{arena: arena, s: s}
	decoders.Put(d)
}

// top reads the body's value: an object, whose members go to field, or
// null, which leaves the request as it is. Anything else is an error,
// as Decode into a struct rejects it.
func (d *decoder) top(field func(key []byte)) error {
	switch d.space() {
	case 'n':
		d.literal("null")
	case '{':
		d.list(field)
	default:
		d.failf("body is not a JSON object")
	}
	return d.err
}

// list reads an object or an array, its '{' or '[' being the next byte,
// and calls each to read every member's value: in an object after the
// member's key (decoded, valid until the next string is read) and
// colon, in an array with a nil key.
func (d *decoder) list(each func(key []byte)) {
	obj := d.buf[d.pos] == '{'
	end := byte(']')
	if obj {
		end = '}'
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.failf("exceeded max depth %d", maxDepth)
		return
	}
	c := d.space()
	if c == end {
		d.pos++
		d.depth--
		return
	}
	for d.err == nil {
		var key []byte
		if obj {
			if c != '"' {
				d.syntax(c)
				return
			}
			key = d.str()
			if c = d.space(); c != ':' {
				d.syntax(c)
				return
			}
			d.pos++
		}
		each(key)
		switch c = d.space(); c {
		case end:
			d.pos++
			d.depth--
			return
		case ',':
			d.pos++
			c = d.space()
		default:
			d.syntax(c)
		}
	}
}

// skip validates and discards one value of any type.
func (d *decoder) skip() {
	switch d.space() {
	case '{', '[':
		d.list(func([]byte) { d.skip() })
	case '"':
		d.str()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}

// from reads the view name: a string, or null, which leaves *dst as it
// is.
func (d *decoder) from(dst *string) {
	switch d.space() {
	case 'n':
		d.literal("null")
	case '"':
		*dst = string(d.str())
	default:
		d.failf("from is not a string")
	}
}

// rows reads a list of item-id lists, or null, into old as
// encoding/json decodes into a [][]int that holds old: the result
// reuses old's backing array, a null row is nil, and every other row is
// decoded by ints into the row old's backing array held at its index.
// An empty list is a new empty slice, dropping old's array. Row
// maxRows+1 fails with errTooManyRows.
func (d *decoder) rows(old [][]int, maxRows int) [][]int {
	if !d.array("rows") {
		return nil
	}
	rows := old[:0]
	d.list(func([]byte) {
		if len(rows) == maxRows {
			d.fail(errTooManyRows)
			return
		}
		var row []int
		if i := len(rows); i < cap(old) {
			row = old[:cap(old)][i]
		}
		rows = append(rows, d.ints(row))
	})
	if len(rows) == 0 {
		return [][]int{}
	}
	return rows
}

// ints reads a list of item ids, or null, into old as encoding/json
// decodes into a []int that holds old: a null id keeps the value that
// old's backing array holds at its index (0 past its capacity), a list
// that fits in old's capacity is written there, and a longer one is
// cut from the arena. An empty list is a new empty slice, dropping
// old's array.
func (d *decoder) ints(old []int) []int {
	if !d.array("item ids") {
		return nil
	}
	start := len(d.arena)
	d.list(func([]byte) {
		id := 0
		if i := len(d.arena) - start; i < cap(old) {
			id = old[:cap(old)][i]
		}
		if d.space() == 'n' {
			d.literal("null")
		} else if n, ok := d.number(); ok {
			id = n
		} else {
			d.failf("item id is not an int")
		}
		d.arena = append(d.arena, id)
	})
	ids := d.arena[start:len(d.arena):len(d.arena)]
	switch {
	case len(ids) == 0:
		return []int{}
	case len(ids) <= cap(old):
		d.arena = d.arena[:start]
		return append(old[:0], ids...)
	}
	return ids
}

// array reports whether the next value is an array, its '[' unread. A
// null is read, and any other value is an error naming what.
func (d *decoder) array(what string) bool {
	switch d.space() {
	case '[':
		return true
	case 'n':
		d.literal("null")
	default:
		d.failf("%s is not an array", what)
	}
	return false
}

// number reads a number. It returns the number's value and true when
// the token is one strconv.ParseInt accepts and int holds: an integer
// without fraction or exponent ("-0" included).
func (d *decoder) number() (int, bool) {
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	var u uint64
	if d.peek() == '0' { // a leading 0 is the whole integer part
		d.pos++
	} else {
		u = d.digits()
	}
	isInt := true
	if d.peek() == '.' {
		d.pos++
		isInt = false
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		isInt = false
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		d.digits()
	}
	if neg {
		return -int(u), isInt && u <= math.MaxInt+1 && d.err == nil
	}
	return int(u), isInt && u <= math.MaxInt && d.err == nil
}

// digits reads one or more decimal digits and returns their value,
// saturated at math.MaxUint64 past any int.
func (d *decoder) digits() uint64 {
	c := d.peek()
	if c < '0' || c > '9' {
		d.syntax(c)
		return 0
	}
	var u uint64
	for ; '0' <= c && c <= '9'; c = d.peek() {
		d.pos++
		if u < 1<<60 {
			u = 10*u + uint64(c-'0')
		} else {
			u = math.MaxUint64
		}
	}
	return u
}

// str reads a string, its opening quote being the next byte, and
// returns its value, valid until the next string is read. A string
// holding an escape or a non-ASCII byte is decoded by encoding/json,
// which unescapes it and replaces invalid UTF-8 as Decode does.
func (d *decoder) str() []byte {
	d.pos++
	d.s = append(d.s[:0], '"')
	plain := true
	for {
		c := d.peek()
		switch {
		case c == '"':
			d.pos++
			d.s = append(d.s, c)
			if plain {
				return d.s[1 : len(d.s)-1]
			}
			var v string
			if err := json.Unmarshal(d.s, &v); err != nil {
				d.fail(err)
			}
			return []byte(v)
		case c < ' ':
			d.syntax(c)
			return nil
		case c == '\\':
			plain = false
			d.pos++
			d.s = append(d.s, c)
			c = d.peek()
			if c == 0 || strings.IndexByte(`"\/bfnrtu`, c) < 0 {
				d.syntax(c)
				return nil
			}
			if c == 'u' {
				for range 4 {
					d.pos++
					d.s = append(d.s, c)
					if c = d.peek(); c == 0 || strings.IndexByte("0123456789abcdefABCDEF", c) < 0 {
						d.syntax(c)
						return nil
					}
				}
			}
		case c >= utf8.RuneSelf:
			plain = false
		}
		d.pos++
		d.s = append(d.s, c)
	}
}

// literal reads word (true, false or null), its first byte being the
// next byte.
func (d *decoder) literal(word string) {
	for i := 0; i < len(word); i++ {
		if c := d.peek(); c != word[i] {
			d.syntax(c)
			return
		}
		d.pos++
	}
}

// space skips JSON whitespace and returns the next byte, unread.
func (d *decoder) space() byte {
	if d.pos < d.end && d.buf[d.pos] > ' ' {
		return d.buf[d.pos]
	}
	return d.spaces()
}

// spaces is space past a buffered non-whitespace byte.
func (d *decoder) spaces() byte {
	c := d.peek()
	for c == ' ' || c == '\t' || c == '\n' || c == '\r' {
		d.pos++
		c = d.peek()
	}
	return c
}

// peek returns the next byte, unread.
func (d *decoder) peek() byte {
	if d.pos < d.end {
		return d.buf[d.pos]
	}
	return d.fill()
}

// fill refills the drained buffer and returns its first byte, or fails
// and returns 0. The body's end is io.ErrUnexpectedEOF, since every
// value a request body may hold ends at a byte of its own; the reader's
// other errors, such as http.MaxBytesError, are returned as they are.
func (d *decoder) fill() byte {
	for d.rerr == nil && d.err == nil {
		d.off += d.end
		n, err := d.r.Read(d.buf[:])
		d.pos, d.end, d.rerr = 0, n, err
		if n > 0 {
			return d.buf[0]
		}
	}
	if d.rerr == io.EOF {
		d.rerr = io.ErrUnexpectedEOF
	}
	d.fail(d.rerr)
	return 0
}

// fail records err unless an earlier error stuck, and drains the
// buffer.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
		d.pos, d.end = 0, 0
	}
}

func (d *decoder) syntax(c byte) { d.failf("invalid character %q", c) }

func (d *decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.fail(fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.off+d.pos))
	}
}

// appendJSON appends r as json.Encoder encodes it, trailing newline
// included, but with nil items written [] rather than null.
func (r translateResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"items":`...)
	b = appendIDs(b, r.Items)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	return append(b, "}\n"...)
}

// appendJSON appends r as json.Encoder encodes it, trailing newline
// included, but with nil rows written [] rather than null.
func (r batchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"rows":[`...)
	for i, row := range r.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIDs(b, row)
	}
	b = append(b, `],"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	return append(b, "}\n"...)
}

func appendIDs(b []byte, ids []int) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// writeOK answers 200 with the JSON body b in one Write.
func writeOK(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}
