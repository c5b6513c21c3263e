package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// An oversized batch is shed while its body is decoded: an 8 MiB body
// of empty rows gets its 413 having allocated less than the body's own
// size, not after materializing its 2.8 million rows.
func TestBatchRowLimitShedsWhileDecoding(t *testing.T) {
	tr, _ := serveFixture(t, 44)
	h := New(tr, Options{}).Handler()
	const head, tail = `{"from":"L","rows":[`, `[]]}`
	n := (8<<20 - len(head) - len(tail)) / len("[],")
	body := []byte(head + strings.Repeat("[],", n) + tail)

	req := httptest.NewRequest(http.MethodPost, "/translate/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "row limit") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(len(body)) {
		t.Fatalf("shedding a %d-byte batch allocated %d bytes", len(body), grew)
	}
}

// sameBatch reports whether two decoded batch requests carry the same
// view and rows; a null row and an empty one both mean no items.
func sameBatch(a, b batchRequest) bool {
	return a.From == b.From && slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]int])
}

// FuzzBatchRequest: the request decoders are drop-ins for
// json.NewDecoder(body).Decode on both request shapes. Wherever Decode
// succeeds (within the row limit, for a batch), the decoder yields the
// same request; a body Decode rejects, the decoder rejects too; and
// under a small limit every longer batch is shed with errTooManyRows.
func FuzzBatchRequest(f *testing.F) {
	f.Add(`{"from":"L","rows":[[0,1],[2]]}`)
	f.Add(`{"FROM":"R","Rows":[[3]],"fRoM":"L"}`)
	f.Add(`{"rows":[[1],[]],"from":"L"}`)
	f.Add(`{"from":"L","extra":{"a":[1,{"b":null}]},"rows":[[0]],"more":"x"}`)
	f.Add(`{"from":"L","rows":[[0]],"rows":[[1],[2],[3]]}`)
	f.Add(`{"from":"L","rows":[[0]],"rows":null}`)
	f.Add(`{"from":"L","rows":[null,[1]]}`)
	f.Add(`{"from":"L","rows":[[0]]} trailing`)
	f.Add(`null`)
	f.Add(`{"from":"L","rows":[[0],]}`)
	f.Add(`{"from":"L","rows":[[1.5]]}`)
	f.Add(`{"from":1}`)
	f.Add(`[{"from":"L"}]`)
	f.Add(`{"from":"L",`)
	// Depth counts from the body: the object plus 10,000 arrays is one
	// level too deep, and one array fewer is at the limit.
	for _, n := range []int{10000, 9999} {
		f.Add(`{"from":"L","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"rows":[[1]]}`)
	}
	f.Add(`{"\u0066rom":"L","items":[1],"rows":[[1]]}`)
	f.Add(`{"from":"L","ITEMſ":[1],"rowſ":[[2]]}`) // U+017F folds to s
	f.Add(`{"from":"L","items":[1],"rows":[[1]],"from":null}`)
	for _, n := range []string{"-0", "1e2", "1.0", "01", "9223372036854775808", "-9223372036854775808"} {
		f.Add(`{"from":"L","items":[` + n + `],"rows":[[` + n + `]]}`)
	}
	f.Add(`{"from":"L","rows":[1]}`)
	f.Add(`{"from":"L","items":[[1]]}`)
	f.Add("{\"from\":\"L\x1f\",\"items\":[1]}")
	f.Add("{\"from\":\"L\xff\",\"items\":[1]}")
	f.Add(`{"from":"L","items":[1,2`)
	f.Add(`{"from":"L","items":[1]}{"from":"R"}`)
	// A null element keeps what the slice being decoded into holds.
	f.Add(`{"items":[1,2,3],"items":[4],"items":[null,null],"rows":[[1,2],[3]],"rows":[[5]],"rows":[[null,null],[null]]}`)
	f.Add(`{"items":[1],"items":[],"items":[null],"rows":[[1,2]],"rows":[],"rows":[[null]]}`) // [] drops the old array
	limit := Options{}.withDefaults().MaxBatchRows
	f.Fuzz(func(t *testing.T, body string) {
		var want batchRequest
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		d := getScratch(strings.NewReader(body))
		defer putScratch(d)
		var got batchRequest
		err := got.decode(d, limit)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("accepted a body Decode rejects (%v): %+v", wantErr, got)
		case wantErr == nil && len(want.Rows) <= limit && (err != nil || !sameBatch(got, want)):
			t.Fatalf("got %+v, %v; Decode gave %+v", got, err, want)
		}

		const small = 2
		d = getScratch(strings.NewReader(body))
		defer putScratch(d)
		got = batchRequest{}
		err = got.decode(d, small)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("limit %d: accepted a body Decode rejects (%v): %+v", small, wantErr, got)
		case wantErr == nil && len(want.Rows) > small && !errors.Is(err, errTooManyRows):
			t.Fatalf("limit %d: %d rows not shed: %v", small, len(want.Rows), err)
		case wantErr == nil && len(want.Rows) <= small && !errors.Is(err, errTooManyRows) && (err != nil || !sameBatch(got, want)):
			// errTooManyRows here is an earlier, replaced rows value
			// over the limit.
			t.Fatalf("limit %d: got %+v, %v; Decode gave %+v", small, got, err, want)
		}

		var wantOne translateRequest
		wantErr = json.NewDecoder(strings.NewReader(body)).Decode(&wantOne)
		d = getScratch(strings.NewReader(body))
		defer putScratch(d)
		var one translateRequest
		err = one.decode(d)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("translate: accepted a body Decode rejects (%v): %+v", wantErr, one)
		case wantErr == nil && (err != nil || one.From != wantOne.From || !slices.Equal(one.Items, wantOne.Items)):
			t.Fatalf("translate: got %+v, %v; Decode gave %+v", one, err, wantOne)
		}
	})
}

// The response bodies are json.Encoder's bytes, trailing newline
// included, with nil lists written as [].
func TestResponseBodiesMatchEncoder(t *testing.T) {
	long := make([]int, 3000)
	for i := range long {
		long[i] = i * 7919
	}
	lists := [][]int{nil, {}, long, {0, -1, math.MaxInt, math.MinInt, 1 << 53}}
	orEmpty := func(ids []int) []int {
		if ids == nil {
			return []int{}
		}
		return ids
	}
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, epoch := range []uint64{0, 1, math.MaxUint64} {
		for _, ids := range lists {
			got := string(translateResponse{Items: ids, Epoch: epoch}.appendJSON(nil))
			if want := encode(translateResponse{Items: orEmpty(ids), Epoch: epoch}); got != want {
				t.Fatalf("translate %d ids, epoch %d:\n got %.80q\nwant %.80q", len(ids), epoch, got, want)
			}
		}
		for _, rows := range [][][]int{nil, {}, {nil}, lists, {long, long, {}, nil, {7}}} {
			norm := [][]int{}
			for _, ids := range rows {
				norm = append(norm, orEmpty(ids))
			}
			got := string(batchResponse{Rows: rows, Epoch: epoch}.appendJSON(nil))
			if want := encode(batchResponse{Rows: norm, Epoch: epoch}); got != want {
				t.Fatalf("batch of %d rows, epoch %d:\n got %.80q\nwant %.80q", len(rows), epoch, got, want)
			}
		}
	}
}

// FuzzTranslateRequest posts a fuzzed body with a fuzzed X-Deadline-Ms
// header to POST /translate through the full handler chain. Whatever
// arrives, the status is never 500 (contain turns a handler panic into
// one), the response body is JSON, and a header that parses to at
// least one second never times the request out.
func FuzzTranslateRequest(f *testing.F) {
	f.Add(`{"from":"L","items":[0,2,5]}`, "")
	f.Add(`{"from":"X","items":[0]}`, "500")
	f.Add(`{"from":"R","items":[1000000]}`, "")
	f.Add(`{"from":"L","items":[0]}`, "9223372036854775807")
	f.Add(`{"from":"L","items":[0]}`, "9300000000000")
	tr, _ := serveFixture(f, 44)
	h := New(tr, Options{}).Handler()
	f.Fuzz(func(t *testing.T, body, deadline string) {
		req := httptest.NewRequest(http.MethodPost, "/translate", strings.NewReader(body))
		if deadline != "" {
			req.Header.Set("X-Deadline-Ms", deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("status 500: %s", rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d, body not JSON: %q", rec.Code, rec.Body)
		}
		if ms, err := strconv.ParseInt(deadline, 10, 64); err == nil && ms >= 1000 && rec.Code == http.StatusGatewayTimeout {
			t.Fatalf("X-Deadline-Ms=%s timed out: %s", deadline, rec.Body)
		}
	})
}
