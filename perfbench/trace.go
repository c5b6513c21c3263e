package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans
// form a tree through parent (0 = a root); times are offsets from the
// tracer's origin.
type span struct {
	id, parent int
	name       string
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps the spans of one traced run in memory. Every method is a
// no-op on a nil *tracer, which is how untraced runs call the same code
// paths without recording anything. It is safe for concurrent use (the
// serve workload's client goroutines record request spans in parallel).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, end: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken by the caller, for
// intervals delimited by callbacks (a miner's OnIteration hook) or by a
// client goroutine's own clock reads.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reconcile checks that the spans form a well-nested tree: every span
// is closed, every parent exists and was opened before its child, and
// every child lies inside its parent's interval. Siblings may overlap
// (concurrent requests); coverage is measured as a union.
func reconcile(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	for _, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) is not closed", s.id, s.name)
		}
		if s.parent == 0 {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.id, s.name, s.parent)
		}
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) [%v, %v] escapes parent %d (%s) [%v, %v]",
				s.id, s.name, s.start, s.end, p.id, p.name, p.start, p.end)
		}
	}
	return nil
}

// covered returns how much of parent's interval the union of its
// direct children covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// children groups spans by parent id.
func children(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, kids []span) time.Duration { return s.dur() - covered(s, kids) }

// unaccounted is the share of the named spans' total duration that none
// of their children covers: how much of the pipeline the layer spans
// fail to explain.
func unaccounted(spans []span, name string) float64 {
	kids := children(spans)
	var total, self time.Duration
	for _, s := range spans {
		if s.name == name {
			total += s.dur()
			self += selfTime(s, kids[s.id])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// durations lists the durations of the named spans in recording order.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, seconds(s.dur()))
		}
	}
	return out
}
