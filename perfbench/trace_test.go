package main

import (
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// tree: a 100ms pipeline whose children cover [0,30] and, overlapping,
// [20,50] and [60,90]: 80ms covered, 20ms self.
func tree() []span {
	return []span{
		{id: 1, name: "pipeline", start: ms(0), end: ms(100)},
		{id: 2, parent: 1, name: "eclat", start: ms(0), end: ms(30)},
		{id: 3, parent: 1, name: "select", start: ms(20), end: ms(50)},
		{id: 4, parent: 1, name: "greedy", start: ms(60), end: ms(90)},
		{id: 5, parent: 3, name: "round", start: ms(25), end: ms(45)},
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	spans := tree()
	kids := children(spans)
	if got := selfTime(spans[0], kids[1]); got != ms(20) {
		t.Errorf("pipeline self time = %v, want 20ms", got)
	}
	if got := selfTime(spans[2], kids[3]); got != ms(10) {
		t.Errorf("select self time = %v, want 10ms", got)
	}
	if got := selfTime(spans[4], kids[5]); got != ms(20) {
		t.Errorf("leaf self time = %v, want its duration", got)
	}
	if got := unaccounted(spans, "pipeline"); got != 0.2 {
		t.Errorf("unaccounted = %v, want 0.2", got)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	parent := span{start: ms(10), end: ms(20)}
	kids := []span{{start: ms(0), end: ms(15)}, {start: ms(18), end: ms(40)}}
	if got := covered(parent, kids); got != ms(7) {
		t.Errorf("covered = %v, want 7ms", got)
	}
}

func TestReconcile(t *testing.T) {
	if err := reconcile(tree()); err != nil {
		t.Fatalf("well-nested tree rejected: %v", err)
	}
	cases := map[string]func([]span) []span{
		"escapes parent": func(s []span) []span { s[4].end = ms(55); return s },
		"not closed":     func(s []span) []span { s[3].end = -1; return s },
		"unknown parent": func(s []span) []span { s[1].parent = 9; return s },
	}
	for want, mutate := range cases {
		err := reconcile(mutate(tree()))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: reconcile = %v", want, err)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pipeline", 0)
	child := tr.begin("eclat", root)
	now := time.Now()
	tr.add("round", child, now, now)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if err := reconcile(spans); err != nil {
		t.Errorf("tracer produced a tree that does not reconcile: %v", err)
	}
	if spans[1].parent != root || spans[2].parent != child {
		t.Errorf("parents = %d, %d; want %d, %d", spans[1].parent, spans[2].parent, root, child)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("pipeline", 0)
	tr.add("round", id, time.Now(), time.Now())
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something (id %d)", id)
	}
}
