package main

import (
	"bytes"
	"strings"
	"testing"

	"twoview/internal/lint"
)

// TestRegistryComplete pins the multichecker's analyzer set: an
// analyzer silently falling out of lint.All() would disarm its
// invariant without any test noticing, so the roster itself is a
// contract.
func TestRegistryComplete(t *testing.T) {
	want := []string{"ctxprobe", "detorder", "nowallclock", "scratchescape"}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("lint.All() registers %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("lint.All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s: missing Doc", a.Name)
		}
		if a.Directive == "" {
			t.Errorf("%s: missing suppression directive", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s: missing Run", a.Name)
		}
	}
}

// TestList checks -list prints every registered analyzer.
func TestList(t *testing.T) {
	var buf bytes.Buffer
	if code := run(&buf, []string{"-list"}); code != 0 {
		t.Fatalf("twovet -list: exit %d, want 0\n%s", code, buf.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(buf.String(), a.Name) {
			t.Errorf("-list output missing %s:\n%s", a.Name, buf.String())
		}
	}
}

// TestFlagsBrokenFixture runs the real multichecker over the
// deliberately-broken testdata package and asserts it exits non-zero —
// the end-to-end guarantee that CI's `go run ./cmd/twovet ./...` step
// actually has teeth. The loader needs the module root as working
// directory (import paths resolve through the go command).
func TestFlagsBrokenFixture(t *testing.T) {
	t.Chdir("../..")
	var buf bytes.Buffer
	code := run(&buf, []string{"./internal/lint/testdata/src/broken"})
	if code != 1 {
		t.Fatalf("twovet on broken fixture: exit %d, want 1\n%s", code, buf.String())
	}
	out := buf.String()
	for _, name := range []string{"detorder", "nowallclock"} {
		if !strings.Contains(out, name) {
			t.Errorf("broken fixture should trip %s; output:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "finding(s)") {
		t.Errorf("missing findings summary line; output:\n%s", out)
	}
}
