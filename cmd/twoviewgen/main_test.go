package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twoview/internal/dataset"
	"twoview/internal/synth"
)

func TestListNamesEveryProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(synth.Profiles()) {
		t.Fatalf("-list printed %d lines, want a header and %d profiles:\n%s", len(lines), len(synth.Profiles()), out.String())
	}
	for i, p := range synth.Profiles() {
		if fields := strings.Fields(lines[1+i]); len(fields) == 0 || fields[0] != p.Name {
			t.Errorf("line %d = %q, want profile %s", 1+i, lines[1+i], p.Name)
		}
	}
}

// A scaled profile written with -out and -truth reads back as the
// generator's dataset, with one truth line per planted rule.
func TestWritesScaledProfileAndTruth(t *testing.T) {
	dir := t.TempDir()
	dataPath, truthPath := filepath.Join(dir, "car.tv"), filepath.Join(dir, "car.truth")
	var out bytes.Buffer
	if err := run([]string{"-profile", "car", "-scale", "0.1", "-out", dataPath, "-truth", truthPath}, &out); err != nil {
		t.Fatal(err)
	}
	p, err := synth.ProfileByName("car")
	if err != nil {
		t.Fatal(err)
	}
	want, rules, err := synth.Generate(p.Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() {
		t.Fatalf("read back %d rows, generated %d", got.Size(), want.Size())
	}
	for r := 0; r < want.Size(); r++ {
		for _, v := range []dataset.View{dataset.Left, dataset.Right} {
			if !got.Row(v, r).Equal(want.Row(v, r)) {
				t.Fatalf("row %d view %s = %v, generated %v", r, v, got.Row(v, r), want.Row(v, r))
			}
		}
	}
	truth, err := os.ReadFile(truthPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(truth), "\n"), "\n")
	if len(lines) != len(rules) {
		t.Fatalf("%d truth lines, %d planted rules", len(lines), len(rules))
	}
	for i, r := range rules {
		if lines[i] != r.Format(want) {
			t.Errorf("truth line %d = %q, want %q", i, lines[i], r.Format(want))
		}
	}
	if !strings.Contains(out.String(), "wrote "+dataPath) || !strings.Contains(out.String(), "wrote "+truthPath) {
		t.Errorf("report does not name both files:\n%s", out.String())
	}
}

func TestUnknownProfileIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-profile", "nope", "-out", filepath.Join(t.TempDir(), "x.tv")}, &out)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("run = %v, want an unknown-profile error", err)
	}
}
