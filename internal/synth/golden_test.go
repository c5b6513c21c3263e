package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"twoview/internal/dataset"
)

// goldenFile holds, per TestGenerateGolden cell, the SHA-256 of the
// generated dataset's Write bytes and of its planted rules' Format
// lines.
const goldenFile = "testdata/golden.json"

// golden is one cell's checked-in fingerprint.
type golden struct {
	Data  string `json:"data_sha256"`
	Truth string `json:"truth_sha256"`
	Rules int    `json:"rules"`
}

// goldenScales are the scales every profile is generated at.
var goldenScales = []float64{1.0, 0.1}

// generateGolden generates one profile at one scale and returns its
// fingerprint.
func generateGolden(t *testing.T, p Profile) golden {
	t.Helper()
	d, rules, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	data := sha256.New()
	if err := dataset.Write(data, d); err != nil {
		t.Fatal(err)
	}
	truth := sha256.New()
	for _, r := range rules {
		fmt.Fprintf(truth, "%s\n", r.Format(d))
	}
	return golden{
		Data:  hex.EncodeToString(data.Sum(nil)),
		Truth: hex.EncodeToString(truth.Sum(nil)),
		Rules: len(rules),
	}
}

// TestGenerateGolden is the generator's cross-commit byte-identity
// check: every Table-1 profile, at scales 1.0 and 0.1, must write the
// dataset bytes and planted rules recorded in testdata/golden.json.
// TestGenerateDeterministic compares two runs of one build; this test
// also catches a change that moves the generated data the same way on
// every run, which would move every mined table with it. On a mismatch
// it prints the observed fingerprints as JSON.
func TestGenerateGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	observed := map[string]golden{}
	for _, p := range Profiles() {
		for _, scale := range goldenScales {
			name := fmt.Sprintf("%s@%.1f", p.Name, scale)
			got := generateGolden(t, p.Scaled(scale))
			observed[name] = got
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no digest in %s", name, goldenFile)
			} else if got != w {
				t.Errorf("%s: got data %s, truth %s (%d rules); want data %s, truth %s (%d rules)",
					name, got.Data, got.Truth, got.Rules, w.Data, w.Truth, w.Rules)
			}
		}
	}
	for name := range want {
		if _, ok := observed[name]; !ok {
			t.Errorf("%s: digest in %s for no profile", name, goldenFile)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(observed, "", "  ")
		t.Errorf("observed fingerprints (digests in %s):\n%s", goldenFile, out)
	}
}
