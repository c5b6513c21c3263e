package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"twoview/internal/core"
)

// goldenFile holds, per TestGoldenTables cell, the SHA-256 of the mined
// table's WriteTable bytes and its rule count.
const goldenFile = "testdata/golden.json"

// golden is one cell's checked-in fingerprint.
type golden struct {
	SHA256 string `json:"sha256"`
	Rules  int    `json:"rules"`
}

// goldenProfile is one internal/synth profile of a grid, at a small
// scale with its candidate minimum support for SELECT and GREEDY, and
// the name of its cells in the table grid.
type goldenProfile struct {
	name   string
	scale  float64
	minsup int
	cell   string
}

// goldenProfiles are the profiles of the table grid. In car at scale
// 0.02 a SELECT(25) round's top k holds two rules that differ only in
// Dir at equal gain (X→Y and X←Y of a candidate whose two sides have
// the same support tidset).
var goldenProfiles = []goldenProfile{
	{"tictactoe", 0.2, 4, "tictactoe"},
	{"car", 0.3, 4, "car"},
	{"chesskrvk", 0.02, 8, "chesskrvk"},
	{"car", 0.02, 4, "car@0.02"},
}

// goldenExactRules caps EXACT's tables in the grid.
const goldenExactRules = 3

// goldenAlgos are the miners of the grid, keyed by cell-name part.
var goldenAlgos = []string{"select1", "select25", "greedy", "exact"}

// mineGolden mines one cell and returns its table's fingerprint.
func mineGolden(t *testing.T, algo, profile string, scale float64, minsup, workers int) golden {
	t.Helper()
	ctx, par := context.Background(), core.Parallel(workers)
	var res *core.Result
	var err error
	d := synthDataset(t, profile, scale)
	if algo == "exact" {
		res, err = core.MineExact(ctx, d, core.ExactOptions{MaxRules: goldenExactRules, ParallelOptions: par})
	} else {
		cands, cerr := core.MineCandidates(ctx, d, minsup, 0, par)
		if cerr != nil {
			t.Fatal(cerr)
		}
		switch algo {
		case "select1":
			res, err = core.MineSelect(ctx, d, cands, core.SelectOptions{K: 1, ParallelOptions: par})
		case "select25":
			res, err = core.MineSelect(ctx, d, cands, core.SelectOptions{K: 25, ParallelOptions: par})
		case "greedy":
			res, err = core.MineGreedy(ctx, d, cands, core.GreedyOptions{ParallelOptions: par})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteTable(&buf, d, res.Table); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return golden{SHA256: hex.EncodeToString(sum[:]), Rules: res.Table.Size()}
}

// TestGoldenTables is the cross-commit byte-identity check. It mines a
// fixed grid (four profiles × SELECT k=1, SELECT k=25, GREEDY and
// capped EXACT × workers 1 and 2) and compares each table's WriteTable
// digest and rule count with testdata/golden.json, printing the
// observed fingerprints as JSON on a mismatch. The in-package
// determinism tests compare worker counts within one commit; this test
// also catches a change that moves a table the same way at every worker
// count. A change that moves a digest says why in CHANGES.md.
func TestGoldenTables(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]golden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	observed := map[string]golden{}
	for _, p := range goldenProfiles {
		for _, algo := range goldenAlgos {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/w%d", p.cell, algo, workers)
				got := mineGolden(t, algo, p.name, p.scale, p.minsup, workers)
				observed[name] = got
				if w, ok := want[name]; !ok {
					t.Errorf("%s: no digest in %s", name, goldenFile)
				} else if got != w {
					t.Errorf("%s: got %d rules, sha256 %s; want %d rules, sha256 %s", name, got.Rules, got.SHA256, w.Rules, w.SHA256)
				}
			}
		}
	}
	for name := range want {
		if _, ok := observed[name]; !ok {
			t.Errorf("%s: digest in %s for no grid cell", name, goldenFile)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(observed, "", "  ")
		t.Errorf("observed tables (digests in %s):\n%s", goldenFile, out)
	}
}

// candidatesFile holds, per TestGoldenCandidates cell, the SHA-256 of the
// mined candidate list and its length.
const candidatesFile = "testdata/candidates.json"

// goldenCands is one candidate cell's checked-in fingerprint.
type goldenCands struct {
	SHA256     string `json:"sha256"`
	Candidates int    `json:"candidates"`
}

// goldenCandidateProfiles are the candidate grid: the table grid's
// first three profiles, plus chesskrvk at a scale whose tidsets are
// wide enough for ECLAT to walk some top-level branches over their own
// rows.
var goldenCandidateProfiles = append(goldenProfiles[:3:3], goldenProfile{"chesskrvk", 0.5, 32, ""})

// candidatesDigest fingerprints a candidate list: per candidate, in
// order, X, Y, Supp and the popcounts of TidX and TidY.
func candidatesDigest(cands []core.Candidate) goldenCands {
	h := sha256.New()
	var buf []byte
	for _, c := range cands {
		buf = binary.AppendUvarint(buf[:0], uint64(len(c.X)))
		for _, x := range c.X {
			buf = binary.AppendUvarint(buf, uint64(x))
		}
		buf = binary.AppendUvarint(buf, uint64(len(c.Y)))
		for _, y := range c.Y {
			buf = binary.AppendUvarint(buf, uint64(y))
		}
		buf = binary.AppendUvarint(buf, uint64(c.Supp))
		buf = binary.AppendUvarint(buf, uint64(c.TidX.Count()))
		buf = binary.AppendUvarint(buf, uint64(c.TidY.Count()))
		h.Write(buf)
	}
	return goldenCands{SHA256: hex.EncodeToString(h.Sum(nil)), Candidates: len(cands)}
}

// TestGoldenCandidates is TestGoldenTables for candidate mining: it
// mines the candidates of each grid profile at workers 1 and 2 and
// compares the digest of the list (see candidatesDigest) and its length
// with testdata/candidates.json, printing the
// observed fingerprints as JSON on a mismatch.
func TestGoldenCandidates(t *testing.T) {
	raw, err := os.ReadFile(candidatesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCands
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", candidatesFile, err)
	}
	observed := map[string]goldenCands{}
	for _, p := range goldenCandidateProfiles {
		d := synthDataset(t, p.name, p.scale)
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s@%g/minsup%d/w%d", p.name, p.scale, p.minsup, workers)
			cands, err := core.MineCandidates(context.Background(), d, p.minsup, 0, core.Parallel(workers))
			if err != nil {
				t.Fatal(err)
			}
			got := candidatesDigest(cands)
			observed[name] = got
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no digest in %s", name, candidatesFile)
			} else if got != w {
				t.Errorf("%s: got %d candidates, sha256 %s; want %d candidates, sha256 %s", name, got.Candidates, got.SHA256, w.Candidates, w.SHA256)
			}
		}
	}
	for name := range want {
		if _, ok := observed[name]; !ok {
			t.Errorf("%s: digest in %s for no grid cell", name, candidatesFile)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(observed, "", "  ")
		t.Errorf("observed candidates (digests in %s):\n%s", candidatesFile, out)
	}
}
