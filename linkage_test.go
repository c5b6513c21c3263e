package twoview_test

import (
	"context"
	"os/exec"
	"strings"
	"testing"

	"twoview"
)

// The sharded engine (internal/shard, internal/wire, cmd/shardworker)
// is a benchmark fixture: only the benchmark module links it, to
// measure it against the in-process miners. No package of this module
// outside the engine itself may depend on it, so the facade and the
// commands never carry it and retiring it deletes only its own
// packages. Test files are not dependencies and may still import it.
func TestNoPackageLinksShardEngine(t *testing.T) {
	const mod = "twoview/"
	engine := map[string]bool{
		mod + "internal/shard":  true,
		mod + "internal/wire":   true,
		mod + "cmd/shardworker": true,
	}
	// .Deps is every package a package links, recursively: what
	// go list -deps prints for it.
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, deps, _ := strings.Cut(line, " ")
		if engine[pkg] {
			continue
		}
		seen++
		for _, dep := range strings.Fields(deps) {
			if dep == mod+"internal/shard" || dep == mod+"internal/wire" {
				t.Errorf("%s depends on %s", pkg, dep)
			}
		}
	}
	if seen < 10 {
		t.Fatalf("go list reported only %d packages of the module:\n%s", seen, out)
	}
}

// Without the engine linked in, the facade's SELECT and GREEDY refuse a
// sharded run instead of silently mining in process.
func TestFacadeRejectsShards(t *testing.T) {
	ctx, d := context.Background(), buildToy(t)
	cands, err := twoview.MineCandidates(ctx, d, 1, 0, twoview.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []twoview.ParallelOptions{{Shards: 2}, {ShardAddrs: []string{"127.0.0.1:1"}}} {
		if _, err := twoview.MineSelect(ctx, d, cands, twoview.SelectOptions{K: 1, ParallelOptions: par}); err == nil || !strings.Contains(err.Error(), "internal/shard") {
			t.Errorf("MineSelect with %+v: err = %v, want the engine-not-linked error", par, err)
		}
		if _, err := twoview.MineGreedy(ctx, d, cands, twoview.GreedyOptions{ParallelOptions: par}); err == nil || !strings.Contains(err.Error(), "internal/shard") {
			t.Errorf("MineGreedy with %+v: err = %v, want the engine-not-linked error", par, err)
		}
	}
}
