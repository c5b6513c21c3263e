package main

import (
	"fmt"
	"math/rand"

	"twoview/internal/dataset"
	"twoview/internal/synth"
)

// spec fixes what one workload mines and how. Every field is a constant
// of the workload; only the data depends on the seed.
type spec struct {
	// profile is the internal/synth Table-1 profile, at scale 1.0.
	profile string
	// minsup is the fixed candidate support.
	minsup int
	// maxCands is the candidate-explosion guard passed to
	// MineCandidates as maxResults: a seed or support that explodes
	// fails the operation instead of exhausting memory.
	maxCands int
	// selectRules caps SELECT(1) (0 = the natural MDL stop).
	selectRules int
	// serial measures the pipeline at Workers = 1 (and serves with one
	// client) and checks it against a reference at all CPUs; otherwise
	// the measured runs use all CPUs and the reference one worker. On a
	// 2-vCPU VM, work that keeps both CPUs busy spread twice as much
	// between runs as work on one (both CPUs must be undisturbed for a
	// phase to end), so all workloads but shard-tcp run serially and the
	// traced run reports the parallel speedup (pool.speedup).
	serial bool
}

// The three workloads. The caps keep a run's repetitions, its reference
// and its set-up inside the benchmark's time budget; the
// candidate guards sit at 3-4x the candidate counts seen on seeds 1-5,
// so that even a full guard's tidsets (two per candidate) stay under
// about 0.5 GB. FINDINGS.md records the values and why, and why the
// mine-sparse and exact workloads were dropped.
var specs = map[string]spec{
	"mine-dense": {profile: "chesskrvk", minsup: 64, maxCands: 60_000, selectRules: 24, serial: true},
	"serve":      {profile: "adult", minsup: 4885, maxCands: 20_000, serial: true},
	"shard-tcp":  {profile: "chesskrvk", minsup: 64, maxCands: 60_000, selectRules: 24},
}

// The EXACT probe of every traced run: EXACT on car, capped at
// exactRules rules. No workload runs EXACT end to end (FINDINGS.md says
// why), so the branch-and-bound search is measured layer by layer only.
const (
	exactProfile = "car"
	exactRules   = 4
)

// makeInput generates the workload's dataset for a seed. The calibrated
// profile (with its own generator seed) fixes the planted structure;
// the workload seed permutes the transactions and relabels the items of
// each view. Regenerating the profile per seed instead changed the
// amount of work by 15-30% between seeds (candidate counts, EXACT's
// search tree), more than any useful regression bound; a permutation
// gives each seed different input bytes, different tidset layouts and a
// different item order for the searches, at a fixed amount of work.
// keepItems permutes only the transactions: EXACT's branch-and-bound
// explores items in id order, so relabelling them changed its work by
// up to 1.7x between seeds.
func makeInput(profile string, seed int64, keepItems bool) (*dataset.Dataset, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	base, _, err := synth.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", profile, err)
	}
	return permute(base, seed, keepItems)
}

// permute returns d with its rows shuffled and, unless keepItems, each
// view's items relabelled by seeded permutations.
func permute(d *dataset.Dataset, seed int64, keepItems bool) (*dataset.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	nL, nR := d.Items(dataset.Left), d.Items(dataset.Right)
	rows, relL, relR := r.Perm(d.Size()), r.Perm(nL), r.Perm(nR)
	if keepItems {
		relL, relR = identity(nL), identity(nR)
	}
	out, err := dataset.New(dataset.GenericNames("L", nL), dataset.GenericNames("R", nR))
	if err != nil {
		return nil, err
	}
	var left, right []int
	for _, t := range rows {
		left = relabel(left[:0], d.Row(dataset.Left, t).Indices(), relL)
		right = relabel(right[:0], d.Row(dataset.Right, t).Indices(), relR)
		if err := out.AddRow(left, right); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func relabel(dst, ids, perm []int) []int {
	for _, i := range ids {
		dst = append(dst, perm[i])
	}
	return dst
}
