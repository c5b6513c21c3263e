package eval

import (
	"context"
	"fmt"
	"io"
	"time"

	"twoview/internal/baseline/assoc"
	"twoview/internal/baseline/reremi"
	"twoview/internal/baseline/sigrules"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/synth"
)

// methodTables mines the three rule sets Fig. 3–6 compare: TRANSLATOR-
// SELECT(1), significant rules and redescriptions, on one dataset.
func methodTables(ctx context.Context, d *dataset.Dataset, minsup int, seed int64) (map[string]*core.Table, error) {
	out := map[string]*core.Table{}
	res, err := selectOne(ctx, d, minsup)
	if err != nil {
		return nil, err
	}
	out["TRANSLATOR"] = res.Table
	sig, err := sigrules.Mine(d, sigrules.Options{MinSupport: minsup, Seed: seed})
	if err != nil {
		return nil, err
	}
	out["SIGRULES"] = sigrules.ToTable(sig)
	out["REREMI"] = reremi.ToTable(reremi.Mine(d, reremi.Options{MinSupport: minsup}))
	return out, nil
}

// RunFig3 regenerates Fig. 3: DOT visualizations of the rule sets found
// on CAL500 and House by the three methods. The writer receives one DOT
// graph per (dataset, method), separated by comment headers.
func RunFig3(ctx context.Context, w io.Writer, scale float64) error {
	for _, name := range []string{"cal500", "house"} {
		p, err := synth.ProfileByName(name)
		if err != nil {
			return err
		}
		d, _, sp, err := Gen(p, scale)
		if err != nil {
			return err
		}
		tables, err := methodTables(ctx, d, sp.MinSupport, sp.Seed)
		if err != nil {
			return err
		}
		for _, method := range []string{"TRANSLATOR", "SIGRULES", "REREMI"} {
			fmt.Fprintf(w, "// Fig. 3: %s on %s (%d rules)\n", method, name, tables[method].Size())
			if err := WriteDot(w, d, tables[method], name+"-"+method); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// RunExampleRules regenerates Figs. 4 and 5: the top three rules per
// method on the named dataset.
func RunExampleRules(ctx context.Context, w io.Writer, profile string, scale float64) error {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return err
	}
	d, _, sp, err := Gen(p, scale)
	if err != nil {
		return err
	}
	tables, err := methodTables(ctx, d, sp.MinSupport, sp.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Example rules mined from %s (top 3 per method)\n", profile)
	for _, method := range []string{"TRANSLATOR", "SIGRULES", "REREMI"} {
		fmt.Fprintf(w, "\n%s:\n", method)
		stats := TopRules(d, tables[method], 3)
		if len(stats) == 0 {
			fmt.Fprintln(w, "  (no rules)")
			continue
		}
		for _, rs := range stats {
			fmt.Fprintf(w, "  %-60s supp=%-5d c+=%.2f\n", rs.Rule.Format(d), rs.Supp, rs.Conf)
		}
	}
	return nil
}

// RunFig6 regenerates Fig. 6: every rule containing one focus item
// (the 'Genre:Rock' analogue) per method on CAL500. The focus item is the
// most frequent right-hand item of the TRANSLATOR table, which plays the
// same role as a prominent genre item.
func RunFig6(ctx context.Context, w io.Writer, scale float64) error {
	p, err := synth.ProfileByName("cal500")
	if err != nil {
		return err
	}
	d, _, sp, err := Gen(p, scale)
	if err != nil {
		return err
	}
	tables, err := methodTables(ctx, d, sp.MinSupport, sp.Seed)
	if err != nil {
		return err
	}
	focus := mostUsedItem(tables["TRANSLATOR"], dataset.Right)
	if focus < 0 {
		fmt.Fprintln(w, "Fig. 6: no rules found, no focus item")
		return nil
	}
	fmt.Fprintf(w, "Fig. 6: rules containing right-hand item %q per method\n",
		d.Name(dataset.Right, focus))
	for _, method := range []string{"TRANSLATOR", "SIGRULES", "REREMI"} {
		fmt.Fprintf(w, "\n%s:\n", method)
		rules := RulesWithItem(tables[method], dataset.Right, focus)
		if len(rules) == 0 {
			fmt.Fprintln(w, "  (none)")
			continue
		}
		for _, r := range rules {
			fmt.Fprintf(w, "  %-60s c+=%.2f\n", r.Format(d), MaxConfidence(d, r))
		}
	}
	return nil
}

// RunFig7 regenerates Fig. 7: example rules from Elections, where only
// TRANSLATOR output is shown in the paper.
func RunFig7(ctx context.Context, w io.Writer, scale float64) error {
	p, err := synth.ProfileByName("elections")
	if err != nil {
		return err
	}
	d, _, sp, err := Gen(p, scale)
	if err != nil {
		return err
	}
	res, err := selectOne(ctx, d, sp.MinSupport)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig. 7: example rules mined from Elections with T-SELECT(1)")
	for _, rs := range TopRules(d, res.Table, 4) {
		fmt.Fprintf(w, "  %-60s supp=%-5d c+=%.2f\n", rs.Rule.Format(d), rs.Supp, rs.Conf)
	}
	return nil
}

// mostUsedItem returns the item of view v occurring in the most rules of
// t, or -1 for an empty table.
func mostUsedItem(t *core.Table, v dataset.View) int {
	// Dense counting slice rather than a map: items are small column
	// indices, and slice iteration makes the smallest-item tie-break
	// order-independent by construction (detorder-clean).
	maxItem := -1
	for _, r := range t.Rules {
		side := r.X
		if v == dataset.Right {
			side = r.Y
		}
		for _, i := range side {
			if i > maxItem {
				maxItem = i
			}
		}
	}
	if maxItem < 0 {
		return -1
	}
	counts := make([]int, maxItem+1)
	for _, r := range t.Rules {
		side := r.X
		if v == dataset.Right {
			side = r.Y
		}
		for _, i := range side {
			counts[i]++
		}
	}
	best, bestN := -1, 0
	for i, n := range counts {
		if n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// RunRecovery runs the extension experiment X1: planted-rule recovery.
// For each profile, SELECT(1) is mined and we report how many planted
// rules are matched by a mined rule (item overlap on both sides) and the
// exact-match count.
func RunRecovery(ctx context.Context, w io.Writer, scale float64, profiles []synth.Profile) error {
	if profiles == nil {
		profiles = synth.SmallProfiles()
	}
	t := NewTextTable("Dataset", "planted", "overlap-recovered", "exact", "|T|", "L%")
	for _, p := range profiles {
		d, planted, sp, err := Gen(p, scale)
		if err != nil {
			return err
		}
		res, err := selectOne(ctx, d, sp.MinSupport)
		if err != nil {
			return err
		}
		overlap, exact := 0, 0
		for _, pr := range planted {
			matched, exactMatch := false, false
			for _, mr := range res.Table.Rules {
				if pr.X.Intersects(mr.X) && pr.Y.Intersects(mr.Y) {
					matched = true
				}
				if pr.X.Equal(mr.X) && pr.Y.Equal(mr.Y) {
					exactMatch = true
				}
			}
			if matched {
				overlap++
			}
			if exactMatch {
				exact++
			}
		}
		m := FromResult(d, res)
		t.AddRow(p.Name, len(planted), overlap, exact, m.NumRules, m.LPct)
	}
	fmt.Fprintln(w, "Extension X1: planted-rule recovery with T-SELECT(1)")
	return t.Render(w)
}

// RunExplosion regenerates §6.3's opening comparison: the number of raw
// cross-view association rules (mined with the lowest c+ and support of
// any TRANSLATOR rule as thresholds, exactly the paper's protocol)
// against the number of rules TRANSLATOR selects.
func RunExplosion(ctx context.Context, w io.Writer, scale float64, profiles []synth.Profile) error {
	if profiles == nil {
		profiles = []synth.Profile{
			mustProfile("car"), mustProfile("house"),
			mustProfile("wine"), mustProfile("yeast"),
		}
	}
	t := NewTextTable("Dataset", "|T| (TRANSLATOR)", "minconf", "minsupp", "assoc rules", "ratio")
	for _, p := range profiles {
		d, _, sp, err := Gen(p, scale)
		if err != nil {
			return err
		}
		res, err := selectOne(ctx, d, sp.MinSupport)
		if err != nil {
			return err
		}
		if res.Table.Size() == 0 {
			t.AddRow(p.Name, 0, "-", "-", "-", "-")
			continue
		}
		// The paper's thresholds: the lowest c+ and joint support among
		// the TRANSLATOR rules, per dataset.
		minConf, minSupp := 1.0, d.Size()
		for _, r := range res.Table.Rules {
			if c := MaxConfidence(d, r); c < minConf {
				minConf = c
			}
			if s := d.JointSupportSet(r.X, r.Y).Count(); s < minSupp {
				minSupp = s
			}
		}
		n, err := assoc.Count(d, assoc.Options{MinSupport: minSupp, MinConfidence: minConf})
		if err != nil {
			return err
		}
		ratio := float64(n) / float64(res.Table.Size())
		t.AddRow(p.Name, res.Table.Size(),
			fmt.Sprintf("%.2f", minConf), minSupp, n, fmt.Sprintf("%.0fx", ratio))
	}
	fmt.Fprintln(w, "§6.3 pattern explosion: raw cross-view association rules vs TRANSLATOR")
	return t.Render(w)
}

// RunAblation runs extension X2: wall-clock effect of the §5.2 pruning
// bounds on the first TRANSLATOR-EXACT iterations.
func RunAblation(ctx context.Context, w io.Writer, scale float64, rules int, profiles []synth.Profile) error {
	if profiles == nil {
		// Narrow datasets: the unpruned ablation runs enumerate the whole
		// occurring-pair space, which is infeasible on wide data (wine).
		profiles = []synth.Profile{mustProfile("car"), mustProfile("tictactoe"), mustProfile("yeast")}
	}
	t := NewTextTable("Dataset", "full pruning", "no rub", "no qub", "no bounds")
	for _, p := range profiles {
		d, _, _, err := Gen(p, scale)
		if err != nil {
			return err
		}
		var times []time.Duration
		for _, opt := range []core.ExactOptions{
			{MaxRules: rules, ParallelOptions: Par},
			{MaxRules: rules, DisableRub: true, ParallelOptions: Par},
			{MaxRules: rules, DisableQub: true, ParallelOptions: Par},
			{MaxRules: rules, DisableRub: true, DisableQub: true, ParallelOptions: Par},
		} {
			start := time.Now()
			if _, err := core.MineExact(ctx, d, opt); err != nil {
				return err
			}
			times = append(times, time.Since(start))
		}
		t.AddRow(p.Name, times[0], times[1], times[2], times[3])
	}
	fmt.Fprintf(w, "Extension X2: pruning ablation (first %d exact rules)\n", rules)
	return t.Render(w)
}

func mustProfile(name string) synth.Profile {
	p, err := synth.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
