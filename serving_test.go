package twoview_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"twoview"
	"twoview/internal/synth"
)

// The serving acceptance contract: on the paper's planted profiles, the
// compiled Translator reproduces Apply's report bit for bit — one
// compilation serving both directions, the batch path and the stream
// path all agreeing.
func TestServingMatchesApplyOnPlantedProfiles(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"car", "house", "yeast"} {
		t.Run(name, func(t *testing.T) {
			p, err := synth.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := twoview.Generate(p.Scaled(0.2))
			if err != nil {
				t.Fatal(err)
			}
			cands, _, err := twoview.MineCandidatesCapped(ctx, d, p.MinSupport, 100_000, twoview.ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := twoview.MineSelect(ctx, d, cands, twoview.SelectOptions{K: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Table.Size() == 0 {
				t.Fatal("no rules mined")
			}
			tr, err := twoview.CompileTranslator(d, res.Table)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := twoview.WriteDataset(&buf, d); err != nil {
				t.Fatal(err)
			}
			serialized := buf.String()
			for _, from := range []twoview.View{twoview.Left, twoview.Right} {
				want, err := twoview.Apply(ctx, d, res.Table, from)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tr.Apply(ctx, d, from)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("from %v: compiled %+v, Apply %+v", from, got, want)
				}
				streamed, err := tr.ApplyStream(ctx, strings.NewReader(serialized), from)
				if err != nil {
					t.Fatal(err)
				}
				if streamed != want {
					t.Fatalf("from %v: streamed %+v, Apply %+v", from, streamed, want)
				}
			}
		})
	}
}
