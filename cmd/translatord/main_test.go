package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/synth"
)

// run serves a table written to disk on a loopback port, answers both
// translate endpoints with exactly the bytes of the in-process
// translation, drains cleanly when its context ends, and refuses a
// command line without -table.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	d, rules, err := synth.Generate(synth.Profile{
		Name: "serve", Size: 160, ItemsL: 24, ItemsR: 24,
		DensityL: 0.12, DensityR: 0.12,
		BidirRules: 4, UniRules: 2, Seed: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := &core.Table{Rules: rules}
	dataPath, tablePath := filepath.Join(dir, "data.tv"), filepath.Join(dir, "rules.tt")
	if err := dataset.WriteFile(dataPath, d); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteTableFile(tablePath, d, tab); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs bytes.Buffer
	addrs := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-data", dataPath, "-table", tablePath, "-addr", "127.0.0.1:0"},
			&logs, func(a net.Addr) { addrs <- a })
	}()
	var base string
	select {
	case a := <-addrs:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	}
	waitReady(t, base)

	tr, err := core.CompileTranslator(d, tab)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int, d.Size())
	for i := range rows {
		rows[i] = d.Row(dataset.Left, i).Indices()
	}
	want, err := tr.TranslateBatchIDs(context.Background(), dataset.Left, rows)
	if err != nil {
		t.Fatal(err)
	}
	batch := post(t, base+"/translate/batch", map[string]any{"from": "L", "rows": rows})
	if wantBody := encode(t, struct {
		Rows  [][]int `json:"rows"`
		Epoch int     `json:"epoch"`
	}{want, 1}); batch != wantBody {
		t.Fatalf("batch response differs from the in-process translation:\n got %.200s\nwant %.200s", batch, wantBody)
	}
	for i := 0; i < len(rows); i += 9 {
		got := post(t, base+"/translate", map[string]any{"from": "L", "items": rows[i]})
		if wantBody := encode(t, struct {
			Items []int `json:"items"`
			Epoch int   `json:"epoch"`
		}{want[i], 1}); got != wantBody {
			t.Fatalf("row %d: got %s, want %s", i, got, wantBody)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context ended")
	}
	if !strings.Contains(logs.String(), "drained; bye") {
		t.Fatalf("no clean drain in the log:\n%s", logs.String())
	}

	var usage bytes.Buffer
	if err := run(context.Background(), []string{"-data", dataPath}, &usage, nil); !errors.Is(err, errUsage) {
		t.Fatalf("run without -table: %v, want the usage error", err)
	}
	if !strings.Contains(usage.String(), "-table") {
		t.Fatalf("no usage message:\n%s", usage.String())
	}
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// post sends v as a JSON body and returns the 200 response's body.
func post(t *testing.T, url string, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// encode is json.Encoder's encoding of v, trailing newline included.
func encode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
