package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/wire"
)

// blobCache is the worker's content-addressed store: raw blobs keyed by
// their SHA-256, plus the parsed forms (dataset with materialized
// columns, hydrated candidate list) they materialize into. With a
// directory it is also persistent — each blob lives in a file named by
// its hex hash, verified on load, so a restarted worker serves repeat
// HELLOs without any transfer.
type blobCache struct {
	dir string

	mu       sync.Mutex
	blobs    map[wire.Hash][]byte
	datasets map[wire.Hash]*dataset.Dataset
	// hydrated memoizes candidate lists with their support tidsets
	// computed, keyed by (dataset hash, candidates hash) — the supports
	// depend on both.
	hydrated map[[2]wire.Hash][]core.Candidate
}

func newBlobCache(dir string) *blobCache {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	return &blobCache{
		dir:      dir,
		blobs:    make(map[wire.Hash][]byte),
		datasets: make(map[wire.Hash]*dataset.Dataset),
		hydrated: make(map[[2]wire.Hash][]core.Candidate),
	}
}

// need reports which of a HELLO's content hashes the cache cannot
// serve — the Need bits of the acknowledgement.
func (c *blobCache) need(h *wire.Hello) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var need uint8
	if c.load(h.DatasetHash) == nil {
		need |= wire.NeedDataset
	}
	if !h.CandsHash.IsZero() && c.load(h.CandsHash) == nil {
		need |= wire.NeedCands
	}
	return need
}

// load returns the raw bytes of hash, pulling them from disk (and
// verifying them against the hash) on a memory miss. Caller holds mu.
func (c *blobCache) load(h wire.Hash) []byte {
	if b, ok := c.blobs[h]; ok {
		return b
	}
	if c.dir == "" {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(c.dir, h.String()))
	if err != nil || wire.HashBytes(b) != h {
		return nil
	}
	c.blobs[h] = b
	return b
}

// put stores one verified transfer, in memory and (when configured) on
// disk. Content that does not match its claimed hash is an error — the
// stream that delivered it is poisoned.
func (c *blobCache) put(b *wire.Blob) error {
	if wire.HashBytes(b.Data) != b.Hash {
		return fmt.Errorf("blob content does not match its hash %s", b.Hash)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.blobs[b.Hash]; ok {
		return nil
	}
	c.blobs[b.Hash] = b.Data
	if c.dir != "" {
		// Write-then-rename so a crashed worker never leaves a torn
		// file behind a valid hash name; load verifies anyway, so a
		// failure here only costs a retransfer after restart.
		path := filepath.Join(c.dir, b.Hash.String())
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b.Data, 0o644); err == nil {
			if err := os.Rename(tmp, path); err != nil {
				log.Printf("cache persist: %v", err)
			}
		} else {
			log.Printf("cache persist: %v", err)
		}
	}
	return nil
}

// materialize resolves a HELLO's hashes into the parsed dataset and
// hydrated candidate list, memoizing both: every later incarnation over
// the same content boots without parsing or recomputing supports.
func (c *blobCache) materialize(h *wire.Hello) (*dataset.Dataset, []core.Candidate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.datasets[h.DatasetHash]
	if !ok {
		b := c.load(h.DatasetHash)
		if b == nil {
			return nil, nil, fmt.Errorf("dataset blob %s missing from cache", h.DatasetHash)
		}
		var err error
		d, err = dataset.Read(bytes.NewReader(b))
		if err != nil {
			return nil, nil, fmt.Errorf("dataset blob %s: %w", h.DatasetHash, err)
		}
		// Materialize both column caches before any host reads them
		// concurrently.
		d.Columns(dataset.Left)
		d.Columns(dataset.Right)
		c.datasets[h.DatasetHash] = d
	}
	if h.CandsHash.IsZero() {
		return d, nil, nil
	}
	key := [2]wire.Hash{h.DatasetHash, h.CandsHash}
	if cs, ok := c.hydrated[key]; ok {
		return d, cs, nil
	}
	b := c.load(h.CandsHash)
	if b == nil {
		return nil, nil, fmt.Errorf("candidates blob %s missing from cache", h.CandsHash)
	}
	cs, err := wire.DecodeCandidates(b)
	if err != nil {
		return nil, nil, fmt.Errorf("candidates blob %s: %w", h.CandsHash, err)
	}
	// Decoded itemsets are ascending and non-negative, so the last item
	// bounds each side. One past its alphabet would panic the session
	// while the supports are computed.
	for i, c := range cs {
		if len(c.X) > 0 && c.X[len(c.X)-1] >= d.Items(dataset.Left) ||
			len(c.Y) > 0 && c.Y[len(c.Y)-1] >= d.Items(dataset.Right) {
			return nil, nil, fmt.Errorf("candidates blob %s: candidate %d outside the dataset's alphabets", h.CandsHash, i)
		}
	}
	// Hydrate the support tidsets the wire encoding leaves out: they
	// are dataset-static, so recomputing them here is both cheaper than
	// shipping them and guaranteed identical to the coordinator's. Like
	// MineCandidates, keep one set per distinct X and Y.
	if err := core.MaterializeTids(context.Background(), d, cs, core.Parallel(1)); err != nil {
		return nil, nil, err
	}
	c.hydrated[key] = cs
	return d, cs, nil
}
