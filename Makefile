GO ?= go

.PHONY: test lint loc chaos chaos-shard chaos-net fuzz-smoke

# The tier-1 gate: everything CI's build/test steps enforce.
test:
	$(GO) build ./...
	$(GO) test ./...

# vet + the repo's own analyzer suite (cmd/twovet). Must run from the
# module root.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/twovet ./...

# Non-test Go lines per package of the module (every .go file of the
# package directory but the _test.go ones, build-tagged files included),
# then their sum on a final "total" line: the tracked size number of
# ROADMAP's design-quality aim.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		printf '%6d  %s\n' $$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$pkg; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total\n", total }'

# The chaos suite: the deterministic failpoint registry (internal/fault)
# compiles in under -tags faultinject, and the scripted failure
# scenarios run under the race detector — injected handler panics,
# deadline blowouts, mid-stream reader faults, poisoned pool tasks,
# table reloads racing live batches, and the translatord overload storm.
chaos:
	$(GO) test -tags faultinject -race -count=1 ./internal/fault/ ./internal/dataset/ ./internal/pool/ ./internal/core/ ./internal/server/

# The sharded-mining chaos suite: scripted shard crashes (mid-score,
# mid-apply, mid-replay), lease blowouts, lost and duplicated
# completions — every scenario asserting the mined table stays
# bit-identical to the monolith while recovery demonstrably fired.
# Also re-runs the shard determinism grids with the failpoints
# compiled in.
chaos-shard:
	$(GO) test -tags faultinject -race -count=1 ./internal/shard/

# The network chaos suite: the TCP transport against real shardworker
# processes on loopback with scripted network faults — connections cut
# mid-frame, replies truncated at the wire, duplicated frames, a worker
# process killed and restarted mid-run against its on-disk blob cache.
# Every scenario asserts bit-identity to the monolith plus the recovery
# counters (restarts, redials, cache hits) that prove the machinery
# fired.
chaos-net:
	$(GO) test -tags faultinject -race -count=1 -run 'ChaosNet|TCP' ./internal/shard/

# 30-second native-fuzzing smoke on the text readers, the wire decoder,
# translatord's body decoders (both request shapes, against
# encoding/json) and its single-row endpoint, the parsers of untrusted
# input (see README, "Fuzzing"). Each target runs separately: `go test
# -fuzz` accepts a single fuzz target per package invocation.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRowReader -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz=FuzzReadTable -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzWireCodec -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzBatchRequest -fuzztime=30s ./internal/server
	$(GO) test -fuzz=FuzzTranslateRequest -fuzztime=30s ./internal/server
