GO ?= go

.PHONY: build test lint check bench bench-batch bench-codegen bench-repart bench-cluster cluster results serve loadgen loadgen-hot fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Style gate: gofmt must produce no diffs, vet must be clean. staticcheck
# and govulncheck additionally run when installed (CI installs them; get
# them locally with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest).
lint:
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

# Full gate: lint plus the whole suite under the race detector. The parallel
# partition+compile pipeline must stay race-clean and deterministic.
check: lint
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Regenerate the lane-batching measurement: one BatchEngine with N lanes
# vs N independent engines, written to results/batch_sweep.{txt,csv} and
# machine-readable results/BENCH_batch.json.
bench-batch:
	$(GO) run ./cmd/benchall -batch-only -out results

# Regenerate the native-codegen measurement: linked interpreter vs the
# same program compiled to a plugin kernel, written to
# results/codegen.{txt,csv} and machine-readable results/BENCH_codegen.json.
# Skips cleanly on platforms without Go plugin support.
bench-codegen:
	$(GO) run ./cmd/benchall -codegen-only -out results

# Regenerate the repartitioning measurement: unrefined recursive bisection
# vs k-way refined + dereplicated partitions (replication factor, cut
# cost, real cycles/sec), written to results/repart.{txt,csv} and
# machine-readable results/BENCH_repart.json. The sweep fails if
# refinement increases the replication factor or the two programs' state
# hashes diverge.
bench-repart:
	$(GO) run ./cmd/benchall -repart-only -out results

# Multi-node fleet suite under the race detector: consistent-hash compile
# routing, peer artifact fetch, checkpoint/restore, drain migration, and
# the fault-injection matrix (peer death, stalls, corrupted artifacts).
cluster:
	$(GO) test -race -count=1 ./internal/cluster/...

# Regenerate the fleet measurement: a 3-node in-process cluster driven
# through every node at once, written to results/cluster.{txt,csv} and
# machine-readable results/BENCH_cluster.json. Fails if any design
# compiles more than once fleet-wide, the peer fetch hit rate drops under
# 2/3, or a drain loses a session.
bench-cluster:
	$(GO) run ./cmd/benchall -cluster-only -out results

results:
	$(GO) run ./cmd/benchall -out results

# Differential fuzzing: each native fuzz target for FUZZTIME, then a
# deterministic 200-seed cross-engine sweep via the repcutfuzz CLI.
# Crashers are minimized and written to internal/difftest/testdata/crashers/
# where TestDifferentialCorpus replays them forever after.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDifferentialSim -fuzztime=$(FUZZTIME) ./internal/difftest/
	$(GO) test -run=NONE -fuzz=FuzzFirrtlRoundTrip -fuzztime=$(FUZZTIME) ./internal/firrtl/
	$(GO) test -run=NONE -fuzz=FuzzBitvecOps -fuzztime=$(FUZZTIME) ./internal/bitvec/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) run ./cmd/repcutfuzz -seeds 200

# Boot the simulation service on the default local address.
serve:
	$(GO) run ./cmd/repcutd -addr 127.0.0.1:8372

# Drive a self-hosted repcutd with the deterministic load generator and
# record throughput (sessions/s, cycles/s, cache hit rate) into results/.
loadgen:
	@mkdir -p results
	$(GO) run ./cmd/repcutd -loadgen -addr "" -duration 2s \
		-min-hit-rate 0.5

# Hot-design scenario: every client hammers one design; self-hosts twice
# (batching on, then off) and records the aggregate-throughput comparison
# plus the lane-occupancy gate into results/.
loadgen-hot:
	@mkdir -p results
	$(GO) run ./cmd/repcutd -loadgen -hot -duration 8s -clients 16 \
		-designs RocketChip-1C -scale 0.5 -threads 2 \
		-cycles-per-session 40000 -min-occupancy 0.3 \
		-out results/service_throughput.txt
