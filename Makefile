# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet test race bench bench-json bench-baseline benchdiff soak record replay verify examples figures clean

all: check

# The default gate: compile, vet, full test suite, then the race detector
# over the concurrency-heavy packages.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# ./internal/obs/... covers the black-box recorder (internal/obs/transcript)
# alongside the rest of the observability tree.
race:
	$(GO) test -race ./internal/codec ./internal/obs/... ./internal/obs/transcript ./internal/transport ./internal/core ./internal/serve ./internal/stream ./internal/site ./internal/audit ./internal/experiments

# Full benchmark sweep (several minutes). Writes bench_output.txt.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Small statistical cost artifact (schema v1, 5 iterations/algorithm)
# at the smoke scale CI compares against. See docs/BENCHMARKING.md.
BENCH_SMOKE = -exp eq6 -n 2000 -sites 4 -queries 1
bench-json:
	$(GO) run ./cmd/dsud-bench $(BENCH_SMOKE) -bench-json BENCH_dsud.json

# Regenerate the committed smoke baseline (do this when a deliberate
# cost change lands; commit the result).
bench-baseline:
	$(GO) run ./cmd/dsud-bench $(BENCH_SMOKE) -bench-json testdata/bench-baseline.json

# Compare the latest artifact against the committed baseline with the
# CI thresholds (tight on counts, loose on cross-machine wall time, a
# loose floor on mux scaling — q/s at 8 clients over q/s at 1 client,
# 6.1-7.4x on a 2-CPU box, but shared CI runners are noisy — the
# materialized-serving-over-mux floor, and the progressiveness gate on
# the deterministic bandwidth AUC).
benchdiff: bench-json
	$(GO) run ./cmd/dsud-benchdiff -time-threshold 10 -min-mux-speedup 2.5 -min-serve-speedup 5 -max-auc-regress 0.05 testdata/bench-baseline.json BENCH_dsud.json

# Short open-loop soak against self-hosted loopback sites with the
# online auditor sampling; merges the latency{p50,p95,p99} section into
# BENCH_dsud.json (see docs/OBSERVABILITY.md "Load, latency & SLOs").
soak:
	$(GO) run ./cmd/dsud-loadgen -self-host -n 2000 -sites 3 -rps 100 \
	  -duration 3s -iterations 3 -update-fraction 0.05 \
	  -audit-fraction 0.05 -max-error-rate 0.01 -artifact BENCH_dsud.json

# Record one query's complete coordinator<->site exchange into a
# black-box transcript under $(RECORD_DIR). By default this self-hosts
# two loopback site daemons; set RECORD_ADDRS=host:port,... to record
# against a live cluster instead. See docs/OBSERVABILITY.md, section
# "Record & replay".
RECORD_DIR ?= transcripts
RECORD_ADDRS ?=
record:
	@mkdir -p $(RECORD_DIR)
ifeq ($(RECORD_ADDRS),)
	$(GO) build -o bin/ ./cmd/dsud-gen ./cmd/dsud-site ./cmd/dsud-query ./cmd/dsud-replay
	@set -e; \
	tmp=$$(mktemp -d); \
	bin/dsud-gen -n 2000 -d 3 -m 2 -seed 7 -out $$tmp; \
	bin/dsud-site -data $$tmp/site-0.dsud -id 0 -addr 127.0.0.1:7811 & s0=$$!; \
	bin/dsud-site -data $$tmp/site-1.dsud -id 1 -addr 127.0.0.1:7812 & s1=$$!; \
	trap 'kill $$s0 $$s1 2>/dev/null; rm -rf $$tmp' EXIT; \
	sleep 1; \
	bin/dsud-query -addrs 127.0.0.1:7811,127.0.0.1:7812 -dims 3 -q 0.3 \
	  -record $(RECORD_DIR) -quiet
else
	$(GO) run ./cmd/dsud-query -addrs $(RECORD_ADDRS) -dims 3 -q 0.3 -record $(RECORD_DIR)
endif

# Replay the newest recorded transcript offline (no sites needed).
replay:
	$(GO) run ./cmd/dsud-replay $$(ls -t $(RECORD_DIR)/*.dstr | head -1)

# Cross-check every engine against every oracle.
verify:
	$(GO) run ./cmd/dsud-verify -n 2000 -values anticorrelated
	$(GO) run ./cmd/dsud-verify -n 2000 -values independent -q 0.5

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hotels
	$(GO) run ./examples/stockmarket
	$(GO) run ./examples/updates
	$(GO) run ./examples/vertical
	$(GO) run ./examples/sensors
	$(GO) run ./examples/federation
	$(GO) run ./examples/distributed-stream

# Regenerate every paper figure at laptop scale (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/dsud-bench -exp all

clean:
	rm -f bench_output.txt test_output.txt experiments_output.txt
	rm -f BENCH_dsud.json *.trace.json *.log
	rm -rf bin profiles transcripts
