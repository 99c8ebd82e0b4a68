GO ?= go

# Benchmark-regression gate settings. Every benchmark warms its scratch
# before ResetTimer, so BENCH_TIME=100x measures steady state, not
# first-round arena growth, while keeping the full gate run under a
# minute. Both targets run with -cpu=1, pinning GOMAXPROCS for the gate
# and the baseline alike: engine construction fans out over
# min(GOMAXPROCS, k) goroutines, so its allocs/op would otherwise depend
# on the runner's core count.
# BENCH_TOLERANCE is deliberately looser than benchjson's 1.3 default:
# the gate compares a committed baseline against runs on shared CI
# runners, so it is tuned to catch real regressions (2x+) without
# flaking on scheduler noise. allocs/op is noise-free at 100 warmed
# iterations on one CPU, so the same tolerance is an effectively exact
# gate there — including 0 allocs/op staying 0.
BENCH_TOLERANCE ?= 1.6
BENCH_TIME ?= 100x
FUZZ_TIME ?= 30s

# Committed coverage minima for the replication/failover-critical
# packages plus the wire protocol (cover-gate). The slack absorbs
# small refactors, while a real test deletion trips the gate.
COVER_MIN_SHARD ?= 85.0
COVER_MIN_CHAOS ?= 85.0
COVER_MIN_DSR ?= 87.0
COVER_MIN_WIRE ?= 85.0
COVER_MIN_OBS ?= 85.0
COVER_MIN_FLEET ?= 85.0
COVER_MIN_SERVE ?= 85.0
COVER_MIN_SNAPSHOT ?= 85.0

.PHONY: build test test-e2e vet fmt fmt-check lint bench bench-smoke bench-json bench-baseline bench-gate cover-gate fuzz-smoke metrics-smoke serve-smoke doc-check vulncheck

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Localhost shard e2e under the race detector: boots real TCP shard
# servers (in-process and as the actual dsr-shard/dsr-query binaries,
# including R>1 replica fleets with mid-stream kills) and the chaos
# suites (seeded fault injection, frame-cutting proxies), all checked
# differentially against the oracle.
test-e2e:
	$(GO) test -race -count=1 -run 'TCP|Distributed|Chaos|Replicated|Proxy' ./...

# Coverage gate: `go test -cover` on the packages that implement and
# prove replication/failover, compared against the committed minima
# above. A failing test or a coverage drop past the minimum fails the
# target; raise the minima when coverage rises for keeps.
cover-gate:
	@out="$$($(GO) test -count=1 -cover ./internal/shard ./internal/shard/chaos ./internal/dsr ./internal/wire ./internal/obs ./internal/obs/fleet ./internal/serve ./internal/snapshot)"; \
	status=$$?; echo "$$out"; \
	echo "$$out" | awk -v ms=$(COVER_MIN_SHARD) -v mc=$(COVER_MIN_CHAOS) -v md=$(COVER_MIN_DSR) -v mw=$(COVER_MIN_WIRE) -v mo=$(COVER_MIN_OBS) -v mf=$(COVER_MIN_FLEET) -v mv=$(COVER_MIN_SERVE) -v mn=$(COVER_MIN_SNAPSHOT) ' \
		$$1 == "FAIL" { fail = 1 } \
		/coverage:/ { \
			pct = ""; for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { pct = $$i; gsub("%", "", pct) } \
			min = -1; \
			if ($$2 == "dsr/internal/shard") min = ms; \
			if ($$2 == "dsr/internal/shard/chaos") min = mc; \
			if ($$2 == "dsr/internal/dsr") min = md; \
			if ($$2 == "dsr/internal/wire") min = mw; \
			if ($$2 == "dsr/internal/obs") min = mo; \
			if ($$2 == "dsr/internal/obs/fleet") min = mf; \
			if ($$2 == "dsr/internal/serve") min = mv; \
			if ($$2 == "dsr/internal/snapshot") min = mn; \
			if (min >= 0) { \
				seen++; \
				if (pct + 0 < min + 0) { printf "cover-gate: %s %.1f%% < %.1f%% minimum\n", $$2, pct, min; fail = 1 } \
				else printf "cover-gate: %s %.1f%% (minimum %.1f%%)\n", $$2, pct, min \
			} \
		} \
		END { if (seen != 8) { printf "cover-gate: expected 8 coverage lines, saw %d\n", seen; fail = 1 }; exit fail }' \
	&& [ $$status -eq 0 ]

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: vet fmt-check

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration per benchmark: cheap CI smoke that the harness still runs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Same cheap single-iteration run, converted to per-commit JSON perf
# records (tools/benchjson does the parse): BENCH_query.json captures
# the query paths (BenchmarkQuery, BenchmarkQueryBatch, and the TCP
# variants), BENCH_build.json everything else. Separate steps, not a
# pipe: a pipe would return benchjson's exit status and mask benchmark
# failures.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./... > bench.out
	$(GO) run ./tools/benchjson -not '^Benchmark((TCP)?Query|NaiveReach)' < bench.out > BENCH_build.json
	$(GO) run ./tools/benchjson -only '^Benchmark((TCP)?Query|NaiveReach)' < bench.out > BENCH_query.json
	@rm -f bench.out
	@echo "wrote BENCH_build.json and BENCH_query.json"

# Re-record the committed benchmark baseline that bench-gate compares
# against. Run this (and commit BENCH_baseline/) when a perf change is
# intentional; the gate's output names this target on failure.
bench-baseline:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCH_TIME) -cpu=1 -run='^$$' ./... > bench-baseline.out
	@mkdir -p BENCH_baseline
	$(GO) run ./tools/benchjson -not '^Benchmark((TCP)?Query|NaiveReach)' < bench-baseline.out > BENCH_baseline/BENCH_build.json
	$(GO) run ./tools/benchjson -only '^Benchmark((TCP)?Query|NaiveReach)' < bench-baseline.out > BENCH_baseline/BENCH_query.json
	@rm -f bench-baseline.out
	@echo "wrote BENCH_baseline/BENCH_build.json and BENCH_baseline/BENCH_query.json"

# CI benchmark-regression gate: run the suite fresh (same benchtime as
# the baseline) and fail if ns/op or allocs/op regressed past
# BENCH_TOLERANCE on any benchmark in the committed baseline. Both runs
# use -cpu=1, so the baseline machine and the CI runner need
# not have the same core count — but ns/op is still absolute time, so
# record the baseline on hardware in the same class as the gate runner
# (CI's own bench-smoke artifacts are a good source) or widen
# BENCH_TOLERANCE; allocs/op is exact on any machine and is where the
# gate has teeth regardless. Both suites are compared even if the first
# regresses, so one run reports everything.
bench-gate:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCH_TIME) -cpu=1 -run='^$$' ./... > bench-gate.out
	$(GO) run ./tools/benchjson -not '^Benchmark((TCP)?Query|NaiveReach)' < bench-gate.out > bench-gate-build.json
	$(GO) run ./tools/benchjson -only '^Benchmark((TCP)?Query|NaiveReach)' < bench-gate.out > bench-gate-query.json
	@fail=0; \
	$(GO) run ./tools/benchjson -compare BENCH_baseline/BENCH_build.json bench-gate-build.json -tolerance $(BENCH_TOLERANCE) || fail=1; \
	$(GO) run ./tools/benchjson -compare BENCH_baseline/BENCH_query.json bench-gate-query.json -tolerance $(BENCH_TOLERANCE) || fail=1; \
	rm -f bench-gate.out bench-gate-build.json bench-gate-query.json; \
	exit $$fail

# Run every wire-protocol fuzz target for FUZZ_TIME each, growing the
# hostile-input corpus instead of only replaying committed seeds. Any
# crasher go finds is written to testdata/fuzz and fails the run.
fuzz-smoke:
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeTasks$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeResults$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeHello$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeSummary$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/snapshot -run='^$$' -fuzz='^FuzzDecodeSnapshotHeader$$' -fuzztime=$(FUZZ_TIME)

# Observability smoke: build the real binaries, boot a k=2 loopback-TCP
# fleet with every process serving -metrics-addr, run one query, and
# assert that /metrics and /fleet on the coordinator parse as JSON with
# the required sections (build info, merged per-shard registries). The
# driver lives in tools/metricssmoke and must run from the repo root.
metrics-smoke:
	$(GO) run ./tools/metricssmoke

# Serving-layer smoke: build the real binaries, boot a k=2 fleet with
# dsr-serve in front, run queries through the serving protocol, and
# assert the cache hit and serving counters on /metrics plus a clean
# SIGTERM drain. The driver lives in tools/servesmoke and must run from
# the repo root.
serve-smoke:
	$(GO) run ./tools/servesmoke

# Godoc hygiene gate: every package must carry a package comment, and
# the packages tools/doccheck lists as strict (internal/serve) must
# document every exported symbol.
doc-check:
	$(GO) run ./tools/doccheck

# Scan dependencies and stdlib usage against the Go vulnerability
# database (network access required; CI installs the tool pinned).
vulncheck:
	govulncheck ./...
