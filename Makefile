# Developer entry points; CI and the verify flow run `make check`.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test race vet bench bench-json bench-smoke prof timeline chaos gate health crash crash-full check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-run the packages with lock-free hot paths and shared counters,
# including the parallel substrate (emission workers, shard aggregators),
# the run observer (internal/obs/timeline: health, resources and timeline
# windows on one sampling goroutine, with its fake-clock tests), the
# stage-boundary profile capturer, the in-memory edge's conn pair, and the
# lazily seeded per-function RNG source.
race:
	$(GO) test -race ./internal/obs/... ./internal/runs/... ./internal/probe/... ./internal/faas/... ./internal/dnssim/... ./internal/pdns/... ./internal/workload/... ./internal/fault/... ./internal/checkpoint/... ./internal/health/... ./internal/prof/... ./internal/lazyrand/...

# go vet (the benchmark module too: it imports repro/internal/..., so an
# internal API change can break it), then fail if any Go file in the tree is
# not gofmt-clean.
vet:
	$(GO) vet ./...
	$(GO) -C scfbench vet ./...
	@unformatted="$$($(GOFMT) -l .)"; \
		if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:" >&2; echo "$$unformatted" >&2; exit 1; fi

# Tier-1 suite under the heavy fault-injection profile with the race detector:
# every pipeline test runs against a seeded schedule of DNS failures, resets,
# flapping/truncating endpoints, latency spikes, and feed corruption. Loosened
# chaos-aware gates apply automatically (the tests read SCF_CHAOS).
chaos:
	SCF_CHAOS=heavy $(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The layer benchmarks of the perf ledger: the parallel substrate, the
# analysis kernels, the per-function RNG stream and the C2 scanner's per-host
# benchmark (kernel socket and in-memory edge). bench-json and bench-smoke
# both run this one pattern.
BENCH_PATTERN = EmitPDNS|AggregateParallel|Top10Share|Table2Resolution|FunctionStream|C2ScanHost

# Perf-ledger capture, in both formats: the raw `go test -bench` text lands
# in BENCH_pipeline.txt (benchstat consumes it directly: `benchstat old.txt
# BENCH_pipeline.txt`), and scfruns parses it into structured
# BENCH_pipeline.json and appends one record, labeled with the current git
# revision, to the append-only BENCH_history.jsonl. Both carry a stamp
# (goos, goarch, cpu, GOMAXPROCS, and the Go version of the scfruns process,
# which `$(GO) run` builds with the toolchain that ran the benchmarks);
# `scfruns gate -bench-base old.json -bench-new BENCH_pipeline.json` gates
# mean ns/op and allocs/op drift only between captures with equal stamps.
# The text and JSON snapshots derive from ONE captured `go test` output (no
# tee pipe, whose exit status would mask a bench failure), and the parse step
# errors out when the capture contains zero benchmark lines.
bench-json:
	$(GO) test -bench '$(BENCH_PATTERN)' \
		-benchmem -count=5 -run=^$$ ./... > BENCH_pipeline.txt 2>&1 \
		|| { cat BENCH_pipeline.txt; rm -f BENCH_pipeline.txt; exit 1; }
	cat BENCH_pipeline.txt
	$(GO) run ./cmd/scfruns bench -i BENCH_pipeline.txt -o BENCH_pipeline.json \
		-history BENCH_history.jsonl -label "$$(git rev-parse --short HEAD 2>/dev/null || echo local)"

# One iteration of every ledger benchmark: catches benchmarks broken by API
# drift without paying for a measurement run. CI runs it.
bench-smoke:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchtime=1x -benchmem -run=^$$ ./...

# Continuous profiling pass: run the golden configuration with -profile (the
# run ID and every deterministic fingerprint are unchanged by profiling, so
# this shares the gate's .runs slot), then render the run-wide CPU profile
# with the toolchain's pprof into PROF_HOTSPOTS.md: the top 25 functions by
# flat time, and the sample totals per pprof label. The rendering is
# byte-identical for a fixed profile; the profile contents are
# machine-varying by design. The target fails unless the label block
# attributes samples to stage=probe, which shows the stage labels reached the
# CPU profile. For the other archived profiles see README "Continuous
# profiling" (allocs/block/mutex are cumulative: diff a stage against the
# previous one with -diff_base).
PROF_CPU = .runs/r-3ed4ac535b0d/profiles/pipeline-cpu.pb.gz

prof:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-profile -run-dir .runs > /dev/null
	@set -e; { \
		echo '# CPU hotspots: golden run r-3ed4ac535b0d'; echo; \
		echo '```'; $(GO) tool pprof -top -nodecount=25 $(PROF_CPU); echo '```'; echo; \
		echo '```'; $(GO) tool pprof -tags $(PROF_CPU); echo '```'; \
	} > PROF_HOTSPOTS.md
	@cat PROF_HOTSPOTS.md
	@awk '/^ [^ ]+: Total/ { s = ($$1 == "stage:") } s && /\): probe$$/ { f = 1 } END { exit !f }' PROF_HOTSPOTS.md \
		|| { echo "prof: the CPU profile's stage label block has no probe line" >&2; exit 1; }

# Telemetry timeline pass: run the golden configuration with observer
# sampling on (the timeline lands on the archive's machine-varying side, so
# the run ID and every deterministic fingerprint are unchanged and this
# shares the gate's .runs slot), then render the deterministic timeline
# table — window deltas, heap readings, anomaly annotations, health
# breaches — into TIMELINE.md. A clean golden run annotates zero anomalies
# and zero breaches; the target fails if its header says otherwise.
timeline:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-sample-interval 250ms -run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns timeline -dir .runs -o TIMELINE.md r-3ed4ac535b0d
	@cat TIMELINE.md
	@grep -q ' — 0 anomaly annotation(s), 0 health breach(es)\.$$' TIMELINE.md \
		|| { echo "timeline: the clean golden run must annotate 0 anomalies and 0 health breaches" >&2; exit 1; }

# Regression gate: archive a fresh run of the golden configuration and diff
# it against the committed baseline (internal/runs/testdata/golden). The
# deterministic dimensions — artifact fingerprints, calibration bands,
# degradation drift — gate at full strictness; the wall-clock tolerance is
# widened to 4x so slower machines don't fail on honest hardware differences.
# A second cell gates the same configuration under -chaos heavy against
# internal/runs/testdata/golden-chaos (captured the same way). Heavy chaos
# moves https_share and unreachable_share outside the paper bands by design,
# so that cell gates fingerprints and degradations with calibration off.
# A third cell runs the clean configuration with the C2 sweep on against
# internal/runs/testdata/golden-c2, calibration on.
gate: test
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns gate -dir .runs -baseline internal/runs/testdata/golden -wall-tol 3 -quiet
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos heavy -skip-c2 \
		-run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns gate -dir .runs -baseline internal/runs/testdata/golden-chaos -wall-tol 3 \
		-no-calibration -quiet
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none \
		-run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns gate -dir .runs -baseline internal/runs/testdata/golden-c2 -wall-tol 3 -quiet

# SLO health check: run the golden configuration with the streaming health
# monitor in strict mode. Exits non-zero if any rule fires (per-provider
# probe error rate or p99, breaker opens, feed drop rate) — a
# clean seeded run is expected to stay inside every bound.
health:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-no-archive -health-strict > /dev/null

# Crash-recovery matrix: kill the pipeline at every stage boundary and at
# mid-emission rows in a real subprocess, resume from the checkpoint, and
# require the resumed archive's deterministic half to be byte-identical to an
# uninterrupted run — plus the checkpoint codec and resume-path unit tests,
# all under the race detector. `crash-full` widens the matrix to the full
# crashpoint × workers cross product.
crash:
	$(GO) test -race -count=1 -run 'TestCrashResume|TestRunIDIgnoresCheckpointConfig' ./internal/core/ \
		&& $(GO) test -race -count=1 ./internal/checkpoint/... \
		&& $(GO) test -race -count=1 -run 'TestAggregateParallelCkpt' ./internal/workload/

crash-full:
	SCF_CRASH_FULL=1 $(GO) test -race -count=1 -run 'TestCrashResume' -timeout 30m ./internal/core/

# Tier-1 suite — what CI (.github/workflows/ci.yml) runs on every push/PR.
# bench-json stays out of check: it is a measurement, not a correctness gate
# (CI runs bench-smoke instead). crash-full stays out for wall-time; the
# reduced crash matrix is in.
check: build vet test race gate crash
