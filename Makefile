# Developer entry points; CI and the verify flow run `make check`.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test race vet bench bench-json bench-matrix report prof timeline chaos gate health crash crash-full check

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

# Snapshot of the parallel-substrate benchmarks in both formats: the raw
# `go test -bench` text lands in BENCH_pipeline.txt (benchstat consumes it
# directly: `benchstat old.txt BENCH_pipeline.txt`), and scfruns parses it
# into structured BENCH_pipeline.json (`scfruns gate -bench-base old.json
# -bench-new BENCH_pipeline.json` gates on mean ns/op drift). The same parse
# appends one trajectory record to BENCH_history.jsonl, labeled with the
# current git revision — `scfruns report -history BENCH_history.jsonl`
# renders the resulting ns/op trajectory.
# The text and JSON snapshots derive from ONE captured `go test` output (no
# tee pipe, whose exit status would mask a bench failure), and the parse step
# errors out when the capture contains zero benchmark lines.
bench-json:
	$(GO) test -bench 'EmitPDNS|AggregateParallel|Top10Share|Table2Resolution|FunctionStream' \
		-benchmem -count=5 -run=^$$ ./... > BENCH_pipeline.txt 2>&1 \
		|| { cat BENCH_pipeline.txt; rm -f BENCH_pipeline.txt; exit 1; }
	cat BENCH_pipeline.txt
	$(GO) run ./cmd/scfruns bench -i BENCH_pipeline.txt -o BENCH_pipeline.json \
		-history BENCH_history.jsonl -label "$$(git rev-parse --short HEAD 2>/dev/null || echo local)"

# Scenario benchmark matrix: run the default {scale}×{workers}×{chaos} sweep
# through the full pipeline with observer sampling on, one archive per
# cell under .runs/matrix/<cell-id>/. `make report` then renders the matrix,
# the bench capture, and the committed trajectory into PERF_REPORT.md —
# byte-identical across renders over the same archives.
bench-matrix:
	$(GO) run ./cmd/scfruns matrix -dir .runs

report:
	$(GO) run ./cmd/scfruns report -dir .runs \
		-bench BENCH_pipeline.json -history BENCH_history.jsonl -o PERF_REPORT.md
	@echo "wrote PERF_REPORT.md"

# Continuous profiling pass: run the golden configuration with -profile (the
# run ID and every deterministic fingerprint are unchanged by profiling, so
# this shares the gate's .runs slot), then render the CPU hotspot + stage
# attribution tables into PROF_HOTSPOTS.md. The rendering is deterministic
# for a fixed profile; the profile contents are machine-varying by design.
prof:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-profile -run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns prof show -dir .runs -o PROF_HOTSPOTS.md r-3ed4ac535b0d
	@cat PROF_HOTSPOTS.md

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
# bench-matrix/report stay out of check: they run the full pipeline once per
# matrix cell, which is an opt-in perf sweep, not a correctness gate.
# crash-full stays out for wall-time; the reduced crash matrix is in.
check: build vet test race gate crash
