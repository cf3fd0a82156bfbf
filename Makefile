# Development entry points. Everything is plain `go` underneath; the
# targets just encode the parameters used for the shipped artifacts.

GO ?= go

.PHONY: all build test race cover bench bench-fd bench-dsfd bench-load bench-hh conformance fuzz verify results examples clean check doclint linkcheck docs

all: build test

# Pre-merge gate: compile + vet, the full test suite, and the suite
# again under the race detector (the concurrent wrappers and the
# parallel compute kernels are only honest under -race).
check: build test race doclint linkcheck

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper table/figure plus the substrate
# ablations; writes the artifact shipped as bench_output.txt.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# FastFD ingest artifact: sweeps (buffer, alpha) at ℓ∈{64,256}, gates
# the default config (b=2, α=1) at 1.2× the committed baseline, then
# refreshes BENCH_fd.json in place.
bench-fd:
	$(GO) run ./cmd/swbench -baseline BENCH_fd.json fd

# DS-FD head-to-head artifact: DS-FD vs LM-FD vs DI-FD at matched ε on
# the fig6 skewed PAMAP workload; fails if DS-FD breaches its N·R/ℓ
# guarantee or needs more space than LM-FD. Refreshes BENCH_dsfd.json.
bench-dsfd:
	$(GO) run ./cmd/swbench dsfd

# Ingest-plane load artifact: the three wire modes against a
# Zipf-skewed tenant fleet, soft-gated against the committed baseline,
# refreshing BENCH_load.json in place.
bench-load:
	$(GO) run ./cmd/swbench -baseline BENCH_load.json load

# Hot-key observability artifact: the sliding count-min top-K sidecar
# judged against exact per-tenant counts from a Zipf load run (recall
# and ε·N bound are hard gates), plus its ingest-path cost.
# Refreshes BENCH_hh.json.
bench-hh:
	$(GO) run ./cmd/swbench hh

# Cross-framework conformance suite under the race detector: every
# registered framework through the shared contract table.
conformance:
	$(GO) test -race -run 'TestContract|TestRegistryCoverage' ./internal/core ./internal/conformance

# Short fuzzing pass over every fuzz target: the stateful structures,
# the batch-ingest path, and the decoders of untrusted bytes. This is
# the one list of targets (package:target); CI smoke-runs it as
# `make fuzz FUZZTIME=15s`. Every target runs even after one fails; the
# recipe then exits non-zero and names each target that failed.
FUZZTIME ?= 30s
fuzz:
	@failed=""; \
	for t in \
		./internal/eh:FuzzEstimate \
		./internal/core:FuzzLMFD \
		./internal/core:FuzzUpdateBatch \
		./internal/core:FuzzSWOR \
		./internal/core:FuzzDSFDUnmarshal \
		./internal/core:FuzzLMUnmarshal \
		./internal/core:FuzzSWRUnmarshal \
		./internal/core:FuzzSWORUnmarshal \
		./internal/core:FuzzAMMUnmarshal \
		./internal/core:FuzzDIUnmarshal \
		./internal/stream:FuzzFDUnmarshal \
		./internal/wal:FuzzWALRecord \
		./internal/obs/hh:FuzzSnapshotDecode \
		./internal/serve:FuzzDecodeFrame \
		./internal/serve:FuzzIngestJSON \
		./internal/registry:FuzzSpillDecode \
		./internal/registry:FuzzConfigBuild; \
	do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "$(GO) test -fuzz '^$$name\$$' -fuzztime $(FUZZTIME) $$pkg"; \
		$(GO) test -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || failed="$$failed $$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz targets failed:$$failed"; exit 1; fi

# CI gate: re-runs the paper's qualitative shape checks; non-zero exit
# on any DIFF.
verify:
	$(GO) run ./cmd/swbench verify

# Regenerates every table and figure into results_*.txt.
results:
	$(GO) run ./cmd/swbench all > results_all.txt
	$(GO) run ./cmd/swbench ablation > results_ablation.txt
	$(GO) run ./cmd/swbench drift > results_drift.txt
	$(GO) run ./cmd/swbench projerr > results_projerr.txt
	$(GO) run ./cmd/swbench winsweep > results_winsweep.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pca_anomaly
	$(GO) run ./examples/textstream
	$(GO) run ./examples/activity
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/distributed
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/fastfd
	$(GO) run ./examples/walrecovery

# Documentation gates (both run in CI). doclint fails on undocumented
# exported identifiers anywhere in the module; linkcheck fails on
# broken local links/anchors in the tracked markdown.
doclint:
	$(GO) run ./cmd/doclint ./...

linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md ALGORITHMS.md EXPERIMENTS.md docs/API.md docs/QUERIES.md

docs: doclint linkcheck

clean:
	$(GO) clean ./...
