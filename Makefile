# Development workflow for the PDIP reproduction. Every target uses only
# the Go toolchain; `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build fmt-check vet test race determinism golden check bench clean
.PHONY: lint lint-fix-report check-invariant fuzz bench-track bench-pair metrics-pair perf-smoke perfbench-vet cross-vet trace-suite socket fabric-smoke examples

all: build

build:
	$(GO) build ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The benchmark under _perfbench is a module of its own, which ./... and
# simlint skip: vet it against this checkout, so a change to a public API
# it calls fails here rather than when the benchmark runs.
perfbench-vet:
	cd _perfbench && $(GO) vet ./...

# Vet internal/recycle, the one package with a GOOS build tag, for a
# GOOS on each side of it: darwin maps off-heap tables as linux does,
# windows takes the fallback that keeps them on the heap.
cross-vet:
	GOOS=windows $(GO) vet ./internal/recycle/
	GOOS=darwin $(GO) vet ./internal/recycle/

# Repo-specific static analysis (cmd/simlint): per-package analyzers
# (determinism over every importable package, counter ownership, port
# discipline, tenant namespaces) plus whole-program passes (checkpoint
# coverage, escape-analysis hot-path gate), enforced at the offending
# line. Stdlib-only; see internal/lint.
lint:
	$(GO) run ./cmd/simlint ./...

# Triage view of the same run: diagnostics grouped per analyzer,
# worst-offending analyzer first, for working through a backlog.
lint-fix-report:
	$(GO) run ./cmd/simlint -report ./...

test:
	$(GO) test ./...

# Race-enabled run of the full suite. Metric registries are single-writer
# by design (one per core, owned by its goroutine); this gate proves no
# sharing crept in.
race:
	$(GO) test -race ./...

# Deterministic-replay verification: identical specs must produce
# bit-identical metric snapshots (counters and derived gauges).
determinism:
	$(GO) test ./internal/harness -run 'TestDeterministicReplay' -v

# Golden-value regression grid (3 benchmarks x 3 policies, plus one
# owner-tracked two-tenant socket). After an intentional simulator change,
# regenerate with `make golden-update`.
golden:
	$(GO) test ./internal/harness -run 'TestGolden'

golden-update:
	$(GO) test ./internal/harness -run 'TestGoldenMetrics' -update

# Full suite with the runtime micro-assertions armed (internal/invariant,
# siminvariant build tag): FTQ/PQ bounds, MSHR drain, LRU stack validity,
# the prefetch demand reserve, and per-stage ordering checks.
check-invariant:
	$(GO) test -tags siminvariant ./...

# Short fuzzing smoke over the property-based targets. Lengthen
# -fuzztime for real fuzzing sessions. Minimization is bounded at 100
# execs per interesting input: under the engine's default, up to 60 s
# each, a 10 s smoke of FuzzBinaryCheckpointDecode from a fresh cache
# spends its time minimizing KB-sized inputs and finds 1 new input (51
# to 72 with the bound, on a 2-vCPU host). A failure still fails, with a
# less minimized reproducer.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheSetVsShadow$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x
	$(GO) test ./internal/bpu -run '^$$' -fuzz '^FuzzTAGEIndexFold$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x
	$(GO) test ./internal/pdip -run '^$$' -fuzz '^FuzzPDIPTableInsertLookup$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x
	$(GO) test ./internal/trace/champsim -run '^$$' -fuzz '^FuzzChampSimDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzBinaryCheckpointDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzBinarySocketDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x

# Trace front-end suite: the ChampSim codec/source unit tests plus the
# harness-level round-trip, checkpoint, and warm-fork trace tests.
trace-suite:
	$(GO) test ./internal/trace/... -count=1
	$(GO) test ./internal/harness -run 'TestGoldenMetricsTraceRoundTrip|TestRecordTrace|TestTrace' -count=1 -v

# Distributed-fabric gate: run the 3-cell smoke grid through a localhost
# coordinator + 2-worker fleet sharing a checkpoint directory, then
# serially, and require the two merged documents to be byte-identical
# (cmp). This is the end-to-end proof that sharding, warm leases, sample
# streaming, and the deterministic merge change nothing but wall-clock.
fabric-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/gridd run -grid smoke -workers 2 -checkpoint-dir "$$dir/ck" -out "$$dir/fabric.json" && \
	$(GO) run ./cmd/gridd run -grid smoke -workers 0 -checkpoint-dir "$$dir/ck2" -out "$$dir/serial.json" && \
	cmp "$$dir/fabric.json" "$$dir/serial.json" && \
	echo "fabric-smoke: distributed merged document is byte-identical to serial"

# Build and run every program under examples/, failing on a non-zero
# exit. Geometry is validated when a configuration is built (cache.New,
# pdip.New), and the examples build their own (custom_workload makes its
# own PDIP and core configuration), so each one has to run somewhere.
examples:
	@set -e; for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# Socket/multi-tenant gate: the 2-tenant interference + determinism
# acceptance test, the shared-table and one-window contracts, and the
# adversarial socket checkpoint round trip (mid-wrong-path fork of a
# 2-core socket must replay bit-identically). Single-core runs are
# one-tenant sockets, so the golden grid covers N=1.
socket:
	$(GO) test ./internal/harness -run 'TestSocketContentionInterference|TestSocketSharedPrefetcherRuns|TestExecuteSocketRejectsMixedBudgets' -count=1
	$(GO) test ./internal/core -run 'TestSocket' -count=1

check: fmt-check vet perfbench-vet cross-vet build lint test race determinism golden socket

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem

# Perf snapshot: run the benchmark suite at a stable benchtime and record
# ns/op, allocs/op, B/op, and simulated cycles/sec per bench into
# BENCH_simulator.json (via cmd/benchtrack): a record of this host's
# numbers. Changes are judged by same-host pairs (bench-pair), not
# against the snapshot.
BENCHTIME ?= 0.5s
bench-track:
	$(GO) test -run '^$$' -bench=. -benchtime=$(BENCHTIME) -benchmem . \
		| $(GO) run ./cmd/benchtrack -o BENCH_simulator.json

# Paired micro-benchmark comparison against another commit on this host,
# the perf gate CI runs (the committed BENCH_simulator.json was recorded on
# different hardware, so only same-host pairs judge a change): exports
# BASE (default HEAD) with git archive into .bench_build/pair, builds both
# sides' test binaries, runs BENCH (default the checkpoint rows) PAIRS
# times from each side's own tree, alternating which side goes first, and
# prints each row's median and quartiles per side. It fails when a row's
# ns/op median regressed by more than BENCH_THRESHOLD and the quartile
# ranges separate.
#
#   make bench-pair BASE=HEAD~1 BENCH='^BenchmarkCheckpoint(SaveRestore|ForkDisk)$$'
BENCH_THRESHOLD ?= 0.15
BASE ?= HEAD
PAIRS ?= 10
BENCH ?= ^BenchmarkCheckpoint
bench-pair:
	@set -e; out=.bench_build/pair; rm -rf $$out; mkdir -p $$out/base; \
	git archive '$(BASE)' | tar -x -C $$out/base; \
	(cd $$out/base && $(GO) test -c -o ../base.test .); \
	$(GO) test -c -o $$out/new.test .; \
	for i in $$(seq 1 $(PAIRS)); do \
		order="base new"; if [ $$((i % 2)) -eq 0 ]; then order="new base"; fi; \
		for side in $$order; do \
			echo "bench-pair: pair $$i/$(PAIRS): $$side" >&2; \
			dir=.; if [ $$side = base ]; then dir=$$out/base; fi; \
			(cd $$dir && $(CURDIR)/$$out/$$side.test -test.run '^$$' -test.bench '$(value BENCH)' \
				-test.benchtime=$(BENCHTIME) -test.benchmem -test.timeout=30m) >> $$out/$$side.txt; \
		done; \
	done; \
	$(GO) run ./cmd/benchtrack -pair -threshold $(BENCH_THRESHOLD) $$out/base.txt $$out/new.txt

# Output-preservation check against another commit on this host: exports
# BASE (default HEAD) with git archive into .bench_build/metrics-pair,
# writes from each side's own tree the quick fig10 grid's metrics (four
# benchmarks, every counter and gauge of every run) and a two-tenant
# socket's combined stats export, and requires each pair of documents to
# be byte-identical (cmp). For changes that must not move any metric; a
# change to simulated behaviour differs here on purpose, so CI does not
# run it.
#
#   make metrics-pair BASE=HEAD~1
metrics-pair:
	@set -e; out=.bench_build/metrics-pair; rm -rf $$out; mkdir -p $$out/base; \
	git archive '$(BASE)' | tar -x -C $$out/base; \
	for side in base new; do \
		dir=.; if [ $$side = base ]; then dir=$$out/base; fi; \
		echo "metrics-pair: $$side" >&2; \
		(cd $$dir && $(GO) run ./cmd/experiments -run fig10 -quick \
			-benchmarks cassandra,kafka,tomcat,verilator -metrics $(CURDIR)/$$out/$$side-fig10.json) > /dev/null; \
		(cd $$dir && $(GO) run ./cmd/pdipsim -tenants cassandra/pdip44,tomcat/eip46 \
			-warmup 30000 -measure 100000 -stats-json $(CURDIR)/$$out/$$side-socket.json) > /dev/null; \
	done; \
	cmp $$out/base-fig10.json $$out/new-fig10.json; \
	cmp $$out/base-socket.json $$out/new-socket.json; \
	echo "metrics-pair: fig10 and two-tenant metrics documents are byte-identical to $(BASE)"

# Zero-alloc gate: every hot-path micro benchmark must report 0 allocs/op
# in steady state. The benchtime is iteration-pinned and large enough that
# one-time pool warm-up allocations truncate to zero; any per-iteration
# allocation on the step path pushes allocs/op to >= 1 and fails the gate.
# go test truncates allocs/op to an integer, so an allocation on a path
# taken less than once per op reads 0 there; the socket step's rows are
# also held to 0 B/op, which shows it.
perf-smoke:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkMicro' -benchtime=5000x -benchmem .); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "$$out" | awk '$$NF == "allocs/op" && $$(NF-1)+0 > 0 { bad = 1; \
		print "perf-smoke: " $$1 " reports " $$(NF-1) " allocs/op (want 0)" } \
		$$1 ~ /^BenchmarkMicroSocketStep/ && $$(NF-2) == "B/op" && $$(NF-3)+0 > 0 { bad = 1; \
		print "perf-smoke: " $$1 " reports " $$(NF-3) " B/op (want 0)" } \
		END { if (bad) exit 1; print "perf-smoke: all hot-path benches at 0 allocs/op, the socket step at 0 B/op" }'

clean:
	$(GO) clean ./...
