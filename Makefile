GO ?= go

.PHONY: help build test race race-server race-pipeline bench fuzz cover vet fmt-check staticcheck check nfsbench-smoke mond-smoke merge-smoke dist-smoke examples-smoke perf perf-vet perf-check loc

help: ## list targets
	@grep -E '^[a-z-]+:.*##' $(MAKEFILE_LIST) | awk -F':.*## ' '{printf "  %-10s %s\n", $$1, $$2}'

build: ## compile every package and tool
	$(GO) build ./...

test: ## run the full test suite
	$(GO) test ./...

race: ## run the full test suite under the race detector
	$(GO) test -race ./...

race-server: ## hammer the concurrent serving stack under -race (torture tests, repeated runs)
	$(GO) test -race -count=2 -timeout 10m ./internal/vfs ./internal/server ./internal/client ./internal/wire/... ./cmd/nfsbench

race-pipeline: ## run the analysis engine and the tracer under -race repeatedly (ops, shard batches and sniffed records are handed back across goroutines)
	$(GO) test -race -count=3 -timeout 15m ./internal/core ./internal/pipeline ./cmd/nfsmond ./cmd/nfsanalyze ./internal/capture ./internal/pcap ./cmd/nfstrace

# BENCH_COUNT > 1 emits benchstat-friendly repeated runs:
#   make bench BENCH_COUNT=10 > new.txt && benchstat old.txt new.txt
BENCH_COUNT ?= 5

bench: ## run the pipeline scaling, run-finish, ingest (one file and a merged three-file trace set), analysis, partial-state round-trip, dispatch-transport, wire-codec, loopback-serving, pcap-capture, percentile and name-category benchmarks (benchstat-friendly)
	$(GO) test -run xxx -bench 'BenchmarkPipelineWorkers|BenchmarkSortWindow|BenchmarkRunsFinish|BenchmarkReorderSweep' -benchmem -count $(BENCH_COUNT) .
	$(GO) test -run xxx -bench . -benchmem -count $(BENCH_COUNT) ./internal/pipeline
	$(GO) test -run xxx -bench 'BenchmarkIngest|BenchmarkUnmarshalRecordBytes|BenchmarkTextDecodeCorpus|BenchmarkAppendMarshal|BenchmarkInternFH' -benchmem -count $(BENCH_COUNT) ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkDispatchLoopback' -benchmem -count $(BENCH_COUNT) ./internal/dispatch
	$(GO) test -run xxx -bench 'BenchmarkDecodeRes3|BenchmarkDecodeReadArgs3|BenchmarkParseCallSemantic' -benchmem -count $(BENCH_COUNT) ./internal/nfs
	$(GO) test -run xxx -bench . -benchmem -count $(BENCH_COUNT) ./internal/xdr
	$(GO) test -run xxx -bench 'BenchmarkNetLoopback' -benchmem -count $(BENCH_COUNT) ./internal/server
	$(GO) test -run xxx -bench 'BenchmarkReadPcap' -benchmem -count $(BENCH_COUNT) ./internal/capture
	$(GO) test -run xxx -bench . -benchmem -count $(BENCH_COUNT) ./internal/stats
	$(GO) test -run xxx -bench 'BenchmarkCategorize' -benchmem -count $(BENCH_COUNT) ./internal/analysis

bench-smoke: ## run the ingest (one file and a merged three-file trace set), pipeline (partial-state round trip included), run-finish, dispatch, wire-codec, loopback-serving, pcap-capture, percentile and name-category benchmarks once (CI regression visibility, not gating)
	$(GO) test -run xxx -bench 'BenchmarkPipelineWorkers|BenchmarkSortWindow|BenchmarkRunsFinish|BenchmarkReorderSweep' -benchmem -benchtime 3x .
	$(GO) test -run xxx -bench . -benchmem -benchtime 3x ./internal/pipeline
	$(GO) test -run xxx -bench 'BenchmarkIngest|BenchmarkUnmarshalRecordBytes|BenchmarkTextDecodeCorpus|BenchmarkAppendMarshal|BenchmarkInternFH' -benchmem -benchtime 3x ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkDispatchLoopback' -benchmem -benchtime 3x ./internal/dispatch
	$(GO) test -run xxx -bench 'BenchmarkDecodeRes3|BenchmarkDecodeReadArgs3|BenchmarkParseCallSemantic' -benchmem -benchtime 3x ./internal/nfs
	$(GO) test -run xxx -bench . -benchmem -benchtime 3x ./internal/xdr
	$(GO) test -run xxx -bench 'BenchmarkNetLoopback' -benchmem -benchtime 3x ./internal/server
	$(GO) test -run xxx -bench 'BenchmarkReadPcap' -benchmem -benchtime 3x ./internal/capture
	$(GO) test -run xxx -bench . -benchmem -benchtime 3x ./internal/stats
	$(GO) test -run xxx -bench 'BenchmarkCategorize' -benchmem -benchtime 3x ./internal/analysis

nfsbench-smoke: ## drive the socket stack once with the load harness, closed and open loop (CI regression visibility, not gating)
	$(GO) run ./cmd/nfsbench -seed 1 -n 5000 -T 2 -c 2 -files 32 -filesize 65536 -interval 0 -json /dev/null
	$(GO) run ./cmd/nfsbench -seed 1 -n 2000 -T 2 -rate 10000 -files 32 -filesize 65536 -interval 0 -json /dev/null

mond-smoke: ## run nfsmond against live nfsbench load and assert /metrics sanity (CI, non-gating)
	bash scripts/mond_smoke.sh

merge-smoke: ## generate, split, and analyze a trace distributed three ways; assert byte-identical tables (CI, gating)
	bash scripts/merge_smoke.sh

dist-smoke: ## remote dispatch over TCP with crash and hang fault injection; assert byte-identical tables and re-dispatch (CI, gating)
	bash scripts/dist_smoke.sh

examples-smoke: ## build and run the library walkthroughs, which have no tests of their own; sniffer checks the tap → pcap → sniffer path against ground truth (CI, gating)
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/multiarray >/dev/null
	$(GO) run ./examples/sniffer >/dev/null
	$(GO) run ./examples/anonymizer >/dev/null
	$(GO) run ./examples/readahead >/dev/null

perf: ## run the repo's benchmark (BENCHMARK.json; results under tools/perf/out)
	bash tools/perf/run.sh

# tools/perf is a nested module: root `go build ./...` never reaches it,
# so an internal rename would break its -trace layer tracer silently.
# perf-vet is the compile check alone, so it still tells whether an
# internal change builds against the tracer while perf-check's tests
# are red for their own reasons.
perf-vet: ## vet the benchmark module: its layer tracer still compiles against internal/ (CI, gating)
	cd tools/perf && $(GO) vet ./...

perf-check: ## vet and test the benchmark module, including the tracer's smoke run of every workload (CI, gating)
	cd tools/perf && $(GO) vet ./... && $(GO) test ./...

loc: ## non-test, non-blank, non-comment Go lines per package (tools/perf excluded); the number simplicity PRs quote
	@bash scripts/loc.sh

# FuzzCapture's and FuzzServeConn's seeds are whole captures and call
# streams of a few KiB; without a short -fuzzminimizetime the fuzzer
# spends its budget minimizing them.
fuzz: ## run each native fuzz target for 10s
	$(GO) test -run xxx -fuzz FuzzTextRecord -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzTextTokenizerOracle -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzTextRoundTrip -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzBinaryReaderOracle -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzIngestEquivalence -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzStateDecode -fuzztime 10s ./internal/pipeline
	$(GO) test -run xxx -fuzz FuzzJoinerEquivalence -fuzztime 10s ./internal/pipeline
	$(GO) test -run xxx -fuzz FuzzWorkerAssignment -fuzztime 10s ./internal/dispatch
	$(GO) test -run xxx -fuzz FuzzSortWindowEquivalence -fuzztime 10s ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzRunsStreamOracle -fuzztime 10s ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzReducerState -fuzztime 10s ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzNFSDecode -fuzztime 10s ./internal/nfs
	$(GO) test -run xxx -fuzz FuzzRPCDecode -fuzztime 10s ./internal/rpc
	$(GO) test -run xxx -fuzz FuzzRecordFraming -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzCapture -fuzztime 10s -fuzzminimizetime 2s ./internal/capture
	$(GO) test -run xxx -fuzz FuzzServeConn -fuzztime 10s -fuzzminimizetime 2s ./internal/server
	$(GO) test -run xxx -fuzz FuzzAppendSeconds -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzAnonymizeKeepsCategory -fuzztime 10s ./internal/anon

cover: ## run the suite with coverage and enforce the committed floor
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./tools/covercheck -profile cover.out -baseline scripts/coverage_baseline.txt

cover-baseline: ## regenerate the coverage floor from a fresh run (commit the result deliberately)
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./tools/covercheck -profile cover.out -baseline scripts/coverage_baseline.txt -write

vet: ## go vet every package
	$(GO) vet ./...

# CI installs a pinned staticcheck; offline dev machines without the
# binary skip the target rather than failing.
staticcheck: ## run staticcheck if installed (CI pins the version)
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned version)"; \
	fi

fmt-check: ## fail if any file needs gofmt
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: vet staticcheck build race race-server race-pipeline fmt-check ## everything CI runs
