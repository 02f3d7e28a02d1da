# Tier-1+ verification for the pathsep repo.
#
#   make check      fmt-check + vet + lint + build + race tests + determinism + fuzz smoke + obs-overhead + parallel-speedup + query-serving + path-serving + serve-bench gates
#   make test       plain test run (the tier-1 gate)
#   make fmt-check  fail on any tracked Go file (outside vendor/ and testdata/) that gofmt would change
#   make lint       run the 13 repo-specific analyzers (cmd/pathsep-lint) over ./..., NDJSON to LINT_findings.ndjson
#   make lint-stats per-analyzer finding and suppression counts
#   make determinism  full schedule-matrix byte-identity gate (GOMAXPROCS x workers x shuffled submission)
#   make fuzz-short short fuzz smoke of the graph/label/address decoders
#   make bench-obs  regenerate BENCH_obs.json (metrics on vs. off numbers)
#   make bench-parallel  parallel-build speedup gate (BENCH_parallel.json)
#   make bench-query     flat-vs-labels query speedup gate (BENCH_query.json)
#   make bench-path      path-reporting serving gate (BENCH_path.json)
#   make bench-serve     in-process daemon self-load gate (BENCH_serve.json)
#   make bench-decode    DecodeFlat on the 64x64 grid image: ns/op, allocations, ms/MB (no gate)

GO ?= go
FUZZTIME ?= 5s
# Cap per-input minimization so short smoke runs spend their budget
# mutating instead of shrinking the first large interesting input.
FUZZMINTIME ?= 50x

LINT_BIN := bin/pathsep-lint
LINT_SRC := $(wildcard cmd/pathsep-lint/*.go internal/analyzers/*.go internal/analyzers/*/*.go)

.PHONY: check test fmt-check vet lint lint-stats determinism fuzz-short build race bench-overhead bench-obs bench-parallel bench-query bench-path bench-serve bench-decode

check: fmt-check vet lint build race determinism fuzz-short bench-overhead bench-parallel bench-query bench-path bench-serve

test:
	$(GO) build ./...
	$(GO) test ./...

# gofmt -l over the tracked Go sources; vendored code and analyzer
# testdata (whose layout the want-comments pin) are exempt.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files -- '*.go' ':!:vendor/*' ':!:*/testdata/*')) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The vettool binary is cached under bin/ and rebuilt only when analyzer
# sources change.
$(LINT_BIN): $(LINT_SRC)
	$(GO) build -o $(LINT_BIN) ./cmd/pathsep-lint

# One JSON diagnostic per line (plus ::error annotations under
# GITHUB_ACTIONS); the NDJSON stream is mirrored to LINT_findings.ndjson
# (created even when clean), which CI uploads as an artifact alongside
# the BENCH_*.json set.
lint: $(LINT_BIN)
	./$(LINT_BIN) -json -out=LINT_findings.ndjson ./...

# Per-analyzer finding and suppression counts: the findings come from
# the same vet invocation as lint; suppressions are the exception-granting
# directives (//pathsep:detached, //pathsep:lease-bypass) counted in
# non-test library sources. Rising
# suppressions with flat findings means exceptions are doing an
# analyzer's job — worth a look in review.
lint-stats: $(LINT_BIN)
	./$(LINT_BIN) -stats ./...

build:
	$(GO) build ./...

race:
	$(GO) test -race ./...

# The runtime determinism gate: rebuild the oracle on three graph
# families across GOMAXPROCS {1,4}, workers {1,2,4,0} and shuffled task
# submission, and fail on any byte diff of the flat image encoding.
determinism:
	DETERMINISM_GATE=1 $(GO) test -run TestDeterminismGate -v .

# Fuzz targets as pkg:Func pairs; adding one is a one-line change here.
FUZZ_TARGETS := \
	internal/graph:FuzzGraphIO \
	internal/oracle:FuzzDecodeLabel \
	internal/oracle:FuzzDecodeFlat \
	internal/oracle:FuzzFlatRoundTrip \
	internal/routing:FuzzDecodeAddr \
	internal/serve:FuzzReloadImage

# Short coverage-guided runs of every fuzz target; seed corpora alone run
# in plain `go test`, this also mutates for FUZZTIME each.
fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "$(GO) test -fuzz=$$fn ./$$pkg/"; \
		$(GO) test -fuzz=$$fn -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINTIME) ./$$pkg/; \
	done

# The obs-overhead gate: TestFlatQueryZeroAllocs fails unless Flat.Query
# is 0 allocs/op with observability disabled and with a registry plus a
# slow-query sampler attached; the benchmark prints the same two
# configurations' ns/op and allocs/op alongside.
bench-overhead:
	$(GO) test -run 'FlatQueryZeroAllocs$$' -bench BenchmarkObsOverhead -benchtime=1s .

bench-obs:
	EMIT_BENCH_OBS=1 $(GO) test -run TestEmitBenchObs -v .

# The parallel-build gate: workers=N must beat workers=1 by >= 1.5x on the
# 4k-vertex grid (ratio enforced only when GOMAXPROCS >= 4; narrower
# machines record the measurement with a "skipped": "single-core" marker).
bench-parallel:
	BENCH_PARALLEL_GATE=1 $(GO) test -run TestParallelBuildSpeedupGate -v .

# The query-serving gate: Flat.Query must beat QueryLabels over the
# build's labels by >= 1.5x ns/op on the 4k-vertex grid and take 0
# allocs/op; the measured numbers land in BENCH_query.json.
bench-query:
	BENCH_QUERY_GATE=1 $(GO) test -run TestQueryServingGate -v .

# The path-reporting gate: with a warm reused caller buffer Flat.QueryPath
# must allocate nothing and cost at most 2.5x a distance-only flat query
# (best of five paired rounds — scheduler noise only inflates). The
# measured numbers land in BENCH_path.json.
bench-path:
	BENCH_PATH_GATE=1 $(GO) test -run TestPathServingGate -v .

# The serving gate: stand up the pathsepd engine in-process, self-load it
# (concurrent GET /query then binary batches), and record QPS + latency
# percentiles in BENCH_serve.json; zero errors and a sane p99 required.
bench-serve:
	BENCH_SERVE_GATE=1 $(GO) test -run TestServeBenchGate -v .

# The load-path profile: DecodeFlat (validation, sweep lane, walk
# layout) on the bench-query fixture's encoded image, with allocations
# and decode time per encoded MB. It prints numbers and gates nothing.
bench-decode:
	$(GO) test -run '^$$' -bench BenchmarkDecodeFlat -benchmem .
