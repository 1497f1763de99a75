# rvcte — stdlib-only Go repo; everything here works offline.

GO ?= go

.PHONY: all build fmt vet test bench-test race verify fuzz-smoke trace-smoke campaign-smoke bmc-smoke stateful-smoke findfix-smoke bench bench-json bench-compare bench-iss bench-fork bench-qcache bench-smt bench-fuzz fuzz-native loc examples clean

all: verify

build:
	$(GO) build ./...

# Every tracked Go file must be gofmt-clean; the benchmark's build
# directory holds copies of the source and is skipped.
fmt:
	@out=$$(git ls-files -- '*.go' ':!bench/.bench_build' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark driver is its own Go module (bench/go.mod), so the
# root `go test ./...` never compiles it; it reads cte.Report and the obs
# metric names, so vet and test it here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The concurrent layers (worker-pool exploration, the fuzzer, the
# shared query cache, the solver it drives, the COW memory it clones,
# the shared decoded-block layer those clones publish into, the
# campaign coordinator serving many workers, the campaign clients and
# the find-fix driver in cmd/ and internal/findfix, and the metric
# registry whose atomics and child forwarding they all update) must stay
# race-clean.
race:
	$(GO) test -race ./internal/obs/... ./internal/cte/... ./internal/fuzz/... ./internal/qcache/... ./internal/concolic/... ./internal/smt/... ./internal/iss/... ./internal/campaign/... ./internal/bmc/... ./cmd/... ./internal/findfix/...
	$(GO) test -race -short ./internal/guest/...

# A bounded hybrid-fuzzing run against the tcpip stack: must report at
# least one finding (exit code 1) well inside the time budget.
fuzz-smoke: build
	$(GO) build -o /tmp/cte-smoke ./cmd/cte
	/tmp/cte-smoke -prog tcpip -fuzz -fuzz-time 120s -seed 1 -j 2; test $$? -eq 1

# Observability smoke: explore storm-s with the event tracer and live
# progress on, then validate that every trace line decodes, timestamps
# are monotone and the trace ends with run_end. storm-s reports its
# seeded assertion finding (exit 1); only exit 2 (setup error) fails.
trace-smoke: build
	$(GO) build -o /tmp/cte-smoke ./cmd/cte
	$(GO) build -o /tmp/tracecheck-smoke ./cmd/tracecheck
	/tmp/cte-smoke -prog storm-s -stop-on-error=false -progress 500ms -trace /tmp/cte-smoke.jsonl >/dev/null; test $$? -le 1
	/tmp/tracecheck-smoke /tmp/cte-smoke.jsonl

# Fleet smoke: a coordinator with a spool, two worker processes and a
# find-fix-rerun client over the HTTP control plane must rediscover all
# six Table-2 tcpip bugs (submit exits 1 = findings reported), then
# every process must wind down cleanly on SIGTERM (exit 0).
campaign-smoke: build
	$(GO) build -o /tmp/cte-smoke ./cmd/cte
	rm -rf /tmp/cte-smoke-spool
	sh -ec ' \
	  /tmp/cte-smoke -serve 127.0.0.1:8473 -spool /tmp/cte-smoke-spool & srv=$$!; \
	  trap "kill -TERM $$srv 2>/dev/null || true" EXIT; \
	  sleep 1; \
	  /tmp/cte-smoke -connect 127.0.0.1:8473 -worker-id smoke-w1 & w1=$$!; \
	  /tmp/cte-smoke -connect 127.0.0.1:8473 -worker-id smoke-w2 & w2=$$!; \
	  trap "kill -TERM $$w1 $$w2 $$srv 2>/dev/null || true" EXIT; \
	  rc=0; /tmp/cte-smoke -submit 127.0.0.1:8473 -prog tcpip -pkt-max 48 -findfix || rc=$$?; \
	  test $$rc -eq 1; \
	  kill -TERM $$w1 $$w2; wait $$w1; wait $$w2; \
	  kill -TERM $$srv; wait $$srv; \
	  trap - EXIT'

# BMC cross-check smoke: the exhaustiveness oracle and the differential
# path-condition check on storm-s (the engines must report the same bug
# set and agree on sampled path conditions), the seeded-disagreement
# negative tests (the oracle must fail when the engines disagree), then
# an end-to-end -bmc run at a small depth: truncated clean absence proof
# (exit 0) and the full-depth confirmed finding (exit 1).
bmc-smoke: build
	$(GO) test -run 'TestBMCConcolicAgreement|TestCompareTamperedConcolicSet|TestCompareDepthMismatch' ./internal/cte ./internal/bmc
	$(GO) build -o /tmp/cte-smoke ./cmd/cte
	/tmp/cte-smoke -prog storm-s -bmc -k 100 >/dev/null
	rc=0; /tmp/cte-smoke -prog storm-s -bmc >/dev/null || rc=$$?; test $$rc -eq 1

# Stateful-campaign smoke: a 3-packet hybrid run on the session guest
# with the full detector set must rediscover one of the seeded deep
# bugs (exit 1 = finding reported). State-banked coverage plus concolic
# escalation is what reaches packet depth 3; the generous
# -dry-escalations keeps the fuzzer escalating through the stateful
# plateau instead of declaring dry.
stateful-smoke: build
	$(GO) build -o /tmp/cte-smoke ./cmd/cte
	/tmp/cte-smoke -prog tcpip-session -pkts 3 -detectors all -fuzz -fuzz-time 180s -dry-escalations 2000 -seed 1; test $$? -eq 1

# Find-fix smoke: the Table 2 example runs the internal/findfix driver
# in-process and must find six distinct tcpip bugs, then a clean stage
# (any other outcome exits nonzero).
findfix-smoke:
	$(GO) run ./examples/tcpip-fuzz

# The repo's verification recipe (see README.md and
# .claude/skills/verify/SKILL.md): build, format check, vet, full
# tests, the benchmark module's tests, race pass, then the end-to-end
# fuzzing, tracing, campaign, BMC, stateful and find-fix smokes, and
# the examples.
verify: build fmt vet test bench-test race fuzz-smoke trace-smoke campaign-smoke bmc-smoke stateful-smoke findfix-smoke examples

bench:
	$(GO) test -bench=. -benchmem .

# The repository benchmark (bench/README.md): every workload of
# BENCHMARK.json, five rounds, written to bench/out/BENCH_$(LABEL).json.
LABEL ?= local
bench-json:
	bash bench/run.sh -label $(LABEL)

# Compare two BENCH files (A = parent, B = change); exits 1 on a
# regression beyond the BENCHMARK.json bounds.
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# Block-cache ablation microbenchmarks (EXPERIMENTS.md "Block cache
# ablation"): each benchmark runs two variants, the cached blocks (bb)
# and the one-record path of a core with a declining ExecHook, which
# decodes every instruction as it steps (nocache).
bench-iss:
	$(GO) test -run NONE -bench 'BenchmarkConcreteExec|BenchmarkConcolicExec' -benchmem ./internal/iss

# Fork-vs-restart ablation on the deep guests (EXPERIMENTS.md "State
# forking"): same explorations with checkpoints resumed, with the
# capture threshold, and with full prefix re-execution; then the live
# heap per queued checkpoint on the session guest (EXPERIMENTS.md
# "Checkpoint memory").
bench-fork:
	$(GO) test -run NONE -bench 'BenchmarkForkVsRestart|BenchmarkCheckpointMemory' -benchtime 20x .

# Query-cache model validation (DESIGN.md "Query caching"): validating
# a 256-condition shared-prefix set directly and as Check's exact hit,
# and canonicalizing an 800-condition set for an exact hit; then one
# cache shared by one and by two goroutines (EXPERIMENTS.md "Query
# cache").
bench-qcache:
	$(GO) test -run NONE -bench 'BenchmarkValidateModel|BenchmarkQCacheResolveLarge' -benchmem ./internal/qcache
	$(GO) test -run NONE -bench BenchmarkQueryCacheParallel -benchmem -cpu 1,2 ./internal/qcache

# CDCL core on the pinned path stream (DESIGN.md "SAT core"): one
# Check per op, i.e. ns and allocations per query.
bench-smt:
	$(GO) test -run NONE -bench BenchmarkSolverPathStream -benchmem ./internal/smt

# Concrete fuzz throughput (EXPERIMENTS.md "Concrete fuzz throughput"):
# one fuzz execution of the buggy TCP/IP stack, with bytes allocated.
bench-fuzz:
	$(GO) test -run NONE -bench BenchmarkFuzzStep -benchmem ./internal/fuzz

# Native Go fuzzing: every Fuzz* target in the module, FUZZTIME each,
# from its seed corpus under the package's testdata/fuzz. Not part of
# verify; a finding is written to that testdata directory and fails.
FUZZTIME ?= 30s
fuzz-native:
	grep -rl --include='*_test.go' '^func Fuzz' internal cmd | while read f; do \
	  for fz in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
	    $(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME) -parallel 2 ./$$(dirname $$f) || exit 1; \
	  done; \
	done

# Non-test Go line count (ROADMAP: a tracked number): the main module,
# then the separate bench/ module.
loc:
	@printf 'main module:  '; find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
	@printf 'bench module: '; find bench -path bench/.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# Every example checks its own outcome and exits nonzero on a surprise.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heap-guard
	$(GO) run ./examples/branch-storm
	$(GO) run ./examples/tcpip-fuzz

clean:
	$(GO) clean ./...
