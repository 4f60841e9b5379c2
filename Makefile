GO ?= go

# Data-plane burst size for bench-json runs (FTC_BURST env override in the
# benchmarks); 1 measures the degenerate per-packet pipeline.
BURST ?= 32
DATE  := $(shell date +%Y-%m-%d)

.PHONY: all build test vet loc doclint crossbuild race stress chaos control-chaos fuzz-short bench-smoke bench-guard bench-fig5 bench-bridge bench-json ci

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Go line counts, the figures CHANGES.md reports: non-test and test lines
# of every .go file, excluding the benchmark module (ftcbench/) and its
# build directory (.bench_build/).
GO_FILES = find . \( -path ./ftcbench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go'
loc:
	@echo "non-test Go lines: $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"

# Doc-comment lint: the deployment-path packages must keep every exported
# symbol documented (the README walkthrough links to their godoc), and so
# must the chaos harness, the orchestrator it drives (DESIGN.md §10), the
# experiment and middlebox catalogs, and the fleet broker with its YAML
# config surface — where every numeric scenario knob must also name its
# unit (Mbps, ms, ...) in the field's doc comment. Package comments must
# open canonically ("Package <name> ..." / "Command ...").
doclint:
	$(GO) run scripts/doclint.go internal/state internal/trans internal/chaos internal/orch \
		internal/exp internal/mbox internal/fleet cmd/ftcd cmd/ftcgen cmd/ftclab

# Cross-compile gate: the transport's Linux fast path (sendmmsg/recvmmsg,
# SO_REUSEPORT) lives behind build tags with portable fallbacks; compiling
# and vetting a non-Linux target proves the fallback files stay buildable
# so a tag or syscall leak cannot silently break other platforms.
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...

# Race-check the packages that share frames and scratch buffers across
# goroutines: the pooled-frame ownership rules live here. internal/trans
# covers the burst tunnel (packing, socket drain, burst injection) and its
# burst-equivalence/crash tests; internal/state covers the swiss-table
# partitions and TTL wheels that every engine and the expiry driver share;
# internal/fleet covers the broker's TTL-expiry-vs-crash-recovery locking.
race:
	$(GO) test -race ./internal/netsim/... ./internal/core/... ./internal/trans/... ./internal/orch/... ./internal/state/... ./internal/fleet/...

# Scheduler stress gate: the burst/worker equivalence proofs (identical
# delivered sets + state digests across burst 1/32/adaptive and one vs two
# RSS-pinned workers under deterministic loss) and the burst receive path,
# three times each under -race, to shake out races that a single run can
# miss.
stress:
	$(GO) test -race -count=3 -run 'TestBurstEquivalence|TestWorkerEquivalence' ./internal/core/
	$(GO) test -race -count=3 -run 'TestRecvBurst|TestSendBurst|TestBurstController' ./internal/netsim/

# Piggyback codec fuzz gate: replays the checked-in seed corpus (both wire
# versions, every v2 update kind, coalesced/elided logs, truncations), then
# fuzzes the decoder briefly for fresh inputs. Short and deterministic
# enough for every CI run; longer campaigns raise -fuzztime locally.
fuzz-short:
	$(GO) test ./internal/core -run='^FuzzMessageCodec$$' -count=1
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzMessageCodec$$' -fuzztime=5s

# Fast allocation gate: runs the zero-alloc fast-path benchmark a fixed
# number of iterations so CI can catch an allocation regression in seconds.
bench-smoke:
	$(GO) test ./... -run=NONE -bench=FastPath -benchtime=100x

# Benchmark regression guard: bench-smoke plus the million-flow store
# sweep, diffed against the checked-in baseline. allocs/op regressions fail
# the build; timing drift beyond ±10% is an advisory warning (CI runners
# are noisy). Refresh BENCH_BASELINE.json when an improvement lands.
# MillionFlows runs a fixed iteration count so its 1M-key fill is paid once
# per sub-benchmark instead of once per benchtime ramp step.
bench-guard:
	{ $(GO) test ./... -run=NONE -bench=FastPath -benchtime=100x ; \
	  $(GO) test . -run=NONE -bench=MillionFlows -benchtime=100000x ; \
	  $(GO) test ./internal/trans -run=NONE -bench=BridgeThroughput -benchtime=30000x -benchmem ; } \
		| tee /dev/stderr | $(GO) run scripts/bench_compare.go

# Deterministic chaos campaigns under -race: CHAOS_COUNT consecutive seeds
# (56 sweeps the f=1..2 × {2pl,occ} matrix 14 times), and
# SOAK_SECONDS keeps extending the sweep for the nightly soak lane. Every
# failure prints a copy-pasteable single-seed repro command.
#   make chaos                       # pre-merge: 56 seeds, ~5 min
#   make chaos SOAK_SECONDS=600      # nightly: at least 10 min of seeds
#   make chaos CHAOS_COUNT=4         # quick matrix sweep
CHAOS_COUNT  ?= 56
SOAK_SECONDS ?= 0
CHAOS_TIMEOUT := $(shell expr $(SOAK_SECONDS) + 1200)
chaos:
	$(GO) test -race ./internal/chaos/ -run TestChaosCampaign -v \
		-chaos.count=$(CHAOS_COUNT) -chaos.soak=$(SOAK_SECONDS) \
		-timeout $(CHAOS_TIMEOUT)s

# Control-plane chaos gate: the orchestrator-crash campaign matrix under
# -race — six curated seeds covering a leader kill at every replicated
# recovery phase (spawned/fetched/adopted), with and without also killing
# the successor mid-takeover (DESIGN.md §14). Each failure prints the same
# copy-pasteable -chaos.seed repro as the main sweep. Fast enough (<2 min)
# to gate every PR.
control-chaos:
	$(GO) test -race ./internal/chaos/ -run TestControlChaosCampaign -v -timeout 120s -count=1

# Full throughput benchmark (Figure 5 reproduction) with allocation stats.
bench-fig5:
	$(GO) test . -run=NONE -bench=Fig5 -benchtime=2s -benchmem

# Multi-process transport benchmark: loopback tunnel throughput at
# burst=1 (per-packet datagrams) vs burst=32 (packed datagrams), crossing
# jumbo (8972) and real-Ethernet (1472) MTU budgets with the packed
# one-syscall-per-datagram reference vs the sendmmsg/recvmmsg path.
bench-bridge:
	$(GO) test ./internal/trans -run=NONE -bench=BridgeThroughput -benchtime=2s -benchmem

# Machine-readable benchmark snapshot: runs the Figure 5 and Figure 7
# benchmarks at the configured burst size — including the skewed
# elephant-queue benchmark (BenchmarkFig5Skewed, DESIGN.md §9) — plus the
# million-flow store sweep (fixed iteration count, see bench-guard) and the
# multi-process bridge benchmark, and writes BENCH_<date>.json with pps,
# ns/op, and allocs/op per sub-benchmark, headed by the host's CPU count,
# GOMAXPROCS and Go version.
#   make bench-json            # default burst (32)
#   make bench-json BURST=1    # per-packet baseline for comparison
#   make bench-json BURST=0    # adaptive NAPI-style burst sizing
bench-json:
	{ FTC_BURST=$(BURST) $(GO) test . -run=NONE -bench='Fig5|Fig7' -benchtime=2s -benchmem ; \
	  $(GO) test . -run=NONE -bench=MillionFlows -benchtime=2000000x -benchmem ; \
	  $(GO) test ./internal/trans -run=NONE -bench=BridgeThroughput -benchtime=2s -benchmem ; } \
		| tee /dev/stderr \
		| awk -v burst=$(BURST) -v date=$(DATE) -v nproc=$$(nproc) \
			-v goversion="$$($(GO) env GOVERSION)" -f scripts/bench_json.awk \
		> BENCH_$(DATE).json
	@echo wrote BENCH_$(DATE).json

# The full pre-merge gate: build, vet, doc lint, the non-Linux
# cross-compile gate, the piggyback codec fuzz gate, the benchmark
# regression guard (allocation smoke benchmarks diffed against baseline),
# the race-sensitive packages under -race, the scheduler stress gate, the
# orchestrator-crash campaign matrix, and the whole test suite.
ci: build vet doclint crossbuild fuzz-short bench-guard race stress control-chaos test
