# Local targets mirror CI (.github/workflows/ci.yml) exactly, so a green
# `make lint test-race bench-check bench campaign-smoke` locally means a
# green build.

GO ?= go
PKGS := ./...

# bash with pipefail so `go test | tee` recipes fail when the test does,
# not when tee does.
SHELL := /bin/bash -o pipefail

.PHONY: all build test test-race bench-check bench bench-agentday bench-pairs perf-proof megasite-seed golden-check lint staticcheck fmt loc campaign-smoke topology-smoke megasite-smoke shard-smoke trace-smoke workload-smoke manual-year-smoke benchdiff clean

all: lint build test

build:
	$(GO) build $(PKGS)

# -shuffle=on randomises test order every run: campaign determinism (and
# everything else) must not depend on which test ran first.
test:
	$(GO) test -shuffle=on $(PKGS)

test-race:
	$(GO) test -race -shuffle=on -timeout 30m $(PKGS)

# The qosbench harness (bench/) is a Go module of its own, so the root
# build, vet and test targets never compile it. It imports the
# experiments and campaign packages, so vet and test it against the
# simulator's source after any change to their API.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every benchmark: exercises each figure's hot path and
# prints its headline metric without burning CI minutes.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' $(PKGS)

# The perf-gate data points: the agent cron hot loop on the scaled and
# paper-size sites (untraced and with the decision-trace recorder on),
# the pooled-vs-fresh campaign trial pair and the 10k-host megasite day,
# plus the circular-log append at three caps (internal/fsim; its ns/op
# must stay flat as the cap grows, at 0 allocs/op), the event queue's
# hold model at two depths and its agents-year shape, 500 cron tickers
# with their +4 s reapers (internal/simclock; 0 allocs/op), the service
# health check on a healthy Oracle instance and web server
# (internal/svc; 0 allocs/op), one status-agent run whose DLSP push
# reaches the administration pair over netsim (internal/agents), one ok
# agent run plus its reaper on a warm host (internal/agent: the apply
# layer's per-run cost, at 2 allocs/op) and one router send and its
# delivery over the private and public networks (internal/netsim;
# 0 allocs/op), with -benchmem so scripts/benchdiff gates allocs/op
# alongside ns/op. The paper-site manual day (workload refresh, LSF and
# operator repair; the BMC monitors resident but not polling) has a line
# of its own, PAPER_MANUAL_DAY.
# Repeated (-count 3) so the best-of values compared are stable.
# BenchmarkAgentDay (tracing off) is the line the gate holds flat: the
# recorder must stay zero-cost when disabled.
BENCH_GATE := ^(BenchmarkAgentDay|BenchmarkAgentDayTraced|BenchmarkPaperAgentDay|BenchmarkAgentDaySlots|BenchmarkCampaignTrialReuse|BenchmarkCampaignTrialFresh|BenchmarkMegaSiteDay|BenchmarkMegaSiteDayShards|BenchmarkCircLogAppend|BenchmarkEventQueue|BenchmarkServiceProbe|BenchmarkStatusPush|BenchmarkAgentRun|BenchmarkRouterSend)$$
PAPER_MANUAL_DAY := ^BenchmarkPaperManualDay$$

# The root package's benchmarks are whole sim-days (2 iterations each),
# except the paper-site manual day: an iteration takes about 1.5 ms, so at
# 2 iterations one garbage collection decided its ns/op, and 400 spread
# several over the run. The fsim, simclock, svc, agents, agent and netsim
# micro-benchmarks get a fixed iteration count of their own (a status
# push advances 5 sim-minutes and an agent run one, so they run fewer).
bench-agentday:
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 2x -count 3 -benchmem -run '^$$' . | tee bench-agentday.txt
	$(GO) test -bench '$(PAPER_MANUAL_DAY)' -benchtime 400x -count 3 -benchmem -run '^$$' . | tee -a bench-agentday.txt
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 1000000x -count 3 -benchmem -run '^$$' ./internal/fsim | tee -a bench-agentday.txt
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 1000000x -count 3 -benchmem -run '^$$' ./internal/simclock | tee -a bench-agentday.txt
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 1000000x -count 3 -benchmem -run '^$$' ./internal/svc | tee -a bench-agentday.txt
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 100000x -count 3 -benchmem -run '^$$' ./internal/agents | tee -a bench-agentday.txt
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 100000x -count 3 -benchmem -run '^$$' ./internal/agent | tee -a bench-agentday.txt
	$(GO) test -bench '$(BENCH_GATE)' -benchtime 1000000x -count 3 -benchmem -run '^$$' ./internal/netsim | tee -a bench-agentday.txt

# Speedup proofs against the checked-in seed artifacts: BenchmarkAgentDay
# must be at least 2x faster than the pre-optimisation engine
# (testdata/bench-agentday-seed.txt, recorded at the fast-path PR), and
# BenchmarkMegaSiteDay at least 2x faster than the per-service reference
# probe path (testdata/bench-megasite-seed.txt, recorded by
# `make megasite-seed` — an honest baseline, since no pre-probe engine
# could schedule a 10k-host site at all). Hardware-sensitive: meaningful
# on a machine comparable to the one that recorded the artifacts, so they
# are local targets, not CI gates.
#
# The third stanza proves the intra-trial shard engine: on a machine with
# >= 4 cores, BenchmarkMegaSiteDayShards (8 shards) must beat the serial
# BenchmarkMegaSiteDay recorded moments earlier in the same run by at
# least 1.5x — same build, same machine, so the ratio is pure shard
# speedup. benchdiff matches benchmarks by name, so the shard lines are
# renamed to the serial name for the comparison. On fewer cores the walk
# is serial anyway and the stanza skips with a message rather than
# fabricating a speedup a single core cannot deliver.
perf-proof:
	$(GO) test -bench '^BenchmarkAgentDay$$' -benchtime 2x -count 3 -benchmem -run '^$$' . | tee bench-proof.txt
	$(GO) run ./scripts/benchdiff -improvement 2 testdata/bench-agentday-seed.txt bench-proof.txt
	$(GO) test -bench '^BenchmarkMegaSiteDay$$' -benchtime 2x -count 3 -benchmem -run '^$$' . | tee bench-megasite-proof.txt
	$(GO) run ./scripts/benchdiff -improvement 2 testdata/bench-megasite-seed.txt bench-megasite-proof.txt
	@if [ "$$(nproc)" -ge 4 ]; then \
		$(GO) test -bench '^BenchmarkMegaSiteDayShards$$' -benchtime 2x -count 3 -benchmem -run '^$$' . | tee bench-megasite-shards-proof.txt && \
		sed 's/BenchmarkMegaSiteDayShards/BenchmarkMegaSiteDay/' bench-megasite-shards-proof.txt > bench-megasite-shards-renamed.txt && \
		$(GO) run ./scripts/benchdiff -improvement 1.5 bench-megasite-proof.txt bench-megasite-shards-renamed.txt; \
	else \
		echo "perf-proof: only $$(nproc) core(s); skipping the 8-shard speedup proof (needs a multi-core runner)"; \
	fi

# Re-record the megasite speedup baseline: BenchmarkMegaSiteDay with the
# probe engine forced onto its per-service reference path.
megasite-seed:
	MEGASITE_REFERENCE=1 $(GO) test -bench '^BenchmarkMegaSiteDay$$' -benchtime 2x -count 3 -benchmem -run '^$$' . | tee testdata/bench-megasite-seed.txt

# Regenerate the campaign goldens and fail on any diff against the
# checked-in testdata/campaign-golden-*.json — the CI step that keeps the
# byte-identity gate's expectations from silently going stale.
golden-check:
	$(GO) run ./scripts/campaigngolden
	git diff --exit-code -- testdata/campaign-golden-paper-manual.json \
		testdata/campaign-golden-paper-agents.json \
		testdata/campaign-golden-small-manual.json \
		testdata/campaign-golden-small-agents.json \
		testdata/campaign-golden-small-flashcrowd.json \
		testdata/campaign-golden-paper-manual-year.json \
		testdata/campaign-golden-small-agents-year.json

# Short real campaigns whose JSON summaries feed the perf trajectory; CI
# uploads campaign-smoke.json and ablate-smoke.json as build artifacts.
campaign-smoke:
	$(GO) run ./cmd/qossim campaign -trials 4 -workers 4 -days 14 -seed 7 \
		-out campaign-smoke.json fig2
	$(GO) run ./cmd/qossim campaign -trials 2 -workers 4 -days 7 -seed 7 \
		-cron 5m,60m -out ablate-smoke.json -scenario ablate-cron

# Site-axis smoke: one campaign sweeping the paper site, the scaled site
# and the checked-in custom-topology JSON fixture, plus a single run
# driven straight off the fixture file, plus a campaign over the per-tier
# workload/fault-spec fixture sweeping the tier-fault-intensity axis.
topology-smoke:
	$(GO) run ./cmd/qossim campaign -trials 2 -workers 4 -days 2 -seed 7 \
		-site paper,small,testdata/topology-edge.json -out topology-smoke.json before
	$(GO) run ./cmd/qossim -days 2 -trials 2 -site testdata/topology-edge.json after
	$(GO) run ./cmd/qossim campaign -trials 2 -workers 4 -days 2 -seed 7 \
		-site testdata/topology-tiers.json -tierfaults ';cache=2' \
		-out tiers-smoke.json before

# Megasite smoke: one-seed manual-year run on the 10k-host site, proving
# datacentre scale works end to end through the CLI; CI uploads
# megasite-smoke.json alongside the other topology artifacts.
megasite-smoke:
	$(GO) run ./cmd/qossim campaign -trials 1 -workers 1 -days 2 -seed 7 \
		-site megasite -out megasite-smoke.json before

# Shard smoke: the megasite smoke run again at -shards 8. The sharded
# engine's determinism contract is that shards are an execution knob, not
# a model change, so the JSON must match megasite-smoke.json byte for
# byte; cmp enforces that across two separate qossim processes. CI
# uploads shard-smoke.json with the other artifacts.
shard-smoke: megasite-smoke
	$(GO) run ./cmd/qossim campaign -trials 1 -workers 1 -shards 8 -days 2 -seed 7 \
		-site megasite -out shard-smoke.json before
	cmp megasite-smoke.json shard-smoke.json

# Trace smoke: record a one-seed paper-site week with decision tracing,
# replay the trace (every trial re-run from its seed, its metrics
# checked against the recorded ones), and cmp the replayed campaign
# JSON against the original byte for byte — the end-to-end
# record/replay determinism proof, across two separate qossim
# processes. Then take the trace's first diagnose event (fail if there
# is none), print its reboot-host counterfactual table in two more
# processes and cmp the tables. CI uploads trace-smoke.jsonl and
# trace-counterfactual.txt with the other artifacts.
trace-smoke:
	$(GO) run ./cmd/qossim campaign -trials 1 -workers 1 -days 7 -seed 7 \
		-site paper -trace trace-smoke.jsonl -out trace-original.json after
	$(GO) run ./cmd/qossim replay -trace trace-smoke.jsonl -out trace-replay.json
	cmp trace-original.json trace-replay.json
	@set -e; \
	id=$$(grep -m1 '"kind":"diagnose"' trace-smoke.jsonl | sed -n 's/^{"id":\([0-9]*\),.*/\1/p'); \
	if [ -z "$$id" ]; then echo "trace-smoke.jsonl holds no diagnose event"; exit 1; fi; \
	echo "counterfactual target 0:$$id"; \
	$(GO) run ./cmd/qossim replay -trace trace-smoke.jsonl -counterfactual 0:$$id \
		-alt reboot-host > trace-counterfactual.txt; \
	$(GO) run ./cmd/qossim replay -trace trace-smoke.jsonl -counterfactual 0:$$id \
		-alt reboot-host > trace-counterfactual-2.txt; \
	cmp trace-counterfactual.txt trace-counterfactual-2.txt

# Workload smoke: a one-seed campaign driven by the checked-in
# flash-crowd workload spec, re-run at -workers 8. Spec-driven arrivals
# must be byte-identical at any worker count — cmp enforces that across
# two separate qossim processes. CI uploads workload-smoke.json with the
# other artifacts.
workload-smoke:
	$(GO) run ./cmd/qossim campaign -trials 4 -workers 1 -days 2 -seed 7 \
		-site small -workload testdata/workload-flashcrowd.json \
		-out workload-smoke.json before
	$(GO) run ./cmd/qossim campaign -trials 4 -workers 8 -days 2 -seed 7 \
		-site small -workload testdata/workload-flashcrowd.json \
		-out workload-smoke-w8.json before
	cmp workload-smoke.json workload-smoke-w8.json

# Manual-year smoke: a four-trial paper-site manual year over the
# built-in and flash-crowd workload cells, run at -workers 1 and again at
# -workers 4. Pooled trials reuse a site that Reset rewinds, so the
# per-trial state Reset clears (LSF's job table and failed index, the
# workload generator's feed record) is exercised at year scale; the JSON
# must match byte for byte at any worker count, and cmp enforces that
# across two separate qossim processes. CI uploads manual-year-smoke.json
# with the other artifacts.
manual-year-smoke:
	$(GO) run ./cmd/qossim campaign -site paper -trials 4 -workers 1 -days 365 \
		-workload ,flashcrowd -seed 7 -out manual-year-smoke.json before
	$(GO) run ./cmd/qossim campaign -site paper -trials 4 -workers 4 -days 365 \
		-workload ,flashcrowd -seed 7 -out manual-year-smoke-w4.json before
	cmp manual-year-smoke.json manual-year-smoke-w4.json

# Compare two bench data points (fails on >20% ns/op regression):
#   make benchdiff OLD=prev/bench-agentday.txt NEW=bench-agentday.txt
benchdiff:
	$(GO) run ./scripts/benchdiff $(OLD) $(NEW)

# Alternated qosbench pairs of a base revision and the working tree on one
# workload, on one machine in one session:
#   make bench-pairs BASE=HEAD~1 WORKLOAD=paper-agents
# builds qosbench from `git archive $(BASE)` (HEAD when BASE is unset) and
# from the working tree (both under .bench_build/pairs/), then runs
# scripts/benchpairs: $(SEEDS) pairs at seeds from 1 up (skipping 11), the
# base first on odd seeds, plus hold-out seed 11. It fails on an incorrect
# run, a failed operation or a pair whose digests differ.
WORKLOAD ?= paper-agents
SEEDS ?= 10
bench-pairs:
	rm -rf .bench_build/pairs && mkdir -p .bench_build/pairs/base
	git archive $(or $(BASE),HEAD) | tar -x -C .bench_build/pairs/base
	cd .bench_build/pairs/base/bench && GOTOOLCHAIN=local GOPROXY=off $(GO) build -o ../../base-qosbench ./qosbench
	cd bench && GOTOOLCHAIN=local GOPROXY=off $(GO) build -o ../.bench_build/pairs/change-qosbench ./qosbench
	$(GO) run ./scripts/benchpairs -parent .bench_build/pairs/base-qosbench \
		-change .bench_build/pairs/change-qosbench -workload $(WORKLOAD) -seeds $(SEEDS)

lint: staticcheck
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet $(PKGS)

# staticcheck is optional locally (no network / no install required): the
# target runs it when present and says how to get it when not. CI always
# installs and runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck $(PKGS); \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1 — the version CI pins)"; \
	fi

fmt:
	gofmt -w .

# Non-test Go lines of the simulator, bench/ excluded: the size figure
# ROADMAP tracks for "the same behaviour from less code". Counts the
# tracked files that exist (git grep skips one deleted but not yet
# staged), so stage new files first. `make loc BASE=<rev>` also counts
# the files at that revision, by the same rule, and prints the
# difference. Informational; nothing gates on it.
LOC_FILES := -- '*.go' ':!:*_test.go' ':!:bench/**'
loc:
	@set -e; \
	now=$$(git grep -c '' $(LOC_FILES) | awk -F: '{ n += $$NF } END { print n + 0 }'); \
	if [ -z "$(BASE)" ]; then echo $$now; exit 0; fi; \
	base=$$(git grep -c '' '$(BASE)' $(LOC_FILES) | awk -F: '{ n += $$NF } END { print n + 0 }'); \
	echo "$(BASE): $$base"; echo "now: $$now"; echo "delta: $$((now - base))"

clean:
	rm -f campaign-smoke.json ablate-smoke.json topology-smoke.json tiers-smoke.json megasite-smoke.json shard-smoke.json trace-smoke.jsonl trace-original.json trace-replay.json trace-counterfactual.txt trace-counterfactual-2.txt workload-smoke.json workload-smoke-w8.json manual-year-smoke.json manual-year-smoke-w4.json bench.txt bench-agentday.txt bench-proof.txt bench-megasite-proof.txt bench-megasite-shards-proof.txt bench-megasite-shards-renamed.txt
