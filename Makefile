# Convenience targets for the skandium reproduction.

GO ?= go

.PHONY: all build test race bench benchmod figures examples vet fmt lint cover check chaos overload tournament fuzz lines clean

all: check

# check is the pre-merge gate: compile, full tests, vet/fmt, static
# analysis, then the race detector over every package of the module, the
# cluster chaos suite (network faults, partitions, flaps), the virtual-time
# overload harness (multi-tenant fairness invariants), the seeded policy
# tournament (adaptation policies raced across the scenario corpus), and
# the nested benchmark module's vet + self-test.
check: build test vet lint race chaos overload tournament benchmod

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector: every package, the
# root package's stream tests included, and no -run filter.
race:
	$(GO) test -race ./...

# chaos runs the seeded cluster chaos scenarios (RPC drops, one
# partition/heal cycle, ambiguous replays, probation re-admission,
# straggler hedging, local degradation, node grants raised at dispatch and
# held until the job returns, ordered grant pushes) under the race
# detector. The fault schedule is deterministic per seed; goroutine
# interleavings are not, so CI repeats it with COUNT=3.
COUNT ?= 1
chaos:
	$(GO) test -race -count=$(COUNT) -run 'TestClusterExactlyOnceUnderChaos|TestClusterDedupAbsorbsAmbiguousReplays|TestClusterProbationReadmission|TestWorkerAdmissionControl|TestWorkerJobFencing|TestClusterHedgesStragglers|TestClusterHedgesStragglersUncapped|TestClusterDegradesToLocalPool|TestClusterRaisesGrantAtDispatch|TestClusterGrantHoldsWhileDispatching|TestClusterGrantPushesLandInOrder' ./internal/remote

# overload replays the seeded 2× oversubscription episode (~190k synthetic
# submissions, virtual time) through the real admission ladder and arbiter
# under the race detector, asserting the fairness invariants: weighted
# shares within 10%, guaranteed traffic never shed, ladder walks
# ok → browned-out → ok. Deterministic per seed; COUNT repeats it.
overload:
	$(GO) test -race -count=$(COUNT) -run 'TestOverload|TestAdmission' ./internal/server

# fuzz runs every native fuzz target for FUZZTIME each (go test -fuzz takes
# one target per run). Not part of check: each run explores new inputs.
FUZZTIME ?= 10s
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' $$f); do \
			echo "fuzz $$t ($$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) $$(dirname $$f); \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# benchmod compiles and self-tests the end-to-end benchmark harness. bench/
# is a module of its own (BENCHMARK.json's contract), so ./... never sees
# it: without this line it can rot against internal/* unnoticed.
benchmod:
	$(GO) -C bench vet .
	$(GO) -C bench test ./...

# tournament races every registered adaptation policy across the seeded
# scenario corpus (virtual time — a couple of seconds of wall clock) and
# prints the league table. The same SEED always reproduces the same
# table; EXPERIMENTS.md carries the SEED=1 output verbatim.
SEED ?= 1
tournament:
	$(GO) run ./cmd/tournament -seed $(SEED) -runs 2

# Regenerate every figure of the paper (summaries + the Fig. 1/2 dump).
figures:
	$(GO) run ./cmd/adgdump
	$(GO) run ./cmd/figures

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline -lines 3
	$(GO) run ./examples/mergesort -n 200000
	$(GO) run ./examples/montecarlo -samples 1000000
	$(GO) run ./examples/wordcount -tweets 10000
	$(GO) run ./examples/stream -jobs 4
	$(GO) run ./examples/distributed

# vet fails when gofmt would rewrite a file (gofmt -l alone exits 0).
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# lint runs staticcheck when it is installed (CI installs it; local
# machines without it skip with a notice instead of failing check).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

# cover runs every test with coverage of the whole module (-coverpkg, so a
# function counts as run whichever package's test reaches it), prints each
# package's coverage and the functions outside cmd/ and examples/ that no
# test runs, and fails on one that scripts/cover-allow.txt does not list
# with its reason, or on an entry of that list a test now runs.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=cover.out ./...
	scripts/covergate.sh cover.out scripts/cover-allow.txt

# lines prints the module's non-test line count, the size ROADMAP.md
# tracks: every tracked .go file outside bench/ that is not a _test.go file.
lines:
	@git ls-files '*.go' ':!:bench/*' ':!:*_test.go' | xargs cat | wc -l

clean:
	rm -f cover.out test_output.txt bench_output.txt
