GO ?= go

# bench knobs: BENCH filters the benchmark set, COUNT is the number of
# counted runs (benchstat wants ≥ 6 to report significance). The counted
# family pairs each parallel data-plane path with its retained serial
# reference: Exchange/Route (columnar plan/scatter vs tuple-at-a-time),
# SampleSort/SerialSortRef (rank-vector sort vs coordinator sort), the
# columnar FromRelation placement, plus Lookup end-to-end over the pooled
# record columns and the cost-based dispatch overhead (AutoCost).
BENCH ?= BenchmarkExchange|BenchmarkRoute|BenchmarkFromRelation|BenchmarkSampleSort|BenchmarkSerialSortRef|BenchmarkLookup|BenchmarkMicro_SemiJoin|BenchmarkEngine_AutoCost
COUNT ?= 6

# Coverage floors (percent of statements). The columnar store and the
# record pool are proof-heavy code: if their tests rot, ci fails before the
# guarantees do. internal/lint's one cost-class machine serves both the
# round and the load contract, so an untested branch in it is a hole in
# both.
COVER_FLOOR_MPC ?= 85
COVER_FLOOR_PRIMITIVES ?= 90
COVER_FLOOR_LINT ?= 85

# fuzz-smoke budget per target.
FUZZTIME ?= 10s

.PHONY: FORCE ci fmt vet build test race smoke bench bench-all bench-smoke bench-e2e-smoke bench-pairs fuzz-smoke cover lint lint-fix-list tidy-check contracts contracts-verify experiments

# ci is tier-1 plus race checking, a public-API smoke pass, coverage
# floors, a fuzz-smoke pass over the data-plane parity targets, a
# bench-smoke pass over the counted benchmarks, the repolint
# static-analysis suite, the module tidy check, a compile-and-smoke pass
# over the frozen Job→Result benchmark and the CONTRACTS.md drift check in
# one command: if an example, CLI, benchmark, fuzz target, coverage floor
# or contract analyzer stops holding, ci fails. ci times nothing: a timing
# is read off interleaved runs of both sides (make bench-pairs, or make
# bench on each side), never off a file recorded on another day.
ci: fmt vet lint tidy-check build race smoke cover fuzz-smoke bench-smoke bench-e2e-smoke contracts-verify

fmt:
	@out="$$(gofmt -l . | grep -v '^third_party/')"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the repository's contract analyzers (internal/lint) over every
# package through the standard vet driver. See DESIGN.md "Static analysis"
# for the contracts and the //lint:ignore escape hatch.
lint: bin/repolint
	$(GO) vet -vettool=$(CURDIR)/bin/repolint ./...

# bin/repolint is built once per make run, whichever of lint, contracts
# and contracts-verify ask for it; FORCE leaves staleness to the go build
# cache.
bin/repolint: FORCE
	@mkdir -p bin
	$(GO) build -o bin/repolint ./cmd/repolint

FORCE:

# lint-fix-list prints the violations as bare file:line:col lines for
# editor jumping (quickfix lists, vim -q, jump-to-error).
lint-fix-list: bin/repolint
	@$(GO) vet -vettool=$(CURDIR)/bin/repolint ./... 2>&1 | grep -E '^[^ ]+\.go:[0-9]+' | cut -d: -f1-3 || true

# tidy-check fails when go.mod/go.sum need `go mod tidy`.
tidy-check:
	$(GO) mod tidy -diff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke builds and runs every public entry point at a small scale: all four
# examples, an auto-dispatched joinrun and explicit ones (rhier, binhc on
# the tall-flat hub, the two fixed-share grids line3wc and triangle, which
# no benchmark workload reaches, count on a random and a doubled instance,
# and yannakakis and acyclic, whose binary joins route partnered sides
# without their semi-joins), and both classify modes. Every joinrun is oracle-checked and
# exits 1 on a mismatch. Keeps the engine API surface from silently
# rotting.
smoke: build
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/hierarchy > /dev/null
	$(GO) run ./examples/orders > /dev/null
	$(GO) run ./examples/aggregation > /dev/null
	$(GO) run ./cmd/joinrun -algo auto -family random -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo rhier -family rhier -in 4096 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo binhc -family tallflat -in 4096 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo line3wc -family random -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo triangle -family triangle -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo count -family random -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo count -family doubled -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo yannakakis -family random -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/joinrun -algo acyclic -family doubled -in 4096 -out 16384 -p 16 > /dev/null
	$(GO) run ./cmd/classify > /dev/null
	$(GO) run ./cmd/classify -q "1,2;2,3;3,4" > /dev/null
	@echo "smoke: all examples and CLIs ran"

# cover writes one profile per floored package (a single test run each)
# and enforces the per-package statement-coverage floors from the profile
# totals.
cover:
	@for spec in "repro/internal/mpc mpc $(COVER_FLOOR_MPC)" "repro/internal/primitives primitives $(COVER_FLOOR_PRIMITIVES)" "repro/internal/lint lint $(COVER_FLOOR_LINT)"; do \
		set -- $$spec; pkg=$$1; name=$$2; floor=$$3; \
		$(GO) test -coverprofile=cover-$$name.out $$pkg > /dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover-$$name.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$pkg at $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
	done

# fuzz-smoke runs each native fuzz target for FUZZTIME: the exchange, the
# sample sort, the local join kernel, the row index under it, the
# word-keyed aggregation side and the one-sort semi-join must stay
# value-identical to their retained references on randomized inputs,
# widths, and pool states, the reducer-free count must equal the naive
# oracle and the reduce-then-fold reference on random join trees, and the
# binary join must equal the naive oracle on dangling, partnered, bag and
# Cartesian pairs, charging the always-semi-joining reference's rounds less
# 3 per side it routes without its semi-join, and rhier and both binhc
# variants must equal the naive oracle and the regrouping reference on
# random r-hierarchical queries.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzExchangeParity$$' -fuzztime $(FUZZTIME) ./internal/mpc
	$(GO) test -run '^$$' -fuzz '^FuzzRowIndexParity$$' -fuzztime $(FUZZTIME) ./internal/mpc
	$(GO) test -run '^$$' -fuzz '^FuzzSampleSortParity$$' -fuzztime $(FUZZTIME) ./internal/primitives
	$(GO) test -run '^$$' -fuzz '^FuzzLocalJoinParity$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSumByKeyParity$$' -fuzztime $(FUZZTIME) ./internal/primitives
	$(GO) test -run '^$$' -fuzz '^FuzzSemiJoinParity$$' -fuzztime $(FUZZTIME) ./internal/primitives
	$(GO) test -run '^$$' -fuzz '^FuzzCountAgainstOracle$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryJoinAgainstNaive$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRHierAgainstNaive$$' -fuzztime $(FUZZTIME) ./internal/core

# contracts regenerates CONTRACTS.md from the engine registry and the
# round-cost classifier (repolint -contracts runs standalone: under go
# vet, result caching would skip the write).
contracts: bin/repolint
	bin/repolint -contracts -o CONTRACTS.md

# contracts-verify fails when CONTRACTS.md drifted from the registry or
# the classifier: an algorithm, declaration, or charge path changed
# without `make contracts`.
contracts-verify: bin/repolint
	@bin/repolint -contracts -o bin/CONTRACTS.md.new
	@if ! diff -u CONTRACTS.md bin/CONTRACTS.md.new; then \
		echo "contracts-verify: CONTRACTS.md is stale; run make contracts"; exit 1; \
	fi
	@echo "contracts-verify: CONTRACTS.md matches the registry"

# bench runs the counted microbenchmarks (override with BENCH=…) as COUNT
# passes with allocation stats and prints the raw lines, nothing recorded.
# A micro timing is judged only against the other side run on the same
# machine at the same time, e.g. with benchstat:
#
#	make bench > new.txt && git stash && make bench > old.txt && git stash pop
#	benchstat old.txt new.txt
#
# -p 1 serializes the per-package test binaries: letting them run
# concurrently (the go test default) contends for cores and inflates the
# counted medians by double-digit percentages on loaded machines.
bench:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) ./...

# bench-all is the full uncounted suite (tables, figures, micro).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke first fails when a |-separated name in $(BENCH) is the
# prefix of no benchmark `go test -list` finds: a renamed or deleted
# benchmark would otherwise drop out of the -bench filter, and out of make
# bench, without a word. Then it compiles and runs every counted benchmark
# once; keeps the benchmark surface from rotting without paying for
# counted runs.
bench-smoke:
	@listed="$$($(GO) test -run '^$$' -list '$(BENCH)' ./...)" || exit 1; \
	missing=; \
	for name in $$(echo '$(BENCH)' | tr '|' ' '); do \
		printf '%s\n' "$$listed" | grep -q "^$$name" || missing="$$missing $$name"; \
	done; \
	if [ -n "$$missing" ]; then echo "bench-smoke: no benchmark has the prefix$$missing"; exit 1; fi
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 1x . ./internal/mpc ./internal/primitives

# bench-e2e-smoke vets and smoke-tests bench/, the Job→Result benchmark.
# It is a module of its own, so none of the targets above compile it: an
# internal/ signature change that breaks the frozen benchmark fails here
# instead of in the pipeline that runs BENCHMARK.json.
bench-e2e-smoke:
	cd bench && $(GO) vet . && $(GO) test ./...

# bench-pairs runs N alternating pairs of the BENCHMARK.json benchmark,
# commit REF against the working tree, and prints the per-pair verdicts and,
# per workload and metric, the medians, ratio median, pairs won, the
# parent's quartiles and a gain/loss/unresolved verdict, a loss read against
# the metric's BENCHMARK.json bound (scripts/bench-pairs.sh). It is the
# repository's one performance record, and a gate: it exits 1 when any row
# reads "loss (past bound)". A full pair is two ≈ 95 s runs; WORKLOADS=a,b
# narrows both sides and SEED=n runs both on the benchmark's --seed n.
#
#	make bench-pairs REF=HEAD~1 N=10 WORKLOADS=rhier_skew SEED=7
N ?= 10
bench-pairs:
	@test -n "$(REF)" || { echo "usage: make bench-pairs REF=<commit> [N=10] [WORKLOADS=a,b] [SEED=n]"; exit 2; }
	bash scripts/bench-pairs.sh "$(REF)" "$(N)" "$(WORKLOADS)" "$(SEED)"

experiments:
	$(GO) run ./cmd/experiments
