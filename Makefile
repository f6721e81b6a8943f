GO ?= go

.PHONY: build test vet lint race bench-module check fuzz-smoke smoke figures loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the snslint multichecker (internal/lint via cmd/snslint):
# the determinism passes over the deterministic packages plus the Wide
# concurrency and state-integrity passes (confine/guardedby/goleak,
# statefield/exhaustive) over every package. One go list -deps -export
# feeds the loader: module packages are type-checked from source once,
# the standard library comes from export data, and the packages are
# analyzed one after another. Findings are hard failures; suppressions
# need a justified //lint: directive.
lint:
	$(GO) run ./cmd/snslint ./...

race:
	$(GO) test -race ./...

# bench-module vets and tests the nested benchmark module, which ./...
# never reaches: bench/kernel.go mirrors svc.New's kernel wiring, so a
# placement or svc change that breaks it must fail the gate.
bench-module:
	(cd bench && $(GO) vet . && $(GO) test .)

# check is the tier-1 gate: everything must compile, pass vet and the
# determinism linter, pass the full test suite under the race detector,
# and leave the benchmark module building and passing.
check: build vet lint race bench-module

# fuzz-smoke runs the eight fuzzers for real, 20 s each: the two
# snapshot fuzzers, the search fuzzer, the remembered-failure fuzzer,
# the sort fuzzer, the span-update fuzzer, the baseline-plan fuzzer and
# the event-queue fuzzer.
# Plain go test only replays their seed corpora, which cannot reach a
# document, a mutation schedule or a run pattern no one has written
# down yet.
# FuzzCachedSearch drives the search that holds the score cache and the
# remembered failures against one that holds neither and against the
# heap reference (linearFindDemand: a sweep of every node, then
# selectIdlest's bounded heap); FuzzRememberedFailures does the same on
# a cluster filled until most queries fail, where the remembered failures do their work; FuzzSortRuns
# drives the cache's run-merge sort against slices.SortFunc;
# FuzzIndexUpdateSpan drives the core index's word-batched span update
# against the per-node Update loop, and the score cache's word-level
# InvalidateSpan against the per-node Invalidate loop; FuzzTwoSlotPlan drives the CE, CS
# and TwoSlot plans against the candidate-and-merge bodies they
# replaced; FuzzQueueOrder drives the event
# heap through exact time ties, cancellations and compaction against a
# stable sort by (time, insertion order). One fuzz target per go test
# invocation is the toolchain's rule. Not part of check (nearly three
# minutes of mutation on top).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRestoreCorrupt -fuzztime 20s ./internal/svc
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime 20s ./internal/svc
	$(GO) test -run '^$$' -fuzz FuzzCachedSearch -fuzztime 20s ./internal/placement
	$(GO) test -run '^$$' -fuzz FuzzRememberedFailures -fuzztime 20s ./internal/placement
	$(GO) test -run '^$$' -fuzz FuzzSortRuns -fuzztime 20s ./internal/placement
	$(GO) test -run '^$$' -fuzz FuzzIndexUpdateSpan -fuzztime 20s ./internal/placement
	$(GO) test -run '^$$' -fuzz FuzzTwoSlotPlan -fuzztime 20s ./internal/placement
	$(GO) test -run '^$$' -fuzz FuzzQueueOrder -fuzztime 20s ./internal/sim

# smoke runs the end-to-end scheduler-as-a-service test: daemon up, load
# through the REST API, SIGTERM with snapshot, restore, dedup replay;
# then every examples/* main, which must exit 0.
smoke:
	scripts/smoke.sh

# loc prints the non-test, non-testdata Go line counts ROADMAP's line
# budget (item 14) is counted from: kernel, service core, daemon, replay,
# event queue, second scheduler, guard layer, auditor, benchmark.
# Nothing fails on it.
loc:
	@for d in internal/placement internal/svc internal/svc/api \
		internal/trace internal/sim \
		"internal/sched internal/cluster" internal/lint internal/invariant bench; do \
		printf '%-32s %6d\n' "$$d" $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done

# figures regenerates every paper figure as tables on stdout.
figures:
	$(GO) run ./cmd/snsbench -fig all
