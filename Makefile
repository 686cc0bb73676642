# Local entry points. .github/workflows/ci.yml runs these targets, so
# "make ci" passing locally means the pipeline is green.

GO ?= go

.PHONY: build test dark race wake-stress lint loc loc-check bench fuzz-smoke benchmark-smoke dist-smoke fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## dark: one coverage run of every package's tests over every package, then
## no non-test function of the control plane (internal/engine, wire, gcs,
## flight, cluster) may sit at 0 % unless internal/lint/dark.allow names it —
## the check that found checkpoint restart, the fatal-error path and zone-map
## pruning untested. A listed function that is no longer dark fails it too.
## The converse, a function only tests reach, is internal/lint's
## TestEveryFunctionIsReached (in `make test`), with internal/lint/reach.allow.
dark:
	$(GO) test -coverpkg=./... -coverprofile=.dark.cover ./... > /dev/null
	@$(GO) tool cover -func=.dark.cover | awk '$$NF == "0.0%" && $$1 ~ /internal\/(engine|wire|gcs|flight|cluster)\// \
		{ sub(/^quokka\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1 ":" $$2 }' | sort -u > .dark.found; \
	sed 's/[[:space:]]*#.*//; /^$$/d' internal/lint/dark.allow | sort -u > .dark.allowed; \
	dark=$$(comm -23 .dark.found .dark.allowed); stale=$$(comm -13 .dark.found .dark.allowed); \
	rm -f .dark.cover .dark.found .dark.allowed; \
	if [ -n "$$dark" ]; then echo "functions no test reaches (test them, or list them in internal/lint/dark.allow with a reason):"; echo "$$dark"; fi; \
	if [ -n "$$stale" ]; then echo "internal/lint/dark.allow lists functions that are covered or gone:"; echo "$$stale"; fi; \
	[ -z "$$dark$$stale" ] && echo "dark: no unlisted function at 0 %"

## race: the race-detector job over every internal package (engine, ops,
## spill, batch, flight, trace, gcs, metrics, tpch, lint, ...), plus the
## public Submit/Cursor API suites in the root package, plus five rounds of
## the wire kill suite: a worker killed, stopped or unreachable mid-query now
## takes its own listener, accepted conns and mailbox with it, in its own time,
## under write-ahead lineage, spool (a replay reads the head's store) and
## checkpoint (a restart reads a mark another process put), leaving no
## object behind, and a cursor streams over the wire through a kill; and five rounds of the
## engine kill suites beside the handed-batch check: a same-worker consumer
## reads its producer's batch, which must stay its piece — under write-ahead
## lineage the piece is never encoded and no replay reads its slot — and a
## checkpoint restart keeps the results its output channel delivered below
## the mark, and a rewound consumer needing the tasks below a producer's
## restart cursor cascades the producer, their committer being dead; a worker
## writes only through the flush, whose entries are guarded only on their
## fences, with and without a kill, in every FT mode, and reads only by loading
## an image, a failed one
## failing the query rather than stalling it — or by the image the committer
## advanced past its own flush, which must equal the one a load reads and
## must not be published after someone else's write; and a spooled task
## overwrites what a refused incarnation left, and teardown sweeps every
## object a spool or checkpoint query stored; and a round steps only the
## channels its image changed, at most 4 steps per executed task, a replay
## round retiring its entries in one flush that wakes only the channels they
## name; and two kills in turn leave every Direct edge at equal parallelism
## on one worker, in every mode that recovers; and a rewound reader re-reads
## exactly its runs of splits, a pruned survivor list and a short last run
## included, and a fused plan (a reader running a filter, a join running a
## select and a partial aggregate in one task) recovers in every mode; and both
## group-commit tests: commits queued behind a held flush fold into the next
## one, across two queries, and a queued requester, not the held one's
## thread, runs it (the committer has no goroutine of its own);
## five rounds of the namespace drop teardown makes (one pass, one version
## bump, a parked waiter woken, the change log gone, a shard-mate untouched);
## and three rounds of the TPC-H kill suite, each kill fired from inside the
## flush that carries a named task commit; and five rounds of the mailbox's
## one release on both backends: a Drop frees only the slots its own task took
## (a replay refilled since, by a first or a second recovery, stays) and a
## probe frees nothing, so a stale round of a channel rewound in place leaves
## its replays, and a failure-free TPC-H run leaves no byte in any mailbox;
## and a spool replay queued on a worker that dies before serving it moves
## to a live one.
race: wake-stress
	$(GO) test -race ./internal/...
	$(GO) test -race -run 'TestSubmit|TestAdmissionLimitPublic' .
	$(GO) test -race -count=5 -run 'TestProcessModeKillWorker|TestProcessModeCursorMatchesResult|TestProcessModeKillWorkerMidCursor|TestPeerPushFailureIsARetryNotAVerdict|TestWorkerStopClosesMailboxConns' ./internal/wire
	$(GO) test -race -count=5 -run 'TestHandedBatchIsItsPiece|TestLocalPiecesAreNeverEncoded|TestElidedPieceIsNeverRead|Recover|Fail|Kill|Dead|TestReplayedPiecesAreTheStoredOnes|TestCheckpointRestart(RestoresState|KeepsDeliveredResults)|TestOwnerBelowARestartHasDied|TestControlStoreSchema|TestFlushReadsOnlyItsFences|TestEveryWorkerReadIsAnImageLoad|TestAdvancedImageEqualsLoadedImage|TestAdvanceRefusedAfterAForeignWrite|TestChangesFor|TestReplayRoundRetiresOnce|TestDirectPartnersShareAWorker|TestRewoundReaderReReadsItsRuns|TestFusedChainRecovery|TestStepsPerTask|TestSpoolOverwritesARefusedIncarnationsObject|TestPerQueryObjectsAreSwept|TestGroupCommit|TestStaleRoundInPlaceKeepsReplays|TestDropFreesEveryConsumedSlot|TestSpoolReplayOfADeadWorkerIsRequeued' ./internal/engine
	$(GO) test -race -count=5 -run 'TestDropAfterReplayLeavesTheReplay|TestDropAfterSecondReplayLeavesIt|TestProbeBelowSlotsLeavesThem|TestConformance/.*/flight' ./internal/flight ./internal/wire
	$(GO) test -race -count=5 -run 'TestDeleteNSDropsTheNamespace|TestChangeTrackingLifecycle' ./internal/gcs
	$(GO) test -race -count=3 -run 'TestTPCHFailureRecoveryMatchesFailureFree|TestTPCHCheckpointRecovery|TestCompressedFaultRecovery|TestConcurrentTPCHKillWorker' ./internal/tpch

## wake-stress: the control plane waits instead of polling, so a lost wake-up
## is the bug to look for: twenty race-detector rounds of the wait primitive
## on both backends, the one-watcher-per-worker rule, teardown, and every
## query with the fallback timers set far beyond the test.
wake-stress:
	$(GO) test -race -count=20 -run 'AwaitNS|NothingWaitsForTheFallback|Teardown|OneWatcher' ./internal/gcs ./internal/engine ./internal/tpch ./internal/wire

## lint: the repo-specific invariant linter (internal/lint run standalone
## via cmd/quokka-vet): hashonce, nskey, tracegate, detrange — each
## mechanically enforces one ROADMAP recovery invariant. The same suite
## runs as a test in `make test` (go test ./internal/lint).
lint: loc-check
	$(GO) run ./cmd/quokka-vet

## loc: the non-test Go line count, by the exact find the ROADMAP quotes
## (outside benchmark/, build products and testdata) — the number a
## simplicity PR reports, reproducible rather than hand-typed.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -path '*/testdata/*' | xargs cat | wc -l

## loc-check: the ratchet. `make loc` may not exceed LOC_MAX; a PR that
## removes code lowers LOC_MAX to its own count, a PR that has to add code
## raises it in the same diff, where a reviewer sees the number move.
LOC_MAX := 24360
loc-check:
	@n=$$($(MAKE) -s loc); echo "$$n non-test Go lines (ratchet $(LOC_MAX))"; \
	if [ "$$n" -gt $(LOC_MAX) ]; then echo "make loc exceeds the ratchet: remove code or raise LOC_MAX in the Makefile"; exit 1; fi

## bench: one iteration of every benchmark in short mode (CI smoke: drives
## each paper figure once, in modelled time), plus the allocation-regression
## guard over the hash-path inner loops, wide aggregation's bytes per group
## under an int and a string key (state slices, key arena, hash cache and key
## columns all grow by doubling), shuffle routing's bytes per row, the QBA2
## encoder (every packed writer, decimals included) and a fused operator
## chain's hand-off between its members. Measurements come from
## `bash benchmark/run.sh`, not from here.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -short -run 'ZeroAllocs' -v ./internal/ops/ ./internal/batch/

## fuzz-smoke: each native fuzz target mutates for 10 s on top of its
## checked-in corpus (which plain `go test` only replays). -fuzz takes one
## target in one package per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAppendCompressedMatchesReference$$' -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz '^FuzzGroupOrderMatchesComparator$$' -fuzztime 10s ./internal/ops
	$(GO) test -run '^$$' -fuzz '^FuzzParsePieceSet$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzHandleOp$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzMailboxOp$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/lineage

## benchmark-smoke: the real-time benchmark is a Go module of its own
## (benchmark/go.mod), outside `go build ./... && go test ./...` — vet and
## test it, then run its control-plane workload and its process-mode workload
## for 5 s each; the last stdout line of a run is the result record and must
## say correct, with no failed operation.
benchmark-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	@for w in tpch-ctl proc; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1); \
		echo "$$out"; \
		echo "$$out" | grep -Eq '"correct": ?true' && echo "$$out" | grep -Eq '"failed": ?0[,}]' || exit 1; \
	done

## dist-smoke: process mode end to end — build the quokka-worker binary and
## run the three-process SIGKILL fault test (opt-in via QUOKKA_DIST_TEST
## because it forks real OS processes) beside the round-trip budget (op
## request frames per committed task on a query over two wire workers, the
## workers' own listeners included), the zero-frame same-worker edge, and the
## peer that cannot be reached staying a retry.
dist-smoke:
	$(GO) build -o quokka-worker ./cmd/quokka-worker
	QUOKKA_DIST_TEST=1 $(GO) test -run 'TestDistSIGKILL|TestRoundTripsPerTask|TestSameWorkerEdgesCostNoFrames|TestPeerPushFailureIsARetryNotAVerdict' -v ./internal/wire/

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: fmt-check vet lint build test dark race bench fuzz-smoke benchmark-smoke dist-smoke
