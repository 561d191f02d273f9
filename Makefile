GO ?= go
STATICCHECK ?= staticcheck

.PHONY: ci fmt-check vet lint build cross test ledger membudget prepbudget bench-test race cover fuzz-smoke examples bench-smoke bench setupbench suite chaos chaos-smoke loc

ci: fmt-check lint build cross test ledger membudget prepbudget bench-test race cover fuzz-smoke examples bench-smoke loc

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck when installed (CI installs
# it; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		echo "staticcheck ./..."; $(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (vet ran)"; \
	fi

build:
	$(GO) build ./...

# internal/rpc reads a conn through the raw descriptor on unix and through
# bufio everywhere else (frames_unix.go / frames_other.go): build the tree
# for a non-unix target so the portable half keeps compiling, and vet the
# unix half for a second unix. Both need only GOROOT.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/rpc

test:
	$(GO) test ./...

# The kernel-crossings ledger of README's "Performance log", measured from
# /proc/<pid>/io by the eight budget tests and printed one line per row — the
# table is pasted from this, not from memory. The pipelined and deadline ping
# rows run both ends as child processes. A budget that fails prints the
# whole test output instead.
ledger:
	@out=$$($(GO) test -count=1 -v -run 'TestPingCrossings|TestPipelinedPingCrossings|TestDeadlinePingCrossings|TestTCPCrossingsBudget|TestKNNCrossingsBudget|TestLoadCrossingsBudget|TestMutateCrossingsBudget|TestReadAfterWriteCrossings' ./internal/rpc . 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -o '[0-9.]* read/write calls per .*'

# The per-role memory budget of README's "Memory budget" table: what two
# shards, three processors and a router under each policy keep live over the
# 60 k-node preset, and what the router's construction allocates, measured
# by TestMemoryBudget and printed one line per role — pasted from this like
# the ledger. Two shards above theirs (2 x what they store) or a router above
# its budget (2 x its routing tables + 4 MiB) print the whole test output
# instead.
membudget:
	@out=$$($(GO) test -count=1 -v -run 'TestMemoryBudget' . 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -o 'membudget: .*'

# The preprocessing budget of README's "Preprocessing" row: what embed.Build
# buys on the golden 3,000-node WebGraph — the landmark fit of the
# triangulated rows and the 2-hop pair error of the table after the
# neighbour-averaging pass (TestGoldenQualityFloor), one line. Above either
# ceiling prints the whole test output instead. What the build costs is
# BenchmarkEmbedBuild's ns/node.
prepbudget:
	@out=$$($(GO) test -count=1 -v -run 'TestGoldenQualityFloor' ./internal/embed 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -o 'prepbudget: .*'

# bench/ is a Go module of its own, so `go test ./...` above does not
# reach the repository benchmark's unit tests (-short skips its traced
# smoke run).
bench-test:
	cd bench && $(GO) test -short ./...

# Race-detect the concurrent surfaces: the networked transport, the
# root-package client (ExecuteStream, pooled conns, cancellation, elastic
# topology transitions, mid-workload storage kills, concurrent writers),
# the router (strategy registry, stealing/diversion accounting), the
# topology tracker, the replicated storage tier (membership transitions
# vs concurrent reads), the placement planner the virtual-time session
# migrates records by, the traversal kernel whose scratch the
# processors pool across concurrent batches, the processor cache whose lock
# its concurrent executors and evictions share, the virtual-time engine,
# whose mutation path incorporates nodes into a live index and embedding,
# and the graph, whose concurrent first readers of a bulk-loaded graph race
# to build its in-view and its id in-adjacency.
# The second line repeats the tests of the one pipelined connection a peer
# gets — the lost-wakeup stress, a close behind a reply while another is
# owed, a tag's lifetime, one socket per pool — the batched storage read
# under concurrent fails and revives, and the readers of a graph's lazily
# built id in-adjacency — the graph's first-readers stress test, and the
# landmark index build, whose sweep helpers read the index the caller's
# first level built — ten times each, as a rare interleaving is what they
# look for. TestBuildIndexMatchesBFS is 25.8 of the landmark package's
# 26.4 s under -race on a 2-vCPU host, so its ten runs take ≈ 4 min.
race:
	$(GO) test -race ./internal/cache ./internal/core ./internal/rpc ./internal/router ./internal/topology ./internal/kvstore ./internal/gstore ./internal/chaos ./internal/placement ./internal/mquery ./internal/embed ./internal/traverse ./internal/graph .
	$(GO) test -race -count=10 -run 'TestPipelinedCallsNeverStall|TestOwedCallSeesCloseBehindReply|TestTagFreedOnReply|TestPoolHoldsOneConn|TestReplicatedConcurrentChurn|TestBulkConcurrentFirstReaders|TestBuildIndex' ./internal/rpc ./internal/kvstore ./internal/graph ./internal/landmark

# Coverage ratchet for the storage stack the replication work lives in
# plus the binary wire protocol, the embedding-provider subsystem and the
# router both transports decide through: each package must stay at or
# above its floor (set just under the current coverage — raise the floors
# as coverage grows, never lower them). Current: gstore 98%, kvstore 94%,
# topology 78%, chaos 85%, placement 100%, mquery 91%, rpc 92%, embed 91%,
# traverse 100%, router 90%, wire 100% (the one bounds-checked reader every
# decoder of outside bytes goes through), cache 98% (the processor cache step
# both engines fetch through), landmark 97% (the index the mutation path
# updates incrementally), metrics 77% (the snapshot types every layer's stats
# row is written in), core 88% (the virtual-time engine the figures run on),
# graph 91% (the adjacency and bulk loader every tier builds on), gen 96%
# (the dataset generators), partition 94% and baseline 97% (the
# partitioned BSP/GAS baselines the figures compare against), query 92%
# (the queries, their oracles and the pattern wire form), the root package
# 88% (the public API both transports are reached through), experiments 86%
# (the figures), simnet 81% (the network cost profiles), xrand 95%, hash
# 100% and cliutil 100%.
COVER_FLOORS = ./internal/cache:95 ./internal/gstore:90 ./internal/kvstore:91 ./internal/topology:75 ./internal/chaos:70 ./internal/placement:95 ./internal/mquery:85 ./internal/rpc:87 ./internal/embed:85 ./internal/traverse:90 ./internal/router:89 ./internal/wire:90 ./internal/landmark:90 ./internal/metrics:75 ./internal/core:85 ./internal/graph:85 ./internal/gen:90 ./internal/partition:89 ./internal/baseline:92 ./internal/query:90 .:82 ./internal/experiments:84 ./internal/simnet:70 ./internal/xrand:92 ./internal/hash:95 ./internal/cliutil:95

cover:
	@set -e; for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage figure for $$pkg: $$out"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then echo "FAIL: $$pkg coverage $$pct% is below the $$floor% ratchet"; exit 1; fi; \
		echo "$$pkg: $$pct% (floor $$floor%)"; \
	done

# `go test` only replays the fuzz targets' seeds. This runs each of them for
# real, 5 s apiece (about 60 s in all, offline): the decoders that take bytes
# from outside the process — the request and response envelopes, subtasks,
# partials, the embedding file, the adjacency-list text a router loads
# (against the line-by-line reader it replaced) — the WAL's replay, a
# storage shard's log against a map model (its WAL compaction cut at each
# crash point), a stored record under a mutation's edit stream, a stored
# record on its own in either layout, and the cut of a stored record to the
# out-prefix an out-only read ships.
FUZZ_TARGETS = ./internal/rpc:FuzzFrameDecode ./internal/mquery:FuzzSubtaskWire ./internal/mquery:FuzzPartialWire ./internal/embed:FuzzFileDecode ./internal/gen:FuzzReadAdjacency ./internal/kvstore:FuzzWALReplay ./internal/kvstore:FuzzWALRoundTrip ./internal/kvstore:FuzzShardOps ./internal/gstore:FuzzRecordEdits ./internal/gstore:FuzzRecordDecode ./internal/gstore:FuzzRecordPrefix

fuzz-smoke:
	@set -e; for spec in $(FUZZ_TARGETS); do \
		pkg=$${spec%%:*}; name=$${spec##*:}; \
		echo "fuzz $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 5s $$pkg; \
	done

# Compile every example program so public-API drift breaks the build here,
# not the examples.
examples:
	@for d in examples/*/; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null ./$$d || exit 1; \
	done

# One-iteration smoke of every benchmark in the repo: catches crashes and
# bit-rot in benchmark code without CI-scale runtimes.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Full micro-benchmarks with allocation accounting, including the
# transport pipelining comparison (BenchmarkClientBatch).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery|BenchmarkRunWorkload|BenchmarkClientBatch' -benchmem .

# The passes over the whole graph a deployment's set-up makes, on the
# benchmark's 60 k-node preset (BenchmarkSetupPhases: generate, encode, load
# at R = 1, load at R = 2 on durable shards, read the adjacency file), five
# rounds of ten; about 20 s.
setupbench:
	$(GO) test -run '^$$' -bench 'BenchmarkSetupPhases' -benchtime 10x -count 5 .

# The numbers every simplicity PR quotes: Go lines outside bench/ (the
# benchmark module is frozen), non-test and test, the non-test lines of
# internal/experiments, the package the figures-as-data PRs shrink, and the
# root package's public surface (one line of `go doc -short` per exported
# top-level identifier).
loc:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "test Go lines:     $$(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "total Go lines:    $$(find . -name '*.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "internal/experiments non-test Go lines: $$(find internal/experiments -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "root package exported identifiers: $$($(GO) doc -short . | wc -l)"

# Regenerate every figure/table at quick scale on all cores.
suite:
	$(GO) run ./cmd/grouting-bench -run all -parallel 0

# Every built-in chaos scenario on the virtual-time engine, plus the two
# rolling-restart acceptance scenarios (reads only, and under a write
# stream) against real TCP daemons.
chaos:
	$(GO) run ./cmd/grouting-chaos -list
	$(GO) run ./cmd/grouting-chaos -scenario rolling-restart -harness both
	$(GO) run ./cmd/grouting-chaos -scenario mutate-rolling-restart -harness both
	$(GO) run ./cmd/grouting-chaos -scenario netsplit -harness sim
	$(GO) run ./cmd/grouting-chaos -scenario kill9 -harness sim
	$(GO) run ./cmd/grouting-chaos -scenario slowlink -harness sim
	$(GO) run ./cmd/grouting-chaos -scenario scaleout -harness sim

# The CI subset under the race detector: rolling-restart and netsplit on
# the deterministic simnet harness, and the write path where it is exercised
# — mutations through rolling restarts on simnet and against real TCP
# daemons (the live run checks correctness and acked writes only; the runner
# does not hold a wall clock to a goodput floor).
chaos-smoke:
	$(GO) test -race -run 'TestRollingRestartSim|TestNetsplitSim|TestMutateRollingRestartSim|TestMutateRollingRestartLive' -count=1 ./internal/chaos
