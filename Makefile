# Tier-1 gate and developer shortcuts for the V kernel reproduction.
#
#   make        — build + test (the tier-1 verify)
#   make race   — full suite under the race detector
#   make bench  — paper-reproduction benchmarks (root) + parallel IPC benchmarks

GO ?= go
# Iterations for bench-alloc: 1x in CI smoke runs, raise (e.g. 2s) for
# stable local numbers.
BENCHTIME ?= 1x

.PHONY: all build test race stress fuzz vet lint fmt-check crosscheck test-386 bench bench-ipc bench-rfs bench-alloc bench-ccache loc obs-smoke check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-sensitive tests, 20 times each under the race
# detector: packet-train ordering, train framing at every size edge,
# coalesced trains handed to a worker whole, each train frame landed as
# one run and a run landing as its packets would, and mixed ones split, replies
# streamed behind their trains and held until the last byte lands (one
# overtaking its wedged train, one whose completion ack is lost), writes
# pushed behind their Sends (served whole, a lost pushed packet, a queued
# and a shed Send, late pushes, a Send heading its push's first train
# frame, a writable segment left unpushed), late
# move packets, go-back-N under reordering, exactly-once under faults
# and many receivers on one process, each message to one of them (ipc); concurrent trains,
# bulk-transfer crossings, replicated read fan-out, caching failover, a
# write landing between a large read's store read and its reply, which
# later reads must see though the large read cached nothing, large
# writes, which stage each train between pulls on the worker, pulled
# under loss and replicated train by train, staged as one train each
# (one store write per aligned 64 KB write) and part by part past a
# small dirty budget, a replica's catch-up from the log, killed midway
# and under a writer that never pauses, and its
# snapshot on the push stream: after a failover, over many files, killed
# midway and under a writer that never pauses, and beside a sync error
# it must not swallow, the workers' shared receive queue shedding
# under overload while every write lands once, and a caching reader
# called back while the replica's apply is held at a gate, page reads
# and syncs racing large writes whose blocks leave the cache as they are
# written back, and overlapping large writes, page writes and truncates
# of one file racing page reads, large reads and syncs while write-back
# is held (rfs).
# Several minutes, so CI does not run it; run it after touching the
# exchange, receive, move, dispatch, large-read, large-write or
# replication paths.
# Both halves always run; each one's full output is kept in
# stress-<half>.log, so a rare failure can be read after the fact, and the
# target fails if either half did.
STRESS_IPC = TestTrainsNeedNoResume|TestLateMovePacketOfEarlierExchange|TestGoBackNUnderReordering|TestExactlyOnceUnderFaults|TestExchangePacketsOvertakeQueuedMoves|TestConcurrentReceivers|TestTrainSizes|TestSplitSegmentsTwoFlows|TestUDPTrainsArriveWhole|TestShortTrainsChargedForTheirBuffer|TestTrainLandsOneRunPerFrame|TestRunLandsAsItsPackets|TestStreamedReplyOvertakesItsTrain|TestReplyWithSegmentSizes|TestStreamedReplyLostCompletionAck|TestPushServesMoveFrom|TestPushLossPulledFromGap|TestPushForBusyReceiver|TestLatePushDropped|TestPushedSendLeadsItsTrain|TestNoPushForWritableSegment
STRESS_RFS = TestUDPConcurrentTrains|TestBulkTransferCrossings|TestReplicatedReadFanOut|TestRoutedCachingFailoverReadYourWrites|TestLargeReadRacesConcurrentWrite|TestWriteLargeScatterUnderFaults|TestLargeWriteTrainsReplicate|TestReplicaKillDuringCatchUp|TestReplicaCatchUpUnderWrites|TestReplicaFullCycle|TestSnapshotKeepsSyncError|TestSnapshotManyFiles|TestSnapshotUnderWrites|TestOverloadGoodputWithRetry|TestAlignedWriteLargeOneStoreWrite|TestTrainLongerThanBudget|TestGatedApplyFencesReplicaFills|TestLargeWriteDropRaces|TestExtentRaces
stress:
	@s=0; \
	$(GO) test -race -count=20 -run '$(STRESS_IPC)' ./internal/ipc/ >stress-ipc.log 2>&1 || s=1; cat stress-ipc.log; \
	$(GO) test -race -count=20 -run '$(STRESS_RFS)' ./internal/rfs/ >stress-rfs.log 2>&1 || s=1; cat stress-rfs.log; \
	exit $$s

# A short fuzzing pass over every wire parser, the run landing of a
# received train and the cache-invalidation callback, FUZZTIME each
# (raise it for a real search). go test fuzzes one
# target per run, so each is named as package:target.
FUZZTIME ?= 2s
FUZZ = ./internal/vproto:FuzzDecode ./internal/ipc:FuzzSplitSegments ./internal/ipc:FuzzLandRun ./internal/rfs:FuzzDecodeRepRecord ./internal/rfs:FuzzApplyBatch \
	./internal/rfs:FuzzDecodeIDs ./internal/rfs:FuzzInvalidateCallback ./internal/obs:FuzzParseSnapshot
fuzz:
	@for t in $(FUZZ); do \
		$(GO) test -run='^$$' -fuzz="^$${t#*:}$$" -fuzztime=$(FUZZTIME) -parallel=2 $${t%%:*} || exit 1; \
	done

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the project's own vlint suite (bufref,
# lockorder, wireword, unlockpath, spawncheck — see README "Static
# analysis"). vlint exits nonzero on any finding.
lint: vet
	$(GO) run ./cmd/vlint ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# UDPTransport's UDP_SEGMENT/UDP_GRO control messages are Linux-only
# behind build tags (gso_linux.go); darwin and windows build the portable
# fallback, linux/arm64 and linux/386 the Linux path for another
# architecture and a 32-bit word size. bench/ is left out of the windows
# build: it calls syscall.Getrusage.
crosscheck:
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=windows $(GO) build ./internal/... ./cmd/... ./examples/...

# The wire, pool, kernel and file-service tests on a 32-bit word size,
# where an int conversion of a uint32 offset can go negative. crosscheck
# only builds for linux/386; this runs the tests there (an amd64 Linux
# host runs 386 binaries natively).
test-386:
	GOARCH=386 $(GO) test ./internal/vproto/ ./internal/bufpool/ ./internal/ipc/ ./internal/rfs/...

bench:
	$(GO) test -run 'TestNothing' -bench=. -benchmem .

bench-ipc:
	$(GO) test -run 'TestNothing' -bench=Parallel -benchmem ./internal/ipc/

bench-rfs:
	$(GO) test -run 'TestNothing' -bench=. -benchmem ./internal/rfs/

# Allocation pressure on the zero-copy data path: page reads and writes,
# streamed 64 KB reads and writes and the parallel IPC transactions
# report allocs/op and B/op at 1/4/16 clients so pooling regressions are
# visible at a glance. The obs benches ride along: the histogram/counter
# record paths sit inside the same hot loops, so they must stay
# allocation-free (and the histogram under ~30ns) for the instrumented
# paths to stay zero-alloc.
# Reference points (amd64, 2 shared vCPUs, -benchtime=1s): every rfs
# case allocates nothing per op — PageRead, PageWrite, ReadLarge64K
# (repeated, and cold: a 4 MB file front to back) and WriteLarge64K (one
# file, and stream: a 4 MB file front to back), on mem and udp, at 1, 4
# and 16 clients — but ReadLarge64K/filestore, 1 (the FileStore read).
# A 64 KB read is one store read and caches nothing; a 64 KB write is
# pushed behind its Send into one pooled buffer on the server's node,
# taken by one MoveFromVec and staged as one extent. Before the move op
# with its result channel and timer, the read loop's receive buffer and
# the replied sender's descriptor were reused, ReadLarge64K and
# WriteLarge64K were 6 allocs/op on mem and 10 on udp and PageWrite 1;
# on udp 142 and 165 when every packet of a train was its own sendto,
# recvfrom and pooled frame hand-off; a stream write 265 / 269 when each
# staged block allocated a cache entry and a list element.
# SealOpen is one frame's EncodeInto + DecodeInto, 0 allocs/op: with the
# CRC-32C frame check (amd64, 2 shared vCPUs, -benchtime=1s) 75-84 ns at
# 0 data bytes, 135-140 at 512 and 192-230 at 1024; with the rotate-add
# sum it replaced, 73-75, 318-327 and 544-589.
bench-alloc:
	$(GO) test -run=- -bench='BenchmarkPageRead|BenchmarkPageWrite|BenchmarkReadLarge64K|BenchmarkWriteLarge64K|BenchmarkParallel|BenchmarkSealOpen' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/vproto/ ./internal/ipc/ ./internal/rfs/
	$(GO) test -run=- -bench='BenchmarkHistogram|BenchmarkCounterAdd|BenchmarkTiming|BenchmarkTraceRecord' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/obs/

# The §6.2 client-cache comparison: warm page reads and the write-heavy
# shared-file mix, client cache on vs. off, 1/4/16 clients, mem + udp.
# The shared-write mix also runs on a replicated volume (repl-mem,
# repl-udp: a primary and one in-sync replica, reads spread over both),
# where a write's callbacks overlap its replica push. Reference points at
# 4 clients, cache on (amd64, 2 shared vCPUs, -benchtime=20000x, median
# of 3 alternating runs): mem 5.8 µs/op, udp 14.6, repl-mem 7.7, repl-udp
# 20.6 (noisy: 16.5-22.0), at 2-3 allocs/op unreplicated and 3-4
# replicated (the wait's timer is made only when callbacks are still
# out). When each callback ran on a fresh goroutine and attached process
# and the callbacks went out only after the replica's ack, the same runs
# gave 7.7, 18.0, 9.3 and 19.6 µs/op at 8, 8, 9 and 9 allocs/op.
bench-ccache:
	$(GO) test -run=- -bench='BenchmarkCCache' -benchmem -benchtime=$(BENCHTIME) ./internal/rfs/

# Non-test Go lines in the product (the north star's "line count goes
# down" figure), per directory and in total; then, ungated, bench/ and the
# whole module (test fixtures and build output excluded), so growth
# cannot hide by moving between directories.
GOSRC = find $(1) -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path '*/.bench_build/*' | xargs cat | wc -l
loc:
	@for d in internal/ipc internal/rfs cmd; do printf '%-14s %s\n' $$d $$($(call GOSRC,$$d)); done
	@printf '%-14s %s\n' total $$($(call GOSRC,internal/ipc internal/rfs cmd))
	@printf '%-14s %s\n' bench $$($(call GOSRC,bench)) module $$($(call GOSRC,.))

# Observability smoke: boot a two-shard replicated cluster in-process
# (in-memory mesh and loopback UDP), run traced traffic, scrape every
# shard over OpQueryStats, and assert the expected metrics are present,
# counters are monotonic across scrapes, and the traced writes left a
# cross-node span timeline. Exits nonzero on any miss.
obs-smoke:
	$(GO) run ./cmd/vstat -smoke

check: build lint fmt-check test race test-386 fuzz obs-smoke
