# Developer smoke gate. `make check` is what a PR must keep green:
# the viplint invariant passes (determinism, durability, attribution —
# see DESIGN.md §11), static vetting, a full build, the race-enabled
# short test suite, a bounded chaos sweep (seeded fault schedules
# against the persistence layer, conservation invariants checked end to
# end), short fuzz runs of the stats-record decoder, the
# commit-journal reader, the sample-line parser, the code-map entry
# parser and the compaction manifest parser, and one iteration of the engine
# microbenchmarks with their allocation counts (which self-verify that
# the batched, fused-trace, and per-op paths agree, and that the
# flattened epoch index matches the backward scan).

GO ?= go

.PHONY: check lint vet build test race-smoke chaos-smoke fleet-smoke fuzz-smoke chaos-nightly bench-smoke bench

check: lint vet build test race-smoke chaos-smoke fleet-smoke fuzz-smoke bench-smoke

# viplint: the repo's own go/analysis-style pass suite (cmd/viplint).
# Exits nonzero on any unsuppressed finding; suppressions require
# `//viplint:allow <pass> <reason>`. -stats appends the per-pass
# finding-count/wall-time table so slow passes surface in CI logs.
lint:
	$(GO) run ./cmd/viplint -stats ./...

# Focused race gate on the concurrency-bearing subsystems: the fleet
# collector (networked delta ingestion, supervisor restarts), the chaos
# harness, the daemon's concurrent per-CPU shard drain (internal/core
# drives it end to end; internal/cpu holds the cores whose banks the
# shards are fed from), re-run under the race detector with caching
# defeated, so `make check` exercises them fresh even when the cached
# `test` target is a no-op.
race-smoke:
	$(GO) test -race -short -count=1 ./internal/fleet/ ./internal/harness/ ./internal/core/ ./internal/cpu/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race -short ./...

# Bounded seed sweep of the chaos harness: 25 seeds — the first eight
# run each scenario in isolation (daemon crash, ENOSPC, torn map, torn
# samples, VM kill, rename fault, dir damage, read fault), the rest
# draw composed schedules of 1-3 scenarios — plus the scripted
# crash/latency/rename/listing-damage schedules. Every seeded run ends
# with the recovery pass and re-checks conservation and visibility
# after it.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/core/

# Bounded seed sweep of the fleet chaos harness (internal/harness):
# 25+ seeds of 8-10 hosts each on 1/2/4-core collector machines — the
# early seeds run each network or disk scenario in isolation (drop,
# dup, reorder, latency, partition, collector crash, ENOSPC, torn
# journal, torn spill, sender kill, snapshot rename, dir damage, read
# fault, shard kill, kill-mid-compaction, partition-mid-map-replication),
# the rest draw composed schedules. Every seed asserts fleet-level
# conservation (per-host oracles vs live and replayed aggregates, key
# by key), zero misattribution, complete code-map replication on clean
# runs, windowed-query partition, and destructive-faults <=>
# degraded-verdict. The second leg is the compaction-crash gate: the
# fault-point sweep kills a compaction pass at every single mutation
# and proves the store rereads identically, plus the windowed-query
# oracle over compacted generations.
fleet-smoke:
	$(GO) test -race -run 'TestFleetChaos$$' -count=1 ./internal/harness/
	$(GO) test -race -run 'TestCompactionFaultPointSweep|TestWindowedQueryOracle|TestFleetMapReplication' -count=1 ./internal/fleet/

# Native fuzzing of the stats-record decoder (internal/record/kv.go),
# seeded from the golden payloads of all six stats records: no panic,
# every accepted payload round-trips, malformed lines are rejected.
# Then the commit-journal reader (internal/record/file.go), seeded from
# the golden daemon and agent journal frames plus torn and byte-flipped
# variants: no panic, every ratified key comes from an intact record
# that parses, and salvage loss or an unparseable record is damage.
# Then the two per-record text decoders every read path calls, each
# against its replaced implementation kept in the test as the oracle:
# the sample-line parser (internal/oprofile/sample.go) must give the
# same error text or the same counts as the Scanner-based one, and the
# code-map entry parser (internal/core/codemap.go) may only reject what
# the Sscanf-based one read, never read it differently, and must accept
# every map a writer could emit that the oracle reads. Last, the fleet
# compaction manifest parser (internal/fleet/compact.go), seeded from a
# real compaction's manifest: no panic, and every accepted manifest
# re-encodes through the writer and parses back equal.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeKV$$' -fuzztime 5s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime 5s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzParseCountsText$$' -fuzztime 5s ./internal/oprofile
	$(GO) test -run '^$$' -fuzz '^FuzzMapEntries$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseManifest$$' -fuzztime 5s ./internal/fleet

# Wide composed-schedule sweep (hundreds of seeds, minutes). Out of
# `make check` by design: run it nightly or before cutting a release.
# Covers both the per-host persistence chaos suite and the fleet
# network-fault suite.
chaos-nightly:
	VIPROF_CHAOS_SEEDS=500 $(GO) test -race -run 'TestChaosNightly' -count=1 -timeout 30m ./internal/core/
	VIPROF_FLEET_SEEDS=300 $(GO) test -race -run 'TestFleetChaosNightly' -count=1 -timeout 30m ./internal/harness/

# One iteration of each engine microbenchmark, with -benchmem so the CI
# log shows allocs/op and B/op next to ns/op (BenchmarkSMPScaling and
# BenchmarkFleetIngest are where a host-allocation regression shows).
bench-smoke:
	$(GO) test -race -run '^$$' -bench 'BenchmarkExecBatch|BenchmarkExecMemBatch|BenchmarkTraceBatch|BenchmarkEpochResolveIndexed|BenchmarkFleetIngest|BenchmarkSMPScaling' -benchtime 1x -benchmem .

# Full reduced-scale benchmark sweep (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x .
