#!/bin/sh
# Tier-1 verify: formatting, build, vet, a vet and build of the
# separate perfbench module (go build/vet ./... skip it, so an API
# change that breaks the benchmark would otherwise pass), full test
# suite, then the serial/parallel equivalence tests under the race
# detector (scoped to the packages exercising the sharded runner, the
# merge, and the sharded dataset save and ingest — concurrent sinks
# append their chunks under the writer's mutex — to keep CI time
# bounded; the ingest progress total must equal the stored record count
# at any shard count), the
# dataset backward-compatibility gate against the checked-in v3
# fixture, the golden-stdout gate on webfail-analyze (byte-identity
# across -parallel values, with and without metrics enabled, and the
# analysis of a checked-in dataset an earlier writer produced — the
# TestGolden pattern includes TestGoldenStdoutWithMetrics and
# TestGoldenV3Small), webfail-analyze's input gates (a stored record
# outside the header's roster, a header roster that differs from the
# roster the scenario rebuilds, a stored record outside the header's
# window and a negative -top are errors, never panics), the
# selective-vs-full analyzer-pass equivalence under the
# race detector, the ground-truth join against its string-keyed
# reference under the race detector
# (TestValidateAttributionMatchesReference), the observability
# registry under the race detector
# (concurrent updates from many goroutines), and the
# allocation-regression gates: the fast-mode hot path (evaluate must
# stay at zero heap allocations per transaction, with its metrics
# counters and progress flushing active), the analyzer's Add (zero per
# record with every pass selected) and the dataset layer (a save, a
# one- and two-shard load of the 24 h fixture, and a two-shard
# every-pass analyze of it with Table 5's attribution, within their
# allocation and allocated-byte bounds).
#
# Packet-engine gates: the sharded packet runner must produce a record
# stream byte-identical to the serial engine for every shard count
# (under the race detector — the workers share nothing but the output
# buffers) and a progress total equal to its performed plus skipped
# transactions, the scheduler's heap must pass its Stop-cancellation
# regression and reference-order property tests (the input-stream case,
# which feeds inputs through RunBefore as the packet runner feeds its
# transactions, runs by name and must report PASS), the pooled
# event/packet paths must stay at zero steady-state allocations, the
# allocation gate's fixture must perform exactly its pinned transactions,
# failures and scheduler events at one and three shards
# (TestRunPacketWork), and fast-vs-packet calibration must hold within
# the documented tolerances at the minimum calibration scale. The
# message path has three more gates: RunPacket must stay within its
# per-transaction allocation bound
# (TestRunPacketAllocsPerTxn); a warm DNS encoder and decoder must
# encode and decode a referral without allocating, and the decoder's
# name table must stop at its bound (TestReferralZeroAllocs,
# TestInternTableBounded), while FuzzDecode's seed corpus checks that a
# decode into a reused message equals a fresh one; and two stubs'
# recursions interleaved through one LDNS must each get their own query
# ID and name back (TestLDNSInterleavedRecursions). The LDNS and dig
# share one hierarchy walk: CNAME loops (across zones, and at the root),
# a delegation back to the same server and an NS record without glue
# must each end the stub's lookup in its 11 s timeout and dig's trace,
# incomplete, after a pinned number of queries (TestWalkLimits), and a
# lookup the LDNS recurses for must stay within its allocation bound
# (TestLDNSRecursionAllocs). The per-packet path resolves each endpoint
# once: the network looks the destination host up once, in a table keyed
# by the packed IPv4 address, and hands the sending and receiving hosts
# to the path model, which reads its per-host fault view by host ID. The
# path model must see both hosts with their AddHost-order IDs, and a nil
# destination (the packet still counted as dropped) for an address no
# host holds; a UDP binding must not catch a TCP segment to its port;
# AddHost must refuse a duplicate or non-IPv4 address
# (TestNetworkPathDown, TestNetworkUnknownHost, TestWildcardHandler,
# TestHostDuplicateAddressPanics); and the word-wide Internet checksum
# must equal a plain 16-bit RFC 1071 sum over random lengths, offsets
# and carry-heavy runs of 0xFF (TestChecksumMatchesReference).
#
# Observability gates: tracing exemplars and latency histograms must be
# shard-layout-invariant in both engines, forensics replay must work
# from a dataset, and staticcheck runs when installed (go vet is the
# offline fallback).
set -eux

cd "$(dirname "$0")/.."

# The CLI binaries, datasets and outputs the end-to-end checks write go
# to one private directory, removed on exit, so concurrent runs on one
# host do not overwrite each other's files.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
(cd perfbench && go vet . && go build -o /dev/null .)
# Deeper static analysis when the toolchain is available: staticcheck
# runs offline against the build cache; on boxes without it, the full
# go vet pass above is the fallback (no network installs in CI).
if command -v staticcheck > /dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; go vet served as the static-analysis pass"
fi
go test ./...
go test -race -run 'TestSerialParallelEquivalence|TestRunParallelShardClamp|TestMerge|TestShardedSaveEquivalence|TestDatasetV3ParallelStreams|TestIngestProgress' \
    ./internal/measure ./internal/core ./internal/dataset
# Analyzer state gate: every paged grid must hold exactly the cells of
# a plain map accumulation of the same records (on random rosters whose
# geometries end mid-page), merged artifacts must be identical for any
# shard count and merge order (a merge consumes its source, so the
# TestMerge line above also runs TestMergeThenAdd: the destination must
# stay exact while both accumulators keep adding), a shard accumulator must allocate no
# page outside its client range, the bounded top-k listings must equal
# their complete counterparts and the webfail-analyze summary listings
# the map-and-sort reference (TestTopFailingMatchesReference), both
# stored-record ingest paths must refuse a record outside the analysis
# window, and the episode bitsets and heap must pass their property
# tests — all under the race detector.
# TestValidateAttributionMatchesReference holds the ID-based
# ground-truth join to its string-keyed reference on every shipped
# scenario and keeps its allocations independent of the failure count;
# TestAttributeMatchesReference holds Table 5's attribution, each
# classified failure's blame and the permanent-pair shares, read from
# the block-built failure list, to the map-excluding, append-grown
# reference on every shipped scenario; TestSimilarityMatchesReference
# holds the streamed Tables 7-8 (histogram and top-k rows) and the
# random-pair table to a reference that lists and fully sorts every
# pair.
go test -race -run 'TestGridMatchesReference|TestMergeOrderIndependence|TestShardLocalPages|TestTopFailingPairsMatchesFull|TestTopFailingMatchesReference|TestStoredRecordOutsideWindow|TestRandomPairSimilarityBounded|TestPairCellInt64|TestHourSet|TestTopK|TestValidateAttributionMatchesReference|TestAttributeMatchesReference|TestSimilarityMatchesReference' \
    -count=1 ./internal/core
# Dataset format gates: the checked-in v3 fixture must keep opening
# (backward compatibility), the columnar codec must round-trip and
# reject corruption (truncations, bit flips, index/chunk mismatches,
# client ranges and records outside the header's roster, earlier format
# generations) without panicking, sharded writes must produce the same
# canonical stream as a serial save, a single-stream save must be
# byte-for-byte repeatable at any GOMAXPROCS, and the steady-state
# encode/decode path must stay at zero heap allocations per chunk.
go test -run 'TestDatasetV3Compat|TestDatasetV3RoundTrip|TestDatasetV3Corruption|TestDatasetV3SerialParallelEquivalence|TestDatasetV3ParallelStreams|TestChunkCodecRoundTrip|TestChunkDecodeTruncation|TestIndexChunkMismatch' \
    ./internal/dataset
go test -run 'TestEncodeDecodeZeroAllocs' -count=1 ./internal/dataset
go test -run 'TestGolden|TestOutOfRosterRecord|TestTopFlagBounds' ./cmd/webfail-analyze
go test -race -run 'TestSelectiveMatchesFull|TestArtifactPassRegistry' ./internal/report
go test -race -count=1 ./internal/obs
go test -run 'TestEvaluateZeroAllocs' -count=1 ./internal/measure
go test -run 'TestAddZeroAllocs' -count=1 ./internal/core
go test -run 'TestDatasetHeapBudget' -count=1 .
# Fault-entity table gate: every handle the engines and the ground-truth
# join index must equal a Timeline.Lookup of the entity's spelled name,
# on every shipped scenario and on a timeline swapped in after the
# scenario was built.
go test -run 'TestEntityTableMatchesLookup|TestPairEntity' -count=1 ./internal/workload
# webfail-bgp: its -mrt archive must re-aggregate to the printed report
# and core.GenerateBGP's table, and bad flags fail before any output.
go test -count=1 ./cmd/webfail-bgp
# Tracing gates: exemplar selection and latency histograms must be
# byte-identical across shard layouts in both engines (the -trace-out
# invariance test drives the full CLI), and forensics replay must
# reconstruct blamed waterfalls from a dataset.
go test -run 'TestTraceShardInvariant|TestPacketTraceShardInvariant|TestTraceExemplarContent|TestPacketTraceCaptureCrossLink|TestLatencyHistogramsDeterministic' \
    -count=1 ./internal/measure
go test -run 'TestTraceOutParallelInvariance' -count=1 ./cmd/webfail
go test -run 'TestForensics|TestTraceOutRequiresForensics' -count=1 ./cmd/webfail-analyze
go test -race -run 'TestPacketSerialParallelEquivalence|TestPacketParallelShardOrder|TestPacketCaptureUnknownClient|TestPacketProgress' \
    ./internal/measure
go test -run 'TestTimerStop|TestSchedulerMatchesReferenceOrder|TestSchedulerTimerChurnZeroAlloc|TestPacketSendDeliverZeroAlloc|TestPacketPoolRecycles' \
    -count=1 ./internal/simnet
go test -run 'TestSchedulerMatchesReferenceOrder/input-stream' -count=1 -v ./internal/simnet \
    | grep -- '--- PASS: TestSchedulerMatchesReferenceOrder/input-stream'
go test -run 'TestNetworkPathDown|TestNetworkUnknownHost|TestWildcardHandler|TestHostDuplicateAddressPanics' \
    -count=1 ./internal/simnet
go test -run 'TestChecksumMatchesReference' -count=1 ./internal/netwire
go test -run 'TestRunPacketAllocsPerTxn|TestRunPacketWork' -count=1 ./internal/measure
go test -run 'TestReferralZeroAllocs|TestInternTableBounded|FuzzDecode' -count=1 ./internal/dnswire
go test -run 'TestLDNSInterleavedRecursions|TestWalkLimits|TestLDNSRecursionAllocs' -count=1 ./internal/dnssim
go test -run 'TestCalibration' -count=1 -timeout 10m ./internal/measure
# Scenario gates: every checked-in scenario must validate, compile, and
# complete a short-horizon fast run; its roster must give no two clients
# one address and every replica address to one website alone
# (TestRosterAddressesDistinct); a roster whose spread website would put
# its later replicas in another website's /24 must fail validation, and
# every generated spec that validates must compile to distinct replica
# addresses (TestValidate); a spec key the spec does not define
# must fail by name (TestParseStrict); FuzzScenario's seed corpus (every
# checked-in scenario) must parse and compile without a panic; the
# paper-default spec must compile to the exact hard-coded roster and
# fault timeline (golden equivalence below re-proves the stdout side);
# webfail's bad flags (-hours <= 0, negative roster limits, an unknown
# -mode) must fail before any output; a generated non-paper fleet must be serial/parallel equivalent under
# the race detector; and the 10k-chaos world must run end to end —
# generate, run, -save, webfail-analyze — with byte-identical analysis
# output for any -parallel value. (The raw dataset files are not
# compared: sharded sinks flush independently compressed chunks, so the
# byte layout legitimately varies by shard count while the canonical
# record stream — what analyze reads — is identical, per
# TestShardedSaveEquivalence.)
go test -run 'TestPaper|TestEmbeddedScenariosCompile|TestRosterAddressesDistinct|TestValidate|TestChaosScenarioScale|TestParseStrict|FuzzScenario' ./internal/scenario
go test -run 'TestGoldenOutput|TestScenarioFlagDefaultEquivalence|TestScenarioGoldens|TestInputChecks' ./cmd/webfail
go test -race -run 'TestScenarioSerialParallelEquivalence' -count=1 ./cmd/webfail
go build -o "$tmp/webfail" ./cmd/webfail
go build -o "$tmp/webfail-analyze" ./cmd/webfail-analyze
for sc in paper-default 10k-chaos cascading-outage cdn-flap; do
    "$tmp/webfail" -scenario "$sc" -hours 1 -artifacts headlines > /dev/null
done
# A serial and a 4-shard save of the same run: the comparison proves
# analysis byte-identity across shard counts at 10k-chaos scale.
"$tmp/webfail" -scenario 10k-chaos -hours 1 -parallel 1 \
    -artifacts headlines -save "$tmp/chaos_p1.ds" > /dev/null
"$tmp/webfail" -scenario 10k-chaos -hours 1 -parallel 4 \
    -artifacts headlines -save "$tmp/chaos_p4.ds" > /dev/null
"$tmp/webfail-analyze" -in "$tmp/chaos_p1.ds" -artifacts all > "$tmp/chaos_p1.out"
"$tmp/webfail-analyze" -in "$tmp/chaos_p4.ds" -artifacts all > "$tmp/chaos_p4.out"
cmp "$tmp/chaos_p1.out" "$tmp/chaos_p4.out"
