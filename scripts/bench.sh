#!/usr/bin/env bash
# bench.sh — benchmark regression harness. Runs the key simulator /
# planner / trainer benchmarks with -benchmem, runs the simulated-time
# invariance test, and writes the results as JSON (default
# BENCH_PR10.json) extending the perf trajectory that future PRs are
# judged against. PR 10 adds the input-pipeline columns:
# DistStepOverlapIOStripe1/DistStepOverlapIOAuto — the auto-bucketed
# overlap step with a 1 MB/shard read priced at 4 concurrent readers.
# The single-split variant must report its read mostly exposed
# (io-us/step > exposed-io-us/step > 0) while the AutoStripe variant's
# stripe advisor hides it completely (exposed-io-us/step = 0 and
# modeled-us/step back at the IO-off 636.7); every IO-off DistStep
# modeled-us/step stays bit-identical at 676.8/636.7 — the input
# pipeline costs nothing when disabled. PR 9 added the discrete-event
# backend columns:
# DistStepBarrierDES/DistStepOverlapDES (the same step on the
# single-threaded event heap — modeled-us/step must stay bit-identical
# at 676.8/636.7, host cost is what changes) and the functional-sweep
# wall-clock trio FuncScaleP128Goroutine / FuncScaleP128DES /
# FuncScaleP1024DES (like-for-like backend speedup at p=128, plus the
# paper-scale p=1024 point that goroutine ranks could not reach; run
# once each — a sweep is its own repetition). PR 7 added the
# tracing-cost variants —
# DistStepTracedOff (no tracer configured: must match DistStepOverlap
# exactly, proving the nil-guarded trace call sites are free) and
# DistStepTracedOn (a live Tracer capturing spans: host cost only; the
# modeled-us/step must stay bit-identical at 636.7) — and writes the
# deterministic metrics snapshot of a traced smoke run next to the
# JSON. PR 6 added the elastic-training costs —
# CheckpointSave/CheckpointRestore (full trainer state through the
# versioned on-disk gob) and ShrinkRecovery (the p=8 -> p'=7
# shrink + restore + first re-planned step after a rank failure) —
# and must leave every DistStep modeled-us/step bit-compatible: the
# fault machinery is free when no fault plan is armed. PR 5 added
# the topology-hierarchical DistStep variants (on a q=2 adjacent-mapped network so supernodes are really
# crossed at bench scale): barrier, overlap at the fixed default cap,
# α-β auto-bucketed, and the 2-D plan selector (-alg auto picks the
# algorithm too). The hierarchical auto variant may legitimately tie
# its fixed-default counterpart by keeping the single-bucket layout —
# splitting a hierarchical flush concentrates each bucket's traffic
# on its leader-chunk owners (allreduce.HierarchicalSegmentCost), so
# fine buckets are usually a loss. OverlapAlgAuto must report exposed
# comm no worse than the fixed hierarchical variants: the selector
# may pick any algorithm, but only on modeled-exposure merit.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
BENCHTIME="${2:-1s}"
PATTERN='^(BenchmarkSimGEMM64|BenchmarkSimGEMM128|BenchmarkSimGEMMRagged|BenchmarkSimConvExplicit|BenchmarkConvPlanSelection|BenchmarkGEMMPlanWarm|BenchmarkGEMMPlanCold|BenchmarkTable2|BenchmarkSolverUpdate|BenchmarkAllreducePack|BenchmarkDistStepBarrier|BenchmarkDistStepOverlap|BenchmarkDistStepBarrierHostMath|BenchmarkDistStepOverlapHostMath|BenchmarkDistStepOverlapFixedDefault|BenchmarkDistStepOverlapAuto|BenchmarkDistStepBarrierRing|BenchmarkDistStepOverlapRingFixedDefault|BenchmarkDistStepOverlapRingAuto|BenchmarkDistStepBarrierHier|BenchmarkDistStepOverlapHierFixedDefault|BenchmarkDistStepOverlapHierAuto|BenchmarkDistStepOverlapAlgAuto|BenchmarkDistStepOverlapTimeline|BenchmarkDistStepTracedOff|BenchmarkDistStepTracedOn|BenchmarkDistStepBarrierDES|BenchmarkDistStepOverlapDES|BenchmarkDistStepOverlapIOStripe1|BenchmarkDistStepOverlapIOAuto|BenchmarkCGTrainerStep|BenchmarkCheckpointSave|BenchmarkCheckpointRestore|BenchmarkShrinkRecovery)$'
# Sweep wall-clock columns run once each regardless of BENCHTIME: one
# functional sweep is seconds of work and its own repetition.
SWEEP_PATTERN='^(BenchmarkFuncScaleP128Goroutine|BenchmarkFuncScaleP128DES|BenchmarkFuncScaleP1024DES)$'

echo "== running invariance check (simulated times must match golden) =="
if go test ./internal/swdnn/ -run 'TestEngineInvariance|TestEngineDeterminism' -count=1 >/dev/null 2>&1; then
    INVARIANCE=pass
else
    INVARIANCE=fail
fi
echo "invariance: $INVARIANCE"

echo "== running benchmarks (benchtime $BENCHTIME) =="
RAW="$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count 1 .)"
echo "$RAW"

echo "== running sweep wall-clock benchmarks (benchtime 1x) =="
SWEEP_RAW="$(go test -run '^$' -bench "$SWEEP_PATTERN" -benchmem -benchtime 1x -count 1 .)"
echo "$SWEEP_RAW"
RAW="$RAW
$SWEEP_RAW"

echo "$RAW" | awk -v invariance="$INVARIANCE" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    bytes[name] = ""
    allocs[name] = ""
    modeled[name] = ""
    exposed[name] = ""
    ioread[name] = ""
    ioexp[name] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i) == "B/op")                 bytes[name]   = $(i-1)
        if ($(i) == "allocs/op")            allocs[name]  = $(i-1)
        if ($(i) == "modeled-us/step")      modeled[name] = $(i-1)
        if ($(i) == "exposed-comm-us/step") exposed[name] = $(i-1)
        if ($(i) == "io-us/step")           ioread[name]  = $(i-1)
        if ($(i) == "exposed-io-us/step")   ioexp[name]   = $(i-1)
    }
    order[n++] = name
}
END {
    printf "{\n"
    printf "  \"pr\": 10,\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"invariance\": \"%s\",\n", invariance
    printf "  \"benchmarks\": {\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %s", name, ns[name]
        if (bytes[name] != "")   printf ", \"b_op\": %s", bytes[name]
        if (allocs[name] != "")  printf ", \"allocs_op\": %s", allocs[name]
        if (modeled[name] != "") printf ", \"modeled_us_step\": %s", modeled[name]
        if (exposed[name] != "") printf ", \"exposed_comm_us_step\": %s", exposed[name]
        if (ioread[name] != "")  printf ", \"io_us_step\": %s", ioread[name]
        if (ioexp[name] != "")   printf ", \"exposed_io_us_step\": %s", ioexp[name]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"pr4_reference\": {\n"
    printf "    \"comment\": \"PR-4 numbers live in BENCH_PR4.json; DistStep modeled-us/step must be unchanged (676.8 barrier / 636.7 overlap) — the input pipeline (PR 10), like the DES backend (PR 9), the tracing layer (PR 7), the elastic fault machinery (PR 6) and the hierarchical strategy (PR 5), costs nothing when disabled; with IO on, OverlapIOAuto must return to 636.7 modeled-us/step (advisor hides the read) while OverlapIOStripe1 pays it exposed\",\n"
    printf "    \"BenchmarkDistStepBarrier\": {\"modeled_us_step\": 676.8, \"exposed_comm_us_step\": 79.4},\n"
    printf "    \"BenchmarkDistStepOverlapAuto\": {\"modeled_us_step\": 636.7, \"exposed_comm_us_step\": 39.3}\n"
    printf "  }\n"
    printf "}\n"
}' > "$OUT"

echo "== wrote $OUT =="

METRICS="${OUT%.json}.metrics.txt"
echo "== capturing metrics snapshot ($METRICS) =="
go run ./cmd/swtrain -nodes 8 -iters 3 -batch 8 -overlap -alg hier -q 4 -bucket-kb 2 -metrics \
    | sed -n '/^metrics:$/,$p' | tail -n +2 > "$METRICS"
cat "$METRICS"
echo "== wrote $METRICS =="
