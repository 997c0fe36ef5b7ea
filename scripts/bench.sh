#!/usr/bin/env sh
# Runs the microbenchmarks and distils the Criterion medians into JSON
# reports at the repo root:
#
#   BENCH_path_eval.json  — path-evaluation microbenchmarks (micro_engine)
#   BENCH_fault_path.json — behind-pipeline retry overhead (fault_path):
#                           fault-free vs 10%-fault throughput
#   BENCH_txn_apply.json  — transactional PUL apply (txn_apply): undo-log
#                           tracking vs untracked baseline, plus worst-case
#                           full rollback (target: <15% tracking overhead)
#   BENCH_wal_apply.json  — durable server tier (wal_apply): WAL-journaled
#                           update batches, plus recovery (checkpoint +
#                           redo replay) latency
#   BENCH_overload.json   — overload control (overload): ungoverned vs
#                           governed goodput and latency percentiles under
#                           a 2x overload burst, in virtual time (the
#                           bench binary writes this report itself)
#   BENCH_plan_eval.json  — compiled query pipeline (plan_eval): render
#                           route interpreted vs compiled-cold vs
#                           compiled-cached, §7-style path/FLWOR/exists
#                           workloads, early-exit scaling (1k vs 12k
#                           nodes), and governed-capacity delta
#   BENCH_cluster.json    — replicated cluster (cluster_failover):
#                           acked-update throughput, ack latency and
#                           failover blackout for leader-only vs
#                           1-follower vs 2-follower deployments under a
#                           mid-run leader crash, in virtual time (the
#                           bench binary writes this report itself)
#   BENCH_scrub.json      — anti-entropy scrubbing (scrub): latent decay
#                           at rising intensities over a replicated shard
#                           with a mid-run leader crash — corruption
#                           detected/repaired, demotions, read refusals,
#                           acked updates preserved, in virtual time (the
#                           bench binary writes this report itself)
#   BENCH_reshard.json    — online resharding (reshard): the same
#                           steady workload with no topology change vs a
#                           mid-run grow, grow + ring reseed, and
#                           decommission — acked-update latency, 421
#                           fence-chases and migration counters, in
#                           virtual time (the bench binary writes this
#                           report itself)
#   BENCH_fleet.json      — browser fleet (fleet): 100 Elsevier clients
#                           with whole-document caching vs cache-busting
#                           URLs (origin traffic + cache-hit ratio), plus
#                           the full chaos menu over a mixed fleet, in
#                           virtual time (the bench binary writes this
#                           report itself)
#
# `scripts/bench.sh <bench>` reruns one criterion bench (micro_engine,
# fault_path, txn_apply, wal_apply or plan_eval) and rewrites only its
# report, so a change to one kernel does not re-roll every other median.
#
# `scripts/bench.sh virtual` reruns only the overload, cluster_failover,
# scrub, reshard and fleet benches and fails if BENCH_overload.json,
# BENCH_cluster.json, BENCH_scrub.json, BENCH_reshard.json or
# BENCH_fleet.json then differs from the committed file. Those five
# reports are deterministic virtual-time model outputs, so a change that
# moves a trajectory must commit the regenerated report with it.
#
# Each report has the shape
#
#   { "benchmarks": { "<group>/<function>/<param>": <median ns/iter>, ... } }
#
# The vendored criterion stub writes the same estimates.json layout as the
# real crate (target/criterion/<id>/new/estimates.json with
# median.point_estimate in nanoseconds), so this script works with either.

set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = virtual ]; then
    for bench in overload cluster_failover scrub reshard fleet; do
        cargo bench -p xqib-bench --bench "$bench"
    done
    git diff --exit-code -- BENCH_overload.json BENCH_cluster.json BENCH_scrub.json \
        BENCH_reshard.json BENCH_fleet.json
    exit 0
fi

# Distils target/criterion into $1. The report dir must contain only the
# wanted bench's entries — callers clean it before each run.
harvest() {
    out=$1
    tmp="$out.tmp"
    {
        printf '{\n  "benchmarks": {\n'
        first=1
        # Sorted for a stable, diffable report.
        find target/criterion -name estimates.json -path '*/new/*' | sort | while read -r f; do
            id=${f#target/criterion/}
            id=${id%/new/estimates.json}
            median=$(sed -n 's/.*"median":{"point_estimate":\([0-9.eE+-]*\).*/\1/p' "$f")
            [ -n "$median" ] || continue
            if [ "$first" -eq 1 ]; then
                first=0
            else
                printf ',\n'
            fi
            printf '    "%s": %s' "$id" "$median"
        done
        printf '\n  }\n}\n'
    } > "$tmp"
    mv "$tmp" "$out"
    echo "wrote $out:"
    cat "$out"
}

# The criterion report each wall-clock bench writes.
report_of() {
    case $1 in
        micro_engine) echo BENCH_path_eval.json ;;
        fault_path) echo BENCH_fault_path.json ;;
        txn_apply) echo BENCH_txn_apply.json ;;
        wal_apply) echo BENCH_wal_apply.json ;;
        plan_eval) echo BENCH_plan_eval.json ;;
        *) return 1 ;;
    esac
}

# Runs one criterion bench into its report. Starts from a clean report
# dir so entries from earlier runs (or other bench binaries) cannot leak
# into the harvest.
run_criterion() {
    rm -rf target/criterion
    cargo bench -p xqib-bench --bench "$1"
    harvest "$(report_of "$1")"
}

if [ -n "${1:-}" ]; then
    if ! report_of "$1" > /dev/null; then
        echo "unknown bench: $1" >&2
        exit 2
    fi
    run_criterion "$1"
    exit 0
fi

for bench in micro_engine fault_path txn_apply wal_apply plan_eval; do
    run_criterion "$bench"
done

# The overload, cluster, scrub, fleet and reshard experiments measure
# virtual-time goodput/latency, not wall-clock ns/iter, so their binaries
# write BENCH_overload.json / BENCH_cluster.json / BENCH_scrub.json /
# BENCH_fleet.json / BENCH_reshard.json directly (no criterion harvest).
cargo bench -p xqib-bench --bench overload
cargo bench -p xqib-bench --bench cluster_failover
cargo bench -p xqib-bench --bench scrub
cargo bench -p xqib-bench --bench fleet
cargo bench -p xqib-bench --bench reshard
