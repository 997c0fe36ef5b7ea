//! Online resharding experiment: the same steady update/read workload on
//! a replicated 2-shard deployment, replayed with no topology change
//! (baseline), a mid-run grow, a grow + ring reseed, and a mid-run
//! decommission — all in deterministic virtual time. The interesting
//! numbers — what a live migration costs in acked-update latency, how
//! many stale-route requests hit the 421 cutover fences and were chased,
//! and how much data moved — come out of the simulator itself, so the
//! binary writes `BENCH_reshard.json` directly.
//!
//! What the arms show: resharding is paid for in fence-chases and a
//! bounded ack-latency delta, never in durability — no arm is allowed to
//! lose an acked update or let two shards accept updates for one
//! document in one epoch.

use xqib_appserver::simulate::{run_cluster_sim, ClusterReport, ClusterSimConfig};
use xqib_appserver::TopologyChange;
use xqib_bench::write_report;

fn arm_config(seed: u64, topology: Vec<(u64, TopologyChange)>) -> ClusterSimConfig {
    let mut cfg = ClusterSimConfig::steady(seed, 6_000);
    cfg.docs = 16;
    cfg.cluster.shards = 2;
    cfg.cluster.followers = 1;
    cfg.cluster.ack_replicas = 1;
    // routes are cached long enough that every cutover fence is hit by
    // at least one stale client before the periodic refresh catches up
    cfg.route_refresh_ms = 500;
    cfg.update_rps = 40;
    cfg.read_rps = 40;
    cfg.chaos.topology = topology;
    cfg
}

fn arm(r: &ClusterReport) -> Vec<(&'static str, u64)> {
    vec![
        ("issued_updates", r.issued_updates),
        ("acked_updates", r.acked_updates),
        ("ack_latency_p50_ms", r.ack_latency_p50),
        ("ack_latency_p99_ms", r.ack_latency_p99),
        // every fence a stale client hits is chased once by its route
        // cache, so the two columns agree by construction
        ("fence_refusals", r.reroutes),
        ("reroutes", r.reroutes),
        ("epoch_bumps", r.reshard.epoch_bumps),
        ("final_epoch", r.final_epoch),
        ("migrations_started", r.reshard.migrations_started),
        ("migrations_completed", r.reshard.migrations_completed),
        ("migrations_aborted", r.reshard.migrations_aborted),
        ("docs_moved", r.reshard.docs_moved),
        ("tail_frames_forwarded", r.reshard.tail_frames_forwarded),
        ("cutover_fences", r.reshard.cutover_fences),
        ("drains", r.reshard.drains),
    ]
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0x4E5A;
    let arms_spec: [(&str, Vec<(u64, TopologyChange)>); 4] = [
        ("quiet", vec![]),
        ("grow", vec![(2_000, TopologyChange::AddShard)]),
        (
            "grow_rebalance",
            vec![
                (2_000, TopologyChange::AddShard),
                (4_000, TopologyChange::Rebalance(7)),
            ],
        ),
        (
            "decommission",
            vec![(2_000, TopologyChange::Decommission(1))],
        ),
    ];

    let mut arms = Vec::new();
    for (name, topology) in arms_spec {
        let changes = topology.len() as u64;
        let cfg = arm_config(seed, topology);
        let (report, cluster) = run_cluster_sim(&cfg);
        // the headline invariants must hold in the benchmarked runs too
        assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "{name}: acked updates lost"
        );
        assert_eq!(
            report.dual_owner_violations(),
            Vec::<String>::new(),
            "{name}: dual ownership within an epoch"
        );
        assert!(report.acked_updates > 0, "{name}: no acked updates");
        assert_eq!(
            report.reshard.epoch_bumps, changes,
            "{name}: wrong number of topology installs"
        );
        assert_eq!(
            cluster.migrations_in_flight(),
            0,
            "{name}: migrations left in flight"
        );
        if changes > 0 {
            assert!(report.reshard.docs_moved > 0, "{name}: nothing migrated");
            assert_eq!(
                report.misrouted, 0,
                "{name}: a fence was hit but never chased"
            );
        }
        arms.push((name, arm(&report)));
    }

    write_report("BENCH_reshard.json", "reshard", &arms);
}
