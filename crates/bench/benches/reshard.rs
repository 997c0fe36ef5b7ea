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

use xqib_appserver::simulate::{run_sim, ClientSpec, SimConfig, SimReport};
use xqib_appserver::{Class, ClusterOutcome, TopologyChange};
use xqib_bench::write_report;

fn arm_config(seed: u64, topology: Vec<(u64, TopologyChange)>) -> SimConfig {
    let mut cfg = SimConfig::replicated(seed, 6_000);
    cfg.docs = SimConfig::root_docs(16);
    cfg.cluster.shards = 2;
    cfg.cluster.followers = 1;
    cfg.cluster.ack_replicas = 1;
    // routes are cached long enough that every cutover fence is hit by
    // at least one stale client before the periodic refresh catches up
    cfg.route_refresh_ms = 500;
    cfg.clients = vec![ClientSpec::updates(40), ClientSpec::doc_reads(40)];
    cfg.chaos.topology = topology;
    cfg
}

fn arm(r: &SimReport) -> Vec<(&'static str, u64)> {
    let reshard = &r.metrics.reshard;
    vec![
        ("issued_updates", r.class(Class::Update).issued),
        ("acked_updates", r.outcome(ClusterOutcome::AckedUpdate)),
        ("ack_latency_p50_ms", r.ack_latency(50)),
        ("ack_latency_p99_ms", r.ack_latency(99)),
        ("reroutes", r.reroutes),
        ("epoch_bumps", reshard.epoch_bumps),
        ("final_epoch", r.final_epoch),
        ("migrations_started", reshard.migrations_started),
        ("migrations_completed", reshard.migrations_completed),
        ("migrations_aborted", reshard.migrations_aborted),
        ("docs_moved", reshard.docs_moved),
        ("tail_frames_forwarded", reshard.tail_frames_forwarded),
        ("cutover_fences", reshard.cutover_fences),
        ("drains", reshard.drains),
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
        let (report, cluster) = run_sim(&cfg);
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
        assert!(
            report.outcome(ClusterOutcome::AckedUpdate) > 0,
            "{name}: no acked updates"
        );
        assert_eq!(
            report.metrics.reshard.epoch_bumps, changes,
            "{name}: wrong number of topology installs"
        );
        assert_eq!(
            cluster.migrations_in_flight(),
            0,
            "{name}: migrations left in flight"
        );
        if changes > 0 {
            assert!(
                report.metrics.reshard.docs_moved > 0,
                "{name}: nothing migrated"
            );
            assert_eq!(
                report.outcome(ClusterOutcome::Misrouted),
                0,
                "{name}: a fence was hit but never chased"
            );
        }
        arms.push((name, arm(&report)));
    }

    write_report("BENCH_reshard.json", "reshard", &arms);
}
