//! Cluster failover experiment: the same steady update/read workload with
//! one mid-run leader crash, replayed against three deployments — leader
//! only (K=0), one follower (K=1, ack_replicas=1) and two followers (K=2,
//! ack_replicas=2) — in deterministic virtual time. As with the overload
//! experiment the interesting numbers (acked-update throughput, ack
//! latency, failover blackout) come out of the simulator itself, so the
//! binary writes `BENCH_cluster.json` directly.
//!
//! What the arms show: replication buys crash-survivable acks at the cost
//! of ack latency (each extra required replica adds a WAL-shipping round
//! trip), while the failover blackout stays bounded by the detection
//! window + probe/promotion time.

use xqib_appserver::simulate::{run_sim, SimConfig, SimReport};
use xqib_appserver::{Class, ClusterOutcome};
use xqib_bench::write_report;

fn arm_config(seed: u64, followers: usize) -> SimConfig {
    let mut cfg = SimConfig::replicated(seed, 6_000);
    cfg.cluster.shards = 1;
    cfg.cluster.followers = followers;
    cfg.cluster.ack_replicas = followers; // every follower must ack
    cfg.chaos.leader_crashes = vec![(2_000, 0)]; // one mid-run power loss
    cfg
}

fn arm(r: &SimReport, duration_ms: u64) -> Vec<(&'static str, u64)> {
    let acked = r.outcome(ClusterOutcome::AckedUpdate);
    let repl = &r.metrics.replication;
    vec![
        ("issued_updates", r.class(Class::Update).issued),
        ("acked_updates", acked),
        ("acked_rps", acked * 1_000 / duration_ms.max(1)),
        ("ack_latency_p50_ms", r.ack_latency(50)),
        ("ack_latency_p99_ms", r.ack_latency(99)),
        ("ack_timeouts", r.outcome(ClusterOutcome::AckTimeout)),
        (
            "lost_in_failover",
            r.outcome(ClusterOutcome::LostInFailover),
        ),
        ("no_leader", r.outcome(ClusterOutcome::NoLeader)),
        ("failovers", repl.failovers),
        ("blackout_ms", repl.blackout_ms),
        ("follower_reads", r.outcome(ClusterOutcome::FollowerRead)),
        ("degraded_reads", r.outcome(ClusterOutcome::DegradedRead)),
        ("frames_shipped", repl.frames_shipped),
        ("snapshots_shipped", repl.snapshots_shipped),
    ]
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0xC105;
    let duration = 6_000;
    let mut arms = Vec::new();
    for (name, followers) in [
        ("leader_only", 0),
        ("one_follower", 1),
        ("two_followers", 2),
    ] {
        let cfg = arm_config(seed, followers);
        let (report, cluster) = run_sim(&cfg);
        // the headline invariant must hold in the benchmarked runs too
        assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "{name}: acked updates lost"
        );
        assert!(
            report.outcome(ClusterOutcome::AckedUpdate) > 0,
            "{name}: no acked updates"
        );
        let repl = &report.metrics.replication;
        assert_eq!(repl.failovers, 1, "{name}: expected one failover");
        assert!(repl.blackout_ms > 0, "{name}: crash must cost a blackout");
        arms.push((name, arm(&report, duration)));
    }

    write_report("BENCH_cluster.json", "cluster_failover", &arms);
}
