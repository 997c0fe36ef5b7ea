//! Anti-entropy scrubbing experiment: the same steady update/read workload
//! with one mid-run leader crash, replayed across rising latent-decay
//! intensities (no rot, mild rot, heavy rot) on a 1-shard/2-follower
//! deployment, in deterministic virtual time. The interesting numbers —
//! how much corruption landed, how much the scrubber caught and repaired,
//! how often reads had to be refused, and whether any acked update was
//! lost — come out of the simulator itself, so the binary writes
//! `BENCH_scrub.json` directly.
//!
//! What the arms show: detection and repair scale with the rot rate while
//! the durability invariant stays flat — no arm is allowed to lose an
//! acked update, whatever the decay intensity.

use xqib_appserver::simulate::{run_sim, SimConfig, SimReport};
use xqib_appserver::{Class, ClusterOutcome};
use xqib_bench::write_report;
use xqib_storage::StorageFaultPlan;

fn arm_config(seed: u64, decay_permille: u16) -> SimConfig {
    let mut cfg = SimConfig::replicated(seed, 6_000);
    cfg.cluster.shards = 1;
    cfg.cluster.followers = 2;
    cfg.cluster.ack_replicas = 1;
    cfg.chaos.leader_crashes = vec![(2_000, 0)]; // one mid-run power loss
    if decay_permille > 0 {
        cfg.cluster.disk_fault = Some(
            StorageFaultPlan::seeded(seed ^ 0x5C2B)
                .with_decay_permille(decay_permille)
                .with_decay_period_ms(100),
        );
    }
    cfg
}

fn arm(r: &SimReport) -> Vec<(&'static str, u64)> {
    let i = &r.metrics.integrity;
    vec![
        ("issued_updates", r.class(Class::Update).issued),
        ("acked_updates", r.outcome(ClusterOutcome::AckedUpdate)),
        (
            "lost_in_failover",
            r.outcome(ClusterOutcome::LostInFailover),
        ),
        ("failovers", r.metrics.replication.failovers),
        ("decay_sweeps", i.decay_sweeps),
        ("sectors_decayed", i.sectors_decayed),
        ("scrub_cycles", i.scrub_cycles),
        ("scrub_docs_checked", i.scrub_docs_checked),
        ("scrub_wal_corruptions", i.scrub_wal_corruptions),
        ("scrub_ckpt_corruptions", i.scrub_ckpt_corruptions),
        ("scrub_digest_mismatches", i.scrub_digest_mismatches),
        ("quarantines", i.quarantines),
        ("repairs_started", i.repairs_started),
        ("repairs_verified", i.repairs_verified),
        ("leader_demotions", i.leader_demotions),
        ("promote_heals", i.promote_heals),
        ("reads_verified", i.reads_verified),
        ("reads_refused", i.reads_refused),
    ]
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0x5C2B;
    let mut arms = Vec::new();
    for (name, decay_permille) in [("no_rot", 0u16), ("mild_rot", 5), ("heavy_rot", 40)] {
        let cfg = arm_config(seed, decay_permille);
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
        let integrity = &report.metrics.integrity;
        assert!(integrity.scrub_cycles > 0, "{name}: scrubber idle");
        if decay_permille == 0 {
            assert_eq!(integrity.sectors_decayed, 0, "rot without a plan");
        } else {
            assert!(integrity.decay_sweeps > 0, "{name}: decay idle");
        }
        arms.push((name, arm(&report)));
    }

    write_report("BENCH_scrub.json", "scrub", &arms);
}
