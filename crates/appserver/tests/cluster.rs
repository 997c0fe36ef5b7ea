//! Cluster chaos property tests: random topologies × random partitions ×
//! random leader-crash schedules × random link faults, all on virtual
//! time. The contracts:
//!
//! 1. **No acked update is ever lost** — every update the cluster answered
//!    with 200 (the replication ack rule held) is present in its owning
//!    shard's state at the end of the run, *and* still present after every
//!    remaining leader is crashed and failed over once more;
//! 2. **No shard serves a document it doesn't own** — direct requests to
//!    the wrong shard are refused with 421, and the routed path never
//!    produces a misroute;
//! 3. **Conservation** — every arrival is counted exactly once, with one
//!    latency sample per delivered response;
//! 4. **Determinism** — identical seeds give bit-identical reports.
//!
//! Deterministic CI matrix hook: `XQIB_CLUSTER_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! topology × partition × crash space while any failure stays
//! reproducible.

use proptest::prelude::*;
use xqib_appserver::simulate::{run_sim, ClientSpec, SimConfig, SimReport};
use xqib_appserver::{Cluster, ClusterOutcome, Submitted};
use xqib_browser::FaultPlan;
use xqib_storage::StorageFaultPlan;

fn env_seed() -> u64 {
    std::env::var("XQIB_CLUSTER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Scrub-chaos matrix axis: like `XQIB_CLUSTER_SEED`, but reserved for the
/// latent-decay scenarios so the two matrices explore independent regions.
fn scrub_env_seed() -> u64 {
    std::env::var("XQIB_SCRUB_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// A random chaos scenario derived from one seed: topology, faults,
/// partitions and crash times all follow from it.
fn scenario(seed: u64) -> SimConfig {
    let seed = mix(seed, env_seed());
    let mut cfg = SimConfig::replicated(seed, 1_200 + mix(seed, 1) % 800);
    cfg.cluster.shards = 1 + (mix(seed, 2) % 2) as usize;
    cfg.cluster.followers = (mix(seed, 3) % 3) as usize;
    cfg.cluster.ack_replicas = if cfg.cluster.followers == 0 {
        0
    } else {
        1 + (mix(seed, 4) % cfg.cluster.followers as u64) as usize
    };
    cfg.cluster.ship_truncate_permille = (mix(seed, 5) % 200) as u16;
    if mix(seed, 6).is_multiple_of(2) {
        cfg.cluster.repl_fault = Some(
            FaultPlan::seeded(0)
                .with_reply_lost_permille((mix(seed, 7) % 150) as u16)
                .with_truncate_permille((mix(seed, 8) % 100) as u16),
        );
    }
    // one leader crash per shard, somewhere mid-run
    for s in 0..cfg.cluster.shards {
        if !mix(seed, 9 + s as u64).is_multiple_of(3) {
            let at = 200 + mix(seed, 20 + s as u64) % (cfg.duration_ms - 300);
            cfg.chaos.leader_crashes.push((at, s));
        }
    }
    // a transient partition on one follower link per shard
    for s in 0..cfg.cluster.shards {
        if cfg.cluster.followers > 0 && mix(seed, 30 + s as u64).is_multiple_of(2) {
            let slot = 1 + (mix(seed, 40 + s as u64) % cfg.cluster.followers as u64) as usize;
            let from = mix(seed, 50 + s as u64) % cfg.duration_ms;
            let to = (from + 200 + mix(seed, 60 + s as u64) % 600).min(cfg.duration_ms);
            cfg.chaos.partitions.push((s, slot, from, to));
        }
    }
    cfg.clients = vec![
        ClientSpec::updates(20 + mix(seed, 70) % 40),
        ClientSpec::doc_reads(20 + mix(seed, 71) % 60),
    ];
    cfg
}

/// The full integrity composition: the base chaos scenario (net faults,
/// partitions, leader crashes) plus silent bit rot on every seat disk.
fn scrub_scenario(seed: u64) -> SimConfig {
    let seed = mix(seed, scrub_env_seed());
    let mut cfg = scenario(seed);
    // silent rot on a replication-factor-1 shard is unrecoverable by
    // construction (no surviving copy to repair from once the leader
    // crashes) — the integrity contract is about the replicated tier, so
    // the decay scenarios always carry at least one follower
    if cfg.cluster.followers == 0 {
        cfg.cluster.followers = 1;
        cfg.cluster.ack_replicas = 1;
    }
    cfg.cluster.disk_fault = Some(
        StorageFaultPlan::seeded(mix(seed, 90))
            .with_decay_permille(1 + (mix(seed, 91) % 3) as u16)
            .with_decay_period_ms(40 + mix(seed, 92) % 120),
    );
    cfg
}

/// Runs a scenario and checks what every run must show: each arrival
/// counted once, every acked update present, no 421 left standing.
fn run_checked(cfg: &SimConfig) -> (SimReport, Cluster) {
    let (report, cluster) = run_sim(cfg);
    assert_eq!(
        report.conservation_violations(),
        Vec::<String>::new(),
        "{cfg:?}"
    );
    assert_eq!(
        report.missing_acked_updates(&cluster),
        Vec::<String>::new(),
        "acked updates missing after the run: {cfg:?}"
    );
    assert_eq!(report.outcome(ClusterOutcome::Misrouted), 0, "{cfg:?}");
    (report, cluster)
}

proptest! {
    /// The headline invariant, end to end: run the chaos scenario, then
    /// verify the acked-update ledger against live state; then crash every
    /// surviving leader once more, let failover settle, and verify again.
    #[test]
    fn no_acked_update_is_ever_lost_across_failovers(case_seed in 0u64..1u64 << 48) {
        let cfg = scenario(case_seed);
        let (report, mut cluster) = run_checked(&cfg);
        // torment round: kill every leader again, failover, re-verify
        let mut now = cfg.duration_ms + 10_000;
        for s in 0..cluster.shard_count() {
            if cluster.has_leader(s) {
                cluster.crash_leader(s, now);
            }
        }
        let (settled, _) = cluster.quiesce(now);
        now = settled;
        for s in 0..cluster.shard_count() {
            prop_assert!(
                cluster.has_leader(s),
                "shard {} failed to re-elect by {}ms ({:?})", s, now, cfg
            );
        }
        prop_assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "acked updates missing after the extra failover round: {:?}",
            cfg
        );
    }

    /// Ownership enforcement: every shard refuses documents it does not
    /// own with 421, for reads and updates alike.
    #[test]
    fn no_shard_serves_a_document_it_does_not_own(case_seed in 0u64..1u64 << 48) {
        let mut cfg = scenario(case_seed);
        cfg.cluster.shards = 2 + (mix(case_seed, 80) % 3) as usize;
        cfg.duration_ms = 200; // topology is what matters here
        cfg.chaos.leader_crashes.clear();
        let (_, mut cluster) = run_checked(&cfg);
        for (uri, _) in &cfg.docs {
            let owner = cluster.owner(uri);
            let wrong = (owner + 1) % cluster.shard_count();
            for url in [
                format!("/doc?uri={uri}"),
                format!("/update?xq=insert node <evil/> into doc(\"{uri}\")/*"),
            ] {
                match cluster.serve_at(wrong, &url, 1_000_000) {
                    Submitted::Done(done) => {
                        prop_assert_eq!(done.response.status, 421, "{}", url);
                        prop_assert_eq!(done.outcome, ClusterOutcome::Misrouted);
                    }
                    Submitted::Pending(_) => prop_assert!(false, "misroute cannot pend"),
                }
            }
            // and the effect really is absent: the wrongly-targeted update
            // never reached any shard's state
            prop_assert!(!cluster.contains(uri, "evil"));
        }
    }

    /// Bit-identical determinism: the whole report — counters, ledger,
    /// latency percentiles, replication stats — is a pure function of the
    /// config.
    #[test]
    fn identical_seeds_give_bit_identical_reports(case_seed in 0u64..1u64 << 48) {
        let cfg = scenario(case_seed);
        let (a, _) = run_checked(&cfg);
        let (b, _) = run_sim(&cfg);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    /// Tentpole chaos composition: latent decay on every disk, on top of
    /// link faults, partitions and leader crashes. No acked update may be
    /// lost — not at the end of the run and not after one more forced
    /// failover per shard — and every detected mid-prefix corruption must
    /// be answered with a repair (follower re-checkpoint / resync) or an
    /// escalation (leader demotion), never merely logged.
    #[test]
    fn latent_decay_is_scrubbed_without_losing_acked_updates(case_seed in 0u64..1u64 << 48) {
        let cfg = scrub_scenario(case_seed);
        let (report, mut cluster) = run_checked(&cfg);
        // the decay schedule really ticked and the scrubber really looked
        let integrity = &report.metrics.integrity;
        prop_assert!(integrity.decay_sweeps > 0, "decay never ran");
        prop_assert!(integrity.scrub_cycles > 0, "scrubber never ran");
        // with followers present, detected WAL rot always has a consequence:
        // follower rot starts a repair, leader rot forces a demotion
        if cfg.cluster.followers > 0 && integrity.scrub_wal_corruptions > 0 {
            prop_assert!(
                integrity.repairs_started + integrity.leader_demotions > 0,
                "mid-prefix rot detected but never repaired or escalated: {:?}",
                integrity
            );
        }
        // torment round: promotion under decay must still pick verified
        // candidates and keep the ledger intact
        let mut now = cfg.duration_ms + 10_000;
        for s in 0..cluster.shard_count() {
            if cluster.has_leader(s) {
                cluster.crash_leader(s, now);
            }
        }
        let (settled, _) = cluster.quiesce(now);
        now = settled;
        for s in 0..cluster.shard_count() {
            prop_assert!(
                cluster.has_leader(s),
                "shard {} failed to re-elect by {}ms under decay ({:?})", s, now, cfg
            );
        }
        prop_assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "decay + extra failover round lost acked updates: {:?}",
            cfg
        );
    }

    /// Determinism with the whole integrity machinery on: the report —
    /// including every scrub/repair/decay counter — is a pure function of
    /// the config, bit for bit.
    #[test]
    fn scrub_reports_are_bit_identical_per_seed(case_seed in 0u64..1u64 << 48) {
        let cfg = scrub_scenario(case_seed);
        let (a, _) = run_checked(&cfg);
        let (b, _) = run_sim(&cfg);
        prop_assert_eq!(a, b);
    }
}

/// Satellite regression: a follower partitioned long enough to fall past
/// the leader's WAL-truncation horizon resyncs via the checkpoint-snapshot
/// path mid-run; the leader then crashes twice, so the second promotion
/// can land on the very seat that was snapshot-resynced. No acked update
/// may be lost at any step.
#[test]
fn double_failover_after_a_snapshot_resync_past_the_truncation_horizon() {
    let mut cfg = SimConfig::replicated(mix(171, env_seed()), 2_400);
    cfg.cluster.shards = 1;
    cfg.cluster.followers = 2;
    cfg.cluster.ack_replicas = 1;
    // aggressive checkpointing on every seat keeps the durable logs
    // short, so the healed straggler finds a gap and must take the
    // snapshot path
    cfg.cluster.durability.checkpoint_threshold = 96;
    cfg.chaos.partitions = vec![(0, 2, 200, 1_200)];
    cfg.chaos.leader_crashes = vec![(1_600, 0)];
    cfg.clients[0] = ClientSpec::updates(60);
    let (report, mut cluster) = run_checked(&cfg);
    assert!(report.outcome(ClusterOutcome::AckedUpdate) > 0);
    let repl = &report.metrics.replication;
    assert!(
        repl.snapshots_shipped > 0,
        "the healed straggler must resync via snapshot: {repl:?}"
    );
    assert_eq!(repl.failovers, 1);
    // second failover: the promoted leader (possibly the resynced seat)
    // dies too, past the first leader's truncation horizon
    cluster.crash_leader(0, 60_000);
    let (_, _) = cluster.quiesce(60_000);
    assert!(cluster.has_leader(0));
    assert_eq!(cluster.stats().failovers, 2);
    assert_eq!(
        report.missing_acked_updates(&cluster),
        Vec::<String>::new(),
        "the second failover must keep every update acked before the first"
    );
}

/// Scripted (non-random) regression: a double failover with a partition
/// that forces the second promotion to wait, exercising probe retries and
/// the quorum-intersection argument.
#[test]
fn scripted_double_failover_with_partition_keeps_acked_updates() {
    let mut cfg = SimConfig::replicated(mix(77, env_seed()), 2_000);
    cfg.cluster.shards = 1;
    cfg.cluster.followers = 2;
    cfg.cluster.ack_replicas = 1;
    cfg.chaos.leader_crashes = vec![(800, 0)];
    cfg.chaos.partitions = vec![(0, 2, 700, 1_300)];
    let (report, mut cluster) = run_checked(&cfg);
    assert!(report.outcome(ClusterOutcome::AckedUpdate) > 0);
    assert_eq!(report.metrics.replication.failovers, 1);
    // second failover, after the partition healed
    cluster.crash_leader(0, 50_000);
    let (_, _) = cluster.quiesce(50_000);
    assert!(cluster.has_leader(0));
    assert_eq!(
        report.missing_acked_updates(&cluster),
        Vec::<String>::new(),
        "second failover must keep every acked update"
    );
}
