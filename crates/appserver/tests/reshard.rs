//! Online membership & live resharding chaos suite: random topology
//! schedules (grow, decommission, rebalance) × link faults × partitions ×
//! leader crashes, with *stale* client routing so every cutover fence is
//! actually hit. The contracts:
//!
//! 1. **Zero acked-update loss** — every update answered 200 is present in
//!    its owning shard's state after the run settles, and still after one
//!    more forced failover per surviving shard;
//! 2. **Epoch-fenced single ownership** — within one topology epoch, no
//!    two shards ever both accept updates for the same document, across
//!    any interleaving of migration, crash, partition and re-route;
//! 3. **Conservation** — every arrival is counted exactly once, with one
//!    latency sample per delivered response;
//! 4. **Determinism** — identical seeds give bit-identical reports;
//! 5. **Ring quality** — the consistent-hash ring balances load within a
//!    bounded factor and adding one shard moves only ~1/N of the keys.
//!
//! Deterministic CI matrix hook: `XQIB_RESHARD_SEED` is mixed into every
//! generated seed so each matrix entry explores a different region of the
//! topology × fault space while any failure stays reproducible.

use proptest::prelude::*;
use xqib_appserver::simulate::{run_sim, ClientSpec, SimConfig, SimReport};
use xqib_appserver::{Cluster, ClusterOutcome, Router, TopologyChange};
use xqib_browser::FaultPlan;

fn env_seed() -> u64 {
    std::env::var("XQIB_RESHARD_SEED")
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

/// A random resharding chaos scenario: a topology-change schedule layered
/// on top of net faults, partitions and leader crashes, with clients that
/// cache routes long enough to hit the fences.
fn reshard_scenario(seed: u64) -> SimConfig {
    let seed = mix(seed, env_seed());
    let mut cfg = SimConfig::replicated(seed, 1_500 + mix(seed, 1) % 800);
    cfg.docs = SimConfig::root_docs(12);
    cfg.cluster.shards = 2 + (mix(seed, 2) % 2) as usize;
    cfg.cluster.followers = (mix(seed, 3) % 3) as usize;
    cfg.cluster.ack_replicas = if cfg.cluster.followers == 0 {
        0
    } else {
        1 + (mix(seed, 4) % cfg.cluster.followers as u64) as usize
    };
    // stale routing: owners are cached across topology changes, so moved
    // documents force 421 fence hits and client re-resolution
    cfg.route_refresh_ms = 150 + mix(seed, 5) % 450;
    cfg.cluster.ship_truncate_permille = (mix(seed, 6) % 150) as u16;
    if mix(seed, 7).is_multiple_of(2) {
        cfg.cluster.repl_fault = Some(
            FaultPlan::seeded(0)
                .with_reply_lost_permille((mix(seed, 8) % 120) as u16)
                .with_truncate_permille((mix(seed, 9) % 80) as u16),
        );
    }
    // one to three topology changes, spread over the run
    let changes = 1 + mix(seed, 10) % 3;
    for k in 0..changes {
        let at = 200 + mix(seed, 11 + k) % (cfg.duration_ms - 300);
        let change = match mix(seed, 20 + k) % 4 {
            0 | 1 => TopologyChange::AddShard,
            2 => TopologyChange::Rebalance(mix(seed, 30 + k)),
            _ => TopologyChange::Decommission(
                (mix(seed, 40 + k) % cfg.cluster.shards as u64) as usize,
            ),
        };
        cfg.chaos.topology.push((at, change));
    }
    cfg.chaos.topology.sort_by_key(|(t, _)| *t);
    // a mid-run leader crash on some shards, composing with migrations
    for s in 0..cfg.cluster.shards {
        if !mix(seed, 50 + s as u64).is_multiple_of(3) {
            let at = 200 + mix(seed, 60 + s as u64) % (cfg.duration_ms - 300);
            cfg.chaos.leader_crashes.push((at, s));
        }
    }
    // a transient partition on one follower link per shard
    for s in 0..cfg.cluster.shards {
        if cfg.cluster.followers > 0 && mix(seed, 70 + s as u64).is_multiple_of(2) {
            let slot = 1 + (mix(seed, 80 + s as u64) % cfg.cluster.followers as u64) as usize;
            let from = mix(seed, 90 + s as u64) % cfg.duration_ms;
            let to = (from + 200 + mix(seed, 100 + s as u64) % 600).min(cfg.duration_ms);
            cfg.chaos.partitions.push((s, slot, from, to));
        }
    }
    cfg.clients = vec![
        ClientSpec::updates(30 + mix(seed, 110) % 40),
        ClientSpec::doc_reads(20 + mix(seed, 111) % 50),
    ];
    cfg
}

/// Runs a scenario and checks what every run must show: each arrival
/// counted once, every acked update present, one owner per document and
/// epoch, and every stale 421 chased to the fresh owner, never surfaced.
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
        "acked updates missing after resharding: {cfg:?}"
    );
    assert_eq!(
        report.dual_owner_violations(),
        Vec::<String>::new(),
        "two shards accepted updates for one document in one epoch: {cfg:?}"
    );
    assert_eq!(report.outcome(ClusterOutcome::Misrouted), 0, "{cfg:?}");
    (report, cluster)
}

proptest! {
    /// The headline tentpole invariant: random topology schedules compose
    /// with faults, partitions and concurrent failover, and still (a) no
    /// acked update is ever lost — at settle time and after one more
    /// forced failover round — and (b) no two shards ever both accept
    /// updates for one document within one topology epoch.
    #[test]
    fn resharding_loses_no_acked_update_and_never_dual_owns(case_seed in 0u64..1u64 << 48) {
        let cfg = reshard_scenario(case_seed);
        let (report, mut cluster) = run_checked(&cfg);
        prop_assert!(
            report.metrics.reshard.epoch_bumps >= 1,
            "no topology change applied: {:?}",
            cfg
        );
        // torment round: crash every surviving leader, re-elect, re-verify
        let mut now = cfg.duration_ms + 10_000;
        for s in 0..cluster.shard_count() {
            if cluster.has_leader(s) {
                cluster.crash_leader(s, now);
            }
        }
        let (settled, _) = cluster.quiesce(now);
        now = settled;
        for s in 0..cluster.shard_count() {
            if cluster.is_retired(s) {
                continue;
            }
            prop_assert!(
                cluster.has_leader(s),
                "shard {} failed to re-elect by {}ms ({:?})", s, now, cfg
            );
        }
        prop_assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "resharding + extra failover round lost acked updates: {:?}",
            cfg
        );
    }

    /// Bit-identical determinism with the whole resharding machinery on:
    /// counters, ledger, epochs, reroutes — a pure function of the config.
    #[test]
    fn reshard_reports_are_bit_identical_per_seed(case_seed in 0u64..1u64 << 48) {
        let cfg = reshard_scenario(case_seed);
        let (a, _) = run_checked(&cfg);
        let (b, _) = run_sim(&cfg);
        prop_assert_eq!(a, b);
    }

    /// Ring-balance property (satellite): over random seeds and shard
    /// counts, the ring spreads 1k URIs within a 3× max/min load factor,
    /// and growing the ring by one shard moves at most ~(1/N + slack) of
    /// the keys — every moved key landing on the joining shard.
    #[test]
    fn ring_balances_load_and_adding_a_shard_moves_few_keys(
        seed in 0u64..u64::MAX,
        n in 2usize..9,
    ) {
        let uris: Vec<String> = (0..1_000).map(|i| format!("doc-{i}.xml")).collect();
        let r = Router::new(n, seed);
        let mut counts = vec![0u64; n];
        for u in &uris {
            counts[r.owner(u)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(min > 0, "a shard got no load at all: {:?}", counts);
        prop_assert!(max <= 3 * min, "imbalance beyond 3x: {:?}", counts);
        // minimal disruption: grow by one member, count moved keys
        let members: Vec<usize> = (0..=n).collect();
        let grown = Router::with_members(&members, seed);
        let moved = uris
            .iter()
            .filter(|u| grown.owner(u) != r.owner(u))
            .count();
        let bound = 1_000 / (n + 1) + 150;
        prop_assert!(
            moved <= bound,
            "adding one shard moved {} of 1000 keys (bound {})", moved, bound
        );
        for u in &uris {
            if grown.owner(u) != r.owner(u) {
                prop_assert_eq!(grown.owner(u), n, "moved keys must land on the joiner");
            }
        }
    }
}

/// Scripted fence regression: clients that never refresh their routes hit
/// the old owner of every migrated document, get 421 + the new epoch, and
/// retry against the fresh owner — no surfaced errors, no lost acks.
#[test]
fn stale_clients_chase_fences_across_a_mid_run_grow_and_rebalance() {
    let mut cfg = SimConfig::replicated(mix(4242, env_seed()), 2_400);
    cfg.docs = SimConfig::root_docs(12);
    cfg.cluster.shards = 2;
    cfg.cluster.followers = 1;
    cfg.cluster.ack_replicas = 1;
    cfg.route_refresh_ms = 1_000_000; // cache forever: only 421s re-resolve
    cfg.chaos.topology = vec![
        (600, TopologyChange::AddShard),
        (1_500, TopologyChange::Rebalance(3)),
    ];
    cfg.clients = vec![ClientSpec::updates(60), ClientSpec::doc_reads(60)];
    let (report, cluster) = run_checked(&cfg);
    assert!(report.outcome(ClusterOutcome::AckedUpdate) > 0);
    let reshard = &report.metrics.reshard;
    assert_eq!(reshard.epoch_bumps, 2);
    assert!(
        reshard.docs_moved > 0,
        "grow + rebalance moved nothing: {reshard:?}"
    );
    assert!(
        report.reroutes > 0,
        "stale clients never hit a fence: {:?}",
        report
    );
    assert_eq!(cluster.migrations_in_flight(), 0);
    assert_eq!(report.final_epoch, cluster.epoch());
}

/// Scripted decommission regression: a shard leaves mid-run while updates
/// keep flowing; it drains, retires, and every acked update survives on
/// the remaining shards.
#[test]
fn mid_run_decommission_drains_and_keeps_every_acked_update() {
    let mut cfg = SimConfig::replicated(mix(99, env_seed()), 2_400);
    cfg.docs = SimConfig::root_docs(12);
    cfg.cluster.shards = 3;
    cfg.cluster.followers = 1;
    cfg.cluster.ack_replicas = 1;
    cfg.route_refresh_ms = 300;
    cfg.chaos.topology = vec![(700, TopologyChange::Decommission(1))];
    cfg.clients[0] = ClientSpec::updates(50);
    let (report, cluster) = run_checked(&cfg);
    assert!(report.outcome(ClusterOutcome::AckedUpdate) > 0);
    assert!(
        cluster.is_retired(1),
        "the decommissioned shard must retire"
    );
    assert_eq!(report.metrics.reshard.drains, 1);
    assert!(report.metrics.reshard.docs_moved > 0);
    for (uri, _) in &cfg.docs {
        assert_ne!(
            cluster.owner(uri),
            1,
            "a document is still routed to the retired shard"
        );
    }
}
