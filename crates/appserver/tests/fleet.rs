//! The closed-loop browser fleet, end to end: real `Plugin` clients as
//! `run_sim` clients, sharing one virtual timeline with the replicated
//! cluster, running the paper's §6 scenarios while net faults, disk
//! faults, partitions and leader crashes play out underneath.
//!
//! The invariants under test:
//! - **no acked cart op is ever lost**: every update the cluster acked, a
//!   cart page's included, survives failover (the run's update ledger);
//! - **exactly one observable outcome per fetch**: completions + stale
//!   events + error events == `behind` calls, per browser;
//! - **degraded renders converge**: once chaos clears, every Elsevier
//!   render and mash-up city count matches the reference;
//! - **every request is counted once** (`conservation_violations`);
//! - **bit-identical determinism**: same config ⇒ same `SimReport`;
//! - **browsers overlap**: one browser's pending update does not hold
//!   another's back.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use xqib_appserver::cluster::Submitted;
use xqib_appserver::fleet::{fleet_docs, Scenario};
use xqib_appserver::simulate::{run_sim, SimConfig, SimReport};
use xqib_appserver::Cluster;

/// Deterministic CI matrix hook: `XQIB_FLEET_SEED` is mixed into every
/// fleet seed, so the same suite explores different chaos schedules per
/// job (same convention as `XQIB_FAULT_SEED` in crates/core).
fn env_seed() -> u64 {
    std::env::var("XQIB_FLEET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The invariants every fleet run must hold.
fn assert_invariants(report: &SimReport, cluster: &Cluster) {
    assert_eq!(report.missing_acked_updates(cluster), Vec::<String>::new());
    assert_eq!(report.outcome_mismatches(), Vec::<usize>::new());
    assert_eq!(report.unconverged(), Vec::<usize>::new());
    assert_eq!(report.conservation_violations(), Vec::<String>::new());
}

#[test]
fn quiet_fleet_offloads_and_converges() {
    let (report, cluster) = run_sim(&SimConfig::fleet(1 ^ env_seed()));
    assert_invariants(&report, &cluster);
    let t = &report.metrics.fleet;
    assert_eq!(t.clients, 8);
    assert_eq!(t.stale_events, 0, "no chaos, no degradation");
    assert_eq!(t.error_events, 0);
    assert_eq!(t.timeouts, 0);

    // §6.1: repeat visits to the same whole document are answered from
    // the client cache — the origin sees a fraction of the fetches
    assert!(
        t.origin_requests < t.behind_calls,
        "whole-document caching must offload the origin ({} origin vs {} fetches)",
        t.origin_requests,
        t.behind_calls
    );
    assert!(
        t.cache_hit_permille > 0,
        "offload ratio must be visible in the stats"
    );

    // every cart op was acked, as the page saw it and as the cluster did
    for c in report
        .browsers
        .iter()
        .filter(|c| c.scenario == Scenario::Cart)
    {
        assert!(c.stats.interactions >= 3, "client {c:?} barely ran");
        assert_eq!(
            c.acked, c.stats.interactions,
            "client {} lost cart acks",
            c.id
        );
    }
    // the mash-up's JS listener drew one map per click (the convergence
    // fetch clicks nothing)
    for c in report
        .browsers
        .iter()
        .filter(|c| c.scenario == Scenario::Mashup)
    {
        assert_eq!(c.maps, c.stats.interactions - 1, "client {}", c.id);
    }
    let carts = report
        .browsers
        .iter()
        .filter(|c| c.scenario == Scenario::Cart);
    let ops: u64 = carts.map(|c| c.stats.interactions).sum();
    assert_eq!(report.updates.len() as u64, ops, "one update per cart op");
    assert!(report.updates.iter().all(|u| u.ack_latency.is_some()));
}

#[test]
fn chaotic_fleet_holds_the_invariants() {
    let (report, cluster) = run_sim(&SimConfig::chaotic_fleet(7 ^ env_seed()));
    // headline invariants: durability of acks, exactly-one-outcome,
    // post-recovery convergence — under the full chaos menu
    assert_invariants(&report, &cluster);
    assert!(
        report.updates.iter().any(|u| u.ack_latency.is_some()),
        "cart ops must ack through the chaos"
    );

    // the chaos actually happened: both scheduled leader crashes promote
    let m = &report.metrics;
    assert!(
        m.replication.failovers >= 2,
        "scheduled leader crashes must fail over (saw {})",
        m.replication.failovers
    );
    assert!(m.replication.blackout_ms > 0);
    // lossy links put the retry machinery to work
    assert!(m.fleet.retries > 0, "chaos run exercised no retries");
}

#[test]
fn identical_seeds_produce_bit_identical_reports() {
    let cfg = SimConfig::chaotic_fleet(3 ^ env_seed());
    let (a, _) = run_sim(&cfg);
    let (b, _) = run_sim(&cfg);
    assert_eq!(a, b, "same config must yield a bit-identical SimReport");
}

#[test]
fn fleet_counters_surface_on_the_metrics_route() {
    let (report, mut cluster) = run_sim(&SimConfig::fleet(5 ^ env_seed()));
    let end = report.browsers.iter().map(|b| b.finished_at).max().unwrap();
    let done = match cluster.submit("/metrics", end + 1) {
        Submitted::Done(d) => d,
        Submitted::Pending(_) => panic!("metrics cannot pend"),
    };
    assert_eq!(done.response.status, 200);
    let body = &done.response.body;
    let t = &report.metrics.fleet;
    let expect = format!("<fleet-clients>{}</fleet-clients>", t.clients);
    assert!(body.contains(&expect), "metrics missing {expect}: {body}");
    assert!(
        body.contains(&format!(
            "<fleet-cache-hit-permille>{}</fleet-cache-hit-permille>",
            t.cache_hit_permille
        )),
        "metrics missing the offload ratio: {body}"
    );
    assert!(body.contains("<fleet-behind-calls>"));
}

/// Two cart browsers whose acks wait out a partition of every follower
/// link: while one browser's update pends, the other's turn still comes,
/// so their submit→ack intervals overlap in virtual time, and both ack.
#[test]
fn two_pending_cart_updates_overlap_and_both_ack() {
    let mut cfg = SimConfig::fleet(9 ^ env_seed());
    cfg.browsers = vec![Scenario::Cart, Scenario::Cart];
    cfg.docs = fleet_docs(&cfg.browsers);
    cfg.duration_ms = 2_000;
    cfg.cluster.ack_timeout_ms = 5_000;
    cfg.chaos.partitions = vec![(0, 1, 0, 500), (1, 1, 0, 500)];
    let (report, cluster) = run_sim(&cfg);
    assert_invariants(&report, &cluster);
    let acked = |cart: usize| -> Vec<(u64, u64)> {
        let prefix = format!("c{cart}op");
        let ops = report
            .updates
            .iter()
            .filter(|u| u.marker.starts_with(&prefix));
        ops.map(|u| (u.arrival, u.arrival + u.ack_latency.expect("every op acks")))
            .collect()
    };
    let (a, b) = (acked(0), acked(1));
    assert!(a.len() >= 3 && b.len() >= 3, "{a:?} {b:?}");
    assert!(
        a.iter()
            .any(|&(a0, a1)| b.iter().any(|&(b0, b1)| a0 < b1 && b0 < a1)),
        "no two updates pended at once: {a:?} {b:?}"
    );
}

/// A small chaotic fleet for the property test: the full fault menu but
/// few browsers, so each case stays fast.
fn small_chaotic(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::chaotic_fleet(seed);
    use Scenario::{Cart, Elsevier, ElsevierNoCache, Mashup};
    cfg.browsers = vec![Elsevier, ElsevierNoCache, Mashup, Cart, Cart];
    cfg.docs = fleet_docs(&cfg.browsers);
    cfg.duration_ms = 600;
    cfg
}

proptest! {
    /// Across random chaos schedules: an acked cart op is never lost,
    /// every `behind` fetch yields exactly one observable outcome, every
    /// request is counted once, and a re-run of the same seed is
    /// bit-identical.
    #[test]
    fn prop_fleet_invariants_hold_under_random_chaos(seed in 0u64..10_000) {
        let cfg = small_chaotic(seed ^ env_seed());
        let (report, cluster) = run_sim(&cfg);
        prop_assert_eq!(report.missing_acked_updates(&cluster), Vec::<String>::new());
        prop_assert_eq!(report.outcome_mismatches(), Vec::<usize>::new());
        prop_assert_eq!(report.conservation_violations(), Vec::<String>::new());
        let (again, _cluster) = run_sim(&cfg);
        prop_assert_eq!(report, again);
    }
}
