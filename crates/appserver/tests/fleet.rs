//! The closed-loop browser-fleet chaos harness (ISSUE 8), end to end:
//! real `Plugin` clients sharing one virtual timeline with the replicated
//! cluster, running the paper's §6 scenarios while net faults, disk
//! faults, partitions and leader crashes play out underneath.
//!
//! The invariants under test:
//! - **no acked cart op is ever lost**: a readyState-4 completion on an
//!   `/update` means the op survives failover, always;
//! - **exactly one observable outcome per fetch**: completions + stale
//!   events + error events == `behind` calls, per client;
//! - **degraded renders converge**: once chaos clears, every Elsevier
//!   render and mash-up city count matches the reference;
//! - **bit-identical determinism**: same config ⇒ same `FleetReport`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use xqib_appserver::cluster::Submitted;
use xqib_appserver::fleet::{run_fleet, FleetConfig, Scenario};

/// Deterministic CI matrix hook: `XQIB_FLEET_SEED` is mixed into every
/// fleet seed, so the same suite explores different chaos schedules per
/// job (same convention as `XQIB_FAULT_SEED` in crates/core).
fn env_seed() -> u64 {
    std::env::var("XQIB_FLEET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn quiet_fleet_offloads_and_converges() {
    let cfg = FleetConfig::quiet(1 ^ env_seed());
    let (report, _cluster) = run_fleet(&cfg).unwrap();
    let t = &report.totals;

    assert!(report.converged, "healthy fleet must converge");
    assert_eq!(report.missing_acked, vec![]);
    assert_eq!(report.outcome_mismatches, vec![]);
    assert_eq!(
        t.completions + t.stale_events + t.error_events,
        t.behind_calls
    );
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

    // every cart op was acked durably
    for c in report
        .clients
        .iter()
        .filter(|c| c.scenario == Scenario::Cart)
    {
        assert_eq!(
            c.acked.len(),
            cfg.interactions_per_client,
            "client {} lost cart acks without chaos",
            c.id
        );
    }
}

#[test]
fn chaotic_fleet_holds_the_invariants() {
    let (report, _cluster) = run_fleet(&FleetConfig::chaotic(7 ^ env_seed())).unwrap();
    let t = &report.totals;

    // headline invariants: durability of acks, exactly-one-outcome,
    // post-recovery convergence — under the full chaos menu
    assert_eq!(report.missing_acked, vec![], "acked cart ops lost");
    assert_eq!(report.outcome_mismatches, vec![], "fetch outcome mismatch");
    assert!(report.converged, "degraded renders must converge");
    assert_eq!(
        t.completions + t.stale_events + t.error_events,
        t.behind_calls
    );

    // the chaos actually happened: both scheduled leader crashes promote
    assert!(
        report.replication.failovers >= 2,
        "scheduled leader crashes must fail over (saw {})",
        report.replication.failovers
    );
    assert!(report.replication.blackout_ms > 0);
    // lossy links put the retry machinery to work
    assert!(t.retries > 0, "chaos run exercised no retries");
}

#[test]
fn identical_seeds_produce_bit_identical_reports() {
    let cfg = FleetConfig::chaotic(3 ^ env_seed());
    let (a, _) = run_fleet(&cfg).unwrap();
    let (b, _) = run_fleet(&cfg).unwrap();
    assert_eq!(a, b, "same config must yield a bit-identical FleetReport");
}

#[test]
fn fleet_counters_surface_on_the_metrics_route() {
    let (report, mut cluster) = run_fleet(&FleetConfig::quiet(5 ^ env_seed())).unwrap();
    cluster.set_fleet_stats(&report.totals);
    let done = match cluster.submit("/metrics", report.duration_ms + 1) {
        Submitted::Done(d) => d,
        Submitted::Pending(_) => panic!("metrics cannot pend"),
    };
    assert_eq!(done.response.status, 200);
    let body = &done.response.body;
    let expect = format!("<fleet-clients>{}</fleet-clients>", report.totals.clients);
    assert!(body.contains(&expect), "metrics missing {expect}: {body}");
    assert!(
        body.contains(&format!(
            "<fleet-cache-hit-permille>{}</fleet-cache-hit-permille>",
            report.totals.cache_hit_permille
        )),
        "metrics missing the offload ratio: {body}"
    );
    assert!(body.contains("<fleet-behind-calls>"));
}

/// A small chaotic fleet for the property test: the full fault menu but
/// few clients, so each case stays fast.
fn small_chaotic(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::chaotic(seed);
    cfg.elsevier_clients = 1;
    cfg.elsevier_nocache_clients = 1;
    cfg.mashup_clients = 1;
    cfg.cart_clients = 2;
    cfg.interactions_per_client = 2;
    cfg
}

proptest! {
    /// Across random chaos schedules: an acked cart op is never lost,
    /// every `behind` fetch yields exactly one observable outcome, and a
    /// re-run of the same seed is bit-identical.
    #[test]
    fn prop_fleet_invariants_hold_under_random_chaos(seed in 0u64..10_000) {
        let cfg = small_chaotic(seed ^ env_seed());
        let (report, _cluster) = run_fleet(&cfg).unwrap();
        prop_assert_eq!(&report.missing_acked, &vec![]);
        prop_assert_eq!(&report.outcome_mismatches, &vec![]);
        let t = &report.totals;
        prop_assert_eq!(
            t.completions + t.stale_events + t.error_events,
            t.behind_calls
        );
        let (again, _cluster) = run_fleet(&cfg).unwrap();
        prop_assert_eq!(report, again);
    }
}
