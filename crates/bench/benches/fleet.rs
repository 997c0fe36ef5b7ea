//! Fleet offload experiment (§6.1 at fleet scale): 100+ real XQIB
//! clients browsing the Elsevier corpus against the replicated cluster,
//! in deterministic virtual time. Two arms isolate the paper's central
//! claim — whole-document caching offloads the origin — and a third
//! replays the full chaos menu to price degradation:
//!
//! - `whole_document_cache`: every client re-fetches the same corpus URL,
//!   so repeat visits are answered from the client cache;
//! - `no_cache`: cache-busting URLs force every interaction to the
//!   origin (the server-rendered baseline's traffic shape);
//! - `chaos`: the full menu (lossy links, disk faults, a partition, two
//!   leader crashes) over a mixed fleet — the invariants must still hold.
//!
//! The interesting numbers come out of the simulator itself, so the
//! binary writes `BENCH_fleet.json` directly (same pattern as the
//! overload and cluster-failover benches).

use std::fmt::Display;

use xqib_appserver::fleet::{run_fleet, FleetConfig, FleetReport};
use xqib_bench::write_report;

fn elsevier_arm(seed: u64, caching: usize, nocache: usize) -> FleetConfig {
    let mut cfg = FleetConfig::quiet(seed);
    cfg.elsevier_clients = caching;
    cfg.elsevier_nocache_clients = nocache;
    cfg.mashup_clients = 0;
    cfg.cart_clients = 0;
    cfg.interactions_per_client = 5;
    cfg
}

fn arm(r: &FleetReport) -> Vec<(&'static str, &dyn Display)> {
    let t = &r.totals;
    vec![
        ("clients", &t.clients),
        ("interactions", &t.interactions),
        ("behind_calls", &t.behind_calls),
        ("origin_requests", &t.origin_requests),
        ("cache_hit_permille", &t.cache_hit_permille),
        ("completions", &t.completions),
        ("stale_events", &t.stale_events),
        ("error_events", &t.error_events),
        ("retries", &t.retries),
        ("breaker_opens", &t.breaker_opens),
        ("retry_after_honored", &t.retry_after_honored),
        ("degraded_observed", &t.degraded_observed),
        ("failovers", &r.replication.failovers),
        ("blackout_ms", &r.replication.blackout_ms),
        ("converged", &r.converged),
        ("duration_ms", &r.duration_ms),
    ]
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0xF1EE7;
    // ≥100 Elsevier clients, whole-document caching on
    let (cached, _) = run_fleet(&elsevier_arm(seed, 100, 0)).expect("cached arm");
    assert!(cached.converged, "cached arm must converge");
    assert_eq!(cached.outcome_mismatches, vec![]);
    assert!(
        cached.totals.cache_hit_permille > 500,
        "repeat visits must be mostly cache hits (got {}‰)",
        cached.totals.cache_hit_permille
    );

    // the same fleet size with cache-busting URLs: the origin baseline
    let (uncached, _) = run_fleet(&elsevier_arm(seed, 0, 100)).expect("no-cache arm");
    assert!(uncached.converged, "no-cache arm must converge");
    assert_eq!(
        uncached.totals.cache_hit_permille, 0,
        "cache-busting URLs must always hit the origin"
    );
    assert!(
        uncached.totals.origin_requests > cached.totals.origin_requests,
        "offload must show up as origin-traffic reduction"
    );

    // the full chaos menu over the mixed fleet: invariants still hold
    let (chaos, _) = run_fleet(&FleetConfig::chaotic(seed)).expect("chaos arm");
    assert_eq!(chaos.missing_acked, vec![], "acked cart ops lost");
    assert_eq!(chaos.outcome_mismatches, vec![]);
    assert!(chaos.converged, "chaos arm must converge post-recovery");
    assert!(chaos.replication.failovers >= 2);

    write_report(
        "BENCH_fleet.json",
        "fleet",
        &[
            ("whole_document_cache", arm(&cached)),
            ("no_cache", arm(&uncached)),
            ("chaos", arm(&chaos)),
        ],
    );
}
