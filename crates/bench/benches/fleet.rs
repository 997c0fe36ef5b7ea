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

use xqib_appserver::fleet::{fleet_docs, Scenario};
use xqib_appserver::simulate::{run_sim, SimConfig, SimReport};
use xqib_bench::write_report;

/// 100 Elsevier browsers of one kind for one virtual second.
fn elsevier_arm(seed: u64, scenario: Scenario) -> SimConfig {
    let mut cfg = SimConfig::fleet(seed);
    cfg.browsers = vec![scenario; 100];
    cfg.docs = fleet_docs(&cfg.browsers);
    cfg.duration_ms = 1_000;
    cfg
}

/// Runs an arm and checks the invariants every fleet run must hold.
fn run_arm(cfg: &SimConfig) -> SimReport {
    let (r, cluster) = run_sim(cfg);
    assert_eq!(r.missing_acked_updates(&cluster), Vec::<String>::new());
    assert_eq!(r.outcome_mismatches(), Vec::<usize>::new());
    assert_eq!(
        r.unconverged(),
        Vec::<usize>::new(),
        "renders must converge"
    );
    assert_eq!(r.conservation_violations(), Vec::<String>::new());
    r
}

fn arm(r: &SimReport) -> Vec<(&'static str, Box<dyn Display + '_>)> {
    let t = &r.metrics.fleet;
    let finished = r.browsers.iter().map(|b| b.finished_at).max().unwrap_or(0);
    vec![
        ("clients", Box::new(t.clients)),
        ("interactions", Box::new(t.interactions)),
        ("behind_calls", Box::new(t.behind_calls)),
        ("origin_requests", Box::new(t.origin_requests)),
        ("cache_hit_permille", Box::new(t.cache_hit_permille)),
        ("completions", Box::new(t.completions)),
        ("stale_events", Box::new(t.stale_events)),
        ("error_events", Box::new(t.error_events)),
        ("retries", Box::new(t.retries)),
        ("breaker_opens", Box::new(t.breaker_opens)),
        ("retry_after_honored", Box::new(t.retry_after_honored)),
        ("degraded_observed", Box::new(t.degraded_observed)),
        ("failovers", Box::new(r.metrics.replication.failovers)),
        ("blackout_ms", Box::new(r.metrics.replication.blackout_ms)),
        ("converged", Box::new(r.unconverged().is_empty())),
        ("duration_ms", Box::new(finished)),
    ]
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0xF1EE7;
    // ≥100 Elsevier clients, whole-document caching on
    let cached = run_arm(&elsevier_arm(seed, Scenario::Elsevier));
    assert!(
        cached.metrics.fleet.cache_hit_permille > 500,
        "repeat visits must be mostly cache hits (got {}‰)",
        cached.metrics.fleet.cache_hit_permille
    );

    // the same fleet size with cache-busting URLs: the origin baseline
    let uncached = run_arm(&elsevier_arm(seed, Scenario::ElsevierNoCache));
    assert_eq!(
        uncached.metrics.fleet.cache_hit_permille, 0,
        "cache-busting URLs must always hit the origin"
    );
    assert!(
        uncached.metrics.fleet.origin_requests > cached.metrics.fleet.origin_requests,
        "offload must show up as origin-traffic reduction"
    );

    // the full chaos menu over the mixed fleet: invariants still hold
    let chaos = run_arm(&SimConfig::chaotic_fleet(seed));
    assert!(chaos.metrics.replication.failovers >= 2);

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
