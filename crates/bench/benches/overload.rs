//! Overload experiment: the same 2× overload burst replayed against a
//! one-shard, no-follower cluster whose leader sits behind an unbounded
//! queue served in class-priority order (the ungoverned baseline) or the request governor, in
//! deterministic virtual time. Unlike the Criterion microbenches this is not a wall-clock
//! measurement — the interesting numbers (goodput, p99 latency, shed and
//! degraded counts) come out of the simulator itself — so the binary
//! writes `BENCH_overload.json` directly.
//!
//! Workload: a steady 20 req/s trickle with a 2-second burst at twice the
//! server's capacity on the same mixed render/query/update traffic, no
//! injected faults — overload is the only adversary. The capacity is not
//! a constant: it is measured from the route mix's fuel, as the reciprocal
//! of the mean service time (`fuel / fuel_per_ms + 1` virtual ms) over an
//! unloaded run, so the burst stays 2× whatever the engine charges.

use xqib_appserver::governor::{Class, GovernorConfig};
use xqib_appserver::metrics::nearest_rank;
use xqib_appserver::simulate::{run_sim, ArrivalPattern, SimConfig, SimReport};
use xqib_bench::write_report;

const BASE_RPS: u64 = 20;
const DURATION_MS: u64 = 6_000;

/// Requests per virtual second the server retires on the default route
/// mix: one second over the mean service time of an ungoverned run at the
/// base rate. Service time is latency minus queueing, so the figure holds
/// even if a slow request makes the next one wait.
fn capacity_rps(seed: u64) -> u64 {
    let mut cfg = SimConfig::steady(seed, BASE_RPS, DURATION_MS);
    cfg.cluster.governor = Some(GovernorConfig::unbounded());
    let r = run_sim(&cfg).0;
    let latency: u64 = r.per_class.iter().flat_map(|c| &c.latencies).sum();
    let queueing: u64 = r.metrics.overload.queue_delays.iter().sum();
    let served = r.metrics.overload.completed;
    1000 * served / (latency - queueing)
}

fn burst_config(seed: u64, burst_rps: u64, governed: bool) -> SimConfig {
    let mut cfg = SimConfig::steady(seed, BASE_RPS, DURATION_MS);
    cfg.clients[0].pattern = ArrivalPattern::Burst {
        base_rps: BASE_RPS,
        burst_rps,
        from_ms: 1_000,
        to_ms: 3_000,
    };
    if !governed {
        cfg.cluster.governor = Some(GovernorConfig::unbounded());
    }
    cfg
}

fn arm(r: &SimReport) -> Vec<(&'static str, u64)> {
    let render = r.class(Class::Render);
    vec![
        ("issued", r.issued()),
        ("goodput", r.goodput()),
        ("goodput_rps", r.goodput() * 1000 / r.duration_ms),
        ("shed", r.shed()),
        ("degraded", r.metrics.overload.degraded),
        ("deadline_exceeded", r.metrics.overload.deadline_exceeded),
        ("latency_p99_ms", r.latency_p99()),
        ("render_latency_p50_ms", nearest_rank(&render.latencies, 50)),
        ("render_latency_p99_ms", nearest_rank(&render.latencies, 99)),
        (
            "queue_delay_p99_ms",
            nearest_rank(&r.metrics.overload.queue_delays, 99),
        ),
    ]
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0xB02D;
    let capacity = capacity_rps(seed);
    let burst_rps = 2 * capacity;
    let baseline = run_sim(&burst_config(seed, burst_rps, false)).0;
    let governed = run_sim(&burst_config(seed, burst_rps, true)).0;

    write_report(
        "BENCH_overload.json",
        "overload_burst_2x",
        &[
            (
                "workload",
                vec![("capacity_rps", capacity), ("burst_rps", burst_rps)],
            ),
            ("baseline", arm(&baseline)),
            ("governed", arm(&governed)),
        ],
    );

    // sanity: governance must actually tame tail latency under the burst
    assert!(
        governed.latency_p99() < baseline.latency_p99(),
        "governed p99 {} ms should beat baseline p99 {} ms",
        governed.latency_p99(),
        baseline.latency_p99()
    );
}
