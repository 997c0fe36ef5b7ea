//! Overload experiment: the same 2× overload burst replayed against the
//! ungoverned baseline and the governed server, in deterministic virtual
//! time. Unlike the Criterion microbenches this is not a wall-clock
//! measurement — the interesting numbers (goodput, p99 latency, shed and
//! degraded counts) come out of the simulator itself — so the binary
//! writes `BENCH_overload.json` directly.
//!
//! Workload: a steady 20 req/s trickle with a 2-second burst at 120 req/s
//! (≈2× the ≈60 req/s mixed-workload capacity measured for the default
//! corpus at 100 fuel/ms), mixed render/query/update traffic, no
//! injected faults — overload is the only adversary.

use xqib_appserver::governor::Class;
use xqib_appserver::metrics::nearest_rank;
use xqib_appserver::simulate::{run_sim, ArrivalPattern, SimConfig, SimReport};
use xqib_bench::write_report;

fn burst_config(seed: u64, governed: bool) -> SimConfig {
    let mut cfg = SimConfig::steady(seed, 20, 6_000);
    cfg.clients[0].pattern = ArrivalPattern::Burst {
        base_rps: 20,
        burst_rps: 120,
        from_ms: 1_000,
        to_ms: 3_000,
    };
    if !governed {
        cfg.governor = None;
    }
    cfg
}

fn arm(r: &SimReport) -> Vec<(&'static str, u64)> {
    let render = r.class(Class::Render);
    vec![
        ("issued", r.issued()),
        ("goodput", r.goodput()),
        ("goodput_rps", r.goodput_rps()),
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
    let baseline = run_sim(&burst_config(seed, false)).expect("corpus load");
    let governed = run_sim(&burst_config(seed, true)).expect("corpus load");

    write_report(
        "BENCH_overload.json",
        "overload_burst_2x",
        &[("baseline", arm(&baseline)), ("governed", arm(&governed))],
    );

    // sanity: governance must actually tame tail latency under the burst
    assert!(
        governed.latency_p99() < baseline.latency_p99(),
        "governed p99 {} ms should beat baseline p99 {} ms",
        governed.latency_p99(),
        baseline.latency_p99()
    );
}
