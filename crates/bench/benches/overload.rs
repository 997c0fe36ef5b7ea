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
use xqib_appserver::simulate::{run_sim, ArrivalPattern, SimConfig, SimReport};

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

fn arm_json(name: &str, r: &SimReport) -> String {
    let render = r.class(Class::Render);
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"issued\": {},\n",
            "      \"goodput\": {},\n",
            "      \"goodput_rps\": {},\n",
            "      \"shed\": {},\n",
            "      \"degraded\": {},\n",
            "      \"deadline_exceeded\": {},\n",
            "      \"latency_p99_ms\": {},\n",
            "      \"render_latency_p50_ms\": {},\n",
            "      \"render_latency_p99_ms\": {},\n",
            "      \"queue_delay_p99_ms\": {}\n",
            "    }}"
        ),
        name,
        r.issued(),
        r.goodput(),
        r.goodput_rps(),
        r.shed(),
        r.metrics.overload.degraded,
        r.metrics.overload.deadline_exceeded,
        r.latency_p99(),
        render.latency_percentile(50),
        render.latency_percentile(99),
        r.metrics.overload.queue_delay_percentile(99),
    )
}

fn main() {
    // `cargo bench` passes harness flags we don't use
    let _ = std::env::args();

    let seed = 0xB02D;
    let baseline = run_sim(&burst_config(seed, false)).expect("corpus load");
    let governed = run_sim(&burst_config(seed, true)).expect("corpus load");

    let json = format!(
        "{{\n  \"overload_burst_2x\": {{\n{},\n{}\n  }}\n}}\n",
        arm_json("baseline", &baseline),
        arm_json("governed", &governed),
    );
    // cargo runs benches with the package as CWD; the report belongs at
    // the repo root next to the harvested BENCH_*.json files
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    std::fs::write(out, &json).expect("write BENCH_overload.json");
    println!("wrote BENCH_overload.json:\n{json}");

    // sanity: governance must actually tame tail latency under the burst
    assert!(
        governed.latency_p99() < baseline.latency_p99(),
        "governed p99 {} ms should beat baseline p99 {} ms",
        governed.latency_p99(),
        baseline.latency_p99()
    );
}
