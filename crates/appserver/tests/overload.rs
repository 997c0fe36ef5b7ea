//! Overload-robustness property sweep: arrival schedules × network fault
//! plans × storage fault plans × seeds, run through the deterministic
//! multi-client simulator. The contract:
//!
//! 1. **conservation** — every generated arrival is accounted for exactly
//!    once: lost on the wire, answered by the fault layer, or answered by
//!    the server (fresh, degraded, shed, or deadline-failed); every
//!    admitted request completes exactly once;
//! 2. **honest shedding** — shed requests get `503` with a `Retry-After`
//!    header and are never partially executed: the number of `sim-update`
//!    marker nodes in the store equals the number of `200` update
//!    responses, and after a crash the recovered count never exceeds it;
//! 3. **well-formed degradation** — degraded responses carry the
//!    `X-XQIB-Degraded` marker and a whole, parseable document snapshot;
//! 4. **no gratuitous drops** — with faults off and load under capacity,
//!    nothing is shed or degraded;
//! 5. **determinism** — identical seeds reproduce identical reports,
//!    metrics included.
//!
//! CI matrix hook: `XQIB_SIM_SEED` is mixed into every generated seed, so
//! each matrix entry explores a different region of the schedule × fault
//! space while any single failure stays reproducible.

use proptest::prelude::*;
use xqib_appserver::governor::{Admission, Class, GovernedServer, GovernorConfig, Outcome};
use xqib_appserver::simulate::{run_sim_with_server, ArrivalPattern, SimConfig, SimReport};
use xqib_appserver::{generate_corpus, AppServer, CorpusSpec, DurabilityConfig};
use xqib_browser::net::FaultPlan;
use xqib_storage::StorageFaultPlan;

fn env_seed() -> u64 {
    std::env::var("XQIB_SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Arrivals must balance against outcomes, per class and in total.
fn assert_conservation(report: &SimReport) {
    for class in Class::ALL {
        let c = report.class(class);
        let delivered = c.ok + c.errors + c.degraded + c.shed + c.deadline_exceeded;
        assert_eq!(
            c.issued,
            delivered + c.lost + c.net_errors,
            "class {} leaks requests: {c:?}",
            class.name()
        );
        assert_eq!(
            c.latencies.len() as u64,
            delivered,
            "one latency sample per delivered response ({})",
            class.name()
        );
    }
    // the governor's own books agree with the client-side tally
    assert_eq!(report.metrics.overload.shed(), report.shed());
    assert_eq!(
        report.metrics.overload.degraded,
        report.per_class.iter().map(|c| c.degraded).sum::<u64>()
    );
    assert_eq!(
        report.metrics.overload.deadline_exceeded,
        report
            .per_class
            .iter()
            .map(|c| c.deadline_exceeded)
            .sum::<u64>()
    );
}

/// Counts the `sim-update` marker nodes a server's corpus carries.
fn marker_count(server: &mut AppServer) -> u64 {
    let resp = server.handle("/query?xq=count(doc('corpus.xml')/*/sim-update)");
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body.trim().parse().expect("count is a number")
}

proptest! {
    /// The full cross product: schedule × network faults × storage faults
    /// × governed/ungoverned, checked against invariants 1, 2 and 5.
    #[test]
    fn sim_invariants_hold_across_the_fault_space(
        seed in 0u64..1_000_000,
        pattern_sel in 0usize..3,
        net_sel in 0usize..3,
        durable in prop_oneof![Just(false), Just(true)],
        governed in prop_oneof![Just(false), Just(true)],
    ) {
        let mixed = seed ^ env_seed();
        let mut cfg = SimConfig::steady(mixed, 20, 2_000);
        cfg.clients[0].pattern = match pattern_sel {
            0 => ArrivalPattern::Steady { rps: 20 },
            1 => ArrivalPattern::Burst {
                base_rps: 10,
                burst_rps: 150,
                from_ms: 500,
                to_ms: 1_200,
            },
            _ => ArrivalPattern::Ramp { from_rps: 5, to_rps: 120 },
        };
        cfg.net_fault = match net_sel {
            0 => None,
            1 => Some(FaultPlan::seeded(mixed).with_timeout_permille(80).with_jitter_ms(15)),
            _ => Some(
                FaultPlan::seeded(mixed)
                    .with_timeout_permille(50)
                    .with_error_permille(50)
                    .with_truncate_permille(50),
            ),
        };
        if durable {
            cfg.disk_fault = Some(StorageFaultPlan::seeded(mixed).with_sync_fail_permille(100));
        }
        if !governed {
            cfg.governor = None;
        }

        let (report, mut g) = run_sim_with_server(&cfg).unwrap();
        assert_conservation(&report);

        // invariant 2: acknowledged updates — and only those — left effects
        let acked = report.class(Class::Update).ok;
        prop_assert_eq!(marker_count(&mut g.server), acked);

        if durable {
            // pull the plug and recover: prefix durability means the
            // journal can trail the in-memory state, but it can never
            // contain effects of shed or deadline-killed updates
            let disk = g.server.db.disk().expect("durable server").clone_image();
            let mut recovered =
                AppServer::recover(disk, DurabilityConfig::default()).expect("recovery");
            prop_assert!(marker_count(&mut recovered) <= acked);
        }

        // invariant 5: the same config replays to the same report
        let (again, _) = run_sim_with_server(&cfg).unwrap();
        prop_assert_eq!(report, again);
    }
}

proptest! {
    /// Invariant 4: a fault-free steady trickle under capacity is never
    /// shed, degraded, or deadline-failed, governed or not.
    #[test]
    fn under_capacity_nothing_is_dropped(
        seed in 0u64..1_000_000,
        rps in 1u64..12,
        governed in prop_oneof![Just(false), Just(true)],
    ) {
        let mut cfg = SimConfig::steady(seed ^ env_seed(), rps, 3_000);
        if !governed {
            cfg.governor = None;
        }
        let (report, _) = run_sim_with_server(&cfg).unwrap();
        assert_conservation(&report);
        prop_assert_eq!(report.shed(), 0);
        prop_assert_eq!(report.metrics.overload.degraded, 0);
        prop_assert_eq!(report.metrics.overload.deadline_exceeded, 0);
        prop_assert_eq!(report.goodput(), report.issued());
    }
}

/// Invariants 2 and 3 at the single-response level: flood the governor at
/// t=0 and inspect every completion.
#[test]
fn flood_responses_are_honest() {
    let corpus = generate_corpus(&CorpusSpec::default());
    let server = AppServer::new(&corpus).expect("corpus load");
    let snapshot = server.db.serialize("corpus.xml").expect("snapshot");
    let mut g = GovernedServer::new(server, GovernorConfig::default());

    let mut completions = Vec::new();
    for i in 0..100 {
        let url = format!("/page?article=j0-v0-i0-a{}", i % 4);
        match g.submit(&url, 0) {
            Admission::Rejected(c) => completions.push(c),
            Admission::Queued(_) => {}
        }
    }
    completions.extend(g.drain());
    assert_eq!(
        completions.len(),
        100,
        "every request answered exactly once"
    );

    let mut shed = 0;
    let mut degraded = 0;
    for c in &completions {
        match c.outcome {
            Outcome::ShedQueueFull | Outcome::ShedQueueDelay => {
                shed += 1;
                assert_eq!(c.response.status, 503);
                assert!(
                    c.response.header("Retry-After").is_some(),
                    "shed responses advertise when to come back"
                );
            }
            Outcome::Degraded => {
                degraded += 1;
                assert_eq!(c.response.status, 200);
                assert_eq!(
                    c.response.header("X-XQIB-Degraded"),
                    Some("whole-document-snapshot")
                );
                // a whole, untorn document — byte-identical to the cache
                assert_eq!(c.response.body, snapshot);
            }
            Outcome::Served => assert_eq!(c.response.status, 200),
            Outcome::DeadlineExceeded => {
                panic!("render deadline misses degrade instead of failing")
            }
        }
    }
    assert!(shed > 0, "a 100-deep flood must overflow the 64-slot queue");
    assert!(degraded > 0, "late renders must fall back to the snapshot");

    // /metrics submitted through the governor serves the overload
    // counters the flood produced, live: admitted counts itself too
    let full = completions
        .iter()
        .filter(|c| c.outcome == Outcome::ShedQueueFull)
        .count();
    g.submit("/metrics", g.free_at());
    let done = g.drain();
    assert_eq!(done[0].outcome, Outcome::Served);
    let xml = &done[0].response.body;
    let admitted = 100 - full + 1;
    for expect in [
        format!("<admitted>{admitted}</admitted>"),
        format!("<shed>{shed}</shed>"),
        format!("<degraded>{degraded}</degraded>"),
    ] {
        assert!(xml.contains(&expect), "missing {expect}: {xml}");
    }
}
