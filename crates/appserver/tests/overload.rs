//! Overload-robustness property sweep: arrival schedules × network fault
//! plans × storage fault plans × seeds, run through the deterministic
//! multi-client simulator against a one-shard, no-follower cluster whose
//! leader sits behind the request governor (or an unbounded FIFO). The
//! contract:
//!
//! 1. **conservation** — every generated arrival is accounted for exactly
//!    once: lost on the wire, answered by the fault layer, or answered by
//!    the cluster (fresh, degraded, shed, or deadline-failed); every
//!    admitted request completes exactly once;
//! 2. **honest shedding** — shed requests get `503` with a `Retry-After`
//!    header and are never partially executed: the number of `sim-update`
//!    marker nodes in the store equals the number of `200` update
//!    responses plus the `XQIB0017` ack timeouts (applied on the leader,
//!    but not made durable in time), and after a crash the recovered count
//!    lies between the `200` count (each `200` was fsynced first) and the
//!    in-memory count;
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
use xqib_appserver::governor::{Class, GovernorConfig};
use xqib_appserver::simulate::{run_sim, ArrivalPattern, SimConfig};
use xqib_appserver::{
    generate_corpus, Cluster, ClusterConfig, ClusterOutcome, CorpusSpec, Submitted,
};
use xqib_browser::net::FaultPlan;
use xqib_storage::StorageFaultPlan;

fn env_seed() -> u64 {
    std::env::var("XQIB_SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Counts the `sim-update` marker nodes the leader's corpus carries (none
/// when it holds no corpus).
fn marker_count(cluster: &Cluster) -> u64 {
    cluster
        .serialize("corpus.xml")
        .map_or(0, |xml| xml.matches("<sim-update ").count() as u64)
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
            cfg.cluster.disk_fault =
                Some(StorageFaultPlan::seeded(mixed).with_sync_fail_permille(100));
        }
        if !governed {
            cfg.cluster.governor = Some(GovernorConfig::unbounded());
        }

        let (report, mut cluster) = run_sim(&cfg);
        prop_assert_eq!(report.conservation_violations(), Vec::<String>::new());

        // invariant 2: acknowledged updates and ack timeouts — and only
        // those — left effects. A valid update that ran on this leader
        // answers 200 or, when its fsync keeps failing, the XQIB0017 503;
        // no other update fails, and without storage faults none times out
        let updates = report.class(Class::Update);
        let timeouts = updates.outcome(ClusterOutcome::AckTimeout);
        let refused = updates.outcome(ClusterOutcome::Shed)
            + updates.outcome(ClusterOutcome::DeadlineExceeded);
        prop_assert_eq!(updates.goodput() + timeouts + refused, updates.delivered());
        if !durable {
            prop_assert_eq!(timeouts, 0);
        }
        let applied = marker_count(&cluster);
        prop_assert_eq!(applied, updates.goodput() + timeouts);
        prop_assert_eq!(report.missing_acked_updates(&cluster), Vec::<String>::new());

        if durable {
            // pull the plug and let the leader recover from its own disk:
            // every 200 was fsynced before it was sent, and the journal
            // holds nothing of a shed or deadline-killed update
            cluster.crash_leader(0, report.duration_ms + 10_000);
            let _ = cluster.quiesce(report.duration_ms + 10_000);
            prop_assert!(cluster.has_leader(0));
            let recovered = marker_count(&cluster);
            prop_assert!(updates.goodput() <= recovered && recovered <= applied);
            prop_assert_eq!(report.missing_acked_updates(&cluster), Vec::<String>::new());
        }

        // invariant 5: the same config replays to the same report
        let (again, _) = run_sim(&cfg);
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
            cfg.cluster.governor = Some(GovernorConfig::unbounded());
        }
        let (report, _) = run_sim(&cfg);
        prop_assert_eq!(report.conservation_violations(), Vec::<String>::new());
        prop_assert_eq!(report.shed(), 0);
        prop_assert_eq!(report.metrics.overload.degraded, 0);
        prop_assert_eq!(report.metrics.overload.deadline_exceeded, 0);
        prop_assert_eq!(report.goodput(), report.issued());
    }
}

/// A one-shard, no-follower cluster holding the default corpus, its
/// leader behind a default governor.
fn governed_cluster() -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        shards: 1,
        followers: 0,
        ack_replicas: 0,
        governor: Some(GovernorConfig::default()),
        ..ClusterConfig::default()
    });
    c.load("corpus.xml", &generate_corpus(&CorpusSpec::default()))
        .expect("corpus load");
    c
}

/// Invariants 2 and 3 at the single-response level: flood the governed
/// leader at t=0 and inspect every completion.
#[test]
fn flood_responses_are_honest() {
    let mut c = governed_cluster();
    let snapshot = c.serialize("corpus.xml").expect("snapshot");

    let mut completions = Vec::new();
    for i in 0..100 {
        let url = format!("/page?article=j0-v0-i0-a{}", i % 4);
        if let Submitted::Done(d) = c.submit(&url, 0) {
            completions.push(*d);
        }
    }
    let full = completions.len();
    let (now, rest) = c.quiesce(0);
    completions.extend(rest);
    assert_eq!(
        completions.len(),
        100,
        "every request answered exactly once"
    );

    let mut shed = 0;
    let mut degraded = 0;
    for d in &completions {
        match d.outcome {
            ClusterOutcome::Shed => {
                shed += 1;
                assert_eq!(d.response.status, 503);
                assert!(
                    d.response.header("Retry-After").is_some(),
                    "shed responses advertise when to come back"
                );
            }
            ClusterOutcome::Degraded => {
                degraded += 1;
                assert_eq!(d.response.status, 200);
                assert_eq!(
                    d.response.header("X-XQIB-Degraded"),
                    Some("whole-document-snapshot")
                );
                // a whole, untorn document — byte-identical to the cache
                assert_eq!(d.response.body, snapshot);
            }
            ClusterOutcome::Served => assert_eq!(d.response.status, 200),
            other => panic!("render deadline misses degrade instead of failing: {other:?}"),
        }
    }
    assert!(shed > 0, "a 100-deep flood must overflow the 64-slot queue");
    assert!(degraded > 0, "late renders must fall back to the snapshot");

    // /metrics serves the overload counters the flood produced, live; the
    // scrape itself is never queued, so admitted counts the flood alone
    let done = match c.submit("/metrics", now) {
        Submitted::Done(d) => d,
        Submitted::Pending(_) => panic!("/metrics is never queued"),
    };
    assert_eq!(done.outcome, ClusterOutcome::Served);
    let xml = &done.response.body;
    let admitted = 100 - full;
    for expect in [
        format!("<admitted>{admitted}</admitted>"),
        format!("<shed>{shed}</shed>"),
        format!("<degraded>{degraded}</degraded>"),
    ] {
        assert!(xml.contains(&expect), "missing {expect}: {xml}");
    }
}

/// Each shard leader has its own governor: a flood on one shard's
/// documents fills that shard's queues only. A single queue in front of
/// the cluster would shed the other shard's requests at admission, or make
/// them wait behind the flood until their deadlines degrade or fail them.
#[test]
fn a_flood_on_one_shard_costs_the_other_nothing() {
    let mut c = Cluster::new(ClusterConfig {
        shards: 2,
        followers: 0,
        ack_replicas: 0,
        governor: Some(GovernorConfig::default()),
        ..ClusterConfig::default()
    });
    let flooded = c
        .load("corpus.xml", &generate_corpus(&CorpusSpec::default()))
        .expect("corpus load");
    let quiet_doc = (0..64)
        .map(|i| format!("d{i}.xml"))
        .find(|uri| c.owner(uri) != flooded)
        .expect("a document on the other shard");
    let quiet = c.load(&quiet_doc, "<root><a/><b/></root>").expect("load");

    let mut submitted = 0;
    let mut done = Vec::new();
    let mut take = |s: Submitted, done: &mut Vec<_>| {
        submitted += 1;
        if let Submitted::Done(d) = s {
            done.push(*d);
        }
    };
    for now in 0..=500 {
        if now == 0 {
            for i in 0..100 {
                let page = format!("/page?article=j0-v0-i0-a{}", i % 4);
                take(c.submit(&page, now), &mut done);
            }
        }
        if now % 10 == 0 {
            let query = format!("/query?xq=count(doc('{quiet_doc}')/*/*)");
            take(c.submit(&query, now), &mut done);
        }
        done.extend(c.advance(now));
    }
    done.extend(c.quiesce(501).1);
    assert_eq!(done.len(), submitted, "every request completes once");

    let on = |s: usize| done.iter().filter(move |d| d.shard == s);
    assert_eq!(on(quiet).count(), 51);
    for d in on(quiet) {
        assert_eq!(d.outcome, ClusterOutcome::Served, "{d:?}");
        assert_eq!((d.response.status, d.response.body.as_str()), (200, "2"));
    }
    let outcome = |o: ClusterOutcome| on(flooded).filter(|d| d.outcome == o).count();
    assert!(
        outcome(ClusterOutcome::Shed) > 0,
        "the flood overflows its queue"
    );
    assert!(
        outcome(ClusterOutcome::Degraded) > 0,
        "late renders degrade"
    );
}

/// A leader crash answers the requests queued for it with the blackout
/// 503: every arrival completes exactly once, and the governor's books
/// balance.
#[test]
fn a_leader_crash_answers_its_queue_exactly_once() {
    let mut c = governed_cluster();
    let mut done = Vec::new();
    for i in 0..40 {
        let url = match i % 3 {
            0 => "/index".to_string(),
            1 => format!("/update?xq=insert node <m id=\"k{i}\"/> into doc('corpus.xml')/*"),
            _ => "/query?xq=count(doc('corpus.xml')//article)".to_string(),
        };
        if let Submitted::Done(d) = c.submit(&url, 0) {
            done.push(*d);
        }
    }
    done.extend(c.advance(0));
    assert!(!done.is_empty(), "the leader served the head of the queue");
    c.crash_leader(0, 1);
    let crashed = c.advance(1);
    assert!(!crashed.is_empty(), "the queue was not empty at the crash");
    for d in &crashed {
        assert_eq!(d.outcome, ClusterOutcome::NoLeader);
        assert_eq!(d.response.status, 503);
        assert_eq!(d.response.header("Retry-After"), Some("1"));
    }
    done.extend(crashed);
    done.extend(c.quiesce(2).1);
    assert!(c.has_leader(0), "the leader recovered");

    // request ids are the cluster's arrival order: 0..40
    let mut completed: Vec<u64> = done.iter().map(|d| d.id).collect();
    completed.sort_unstable();
    assert_eq!(
        completed,
        (0..40).collect::<Vec<u64>>(),
        "each arrival completes once"
    );
    let overload = c.metrics_snapshot().overload;
    assert_eq!(overload.admitted, overload.completed);
    assert_eq!(overload.submitted, 40);
}
