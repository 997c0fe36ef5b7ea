//! One fixed seed of each distributed experiment, small enough for the
//! root package's test run: the governed simulator (a one-shard cluster
//! behind the request governor), the cluster chaos
//! scenario (leader crash, partition, latent decay, a shard added mid-run)
//! and a quiet browser fleet. Each run's core invariant holds, a rerun
//! with the same seed reports the same, each deployment's `/metrics`
//! serves exactly the golden list of names, and every seat's store holds
//! its URI-bound documents and nothing else.
//!
//!     cargo test -q --test chaos_smoke

use xqib::appserver::simulate::{run_sim, SimConfig};
use xqib::appserver::{Cluster, ClusterOutcome, Submitted, TopologyChange};
use xqib::storage::StorageFaultPlan;

const GOLDEN: &str = include_str!("../crates/appserver/tests/metrics_names.txt");

/// Checks a `/metrics` body against the golden names and returns its
/// counters.
fn golden(body: &str) -> Vec<(String, u64)> {
    let mut rest = body
        .strip_prefix("<metrics>")
        .and_then(|b| b.strip_suffix("</metrics>"))
        .expect(body);
    let mut counters = Vec::new();
    while let Some(open) = rest.strip_prefix('<') {
        let (name, tail) = open.split_once('>').expect(body);
        let (value, tail) = tail.split_once("</").expect(body);
        counters.push((name.to_string(), value.parse().expect(body)));
        rest = tail
            .strip_prefix(name)
            .and_then(|t| t.strip_prefix('>'))
            .expect(body);
    }
    assert!(rest.is_empty(), "{body}");
    let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, GOLDEN.lines().collect::<Vec<_>>());
    counters
}

fn metric(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1)
}

fn cluster_metrics(c: &mut Cluster, now: u64) -> Vec<(String, u64)> {
    match c.submit("/metrics", now) {
        Submitted::Done(d) => golden(&d.response.body),
        Submitted::Pending(_) => panic!("metrics cannot pend"),
    }
}

/// Sizes, not only outcomes: after thousands of requests each seat holds
/// its URI-bound documents and nothing else. A leader that ran a query
/// keeps one emptied construction document for reuse, outside the
/// document list. Returns how many seats keep one.
fn assert_bounded_seats(c: &Cluster) -> usize {
    let mut spares = 0;
    for (host, store) in c.seat_stores() {
        let store = store.borrow();
        let bound = store.uri_bindings().len();
        let spare = usize::from(store.has_spare());
        spares += spare;
        assert_eq!(
            store.doc_count(),
            bound,
            "{host}: {bound} URI-bound documents, plus {spare} spare construction document"
        );
    }
    spares
}

#[test]
fn governed_server_smoke() {
    let mut cfg = SimConfig::steady(11, 60, 1_500);
    cfg.cluster.disk_fault = Some(StorageFaultPlan::seeded(11));
    let (report, mut c) = run_sim(&cfg);
    let (again, _) = run_sim(&cfg);
    assert_eq!(report, again, "same seed, same report");
    assert_eq!(report.conservation_violations(), Vec::<String>::new());
    assert!(report.goodput() > 0);

    // the scrape is never queued: it counts as a leader request, not as
    // an admission
    let m = cluster_metrics(&mut c, cfg.duration_ms + 1);
    let overload = &report.metrics.overload;
    assert_eq!(metric(&m, "admitted"), overload.admitted);
    assert_eq!(metric(&m, "shed"), overload.shed());
    assert_eq!(metric(&m, "requests"), report.metrics.server.requests + 1);
    assert_eq!(assert_bounded_seats(&c), 1, "the leader rendered");
}

#[test]
fn cluster_smoke() {
    let mut cfg = SimConfig::replicated(5, 1_200);
    cfg.cluster.shards = 2;
    cfg.cluster.followers = 2;
    cfg.cluster.ack_replicas = 1;
    cfg.cluster.disk_fault = Some(
        StorageFaultPlan::seeded(5)
            .with_decay_permille(2)
            .with_decay_period_ms(80),
    );
    cfg.chaos.leader_crashes.push((500, 0));
    cfg.chaos.partitions.push((1, 1, 200, 600));
    cfg.chaos.topology.push((700, TopologyChange::AddShard));
    let (report, mut c) = run_sim(&cfg);
    let (again, _) = run_sim(&cfg);
    assert_eq!(report, again, "same seed, same report");
    assert_eq!(report.conservation_violations(), Vec::<String>::new());
    assert!(report.outcome(ClusterOutcome::AckedUpdate) > 0);
    assert_eq!(report.missing_acked_updates(&c), Vec::<String>::new());
    assert_eq!(report.dual_owner_violations(), Vec::<String>::new());

    let (now, _) = c.quiesce(cfg.duration_ms + 1);
    let m = cluster_metrics(&mut c, now);
    for exercised in ["repl-failovers", "reshard-epoch-bumps", "scrub-cycles"] {
        assert!(metric(&m, exercised) > 0, "{exercised}");
    }
    assert_eq!(metric(&m, "repl-failovers"), c.stats().failovers);
    assert_eq!(
        metric(&m, "reshard-epoch-bumps"),
        c.reshard_stats().epoch_bumps
    );
    assert_eq!(metric(&m, "scrub-cycles"), c.integrity_stats().scrub_cycles);

    assert!(
        assert_bounded_seats(&c) > 0,
        "a leader that rendered keeps its construction document"
    );
}

#[test]
fn fleet_smoke() {
    let cfg = SimConfig::fleet(3);
    let (report, mut c) = run_sim(&cfg);
    let (again, _) = run_sim(&cfg);
    assert_eq!(report, again, "same seed, same report");
    assert_eq!(report.missing_acked_updates(&c), Vec::<String>::new());
    assert_eq!(report.outcome_mismatches(), Vec::<usize>::new());
    assert_eq!(report.unconverged(), Vec::<usize>::new());
    assert_eq!(report.conservation_violations(), Vec::<String>::new());

    let fleet = &report.metrics.fleet;
    let end = report.browsers.iter().map(|b| b.finished_at).max().unwrap();
    let m = cluster_metrics(&mut c, end + 1);
    assert_eq!(metric(&m, "fleet-clients"), fleet.clients);
    assert_eq!(metric(&m, "fleet-origin-requests"), fleet.origin_requests);
}
