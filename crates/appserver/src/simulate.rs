//! The deterministic multi-client chaos simulator: N seeded virtual
//! clients with arrival-rate schedules drive a [`Cluster`] — by default
//! one shard, no followers, its leader behind a request governor — through
//! virtual time, optionally through the browser substrate's network fault
//! layer ([`FaultPlan`]) and over fault-injected seat disks
//! ([`ClusterConfig::disk_fault`]) — the end-to-end "the system survives
//! overload and partial failure at once" experiment.
//!
//! Open-loop load: arrivals follow each client's schedule regardless of how
//! the server is doing (the overload-realistic model — real users keep
//! clicking). The virtual clock is the browser substrate's
//! [`EventLoop`], the same deterministic task queue that drives the
//! client-side experiments, so a whole simulation is reproducible from a
//! single `u64` seed: identical seeds produce identical reports, bit for
//! bit.

use std::collections::HashMap;

use xqib_browser::event_loop::EventLoop;
use xqib_browser::net::{Fault, FaultPlan};
use xqib_storage::mix64;

use crate::cluster::{
    Cluster, ClusterChaos, ClusterCompletion, ClusterConfig, ClusterOutcome, IntegrityStats,
    ReplicationStats, ReshardStats, RouteCache, Submitted, TopologyEpoch,
};
use crate::corpus::{generate_corpus, CorpusSpec};
use crate::governor::{Class, GovernorConfig};
use crate::metrics::{nearest_rank, MetricsSnapshot};
use crate::render;

/// An open-loop arrival schedule, in requests per (virtual) second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// A constant rate for the whole run.
    Steady { rps: u64 },
    /// A constant base rate with a burst window at `burst_rps`.
    Burst {
        base_rps: u64,
        burst_rps: u64,
        from_ms: u64,
        to_ms: u64,
    },
    /// A linear ramp from `from_rps` (at t=0) to `to_rps` (at the end).
    Ramp { from_rps: u64, to_rps: u64 },
}

impl ArrivalPattern {
    /// The arrival rate during the second starting at `t_ms`.
    fn rate_at(&self, t_ms: u64, duration_ms: u64) -> u64 {
        match *self {
            ArrivalPattern::Steady { rps } => rps,
            ArrivalPattern::Burst {
                base_rps,
                burst_rps,
                from_ms,
                to_ms,
            } => {
                if t_ms >= from_ms && t_ms < to_ms {
                    burst_rps
                } else {
                    base_rps
                }
            }
            ArrivalPattern::Ramp { from_rps, to_rps } => {
                if duration_ms == 0 {
                    return from_rps;
                }
                let t = t_ms.min(duration_ms);
                if to_rps >= from_rps {
                    from_rps + (to_rps - from_rps) * t / duration_ms
                } else {
                    from_rps - (from_rps - to_rps) * t / duration_ms
                }
            }
        }
    }
}

/// Relative weights of the routes one client hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteMix {
    pub page: u32,
    pub index: u32,
    pub doc: u32,
    pub query: u32,
    pub update: u32,
}

impl Default for RouteMix {
    fn default() -> Self {
        // a browse-heavy session with occasional ad-hoc queries and edits
        RouteMix {
            page: 6,
            index: 1,
            doc: 2,
            query: 2,
            update: 1,
        }
    }
}

/// One virtual client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    pub pattern: ArrivalPattern,
    pub mix: RouteMix,
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: route choices, article picks and update payloads all
    /// derive from it.
    pub seed: u64,
    /// Virtual duration over which arrivals are generated (the backlog is
    /// always drained to completion afterwards).
    pub duration_ms: u64,
    pub clients: Vec<ClientSpec>,
    /// Client→server network faults (lost requests, injected errors,
    /// truncations, latency jitter), decided per request index in virtual
    /// time by the browser substrate's fault model.
    pub net_fault: Option<FaultPlan>,
    /// The deployment under load. Its `governor` is the overload-control
    /// arm (`GovernorConfig::default()`) or the ungoverned baseline
    /// (`GovernorConfig::unbounded()`: unbounded FIFO, no deadlines, no
    /// shedding); `disk_fault` puts storage faults under it.
    pub cluster: ClusterConfig,
    pub corpus: CorpusSpec,
}

impl SimConfig {
    /// A small governed steady-state run on one shard with no followers —
    /// the starting point tests tweak.
    pub fn steady(seed: u64, rps: u64, duration_ms: u64) -> Self {
        SimConfig {
            seed,
            duration_ms,
            clients: vec![ClientSpec {
                pattern: ArrivalPattern::Steady { rps },
                mix: RouteMix::default(),
            }],
            net_fault: None,
            cluster: ClusterConfig {
                seed,
                shards: 1,
                followers: 0,
                ack_replicas: 0,
                governor: Some(GovernorConfig::default()),
                ..ClusterConfig::default()
            },
            corpus: CorpusSpec::default(),
        }
    }
}

/// Per-class outcome counters and latency samples.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// Arrivals generated for this class.
    pub issued: u64,
    /// 200-class responses served fresh.
    pub ok: u64,
    /// Responses served from the degradation cache (`X-XQIB-Degraded`).
    pub degraded: u64,
    /// Shed with 503 + `Retry-After` (admission overflow or CoDel).
    pub shed: u64,
    /// Failed with 504 (deadline exceeded, no fallback).
    pub deadline_exceeded: u64,
    /// Updates applied but not made durable in time: 503 `XQIB0017`.
    pub ack_timeouts: u64,
    /// Other non-200 responses the handler itself produced.
    pub errors: u64,
    /// Requests the network lost before they reached the server.
    pub lost: u64,
    /// Network-injected error replies (the request never reached the
    /// server either).
    pub net_errors: u64,
    /// Replies truncated in flight (delivered, but cut off).
    pub truncated: u64,
    /// Arrival→response latency of every delivered response, virtual ms
    /// (includes network jitter; excludes lost requests).
    pub latencies: Vec<u64>,
}

impl ClassStats {
    /// Useful responses (fresh + degraded).
    pub fn goodput(&self) -> u64 {
        self.ok + self.degraded
    }
}

/// The simulation result. Two runs with identical configs compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    pub duration_ms: u64,
    /// Indexed by [`Class::index`].
    pub per_class: [ClassStats; 3],
    /// The cluster's final counters, overload included: what a `/metrics`
    /// scrape would serve.
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    pub fn class(&self, class: Class) -> &ClassStats {
        &self.per_class[class.index()]
    }

    pub fn issued(&self) -> u64 {
        self.per_class.iter().map(|c| c.issued).sum()
    }

    pub fn goodput(&self) -> u64 {
        self.per_class.iter().map(|c| c.goodput()).sum()
    }

    pub fn shed(&self) -> u64 {
        self.per_class.iter().map(|c| c.shed).sum()
    }

    /// Goodput rate in responses per virtual second.
    pub fn goodput_rps(&self) -> u64 {
        (self.goodput() * 1000)
            .checked_div(self.duration_ms)
            .unwrap_or(0)
    }

    /// p99 latency across every class, virtual ms.
    pub fn latency_p99(&self) -> u64 {
        let all: Vec<u64> = self
            .per_class
            .iter()
            .flat_map(|c| c.latencies.iter().copied())
            .collect();
        nearest_rank(&all, 99)
    }
}

/// The URL the `n`-th arrival of client `c` requests, drawn from the mix.
fn pick_url(cfg: &SimConfig, client: usize, n: u64) -> String {
    let mix = &cfg.clients[client].mix;
    let spec = &cfg.corpus;
    let total = (mix.page + mix.index + mix.doc + mix.query + mix.update).max(1);
    let key = cfg.seed ^ ((client as u64) << 40) ^ n.wrapping_mul(0x9e37);
    let draw = (mix64(key) % total as u64) as u32;
    let article = |salt: u64| {
        let d = mix64(key ^ salt);
        format!(
            "j{}-v{}-i{}-a{}",
            d % spec.journals.max(1) as u64,
            (d >> 8) % spec.volumes_per_journal.max(1) as u64,
            (d >> 16) % spec.issues_per_volume.max(1) as u64,
            (d >> 24) % spec.articles_per_issue.max(1) as u64,
        )
    };
    if draw < mix.page {
        format!("/page?article={}", article(1))
    } else if draw < mix.page + mix.index {
        "/index".to_string()
    } else if draw < mix.page + mix.index + mix.doc {
        "/doc?uri=corpus.xml".to_string()
    } else if draw < mix.page + mix.index + mix.doc + mix.query {
        format!(
            "/query?xq=count(doc('corpus.xml')//article[@id='{}']/references/reference)",
            article(2)
        )
    } else {
        // every update plants a uniquely identified marker node, so tests
        // can reconcile applied effects against 200 responses exactly
        format!(
            "/update?xq=insert node <sim-update id=\"c{client}n{n}\"/> into doc('corpus.xml')/*"
        )
    }
}

/// Runs the simulation to completion and reports per-class outcome
/// counters, latency percentiles and the cluster's final metrics. Returns
/// the cluster too, so tests can reconcile observed responses against its
/// state (applied update effects, durable disk images, `/metrics`).
/// Panics if the generated corpus does not load (a disk fault plan may
/// refuse it): a run over an empty cluster measures nothing.
pub fn run_sim(cfg: &SimConfig) -> (SimReport, Cluster) {
    let mut c = Cluster::new(cfg.cluster.clone());
    let loaded = c.load(render::CORPUS_URI, &generate_corpus(&cfg.corpus));
    assert!(loaded.is_some(), "the generated corpus does not load");

    // --- generate every arrival's URL on the shared virtual clock ----------
    let mut clock: EventLoop<String> = EventLoop::new();
    let mut per_class: [ClassStats; 3] = Default::default();
    for (client, spec) in cfg.clients.iter().enumerate() {
        let mut n = 0u64;
        let mut sec_start = 0u64;
        while sec_start < cfg.duration_ms {
            let window = (cfg.duration_ms - sec_start).min(1000);
            let rate = spec.pattern.rate_at(sec_start, cfg.duration_ms);
            // arrivals spread evenly across the second (open loop)
            let in_window = rate * window / 1000;
            for k in 0..in_window {
                let at = sec_start + k * window / in_window.max(1);
                clock.schedule(at, pick_url(cfg, client, n));
                n += 1;
            }
            sec_start += window;
        }
    }

    // --- drive arrivals through the fault layer into the cluster ----------
    // id → (net jitter, the fault its reply meets)
    let mut inflight: HashMap<u64, (u64, Option<Fault>)> = HashMap::new();
    let complete = |c: ClusterCompletion, (jitter, fault), stats: &mut [ClassStats; 3]| {
        let s = &mut stats[c.class.index()];
        if matches!(fault, Some(Fault::ReplyLost)) {
            // served, but the reply vanished: the client sees a loss
            s.lost += 1;
            return;
        }
        s.latencies.push(c.finished - c.arrival + jitter);
        if matches!(fault, Some(Fault::Truncate)) {
            s.truncated += 1;
        }
        match c.outcome {
            ClusterOutcome::Degraded => s.degraded += 1,
            ClusterOutcome::Shed => s.shed += 1,
            ClusterOutcome::DeadlineExceeded => s.deadline_exceeded += 1,
            ClusterOutcome::AckTimeout => s.ack_timeouts += 1,
            _ if c.response.status == 200 => s.ok += 1,
            _ => s.errors += 1,
        }
    };

    let mut req_index = 0u64;
    let mut now = 0;
    while let Some(url) = clock.pop() {
        now = clock.now();
        let class = Class::of_url(&url);
        per_class[class.index()].issued += 1;
        let (fault, jitter) = match &cfg.net_fault {
            Some(plan) => plan.decide(req_index, now),
            None => (None, 0),
        };
        req_index += 1;
        match fault {
            Some(Fault::Timeout) => {
                // lost on the wire: the server never sees it
                per_class[class.index()].lost += 1;
                continue;
            }
            Some(Fault::Error(_)) => {
                // answered by the (virtual) front network, not the server
                per_class[class.index()].net_errors += 1;
                continue;
            }
            // ReplyLost still reaches the server: the request is admitted
            // and served, the client just never sees the reply — for the
            // open-loop report it lands in the lost column.
            Some(Fault::Truncate) | Some(Fault::ReplyLost) | None => {}
        }
        match c.submit(&url, now) {
            // shed at admission: the governor's own reply, unfaulted
            Submitted::Done(d) if d.outcome == ClusterOutcome::Shed => {
                complete(*d, (jitter, None), &mut per_class);
            }
            Submitted::Done(d) => complete(*d, (jitter, fault), &mut per_class),
            Submitted::Pending(id) => {
                inflight.insert(id, (jitter, fault));
            }
        }
        for d in c.advance(now) {
            let net = inflight.remove(&d.id).unwrap_or_default();
            complete(d, net, &mut per_class);
        }
    }
    for d in c.quiesce(now).1 {
        let net = inflight.remove(&d.id).unwrap_or_default();
        complete(d, net, &mut per_class);
    }
    debug_assert!(inflight.is_empty(), "every admitted request completed");

    let report = SimReport {
        duration_ms: cfg.duration_ms,
        per_class,
        metrics: c.metrics_snapshot(),
    };
    (report, c)
}

// ---------------------------------------------------------------------
// Cluster chaos scenarios
// ---------------------------------------------------------------------

/// A replicated-cluster chaos experiment: seeded open-loop updates and
/// reads against a [`Cluster`], through partitions, in-flight shipment
/// truncation and scheduled leader crashes. Deterministic per seed.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    pub seed: u64,
    /// Arrivals are generated for this long; the backlog (pending acks,
    /// failovers, resyncs) is always drained to completion afterwards.
    pub duration_ms: u64,
    /// Documents `d0.xml … d{docs-1}.xml` spread across the ring.
    pub docs: usize,
    /// Update arrivals per virtual second (across all clients).
    pub update_rps: u64,
    /// `/doc` read arrivals per virtual second.
    pub read_rps: u64,
    pub cluster: ClusterConfig,
    /// Leader crashes, partitions and topology changes for the run.
    pub chaos: ClusterChaos,
    /// How long the simulated clients cache a document's owner before
    /// re-resolving. `0` = always-fresh routing (no stale 421s). A
    /// positive value exercises the fencing path: stale clients hit the
    /// old owner, get 421 + the new epoch, re-resolve and retry.
    pub route_refresh_ms: u64,
}

impl ClusterSimConfig {
    /// A small steady cluster run — the starting point tests tweak.
    pub fn steady(seed: u64, duration_ms: u64) -> Self {
        ClusterSimConfig {
            seed,
            duration_ms,
            docs: 8,
            update_rps: 40,
            read_rps: 60,
            cluster: ClusterConfig {
                seed,
                ..ClusterConfig::default()
            },
            chaos: ClusterChaos::default(),
            route_refresh_ms: 0,
        }
    }
}

/// One issued update's fate, for exact reconciliation: an `acked` entry's
/// marker must exist in the owning shard's state, now and after any
/// number of failovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    pub marker: String,
    pub uri: String,
    pub acked: bool,
    /// The shard whose leader applied the update, taken from its
    /// completion (the shard `serve_at` ran it on, so this is exact).
    pub shard: usize,
    /// The topology epoch at acceptance time.
    pub epoch: TopologyEpoch,
}

/// The cluster simulation result. Two runs with identical configs compare
/// equal, bit for bit.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    pub issued_updates: u64,
    pub issued_reads: u64,
    /// Updates durably acked per the replication ack rule (HTTP 200).
    pub acked_updates: u64,
    /// Updates refused because their leader died before the ack rule held.
    pub lost_in_failover: u64,
    /// Updates that timed out waiting for follower acks.
    pub ack_timeouts: u64,
    /// Requests refused during a blackout (no degraded path).
    pub no_leader: u64,
    /// Non-200 responses the leader's handler or its governor produced.
    pub errors: u64,
    /// Reads served 200 (fresh, follower or degraded).
    pub reads_ok: u64,
    /// … of which served by an in-sync follower.
    pub follower_reads: u64,
    /// … of which served stale during a blackout.
    pub degraded_reads: u64,
    /// 421 refusals still standing after the route cache's one retry
    /// (must stay 0: every fence is chased).
    pub misrouted: u64,
    /// Ack latency percentiles over acked updates, virtual ms.
    pub ack_latency_p50: u64,
    pub ack_latency_p99: u64,
    /// Every issued update, in issue order, with its final fate.
    pub updates: Vec<UpdateRecord>,
    pub stats: ReplicationStats,
    /// Anti-entropy scrub / verified-repair counters at end of run.
    pub integrity: IntegrityStats,
    /// 421 fences stale clients hit, each chased by a re-resolve and a
    /// retry ([`RouteCache::reroutes`]).
    pub reroutes: u64,
    /// The topology epoch when the run settled.
    pub final_epoch: TopologyEpoch,
    /// Resharding counters at end of run.
    pub reshard: ReshardStats,
}

impl ClusterReport {
    /// Checks the headline invariant against live cluster state: every
    /// acked update's marker is present in its owning shard's document.
    /// Returns the markers that are missing (empty = invariant holds).
    pub fn missing_acked_updates(&self, cluster: &Cluster) -> Vec<String> {
        self.updates
            .iter()
            .filter(|u| u.acked && !cluster.holds_marker(&u.uri, &u.marker))
            .map(|u| u.marker.clone())
            .collect()
    }

    /// Checks the fencing invariant: within one topology epoch, only one
    /// shard may ever accept updates for a document. Returns the
    /// `(uri, epoch)` pairs accepted by more than one shard (empty = the
    /// cutover fence held across every interleaving).
    pub fn dual_owner_violations(&self) -> Vec<String> {
        let mut by_key: HashMap<(String, TopologyEpoch), Vec<usize>> = HashMap::new();
        for u in self.updates.iter().filter(|u| u.acked) {
            let shards = by_key.entry((u.uri.clone(), u.epoch)).or_default();
            if !shards.contains(&u.shard) {
                shards.push(u.shard);
            }
        }
        let mut bad: Vec<String> = by_key
            .into_iter()
            .filter(|(_, shards)| shards.len() > 1)
            .map(|((uri, epoch), shards)| format!("{uri}@e{epoch}: shards {shards:?}"))
            .collect();
        bad.sort();
        bad
    }
}

/// Runs the cluster chaos scenario to completion. Returns the report and
/// the cluster itself so tests can keep tormenting it (crash every
/// leader, re-verify the ledger) after the run.
pub fn run_cluster_sim(cfg: &ClusterSimConfig) -> (ClusterReport, Cluster) {
    let mut c = Cluster::new(cfg.cluster.clone());
    let docs = cfg.docs.max(1);
    for i in 0..docs {
        let _ = c.load(&format!("d{i}.xml"), &format!("<root doc=\"{i}\"/>"));
    }
    c.schedule(&cfg.chaos);
    let mut report = ClusterReport::default();
    let mut routes = RouteCache::new(cfg.route_refresh_ms);
    // completion id → ledger index, for updates
    let mut in_flight: HashMap<u64, usize> = HashMap::new();
    let mut ack_latencies: Vec<u64> = Vec::new();
    let settle = |done: ClusterCompletion,
                  report: &mut ClusterReport,
                  in_flight: &mut HashMap<u64, usize>,
                  lat: &mut Vec<u64>| {
        let ledger = in_flight.remove(&done.id);
        if let Some(ix) = ledger {
            report.updates[ix].shard = done.shard;
        }
        match done.outcome {
            ClusterOutcome::AckedUpdate => {
                report.acked_updates += 1;
                lat.push(done.finished - done.arrival);
                if let Some(ix) = ledger {
                    report.updates[ix].acked = true;
                }
            }
            ClusterOutcome::LostInFailover => report.lost_in_failover += 1,
            ClusterOutcome::AckTimeout => report.ack_timeouts += 1,
            ClusterOutcome::NoLeader => report.no_leader += 1,
            ClusterOutcome::Misrouted => report.misrouted += 1,
            ClusterOutcome::FollowerRead => {
                report.follower_reads += 1;
                report.reads_ok += 1;
            }
            ClusterOutcome::DegradedRead => {
                report.degraded_reads += 1;
                report.reads_ok += 1;
            }
            ClusterOutcome::Degraded => report.reads_ok += 1,
            ClusterOutcome::Shed | ClusterOutcome::DeadlineExceeded => report.errors += 1,
            ClusterOutcome::Served => {
                if done.response.status == 200 {
                    if done.class == Class::Render || done.class == Class::Query {
                        report.reads_ok += 1;
                    }
                } else {
                    report.errors += 1;
                }
            }
        }
    };
    let (mut un, mut rn) = (0u64, 0u64);
    for now in 0..=cfg.duration_ms {
        while un < cfg.update_rps * now / 1000 {
            let uri = format!(
                "d{}.xml",
                mix64(cfg.seed ^ un.wrapping_mul(0x51ab)) % docs as u64
            );
            let marker = format!("u{un}");
            let url = format!(
                "/update?xq=insert node <sim-update id=\"{marker}\"/> into doc(\"{uri}\")/*"
            );
            report.issued_updates += 1;
            let submitted = routes.serve(&mut c, &url, now);
            // `settle` fills in the shard that actually served it
            report.updates.push(UpdateRecord {
                marker,
                shard: 0,
                uri,
                acked: false,
                epoch: c.epoch(),
            });
            let ix = report.updates.len() - 1;
            match submitted {
                Submitted::Pending(id) => {
                    in_flight.insert(id, ix);
                }
                Submitted::Done(done) => {
                    in_flight.insert(done.id, ix);
                    settle(*done, &mut report, &mut in_flight, &mut ack_latencies);
                }
            }
            un += 1;
        }
        while rn < cfg.read_rps * now / 1000 {
            let uri = format!("d{}.xml", mix64(cfg.seed ^ 0xbead ^ rn) % docs as u64);
            report.issued_reads += 1;
            if let Submitted::Done(done) = routes.serve(&mut c, &format!("/doc?uri={uri}"), now) {
                settle(*done, &mut report, &mut in_flight, &mut ack_latencies);
            }
            rn += 1;
        }
        for done in c.advance(now) {
            settle(done, &mut report, &mut in_flight, &mut ack_latencies);
        }
    }
    let (_, rest) = c.quiesce(cfg.duration_ms + 1);
    for done in rest {
        settle(done, &mut report, &mut in_flight, &mut ack_latencies);
    }
    report.ack_latency_p50 = nearest_rank(&ack_latencies, 50);
    report.ack_latency_p99 = nearest_rank(&ack_latencies, 99);
    report.reroutes = routes.reroutes;
    report.stats = c.stats();
    report.integrity = c.integrity_stats();
    report.final_epoch = c.epoch();
    report.reshard = c.reshard_stats();
    (report, c)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use xqib_storage::StorageFaultPlan;

    #[test]
    fn patterns_compute_rates() {
        let steady = ArrivalPattern::Steady { rps: 10 };
        assert_eq!(steady.rate_at(0, 5000), 10);
        let burst = ArrivalPattern::Burst {
            base_rps: 5,
            burst_rps: 50,
            from_ms: 1000,
            to_ms: 3000,
        };
        assert_eq!(burst.rate_at(0, 5000), 5);
        assert_eq!(burst.rate_at(1000, 5000), 50);
        assert_eq!(burst.rate_at(2999, 5000), 50);
        assert_eq!(burst.rate_at(3000, 5000), 5);
        let ramp = ArrivalPattern::Ramp {
            from_rps: 0,
            to_rps: 100,
        };
        assert_eq!(ramp.rate_at(0, 10_000), 0);
        assert_eq!(ramp.rate_at(5_000, 10_000), 50);
        assert_eq!(ramp.rate_at(10_000, 10_000), 100);
        let down = ArrivalPattern::Ramp {
            from_rps: 100,
            to_rps: 0,
        };
        assert_eq!(down.rate_at(5_000, 10_000), 50);
    }

    /// An acked `u1` lost from a document that still holds `u10` is
    /// missing: markers match as whole `id` attributes, not substrings.
    #[test]
    fn a_lost_marker_is_missing_beside_a_longer_one() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster
            .load("d.xml", r#"<root><sim-update id="u10"/></root>"#)
            .unwrap();
        let acked = |marker: &str| UpdateRecord {
            marker: marker.to_string(),
            uri: "d.xml".to_string(),
            acked: true,
            shard: 0,
            epoch: 0,
        };
        let report = ClusterReport {
            updates: vec![acked("u1"), acked("u10")],
            ..ClusterReport::default()
        };
        assert_eq!(report.missing_acked_updates(&cluster), vec!["u1"]);
    }

    #[test]
    fn steady_under_capacity_is_all_goodput() {
        let report = run_sim(&SimConfig::steady(7, 5, 4_000)).0;
        assert_eq!(report.issued(), 20);
        assert_eq!(report.shed(), 0, "{report:?}");
        assert_eq!(report.metrics.overload.shed(), 0);
        assert_eq!(report.metrics.overload.degraded, 0);
        assert_eq!(report.goodput() + report.errors(), 20);
        assert!(report.metrics.overload.admitted >= 20);
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let mut cfg = SimConfig::steady(42, 30, 3_000);
        cfg.net_fault = Some(
            FaultPlan::seeded(9)
                .with_timeout_permille(50)
                .with_error_permille(50)
                .with_jitter_ms(20),
        );
        cfg.cluster.disk_fault = Some(StorageFaultPlan::seeded(11));
        let a = run_sim(&cfg).0;
        let b = run_sim(&cfg).0;
        assert_eq!(a, b);
        // a different seed explores a different trajectory
        cfg.seed = 43;
        let c = run_sim(&cfg).0;
        assert_ne!(a, c);
    }

    #[test]
    fn overload_burst_sheds_under_governance() {
        let mut cfg = SimConfig::steady(3, 10, 6_000);
        cfg.clients[0].pattern = ArrivalPattern::Burst {
            base_rps: 10,
            burst_rps: 200,
            from_ms: 1_000,
            to_ms: 3_000,
        };
        let report = run_sim(&cfg).0;
        assert!(report.shed() > 0, "the burst must overwhelm the queue");
        assert!(
            report.goodput() > 0,
            "shedding keeps the server making progress"
        );
        assert_eq!(report.metrics.overload.shed(), report.shed());
    }

    impl SimReport {
        fn errors(&self) -> u64 {
            self.per_class
                .iter()
                .map(|c| c.errors + c.ack_timeouts + c.deadline_exceeded)
                .sum()
        }
    }

    #[test]
    fn cluster_sim_is_deterministic_per_seed() {
        let cfg = ClusterSimConfig::steady(11, 1_500);
        let (a, _) = run_cluster_sim(&cfg);
        let (b, _) = run_cluster_sim(&cfg);
        assert_eq!(a, b, "identical seeds must give bit-identical reports");
        assert!(a.issued_updates > 0 && a.acked_updates > 0);
        assert_eq!(a.misrouted, 0, "submit always routes to the owner");
        let (c, _) = run_cluster_sim(&ClusterSimConfig::steady(12, 1_500));
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn cluster_sim_crash_mid_run_loses_no_acked_update() {
        let mut cfg = ClusterSimConfig::steady(21, 2_500);
        cfg.cluster.followers = 2;
        cfg.cluster.ack_replicas = 1;
        cfg.chaos.leader_crashes = vec![(1_200, 0), (1_400, 1)];
        let (report, cluster) = run_cluster_sim(&cfg);
        assert_eq!(report.stats.failovers, 2, "both shards must fail over");
        assert!(report.acked_updates > 0);
        assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "every acked update must survive the failovers"
        );
    }

    #[test]
    fn cluster_sim_partition_forces_timeouts_or_degraded_service() {
        let mut cfg = ClusterSimConfig::steady(31, 2_000);
        cfg.cluster.followers = 1;
        cfg.cluster.ack_replicas = 1;
        cfg.cluster.ack_timeout_ms = 300;
        // the only follower is dark for most of the run: updates cannot
        // satisfy the ack rule while the partition holds
        cfg.chaos.partitions = vec![(0, 1, 0, 1_500), (1, 1, 0, 1_500)];
        let (report, cluster) = run_cluster_sim(&cfg);
        assert!(
            report.ack_timeouts > 0,
            "partitioned followers must starve acks: {report:?}"
        );
        assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "acked updates still all present"
        );
    }
}
