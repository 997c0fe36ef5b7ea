//! The deterministic open-loop simulator: seeded virtual clients with
//! arrival-rate schedules drive a [`Cluster`] through virtual time. One
//! driver runs every open-loop experiment: overload (one shard, no
//! followers, its leader behind a request governor), failover, latent
//! decay under scrubbing, and live resharding (the leader crashes,
//! partitions and topology changes of a [`ClusterChaos`]). Requests may
//! cross the browser substrate's network fault layer ([`FaultPlan`]), and
//! seat disks may carry storage faults ([`ClusterConfig::disk_fault`]).
//!
//! Open-loop load: arrivals follow each client's schedule regardless of how
//! the server is doing (the overload-realistic model — real users keep
//! clicking). Each virtual millisecond issues every client's due arrivals,
//! in client order, through one [`RouteCache`], then advances the cluster;
//! [`Cluster::quiesce`] drains the backlog at the end. Every completion is
//! tallied once, per class and by [`ClusterOutcome`], and every update
//! that reaches the cluster enters a ledger the invariants are checked
//! against. A whole run follows from its config: identical configs
//! produce identical reports, bit for bit.

use std::collections::HashMap;

use xqib_browser::net::{Fault, FaultPlan};
use xqib_storage::mix64;

use crate::cluster::{
    Cluster, ClusterChaos, ClusterCompletion, ClusterConfig, ClusterOutcome, RouteCache, Submitted,
    TopologyEpoch,
};
use crate::corpus::{article_ids, generate_corpus, CorpusSpec};
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
    /// How many arrivals are due by virtual ms `now` of a run lasting
    /// `duration_ms`: the rate integrated from 0 to `now`, rounded down, so
    /// a steady client has issued exactly `rps·now/1000`.
    fn arrivals_by(&self, now: u64, duration_ms: u64) -> u64 {
        match *self {
            ArrivalPattern::Steady { rps } => rps * now / 1000,
            ArrivalPattern::Burst {
                base_rps,
                burst_rps,
                from_ms,
                to_ms,
            } => {
                let burst = now.clamp(from_ms, to_ms.max(from_ms)) - from_ms;
                (base_rps * (now - burst) + burst_rps * burst) / 1000
            }
            ArrivalPattern::Ramp { from_rps, to_rps } => {
                // from·t + (to − from)·t²/(2·duration), over 1000 ms
                let (from, to) = (i128::from(from_rps), i128::from(to_rps));
                let (t, d) = (i128::from(now), i128::from(duration_ms.max(1)));
                ((2 * d * from * t + (to - from) * t * t) / (2000 * d)) as u64
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

impl ClientSpec {
    /// A steady client that only sends `/update`s, each planting a marker
    /// node in a document drawn from the run's set.
    pub fn updates(rps: u64) -> Self {
        ClientSpec {
            pattern: ArrivalPattern::Steady { rps },
            mix: RouteMix {
                page: 0,
                index: 0,
                doc: 0,
                query: 0,
                update: 1,
            },
        }
    }

    /// A steady client that only fetches whole documents (`/doc`) drawn
    /// from the run's set.
    pub fn doc_reads(rps: u64) -> Self {
        ClientSpec {
            pattern: ArrivalPattern::Steady { rps },
            mix: RouteMix {
                page: 0,
                index: 0,
                doc: 1,
                query: 0,
                update: 0,
            },
        }
    }
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: route choices, targets and update payloads all derive
    /// from it.
    pub seed: u64,
    /// Arrivals are generated for this long; the backlog (queued requests,
    /// pending acks, failovers, migrations) is always drained to completion
    /// afterwards.
    pub duration_ms: u64,
    pub clients: Vec<ClientSpec>,
    /// `(uri, xml)` documents loaded before the first arrival. `/doc` and
    /// `/update` arrivals target one of them; `/page`, `/index` and
    /// `/query` arrivals address the default generated corpus
    /// (`corpus.xml`) and its articles.
    pub docs: Vec<(String, String)>,
    /// The deployment under load. Its `governor` puts each shard leader
    /// behind the overload-control arm (`GovernorConfig::default()`) or the
    /// ungoverned baseline (`GovernorConfig::unbounded()`: unbounded FIFO,
    /// no deadlines, no shedding); `disk_fault` puts storage faults under
    /// it.
    pub cluster: ClusterConfig,
    /// Leader crashes, partitions and topology changes for the run.
    pub chaos: ClusterChaos,
    /// How long the clients cache a document's owner before re-resolving.
    /// `0` = always-fresh routing (no stale 421s). A positive value
    /// exercises the fencing path: stale clients hit the old owner, get
    /// 421 + the new epoch, re-resolve and retry.
    pub route_refresh_ms: u64,
    /// Client→server network faults (lost requests, injected errors,
    /// truncations, latency jitter), decided per arrival index in virtual
    /// time by the browser substrate's fault model.
    pub net_fault: Option<FaultPlan>,
}

impl SimConfig {
    /// A small governed steady-state run over the generated corpus, on one
    /// shard with no followers — the overload starting point tests tweak.
    pub fn steady(seed: u64, rps: u64, duration_ms: u64) -> Self {
        SimConfig {
            seed,
            duration_ms,
            clients: vec![ClientSpec {
                pattern: ArrivalPattern::Steady { rps },
                mix: RouteMix::default(),
            }],
            docs: vec![(
                render::CORPUS_URI.to_string(),
                generate_corpus(&CorpusSpec::default()),
            )],
            cluster: ClusterConfig {
                seed,
                shards: 1,
                followers: 0,
                ack_replicas: 0,
                governor: Some(GovernorConfig::default()),
                ..ClusterConfig::default()
            },
            chaos: ClusterChaos::default(),
            route_refresh_ms: 0,
            net_fault: None,
        }
    }

    /// A small replicated run: updates at 40/s (client 0) and `/doc` reads
    /// at 60/s (client 1) over [`root_docs`](Self::root_docs)`(8)` on a
    /// default cluster — the failover, scrub and reshard starting point.
    pub fn replicated(seed: u64, duration_ms: u64) -> Self {
        SimConfig {
            seed,
            duration_ms,
            clients: vec![ClientSpec::updates(40), ClientSpec::doc_reads(60)],
            docs: SimConfig::root_docs(8),
            cluster: ClusterConfig {
                seed,
                ..ClusterConfig::default()
            },
            chaos: ClusterChaos::default(),
            route_refresh_ms: 0,
            net_fault: None,
        }
    }

    /// `d0.xml … d{n-1}.xml`, each a bare `<root doc="i"/>`.
    pub fn root_docs(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| (format!("d{i}.xml"), format!("<root doc=\"{i}\"/>")))
            .collect()
    }
}

/// One class's arrivals and what became of them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// Arrivals generated for this class.
    pub issued: u64,
    /// Delivered responses by outcome, indexed by [`ClusterOutcome::index`].
    pub outcomes: [u64; ClusterOutcome::COUNT],
    /// … of which `Served` with a status other than 200: the handler's own
    /// errors.
    pub errors: u64,
    /// Requests the network lost before they reached the server, and
    /// replies it lost on the way back.
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
    /// Delivered responses with `outcome`.
    pub fn outcome(&self, outcome: ClusterOutcome) -> u64 {
        self.outcomes[outcome.index()]
    }

    /// Every delivered response.
    pub fn delivered(&self) -> u64 {
        self.outcomes.iter().sum()
    }

    /// Useful responses: every 200, whether fresh, from a follower, acked
    /// or degraded.
    pub fn goodput(&self) -> u64 {
        use ClusterOutcome::{AckedUpdate, Degraded, DegradedRead, FollowerRead, Served};
        let ok = [Served, FollowerRead, DegradedRead, AckedUpdate, Degraded];
        ok.into_iter().map(|o| self.outcome(o)).sum::<u64>() - self.errors
    }
}

/// One update that reached the cluster, for exact reconciliation: an
/// acked entry's marker must exist in the owning shard's state, now and
/// after any number of failovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    pub marker: String,
    pub uri: String,
    /// Arrival→ack, virtual ms, if the update was durably acked per the
    /// replication ack rule (HTTP 200); `None` otherwise.
    pub ack_latency: Option<u64>,
    /// The shard whose leader applied the update, taken from its
    /// completion (the shard `serve_at` ran it on, so this is exact).
    pub shard: usize,
    /// The topology epoch at acceptance time.
    pub epoch: TopologyEpoch,
}

/// The simulation result. Two runs with identical configs compare equal,
/// bit for bit.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimReport {
    pub duration_ms: u64,
    /// Indexed by [`Class::index`].
    pub per_class: [ClassStats; 3],
    /// Every update that reached the cluster, in issue order, with its
    /// final fate.
    pub updates: Vec<UpdateRecord>,
    /// 421 fences stale clients hit, each chased by a re-resolve and a
    /// retry ([`RouteCache::reroutes`]).
    pub reroutes: u64,
    /// The topology epoch when the run settled.
    pub final_epoch: TopologyEpoch,
    /// The cluster's final counters — overload, replication, integrity and
    /// resharding included: what a `/metrics` scrape would serve.
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    pub fn class(&self, class: Class) -> &ClassStats {
        &self.per_class[class.index()]
    }

    /// Delivered responses with `outcome`, across classes.
    pub fn outcome(&self, outcome: ClusterOutcome) -> u64 {
        self.per_class.iter().map(|c| c.outcome(outcome)).sum()
    }

    pub fn issued(&self) -> u64 {
        self.per_class.iter().map(|c| c.issued).sum()
    }

    pub fn goodput(&self) -> u64 {
        self.per_class.iter().map(ClassStats::goodput).sum()
    }

    pub fn shed(&self) -> u64 {
        self.outcome(ClusterOutcome::Shed)
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

    /// The `pct`-th percentile ack latency over acked updates, virtual ms.
    pub fn ack_latency(&self, pct: u64) -> u64 {
        let acked: Vec<u64> = self.updates.iter().filter_map(|u| u.ack_latency).collect();
        nearest_rank(&acked, pct)
    }

    /// Checks conservation: every arrival is counted exactly once — lost
    /// on the wire, answered by the fault layer, or delivered under one
    /// outcome with one latency sample — and the shard governors' books
    /// agree with the client-side tally. Returns what does not balance
    /// (empty = invariant holds).
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for class in Class::ALL {
            let c = self.class(class);
            let (delivered, samples) = (c.delivered(), c.latencies.len() as u64);
            if c.issued != delivered + c.lost + c.net_errors || samples != delivered {
                let (name, issued, lost) = (class.name(), c.issued, c.lost);
                bad.push(format!(
                    "{name}: issued {issued}, delivered {delivered} ({samples} latencies), \
                     lost {lost}, net errors {}",
                    c.net_errors
                ));
            }
        }
        let books = &self.metrics.overload;
        for (outcome, counted) in [
            (ClusterOutcome::Shed, books.shed()),
            (ClusterOutcome::Degraded, books.degraded),
            (ClusterOutcome::DeadlineExceeded, books.deadline_exceeded),
        ] {
            if counted != self.outcome(outcome) {
                bad.push(format!(
                    "{outcome:?}: governors count {counted}, clients {}",
                    self.outcome(outcome)
                ));
            }
        }
        bad
    }

    /// Checks the headline invariant against live cluster state: every
    /// acked update's marker is present in its owning shard's document.
    /// Returns the markers that are missing (empty = invariant holds).
    pub fn missing_acked_updates(&self, cluster: &Cluster) -> Vec<String> {
        self.updates
            .iter()
            .filter(|u| u.ack_latency.is_some() && !cluster.holds_marker(&u.uri, &u.marker))
            .map(|u| u.marker.clone())
            .collect()
    }

    /// Checks the fencing invariant: within one topology epoch, only one
    /// shard may ever accept updates for a document. Returns the
    /// `(uri, epoch)` pairs accepted by more than one shard (empty = the
    /// cutover fence held across every interleaving).
    pub fn dual_owner_violations(&self) -> Vec<String> {
        let mut by_key: HashMap<(String, TopologyEpoch), Vec<usize>> = HashMap::new();
        for u in self.updates.iter().filter(|u| u.ack_latency.is_some()) {
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

    /// Tallies completions of requests that pended: each must still be in
    /// flight, so none completes twice.
    fn settle_pending(&mut self, flights: &mut HashMap<u64, Flight>, done: Vec<ClusterCompletion>) {
        for d in done {
            let flight = flights.remove(&d.id);
            let flight = flight.unwrap_or_else(|| panic!("request {} completed twice", d.id));
            self.settle(d, flight);
        }
    }

    /// Tallies one completion as the client side of `flight` sees it.
    fn settle(&mut self, done: ClusterCompletion, flight: Flight) {
        if let Some(ix) = flight.ledger {
            let u = &mut self.updates[ix];
            u.shard = done.shard;
            if done.outcome == ClusterOutcome::AckedUpdate {
                u.ack_latency = Some(done.finished - done.arrival);
            }
        }
        let s = &mut self.per_class[done.class.index()];
        if flight.fault == Some(Fault::ReplyLost) {
            // served, but the reply vanished: the client sees a loss
            s.lost += 1;
            return;
        }
        s.latencies
            .push(done.finished - done.arrival + flight.jitter);
        s.truncated += u64::from(flight.fault == Some(Fault::Truncate));
        s.outcomes[done.outcome.index()] += 1;
        s.errors +=
            u64::from(done.outcome == ClusterOutcome::Served && done.response.status != 200);
    }
}

/// What the client side knows of a request in flight.
#[derive(Debug, Clone, Copy)]
struct Flight {
    /// Network jitter added to its latency.
    jitter: u64,
    /// The fault its reply meets.
    fault: Option<Fault>,
    /// Its entry in the update ledger.
    ledger: Option<usize>,
}

/// Draws each arrival's URL. `/doc` and `/update` count their own arrivals
/// across clients, and draw the target document from that count.
struct Arrivals<'a> {
    cfg: &'a SimConfig,
    articles: Vec<String>,
    doc_reads: u64,
    updates: u64,
}

impl Arrivals<'_> {
    /// The `n`-th arrival of client `client`: its URL, and for an update
    /// the `(uri, marker)` its ledger entry records.
    fn next(&mut self, client: usize, n: u64) -> (String, Option<(String, String)>) {
        let cfg = self.cfg;
        let mix = &cfg.clients[client].mix;
        let total = (mix.page + mix.index + mix.doc + mix.query + mix.update).max(1);
        let key = cfg.seed ^ ((client as u64) << 40) ^ n.wrapping_mul(0x9e37);
        let draw = (mix64(key) % u64::from(total)) as u32;
        let articles = &self.articles;
        let article = |salt: u64| &articles[(mix64(key ^ salt) % articles.len() as u64) as usize];
        let doc = |d: u64| cfg.docs[(d % cfg.docs.len() as u64) as usize].0.clone();
        if draw < mix.page {
            (format!("/page?article={}", article(1)), None)
        } else if draw < mix.page + mix.index {
            ("/index".to_string(), None)
        } else if draw < mix.page + mix.index + mix.doc {
            let uri = doc(mix64(cfg.seed ^ 0xbead ^ self.doc_reads));
            self.doc_reads += 1;
            (format!("/doc?uri={uri}"), None)
        } else if draw < mix.page + mix.index + mix.doc + mix.query {
            let xq = format!(
                "count(doc('corpus.xml')//article[@id='{}']/references/reference)",
                article(2)
            );
            (format!("/query?xq={xq}"), None)
        } else {
            // every update plants a uniquely identified marker node, so the
            // ledger reconciles acked updates against the cluster exactly
            let uri = doc(mix64(cfg.seed ^ self.updates.wrapping_mul(0x51ab)));
            let marker = format!("u{}", self.updates);
            self.updates += 1;
            let url = format!(
                "/update?xq=insert node <sim-update id=\"{marker}\"/> into doc(\"{uri}\")/*"
            );
            (url, Some((uri, marker)))
        }
    }
}

/// Runs the simulation to completion and reports per-class outcome
/// counters, latencies, the update ledger and the cluster's final metrics.
/// Returns the cluster too, so tests can reconcile observed responses
/// against its state (applied update effects, durable disk images,
/// `/metrics`) and keep tormenting it (crash every leader, re-verify the
/// ledger). Panics if a document does not load (a disk fault plan may
/// refuse it): a run over a missing document measures nothing.
pub fn run_sim(cfg: &SimConfig) -> (SimReport, Cluster) {
    let mut c = Cluster::new(cfg.cluster.clone());
    assert!(!cfg.docs.is_empty(), "a run needs documents to target");
    for (uri, xml) in &cfg.docs {
        assert!(c.load(uri, xml).is_some(), "{uri} does not load");
    }
    c.schedule(&cfg.chaos);

    let mut report = SimReport {
        duration_ms: cfg.duration_ms,
        ..SimReport::default()
    };
    let mut arrivals = Arrivals {
        cfg,
        articles: article_ids(&CorpusSpec::default()),
        doc_reads: 0,
        updates: 0,
    };
    let mut routes = RouteCache::new(cfg.route_refresh_ms);
    let mut issued = vec![0u64; cfg.clients.len()];
    let mut sent = 0u64;
    // completion id → what its client knows of it
    let mut inflight: HashMap<u64, Flight> = HashMap::new();
    for now in 0..=cfg.duration_ms {
        for (client, spec) in cfg.clients.iter().enumerate() {
            while issued[client] < spec.pattern.arrivals_by(now, cfg.duration_ms) {
                let (url, update) = arrivals.next(client, issued[client]);
                issued[client] += 1;
                let stats = &mut report.per_class[Class::of_url(&url).index()];
                stats.issued += 1;
                let (fault, jitter) = match &cfg.net_fault {
                    Some(plan) => plan.decide(sent, now),
                    None => (None, 0),
                };
                sent += 1;
                match fault {
                    Some(Fault::Timeout) => {
                        // lost on the wire: the server never sees it
                        stats.lost += 1;
                        continue;
                    }
                    Some(Fault::Error(_)) => {
                        // answered by the (virtual) front network, not the server
                        stats.net_errors += 1;
                        continue;
                    }
                    // ReplyLost still reaches the server: the request is
                    // admitted and served, the client just never sees the
                    // reply — for the open-loop report it lands in the
                    // lost column.
                    Some(Fault::Truncate | Fault::ReplyLost) | None => {}
                }
                let submitted = routes.serve(&mut c, &url, now);
                let ledger = update.map(|(uri, marker)| {
                    // `settle` fills in the shard that actually served it
                    report.updates.push(UpdateRecord {
                        marker,
                        uri,
                        ack_latency: None,
                        shard: 0,
                        epoch: c.epoch(),
                    });
                    report.updates.len() - 1
                });
                // shed at admission: the governor's own reply, unfaulted
                let shed =
                    matches!(&submitted, Submitted::Done(d) if d.outcome == ClusterOutcome::Shed);
                let fault = fault.filter(|_| !shed);
                let flight = Flight {
                    jitter,
                    fault,
                    ledger,
                };
                match submitted {
                    Submitted::Done(d) => report.settle(*d, flight),
                    Submitted::Pending(id) => {
                        inflight.insert(id, flight);
                    }
                }
            }
        }
        report.settle_pending(&mut inflight, c.advance(now));
    }
    report.settle_pending(&mut inflight, c.quiesce(cfg.duration_ms + 1).1);
    assert!(
        inflight.is_empty(),
        "every admitted request completes: {} never did",
        inflight.len()
    );

    report.reroutes = routes.reroutes;
    report.final_epoch = c.epoch();
    report.metrics = c.metrics_snapshot();
    (report, c)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use xqib_storage::StorageFaultPlan;

    /// Each pattern's arrivals, integrated per millisecond.
    #[test]
    fn patterns_count_arrivals() {
        let steady = ArrivalPattern::Steady { rps: 10 };
        assert_eq!(steady.arrivals_by(99, 5000), 0);
        assert_eq!(steady.arrivals_by(100, 5000), 1);
        assert_eq!(steady.arrivals_by(5000, 5000), 50);
        let burst = ArrivalPattern::Burst {
            base_rps: 5,
            burst_rps: 50,
            from_ms: 1000,
            to_ms: 3000,
        };
        assert_eq!(burst.arrivals_by(1000, 5000), 5);
        assert_eq!(burst.arrivals_by(2000, 5000), 55);
        assert_eq!(burst.arrivals_by(3000, 5000), 105);
        assert_eq!(burst.arrivals_by(5000, 5000), 115);
        let ramp = ArrivalPattern::Ramp {
            from_rps: 0,
            to_rps: 100,
        };
        assert_eq!(ramp.arrivals_by(5_000, 10_000), 125);
        assert_eq!(ramp.arrivals_by(10_000, 10_000), 500);
        let down = ArrivalPattern::Ramp {
            from_rps: 100,
            to_rps: 0,
        };
        assert_eq!(down.arrivals_by(5_000, 10_000), 375);
        assert_eq!(down.arrivals_by(10_000, 10_000), 500);
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
            ack_latency: Some(1),
            shard: 0,
            epoch: 0,
        };
        let report = SimReport {
            updates: vec![acked("u1"), acked("u10")],
            ..SimReport::default()
        };
        assert_eq!(report.missing_acked_updates(&cluster), vec!["u1"]);
    }

    #[test]
    fn steady_under_capacity_is_all_goodput() {
        let report = run_sim(&SimConfig::steady(7, 5, 4_000)).0;
        assert_eq!(report.issued(), 20);
        assert_eq!(report.conservation_violations(), Vec::<String>::new());
        assert_eq!(report.shed(), 0, "{report:?}");
        assert_eq!(report.metrics.overload.shed(), 0);
        assert_eq!(report.metrics.overload.degraded, 0);
        assert_eq!(report.goodput(), 20);
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

    #[test]
    fn replicated_runs_are_deterministic_per_seed() {
        let cfg = SimConfig::replicated(11, 1_500);
        let (a, _) = run_sim(&cfg);
        let (b, _) = run_sim(&cfg);
        assert_eq!(a, b, "identical seeds must give bit-identical reports");
        assert!(a.class(Class::Update).issued > 0);
        assert!(a.outcome(ClusterOutcome::AckedUpdate) > 0);
        assert_eq!(
            a.outcome(ClusterOutcome::Misrouted),
            0,
            "fresh routes always reach the owner"
        );
        let (c, _) = run_sim(&SimConfig::replicated(12, 1_500));
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn replicated_crash_mid_run_loses_no_acked_update() {
        let mut cfg = SimConfig::replicated(21, 2_500);
        cfg.cluster.followers = 2;
        cfg.cluster.ack_replicas = 1;
        cfg.chaos.leader_crashes = vec![(1_200, 0), (1_400, 1)];
        let (report, cluster) = run_sim(&cfg);
        assert_eq!(
            report.metrics.replication.failovers, 2,
            "both shards must fail over"
        );
        assert!(report.outcome(ClusterOutcome::AckedUpdate) > 0);
        assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "every acked update must survive the failovers"
        );
    }

    #[test]
    fn replicated_partition_forces_timeouts_or_degraded_service() {
        let mut cfg = SimConfig::replicated(31, 2_000);
        cfg.cluster.followers = 1;
        cfg.cluster.ack_replicas = 1;
        cfg.cluster.ack_timeout_ms = 300;
        // the only follower is dark for most of the run: updates cannot
        // satisfy the ack rule while the partition holds
        cfg.chaos.partitions = vec![(0, 1, 0, 1_500), (1, 1, 0, 1_500)];
        let (report, cluster) = run_sim(&cfg);
        assert!(
            report.outcome(ClusterOutcome::AckTimeout) > 0,
            "partitioned followers must starve acks: {report:?}"
        );
        assert_eq!(
            report.missing_acked_updates(&cluster),
            Vec::<String>::new(),
            "acked updates still all present"
        );
    }
}
