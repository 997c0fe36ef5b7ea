//! The deterministic simulator: seeded virtual clients drive a [`Cluster`]
//! through virtual time. One driver runs every experiment: overload (one
//! shard, no followers, its leader behind a request governor), failover,
//! latent decay under scrubbing, live resharding (the leader crashes,
//! partitions and topology changes of a [`ClusterChaos`]), and the browser
//! fleet. Requests may cross the browser substrate's network fault layer
//! ([`FaultPlan`]), and seat disks may carry storage faults
//! ([`ClusterConfig::disk_fault`]).
//!
//! Two kinds of client share the run. Open-loop clients follow an arrival
//! schedule regardless of how the server is doing (the overload-realistic
//! model — real users keep clicking). Fleet browsers ([`crate::fleet`]) are
//! real XQIB plug-ins in a closed loop, each with the cluster as a deferred
//! host on its network: a `behind` fetch parks until its reply arrives.
//! Each virtual millisecond issues every open-loop client's due arrivals,
//! in client order, through one [`RouteCache`]; runs each browser's due
//! tasks; submits the requests the browsers sent, each through the
//! browser's own pinned `RouteCache`; advances the cluster; and delivers
//! each completion to its browser at `finished` + link latency. So one
//! browser's pending request never stops another's turn. Browsers that are
//! still mid-interaction at `duration_ms` keep the clock running until they
//! have their outcomes; [`Cluster::quiesce`] drains the backlog, and the
//! browsers render once more after chaos to show they converged.
//!
//! Every completion is tallied once, per class and by [`ClusterOutcome`],
//! and every update that reaches the cluster, a cart browser's included,
//! enters a ledger the invariants are checked against. A whole run follows
//! from its config: identical configs produce identical reports, bit for
//! bit.

use std::collections::HashMap;

use xqib_browser::net::{Deferred, Fault, FaultPlan};
use xqib_browser::RecoveryConfig;
use xqib_storage::mix64;

use crate::cluster::{
    Cluster, ClusterChaos, ClusterCompletion, ClusterConfig, ClusterOutcome, RouteCache, Submitted,
    TopologyEpoch,
};
use crate::corpus::{article_ids, generate_corpus, CorpusSpec};
use crate::fleet::{ClientReport, FleetBrowser, FleetStats, Scenario, CLUSTER_LATENCY_MS};
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
    /// Arrivals are generated, and browsers start interactions, for this
    /// long; the backlog (interactions under way, queued requests, pending
    /// acks, failovers, migrations) is always drained to completion
    /// afterwards.
    pub duration_ms: u64,
    /// Open-loop clients.
    pub clients: Vec<ClientSpec>,
    /// Closed-loop fleet browsers, one per entry, each running its §6
    /// scenario page.
    pub browsers: Vec<Scenario>,
    /// `(uri, xml)` documents loaded before the first arrival. `/doc` and
    /// `/update` arrivals target one of them; `/page`, `/index` and
    /// `/query` arrivals and Elsevier browsers address the default
    /// generated corpus (`corpus.xml`) and its articles. Browsers need the
    /// documents of [`fleet_docs`](crate::fleet::fleet_docs).
    pub docs: Vec<(String, String)>,
    /// The deployment under load. Its `governor` puts each shard leader
    /// behind the overload-control arm (`GovernorConfig::default()`) or the
    /// ungoverned baseline (`GovernorConfig::unbounded()`: unbounded, served
    /// in class-priority order, no deadlines, no shedding); `disk_fault`
    /// puts storage faults under it.
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
    /// time by the browser substrate's fault model. Each browser's link to
    /// the cluster carries the plan reseeded, and heals once chaos ends.
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
            browsers: Vec::new(),
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
            browsers: Vec::new(),
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
    /// When it reached the cluster, virtual ms.
    pub arrival: u64,
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
    /// The cluster's final counters — overload, replication, integrity,
    /// resharding and the fleet's totals included: what a `/metrics` scrape
    /// would serve.
    pub metrics: MetricsSnapshot,
    /// Each fleet browser's outcome, in [`SimConfig::browsers`] order.
    pub browsers: Vec<ClientReport>,
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
    /// The fleet browser that sent it, and the browser's ticket for it.
    browser: Option<(usize, u64)>,
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

/// Browsers still mid-interaction this long after the run's last start
/// mean a reply that never arrives: a driver fault.
const DRAIN_LIMIT_MS: u64 = 600_000;

/// Runs the simulation to completion and reports per-class outcome
/// counters, latencies, the update ledger, each browser's outcome and the
/// cluster's final metrics. Returns the cluster too, so tests can
/// reconcile observed responses against its state (applied update effects,
/// durable disk images, `/metrics`) and keep tormenting it (crash every
/// leader, re-verify the ledger). Panics if a document does not load (a
/// disk fault plan may refuse it): a run over a missing document measures
/// nothing.
pub fn run_sim(cfg: &SimConfig) -> (SimReport, Cluster) {
    let mut cluster = Cluster::new(cfg.cluster.clone());
    assert!(!cfg.docs.is_empty(), "a run needs documents to target");
    for (uri, xml) in &cfg.docs {
        assert!(cluster.load(uri, xml).is_some(), "{uri} does not load");
    }
    cluster.schedule(&cfg.chaos);
    let mut run = Run {
        cfg,
        cluster,
        report: SimReport {
            duration_ms: cfg.duration_ms,
            ..SimReport::default()
        },
        arrivals: Arrivals {
            cfg,
            articles: article_ids(&CorpusSpec::default()),
            doc_reads: 0,
            updates: 0,
        },
        routes: RouteCache::new(cfg.route_refresh_ms),
        issued: vec![0; cfg.clients.len()],
        sent: 0,
        inflight: HashMap::new(),
        browsers: FleetBrowser::launch(cfg),
    };
    let end = run.drive(0);
    let settled = run.quiesce(end + 1);
    if !run.browsers.is_empty() {
        // chaos ends, the cluster has settled, and every page renders once
        // more, after its breaker (the plug-in's default) has had time to
        // close
        let grace = settled + RecoveryConfig::default().breaker_open_ms + 1_000;
        for b in &mut run.browsers {
            b.converge(grace, cfg.seed, &run.arrivals.articles);
        }
        let end = run.drive(grace);
        // extra failovers after recovery must still hold every acked op
        run.quiesce(end + 1);
    }
    run.finish()
}

/// A run in progress: the cluster, the clients' side of it, and the tally.
struct Run<'a> {
    cfg: &'a SimConfig,
    cluster: Cluster,
    report: SimReport,
    arrivals: Arrivals<'a>,
    /// The open-loop clients' shared routes.
    routes: RouteCache,
    /// Arrivals issued per open-loop client.
    issued: Vec<u64>,
    /// Arrivals that reached the fault layer, across clients.
    sent: u64,
    /// completion id → what its client knows of it
    inflight: HashMap<u64, Flight>,
    browsers: Vec<FleetBrowser>,
}

impl Run<'_> {
    /// Steps each virtual ms from `from` until the run's arrivals are over
    /// and no browser waits for an outcome; returns the last ms stepped.
    fn drive(&mut self, from: u64) -> u64 {
        let last = self.cfg.duration_ms.max(from);
        for now in from.. {
            self.step(now);
            if now >= self.cfg.duration_ms && !self.browsers.iter().any(FleetBrowser::busy) {
                return now;
            }
            assert!(now < last + DRAIN_LIMIT_MS, "fleet browsers never settled");
        }
        unreachable!("virtual time runs out")
    }

    /// One virtual ms: open-loop arrivals, browser tasks and the requests
    /// they sent, then the cluster.
    fn step(&mut self, now: u64) {
        let open = now <= self.cfg.duration_ms;
        if open {
            self.arrive(now);
        }
        for b in &mut self.browsers {
            b.step(now, open, self.cfg.seed, &self.arrivals.articles);
        }
        for i in 0..self.browsers.len() {
            for d in self.browsers[i].sent(now) {
                self.send(i, d, now);
            }
        }
        let done = self.cluster.advance(now);
        self.settle_pending(done);
    }

    /// Issues every open-loop client's arrivals due by `now`, in client
    /// order, through the shared routes.
    fn arrive(&mut self, now: u64) {
        let cfg = self.cfg;
        for (client, spec) in cfg.clients.iter().enumerate() {
            while self.issued[client] < spec.pattern.arrivals_by(now, cfg.duration_ms) {
                let (url, update) = self.arrivals.next(client, self.issued[client]);
                self.issued[client] += 1;
                let stats = &mut self.report.per_class[Class::of_url(&url).index()];
                stats.issued += 1;
                let (fault, jitter) = match &cfg.net_fault {
                    Some(plan) => plan.decide(self.sent, now),
                    None => (None, 0),
                };
                self.sent += 1;
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
                let submitted = self.routes.serve(&mut self.cluster, &url, now);
                let flight = Flight {
                    jitter,
                    fault,
                    ledger: update.map(|(uri, marker)| self.ledger(uri, marker, now)),
                    browser: None,
                };
                self.track(submitted, flight);
            }
        }
    }

    /// Submits a request browser `b` sent, through the browser's own routes.
    /// Its network has decided the fault the reply meets already.
    fn send(&mut self, b: usize, d: Deferred, now: u64) {
        assert!(
            d.sent_at <= now,
            "a request reaches the cluster after it is sent"
        );
        let url = &d.request.url;
        let class = Class::of_url(url);
        self.report.per_class[class.index()].issued += 1;
        let browser = &mut self.browsers[b];
        let submitted = browser.routes.serve(&mut self.cluster, url, now);
        let op = browser.cart_op().filter(|_| class == Class::Update);
        let flight = Flight {
            jitter: d.jitter,
            fault: d.fault,
            ledger: op.map(|(uri, marker)| self.ledger(uri, marker, now)),
            browser: Some((b, d.ticket)),
        };
        self.track(submitted, flight);
    }

    /// Enters an update that reached the cluster in the ledger; `settle`
    /// fills in the shard that actually served it.
    fn ledger(&mut self, uri: String, marker: String, now: u64) -> usize {
        self.report.updates.push(UpdateRecord {
            marker,
            uri,
            arrival: now,
            ack_latency: None,
            shard: 0,
            epoch: self.cluster.epoch(),
        });
        self.report.updates.len() - 1
    }

    /// Settles a submitted request now, or once it completes.
    fn track(&mut self, submitted: Submitted, mut flight: Flight) {
        // shed at admission: the governor's own reply, unfaulted
        if matches!(&submitted, Submitted::Done(d) if d.outcome == ClusterOutcome::Shed) {
            flight.fault = None;
        }
        match submitted {
            Submitted::Done(d) => self.settle(*d, flight),
            Submitted::Pending(id) => {
                self.inflight.insert(id, flight);
            }
        }
    }

    /// Settles completions of requests that pended: each must still be in
    /// flight, so none completes twice.
    fn settle_pending(&mut self, done: Vec<ClusterCompletion>) {
        for d in done {
            let flight = self.inflight.remove(&d.id);
            let flight = flight.unwrap_or_else(|| panic!("request {} completed twice", d.id));
            self.settle(d, flight);
        }
    }

    /// Delivers a completion to the browser that sent it, at `finished` +
    /// link latency, and tallies it as the client side of `flight` sees it.
    fn settle(&mut self, done: ClusterCompletion, flight: Flight) {
        if let Some((b, ticket)) = flight.browser {
            let at = done.finished + CLUSTER_LATENCY_MS + flight.jitter;
            self.browsers[b].deliver(ticket, &done, at);
        }
        if let Some(ix) = flight.ledger {
            let u = &mut self.report.updates[ix];
            u.shard = done.shard;
            if done.outcome == ClusterOutcome::AckedUpdate {
                u.ack_latency = Some(done.finished - done.arrival);
            }
        }
        let s = &mut self.report.per_class[done.class.index()];
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

    /// Drains the cluster's backlog from `from`; returns when it settled.
    fn quiesce(&mut self, from: u64) -> u64 {
        let (settled, done) = self.cluster.quiesce(from);
        self.settle_pending(done);
        settled
    }

    fn finish(mut self) -> (SimReport, Cluster) {
        assert!(
            self.inflight.is_empty(),
            "every admitted request completes: {} never did",
            self.inflight.len()
        );
        let report = &mut self.report;
        report.reroutes = self.routes.reroutes;
        report.reroutes += self.browsers.iter().map(|b| b.routes.reroutes).sum::<u64>();
        report.final_epoch = self.cluster.epoch();
        report.browsers = self.browsers.iter().map(FleetBrowser::report).collect();
        if !report.browsers.is_empty() {
            self.cluster
                .set_fleet_stats(&FleetStats::of(&report.browsers));
        }
        report.metrics = self.cluster.metrics_snapshot();
        (self.report, self.cluster)
    }
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
            arrival: 0,
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
