//! Closed-loop browser fleet (ROADMAP item 4): real [`Plugin`] XQIB
//! clients against the replicated cluster of PR 7, under seeded chaos.
//!
//! Every prior fault/overload experiment (PRs 2–6) measured the server
//! tier with *open-loop* synthetic request generators. This module closes
//! the loop the way the paper's §6 deployments would: each simulated
//! browser is an actual `Plugin` running one of the three §6 scenarios as
//! an XQuery page — (a) Elsevier whole-document caching, (b) the
//! JS/XQuery mash-up via minijs, (c) an XQuery-only shopping cart issuing
//! `/update`s — with its own stale cache, circuit breaker and quarantine
//! state, honoring `Retry-After` on 503 and backing off on
//! `X-XQIB-Degraded` / `X-XQIB-Replica-Lag` responses.
//!
//! All clients and the cluster share one virtual timeline: a master
//! [`EventLoop`] schedules client turns; each turn syncs the client's own
//! event loop up to the fleet clock, runs one interaction to completion
//! (closed loop: the next interaction is only scheduled after this one's
//! outcome is observed), and charges any time the cluster spent resolving
//! a pending update back to the client's clock. The run is deterministic:
//! the same [`FleetConfig`] produces a bit-identical [`FleetReport`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use xqib_browser::net::{FaultPlan, Response};
use xqib_browser::{EventLoop, RecoveryConfig, RecoveryStats};
use xqib_core::plugin::{Plugin, PluginConfig};
use xqib_minijs::JsEngine;
use xqib_storage::{mix64, StorageFaultPlan};
use xqib_xdm::{XdmError, XdmResult};

use crate::cluster::{
    Cluster, ClusterConfig, IntegrityStats, ReplicationStats, Submitted, TopologyChange,
};
use crate::corpus::{article_ids, generate_corpus, CorpusSpec};

/// The origin every simulated browser talks to.
pub const CLUSTER_BASE: &str = "http://cluster.xqib";
/// The cluster host name (fault plans and per-host stats key off it).
pub const CLUSTER_HOST: &str = "cluster.xqib";
/// Request latency of the browser↔cluster link, virtual ms.
const CLUSTER_LATENCY_MS: u64 = 10;
/// Cluster housekeeping tick while clients think, virtual ms.
const TICK_MS: u64 = 50;
/// Replica lag (frames) beyond which a client backs off its think time.
const LAG_BACKOFF_THRESHOLD: u64 = 8;
/// Cities served by the mash-up scenario's shared `cities.xml`.
const CITIES: &[&str] = &["Madrid", "Zurich", "Oslo", "Kyoto", "Quito"];

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Which §6 deployment a simulated browser runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// §6.1: whole-document caching — `behind` renders of `corpus.xml`.
    Elsevier,
    /// §6.2: JS map panel + XQuery weather on one page, plus a `behind`
    /// fetch of the shared `cities.xml` from the cluster.
    Mashup,
    /// §6.3-style XQuery-only cart: `/update`s against `cart-<i>.xml`.
    Cart,
}

impl Scenario {
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Elsevier => "elsevier",
            Scenario::Mashup => "mashup",
            Scenario::Cart => "cart",
        }
    }
}

/// The chaos playing out underneath the fleet.
#[derive(Debug, Clone, Default)]
pub struct FleetChaos {
    /// Fault-plan template for every browser↔cluster link; reseeded per
    /// client so links fail independently.
    pub net: Option<FaultPlan>,
    /// Storage-fault template for every cluster seat's virtual disk.
    pub disk: Option<StorageFaultPlan>,
    /// Replication-link partitions: `(shard, slot, from_ms, to_ms)`.
    pub partitions: Vec<(usize, usize, u64, u64)>,
    /// Scheduled leader crashes: `(at_ms, shard)`.
    pub leader_crashes: Vec<(u64, usize)>,
    /// Scheduled topology changes: `(at_ms, change)`. Clients keep their
    /// cached routes and re-resolve on the resulting 421 fences.
    pub reshards: Vec<(u64, TopologyChange)>,
}

/// A fleet run: who, how many, against what, under which chaos.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub seed: u64,
    pub elsevier_clients: usize,
    /// Extra Elsevier clients that cache-bust every `/doc` fetch — the
    /// pre-migration deployment's traffic shape. They hit the origin on
    /// every interaction, so they see blackouts (degraded reads, 503s)
    /// that cached clients ride out, and they are the baseline the
    /// offload ratio is measured against.
    pub elsevier_nocache_clients: usize,
    pub mashup_clients: usize,
    pub cart_clients: usize,
    /// Interactions per client (the final convergence render is extra).
    pub interactions_per_client: usize,
    /// Base think time between a client's interactions, virtual ms.
    pub think_ms: u64,
    /// Per-client recovery knobs (stale cache bound, breaker, retries).
    pub recovery: RecoveryConfig,
    pub cluster: ClusterConfig,
    pub chaos: FleetChaos,
    pub corpus: CorpusSpec,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            elsevier_clients: 4,
            elsevier_nocache_clients: 0,
            mashup_clients: 2,
            cart_clients: 2,
            interactions_per_client: 4,
            think_ms: 200,
            recovery: RecoveryConfig::default(),
            cluster: ClusterConfig::default(),
            chaos: FleetChaos::default(),
            corpus: CorpusSpec::default(),
        }
    }
}

impl FleetConfig {
    /// A healthy fleet: no chaos at all. The offload baseline.
    pub fn quiet(seed: u64) -> Self {
        FleetConfig {
            seed,
            ..FleetConfig::default()
        }
    }

    /// The full chaos menu: lossy client links, failing seat disks, a
    /// replication-link partition and a mid-run leader crash.
    pub fn chaotic(seed: u64) -> Self {
        FleetConfig {
            seed,
            elsevier_clients: 4,
            elsevier_nocache_clients: 2,
            mashup_clients: 3,
            cart_clients: 3,
            interactions_per_client: 5,
            chaos: FleetChaos {
                net: Some(
                    FaultPlan::seeded(0)
                        .with_timeout_permille(120)
                        .with_error_permille(80),
                ),
                disk: Some(StorageFaultPlan {
                    seed: 0,
                    sync_fail_permille: 30,
                    corrupt_permille: 20,
                    corrupt_synced_permille: 0,
                    // latent at-rest bit rot: a couple permille per synced
                    // sector per decay period, scrubbed and repaired live
                    decay_permille: 2,
                    decay_period_ms: 100,
                }),
                partitions: vec![(0, 1, 400, 2500)],
                // both shards lose their leader mid-run, so every document
                // sees a blackout whichever shard owns it
                leader_crashes: vec![(1200, 0), (1400, 1)],
                // the cluster also grows a shard and reshuffles the ring
                // mid-run: cached routes go stale and clients must chase
                // the 421 fences to the new owners
                reshards: vec![
                    (800, TopologyChange::AddShard),
                    (1800, TopologyChange::Rebalance(7)),
                ],
            },
            ..FleetConfig::default()
        }
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Fleet-wide totals (mirrored into `ServerMetrics` as `fleet-*`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    pub clients: u64,
    /// Interactions performed (including each client's convergence render).
    pub interactions: u64,
    /// `behind` calls issued by the drivers.
    pub behind_calls: u64,
    pub attempts: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub fetch_errors: u64,
    pub breaker_opens: u64,
    pub breaker_fast_fails: u64,
    pub stale_served: u64,
    pub stale_events: u64,
    pub error_events: u64,
    pub completions: u64,
    /// Stale-cache entries LRU-evicted across the fleet.
    pub evictions: u64,
    pub quarantine_trips: u64,
    /// Turns where a 503's `Retry-After` gated the next interaction.
    pub retry_after_honored: u64,
    /// Turns that observed `X-XQIB-Degraded` or high `X-XQIB-Replica-Lag`
    /// and doubled their think time.
    pub degraded_observed: u64,
    /// Requests that actually reached the wire towards the cluster.
    pub origin_requests: u64,
    /// `(behind_calls − origin_requests) * 1000 / behind_calls`, saturating:
    /// the §6.1 offload claim as a number.
    pub cache_hit_permille: u64,
}

/// One simulated browser's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    pub id: usize,
    pub scenario: Scenario,
    /// True for the cache-busting Elsevier sub-population.
    pub nocache: bool,
    pub interactions: u64,
    pub behind_calls: u64,
    pub recovery: RecoveryStats,
    pub quarantine_trips: u64,
    /// Wire requests this client sent towards the cluster.
    pub origin_requests: u64,
    /// Cart only: the client's own cart document URI.
    pub cart_uri: String,
    /// Cart only: ops the page observed as acked (readyState 4).
    pub acked: Vec<String>,
    /// Elsevier: final `mode` span ("fresh"/"stale"/"error").
    pub final_mode: String,
    /// Elsevier: final `refcount` span.
    pub refcount: String,
    /// Mashup: maps the JS side drew (one per click, chaos-immune).
    pub maps: u64,
    /// Mashup: final `cities` span.
    pub cities: String,
    pub retry_after_honored: u64,
    pub degraded_observed: u64,
    /// This client's virtual clock at the end of the run.
    pub finished_at: u64,
}

/// The bit-identical outcome of a fleet run: same config ⇒ same report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub seed: u64,
    pub clients: Vec<ClientReport>,
    pub totals: FleetStats,
    /// `(uri, marker)` pairs a cart page observed as acked but the
    /// recovered cluster does not hold. Must be empty: acked means durable.
    pub missing_acked: Vec<(String, String)>,
    /// Clients whose observable outcomes (completions + stale + error
    /// events) differ from the `behind` calls they issued. Must be empty.
    pub outcome_mismatches: Vec<usize>,
    /// Every Elsevier render and mash-up city count matched the
    /// post-recovery reference after chaos cleared.
    pub converged: bool,
    /// Largest client clock at the end, virtual ms.
    pub duration_ms: u64,
    pub replication: ReplicationStats,
    /// End-to-end integrity counters (scrub verdicts, quarantines,
    /// verified repairs, decay sweeps) for the whole run.
    pub integrity: IntegrityStats,
    /// Requests that hit a 421 epoch fence and were retried against the
    /// freshly re-resolved owner. Nonzero whenever routes went stale.
    pub reroutes: u64,
}

// ---------------------------------------------------------------------
// The scenario pages
// ---------------------------------------------------------------------

const ELSEVIER_PAGE: &str = r#"<html><head><title>Reference 2.0 (fleet)</title>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onDoc($readyState, $result) {
  if ($readyState eq 4)
  then
    let $id := string(//span[@id="target"])
    let $a := $result//article[@id = $id]
    return {
      replace value of node //span[@id="refcount"]
        with string(count($a/references/reference)),
      replace value of node //span[@id="mode"] with "fresh"
    }
  else ()
};
declare updating function local:onStale($evt, $obj) {
  let $id := string(//span[@id="target"])
  let $a := $evt/payload//article[@id = $id]
  return {
    replace value of node //span[@id="refcount"]
      with string(count($a/references/reference)),
    replace value of node //span[@id="mode"] with "stale"
  }
};
declare updating function local:onError($evt, $obj) {
  replace value of node //span[@id="mode"] with "error"
};
on event "stale" at //body attach listener local:onStale;
on event "error" at //body attach listener local:onError
]]></script></head>
<body><div id="nav">Reference 2.0</div>
<span id="target"/><span id="refcount"/><span id="mode"/></body></html>"#;

const MASHUP_PAGE: &str = r#"<html><head><title>Mashup (fleet)</title>
<script type="text/javascript">
function onSearch(e) {
    var box = document.getElementById("searchbox");
    var query = box.getAttribute("value");
    var map = document.createElement("div");
    map.setAttribute("class", "map");
    map.setAttribute("data-location", query);
    document.getElementById("mappanel").appendChild(map);
}
var btn = document.getElementById("searchbutton");
btn.addEventListener("onclick", onSearch, false);
</script>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onCities($readyState, $result) {
  if ($readyState eq 4)
  then {
    replace value of node //span[@id="cities"]
      with string(count($result//city)),
    replace value of node //span[@id="mode"] with "fresh"
  }
  else ()
};
declare updating function local:onSearch($evt, $obj) {
  let $loc := string(//input[@id="searchbox"]/@value)
  let $w := browser:httpGet(concat("http://weather.local/api?q=", $loc))
  return {
    delete node //div[@id="weatherpanel"]/*;
    insert node <div class="forecast">{data($w//summary)}</div>
      into //div[@id="weatherpanel"];
  }
};
declare updating function local:onStale($evt, $obj) {
  replace value of node //span[@id="mode"] with "stale"
};
declare updating function local:onError($evt, $obj) {
  replace value of node //span[@id="mode"] with "error"
};
on event "onclick" at //input[@id="searchbutton"] attach listener local:onSearch;
on event "stale" at //body attach listener local:onStale;
on event "error" at //body attach listener local:onError
]]></script></head>
<body>
<input id="searchbox" type="text" value=""/>
<input id="searchbutton" type="button" value="Search"/>
<div id="mappanel"/><div id="weatherpanel"/>
<span id="cities"/><span id="mode"/></body></html>"#;

const CART_PAGE: &str = r#"<html><head><title>Cart (fleet)</title>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onAck($readyState, $result) {
  if ($readyState eq 4)
  then insert node <li class="acked">{string(//span[@id="op"])}</li>
       into //ul[@id="acked"]
  else ()
};
declare updating function local:onStale($evt, $obj) {
  insert node <li class="failed">{string(//span[@id="op"])}</li>
  into //ul[@id="failed"]
};
declare updating function local:onError($evt, $obj) {
  insert node <li class="failed">{string(//span[@id="op"])}</li>
  into //ul[@id="failed"]
};
on event "stale" at //body attach listener local:onStale;
on event "error" at //body attach listener local:onError
]]></script></head>
<body><span id="op"/><ul id="acked"/><ul id="failed"/></body></html>"#;

// ---------------------------------------------------------------------
// The client ↔ cluster bridge
// ---------------------------------------------------------------------

/// What the last cluster response carried — the browser [`Response`] has
/// no headers, so the bridge captures the degradation metadata here and
/// the fleet driver reads it after the turn.
#[derive(Debug, Default)]
struct LastMeta {
    status: u16,
    retry_after_ms: Option<u64>,
    degraded: bool,
    replica_lag: Option<u64>,
    /// Virtual time the bridge spent driving the cluster to resolve a
    /// pending update — charged to the client's clock after the turn.
    extra_wait_ms: u64,
}

impl LastMeta {
    fn reset_turn(&mut self) {
        self.status = 0;
        self.retry_after_ms = None;
        self.degraded = false;
        self.replica_lag = None;
    }
}

/// Routes one client's `http://cluster.xqib/...` traffic into the shared
/// cluster. Pending updates are resolved synchronously by stepping the
/// shared cluster clock (the wait is surfaced via `extra_wait_ms`); the
/// shared clock is monotone across clients, so the cluster never sees
/// time regress even though client clocks drift apart.
///
/// Each client caches its routing decisions per document URI, the way a
/// real browser would pin a shard endpoint. When a topology change moves
/// a document, the cached route hits the old owner's 421 epoch fence; the
/// bridge then re-resolves the owner and retries once, bumping the shared
/// `reroutes` counter.
fn wire_cluster(
    plugin: &mut Plugin,
    cluster: &Rc<RefCell<Cluster>>,
    cluster_now: &Rc<Cell<u64>>,
    meta: &Rc<RefCell<LastMeta>>,
    reroutes: &Rc<Cell<u64>>,
    step_ms: u64,
    pending_cap_ms: u64,
) {
    let cluster = cluster.clone();
    let clock = cluster_now.clone();
    let meta = meta.clone();
    let reroutes = reroutes.clone();
    let routes: RefCell<HashMap<String, usize>> = RefCell::new(HashMap::new());
    plugin.host.borrow_mut().net.register_with_now(
        &format!("{CLUSTER_BASE}/"),
        CLUSTER_LATENCY_MS,
        move |req, now| {
            let entered = clock.get().max(now);
            clock.set(entered);
            let mut t = entered;
            let uri = Cluster::routing_uri(&req.url);
            let shard = *routes
                .borrow_mut()
                .entry(uri.clone())
                .or_insert_with(|| cluster.borrow().owner(&uri));
            let mut submitted = cluster.borrow_mut().serve_at(shard, &req.url, t);
            if matches!(&submitted, Submitted::Done(d) if d.response.status == 421) {
                // stale route: the document moved (or the shard retired)
                // since this client last resolved it. Chase the fence.
                reroutes.set(reroutes.get() + 1);
                let fresh = cluster.borrow().owner(&uri);
                routes.borrow_mut().insert(uri, fresh);
                submitted = cluster.borrow_mut().serve_at(fresh, &req.url, t);
            }
            let completion = match submitted {
                Submitted::Done(c) => Some(*c),
                Submitted::Pending(id) => {
                    let mut found = None;
                    let deadline = t.saturating_add(pending_cap_ms);
                    while found.is_none() && t < deadline {
                        t += step_ms.max(1);
                        for c in cluster.borrow_mut().advance(t) {
                            if c.id == id {
                                found = Some(c);
                            }
                        }
                    }
                    clock.set(clock.get().max(t));
                    found
                }
            };
            let mut m = meta.borrow_mut();
            m.extra_wait_ms += t - entered;
            match completion {
                Some(c) => {
                    m.status = c.response.status;
                    m.retry_after_ms = c
                        .response
                        .header("Retry-After")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(|secs| secs.saturating_mul(1000));
                    m.degraded = c.response.header("X-XQIB-Degraded").is_some();
                    m.replica_lag = c
                        .response
                        .header("X-XQIB-Replica-Lag")
                        .and_then(|v| v.parse().ok());
                    // successful updates reply with an empty body; the
                    // browser parses XML responses, so ship a minimal ack
                    let body = if c.response.body.is_empty() {
                        "<ok/>".to_string()
                    } else {
                        c.response.body
                    };
                    Response {
                        status: c.response.status,
                        body,
                        content_type: "application/xml".to_string(),
                    }
                }
                None => {
                    // the pending update outlived the wait cap: surface the
                    // same contract as the cluster's own ack timeout
                    m.status = 503;
                    m.retry_after_ms = Some(1000);
                    m.degraded = false;
                    m.replica_lag = None;
                    Response {
                        status: 503,
                        body: "<error code=\"XQIB0017\">cluster did not resolve \
                               the update in time</error>"
                            .to_string(),
                        content_type: "application/xml".to_string(),
                    }
                }
            }
        },
    );
}

// ---------------------------------------------------------------------
// Per-client driver state
// ---------------------------------------------------------------------

struct ClientState {
    plugin: Plugin,
    scenario: Scenario,
    nocache: bool,
    idx: usize,
    meta: Rc<RefCell<LastMeta>>,
    /// Keeps the mash-up JS engine (and its listeners) alive.
    _engine: Option<Rc<RefCell<JsEngine>>>,
    cart_uri: String,
    interactions: u64,
    behind_calls: u64,
    retry_after_honored: u64,
    degraded_observed: u64,
    blocked_until: u64,
    done: bool,
}

impl ClientState {
    fn span(&self, id: &str) -> String {
        let page = self.plugin.serialize_page();
        span_text(&page, id)
    }
}

/// Extracts `<span id="ID">TEXT</span>` from serialized markup.
fn span_text(page: &str, id: &str) -> String {
    let needle = format!("<span id=\"{id}\">");
    let Some(start) = page.find(&needle) else {
        return String::new();
    };
    let rest = &page[start + needle.len()..];
    match rest.find("</span>") {
        Some(end) => rest[..end].to_string(),
        None => String::new(),
    }
}

/// Extracts the text of every `<li class="CLASS">…</li>` in order.
fn li_texts(page: &str, class: &str) -> Vec<String> {
    let needle = format!("<li class=\"{class}\">");
    let mut out = Vec::new();
    let mut rest = page;
    while let Some(start) = rest.find(&needle) {
        rest = &rest[start + needle.len()..];
        let Some(end) = rest.find("</li>") else { break };
        out.push(rest[..end].to_string());
        rest = &rest[end..];
    }
    out
}

fn eval_err(client: usize, stage: &str, e: XdmError) -> XdmError {
    XdmError::new("XQIB0018", format!("fleet client {client} {stage}: {e}"))
}

fn origin_requests(plugin: &Plugin) -> u64 {
    plugin
        .host
        .borrow()
        .net
        .stats
        .per_host
        .get(CLUSTER_HOST)
        .map(|h| h.requests)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// The fleet itself
// ---------------------------------------------------------------------

enum FleetEvent {
    Turn(usize),
    Tick,
}

/// Runs the whole fleet to completion and returns the (bit-identical)
/// report plus the post-recovery cluster for further inspection.
pub fn run_fleet(cfg: &FleetConfig) -> XdmResult<(FleetReport, Cluster)> {
    if cfg.corpus.total_articles() == 0 {
        return Err(XdmError::new("XQIB0018", "fleet needs a non-empty corpus"));
    }
    let corpus_xml = generate_corpus(&cfg.corpus);
    let ids = article_ids(&cfg.corpus);
    let expected_refs = cfg.corpus.references_per_article.to_string();
    let expected_cities = CITIES.len().to_string();

    // --- the shared cluster, with chaos scheduled up front
    let mut ccfg = cfg.cluster.clone();
    ccfg.seed = mix64(cfg.seed ^ 0xc105);
    ccfg.disk_fault = cfg.chaos.disk.clone();
    let mut cluster = Cluster::new(ccfg);
    let mut load = |uri: &str, xml: &str| -> XdmResult<()> {
        cluster
            .load(uri, xml)
            .map(|_| ())
            .ok_or_else(|| XdmError::new("XQIB0018", format!("fleet could not load {uri}")))
    };
    load("corpus.xml", &corpus_xml)?;
    let cities_xml = format!(
        "<cities>{}</cities>",
        CITIES
            .iter()
            .map(|c| format!("<city>{c}</city>"))
            .collect::<String>()
    );
    load("cities.xml", &cities_xml)?;
    for i in 0..cfg.cart_clients {
        load(&format!("cart-{i}.xml"), "<cart/>")?;
    }
    for &(at, shard) in &cfg.chaos.leader_crashes {
        cluster.crash_leader_at(at, shard);
    }
    for &(shard, slot, from, to) in &cfg.chaos.partitions {
        cluster.partition(shard, slot, from, to);
    }
    for &(at, change) in &cfg.chaos.reshards {
        cluster.schedule_topology(at, change);
    }
    let step_ms = cfg.cluster.link_latency_ms.max(1);
    let pending_cap_ms = cfg.cluster.ack_timeout_ms + cfg.cluster.failover_detect_ms + 2_000;
    let cluster = Rc::new(RefCell::new(cluster));
    let cluster_now = Rc::new(Cell::new(0u64));
    let reroutes = Rc::new(Cell::new(0u64));

    // --- the clients
    let roster: Vec<(Scenario, bool)> =
        std::iter::repeat_n((Scenario::Elsevier, false), cfg.elsevier_clients)
            .chain(std::iter::repeat_n(
                (Scenario::Elsevier, true),
                cfg.elsevier_nocache_clients,
            ))
            .chain(std::iter::repeat_n(
                (Scenario::Mashup, false),
                cfg.mashup_clients,
            ))
            .chain(std::iter::repeat_n(
                (Scenario::Cart, false),
                cfg.cart_clients,
            ))
            .collect();
    let mut clients: Vec<ClientState> = Vec::with_capacity(roster.len());
    let mut cart_seq = 0usize;
    for (idx, &(scenario, nocache)) in roster.iter().enumerate() {
        let mut plugin = Plugin::new(PluginConfig {
            recovery: cfg.recovery.clone(),
            ..Default::default()
        });
        let meta = Rc::new(RefCell::new(LastMeta::default()));
        wire_cluster(
            &mut plugin,
            &cluster,
            &cluster_now,
            &meta,
            &reroutes,
            step_ms,
            pending_cap_ms,
        );
        if let Some(plan) = &cfg.chaos.net {
            let mut plan = plan.clone();
            plan.seed = mix64(cfg.seed ^ 0xf1ee7 ^ idx as u64);
            plugin
                .host
                .borrow_mut()
                .net
                .set_fault_plan(CLUSTER_HOST, plan);
        }
        let mut engine = None;
        let mut cart_uri = String::new();
        match scenario {
            Scenario::Elsevier => {
                plugin
                    .load_page(ELSEVIER_PAGE)
                    .map_err(|e| eval_err(idx, "load_page", e))?;
            }
            Scenario::Mashup => {
                // the private, never-faulted weather service of §6.2
                plugin
                    .host
                    .borrow_mut()
                    .net
                    .register("http://weather.local/", 10, |req| {
                        let loc = req.query_param("q").unwrap_or_default();
                        Response::ok(format!(
                            "<weather><summary>fair in {loc}</summary></weather>"
                        ))
                    });
                let js_sources = plugin
                    .load_page(MASHUP_PAGE)
                    .map_err(|e| eval_err(idx, "load_page", e))?;
                let js = Rc::new(RefCell::new(JsEngine::new(
                    plugin.store.clone(),
                    plugin.page_doc(),
                )));
                for src in &js_sources {
                    js.borrow_mut()
                        .run(src)
                        .map_err(|e| XdmError::new("XQIB0018", format!("fleet js: {e:?}")))?;
                }
                let regs = js.borrow_mut().take_registrations();
                for (target, event_type, f) in regs {
                    let js = js.clone();
                    plugin.register_external_listener(target, &event_type, move |ev| {
                        let _ =
                            js.borrow_mut()
                                .dispatch_to(&f, &ev.event_type, ev.target, ev.button);
                    });
                }
                engine = Some(js);
            }
            Scenario::Cart => {
                cart_uri = format!("cart-{cart_seq}.xml");
                cart_seq += 1;
                plugin
                    .load_page(CART_PAGE)
                    .map_err(|e| eval_err(idx, "load_page", e))?;
            }
        }
        clients.push(ClientState {
            plugin,
            scenario,
            nocache,
            idx,
            meta,
            _engine: engine,
            cart_uri,
            interactions: 0,
            behind_calls: 0,
            retry_after_honored: 0,
            degraded_observed: 0,
            blocked_until: 0,
            done: false,
        });
    }

    // --- the closed loop
    let mut master: EventLoop<FleetEvent> = EventLoop::new();
    for i in 0..clients.len() {
        let offset = 1 + mix64(cfg.seed ^ 0x5eed ^ i as u64) % cfg.think_ms.max(1);
        master.schedule(offset, FleetEvent::Turn(i));
    }
    master.schedule(TICK_MS, FleetEvent::Tick);
    let mut remaining = clients.len();
    let mut guard = 0u64;
    while remaining > 0 {
        let Some(ev) = master.pop() else { break };
        guard += 1;
        if guard > 10_000_000 {
            return Err(XdmError::new("XQIB0018", "fleet loop runaway"));
        }
        let now = master.now();
        match ev {
            FleetEvent::Tick => {
                let t = cluster_now.get().max(now);
                cluster_now.set(t);
                let _ = cluster.borrow_mut().advance(t);
                master.schedule(TICK_MS, FleetEvent::Tick);
            }
            FleetEvent::Turn(i) => {
                let interactions_per_client = cfg.interactions_per_client as u64;
                let think = cfg.think_ms.max(1);
                let c = &mut clients[i];
                if c.done {
                    continue;
                }
                let pnow = c.plugin.now();
                if pnow < now {
                    c.plugin.advance_clock(now - pnow);
                }
                if c.blocked_until > c.plugin.now() {
                    let wait = c.blocked_until - c.plugin.now();
                    master.schedule(
                        c.plugin.now().saturating_sub(now) + wait,
                        FleetEvent::Turn(i),
                    );
                    continue;
                }
                c.meta.borrow_mut().reset_turn();
                let k = c.interactions;
                run_interaction(c, cfg, &ids, k)?;
                c.interactions += 1;
                let extra = std::mem::take(&mut c.meta.borrow_mut().extra_wait_ms);
                if extra > 0 {
                    c.plugin.advance_clock(extra);
                }
                let mut delay = think;
                {
                    let m = c.meta.borrow();
                    if m.status == 503 {
                        if let Some(ra) = m.retry_after_ms {
                            c.blocked_until = c.plugin.now() + ra;
                            c.retry_after_honored += 1;
                            delay = delay.max(ra);
                        }
                    }
                    if m.degraded || m.replica_lag.is_some_and(|l| l > LAG_BACKOFF_THRESHOLD) {
                        c.degraded_observed += 1;
                        delay = delay.saturating_mul(2);
                    }
                }
                if c.interactions < interactions_per_client {
                    let ahead = c.plugin.now().saturating_sub(now);
                    master.schedule(ahead + delay, FleetEvent::Turn(i));
                } else {
                    c.done = true;
                    remaining -= 1;
                }
            }
        }
    }

    // --- recovery: chaos ends, the cluster settles, clients converge
    for c in &mut clients {
        c.plugin
            .host
            .borrow_mut()
            .net
            .clear_fault_plan(CLUSTER_HOST);
    }
    let settle_from = cluster_now.get().max(master.now());
    let (settled_at, _) = cluster.borrow_mut().quiesce(settle_from);
    cluster_now.set(settled_at.max(settle_from));
    let grace = settled_at + cfg.recovery.breaker_open_ms + 1_000;
    let mut converged = true;
    for c in &mut clients {
        let pnow = c.plugin.now();
        if pnow < grace {
            c.plugin.advance_clock(grace - pnow);
        }
        c.meta.borrow_mut().reset_turn();
        match c.scenario {
            Scenario::Elsevier => {
                let k = c.interactions;
                run_interaction(c, cfg, &ids, k)?;
                c.interactions += 1;
                if c.span("mode") != "fresh" || c.span("refcount") != expected_refs {
                    converged = false;
                }
            }
            Scenario::Mashup => {
                behind_fetch(c, &format!("{CLUSTER_BASE}/doc?uri=cities.xml"), "onCities")?;
                c.interactions += 1;
                if c.span("cities") != expected_cities {
                    converged = false;
                }
            }
            Scenario::Cart => {}
        }
        let extra = std::mem::take(&mut c.meta.borrow_mut().extra_wait_ms);
        if extra > 0 {
            c.plugin.advance_clock(extra);
        }
    }
    // extra failovers after recovery must still hold every acked op
    let (_, _) = cluster.borrow_mut().quiesce(cluster_now.get());

    // --- invariants + report
    let mut reports = Vec::with_capacity(clients.len());
    let mut totals = FleetStats::default();
    let mut missing_acked = Vec::new();
    let mut outcome_mismatches = Vec::new();
    for c in &clients {
        let host = c.plugin.host.borrow();
        let recovery = host.recovery.stats.clone();
        let quarantine_trips = host.quarantine.stats.trips;
        drop(host);
        let page = c.plugin.serialize_page();
        let acked = if c.scenario == Scenario::Cart {
            li_texts(&page, "acked")
        } else {
            Vec::new()
        };
        for marker in &acked {
            if !cluster.borrow().contains(&c.cart_uri, marker) {
                missing_acked.push((c.cart_uri.clone(), marker.clone()));
            }
        }
        let outcomes = recovery.completions + recovery.stale_events + recovery.error_events;
        if outcomes != c.behind_calls {
            outcome_mismatches.push(c.idx);
        }
        let origin = origin_requests(&c.plugin);
        let maps = page.matches("class=\"map\"").count() as u64;
        totals.clients += 1;
        totals.interactions += c.interactions;
        totals.behind_calls += c.behind_calls;
        totals.attempts += recovery.attempts;
        totals.retries += recovery.retries;
        totals.timeouts += recovery.timeouts;
        totals.fetch_errors += recovery.fetch_errors;
        totals.breaker_opens += recovery.breaker_opens;
        totals.breaker_fast_fails += recovery.breaker_fast_fails;
        totals.stale_served += recovery.stale_served;
        totals.stale_events += recovery.stale_events;
        totals.error_events += recovery.error_events;
        totals.completions += recovery.completions;
        totals.evictions += recovery.evictions;
        totals.quarantine_trips += quarantine_trips;
        totals.retry_after_honored += c.retry_after_honored;
        totals.degraded_observed += c.degraded_observed;
        totals.origin_requests += origin;
        reports.push(ClientReport {
            id: c.idx,
            scenario: c.scenario,
            nocache: c.nocache,
            interactions: c.interactions,
            behind_calls: c.behind_calls,
            recovery,
            quarantine_trips,
            origin_requests: origin,
            cart_uri: c.cart_uri.clone(),
            acked,
            final_mode: span_text(&page, "mode"),
            refcount: span_text(&page, "refcount"),
            maps,
            cities: span_text(&page, "cities"),
            retry_after_honored: c.retry_after_honored,
            degraded_observed: c.degraded_observed,
            finished_at: c.plugin.now(),
        });
    }
    totals.cache_hit_permille = totals
        .behind_calls
        .saturating_sub(totals.origin_requests)
        .saturating_mul(1000)
        .checked_div(totals.behind_calls)
        .unwrap_or(0);
    let duration_ms = reports.iter().map(|r| r.finished_at).max().unwrap_or(0);
    let replication = cluster.borrow().stats();
    let integrity = cluster.borrow().integrity_stats();
    let report = FleetReport {
        seed: cfg.seed,
        clients: reports,
        totals,
        missing_acked,
        outcome_mismatches,
        converged,
        duration_ms,
        replication,
        integrity,
        reroutes: reroutes.get(),
    };
    // the bridge handlers inside each plugin's virtual network hold clones
    // of the cluster Rc — drop the fleet before unwrapping it
    drop(clients);
    let cluster = Rc::try_unwrap(cluster)
        .map_err(|_| XdmError::new("XQIB0018", "fleet cluster still referenced"))?
        .into_inner();
    Ok((report, cluster))
}

/// Issues one `behind` fetch and drains the client's loop — the unit every
/// scenario interaction is built from.
fn behind_fetch(c: &mut ClientState, url: &str, listener: &str) -> XdmResult<()> {
    c.plugin
        .eval(&format!(
            r#"on event "stateChanged" behind browser:httpGet("{url}")
               attach listener local:{listener}"#
        ))
        .map_err(|e| eval_err(c.idx, "behind", e))?;
    c.behind_calls += 1;
    c.plugin
        .run_until_idle()
        .map_err(|e| eval_err(c.idx, "drain", e))?;
    Ok(())
}

/// One closed-loop interaction for client `c` (its `k`-th).
fn run_interaction(
    c: &mut ClientState,
    cfg: &FleetConfig,
    ids: &[String],
    k: u64,
) -> XdmResult<()> {
    let draw = mix64(cfg.seed ^ ((c.idx as u64) << 16) ^ k);
    match c.scenario {
        Scenario::Elsevier => {
            let article = &ids[(draw as usize) % ids.len()];
            c.plugin
                .eval(&format!(
                    r#"replace value of node //span[@id="target"] with "{article}""#
                ))
                .map_err(|e| eval_err(c.idx, "target", e))?;
            // the cache-busting population fetches a unique URL every time,
            // so each interaction really travels to the origin
            let url = if c.nocache {
                // `&amp;` because the URL is spliced into an XQuery string
                // literal, where a bare `&` starts an entity reference
                format!(
                    "{CLUSTER_BASE}/doc?uri=corpus.xml&amp;client={}&amp;seq={k}",
                    c.idx
                )
            } else {
                format!("{CLUSTER_BASE}/doc?uri=corpus.xml")
            };
            behind_fetch(c, &url, "onDoc")?;
        }
        Scenario::Mashup => {
            let city = CITIES[(draw as usize) % CITIES.len()];
            c.plugin
                .set_attr_by_id("searchbox", "value", city)
                .map_err(|e| eval_err(c.idx, "searchbox", e))?;
            c.plugin
                .click_id("searchbutton")
                .map_err(|e| eval_err(c.idx, "click", e))?;
            behind_fetch(c, &format!("{CLUSTER_BASE}/doc?uri=cities.xml"), "onCities")?;
        }
        Scenario::Cart => {
            let marker = format!("c{}op{k}", c.idx);
            c.plugin
                .eval(&format!(
                    r#"replace value of node //span[@id="op"] with "{marker}""#
                ))
                .map_err(|e| eval_err(c.idx, "op", e))?;
            let url = format!(
                "{CLUSTER_BASE}/update?xq=insert node <item id=%22{marker}%22/> \
                 into doc(%22{uri}%22)/*",
                uri = c.cart_uri
            );
            behind_fetch(c, &url, "onAck")?;
        }
    }
    Ok(())
}

/// Checks a report's acked-durability invariant against a cluster —
/// convenience for tests that force extra failovers after the run.
pub fn missing_acked_markers(report: &FleetReport, cluster: &Cluster) -> Vec<(String, String)> {
    let mut missing = Vec::new();
    for client in &report.clients {
        if client.scenario != Scenario::Cart {
            continue;
        }
        for marker in &client.acked {
            if !cluster.contains(&client.cart_uri, marker) {
                missing.push((client.cart_uri.clone(), marker.clone()));
            }
        }
    }
    missing
}
