//! Closed-loop browser fleet: real [`Plugin`] XQIB clients against the
//! replicated [`Cluster`](crate::cluster::Cluster), as
//! [`run_sim`](crate::simulate::run_sim) clients under seeded chaos.
//!
//! The open-loop clients of [`crate::simulate`] measure the server tier
//! with synthetic request generators. Fleet browsers close the loop the way
//! the paper's §6 deployments would: each is an actual `Plugin` running one
//! of the three §6 scenarios as an XQuery page — (a) Elsevier
//! whole-document caching, (b) the JS/XQuery mash-up via minijs, (c) an
//! XQuery-only shopping cart issuing `/update`s — with its own stale cache,
//! circuit breaker and quarantine state, honoring `Retry-After` on 503 and
//! backing off on `X-XQIB-Degraded` / `X-XQIB-Replica-Lag` responses.
//!
//! The cluster is a *deferred* host on each browser's network: a `behind`
//! fetch of `http://cluster.xqib/…` parks, and the run's driver submits the
//! queued request through the browser's own pinned [`RouteCache`], advances
//! the cluster, and delivers the completion at `finished` + link latency
//! with [`Plugin::deliver`], which resumes the parked attempt. So browsers
//! overlap in virtual time: one browser's pending update does not stop
//! another's turn. A browser's next interaction starts a think time after
//! its last one had its outcome, until the run's `duration_ms`; then chaos
//! ends, the cluster settles, and every Elsevier and mash-up browser
//! renders once more to show it converged.

use std::cell::RefCell;
use std::rc::Rc;

use xqib_browser::net::{Deferred, Response};
use xqib_core::plugin::{Plugin, PluginConfig};
use xqib_minijs::JsEngine;
use xqib_storage::{mix64, StorageFaultPlan};

use crate::cluster::{ClusterChaos, ClusterCompletion, ClusterConfig, RouteCache, TopologyChange};
use crate::corpus::{generate_corpus, CorpusSpec};
use crate::render::CORPUS_URI;
use crate::simulate::{SimConfig, SimReport};

/// The origin every simulated browser talks to.
pub const CLUSTER_BASE: &str = "http://cluster.xqib";
/// The cluster host name (fault plans and per-host stats key off it).
pub const CLUSTER_HOST: &str = "cluster.xqib";
/// Round-trip latency of the browser↔cluster link, virtual ms.
pub(crate) const CLUSTER_LATENCY_MS: u64 = 10;
/// Base think time between a browser's interactions, virtual ms.
const THINK_MS: u64 = 200;
/// Replica lag (frames) beyond which a client backs off its think time.
const LAG_BACKOFF_THRESHOLD: u64 = 8;
/// Cities served by the mash-up scenario's shared `cities.xml`.
const CITIES: &[&str] = &["Madrid", "Zurich", "Oslo", "Kyoto", "Quito"];

/// Which §6 deployment a simulated browser runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// §6.1: whole-document caching — `behind` renders of `corpus.xml`.
    Elsevier,
    /// §6.1 before migration: an Elsevier page that cache-busts every
    /// `/doc` fetch. Each interaction reaches the origin, so it sees the
    /// blackouts (degraded reads, 503s) that cached clients ride out, and
    /// it is the baseline the offload ratio is measured against.
    ElsevierNoCache,
    /// §6.2: JS map panel + XQuery weather on one page, plus a `behind`
    /// fetch of the shared `cities.xml` from the cluster.
    Mashup,
    /// §6.3-style XQuery-only cart: `/update`s against `cart-<i>.xml`.
    Cart,
}

impl SimConfig {
    /// A healthy fleet: 4 Elsevier, 2 mash-up and 2 cart browsers for 800
    /// virtual ms, no chaos at all. The offload baseline.
    pub fn fleet(seed: u64) -> Self {
        use Scenario::{Cart, Elsevier, Mashup};
        let browsers = vec![
            Elsevier, Elsevier, Elsevier, Elsevier, Mashup, Mashup, Cart, Cart,
        ];
        SimConfig {
            seed,
            duration_ms: 800,
            clients: Vec::new(),
            docs: fleet_docs(&browsers),
            browsers,
            cluster: ClusterConfig {
                seed: mix64(seed ^ 0xc105),
                ..ClusterConfig::default()
            },
            chaos: ClusterChaos::default(),
            route_refresh_ms: 0,
            net_fault: None,
        }
    }

    /// The full chaos menu over 12 browsers for 2.5 virtual s: lossy client
    /// links, failing seat disks, a replication-link partition, a mid-run
    /// leader crash on each shard, a shard added and a ring rebalanced.
    pub fn chaotic_fleet(seed: u64) -> Self {
        use Scenario::{Cart, Elsevier, ElsevierNoCache, Mashup};
        let mut cfg = SimConfig::fleet(seed);
        cfg.duration_ms = 2_500;
        cfg.browsers = [(Elsevier, 4), (ElsevierNoCache, 2), (Mashup, 3), (Cart, 3)]
            .into_iter()
            .flat_map(|(s, n)| std::iter::repeat_n(s, n))
            .collect();
        cfg.docs = fleet_docs(&cfg.browsers);
        // latent at-rest bit rot too: a couple permille per synced sector
        // per decay period, scrubbed and repaired live
        let disk = StorageFaultPlan::seeded(0).with_decay_permille(2);
        cfg.cluster.disk_fault = Some(
            disk.with_sync_fail_permille(30)
                .with_corrupt_permille(20)
                .with_decay_period_ms(100),
        );
        cfg.chaos = ClusterChaos {
            // both shards lose their leader mid-run, so every document sees
            // a blackout whichever shard owns it
            leader_crashes: vec![(1200, 0), (1400, 1)],
            partitions: vec![(0, 1, 400, 2500)],
            // the cluster also grows a shard and reshuffles the ring mid-run:
            // cached routes go stale and browsers must chase the 421 fences
            // to the new owners
            topology: vec![
                (800, TopologyChange::AddShard),
                (1800, TopologyChange::Rebalance(7)),
            ],
        };
        cfg.net_fault = Some(
            xqib_browser::FaultPlan::seeded(0)
                .with_timeout_permille(120)
                .with_error_permille(80),
        );
        cfg
    }
}

/// The documents a fleet's pages address: the default generated corpus,
/// the mash-up's `cities.xml`, and one empty cart per cart browser.
pub fn fleet_docs(browsers: &[Scenario]) -> Vec<(String, String)> {
    let cities: String = CITIES.iter().map(|c| format!("<city>{c}</city>")).collect();
    let carts = browsers.iter().filter(|&&s| s == Scenario::Cart).count();
    [
        (
            CORPUS_URI.to_string(),
            generate_corpus(&CorpusSpec::default()),
        ),
        (
            "cities.xml".to_string(),
            format!("<cities>{cities}</cities>"),
        ),
    ]
    .into_iter()
    .chain((0..carts).map(|i| (cart_uri(i), "<cart/>".to_string())))
    .collect()
}

fn cart_uri(i: usize) -> String {
    format!("cart-{i}.xml")
}

xqib_storage::counters! {
    /// Fleet-wide totals. A cluster the totals are reported to serves them on
    /// `/metrics` as `fleet-*`.
    pub struct FleetStats {
        clients: "fleet-clients",
        /// Interactions performed (including each client's convergence render).
        interactions: "fleet-interactions",
        /// `behind` calls issued by the pages.
        behind_calls: "fleet-behind-calls",
        attempts: "fleet-attempts",
        retries: "fleet-retries",
        timeouts: "fleet-timeouts",
        fetch_errors: "fleet-fetch-errors",
        breaker_opens: "fleet-breaker-opens",
        breaker_fast_fails: "fleet-breaker-fast-fails",
        stale_served: "fleet-stale-served",
        stale_events: "fleet-stale-events",
        error_events: "fleet-error-events",
        completions: "fleet-completions",
        /// Stale-cache entries LRU-evicted across the fleet.
        evictions: "fleet-evictions",
        quarantine_trips: "fleet-quarantine-trips",
        /// Turns where a 503's `Retry-After` gated the next interaction.
        retry_after_honored: "fleet-retry-after-honored",
        /// Turns that observed `X-XQIB-Degraded` or high `X-XQIB-Replica-Lag`
        /// and doubled their think time.
        degraded_observed: "fleet-degraded-observed",
        /// Requests that actually reached the wire towards the cluster.
        origin_requests: "fleet-origin-requests",
        /// `(behind_calls − origin_requests) * 1000 / behind_calls`, saturating:
        /// the §6.1 offload claim as a number.
        cache_hit_permille: "fleet-cache-hit-permille",
    }
}

impl FleetStats {
    /// The totals over every browser's report.
    pub(crate) fn of(browsers: &[ClientReport]) -> FleetStats {
        let mut t = FleetStats::default();
        for b in browsers {
            t.add(&b.stats);
        }
        t.cache_hit_permille = t
            .behind_calls
            .saturating_sub(t.origin_requests)
            .saturating_mul(1000)
            .checked_div(t.behind_calls)
            .unwrap_or(0);
        t
    }
}

/// One simulated browser's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    pub id: usize,
    pub scenario: Scenario,
    /// This browser's share of the fleet's totals (its offload ratio
    /// aside).
    pub stats: FleetStats,
    /// Cart: ops the page observed as acked (readyState 4).
    pub acked: u64,
    /// Elsevier: final `mode` span ("fresh"/"stale"/"error").
    pub final_mode: String,
    /// Elsevier: final `refcount` span.
    pub refcount: String,
    /// Mashup: maps the JS side drew (one per click, chaos-immune).
    pub maps: u64,
    /// Mashup: final `cities` span.
    pub cities: String,
    /// This client's virtual clock at the end of the run.
    pub finished_at: u64,
}

impl SimReport {
    /// Browsers whose observable `behind` outcomes (completions + stale
    /// events + error events) differ from the calls they issued. Empty =
    /// every fetch had exactly one outcome.
    pub fn outcome_mismatches(&self) -> Vec<usize> {
        let outcomes = |t: &FleetStats| t.completions + t.stale_events + t.error_events;
        self.browsers
            .iter()
            .filter(|b| outcomes(&b.stats) != b.stats.behind_calls)
            .map(|b| b.id)
            .collect()
    }

    /// Elsevier and mash-up browsers whose final render, after chaos
    /// cleared, differs from the reference. Empty = every degraded render
    /// converged.
    pub fn unconverged(&self) -> Vec<usize> {
        let refs = CorpusSpec::default().references_per_article.to_string();
        let cities = CITIES.len().to_string();
        self.browsers
            .iter()
            .filter(|b| match b.scenario {
                Scenario::Elsevier | Scenario::ElsevierNoCache => {
                    b.final_mode != "fresh" || b.refcount != refs
                }
                Scenario::Mashup => b.cities != cities,
                Scenario::Cart => false,
            })
            .map(|b| b.id)
            .collect()
    }
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
// One browser of the fleet
// ---------------------------------------------------------------------

/// One simulated browser, as the run's driver sees it.
pub(crate) struct FleetBrowser {
    id: usize,
    scenario: Scenario,
    plugin: Plugin,
    /// This browser's pins: a document's owner is cached for good, the way
    /// a real browser pins a shard endpoint, and a 421 fence is chased when
    /// a topology change moves the document.
    pub(crate) routes: RouteCache,
    /// Keeps the mash-up JS engine (and its listeners) alive.
    _engine: Option<Rc<RefCell<JsEngine>>>,
    /// Cart: its own document (the `cart`-th cart's), and the marker of the
    /// op in flight.
    cart_uri: String,
    marker: String,
    /// Its own counters; the recovery and traffic ones are read off the
    /// plug-in when it reports.
    stats: FleetStats,
    /// When the next interaction starts; `None` while one runs.
    next_turn: Option<u64>,
    /// What the interaction's last cluster reply said: a 503's
    /// `Retry-After`, in ms, and whether it was degraded or lagging.
    retry_after_ms: Option<u64>,
    degraded: bool,
}

fn panic_on<T>(id: usize, stage: &str, r: Result<T, impl std::fmt::Display>) -> T {
    r.unwrap_or_else(|e| panic!("fleet browser {id} {stage}: {e}"))
}

impl FleetBrowser {
    /// The run's browsers, with the cluster as a deferred host on each
    /// one's network.
    pub(crate) fn launch(cfg: &SimConfig) -> Vec<FleetBrowser> {
        let mut carts = 0;
        let mut browsers = Vec::new();
        for (id, &scenario) in cfg.browsers.iter().enumerate() {
            browsers.push(FleetBrowser::new(id, scenario, carts, cfg));
            carts += usize::from(scenario == Scenario::Cart);
        }
        browsers
    }

    fn new(id: usize, scenario: Scenario, cart: usize, cfg: &SimConfig) -> Self {
        let mut plugin = Plugin::new(PluginConfig::default());
        {
            let net = &mut plugin.host.borrow_mut().net;
            net.register_deferred(&format!("{CLUSTER_BASE}/"), CLUSTER_LATENCY_MS);
            if let Some(plan) = &cfg.net_fault {
                // reseeded per browser, so links fail independently
                let mut plan = plan.clone();
                plan.seed = mix64(cfg.seed ^ 0xf1ee7 ^ id as u64);
                net.set_fault_plan(CLUSTER_HOST, plan);
            }
            if scenario == Scenario::Mashup {
                // the private, never-faulted weather service of §6.2
                net.register("http://weather.local/", 10, |req| {
                    let loc = req.query_param("q").unwrap_or_default();
                    Response::ok(format!(
                        "<weather><summary>fair in {loc}</summary></weather>"
                    ))
                });
            }
        }
        let page = match scenario {
            Scenario::Elsevier | Scenario::ElsevierNoCache => ELSEVIER_PAGE,
            Scenario::Mashup => MASHUP_PAGE,
            Scenario::Cart => CART_PAGE,
        };
        let js_sources = panic_on(id, "load_page", plugin.load_page(page));
        let engine = (scenario == Scenario::Mashup).then(|| {
            let engine = JsEngine::new(plugin.store.clone(), plugin.page_doc());
            let js = Rc::new(RefCell::new(engine));
            for src in &js_sources {
                if let Err(e) = js.borrow_mut().run(src) {
                    panic!("fleet browser {id} js: {e:?}");
                }
            }
            let regs = js.borrow_mut().take_registrations();
            for (target, event_type, f) in regs {
                let js = js.clone();
                plugin.register_external_listener(target, &event_type, move |ev| {
                    let _ = js
                        .borrow_mut()
                        .dispatch_to(&f, &ev.event_type, ev.target, ev.button);
                });
            }
            js
        });
        FleetBrowser {
            id,
            scenario,
            plugin,
            routes: RouteCache::new(u64::MAX),
            _engine: engine,
            cart_uri: cart_uri(cart),
            marker: String::new(),
            stats: FleetStats {
                clients: 1,
                ..FleetStats::default()
            },
            next_turn: Some(1 + mix64(cfg.seed ^ 0x5eed ^ id as u64) % THINK_MS),
            retry_after_ms: None,
            degraded: false,
        }
    }

    /// Whether an interaction is waiting for its outcome.
    pub(crate) fn busy(&self) -> bool {
        self.next_turn.is_none()
    }

    /// One virtual ms: starts a due interaction while the run is `open`,
    /// runs the browser's due tasks, and once the interaction has its
    /// outcome, plans the next one a think time later.
    pub(crate) fn step(&mut self, now: u64, open: bool, seed: u64, articles: &[String]) {
        if open && self.next_turn.is_some_and(|t| t <= now) {
            self.interact(now, seed, articles);
        }
        panic_on(self.id, "run", self.plugin.run_until(now));
        let outcomes = {
            let r = &self.plugin.host.borrow().recovery.stats;
            r.completions + r.stale_events + r.error_events
        };
        if self.busy() && outcomes == self.stats.behind_calls {
            let mut think = THINK_MS;
            if let Some(ra) = self.retry_after_ms {
                self.stats.retry_after_honored += 1;
                think = think.max(ra);
            }
            if self.degraded {
                self.stats.degraded_observed += 1;
                think *= 2;
            }
            self.next_turn = Some(self.plugin.now().max(now) + think);
        }
    }

    /// Starts an interaction at `now`: the browser's clock joins the run's.
    fn begin(&mut self, now: u64) -> u64 {
        let lag = now.saturating_sub(self.plugin.now());
        self.plugin.advance_clock(lag);
        self.next_turn = None;
        self.retry_after_ms = None;
        self.degraded = false;
        self.stats.interactions += 1;
        self.stats.interactions - 1
    }

    /// The browser's `k`-th interaction, drawn from the run's seed.
    fn interact(&mut self, now: u64, seed: u64, articles: &[String]) {
        let k = self.begin(now);
        let draw = mix64(seed ^ ((self.id as u64) << 16) ^ k) as usize;
        match self.scenario {
            Scenario::Elsevier | Scenario::ElsevierNoCache => {
                let article = &articles[draw % articles.len()];
                self.eval(&format!(
                    r#"replace value of node //span[@id="target"] with "{article}""#
                ));
                // the cache-busting population fetches a unique URL every
                // time, so each interaction really travels to the origin;
                // `&amp;` because the URL is spliced into an XQuery string
                // literal, where a bare `&` starts an entity reference
                let url = match self.scenario {
                    Scenario::ElsevierNoCache => format!(
                        "{CLUSTER_BASE}/doc?uri={CORPUS_URI}&amp;client={}&amp;seq={k}",
                        self.id
                    ),
                    _ => format!("{CLUSTER_BASE}/doc?uri={CORPUS_URI}"),
                };
                self.behind_fetch(&url, "onDoc");
            }
            Scenario::Mashup => {
                let city = CITIES[draw % CITIES.len()];
                let id = self.id;
                panic_on(
                    id,
                    "searchbox",
                    self.plugin.set_attr_by_id("searchbox", "value", city),
                );
                panic_on(id, "click", self.plugin.click_id("searchbutton"));
                self.behind_fetch(&format!("{CLUSTER_BASE}/doc?uri=cities.xml"), "onCities");
            }
            Scenario::Cart => {
                let marker = format!("c{}op{k}", self.id);
                self.eval(&format!(
                    r#"replace value of node //span[@id="op"] with "{marker}""#
                ));
                let url = format!(
                    "{CLUSTER_BASE}/update?xq=insert node <item id=%22{marker}%22/> \
                     into doc(%22{uri}%22)/*",
                    uri = self.cart_uri
                );
                self.marker = marker;
                self.behind_fetch(&url, "onAck");
            }
        }
    }

    /// After chaos: the link to the cluster heals, and the page renders
    /// (Elsevier) or fetches its cities (mash-up) once more at `at`, to show
    /// it converged. Carts have nothing to render.
    pub(crate) fn converge(&mut self, at: u64, seed: u64, articles: &[String]) {
        self.plugin
            .host
            .borrow_mut()
            .net
            .clear_fault_plan(CLUSTER_HOST);
        match self.scenario {
            Scenario::Cart => {}
            Scenario::Mashup => {
                self.begin(at);
                self.behind_fetch(&format!("{CLUSTER_BASE}/doc?uri=cities.xml"), "onCities");
            }
            Scenario::Elsevier | Scenario::ElsevierNoCache => self.interact(at, seed, articles),
        }
    }

    fn eval(&mut self, src: &str) {
        panic_on(self.id, "eval", self.plugin.eval(src));
    }

    /// Issues one `behind` fetch — the unit every interaction is built from.
    fn behind_fetch(&mut self, url: &str, listener: &str) {
        self.eval(&format!(
            r#"on event "stateChanged" behind browser:httpGet("{url}")
               attach listener local:{listener}"#
        ));
        self.stats.behind_calls += 1;
    }

    /// The requests this browser sent the cluster by `now`.
    pub(crate) fn sent(&mut self, now: u64) -> Vec<Deferred> {
        self.plugin.host.borrow_mut().net.take_sent(now)
    }

    /// The `(uri, marker)` of the cart op in flight, for the update ledger.
    pub(crate) fn cart_op(&self) -> Option<(String, String)> {
        (self.scenario == Scenario::Cart).then(|| (self.cart_uri.clone(), self.marker.clone()))
    }

    /// Hands the browser the cluster's answer to its request `ticket`,
    /// arriving at `at`, and notes its overload and lag headers.
    pub(crate) fn deliver(&mut self, ticket: u64, done: &ClusterCompletion, at: u64) {
        let resp = &done.response;
        self.retry_after_ms = resp
            .header("Retry-After")
            .filter(|_| resp.status == 503)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|secs| secs.saturating_mul(1000));
        let lag = resp
            .header("X-XQIB-Replica-Lag")
            .and_then(|v| v.parse::<u64>().ok());
        self.degraded = resp.header("X-XQIB-Degraded").is_some()
            || lag.is_some_and(|l| l > LAG_BACKOFF_THRESHOLD);
        // successful updates reply with an empty body; the browser parses
        // XML responses, so ship a minimal ack
        let body = match resp.body.as_str() {
            "" => "<ok/>".to_string(),
            body => body.to_string(),
        };
        let reply = Response {
            status: resp.status,
            body,
            content_type: "application/xml".to_string(),
        };
        self.plugin.deliver(ticket, reply, at);
    }

    pub(crate) fn report(&self) -> ClientReport {
        let host = self.plugin.host.borrow();
        let r = &host.recovery.stats;
        let page = self.plugin.serialize_page();
        let origin = host.net.stats.per_host.get(CLUSTER_HOST);
        let stats = FleetStats {
            attempts: r.attempts,
            retries: r.retries,
            timeouts: r.timeouts,
            fetch_errors: r.fetch_errors,
            breaker_opens: r.breaker_opens,
            breaker_fast_fails: r.breaker_fast_fails,
            stale_served: r.stale_served,
            stale_events: r.stale_events,
            error_events: r.error_events,
            completions: r.completions,
            evictions: r.evictions,
            quarantine_trips: host.quarantine.stats.trips,
            origin_requests: origin.map_or(0, |h| h.requests),
            ..self.stats.clone()
        };
        ClientReport {
            id: self.id,
            scenario: self.scenario,
            stats,
            acked: page.matches("<li class=\"acked\">").count() as u64,
            final_mode: span_text(&page, "mode"),
            refcount: span_text(&page, "refcount"),
            maps: page.matches("class=\"map\"").count() as u64,
            cities: span_text(&page, "cities"),
            finished_at: self.plugin.now(),
        }
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
