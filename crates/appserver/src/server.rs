//! The application server: HTTP-ish routing over the XML database, with
//! the per-deployment metrics of the Figure 2 experiment.
//!
//! Requests can carry a *deadline budget* (engine fuel units, see
//! [`AppServer::handle_budgeted`]): the evaluator is preempted with
//! `XQIB0014` once the budget is spent, which the HTTP layer maps to 504.
//! The server also keeps whole-document snapshots of every bound document
//! so the request governor can degrade render-class requests to a cached
//! snapshot instead of failing them — the paper's own "serve whole
//! documents rather than individual queries to documents" caching argument
//! (§6.1). The cache is filled on demand by the first degraded read after
//! an invalidation (successful updates invalidate it), so a write pays for
//! the write, not for re-serialising the whole store.

use std::collections::HashMap;

use xqib_browser::net::percent_decode;
use xqib_dom::order::stats as engine_stats;
use xqib_dom::order::stats::EngineStats;
use xqib_storage::VirtualDisk;
use xqib_xdm::XdmResult;

use crate::metrics::ServerMetrics;
use crate::render;
use crate::xmldb::{DurabilityConfig, XmlDb};

/// An application-server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerResponse {
    pub status: u16,
    pub body: String,
    /// Response headers (`Retry-After`, `X-XQIB-Degraded`, …).
    pub headers: Vec<(String, String)>,
}

impl ServerResponse {
    pub fn new(status: u16, body: impl Into<String>) -> Self {
        ServerResponse {
            status,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The first header with this name (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The 421 ownership/fencing refusal a shard returns for a document it
    /// does not serve (misroute, or migrated away under a newer topology
    /// epoch). Carries the current owner and epoch so clients re-resolve
    /// instead of retrying the same shard.
    pub fn misrouted(shard: usize, uri: &str, owner: usize, epoch: u64) -> Self {
        ServerResponse::new(
            421,
            format!(
                "<error code=\"XQIB0015\">shard {shard} does not serve {uri}; \
                 owner is shard {owner} at epoch {epoch}</error>"
            ),
        )
        .with_header("X-XQIB-Owner", &owner.to_string())
        .with_header("X-XQIB-Epoch", &epoch.to_string())
    }
}

/// The Reference 2.0 application server.
pub struct AppServer {
    pub db: XmlDb,
    pub metrics: ServerMetrics,
    /// This thread's engine counters at construction time; `metrics`
    /// reports the delta from here.
    engine_baseline: EngineStats,
    /// Whole-document snapshots by URI: the degradation cache. `None` after
    /// construction and after every [`Self::invalidate_snapshots`]; the
    /// next degraded read re-dumps the store. A degraded response is always
    /// a well-formed document the server committed — possibly stale, never
    /// torn.
    snapshots: Option<HashMap<String, String>>,
}

impl AppServer {
    /// Builds a server over a corpus document.
    pub fn new(corpus_xml: &str) -> XdmResult<Self> {
        Self::with_db(XmlDb::new(), corpus_xml)
    }

    /// Builds a durable server: the corpus load and every applied update
    /// are journaled to `disk` (see [`XmlDb::durable`]).
    pub fn new_durable(
        corpus_xml: &str,
        disk: VirtualDisk,
        cfg: DurabilityConfig,
    ) -> XdmResult<Self> {
        Self::with_db(XmlDb::durable(disk, cfg), corpus_xml)
    }

    /// Rebuilds a durable server from a crashed disk image (checkpoint +
    /// committed WAL suffix; see [`XmlDb::recover`]).
    pub fn recover(disk: VirtualDisk, cfg: DurabilityConfig) -> XdmResult<Self> {
        Ok(Self::from_db(XmlDb::recover(disk, cfg)?))
    }

    fn with_db(mut db: XmlDb, corpus_xml: &str) -> XdmResult<Self> {
        db.load(render::CORPUS_URI, corpus_xml)?;
        Ok(Self::from_db(db))
    }

    /// Wraps an already-populated database — no corpus load. Cluster
    /// shards use this: only the shard owning `corpus.xml` holds the
    /// corpus; the rest serve whatever documents route to them.
    pub fn from_db(db: XmlDb) -> Self {
        let mut metrics = ServerMetrics::default();
        metrics.record_durability(&db.durability_stats());
        AppServer {
            db,
            metrics,
            engine_baseline: engine_stats::snapshot(),
            snapshots: None,
        }
    }

    /// Marks the degradation cache stale after the store changed: the next
    /// degraded read re-serialises every bound document. Costs nothing
    /// until then.
    pub fn invalidate_snapshots(&mut self) {
        self.snapshots = None;
    }

    /// The cached whole-document snapshot a degraded request falls back to:
    /// `/doc?uri=U` degrades to the snapshot of `U`, every other
    /// render-class route (`/page`, `/index`) to the corpus snapshot. The
    /// response carries an `X-XQIB-Degraded` marker so clients can tell a
    /// fallback from a fresh render. The first call after an invalidation
    /// refills the cache from the store; later calls serve from it.
    pub fn degraded_snapshot(&mut self, url: &str) -> Option<ServerResponse> {
        let (path, query) = split_url(url);
        let uri = match path.as_str() {
            "/doc" => param(&query, "uri")?,
            _ => render::CORPUS_URI.to_string(),
        };
        let db = &self.db;
        let snapshots = self
            .snapshots
            .get_or_insert_with(|| db.dump().into_iter().collect());
        let body = snapshots.get(&uri)?.clone();
        Some(
            ServerResponse::new(200, body)
                .with_header("X-XQIB-Degraded", "whole-document-snapshot"),
        )
    }

    /// Handles one request URL (path + query). Routes:
    ///
    /// * `/page?article=ID` — server-rendered article page (the "before"
    ///   deployment: one XQuery evaluation per interaction);
    /// * `/index` — server-rendered journal index;
    /// * `/doc?uri=U` — a whole stored document (the migrated deployment's
    ///   cache-friendly REST API: "serve whole documents rather than
    ///   individual queries to documents", §6.1);
    /// * `/query?xq=Q` — ad-hoc server-side XQuery (legacy fine-grained API);
    /// * `/update?xq=Q` — updating XQuery (journaled in durable mode);
    /// * `/metrics` — the [`ServerMetrics`] counters as XML.
    pub fn handle(&mut self, url: &str) -> ServerResponse {
        self.handle_budgeted(url, None).0
    }

    /// Like [`Self::handle`], but with an optional deadline budget in
    /// engine fuel units. Returns the response and the fuel the evaluation
    /// consumed (0 for routes that evaluate nothing), which the request
    /// governor converts back into virtual service time.
    pub fn handle_budgeted(&mut self, url: &str, budget: Option<u64>) -> (ServerResponse, u64) {
        self.metrics.requests += 1;
        let (path, query) = split_url(url);
        let (resp, fuel_used) = match path.as_str() {
            "/page" => match param(&query, "article") {
                Some(id) => self.render_query(&render::article_page_query(&id), budget),
                None => (bad_request("missing article parameter"), 0),
            },
            "/index" => self.render_query(&render::index_page_query(), budget),
            "/doc" => match param(&query, "uri") {
                // the read path recomputes the document's content digest
                // against the one sealed at journal time: bytes that no
                // longer hash to what was acknowledged are never served
                Some(uri) => {
                    let recorded = self.db.digest_of(&uri).is_some();
                    match self.db.verified_serialize(&uri) {
                        Ok(Some(body)) => {
                            if recorded {
                                self.metrics.doc_reads_verified += 1;
                            }
                            (ServerResponse::new(200, body), 0)
                        }
                        Ok(None) => (not_found(&format!("no document {uri}")), 0),
                        Err(e) => {
                            self.metrics.doc_reads_refused += 1;
                            (
                                ServerResponse::new(
                                    500,
                                    format!("<error code=\"XQIB0019\">{e}</error>"),
                                ),
                                0,
                            )
                        }
                    }
                }
                None => (bad_request("missing uri parameter"), 0),
            },
            "/query" | "/update" => match param(&query, "xq") {
                Some(xq) => {
                    let r = self.render_query(&xq, budget);
                    if path == "/update" && r.0.status == 200 {
                        // a later degraded response reflects the last
                        // successful update
                        self.invalidate_snapshots();
                    }
                    r
                }
                None => (bad_request("missing xq parameter"), 0),
            },
            "/metrics" => (ServerResponse::new(200, self.metrics.to_xml()), 0),
            other => (not_found(&format!("no route {other}")), 0),
        };
        self.metrics.bytes_out += resp.body.len() as u64;
        self.metrics
            .record_engine_stats(self.engine_baseline, engine_stats::snapshot());
        self.metrics.record_durability(&self.db.durability_stats());
        (resp, fuel_used)
    }

    fn render_query(&mut self, xq: &str, budget: Option<u64>) -> (ServerResponse, u64) {
        let (result, fuel_used) = self.db.query_with_deadline(xq, budget);
        self.metrics.xquery_evals = self.db.evals;
        self.metrics.record_plan_cache(&self.db.plan_stats());
        let resp = match result {
            Ok(body) => ServerResponse::new(200, body),
            Err(e) => ServerResponse::new(status_for(&e.code), format!("<error>{e}</error>")),
        };
        (resp, fuel_used)
    }
}

/// Maps an engine error code to an HTTP status: a missing source document
/// is the client's 404, static (parse/type) errors are the client's 400, a
/// blown request deadline is a 504, anything dynamic is the server's 500.
fn status_for(code: &str) -> u16 {
    if code == "FODC0002" {
        404
    } else if code.starts_with("XPST") || code.starts_with("XQST") || code.starts_with("XQTY") {
        400
    } else if code == "XQIB0014" {
        504
    } else {
        500
    }
}

/// Splits a request URL into `(path, query)`. The scheme/host prefix and
/// any `#fragment` suffix are stripped; a URL with no path at all
/// (`http://host?x=1`) keeps its query and gets the root path.
pub(crate) fn split_url(url: &str) -> (String, String) {
    // strip #fragment first: fragments are client-side only
    let url = url.split_once('#').map_or(url, |(u, _)| u);
    // strip scheme://host if present; the path starts at the first '/',
    // or at '?' for empty-path URLs
    let rest = match url.split_once("://") {
        Some((_, r)) => match (r.find('/'), r.find('?')) {
            (Some(slash), Some(q)) if q < slash => &r[q..],
            (Some(slash), _) => &r[slash..],
            (None, Some(q)) => &r[q..],
            (None, None) => "",
        },
        None => url,
    };
    match rest.split_once('?') {
        Some((p, q)) => (normalize_path(p), q.to_string()),
        None => (normalize_path(rest), String::new()),
    }
}

fn normalize_path(p: &str) -> String {
    if p.is_empty() {
        "/".to_string()
    } else {
        p.to_string()
    }
}

/// The query parameter `name`, with the same semantics as
/// `xqib_browser::net::Request::query_param`: pairs without `=` are
/// skipped rather than aborting the scan, and values get real `%xx`
/// percent-decoding (one shared helper, not a second buggy copy).
pub(crate) fn param(query: &str, name: &str) -> Option<String> {
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        if k == name {
            return Some(percent_decode(v));
        }
    }
    None
}

fn not_found(msg: &str) -> ServerResponse {
    ServerResponse::new(404, format!("<error>{msg}</error>"))
}

/// A malformed request (missing/invalid parameters) is the client's fault:
/// 400 with a distinct error class, never the 404 of a missing resource.
fn bad_request(msg: &str) -> ServerResponse {
    ServerResponse::new(400, format!("<error class=\"bad-request\">{msg}</error>"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusSpec};
    use proptest::prelude::*;

    fn server() -> AppServer {
        AppServer::new(&generate_corpus(&CorpusSpec::default())).unwrap()
    }

    #[test]
    fn page_route_renders_article() {
        let mut s = server();
        let r = s.handle("http://ref2.example/page?article=j0-v0-i0-a0");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("<table id=\"refs\">"));
        assert_eq!(s.metrics.requests, 1);
        assert_eq!(s.metrics.xquery_evals, 1);
        assert!(s.metrics.bytes_out > 0);
        // Rendering the page evaluates paths over the corpus, which needs
        // the order index at least once (the counters are per thread, not
        // per server, so only a lower bound is assertable).
        assert!(s.metrics.order_index_rebuilds >= 1);
        assert!(s.metrics.sorts_performed + s.metrics.sorts_elided >= 1);
    }

    #[test]
    fn doc_route_serves_whole_documents_without_evals() {
        let mut s = server();
        let r = s.handle("/doc?uri=corpus.xml");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("<library>"));
        assert_eq!(s.metrics.xquery_evals, 0, "no server-side XQuery");
    }

    #[test]
    fn statuses_split_client_errors_from_missing_resources() {
        let mut s = server();
        // 400: syntactically broken requests (missing required parameters)
        for url in ["/page", "/doc", "/query", "/update", "/doc?x=1"] {
            let r = s.handle(url);
            assert_eq!(r.status, 400, "{url} is a client error");
            assert!(
                r.body.contains("class=\"bad-request\""),
                "{url}: {}",
                r.body
            );
            assert!(r.body.contains("missing"), "{url}: {}", r.body);
        }
        // 404: well-formed requests for resources that do not exist
        for url in ["/nope", "/doc?uri=missing.xml"] {
            let r = s.handle(url);
            assert_eq!(r.status, 404, "{url} is a missing resource");
            assert!(!r.body.contains("bad-request"), "{url}: {}", r.body);
        }
        // 500: a well-formed request whose evaluation fails dynamically
        assert_eq!(s.handle("/query?xq=1+div+0").status, 500);
        assert_eq!(s.metrics.requests, 8);
    }

    #[test]
    fn query_route() {
        let mut s = server();
        let r = s.handle("/query?xq=count(doc('corpus.xml')//article)");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "48");
        let r = s.handle("/query?xq=1+div+0");
        assert_eq!(r.status, 500, "dynamic error stays a server error");
    }

    #[test]
    fn error_codes_map_to_http_statuses() {
        let mut s = server();
        // missing source document → client 404
        let r = s.handle("/query?xq=doc('nope.xml')");
        assert_eq!(r.status, 404);
        assert!(r.body.contains("FODC0002"));
        // parse error → client 400
        let r = s.handle("/query?xq=1+%2B");
        assert_eq!(r.status, 400);
        // unknown function → static error → client 400
        let r = s.handle("/query?xq=no:such-function()");
        assert_eq!(r.status, 400);
    }

    #[test]
    fn params_are_percent_decoded_and_flags_are_skipped() {
        let mut s = server();
        // %28/%29 parens and a valueless flag before the real parameter
        let r = s.handle("/query?flag&xq=count%28doc%28%27corpus.xml%27%29%2F%2Farticle%29");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "48");
    }

    #[test]
    fn update_route_mutates_and_journals() {
        let disk = xqib_storage::VirtualDisk::new();
        let corpus = generate_corpus(&CorpusSpec::default());
        let mut s =
            AppServer::new_durable(&corpus, disk.clone(), DurabilityConfig::default()).unwrap();
        let r = s.handle(
            "/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*",
        );
        assert_eq!(r.status, 200);
        assert!(s.metrics.wal_appends >= 2, "corpus load + update journaled");
        let r = s.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "1");
        // the journaled update survives a crash + recovery
        disk.crash();
        let mut s2 = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(s2.metrics.recoveries, 1);
        let r = s2.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "1");
    }

    #[test]
    fn index_route() {
        let mut s = server();
        let r = s.handle("/index");
        assert!(r.body.contains("<ul id=\"journals\">"));
    }

    #[test]
    fn metrics_route_serializes_every_counter() {
        let mut s = server();
        s.handle("/page?article=j0-v0-i0-a0");
        let r = s.handle("/metrics");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("<metrics>"), "{}", r.body);
        assert!(r.body.ends_with("</metrics>"));
        // a handful of load-bearing fields, incl. the overload counters
        for field in [
            "<requests>2</requests>",
            "<xquery-evals>1</xquery-evals>",
            "<admitted>0</admitted>",
            "<shed>0</shed>",
            "<degraded>0</degraded>",
            "<deadline-exceeded>0</deadline-exceeded>",
            "<queue-delay-p50-ms>0</queue-delay-p50-ms>",
            "<queue-delay-p99-ms>0</queue-delay-p99-ms>",
            "<plan-cache-hits>0</plan-cache-hits>",
            "<plan-cache-misses>1</plan-cache-misses>",
        ] {
            assert!(r.body.contains(field), "missing {field} in {}", r.body);
        }
    }

    #[test]
    fn deadline_budget_preempts_with_504() {
        let mut s = server();
        let (r, fuel) = s.handle_budgeted("/page?article=j0-v0-i0-a0", Some(10));
        assert_eq!(r.status, 504, "{}", r.body);
        assert!(r.body.contains("XQIB0014"), "{}", r.body);
        assert!(fuel >= 10, "charged at least the budget");
        // an unbudgeted retry succeeds
        let (r, fuel) = s.handle_budgeted("/page?article=j0-v0-i0-a0", None);
        assert_eq!(r.status, 200);
        assert!(fuel > 10, "a real render costs far more than the budget");
    }

    #[test]
    fn deadline_killed_update_has_no_effects() {
        let mut s = server();
        let (r, _) = s.handle_budgeted(
            "/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*",
            Some(3),
        );
        assert_eq!(r.status, 504, "{}", r.body);
        let r = s.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "0", "the killed update applied nothing");
    }

    #[test]
    fn degraded_snapshot_serves_whole_documents() {
        let mut s = server();
        let snap = s.degraded_snapshot("/page?article=j0-v0-i0-a0").unwrap();
        assert_eq!(snap.status, 200);
        assert!(snap.body.starts_with("<library>"));
        assert_eq!(
            snap.header("X-XQIB-Degraded"),
            Some("whole-document-snapshot")
        );
        assert_eq!(
            s.degraded_snapshot("/doc?uri=corpus.xml").unwrap().body,
            snap.body
        );
        assert!(s.degraded_snapshot("/doc?uri=missing.xml").is_none());
        // the cache follows successful updates
        s.handle("/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*");
        let snap = s.degraded_snapshot("/index").unwrap();
        assert!(snap.body.contains("<note>hi</note>"));
    }

    fn insert_note(text: &str) -> String {
        format!("xq=insert+node+%3Cnote%3E{text}%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*")
    }

    #[test]
    fn degradation_cache_is_filled_on_demand_after_updates() {
        let mut s = server();
        for i in 0..5 {
            let r = s.handle(&format!("/update?{}", insert_note(&format!("n{i}"))));
            assert_eq!(r.status, 200, "{}", r.body);
        }
        // the first degraded read after the updates sees every one of them
        let snap = s.degraded_snapshot("/index").unwrap();
        for i in 0..5 {
            assert!(snap.body.contains(&format!("<note>n{i}</note>")));
        }
        assert_eq!(Some(snap.body.clone()), s.db.serialize("corpus.xml"));
        // no intervening update: served from the cache, byte for byte
        assert_eq!(s.degraded_snapshot("/index").unwrap().body, snap.body);
        // an updating /query does not invalidate, so the cache stays put
        let r = s.handle(&format!("/query?{}", insert_note("q")));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(s.degraded_snapshot("/index").unwrap().body, snap.body);
        // the next /update invalidates, and the refill sees both writes
        s.handle(&format!("/update?{}", insert_note("u")));
        let snap = s.degraded_snapshot("/index").unwrap();
        assert!(snap.body.contains("<note>q</note>") && snap.body.contains("<note>u</note>"));
    }

    // ----- split_url / param edge cases -------------------------------------

    #[test]
    fn split_url_edge_cases() {
        assert_eq!(split_url("/page?a=1"), ("/page".into(), "a=1".into()));
        assert_eq!(
            split_url("http://h/page?a=1"),
            ("/page".into(), "a=1".into())
        );
        // fragments are stripped from path and query alike
        assert_eq!(split_url("/page#frag"), ("/page".into(), "".into()));
        assert_eq!(
            split_url("http://h/page?a=1#frag"),
            ("/page".into(), "a=1".into())
        );
        // empty-path URLs keep their query
        assert_eq!(split_url("http://h?x=1"), ("/".into(), "x=1".into()));
        assert_eq!(split_url("http://h"), ("/".into(), "".into()));
        assert_eq!(split_url("http://h#f"), ("/".into(), "".into()));
        // '?' before the first '/' still means empty path
        assert_eq!(
            split_url("http://h?x=/page"),
            ("/".into(), "x=/page".into())
        );
    }

    #[test]
    fn param_edge_cases() {
        assert_eq!(param("a=1&&b=2", "b").as_deref(), Some("2"));
        assert_eq!(param("a=1&b=2&", "b").as_deref(), Some("2"));
        assert_eq!(param("&a=1", "a").as_deref(), Some("1"));
        assert_eq!(param("flag&a=1", "flag"), None, "valueless pair skipped");
        // truncated %-escapes survive undecoded rather than panicking
        assert_eq!(param("a=%4", "a").as_deref(), Some("%4"));
        assert_eq!(param("a=%", "a").as_deref(), Some("%"));
        assert_eq!(param("a=%zz", "a").as_deref(), Some("%zz"));
    }

    proptest! {
        /// Round trip: a path/query pair assembled into each URL shape
        /// splits back into exactly the same pair, with or without a
        /// scheme/host prefix or a fragment suffix.
        #[test]
        fn split_url_round_trips(
            path_seg in "[a-z]{0,8}",
            query in "[a-z0-9=&%+]{0,16}",
            frag in "[a-z]{0,4}",
            host in "[a-z]{1,6}",
        ) {
            let path = format!("/{path_seg}");
            let assembled = [
                format!("{path}?{query}"),
                format!("http://{host}{path}?{query}"),
                format!("{path}?{query}#{frag}"),
                format!("http://{host}{path}?{query}#{frag}"),
            ];
            for url in &assembled {
                let (p, q) = split_url(url);
                prop_assert_eq!(&p, &path, "{}", url);
                prop_assert_eq!(&q, &query, "{}", url);
            }
        }

        /// `param` never panics and finds a present key through arbitrary
        /// junk separators (`&&`, trailing `&`, truncated escapes).
        #[test]
        fn param_is_total_and_finds_planted_keys(
            junk in "[a-z0-9=&%+]{0,24}",
            value in "[a-z0-9+%]{0,8}",
        ) {
            let q = format!("{junk}&needle={value}&{junk}");
            let got = param(&q, "needle");
            // the planted pair is always found unless the junk itself
            // plants an earlier `needle=`; either way a value comes back
            prop_assert!(got.is_some(), "{}", q);
            let _ = param(&junk, "absent"); // must not panic
        }
    }
}
