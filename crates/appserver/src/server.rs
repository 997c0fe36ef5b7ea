//! The application server: HTTP-ish routing over the XML database, with
//! the per-deployment metrics of the Figure 2 experiment.
//!
//! Requests can carry a *deadline budget* (engine fuel units, see
//! [`AppServer::handle_budgeted`]): the evaluator is preempted with
//! `XQIB0014` once the budget is spent, which the HTTP layer maps to 504.
//! Every whole-document read — `/doc`, and the whole-document snapshot the
//! request governor degrades a render-class request to instead of failing
//! it — serves the document's *image*: its body and its state digest (the
//! cached subtree hash, `Document::tree_hash`), built by one serialization
//! on the first read of a document version and shared by every later read
//! of that version (`Document::image`).
//! That is the paper's own "serve whole documents rather than individual
//! queries to documents" caching argument (§6.1): an unchanged document is
//! serialized once, a write pays for the write, and the next read of the
//! new version pays for one pass over the one document it reads.

use xqib_browser::net::percent_decode;
use xqib_dom::order::stats as engine_stats;
use xqib_dom::order::stats::EngineStats;
use xqib_storage::VirtualDisk;
use xqib_xdm::{Item, XdmResult};

use crate::metrics::{MetricsSnapshot, ServerMetrics};
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
    /// This thread's engine counters at construction time; `/metrics`
    /// reports the delta from here.
    engine_baseline: EngineStats,
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
        AppServer {
            db,
            metrics: ServerMetrics::default(),
            engine_baseline: engine_stats::snapshot(),
        }
    }

    /// The whole-document snapshot a degraded request falls back to:
    /// `/doc?uri=U` degrades to the image of `U`, every other render-class
    /// route (`/page`, `/index`) to the corpus image. The response carries
    /// an `X-XQIB-Degraded` marker so clients can tell a fallback from a
    /// fresh render. It is always a well-formed document the server holds
    /// between requests — never torn — and the first read of a document
    /// version builds its image; later reads of that version share it.
    pub fn degraded_snapshot(&self, url: &str) -> Option<ServerResponse> {
        let (path, query) = split_url(url);
        let uri = match path.as_str() {
            "/doc" => param(&query, "uri")?,
            _ => render::CORPUS_URI.to_string(),
        };
        let image = self.db.image(&uri)?;
        Some(
            ServerResponse::new(200, image.body.clone())
                .with_header("X-XQIB-Degraded", "whole-document-snapshot"),
        )
    }

    /// Handles one request URL (path + query). Routes:
    ///
    /// * `/page?article=ID` — server-rendered article page (the "before"
    ///   deployment: one XQuery evaluation per interaction), one prepared
    ///   plan for every article with the ID bound as `$article`;
    /// * `/index` — server-rendered journal index;
    /// * `/doc?uri=U` — a whole stored document (the migrated deployment's
    ///   cache-friendly REST API: "serve whole documents rather than
    ///   individual queries to documents", §6.1);
    /// * `/query?xq=Q` — ad-hoc server-side XQuery (legacy fine-grained API);
    /// * `/update?xq=Q` — updating XQuery (journaled in durable mode);
    /// * `/metrics` — this server's [`MetricsSnapshot`] as XML.
    pub fn handle(&mut self, url: &str) -> ServerResponse {
        self.handle_budgeted(url, None).0
    }

    /// Like [`Self::handle`], but with an optional deadline budget in
    /// engine fuel units. Returns the response and the fuel the evaluation
    /// consumed (0 for routes that evaluate nothing), which the request
    /// governor converts back into virtual service time.
    pub fn handle_budgeted(&mut self, url: &str, budget: Option<u64>) -> (ServerResponse, u64) {
        let (path, query) = split_url(url);
        if path == "/metrics" {
            return (self.serve_snapshot(self.metrics_snapshot()), 0);
        }
        self.metrics.requests += 1;
        let (resp, fuel_used) = match path.as_str() {
            "/page" => match param(&query, "article") {
                Some(id) => self.render_query(
                    render::article_page_prepared(),
                    budget,
                    &[(render::ARTICLE_VAR, Item::string(id))],
                ),
                None => (bad_request("missing article parameter"), 0),
            },
            "/index" => self.render_query(&render::index_page_query(), budget, &[]),
            "/doc" => match param(&query, "uri") {
                // the one verified read (`XmlDb::verified_serialize`): a
                // document whose state no longer digests to its seal is
                // never served. The digest is the cached subtree hash, so
                // damage that bypassed the DOM's writers shows only once
                // the document is re-hashed from scratch
                Some(uri) => {
                    let sealed = self.db.digest_of(&uri).is_some();
                    match self.db.verified_serialize(&uri) {
                        Ok(Some(body)) => {
                            self.metrics.doc_reads_verified += u64::from(sealed);
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
                Some(xq) => self.render_query(&xq, budget, &[]),
                None => (bad_request("missing xq parameter"), 0),
            },
            other => (not_found(&format!("no route {other}")), 0),
        };
        self.metrics.bytes_out += resp.body.len() as u64;
        (resp, fuel_used)
    }

    /// Serves a `/metrics` scrape of `m`, a [`Self::metrics_snapshot`] the
    /// layers around this server may have added to: counts the scrape as a
    /// request, in `m` too, and its body as bytes out.
    pub fn serve_snapshot(&mut self, mut m: MetricsSnapshot) -> ServerResponse {
        self.metrics.requests += 1;
        m.server.requests = self.metrics.requests;
        let resp = ServerResponse::new(200, m.to_xml());
        self.metrics.bytes_out += resp.body.len() as u64;
        resp
    }

    /// This server's `/metrics` counters, read from their owners now: its
    /// own, its database's and the engine's. The layers around it stay at
    /// their defaults.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            server: self.metrics.clone(),
            xquery_evals: self.db.evals,
            engine: engine_stats::snapshot().since(self.engine_baseline),
            durability: self.db.durability_stats(),
            plan_cache: self.db.plan_stats(),
            ..MetricsSnapshot::default()
        }
    }

    fn render_query(
        &mut self,
        xq: &str,
        budget: Option<u64>,
        bindings: &[(&str, Item)],
    ) -> (ServerResponse, u64) {
        let (result, fuel_used) = self.db.query_with_deadline(xq, budget, bindings);
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
    params(query, name).next()
}

/// Every value of the query parameter `name`, in order, decoded as
/// [`param`] decodes the first.
pub(crate) fn params<'q>(query: &'q str, name: &'q str) -> impl Iterator<Item = String> + 'q {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .filter(move |&(k, _)| k == name)
        .map(|(_, v)| percent_decode(v))
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
    use crate::corpus::{article_ids, generate_corpus, CorpusSpec};
    use proptest::prelude::*;

    fn server() -> AppServer {
        AppServer::new(&generate_corpus(&CorpusSpec::default())).unwrap()
    }

    /// Renders `src` on the AST oracle over the server's own store, with
    /// `bindings` as external variables — what `/page`, `/index` and
    /// `/query` answer with on the executor.
    fn oracle_body(s: &AppServer, src: &str, bindings: &[(&str, Item)]) -> XdmResult<String> {
        let q = xqib_xquery::compile(src)?;
        let mut ctx = xqib_xquery::DynamicContext::new(s.db.store.clone(), q.sctx.clone());
        for (name, value) in bindings {
            ctx.bind_global(xqib_dom::QName::local(name), vec![value.clone()]);
        }
        let out = q.execute(&mut ctx)?;
        Ok(xqib_xquery::runtime::render_sequence(&ctx, &out))
    }

    fn oracle_page(s: &AppServer, id: &str) -> String {
        let article = [(render::ARTICLE_VAR, Item::string(id))];
        oracle_body(s, render::article_page_prepared(), &article).unwrap()
    }

    #[test]
    fn page_route_renders_article() {
        let url = "http://ref2.example/page?article=j0-v0-i0-a0";
        let mut s = server();
        let r = s.handle(url);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("<table id=\"refs\">"));
        assert_eq!(s.metrics.requests, 1);
        assert_eq!(s.db.evals, 1);
        assert!(s.metrics.bytes_out > 0);
        // The oracle proves the page's path steps ordered, so it neither
        // sorts nor builds the order index (the counters are per thread and
        // diffed from the server's construction, so the counts are exact;
        // debug builds check the order without the index, so both profiles
        // count the same work).
        let interpreted = server();
        let ri = oracle_page(&interpreted, "j0-v0-i0-a0");
        assert_eq!(ri, r.body, "executor and oracle render the same page");
        let engine = interpreted.metrics_snapshot().engine;
        assert_eq!(engine.order_index_rebuilds, 0);
        assert_eq!(engine.sorts_performed, 0);
        assert!(engine.sorts_elided >= 1);
        // A union of two paths does sort, on one build of the index.
        let ru = oracle_body(
            &interpreted,
            "count(doc('corpus.xml')//article|doc('corpus.xml')//journal)",
            &[],
        );
        assert!(ru.is_ok(), "{ru:?}");
        let engine = interpreted.metrics_snapshot().engine;
        assert_eq!(engine.order_index_rebuilds, 1);
        assert!(engine.sorts_performed >= 1);
    }

    /// Documents and arena slots in the server's store.
    fn store_sizes(s: &AppServer) -> (usize, usize) {
        let store = s.db.store.borrow();
        (store.doc_count(), store.node_count())
    }

    /// Renders to run: the assertions are exact, so any per-request growth
    /// fails them at every count; the release lib suites run the full
    /// count.
    const RENDERS: usize = if cfg!(debug_assertions) {
        2_000
    } else {
        100_000
    };

    /// Nothing a render builds outlives it: after the first prepared
    /// `/page`, every later one leaves the store with exactly the documents
    /// and arena slots it had.
    #[test]
    fn renders_leave_the_store_as_they_found_it() {
        let ids = article_ids(&CorpusSpec::default());
        let mut s = server();
        let page = |i: usize| format!("/page?article={}", ids[i % ids.len()]);
        assert_eq!(s.handle(&page(0)).status, 200);
        let after_first = store_sizes(&s);
        for i in 1..RENDERS {
            assert_eq!(s.handle(&page(i)).status, 200);
        }
        assert_eq!(store_sizes(&s), after_first);
    }

    /// The same for cart updates mixed with renders: the store keeps its
    /// document count, its only new slots are the cart's, and every
    /// inserted item still serializes in the cart.
    #[test]
    fn cart_updates_grow_only_the_cart() {
        let ids = article_ids(&CorpusSpec::default());
        let mut s = server();
        s.db.load("cart.xml", "<cart/>").unwrap();
        let update = |i: usize| {
            format!(
                "/update?xq=insert+node+%3Citem+id%3D%22u{i}%22%2F%3E+into+doc(%27cart.xml%27)%2F*"
            )
        };
        let cart_len = |s: &AppServer| {
            let store = s.db.store.borrow();
            store.doc(store.doc_by_uri("cart.xml").unwrap()).len()
        };
        assert_eq!(s.handle(&update(0)).status, 200);
        let (docs, nodes) = store_sizes(&s);
        let cart_after_first = cart_len(&s);
        for i in 1..1_000 {
            assert_eq!(s.handle(&update(i)).status, 200);
            let page = format!("/page?article={}", ids[i % ids.len()]);
            assert_eq!(s.handle(&page).status, 200);
        }
        assert_eq!(
            store_sizes(&s),
            (docs, nodes + cart_len(&s) - cart_after_first)
        );
        let cart = s.db.serialize("cart.xml").unwrap();
        for i in 0..1_000 {
            assert!(cart.contains(&format!("<item id=\"u{i}\"/>")), "u{i}");
        }
    }

    /// The render routes' queries compile and lower, and the executor's
    /// body is byte-identical to the oracle's for every article. `/page`
    /// is one prepared plan: a single plan-cache miss serves every
    /// article, and from the second render on the article is looked up in
    /// the corpus's attribute-value index instead of walking the corpus.
    #[test]
    fn render_routes_are_compiled_and_match_the_interpreter() {
        let ids = article_ids(&CorpusSpec::default());
        let registry = xqib_xquery::ModuleRegistry::new();
        let queries = ids.iter().map(|id| render::article_page_query(id)).chain([
            render::article_page_prepared().to_string(),
            render::index_page_query(),
        ]);
        for q in queries {
            let plan = xqib_xquery::plancache::compile_plan(&q, &registry, false);
            assert!(plan.is_ok(), "{q}");
        }
        let mut compiled = server();
        let interpreted = server();
        for id in &ids {
            let url = format!("/page?article={id}");
            let c = compiled.handle(&url);
            assert_eq!(c.status, 200, "{url}: {}", c.body);
            assert_eq!(c.body, oracle_page(&interpreted, id), "{url}");
        }
        let plans = compiled.db.plan_stats();
        assert_eq!((plans.misses, plans.hits), (1, ids.len() as u64 - 1));
        let engine = compiled.metrics_snapshot().engine;
        assert_eq!(
            (engine.attr_index_builds, engine.attr_index_hits),
            (1, ids.len() as u64 - 1),
            "the first render scans, the second builds, the rest look up"
        );
        let c = compiled.handle("/index");
        assert_eq!(c.status, 200, "{}", c.body);
        let index = oracle_body(&interpreted, &render::index_page_query(), &[]);
        assert_eq!(c.body, index.unwrap());
    }

    /// `/page` binds the article ID as a value, never as query text: an ID
    /// that would break out of a spliced string literal renders exactly
    /// like an unknown ID, and so does the self-contained page text, whose
    /// literal escapes it.
    #[test]
    fn hostile_article_ids_render_like_unknown_ones() {
        let encode = |id: &str| -> String { id.bytes().map(|b| format!("%{b:02X}")).collect() };
        let mut s = server();
        let unknown = s.handle("/page?article=no-such-article");
        assert_eq!(unknown.status, 200, "{}", unknown.body);
        assert!(!unknown.body.contains("<tr>"), "{}", unknown.body);
        let hostile = [
            r#"x"]|//journal|//x[@id=""#,
            "x']|//journal|//x[@id='",
            "j0-v0-i0-a0\"]",
            "]",
            "{doc('corpus.xml')}",
            "&",
            "&amp;",
            "j0-v0-i0-a0&x=1",
            "\"\"",
        ];
        for id in hostile {
            let r = s.handle(&format!("/page?article={}", encode(id)));
            assert_eq!((r.status, &r.body), (200, &unknown.body), "{id}");
            let q = s.db.query(&render::article_page_query(id));
            assert_eq!(q.as_ref(), Ok(&unknown.body), "{id}");
        }
        // the encoding itself is harmless: a real ID still renders
        let real = s.handle(&format!("/page?article={}", encode("j0-v0-i0-a0")));
        assert!(real.body.contains("(j0-v0-i0-a0)"), "{}", real.body);
    }

    #[test]
    fn doc_route_serves_whole_documents_without_evals() {
        let mut s = server();
        let r = s.handle("/doc?uri=corpus.xml");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("<library>"));
        assert_eq!(s.db.evals, 0, "no server-side XQuery");
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
        assert!(
            s.db.durability_stats().wal_appends >= 2,
            "corpus load + update journaled"
        );
        let r = s.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "1");
        // the journaled update survives a crash + recovery
        disk.crash();
        let mut s2 = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(s2.db.durability_stats().recoveries, 1);
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
        let before = engine_stats::snapshot();
        let snap = s.degraded_snapshot("/index").unwrap();
        for i in 0..5 {
            assert!(snap.body.contains(&format!("<note>n{i}</note>")));
        }
        assert_eq!(Some(snap.body.clone()), s.db.serialize("corpus.xml"));
        // no intervening write: served from the same image, byte for byte
        assert_eq!(s.degraded_snapshot("/index").unwrap().body, snap.body);
        let reads = engine_stats::snapshot().since(before);
        assert_eq!((reads.doc_image_builds, reads.doc_image_hits), (1, 2));
        // every write moves the document's version — an updating /query
        // as well as an /update — and the next read sees it
        let r = s.handle(&format!("/query?{}", insert_note("q")));
        assert_eq!(r.status, 200, "{}", r.body);
        let snap = s.degraded_snapshot("/index").unwrap();
        assert!(snap.body.contains("<note>q</note>"));
        s.handle(&format!("/update?{}", insert_note("u")));
        let snap = s.degraded_snapshot("/index").unwrap();
        assert!(snap.body.contains("<note>q</note>") && snap.body.contains("<note>u</note>"));
        let store = s.db.store.borrow();
        let id = store.doc_by_uri("corpus.xml").unwrap();
        let oracle = xqib_dom::serialize::serialize_document(store.doc(id));
        assert_eq!(snap.body, oracle, "the image is the serializer's output");
    }

    fn durable_server() -> AppServer {
        let corpus = generate_corpus(&CorpusSpec::default());
        AppServer::new_durable(
            &corpus,
            xqib_storage::VirtualDisk::new(),
            DurabilityConfig::default(),
        )
        .unwrap()
    }

    /// Two verified reads of an unchanged document serialize it once: the
    /// second is served from the version's image, still checked against
    /// the recorded digest and counted as a verified read.
    #[test]
    fn an_unchanged_document_is_serialized_once() {
        let mut s = durable_server();
        let before = engine_stats::snapshot();
        let first = s.handle("/doc?uri=corpus.xml");
        let second = s.handle("/doc?uri=corpus.xml");
        assert_eq!((first.status, second.status), (200, 200));
        assert_eq!(first.body, second.body);
        let reads = engine_stats::snapshot().since(before);
        assert_eq!((reads.doc_image_builds, reads.doc_image_hits), (1, 1));
        assert_eq!(s.metrics.doc_reads_verified, 2);
        // a write moves the version: the next read builds once more
        s.handle(&format!("/update?{}", insert_note("w")));
        let third = s.handle("/doc?uri=corpus.xml");
        assert!(third.body.contains("<note>w</note>"), "{}", third.body);
        let reads = engine_stats::snapshot().since(before);
        assert_eq!((reads.doc_image_builds, reads.doc_image_hits), (2, 1));
    }

    /// A warm image does not let a read past a poisoned recorded digest:
    /// the image's digest is compared on every read.
    #[test]
    fn a_warm_image_still_refuses_a_poisoned_digest() {
        let mut s = durable_server();
        assert_eq!(s.handle("/doc?uri=corpus.xml").status, 200);
        assert!(s.db.poison_recorded_digest("corpus.xml"));
        let before = engine_stats::snapshot();
        let r = s.handle("/doc?uri=corpus.xml");
        assert_eq!(r.status, 500, "{}", r.body);
        assert!(r.body.contains("XQIB0019"), "{}", r.body);
        assert_eq!(engine_stats::snapshot().since(before).doc_image_hits, 1);
        assert_eq!(
            (s.metrics.doc_reads_verified, s.metrics.doc_reads_refused),
            (1, 1)
        );
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
