//! Routing and topology: which shard serves a document.
//!
//! A consistent-hash [`Router`] places documents on shards; the
//! epoch-versioned [`Topology`] pins every document to the shard serving
//! it until its migration cuts over; a client's [`RouteCache`] caches the
//! owners it resolved and chases a 421 fence to the fresh one.

use std::collections::{BTreeMap, HashMap};

use xqib_storage::{fnv1a, mix64};

use super::{Cluster, ClusterOutcome, Submitted};
use crate::render;
use crate::server::{param, split_url};

/// Consistent-hash ring mapping document URIs to shards. Every member
/// contributes `VNODES` seeded points; a URI belongs to the first point at
/// or after its own hash (wrapping). Deterministic in `(members, seed)`.
/// A member's points depend only on its own id, so growing the ring moves
/// the minimum: only the keys that land on the new member's arcs.
#[derive(Debug, Clone)]
pub struct Router {
    ring: Vec<(u64, usize)>,
    members: Vec<usize>,
}

/// Virtual points per member. Load imbalance of a random-point ring
/// scales as `1/sqrt(VNODES)` — 128 points keeps the max/min shard load
/// within 3× with wide margin for any realistic member count (the
/// ring-balance property test in `tests/reshard.rs` enforces this).
const VNODES: u64 = 128;

impl Router {
    pub fn new(shards: usize, seed: u64) -> Router {
        let members: Vec<usize> = (0..shards.max(1)).collect();
        Router::with_members(&members, seed)
    }

    /// A ring over an explicit member set — live topologies are sparse
    /// (a decommissioned shard's id never comes back).
    pub fn with_members(members: &[usize], seed: u64) -> Router {
        let mut members = members.to_vec();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            members.push(0);
        }
        let mut ring = Vec::with_capacity(members.len() * VNODES as usize);
        for &s in &members {
            for v in 0..VNODES {
                ring.push((mix64(seed ^ ((s as u64) << 20) ^ v), s));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|(h, _)| *h);
        Router { ring, members }
    }

    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// The shard ids participating in this ring, sorted.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The shard that owns `uri`.
    pub fn owner(&self, uri: &str) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        let h = mix64(fnv1a(uri.as_bytes()));
        let i = match self.ring.binary_search_by(|(p, _)| p.cmp(&h)) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        };
        self.ring[i].1
    }
}

/// Monotonic version of the cluster's routing state. Bumped on every ring
/// change; surfaced in 421 fencing refusals so clients re-resolve.
pub type TopologyEpoch = u64;

/// Routing state: the ring, its epoch, and the per-document *home* pins
/// that keep routing stable while migrations are in flight.
pub(crate) struct Topology {
    pub(super) router: Router,
    pub(super) epoch: TopologyEpoch,
    /// Documents pinned to the shard currently serving them. Routing
    /// consults homes *before* the ring, so a ring install moves no
    /// traffic until the per-document cutover flips the pin.
    pub(super) homes: BTreeMap<String, usize>,
    /// Every shard that has ever legitimately held a copy of the document.
    /// Grows monotonically: the store has no removal API, so source
    /// replicas and aborted-copy destinations keep the bytes and must keep
    /// accepting replication frames for them.
    resident: BTreeMap<String, Vec<usize>>,
}

impl Topology {
    pub(crate) fn new(router: Router) -> Topology {
        Topology {
            router,
            epoch: 0,
            homes: BTreeMap::new(),
            resident: BTreeMap::new(),
        }
    }

    /// The shard a request for `uri` must go to *now*: its home pin if it
    /// has one, else the ring.
    pub(super) fn owner(&self, uri: &str) -> usize {
        match self.homes.get(uri) {
            Some(&s) => s,
            None => self.router.owner(uri),
        }
    }

    /// Whether `shard` may hold/replicate `uri`: it is the home, or a
    /// past/under-copy resident.
    pub(crate) fn replicable_at(&self, shard: usize, uri: &str) -> bool {
        self.owner(uri) == shard || self.resident.get(uri).is_some_and(|r| r.contains(&shard))
    }

    /// Installs a new ring and bumps the epoch.
    pub(super) fn install(&mut self, router: Router) {
        self.router = router;
        self.epoch += 1;
    }

    /// Marks `shard` a legitimate resident of `uri` (it loaded the
    /// document, or a copy to it is starting).
    pub(super) fn add_resident(&mut self, uri: &str, shard: usize) {
        let res = self.resident.entry(uri.to_string()).or_default();
        if !res.contains(&shard) {
            res.push(shard);
        }
    }

    /// Pins `uri` to `shard`, which becomes a resident.
    pub(super) fn pin_home(&mut self, uri: &str, shard: usize) {
        self.homes.insert(uri.to_string(), shard);
        self.add_resident(uri, shard);
    }

    /// Atomic cutover: the home pin flips to `to` and the epoch bumps in
    /// one tick, so the source's acceptances (old epoch) and the
    /// destination's (new epoch) can never share an epoch. The source
    /// stays resident (its replicas keep the bytes forever).
    pub(super) fn cutover(&mut self, uri: &str, to: usize) {
        self.pin_home(uri, to);
        self.epoch += 1;
    }
}

impl Cluster {
    /// The document URI a request routes by — what clients should cache
    /// routing decisions against (and re-resolve on a 421).
    pub fn routing_uri(url: &str) -> String {
        let (path, query) = split_url(url);
        if let Some(uri) = param(&query, "uri") {
            return uri;
        }
        if path == "/query" || path == "/update" {
            if let Some(xq) = param(&query, "xq") {
                if let Some(uri) = first_doc_literal(&xq) {
                    return uri;
                }
            }
        }
        render::CORPUS_URI.to_string()
    }
}

/// A client's routing table: each document's owner, cached for
/// `refresh_ms` (`0` resolves every request afresh). A cached owner that
/// refuses a request with a 421 fence is re-resolved, and the request is
/// retried there once.
#[derive(Debug)]
pub struct RouteCache {
    refresh_ms: u64,
    /// uri → (resolved at, owner)
    routes: HashMap<String, (u64, usize)>,
    /// Requests that hit a 421 fence and were retried on the fresh owner.
    pub reroutes: u64,
}

impl RouteCache {
    pub fn new(refresh_ms: u64) -> RouteCache {
        RouteCache {
            refresh_ms,
            routes: HashMap::new(),
            reroutes: 0,
        }
    }

    /// Serves `url` on the cached owner of its document, chasing a fence
    /// to the fresh owner.
    pub fn serve(&mut self, cluster: &mut Cluster, url: &str, now: u64) -> Submitted {
        let uri = Cluster::routing_uri(url);
        let shard = match self.routes.get(&uri) {
            Some(&(at, shard)) if now < at.saturating_add(self.refresh_ms) => shard,
            _ => self.resolve(cluster, &uri, now),
        };
        match cluster.serve_at(shard, url, now) {
            Submitted::Done(d) if d.outcome == ClusterOutcome::Misrouted => {
                self.reroutes += 1;
                let fresh = self.resolve(cluster, &uri, now);
                cluster.serve_at(fresh, url, now)
            }
            submitted => submitted,
        }
    }

    fn resolve(&mut self, cluster: &Cluster, uri: &str, now: u64) -> usize {
        let owner = cluster.owner(uri);
        self.routes.insert(uri.to_string(), (now, owner));
        owner
    }
}

/// The first `doc("…")` / `doc('…')` call in an XQuery whose argument is
/// a string literal — the routing key for `/query` and `/update` requests
/// that don't pass `uri=` explicitly. Only a bare `doc(` or `fn:doc(`
/// counts: `local:mydoc(` is another function.
fn first_doc_literal(xq: &str) -> Option<String> {
    let is_name_char = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':');
    let mut from = 0;
    while let Some(at) = xq[from..].find("doc(") {
        let call = from + at;
        from = call + 4;
        let before = &xq[..call];
        if before
            .strip_suffix("fn:")
            .unwrap_or(before)
            .ends_with(is_name_char)
        {
            continue;
        }
        let rest = &xq[from..];
        let Some(quote) = rest.chars().next().filter(|&q| q == '"' || q == '\'') else {
            continue;
        };
        if let Some(end) = rest[1..].find(quote) {
            return Some(rest[1..=end].to_string());
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cluster::tests::*;
    use crate::cluster::{ClusterCompletion, ClusterConfig};
    #[test]
    fn router_is_deterministic_and_covers_every_shard() {
        let a = Router::new(4, 7);
        let b = Router::new(4, 7);
        let mut hit = [false; 4];
        for i in 0..200 {
            let uri = format!("doc-{i}.xml");
            assert_eq!(a.owner(&uri), b.owner(&uri));
            hit[a.owner(&uri)] = true;
        }
        assert!(hit.iter().all(|h| *h), "200 URIs should touch all 4 shards");
    }

    #[test]
    fn misrouted_requests_are_refused_with_421() {
        let mut c = seeded(ClusterConfig {
            shards: 4,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let owner = c.owner("d0.xml");
        let wrong = (owner + 1) % c.shard_count();
        let before = c.stats().ownership_rejections;
        let done = match c.serve_at(wrong, &doc_url("d0.xml"), 0) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("misroute cannot pend"),
        };
        assert_eq!(done.response.status, 421);
        assert_eq!(done.outcome, ClusterOutcome::Misrouted);
        assert_eq!(c.stats().ownership_rejections, before + 1);
        // and the rightful owner serves it fine
        let ok = match c.serve_at(owner, &doc_url("d0.xml"), 0) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(ok.response.status, 200);
    }

    #[test]
    fn routing_uri_skips_names_that_end_in_doc() {
        let routed = |xq: &str| Cluster::routing_uri(&format!("/query?xq={xq}"));
        let udf =
            r#"declare function local:mydoc($d) { $d//a }; count(local:mydoc(doc("d3.xml")))"#;
        assert_eq!(routed(udf), "d3.xml");
        assert_eq!(routed("count(fn:doc('d4.xml')//a)"), "d4.xml");
        assert_eq!(
            routed(r#"let $u := "d1.xml" return (doc($u), doc("d5.xml"))"#),
            "d5.xml"
        );
        assert_eq!(routed("count(x:doc('d6.xml'))"), render::CORPUS_URI);
    }

    /// Two shards holding the six seeded documents, each read once through
    /// `routes`; then a third shard joins and every move completes. Returns
    /// the documents that moved.
    fn grown_behind(routes: &mut RouteCache) -> (Cluster, Vec<String>, u64) {
        let mut c = seeded(ClusterConfig {
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let uris: Vec<String> = (0..6).map(|i| format!("d{i}.xml")).collect();
        let before: Vec<usize> = uris.iter().map(|u| c.owner(u)).collect();
        for uri in &uris {
            let _ = routes.serve(&mut c, &doc_url(uri), 0);
        }
        c.add_shard();
        let (now, _) = c.quiesce(1);
        let moved = uris
            .into_iter()
            .zip(before)
            .filter(|(u, b)| c.owner(u) != *b)
            .map(|(u, _)| u)
            .collect();
        (c, moved, now)
    }

    fn served(s: Submitted) -> Box<ClusterCompletion> {
        match s {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        }
    }

    #[test]
    fn a_route_cache_that_always_resolves_never_hits_a_fence() {
        let mut routes = RouteCache::new(0);
        let (mut c, moved, now) = grown_behind(&mut routes);
        assert!(!moved.is_empty(), "the new shard must claim a document");
        for uri in &moved {
            let done = served(routes.serve(&mut c, &doc_url(uri), now));
            assert_eq!(done.response.status, 200);
        }
        assert_eq!(routes.reroutes, 0);
    }

    #[test]
    fn a_stale_route_is_fenced_once_then_goes_to_the_new_owner() {
        let mut routes = RouteCache::new(u64::MAX);
        let (mut c, moved, now) = grown_behind(&mut routes);
        let uri = &moved[0];
        let first = served(routes.serve(&mut c, &doc_url(uri), now));
        assert_eq!(first.response.status, 200);
        assert_eq!(first.shard, c.owner(uri));
        assert_eq!(routes.reroutes, 1);
        let refusals = c.stats().ownership_rejections;
        let second = served(routes.serve(&mut c, &doc_url(uri), now));
        assert_eq!(second.response.status, 200);
        assert_eq!(second.shard, c.owner(uri));
        assert_eq!(routes.reroutes, 1, "the fresh route needs no chase");
        assert_eq!(c.stats().ownership_rejections, refusals);
    }
}
