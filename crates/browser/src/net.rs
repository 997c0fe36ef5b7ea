//! The virtual network: registered REST services with deterministic latency
//! and byte accounting.
//!
//! This substrate replaces the live services of the paper's applications
//! (weather services, web cams, the Elsevier/MarkLogic REST interface) and
//! doubles as the measurement instrument for the Figure 2 experiment
//! (requests and bytes saved by server-to-client migration).
//!
//! Hosts can carry a seeded [`FaultPlan`]: error responses, lost requests,
//! latency jitter, truncated payloads and down-time windows in virtual
//! time, all reproducible from a `u64` seed. The plan decides per request;
//! the client-side recovery policy (retries, circuit breakers, stale
//! serving) lives in [`crate::recovery`].
//!
//! A *deferred* host ([`VirtualNetwork::register_deferred`]) queues each
//! request for its driver, which answers it later: the shape of a server on
//! its own clock, such as a cluster that acks once its followers have it.

use std::collections::HashMap;

use xqib_storage::mix64;

/// An HTTP-ish request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub url: String,
    pub body: Option<String>,
}

impl Request {
    pub fn get(url: &str) -> Self {
        Request {
            method: "GET".to_string(),
            url: url.to_string(),
            body: None,
        }
    }

    /// The query parameter `name` from the URL, if any. Pairs without `=`
    /// are skipped rather than aborting the scan, and values are decoded
    /// (`+` → space, `%xx` → byte).
    pub fn query_param(&self, name: &str) -> Option<String> {
        let q = self.url.split_once('?')?.1;
        for pair in q.split('&') {
            let Some((k, v)) = pair.split_once('=') else {
                continue;
            };
            if k == name {
                return Some(percent_decode(v));
            }
        }
        None
    }

    /// The path portion (no scheme/host/query).
    pub fn path(&self) -> &str {
        let rest = match self.url.split_once("://") {
            Some((_, r)) => r,
            None => &self.url,
        };
        let path_start = rest.find('/').unwrap_or(rest.len());
        let path = &rest[path_start..];
        path.split(['?', '#']).next().unwrap_or("/")
    }
}

/// A response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub content_type: String,
}

impl Response {
    pub fn ok(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            body: body.into(),
            content_type: "application/xml".to_string(),
        }
    }

    pub fn not_found() -> Self {
        Response {
            status: 404,
            body: "<error>not found</error>".to_string(),
            content_type: "application/xml".to_string(),
        }
    }
}

type Handler = Box<dyn FnMut(&Request, u64) -> Response>;

/// A request a deferred host holds for its driver.
#[derive(Debug, Clone)]
pub struct Deferred {
    /// Names the request when the driver answers it.
    pub ticket: u64,
    pub request: Request,
    /// Virtual time the request was sent: its driver serves it no earlier.
    pub sent_at: u64,
    /// What the host's fault plan does to the reply on its way back
    /// (`ReplyLost`, `Truncate` or nothing), and its latency jitter.
    pub fault: Option<Fault>,
    pub jitter: u64,
}

/// One injected failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The service replies with this HTTP status (the request never reaches
    /// the handler).
    Error(u16),
    /// The request is lost: no reply ever arrives; the client observes its
    /// own deadline.
    Timeout,
    /// The reply arrives, but the payload is cut off mid-transfer.
    Truncate,
    /// The request reaches the service and is processed, but the *reply*
    /// is lost in flight: the client observes its own deadline while the
    /// side effects stand. The failure mode that makes idempotent resend
    /// (WAL seq-skip on the replication receiver) load-bearing.
    ReplyLost,
}

/// A deterministic failure schedule for one host, reproducible from `seed`.
///
/// Decision order per request: scripted faults are consumed first, then the
/// flap windows are checked against virtual time, then one probabilistic
/// draw (seeded, per-request-index) partitions into timeout / error /
/// truncation / none. Latency jitter is an independent seeded draw.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub seed: u64,
    /// Outcomes forced onto the host's first requests, in order
    /// (`None` = deliberate success), before any probabilistic draw.
    pub scripted: Vec<Option<Fault>>,
    /// ‰ of requests lost ([`Fault::Timeout`]).
    pub timeout_permille: u16,
    /// ‰ of requests answered with a 503 ([`Fault::Error`]).
    pub error_permille: u16,
    /// ‰ of requests with truncated payloads ([`Fault::Truncate`]).
    pub truncate_permille: u16,
    /// ‰ of requests processed whose reply is lost ([`Fault::ReplyLost`]).
    pub reply_lost_permille: u16,
    /// Uniform extra round-trip latency in `0..=jitter_ms`, per request.
    pub jitter_ms: u64,
    /// Virtual-time windows `[from, to)` during which the host is down
    /// (every request in the window is lost).
    pub flaps: Vec<(u64, u64)>,
}

impl FaultPlan {
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Forces the host's first `n` requests to fail with `fault`.
    pub fn fail_first(mut self, n: usize, fault: Fault) -> Self {
        self.scripted.extend((0..n).map(|_| Some(fault)));
        self
    }

    pub fn with_timeout_permille(mut self, permille: u16) -> Self {
        self.timeout_permille = permille;
        self
    }

    pub fn with_error_permille(mut self, permille: u16) -> Self {
        self.error_permille = permille;
        self
    }

    pub fn with_truncate_permille(mut self, permille: u16) -> Self {
        self.truncate_permille = permille;
        self
    }

    pub fn with_reply_lost_permille(mut self, permille: u16) -> Self {
        self.reply_lost_permille = permille;
        self
    }

    pub fn with_jitter_ms(mut self, jitter_ms: u64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// The host is down (all requests lost) while `from <= now < to`.
    pub fn down_between(mut self, from: u64, to: u64) -> Self {
        self.flaps.push((from, to));
        self
    }

    /// Every request fails: the permanently-dead-host plan.
    pub fn always_down(seed: u64) -> Self {
        FaultPlan::seeded(seed).with_timeout_permille(1000)
    }

    /// The fault (if any) and latency jitter for the host's `index`-th
    /// request issued at virtual time `now`. Pure: same plan, index and
    /// time give the same answer on every run. Public so other deterministic
    /// harnesses (the app-server overload simulator) can reuse the exact
    /// fault model without routing through a [`VirtualNetwork`].
    pub fn decide(&self, index: u64, now: u64) -> (Option<Fault>, u64) {
        let jitter = if self.jitter_ms == 0 {
            0
        } else {
            mix64(self.seed ^ 0x6a09_e667_f3bc_c909 ^ index.wrapping_mul(0x9e37))
                % (self.jitter_ms + 1)
        };
        if let Some(&f) = self.scripted.get(index as usize) {
            return (f, jitter);
        }
        if self.flaps.iter().any(|&(from, to)| now >= from && now < to) {
            return (Some(Fault::Timeout), jitter);
        }
        let draw = (mix64(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1000) as u16;
        let fault = if draw < self.timeout_permille {
            Some(Fault::Timeout)
        } else if draw < self.timeout_permille + self.error_permille {
            Some(Fault::Error(503))
        } else if draw < self.timeout_permille + self.error_permille + self.truncate_permille {
            Some(Fault::Truncate)
        } else if draw
            < self.timeout_permille
                + self.error_permille
                + self.truncate_permille
                + self.reply_lost_permille
        {
            Some(Fault::ReplyLost)
        } else {
            None
        };
        (fault, jitter)
    }
}

/// What a fault-aware fetch produced.
#[derive(Debug, Clone)]
pub enum NetOutcome {
    /// A reply — possibly an injected error status or a truncated payload —
    /// after `latency_ms` of round-trip time.
    Reply { resp: Response, latency_ms: u64 },
    /// The request was lost; no reply will ever arrive. The client must
    /// apply its own deadline.
    Lost,
    /// A deferred host queued the request; its driver answers the ticket
    /// later.
    Pending(u64),
}

/// Per-host traffic counters.
#[derive(Debug, Default, Clone)]
pub struct HostStats {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Requests on which the host's fault plan injected a failure.
    pub faults: u64,
}

/// Aggregate network statistics.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub injected_timeouts: u64,
    pub injected_errors: u64,
    pub injected_truncations: u64,
    pub injected_reply_losses: u64,
    pub per_host: HashMap<String, HostStats>,
}

/// The virtual network: URL-prefix-routed services.
#[derive(Default)]
pub struct VirtualNetwork {
    /// (prefix, latency, handler); no handler for a deferred host
    services: Vec<(String, u64, Option<Handler>)>,
    /// host → (plan, requests issued to the host so far)
    faults: HashMap<String, (FaultPlan, u64)>,
    /// Requests sent to deferred hosts that their drivers have not taken.
    sent: Vec<Deferred>,
    /// ticket → (host, the fault its reply meets), until it is answered
    open: HashMap<u64, (String, Option<Fault>)>,
    next_ticket: u64,
    pub stats: NetStats,
}

impl VirtualNetwork {
    pub fn new() -> Self {
        VirtualNetwork::default()
    }

    /// Registers a service handling every URL starting with `prefix`, with a
    /// deterministic round-trip `latency_ms`.
    pub fn register(
        &mut self,
        prefix: &str,
        latency_ms: u64,
        mut handler: impl FnMut(&Request) -> Response + 'static,
    ) {
        self.register_with_now(prefix, latency_ms, move |req, _now| handler(req));
    }

    /// Like [`register`](Self::register), but the handler also receives the
    /// virtual time of the request — for services whose behaviour depends on
    /// the clock (a simulated cluster resolving replication acks).
    pub fn register_with_now(
        &mut self,
        prefix: &str,
        latency_ms: u64,
        handler: impl FnMut(&Request, u64) -> Response + 'static,
    ) {
        self.add(prefix, latency_ms, Some(Box::new(handler)));
    }

    /// Registers a deferred host for every URL starting with `prefix`: a
    /// request to it returns [`NetOutcome::Pending`] and waits in
    /// [`take_sent`](Self::take_sent) for the host's driver. Requests the
    /// fault plan loses or answers itself never reach the driver, and
    /// `latency_ms` is the round trip of those injected error replies.
    pub fn register_deferred(&mut self, prefix: &str, latency_ms: u64) {
        self.add(prefix, latency_ms, None);
    }

    fn add(&mut self, prefix: &str, latency_ms: u64, service: Option<Handler>) {
        self.services
            .push((prefix.to_string(), latency_ms, service));
        // longest-prefix match wins: keep sorted by descending length
        self.services
            .sort_by_key(|(prefix, _, _)| std::cmp::Reverse(prefix.len()));
    }

    /// Whether `url` is served by a deferred host.
    pub fn defers(&self, url: &str) -> bool {
        self.service(url)
            .is_some_and(|svc| self.services[svc].2.is_none())
    }

    fn service(&self, url: &str) -> Option<usize> {
        self.services
            .iter()
            .position(|(prefix, _, _)| url.starts_with(prefix.as_str()))
    }

    /// Hands a driver the requests its deferred hosts were sent by virtual
    /// time `now`, in send order.
    pub fn take_sent(&mut self, now: u64) -> Vec<Deferred> {
        let (due, later) = std::mem::take(&mut self.sent)
            .into_iter()
            .partition(|d| d.sent_at <= now);
        self.sent = later;
        due
    }

    /// A deferred host's answer to request `ticket`, as it reaches the
    /// client: `None` when the fault plan loses the reply or the ticket is
    /// not open, the payload cut off under a truncation fault.
    pub fn complete(&mut self, ticket: u64, resp: Response) -> Option<Response> {
        let (host, fault) = self.open.remove(&ticket)?;
        self.receive(&host, resp, fault)
    }

    /// A reply on its way back: lost or truncated per `fault`, and counted
    /// when it arrives.
    fn receive(
        &mut self,
        host: &str,
        mut resp: Response,
        fault: Option<Fault>,
    ) -> Option<Response> {
        match fault {
            Some(Fault::ReplyLost) => return None,
            Some(Fault::Truncate) => resp.body.truncate(resp.body.len() / 2),
            _ => {}
        }
        let received = resp.body.len() as u64;
        self.stats.bytes_received += received;
        if let Some(hs) = self.stats.per_host.get_mut(host) {
            hs.bytes_received += received;
        }
        Some(resp)
    }

    /// Installs (or replaces) the fault plan for a host. The per-host
    /// request index restarts at zero, so scripted faults apply from the
    /// next request.
    pub fn set_fault_plan(&mut self, host: &str, plan: FaultPlan) {
        self.faults.insert(host.to_string(), (plan, 0));
    }

    /// Removes the fault plan for a host (the host heals).
    pub fn clear_fault_plan(&mut self, host: &str) {
        self.faults.remove(host);
    }

    /// Performs a request at virtual time `now`, applying the target host's
    /// fault plan. Unroutable URLs get a 404 with zero latency (connection
    /// refused) and, as before, don't count as service traffic.
    pub fn fetch_at(&mut self, req: &Request, now: u64) -> NetOutcome {
        let host = host_of(&req.url);
        let sent = req.url.len() as u64 + req.body.as_ref().map_or(0, |b| b.len() as u64);
        let Some(svc) = self.service(&req.url) else {
            return NetOutcome::Reply {
                resp: Response::not_found(),
                latency_ms: 0,
            };
        };
        let (fault, jitter) = match self.faults.get_mut(&host) {
            Some((plan, index)) => {
                let d = plan.decide(*index, now);
                *index += 1;
                d
            }
            None => (None, 0),
        };
        self.stats.requests += 1;
        self.stats.bytes_sent += sent;
        let hs = self.stats.per_host.entry(host.clone()).or_default();
        hs.requests += 1;
        hs.bytes_sent += sent;
        if fault.is_some() {
            hs.faults += 1;
        }
        let latency_ms = self.services[svc].1 + jitter;
        match fault {
            Some(Fault::Timeout) => {
                self.stats.injected_timeouts += 1;
                return NetOutcome::Lost;
            }
            Some(Fault::Error(status)) => {
                self.stats.injected_errors += 1;
                let resp = Response {
                    status,
                    body: "<error>injected service fault</error>".to_string(),
                    content_type: "application/xml".to_string(),
                };
                return NetOutcome::Reply { resp, latency_ms };
            }
            // the request reaches the service, so its side effects stand,
            // but the reply never reaches the caller
            Some(Fault::ReplyLost) => self.stats.injected_reply_losses += 1,
            Some(Fault::Truncate) => self.stats.injected_truncations += 1,
            None => {}
        }
        let resp = match &mut self.services[svc].2 {
            Some(handler) => handler(req, now),
            None => {
                self.next_ticket += 1;
                let ticket = self.next_ticket;
                self.open.insert(ticket, (host, fault));
                self.sent.push(Deferred {
                    ticket,
                    request: req.clone(),
                    sent_at: now,
                    fault,
                    jitter,
                });
                return match fault {
                    Some(Fault::ReplyLost) => NetOutcome::Lost,
                    _ => NetOutcome::Pending(ticket),
                };
            }
        };
        match self.receive(&host, resp, fault) {
            Some(resp) => NetOutcome::Reply { resp, latency_ms },
            None => NetOutcome::Lost,
        }
    }
}

/// Decodes `+` as space and `%xx` escapes (malformed escapes pass through
/// verbatim); invalid UTF-8 becomes replacement characters.
pub fn percent_decode(s: &str) -> String {
    fn hex(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn host_of(url: &str) -> String {
    crate::security::Origin::from_url(url).host
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GET at virtual time 0 that must be answered.
    fn get(net: &mut VirtualNetwork, url: &str) -> (Response, u64) {
        match net.fetch_at(&Request::get(url), 0) {
            NetOutcome::Reply { resp, latency_ms } => (resp, latency_ms),
            other => panic!("GET {url}: {other:?}"),
        }
    }

    #[test]
    fn routing_and_stats() {
        let mut net = VirtualNetwork::new();
        net.register("http://weather.example/", 20, |req| {
            let loc = req.query_param("q").unwrap_or_default();
            Response::ok(format!("<weather loc=\"{loc}\">sunny</weather>"))
        });
        net.register("http://maps.example/", 30, |_req| Response::ok("<map/>"));
        let (resp, lat) = get(&mut net, "http://weather.example/api?q=Madrid");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("Madrid"));
        assert_eq!(lat, 20);
        let (resp, lat) = get(&mut net, "http://nowhere.example/");
        assert_eq!(resp.status, 404);
        assert_eq!(lat, 0);
        assert_eq!(net.stats.requests, 1, "404s don't count as service traffic");
        assert_eq!(
            net.stats.per_host.get("weather.example").unwrap().requests,
            1
        );
        assert!(net.stats.bytes_received > 0);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut net = VirtualNetwork::new();
        net.register("http://api.example/", 10, |_| Response::ok("<general/>"));
        net.register("http://api.example/special/", 10, |_| {
            Response::ok("<special/>")
        });
        let (resp, _) = get(&mut net, "http://api.example/special/x");
        assert_eq!(resp.body, "<special/>");
        let (resp, _) = get(&mut net, "http://api.example/other");
        assert_eq!(resp.body, "<general/>");
    }

    #[test]
    fn stateful_handler() {
        let mut net = VirtualNetwork::new();
        let mut hits = 0u32;
        net.register("http://counter.example/", 5, move |_| {
            hits += 1;
            Response::ok(format!("<hits>{hits}</hits>"))
        });
        let (r1, _) = get(&mut net, "http://counter.example/");
        let (r2, _) = get(&mut net, "http://counter.example/");
        assert_eq!(r1.body, "<hits>1</hits>");
        assert_eq!(r2.body, "<hits>2</hits>");
    }

    #[test]
    fn request_helpers() {
        let r = Request::get("http://h.example:99/a/b?q=New+York&x=1");
        assert_eq!(r.path(), "/a/b");
        assert_eq!(r.query_param("q").as_deref(), Some("New York"));
        assert_eq!(r.query_param("x").as_deref(), Some("1"));
        assert_eq!(r.query_param("nope"), None);
    }

    #[test]
    fn malformed_query_pairs_are_skipped() {
        let r = Request::get("http://h/p?flag&q=ok&alsoflag");
        assert_eq!(r.query_param("q").as_deref(), Some("ok"));
        assert_eq!(r.query_param("flag"), None);
    }

    #[test]
    fn percent_escapes_decode() {
        let r = Request::get("http://h/p?q=New%20York%2C+NY&bad=100%");
        assert_eq!(r.query_param("q").as_deref(), Some("New York, NY"));
        // malformed escape passes through verbatim
        assert_eq!(r.query_param("bad").as_deref(), Some("100%"));
    }

    fn faulty_net() -> VirtualNetwork {
        let mut net = VirtualNetwork::new();
        net.register("http://svc.example/", 10, |_| {
            Response::ok("<payload>0123456789</payload>")
        });
        net
    }

    #[test]
    fn scripted_faults_fire_in_order_then_recover() {
        let mut net = faulty_net();
        net.set_fault_plan(
            "svc.example",
            FaultPlan::seeded(1).fail_first(2, Fault::Timeout),
        );
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 0),
            NetOutcome::Lost
        ));
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/b"), 0),
            NetOutcome::Lost
        ));
        match net.fetch_at(&Request::get("http://svc.example/c"), 0) {
            NetOutcome::Reply { resp, .. } => assert_eq!(resp.status, 200),
            other => panic!("third request should succeed: {other:?}"),
        }
        assert_eq!(net.stats.injected_timeouts, 2);
        assert_eq!(net.stats.per_host.get("svc.example").unwrap().faults, 2);
    }

    #[test]
    fn flap_window_downs_the_host_in_virtual_time() {
        let mut net = faulty_net();
        net.set_fault_plan("svc.example", FaultPlan::seeded(2).down_between(100, 200));
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 50),
            NetOutcome::Reply { .. }
        ));
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 150),
            NetOutcome::Lost
        ));
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 200),
            NetOutcome::Reply { .. }
        ));
    }

    #[test]
    fn injected_error_and_truncation() {
        let mut net = faulty_net();
        net.set_fault_plan(
            "svc.example",
            FaultPlan {
                seed: 3,
                scripted: vec![Some(Fault::Error(503)), Some(Fault::Truncate)],
                ..Default::default()
            },
        );
        match net.fetch_at(&Request::get("http://svc.example/a"), 0) {
            NetOutcome::Reply { resp, .. } => {
                assert_eq!(resp.status, 503);
                assert!(resp.body.contains("injected"));
            }
            other => panic!("error fault replies: {other:?}"),
        }
        match net.fetch_at(&Request::get("http://svc.example/a"), 0) {
            NetOutcome::Reply { resp, .. } => {
                assert_eq!(resp.status, 200);
                assert_eq!(resp.body.len(), "<payload>0123456789</payload>".len() / 2);
            }
            other => panic!("truncation replies: {other:?}"),
        }
        assert_eq!(net.stats.injected_errors, 1);
        assert_eq!(net.stats.injected_truncations, 1);
    }

    #[test]
    fn reply_lost_runs_the_handler_but_loses_the_reply() {
        use std::cell::Cell;
        use std::rc::Rc;
        let served = Rc::new(Cell::new(0u32));
        let mut net = VirtualNetwork::new();
        let s = served.clone();
        net.register("http://svc.example/", 5, move |_req| {
            s.set(s.get() + 1);
            Response::ok("<done/>")
        });
        net.set_fault_plan(
            "svc.example",
            FaultPlan {
                seed: 4,
                scripted: vec![Some(Fault::ReplyLost), None],
                ..Default::default()
            },
        );
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 0),
            NetOutcome::Lost
        ));
        assert_eq!(served.get(), 1, "the service processed the request");
        assert_eq!(net.stats.injected_reply_losses, 1);
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 0),
            NetOutcome::Reply { .. }
        ));
        assert_eq!(served.get(), 2);
    }

    #[test]
    fn fault_schedule_is_reproducible_from_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut net = faulty_net();
            net.set_fault_plan(
                "svc.example",
                FaultPlan::seeded(seed)
                    .with_timeout_permille(300)
                    .with_jitter_ms(7),
            );
            (0..64)
                .map(|i| {
                    matches!(
                        net.fetch_at(&Request::get(&format!("http://svc.example/{i}")), i),
                        NetOutcome::Lost
                    )
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let lost = run(42).iter().filter(|&&l| l).count();
        assert!((5..60).contains(&lost), "≈30% loss, got {lost}/64");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let latencies = |seed: u64| -> Vec<u64> {
            let mut net = faulty_net();
            net.set_fault_plan("svc.example", FaultPlan::seeded(seed).with_jitter_ms(5));
            (0..32)
                .map(
                    |i| match net.fetch_at(&Request::get(&format!("http://svc.example/{i}")), 0) {
                        NetOutcome::Reply { latency_ms, .. } => latency_ms,
                        other => panic!("no loss configured: {other:?}"),
                    },
                )
                .collect()
        };
        let a = latencies(9);
        assert_eq!(a, latencies(9));
        assert!(a.iter().all(|&l| (10..=15).contains(&l)));
        assert!(a.iter().any(|&l| l != a[0]), "jitter actually varies");
    }

    #[test]
    fn scripted_timeout_is_lost_then_heals() {
        let mut net = faulty_net();
        net.set_fault_plan(
            "svc.example",
            FaultPlan::seeded(4).fail_first(1, Fault::Timeout),
        );
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 0),
            NetOutcome::Lost
        ));
        // the plan heals after the scripted prefix
        let (resp, _) = get(&mut net, "http://svc.example/a");
        assert_eq!(resp.status, 200);
    }

    /// A deferred host queues each request for its driver, which sees it
    /// no earlier than it was sent and answers it by ticket once.
    #[test]
    fn a_deferred_host_queues_requests_for_its_driver() {
        let mut net = VirtualNetwork::new();
        net.register_deferred("http://svc.example/", 10);
        assert!(net.defers("http://svc.example/a"));
        assert!(!net.defers("http://other.example/a"));
        let NetOutcome::Pending(ticket) = net.fetch_at(&Request::get("http://svc.example/a"), 7)
        else {
            panic!("a deferred host answers later");
        };
        assert!(net.take_sent(6).is_empty(), "not before it was sent");
        let sent = net.take_sent(7);
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].ticket, sent[0].sent_at), (ticket, 7));
        assert!(net.take_sent(100).is_empty(), "taken once");
        let resp = net.complete(ticket, Response::ok("<done/>")).unwrap();
        assert_eq!(resp.body, "<done/>");
        assert_eq!(net.stats.per_host["svc.example"].bytes_received, 7);
        assert!(net.complete(ticket, Response::ok("<again/>")).is_none());
    }

    /// The fault plan still rules a deferred host: a lost request never
    /// reaches the driver, a lost reply does but is dropped on delivery, and
    /// a truncated one arrives cut off.
    #[test]
    fn a_deferred_host_keeps_its_fault_plan() {
        let mut net = VirtualNetwork::new();
        net.register_deferred("http://svc.example/", 10);
        net.set_fault_plan(
            "svc.example",
            FaultPlan {
                seed: 6,
                scripted: vec![
                    Some(Fault::Timeout),
                    Some(Fault::ReplyLost),
                    Some(Fault::Truncate),
                    Some(Fault::Error(503)),
                ],
                ..Default::default()
            },
        );
        let mut fetch = || net.fetch_at(&Request::get("http://svc.example/a"), 0);
        assert!(matches!(fetch(), NetOutcome::Lost), "request lost");
        assert!(matches!(fetch(), NetOutcome::Lost), "reply lost");
        let NetOutcome::Pending(truncated) = fetch() else {
            panic!("a truncated reply is still answered by the driver");
        };
        assert!(
            matches!(fetch(), NetOutcome::Reply { resp, latency_ms: 10 } if resp.status == 503)
        );
        let sent = net.take_sent(0);
        let faults: Vec<_> = sent.iter().map(|d| d.fault).collect();
        assert_eq!(faults, [Some(Fault::ReplyLost), Some(Fault::Truncate)]);
        assert!(net
            .complete(sent[0].ticket, Response::ok("<done/>"))
            .is_none());
        let cut = net.complete(truncated, Response::ok("<done/>")).unwrap();
        assert_eq!(cut.body, "<do");
    }

    #[test]
    fn clear_fault_plan_heals_host() {
        let mut net = faulty_net();
        net.set_fault_plan("svc.example", FaultPlan::always_down(5));
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 0),
            NetOutcome::Lost
        ));
        net.clear_fault_plan("svc.example");
        assert!(matches!(
            net.fetch_at(&Request::get("http://svc.example/a"), 0),
            NetOutcome::Reply { .. }
        ));
    }
}
