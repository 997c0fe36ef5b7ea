//! Overload control for the server tier: the [`RequestGovernor`] wraps an
//! [`AppServer`] with a bounded, class-prioritised admission queue,
//! per-request deadlines propagated into the evaluator as fuel budgets,
//! CoDel-style queue-delay shedding, and graceful degradation of
//! render-class requests to cached whole-document snapshots.
//!
//! Everything runs in *virtual time*: the governor models a single-threaded
//! server whose service time per request is derived from the engine fuel
//! the evaluation actually consumed ([`GovernorConfig::fuel_per_ms`]).
//! Same inputs, same clock, same decisions — the chaos simulator
//! (`crate::simulate`) drives millions of virtual requests through this
//! code deterministically.
//!
//! The control loop per dequeued request:
//!
//! 1. **Admission** (at [`GovernedServer::submit`]): each priority class
//!    has a bounded queue; overflow is shed immediately with
//!    `503` + `Retry-After` (the client should back off — the queue being
//!    full means waiting would blow the deadline anyway).
//! 2. **Queue-delay shedding** (at dequeue): a simplified deterministic
//!    CoDel — once the observed queue delay stays above
//!    [`GovernorConfig::codel_target_ms`] for a full
//!    [`GovernorConfig::codel_interval_ms`] window, requests are dropped at
//!    an increasing rate (interval/√count) until the delay recovers. This
//!    sheds *standing* queues while tolerating bursts shorter than one
//!    interval.
//! 3. **Deadline**: the time already spent queueing is subtracted from the
//!    class deadline; the remainder is converted to engine fuel
//!    (`remaining_ms × fuel_per_ms`) and installed via
//!    `DynamicContext::set_deadline_fuel`. Exhaustion raises `XQIB0014`
//!    (HTTP 504). Committing a pending update list is a point of no
//!    return, so a deadline-killed `/update` has applied — and journaled —
//!    nothing.
//! 4. **Degradation**: when a render-class request (`/page`, `/index`,
//!    `/doc`) blows its deadline, the governor answers with the cached
//!    whole-document snapshot (`X-XQIB-Degraded`) instead of failing —
//!    the paper's own "serve whole documents rather than individual
//!    queries" caching argument (§6.1).

use std::collections::VecDeque;

use crate::metrics::nearest_rank;
use crate::server::{split_url, AppServer, ServerResponse};

/// Request priority classes, in dequeue order: interactive page renders
/// first, updates next (they hold client-side state hostage), ad-hoc
/// queries last (the legacy fine-grained API the migration exists to
/// retire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Render = 0,
    Update = 1,
    Query = 2,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Render, Class::Update, Class::Query];

    /// The class of a request URL.
    pub fn of_url(url: &str) -> Class {
        let (path, _) = split_url(url);
        match path.as_str() {
            "/update" => Class::Update,
            "/query" => Class::Query,
            // /page, /index, /doc, /metrics and everything else: the
            // interactive render/REST surface
            _ => Class::Render,
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Render => "render",
            Class::Update => "update",
            Class::Query => "query",
        }
    }
}

/// The `Retry-After` value (seconds) attached to shed responses.
const RETRY_AFTER_S: u64 = 1;

/// Tuning knobs for the governor.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Bounded admission queue capacity, per class. Overflow is shed with
    /// 503 + `Retry-After`.
    pub queue_capacity: usize,
    /// Per-class deadline in virtual milliseconds, indexed by
    /// [`Class::index`]. `0` disables the deadline for that class.
    pub deadline_ms: [u64; 3],
    /// Engine capacity: fuel units the server retires per virtual
    /// millisecond. Converts deadlines into fuel budgets and consumed fuel
    /// back into service time.
    pub fuel_per_ms: u64,
    /// CoDel target: the acceptable standing queue delay.
    pub codel_target_ms: u64,
    /// CoDel interval: how long the delay must stay above target before
    /// shedding starts. `u64::MAX` disables queue-delay shedding.
    pub codel_interval_ms: u64,
    /// Degrade render-class deadline misses to cached snapshots instead of
    /// failing them with 504.
    pub degrade_renders: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        // Calibration: with the default corpus a `/page` render costs
        // ≈240 fuel when the attribute-value index answers its article
        // lookup (≈330 on the first render after a write, which scans),
        // the `/index` page ≈3.3k and an ad-hoc count query ≈20, so at
        // 100 fuel/ms a page takes ≈3–4 virtual ms and the index page
        // ≈34. The default route mix saturates around 200 req/s (the
        // overload bench measures it), and the 100 ms render deadline
        // leaves honest headroom under moderate queueing.
        GovernorConfig {
            queue_capacity: 64,
            deadline_ms: [100, 150, 200], // render, update, query
            fuel_per_ms: 100,
            codel_target_ms: 20,
            codel_interval_ms: 100,
            degrade_renders: true,
        }
    }
}

impl GovernorConfig {
    /// The ungoverned baseline: unbounded FIFO admission, no deadlines, no
    /// queue-delay shedding, no degradation. Used by the simulator as the
    /// "before" arm of the overload experiment.
    pub fn unbounded() -> Self {
        GovernorConfig {
            queue_capacity: usize::MAX,
            deadline_ms: [0, 0, 0],
            fuel_per_ms: 100,
            codel_target_ms: u64::MAX,
            codel_interval_ms: u64::MAX,
            degrade_renders: false,
        }
    }
}

/// Overload counters (and the raw queue-delay samples the percentiles are
/// computed from). The governor serves them live on `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests offered to the governor.
    pub submitted: u64,
    /// Requests that entered the admission queue.
    pub admitted: u64,
    /// Admitted requests that completed (any status, incl. degraded).
    pub completed: u64,
    /// Requests shed at admission (queue full).
    pub shed_queue_full: u64,
    /// Requests shed at dequeue (CoDel standing-queue-delay).
    pub shed_queue_delay: u64,
    /// Render-class deadline misses answered from the snapshot cache.
    pub degraded: u64,
    /// Requests whose deadline expired (in queue or in the evaluator).
    pub deadline_exceeded: u64,
    /// Queue delay of every dequeued request, virtual ms, in dequeue order.
    pub queue_delays: Vec<u64>,
}

impl OverloadStats {
    /// Total shed requests, both flavours.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_queue_delay
    }

    /// Visits each served counter: `shed` counts both flavours, and the
    /// queue-delay percentiles are computed from the samples.
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let OverloadStats {
            submitted: _,
            admitted,
            completed: _,
            shed_queue_full: _,
            shed_queue_delay: _,
            degraded,
            deadline_exceeded,
            queue_delays,
        } = self;
        f("admitted", *admitted);
        f("shed", self.shed());
        f("degraded", *degraded);
        f("deadline-exceeded", *deadline_exceeded);
        f("queue-delay-p50-ms", nearest_rank(queue_delays, 50));
        f("queue-delay-p99-ms", nearest_rank(queue_delays, 99));
    }
}

/// Why a request finished the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served normally (any handler status, including 4xx/5xx errors the
    /// route itself produced).
    Served,
    /// Shed at admission: the class queue was full.
    ShedQueueFull,
    /// Shed at dequeue: standing queue delay exceeded the CoDel target.
    ShedQueueDelay,
    /// Deadline miss degraded to a cached whole-document snapshot.
    Degraded,
    /// Deadline miss failed with 504 (`XQIB0014`).
    DeadlineExceeded,
}

/// One finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    pub id: u64,
    pub class: Class,
    /// Virtual time the request arrived at the governor.
    pub arrival: u64,
    /// Virtual time the response left the server.
    pub finished: u64,
    /// Time spent in the admission queue (0 for shed-at-admission).
    pub queue_delay_ms: u64,
    pub outcome: Outcome,
    pub response: ServerResponse,
}

/// What [`GovernedServer::submit`] decided.
#[derive(Debug)]
pub enum Admission {
    /// Admitted; the id will reappear in exactly one [`Completion`].
    Queued(u64),
    /// Shed at admission with the finished 503 response.
    Rejected(Completion),
}

#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    url: String,
    class: Class,
    arrival: u64,
}

/// Simplified deterministic CoDel (Controlling Queue Delay, Nichols &
/// Jacobson): tracks when the dequeue-observed delay first rose above
/// `target`; once it has stayed above for `interval`, enters the dropping
/// state and sheds at `interval/√count` spacing until a dequeue observes a
/// delay back under target. Deviations from the reference algorithm: no
/// packet-size scaling, and the drop count resets fully on recovery.
#[derive(Debug, Clone)]
struct CoDel {
    target_ms: u64,
    interval_ms: u64,
    first_above_at: Option<u64>,
    dropping: bool,
    drop_next: u64,
    count: u64,
}

impl CoDel {
    fn new(target_ms: u64, interval_ms: u64) -> Self {
        CoDel {
            target_ms,
            interval_ms,
            first_above_at: None,
            dropping: false,
            drop_next: 0,
            count: 0,
        }
    }

    /// Observes one dequeue with queue delay `delay` at virtual time `now`;
    /// returns whether this request should be shed.
    fn should_shed(&mut self, delay: u64, now: u64) -> bool {
        if self.target_ms == u64::MAX || self.interval_ms == u64::MAX {
            return false;
        }
        if delay <= self.target_ms {
            self.first_above_at = None;
            self.dropping = false;
            self.count = 0;
            return false;
        }
        let first = *self.first_above_at.get_or_insert(now);
        if !self.dropping {
            if now.saturating_sub(first) < self.interval_ms {
                return false; // a burst shorter than one interval rides out
            }
            self.dropping = true;
            self.count = 0;
            self.drop_next = now;
        }
        if now >= self.drop_next {
            self.count += 1;
            self.drop_next = now + self.interval_ms / isqrt(self.count).max(1);
            true
        } else {
            false
        }
    }
}

/// Integer √n (floor), deterministic.
fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// The admission/scheduling layer itself (state only; the pairing with an
/// [`AppServer`] lives in [`GovernedServer`]).
#[derive(Debug)]
pub struct RequestGovernor {
    pub cfg: GovernorConfig,
    queues: [VecDeque<Pending>; 3],
    /// Virtual time the single-threaded server frees up.
    free_at: u64,
    codel: CoDel,
    next_id: u64,
    pub stats: OverloadStats,
}

impl RequestGovernor {
    pub fn new(cfg: GovernorConfig) -> Self {
        let codel = CoDel::new(cfg.codel_target_ms, cfg.codel_interval_ms);
        RequestGovernor {
            cfg,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            free_at: 0,
            codel,
            next_id: 0,
            stats: OverloadStats::default(),
        }
    }

    /// Requests currently queued across all classes.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn dequeue(&mut self) -> Option<Pending> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }

    fn shed_response(&self) -> ServerResponse {
        ServerResponse::new(503, "<error class=\"overload\">server overloaded</error>")
            .with_header("Retry-After", &RETRY_AFTER_S.to_string())
    }
}

/// An [`AppServer`] behind a [`RequestGovernor`].
pub struct GovernedServer {
    pub server: AppServer,
    pub gov: RequestGovernor,
}

impl GovernedServer {
    pub fn new(server: AppServer, cfg: GovernorConfig) -> Self {
        GovernedServer {
            server,
            gov: RequestGovernor::new(cfg),
        }
    }

    /// Offers a request arriving at virtual time `now`. Either admits it
    /// into the bounded class queue or sheds it immediately (queue full).
    pub fn submit(&mut self, url: &str, now: u64) -> Admission {
        self.gov.stats.submitted += 1;
        let class = Class::of_url(url);
        let id = self.gov.next_id;
        self.gov.next_id += 1;
        if self.gov.queues[class.index()].len() >= self.gov.cfg.queue_capacity {
            self.gov.stats.shed_queue_full += 1;
            return Admission::Rejected(Completion {
                id,
                class,
                arrival: now,
                finished: now,
                queue_delay_ms: 0,
                outcome: Outcome::ShedQueueFull,
                response: self.gov.shed_response(),
            });
        }
        self.gov.stats.admitted += 1;
        self.gov.queues[class.index()].push_back(Pending {
            id,
            url: url.to_string(),
            class,
            arrival: now,
        });
        Admission::Queued(id)
    }

    /// Serves queued requests until the virtual clock reaches `now` (or the
    /// backlog empties). Every request dequeued here produces exactly one
    /// [`Completion`].
    pub fn run_until(&mut self, now: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        while self.gov.free_at <= now && self.dequeue_one(&mut done).is_some() {}
        done
    }

    /// Serves the entire backlog, advancing virtual time as far as needed.
    /// Returns the completions in service order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut done = Vec::new();
        while self.dequeue_one(&mut done).is_some() {}
        done
    }

    /// Virtual time at which the server is next free.
    pub fn free_at(&self) -> u64 {
        self.gov.free_at
    }

    /// Dequeues and serves one request, pushing its completion. Returns
    /// `None` when the backlog is empty.
    fn dequeue_one(&mut self, done: &mut Vec<Completion>) -> Option<()> {
        let p = self.gov.dequeue()?;
        let start = self.gov.free_at.max(p.arrival);
        let delay = start - p.arrival;
        self.gov.stats.queue_delays.push(delay);

        // CoDel: shed standing-queue victims with a cheap 503
        if self.gov.codel.should_shed(delay, start) {
            self.gov.stats.shed_queue_delay += 1;
            self.gov.stats.completed += 1;
            self.gov.free_at = start; // shedding is free: no evaluation ran
            done.push(Completion {
                id: p.id,
                class: p.class,
                arrival: p.arrival,
                finished: start,
                queue_delay_ms: delay,
                outcome: Outcome::ShedQueueDelay,
                response: self.gov.shed_response(),
            });
            return Some(());
        }

        let deadline = self.gov.cfg.deadline_ms[p.class.index()];
        let (response, outcome, service_ms) = if deadline > 0 && delay >= deadline {
            // the whole deadline was eaten by queueing: never evaluate
            self.degrade_or_504(&p)
        } else {
            let budget =
                (deadline > 0).then(|| (deadline - delay).saturating_mul(self.gov.cfg.fuel_per_ms));
            // a `/metrics` request served here reports the live overload
            // counters next to the server's own
            let stats = &self.gov.stats;
            let (resp, fuel_used) = self.server.handle_layered(&p.url, budget, |m| {
                m.overload = stats.clone();
            });
            // fuel retired on the engine is the virtual CPU cost; every
            // request additionally pays 1 ms of fixed routing/serialisation
            let service_ms = fuel_used / self.gov.cfg.fuel_per_ms + 1;
            if resp.status == 504 {
                // XQIB0014 from the evaluator: the deadline fired mid-query
                let (resp, outcome, _) = self.degrade_or_504(&p);
                (resp, outcome, service_ms)
            } else {
                (resp, Outcome::Served, service_ms)
            }
        };
        self.gov.free_at = start + service_ms;
        self.gov.stats.completed += 1;
        done.push(Completion {
            id: p.id,
            class: p.class,
            arrival: p.arrival,
            finished: self.gov.free_at,
            queue_delay_ms: delay,
            outcome,
            response,
        });
        Some(())
    }

    /// The deadline-miss fallback: render-class requests degrade to the
    /// cached snapshot when enabled, everything else fails with 504. The
    /// fixed cost of either path is 1 virtual ms.
    fn degrade_or_504(&mut self, p: &Pending) -> (ServerResponse, Outcome, u64) {
        if p.class == Class::Render && self.gov.cfg.degrade_renders {
            if let Some(resp) = self.server.degraded_snapshot(&p.url) {
                self.gov.stats.degraded += 1;
                return (resp, Outcome::Degraded, 1);
            }
        }
        self.gov.stats.deadline_exceeded += 1;
        (
            ServerResponse::new(
                504,
                "<error>XQIB0014: request deadline exceeded</error>".to_string(),
            ),
            Outcome::DeadlineExceeded,
            1,
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusSpec};

    fn governed(cfg: GovernorConfig) -> GovernedServer {
        let server = AppServer::new(&generate_corpus(&CorpusSpec::default())).unwrap();
        GovernedServer::new(server, cfg)
    }

    #[test]
    fn classes_route_by_path() {
        assert_eq!(Class::of_url("/page?article=x"), Class::Render);
        assert_eq!(Class::of_url("/index"), Class::Render);
        assert_eq!(Class::of_url("http://h/doc?uri=u"), Class::Render);
        assert_eq!(Class::of_url("/query?xq=1"), Class::Query);
        assert_eq!(Class::of_url("/update?xq=1"), Class::Update);
    }

    #[test]
    fn under_capacity_nothing_is_shed_or_degraded() {
        let mut g = governed(GovernorConfig::default());
        let mut ids = Vec::new();
        for k in 0..20u64 {
            // one request every 100 virtual ms: far under capacity
            let t = k * 100;
            match g.submit("/page?article=j0-v0-i0-a0", t) {
                Admission::Queued(id) => ids.push(id),
                Admission::Rejected(_) => panic!("shed under capacity"),
            }
            for c in g.run_until(t) {
                assert_eq!(c.outcome, Outcome::Served);
                assert_eq!(c.response.status, 200);
            }
        }
        let rest = g.drain();
        assert!(g.gov.stats.shed() == 0 && g.gov.stats.degraded == 0);
        assert_eq!(
            g.gov.stats.completed as usize,
            ids.len(),
            "drain finished the tail: {rest:?}"
        );
    }

    #[test]
    fn queue_overflow_sheds_with_retry_after() {
        let mut g = governed(GovernorConfig {
            queue_capacity: 4,
            ..Default::default()
        });
        let mut shed = 0;
        for _ in 0..10 {
            if let Admission::Rejected(c) = g.submit("/page?article=j0-v0-i0-a0", 0) {
                assert_eq!(c.response.status, 503);
                assert_eq!(c.response.header("Retry-After"), Some("1"));
                assert_eq!(c.outcome, Outcome::ShedQueueFull);
                shed += 1;
            }
        }
        assert_eq!(shed, 6, "4 admitted, 6 shed");
        assert_eq!(g.gov.backlog(), 4);
    }

    #[test]
    fn render_class_dequeues_before_queries() {
        let mut g = governed(GovernorConfig::default());
        g.submit("/query?xq=1", 0);
        g.submit("/query?xq=2", 0);
        g.submit("/index", 0);
        let done = g.drain();
        assert_eq!(done[0].class, Class::Render, "render jumps the queue");
        assert_eq!(done[1].class, Class::Query);
    }

    #[test]
    fn deadline_eaten_in_queue_degrades_renders_and_504s_queries() {
        // deadline 50ms, but the server is busy until t=1000
        let mut g = governed(GovernorConfig::default());
        g.gov.free_at = 1000;
        g.submit("/page?article=j0-v0-i0-a0", 0);
        g.submit("/query?xq=1+to+3", 0);
        let done = g.drain();
        let page = &done[0];
        assert_eq!(page.outcome, Outcome::Degraded);
        assert_eq!(page.response.status, 200);
        assert!(page.response.body.starts_with("<library>"));
        assert_eq!(
            page.response.header("X-XQIB-Degraded"),
            Some("whole-document-snapshot")
        );
        let query = &done[1];
        assert_eq!(query.outcome, Outcome::DeadlineExceeded);
        assert_eq!(query.response.status, 504);
        // each miss lands in exactly one bucket: degraded or failed
        assert_eq!(g.gov.stats.deadline_exceeded, 1);
        assert_eq!(g.gov.stats.degraded, 1);
    }

    #[test]
    fn codel_sheds_standing_queues_but_rides_out_short_bursts() {
        let mut codel = CoDel::new(20, 100);
        // short burst: delay above target for less than one interval
        assert!(!codel.should_shed(30, 0));
        assert!(!codel.should_shed(35, 50));
        // delay recovers: state resets
        assert!(!codel.should_shed(5, 60));
        // standing queue: above target for a full interval → dropping
        assert!(!codel.should_shed(30, 100));
        assert!(!codel.should_shed(40, 150));
        assert!(codel.should_shed(50, 210), "one interval elapsed");
        // drop rate accelerates: next drop within interval/√2
        assert!(codel.should_shed(60, 210 + 100));
        // recovery closes the dropping state
        assert!(!codel.should_shed(3, 500));
        assert!(!codel.should_shed(30, 510), "fresh interval starts over");
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for (n, r) in [(0, 0), (1, 1), (2, 1), (3, 1), (4, 2), (99, 9), (100, 10)] {
            assert_eq!(isqrt(n), r, "isqrt({n})");
        }
    }

    #[test]
    fn metrics_through_the_governor_report_live_overload_counters() {
        let mut g = governed(GovernorConfig {
            queue_capacity: 1,
            ..Default::default()
        });
        g.submit("/index", 0);
        g.submit("/index", 0); // shed: queue full
        g.drain();
        g.submit("/metrics", 1_000);
        let done = g.drain();
        let body = &done[0].response.body;
        // the /metrics request itself was admitted too
        assert!(body.contains("<admitted>2</admitted>"), "{body}");
        assert!(body.contains("<shed>1</shed>"), "{body}");
    }
}
