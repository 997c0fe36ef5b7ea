//! Overload control for the server tier: a [`RequestGovernor`] fronts each
//! shard leader of a [`Cluster`](crate::Cluster) (when
//! [`ClusterConfig::governor`](crate::ClusterConfig::governor) is set) with
//! bounded, class-prioritised admission queues, per-request deadlines
//! propagated into the evaluator as fuel budgets, CoDel-style queue-delay
//! shedding, and graceful degradation of render-class requests to cached
//! whole-document snapshots. Load is shed at every serving leader, not at
//! one front end, so a flood on one shard's documents costs the other
//! shards nothing.
//!
//! Everything runs in *virtual time*: the governor models its leader as a
//! single-threaded server whose service time per request is derived from
//! the engine fuel the evaluation actually consumed
//! ([`GovernorConfig::fuel_per_ms`]). Same inputs, same clock, same
//! decisions — the chaos simulator (`crate::simulate`) drives millions of
//! virtual requests through this code deterministically.
//!
//! The cluster admits and serves; the policy lives here. Per request:
//!
//! 1. **Admission** (`admit`, from `Cluster::submit`): each priority class
//!    has a bounded queue; overflow is shed immediately with
//!    `503` + `Retry-After` (the client should back off — the queue being
//!    full means waiting would blow the deadline anyway).
//! 2. **Queue-delay shedding** (`serve_next`, from `Cluster::advance`): a
//!    simplified deterministic CoDel — once the observed queue delay stays
//!    above [`GovernorConfig::codel_target_ms`] for a full
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
//!    `/doc`) blows its deadline, the governor answers with the leader's
//!    cached whole-document snapshot (`X-XQIB-Degraded:
//!    whole-document-snapshot`) instead of failing — the paper's own
//!    "serve whole documents rather than individual queries" caching
//!    argument (§6.1).

use std::collections::VecDeque;

use crate::cluster::{no_leader_response, ClusterOutcome, Ticket};
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
    /// The ungoverned baseline: unbounded admission, served in
    /// class-priority order (a queued render before an older update), no
    /// deadlines, no queue-delay shedding, no degradation. Used by the simulator as the
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
/// computed from). The cluster serves them on `/metrics`, summed over its
/// shard governors.
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

    /// Adds another governor's counters and samples to these.
    pub fn absorb(&mut self, other: &OverloadStats) {
        let OverloadStats {
            submitted,
            admitted,
            completed,
            shed_queue_full,
            shed_queue_delay,
            degraded,
            deadline_exceeded,
            queue_delays,
        } = other;
        self.submitted += submitted;
        self.admitted += admitted;
        self.completed += completed;
        self.shed_queue_full += shed_queue_full;
        self.shed_queue_delay += shed_queue_delay;
        self.degraded += degraded;
        self.deadline_exceeded += deadline_exceeded;
        self.queue_delays.extend(queue_delays);
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

/// One shard leader's admission queues and virtual-time schedule. The
/// cluster owns one per governed shard and serves through it (see the
/// module docs).
#[derive(Debug)]
pub struct RequestGovernor {
    pub cfg: GovernorConfig,
    queues: [VecDeque<Ticket>; 3],
    /// Virtual time the single-threaded leader frees up.
    free_at: u64,
    codel: CoDel,
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
            stats: OverloadStats::default(),
        }
    }

    /// Requests currently queued across all classes.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Offers a request: it enters its class queue, or comes back to be
    /// shed at once ([`shed_response`]) when that queue is full.
    pub(crate) fn admit(&mut self, ticket: Ticket) -> Result<(), Ticket> {
        self.stats.submitted += 1;
        let queue = &mut self.queues[ticket.class.index()];
        if queue.len() >= self.cfg.queue_capacity {
            self.stats.shed_queue_full += 1;
            return Err(ticket);
        }
        self.stats.admitted += 1;
        queue.push_back(ticket);
        Ok(())
    }

    /// Serves the next queued request on `leader` if the leader is free by
    /// `now`, and returns it with the virtual end of its service, its
    /// outcome and its response; `None` when the queue is empty or the
    /// leader busy past `now`. CoDel sheds a standing queue's victim; the
    /// class deadline left after queueing becomes the fuel budget; a
    /// deadline miss degrades or fails with 504. `refuse` answers a
    /// request the shard may no longer serve (its 421) without running it,
    /// and with no leader every queued request gets the blackout 503 now.
    pub(crate) fn serve_next(
        &mut self,
        now: u64,
        leader: Option<&mut AppServer>,
        refuse: impl FnOnce(&Ticket) -> Option<ServerResponse>,
    ) -> Option<(Ticket, u64, ClusterOutcome, ServerResponse)> {
        if leader.is_some() && self.free_at > now {
            return None;
        }
        let t = self.queues.iter_mut().find_map(VecDeque::pop_front)?;
        self.stats.completed += 1;
        let Some(leader) = leader else {
            return Some((t, now, ClusterOutcome::NoLeader, no_leader_response()));
        };
        let start = self.free_at.max(t.arrival);
        let delay = start - t.arrival;
        self.stats.queue_delays.push(delay);
        // shedding and refusing are free: no evaluation runs
        self.free_at = start;
        if self.codel.should_shed(delay, start) {
            self.stats.shed_queue_delay += 1;
            return Some((t, start, ClusterOutcome::Shed, shed_response()));
        }
        if let Some(refusal) = refuse(&t) {
            return Some((t, start, ClusterOutcome::Misrouted, refusal));
        }
        let deadline = self.cfg.deadline_ms[t.class.index()];
        let (outcome, response, service_ms) = if deadline > 0 && delay >= deadline {
            // the whole deadline was eaten by queueing: never evaluate
            self.degrade_or_504(leader, &t)
        } else {
            let budget =
                (deadline > 0).then(|| (deadline - delay).saturating_mul(self.cfg.fuel_per_ms));
            let (resp, fuel_used) = leader.handle_budgeted(&t.url, budget);
            // fuel retired on the engine is the virtual CPU cost; every
            // request additionally pays 1 ms of fixed routing/serialisation
            let service_ms = fuel_used / self.cfg.fuel_per_ms + 1;
            if resp.status == 504 {
                // XQIB0014 from the evaluator: the deadline fired mid-query
                let (outcome, resp, _) = self.degrade_or_504(leader, &t);
                (outcome, resp, service_ms)
            } else {
                (ClusterOutcome::Served, resp, service_ms)
            }
        };
        self.free_at = start + service_ms;
        Some((t, self.free_at, outcome, response))
    }

    /// The deadline-miss fallback: render-class requests degrade to the
    /// leader's whole-document snapshot when enabled, everything else
    /// fails with 504. The fixed cost of either path is 1 virtual ms.
    fn degrade_or_504(
        &mut self,
        leader: &AppServer,
        t: &Ticket,
    ) -> (ClusterOutcome, ServerResponse, u64) {
        if t.class == Class::Render && self.cfg.degrade_renders {
            if let Some(resp) = leader.degraded_snapshot(&t.url) {
                self.stats.degraded += 1;
                return (ClusterOutcome::Degraded, resp, 1);
            }
        }
        self.stats.deadline_exceeded += 1;
        (
            ClusterOutcome::DeadlineExceeded,
            ServerResponse::new(504, "<error>XQIB0014: request deadline exceeded</error>"),
            1,
        )
    }
}

/// The 503 a shed request gets: the queue is full or standing, and
/// waiting would blow the deadline anyway.
pub(crate) fn shed_response() -> ServerResponse {
    ServerResponse::new(503, "<error class=\"overload\">server overloaded</error>")
        .with_header("Retry-After", &RETRY_AFTER_S.to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusSpec};

    type Served = (Ticket, u64, ClusterOutcome, ServerResponse);

    fn leader() -> AppServer {
        AppServer::new(&generate_corpus(&CorpusSpec::default())).unwrap()
    }

    fn ticket(id: u64, url: &str, arrival: u64) -> Ticket {
        Ticket {
            id,
            shard: 0,
            class: Class::of_url(url),
            url: url.to_string(),
            arrival,
        }
    }

    /// Serves the whole backlog, however long it takes.
    fn drain(g: &mut RequestGovernor, leader: &mut AppServer) -> Vec<Served> {
        std::iter::from_fn(|| g.serve_next(u64::MAX, Some(leader), |_| None)).collect()
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
        let (mut g, mut leader) = (RequestGovernor::new(GovernorConfig::default()), leader());
        for k in 0..20u64 {
            // one request every 100 virtual ms: far under capacity
            let t = k * 100;
            assert!(g.admit(ticket(k, "/page?article=j0-v0-i0-a0", t)).is_ok());
            while let Some((_, _, outcome, resp)) = g.serve_next(t, Some(&mut leader), |_| None) {
                assert_eq!(outcome, ClusterOutcome::Served);
                assert_eq!(resp.status, 200);
            }
        }
        let rest = drain(&mut g, &mut leader);
        assert!(g.stats.shed() == 0 && g.stats.degraded == 0);
        assert_eq!(g.stats.completed, 20, "drain finished the tail: {rest:?}");
    }

    #[test]
    fn queue_overflow_sheds_with_retry_after() {
        let mut g = RequestGovernor::new(GovernorConfig {
            queue_capacity: 4,
            ..Default::default()
        });
        let shed = (0..10)
            .filter(|&k| g.admit(ticket(k, "/page?article=j0-v0-i0-a0", 0)).is_err())
            .count();
        assert_eq!(shed, 6, "4 admitted, 6 shed");
        assert_eq!(g.backlog(), 4);
        let resp = shed_response();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("Retry-After"), Some("1"));
    }

    #[test]
    fn render_class_dequeues_before_queries() {
        let (mut g, mut leader) = (RequestGovernor::new(GovernorConfig::default()), leader());
        for (k, url) in ["/query?xq=1", "/query?xq=2", "/index"].iter().enumerate() {
            g.admit(ticket(k as u64, url, 0)).unwrap();
        }
        let done = drain(&mut g, &mut leader);
        assert_eq!(done[0].0.class, Class::Render, "render jumps the queue");
        assert_eq!(done[1].0.class, Class::Query);
    }

    /// The ungoverned baseline is not a FIFO: a queued render is served
    /// before an older queued update.
    #[test]
    fn unbounded_baseline_serves_in_class_priority_order() {
        let (mut g, mut leader) = (RequestGovernor::new(GovernorConfig::unbounded()), leader());
        g.admit(ticket(0, "/update?xq=()", 0)).unwrap();
        g.admit(ticket(1, "/index", 1)).unwrap();
        let done = drain(&mut g, &mut leader);
        let order: Vec<u64> = done.iter().map(|(t, ..)| t.id).collect();
        assert_eq!(order, [1, 0], "the later render goes first");
    }

    #[test]
    fn deadline_eaten_in_queue_degrades_renders_and_504s_queries() {
        // deadline 100ms, but the leader is busy until t=1000
        let (mut g, mut leader) = (RequestGovernor::new(GovernorConfig::default()), leader());
        g.free_at = 1000;
        g.admit(ticket(0, "/page?article=j0-v0-i0-a0", 0)).unwrap();
        g.admit(ticket(1, "/query?xq=1+to+3", 0)).unwrap();
        let done = drain(&mut g, &mut leader);
        let (_, _, outcome, page) = &done[0];
        assert_eq!(*outcome, ClusterOutcome::Degraded);
        assert_eq!(page.status, 200);
        assert!(page.body.starts_with("<library>"));
        assert_eq!(
            page.header("X-XQIB-Degraded"),
            Some("whole-document-snapshot")
        );
        let (_, _, outcome, query) = &done[1];
        assert_eq!(*outcome, ClusterOutcome::DeadlineExceeded);
        assert_eq!(query.status, 504);
        // each miss lands in exactly one bucket: degraded or failed
        assert_eq!(g.stats.deadline_exceeded, 1);
        assert_eq!(g.stats.degraded, 1);
    }

    /// A request the shard may no longer serve is answered with the
    /// refusal, unrun and at no cost to the queue behind it.
    #[test]
    fn a_refused_request_costs_nothing() {
        let (mut g, mut leader) = (RequestGovernor::new(GovernorConfig::default()), leader());
        g.admit(ticket(0, "/query?xq=1", 5)).unwrap();
        let refusal = || Some(ServerResponse::new(421, "moved"));
        let (t, finished, outcome, resp) =
            g.serve_next(5, Some(&mut leader), |_| refusal()).unwrap();
        assert_eq!((t.id, finished, outcome), (0, 5, ClusterOutcome::Misrouted));
        assert_eq!(resp.status, 421);
        assert_eq!((g.free_at, leader.db.evals), (5, 0));
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
}
