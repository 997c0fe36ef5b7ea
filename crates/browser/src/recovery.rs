//! Client-side recovery policy for the async network path: request
//! timeouts, bounded retries with deterministic-jitter exponential backoff,
//! per-host circuit breakers driven by virtual time, and a stale-response
//! cache for graceful degradation (the Figure 2 "survive server load from
//! the client cache" story).
//!
//! Everything here is pure state-machine code over the virtual clock — no
//! wall time, no ambient randomness — so any failure/recovery schedule is
//! reproducible byte-for-byte from the seeds involved. The plug-in layer
//! (`xqib-core`) owns the control flow: it schedules retry tasks on the
//! event loop, consults the breaker before touching the network, and turns
//! exhausted retries into `stale`/`error` DOM events.

use std::collections::HashMap;

use xqib_storage::mix64;

use crate::net::{url_path, Response};

/// How a `behind` call's fetches are retried and timed out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-request deadline: a lost request costs this much virtual time
    /// before the client gives up on it.
    pub timeout_ms: u64,
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry k (1-based failed attempt) starts from
    /// `backoff_base_ms * backoff_factor^(k-1)` …
    pub backoff_base_ms: u64,
    pub backoff_factor: u64,
    /// … capped here, before jitter.
    pub backoff_cap_ms: u64,
    /// Deterministic jitter in `0..=jitter_ms` added to every backoff,
    /// derived from a fixed seed, the call id and the attempt number.
    pub jitter_ms: u64,
}

/// Seeds the backoff jitter: fixed, so every run schedules the same retries.
const JITTER_SEED: u64 = 0x5eed_5eed;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_ms: 1_000,
            max_attempts: 3,
            backoff_base_ms: 100,
            backoff_factor: 2,
            backoff_cap_ms: 10_000,
            jitter_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// A policy without jitter (exact, hand-computable timestamps).
    pub fn no_jitter(mut self) -> Self {
        self.jitter_ms = 0;
        self
    }

    /// The delay scheduled after `failed_attempt` (1-based) of call
    /// `call_id` fails. Pure: tests can predict every retry timestamp.
    pub fn backoff_delay(&self, failed_attempt: u32, call_id: u64) -> u64 {
        let exp = self
            .backoff_base_ms
            .saturating_mul(
                self.backoff_factor
                    .saturating_pow(failed_attempt.saturating_sub(1)),
            )
            .min(self.backoff_cap_ms);
        exp + self.jitter(failed_attempt, call_id)
    }

    fn jitter(&self, attempt: u32, call_id: u64) -> u64 {
        if self.jitter_ms == 0 {
            return 0;
        }
        let x = JITTER_SEED
            ^ call_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        mix64(x) % (self.jitter_ms + 1)
    }
}

/// Circuit-breaker states, per the classic closed → open → half-open
/// machine, with transitions driven by the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Requests are refused without touching the network until `until`.
    Open { until: u64 },
    /// One probe request is allowed; its outcome closes or re-opens.
    HalfOpen,
}

/// A state change of a [`CircuitBreaker`], returned to its owner, which
/// counts it in its own stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Into [`BreakerState::Open`]: the failure streak reached the
    /// threshold, or the half-open probe failed.
    Opened,
    /// Into [`BreakerState::HalfOpen`]: the open window expired and the
    /// probe is admitted.
    HalfOpened,
    /// Back to [`BreakerState::Closed`] from open or half-open.
    Closed,
}

/// A circuit breaker: per host for `behind` fetches, per link for the
/// cluster, and per listener as its quarantine.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    pub state: BreakerState,
    consecutive_failures: u32,
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long (virtual ms) the breaker stays open before a probe.
    pub open_ms: u64,
}

impl CircuitBreaker {
    pub fn new(failure_threshold: u32, open_ms: u64) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            failure_threshold: failure_threshold.max(1),
            open_ms,
        }
    }

    /// The failures since the last success while closed.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether a request may be issued at `now`. An expired open window
    /// transitions to half-open and admits the probe.
    pub fn allow(&mut self, now: u64) -> (bool, Option<Transition>) {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, None),
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                (true, Some(Transition::HalfOpened))
            }
            BreakerState::Open { .. } => (false, None),
        }
    }

    pub fn on_success(&mut self) -> Option<Transition> {
        let tripped = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        tripped.then_some(Transition::Closed)
    }

    pub fn on_failure(&mut self, now: u64) -> Option<Transition> {
        match self.state {
            BreakerState::HalfOpen => {
                // failed probe: straight back to open
                self.state = BreakerState::Open {
                    until: now + self.open_ms,
                };
                Some(Transition::Opened)
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures < self.failure_threshold {
                    return None;
                }
                self.state = BreakerState::Open {
                    until: now + self.open_ms,
                };
                Some(Transition::Opened)
            }
            BreakerState::Open { .. } => None,
        }
    }
}

/// Whether `url` asks the server to write: the cluster's `/update` route.
fn is_write(url: &str) -> bool {
    url_path(url) == "/update"
}

/// One cached response with its virtual-time birth and recency stamps.
#[derive(Debug, Clone)]
struct StaleEntry {
    resp: Response,
    stored_at: u64,
    used: u64,
}

/// Last-good responses for degradation: exact-URL entries first, with a
/// per-host "most recent good response" fallback (the suggest-page case:
/// serve the hints for the previous query when the current one is down).
///
/// Reads only: a write's answer (the cluster's `/update` route) says what
/// that one write did, so it is never stored and a failed write is never
/// answered from the cache — it ends in `error`, not `stale`.
///
/// The per-URL map is **bounded**: at most `capacity` entries, evicted
/// least-recently-used first, and entries older than `ttl_ms` of virtual
/// time are invisible to `lookup` (an entry stored at `t` expires at
/// exactly `t + ttl_ms`). Without the bound a long-lived client fetching
/// many distinct URLs grows without limit — fatal for a simulated fleet of
/// thousands of browsers. The host fallback keeps one entry per host (one
/// of the bounded URL entries can vanish under it; the host copy is its
/// own clone, refreshed on every successful fetch to the host).
#[derive(Debug)]
pub struct StaleCache {
    by_url: HashMap<String, StaleEntry>,
    by_host: HashMap<String, StaleEntry>,
    capacity: usize,
    ttl_ms: u64,
    tick: u64,
}

impl Default for StaleCache {
    fn default() -> Self {
        StaleCache::bounded(StaleCache::DEFAULT_CAPACITY, u64::MAX)
    }
}

impl StaleCache {
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A cache holding at most `capacity` URL entries (min 1), each valid
    /// for `ttl_ms` of virtual time after it was stored.
    pub fn bounded(capacity: usize, ttl_ms: u64) -> Self {
        StaleCache {
            by_url: HashMap::new(),
            by_host: HashMap::new(),
            capacity: capacity.max(1),
            ttl_ms,
            tick: 0,
        }
    }

    /// Records a successful response as the last-good for its URL and host
    /// at virtual time `now`. Returns how many entries were evicted to
    /// respect the capacity bound (the caller accounts them in
    /// [`RecoveryStats::evictions`]).
    pub fn store(&mut self, url: &str, host: &str, resp: &Response, now: u64) -> u64 {
        if is_write(url) {
            return 0;
        }
        self.tick += 1;
        let entry = StaleEntry {
            resp: resp.clone(),
            stored_at: now,
            used: self.tick,
        };
        self.by_host.insert(host.to_string(), entry.clone());
        self.by_url.insert(url.to_string(), entry);
        let mut evicted = 0;
        while self.by_url.len() > self.capacity {
            // LRU victim; `used` stamps are unique, so this is
            // deterministic regardless of hash iteration order
            let Some(victim) = self
                .by_url
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(u, _)| u.clone())
            else {
                break;
            };
            self.by_url.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn fresh(&self, entry: &StaleEntry, now: u64) -> bool {
        now.saturating_sub(entry.stored_at) < self.ttl_ms
    }

    /// The freshest applicable last-good response at `now`, URL match
    /// preferred; expired entries are invisible. A URL hit refreshes the
    /// entry's LRU recency. `None` for a write.
    pub fn lookup(&mut self, url: &str, host: &str, now: u64) -> Option<&Response> {
        if is_write(url) {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let url_fresh = self.by_url.get(url).is_some_and(|e| self.fresh(e, now));
        if url_fresh {
            let e = self.by_url.get_mut(url)?;
            e.used = tick;
            return Some(&e.resp);
        }
        let host_fresh = self.by_host.get(host).is_some_and(|e| self.fresh(e, now));
        if host_fresh {
            return self.by_host.get(host).map(|e| &e.resp);
        }
        None
    }

    pub fn len(&self) -> usize {
        self.by_url.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_url.is_empty()
    }
}

xqib_storage::counters! {
    /// Counters for the whole fault/recovery path, served to XQuery by
    /// `browser:fetchStatus()`.
    pub struct RecoveryStats {
        /// `behind` attempts executed (first tries + retries).
        attempts: "attempts",
        /// Retry tasks scheduled on the event loop.
        retries: "retries",
        /// Fetches that hit the client-side deadline (lost requests).
        timeouts: "timeouts",
        /// Non-200 or unparsable replies observed.
        fetch_errors: "fetch-errors",
        breaker_opens: "breaker-opens",
        breaker_half_opens: "breaker-half-opens",
        breaker_closes: "breaker-closes",
        /// Requests refused without touching the network (breaker open).
        breaker_fast_fails: "breaker-fast-fails",
        /// Degraded fetches answered from the stale cache.
        stale_served: "stale-served",
        /// `behind` calls that delivered a fresh result.
        completions: "completions",
        /// `stale` DOM events delivered.
        stale_events: "stale-events",
        /// `error` DOM events delivered.
        error_events: "error-events",
        /// Stale-cache entries evicted to respect the capacity bound.
        evictions: "evictions",
    }
}

impl RecoveryStats {
    /// Counts a breaker's transition, if it made one.
    pub fn count(&mut self, transition: Option<Transition>) {
        match transition {
            Some(Transition::Opened) => self.breaker_opens += 1,
            Some(Transition::HalfOpened) => self.breaker_half_opens += 1,
            Some(Transition::Closed) => self.breaker_closes += 1,
            None => {}
        }
    }
}

/// Knobs for [`RecoveryState`] (what the plug-in config carries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    pub retry: RetryPolicy,
    pub breaker_failure_threshold: u32,
    pub breaker_open_ms: u64,
    /// Max URL entries the stale cache holds (LRU-evicted beyond this).
    pub stale_capacity: usize,
    /// Virtual-time TTL of a stale-cache entry (`u64::MAX` = never expires).
    pub stale_ttl_ms: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retry: RetryPolicy::default(),
            breaker_failure_threshold: 3,
            breaker_open_ms: 5_000,
            stale_capacity: StaleCache::DEFAULT_CAPACITY,
            stale_ttl_ms: u64::MAX,
        }
    }
}

/// The whole client-side recovery state a host environment owns.
#[derive(Debug, Default)]
pub struct RecoveryState {
    pub policy: RetryPolicy,
    breaker_failure_threshold: u32,
    breaker_open_ms: u64,
    breakers: HashMap<String, CircuitBreaker>,
    pub stale: StaleCache,
    pub stats: RecoveryStats,
    /// Degraded mode for the current attempt: failed fetches may fall back
    /// to the stale cache.
    pub serve_stale: bool,
    /// URL a stale response was served for during the current attempt.
    pub stale_url: Option<String>,
}

impl RecoveryState {
    pub fn new(config: RecoveryConfig) -> Self {
        RecoveryState {
            policy: config.retry,
            breaker_failure_threshold: config.breaker_failure_threshold,
            breaker_open_ms: config.breaker_open_ms,
            stale: StaleCache::bounded(config.stale_capacity, config.stale_ttl_ms),
            ..Default::default()
        }
    }

    /// Stores a last-good response in the stale cache at `now`, accounting
    /// any LRU evictions in [`RecoveryStats::evictions`].
    pub fn store_stale(&mut self, url: &str, host: &str, resp: &Response, now: u64) {
        self.stats.evictions += self.stale.store(url, host, resp, now);
    }

    /// Whether `host` may be contacted at `now` (open-breaker fast-fails
    /// are counted here).
    pub fn breaker_allow(&mut self, host: &str, now: u64) -> bool {
        let (threshold, open_ms) = (self.breaker_failure_threshold, self.breaker_open_ms);
        let breaker = self
            .breakers
            .entry(host.to_string())
            .or_insert_with(|| CircuitBreaker::new(threshold, open_ms));
        let (allowed, transition) = breaker.allow(now);
        self.stats.count(transition);
        if !allowed {
            self.stats.breaker_fast_fails += 1;
        }
        allowed
    }

    pub fn breaker_success(&mut self, host: &str) {
        if let Some(b) = self.breakers.get_mut(host) {
            self.stats.count(b.on_success());
        }
    }

    pub fn breaker_failure(&mut self, host: &str, now: u64) {
        let (threshold, open_ms) = (self.breaker_failure_threshold, self.breaker_open_ms);
        let transition = self
            .breakers
            .entry(host.to_string())
            .or_insert_with(|| CircuitBreaker::new(threshold, open_ms))
            .on_failure(now);
        self.stats.count(transition);
    }

    /// The breaker state for a host (closed if never contacted).
    pub fn breaker_state(&self, host: &str) -> BreakerState {
        self.breakers
            .get(host)
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Hosts with a breaker, with their states (for introspection).
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        let mut v: Vec<(String, BreakerState)> = self
            .breakers
            .iter()
            .map(|(h, b)| (h.clone(), b.state))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_pure() {
        let p = RetryPolicy {
            backoff_base_ms: 100,
            backoff_factor: 2,
            backoff_cap_ms: 350,
            jitter_ms: 0,
            ..Default::default()
        };
        assert_eq!(p.backoff_delay(1, 7), 100);
        assert_eq!(p.backoff_delay(2, 7), 200);
        assert_eq!(p.backoff_delay(3, 7), 350, "capped");
        assert_eq!(p.backoff_delay(10, 7), 350);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        let p = RetryPolicy {
            jitter_ms: 40,
            ..Default::default()
        };
        let a: Vec<u64> = (1..20).map(|k| p.backoff_delay(k, 1)).collect();
        let b: Vec<u64> = (1..20).map(|k| p.backoff_delay(k, 1)).collect();
        assert_eq!(a, b, "pure function of (policy, attempt, call)");
        for k in 1..20u32 {
            let base = p
                .backoff_base_ms
                .saturating_mul(p.backoff_factor.saturating_pow(k - 1))
                .min(p.backoff_cap_ms);
            let d = p.backoff_delay(k, 1);
            assert!(d >= base && d <= base + p.jitter_ms);
        }
        // different calls decorrelate
        assert_ne!(
            (1..20).map(|k| p.backoff_delay(k, 1)).collect::<Vec<_>>(),
            (1..20).map(|k| p.backoff_delay(k, 2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_opens() {
        let mut b = CircuitBreaker::new(3, 1000);
        assert_eq!(b.allow(0), (true, None));
        assert_eq!(b.on_failure(10), None);
        assert_eq!(b.on_failure(20), None);
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.on_failure(30), Some(Transition::Opened));
        assert_eq!(b.state, BreakerState::Open { until: 1030 });
        assert_eq!(b.allow(500), (false, None), "open: refuse");
        assert_eq!(
            b.allow(1030),
            (true, Some(Transition::HalfOpened)),
            "window over: probe"
        );
        assert_eq!(b.state, BreakerState::HalfOpen);
        // failed probe re-opens immediately
        assert_eq!(b.on_failure(1040), Some(Transition::Opened));
        assert_eq!(b.state, BreakerState::Open { until: 2040 });
        // successful probe closes
        assert_eq!(b.allow(2040), (true, Some(Transition::HalfOpened)));
        assert_eq!(b.on_success(), Some(Transition::Closed));
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.on_success(), None, "already closed");
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut b = CircuitBreaker::new(2, 100);
        b.on_failure(0);
        assert_eq!(b.consecutive_failures(), 1);
        b.on_success();
        b.on_failure(1);
        assert_eq!(b.state, BreakerState::Closed, "counter was reset");
        b.on_failure(2);
        assert!(matches!(b.state, BreakerState::Open { .. }));
    }

    #[test]
    fn stats_count_each_transition() {
        let mut stats = RecoveryStats::default();
        for t in [
            Some(Transition::Opened),
            Some(Transition::HalfOpened),
            Some(Transition::Closed),
            Some(Transition::Opened),
            None,
        ] {
            stats.count(t);
        }
        assert_eq!(
            (
                stats.breaker_opens,
                stats.breaker_half_opens,
                stats.breaker_closes
            ),
            (2, 1, 1)
        );
    }

    #[test]
    fn stale_cache_prefers_exact_url_then_host() {
        let mut c = StaleCache::default();
        c.store("http://h/a", "h", &Response::ok("<a/>"), 0);
        c.store("http://h/b", "h", &Response::ok("<b/>"), 0);
        assert_eq!(c.lookup("http://h/a", "h", 0).unwrap().body, "<a/>");
        // unseen URL on a known host: the host's most recent good response
        assert_eq!(c.lookup("http://h/zzz", "h", 0).unwrap().body, "<b/>");
        assert!(c.lookup("http://other/x", "other", 0).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stale_cache_never_answers_or_keeps_a_write() {
        let mut c = StaleCache::default();
        c.store("http://h/doc?uri=a.xml", "h", &Response::ok("<a/>"), 0);
        c.store("http://h/update?xq=x1", "h", &Response::ok("<ok/>"), 1);
        assert_eq!(c.len(), 1, "a write's answer is not kept");
        // a failed write gets no answer, neither its URL's nor the host's
        assert!(c.lookup("http://h/update?xq=x1", "h", 2).is_none());
        assert!(c.lookup("http://h/update?xq=x2", "h", 2).is_none());
        // reads keep the host fallback, cache-busting ones included, and
        // it never serves a write's answer
        let busted = "http://h/doc?uri=a.xml&nocache=7";
        assert_eq!(c.lookup(busted, "h", 2).unwrap().body, "<a/>");
        assert_eq!(
            c.lookup("http://h/doc?uri=b.xml", "h", 2).unwrap().body,
            "<a/>"
        );
    }

    #[test]
    fn stale_cache_same_path_on_two_hosts_stays_separate() {
        let mut c = StaleCache::default();
        c.store("http://a/x", "a", &Response::ok("<from-a/>"), 0);
        c.store("http://b/x", "b", &Response::ok("<from-b/>"), 0);
        assert_eq!(c.lookup("http://a/x", "a", 0).unwrap().body, "<from-a/>");
        assert_eq!(c.lookup("http://b/x", "b", 0).unwrap().body, "<from-b/>");
        // host fallback never crosses hosts
        assert_eq!(c.lookup("http://a/zzz", "a", 0).unwrap().body, "<from-a/>");
        assert_eq!(c.lookup("http://b/zzz", "b", 0).unwrap().body, "<from-b/>");
    }

    #[test]
    fn stale_cache_entry_expires_at_exactly_now() {
        let mut c = StaleCache::bounded(8, 100);
        c.store("http://h/a", "h", &Response::ok("<a/>"), 50);
        // one tick before the deadline the entry is still served …
        assert!(c.lookup("http://h/a", "h", 149).is_some());
        // … at exactly stored_at + ttl it is expired, URL and host alike
        assert!(c.lookup("http://h/a", "h", 150).is_none());
        assert!(c.lookup("http://h/zzz", "h", 150).is_none());
    }

    #[test]
    fn stale_cache_capacity_one_thrash_evicts_every_store() {
        let mut c = StaleCache::bounded(1, u64::MAX);
        let mut evicted = 0;
        for i in 0..5 {
            evicted += c.store(&format!("http://h/{i}"), "h", &Response::ok("<x/>"), i);
            assert_eq!(c.len(), 1, "capacity bound holds");
        }
        assert_eq!(evicted, 4, "every store after the first evicted one");
        // only the newest URL survives; the host fallback still answers
        assert!(c.lookup("http://h/0", "h", 10).is_some(), "host fallback");
        assert_eq!(c.lookup("http://h/4", "h", 10).unwrap().body, "<x/>");
    }

    #[test]
    fn stale_cache_evicts_least_recently_used_not_oldest_stored() {
        let mut c = StaleCache::bounded(2, u64::MAX);
        c.store("http://h/a", "h", &Response::ok("<a/>"), 0);
        c.store("http://h/b", "h", &Response::ok("<b/>"), 1);
        // touch `a`, making `b` the LRU victim
        assert!(c.lookup("http://h/a", "h", 2).is_some());
        c.store("http://h/c", "h", &Response::ok("<c/>"), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("http://h/a", "h", 4).unwrap().body, "<a/>");
        // `b` was evicted: the URL now answers via the host fallback (`c`)
        assert_eq!(c.lookup("http://h/b", "h", 4).unwrap().body, "<c/>");
    }

    #[test]
    fn recovery_state_counts_evictions_in_stats() {
        let mut r = RecoveryState::new(RecoveryConfig {
            stale_capacity: 1,
            ..Default::default()
        });
        r.store_stale("http://h/a", "h", &Response::ok("<a/>"), 0);
        r.store_stale("http://h/b", "h", &Response::ok("<b/>"), 1);
        r.store_stale("http://h/c", "h", &Response::ok("<c/>"), 2);
        assert_eq!(r.stats.evictions, 2);
        assert_eq!(r.stale.len(), 1);
    }

    #[test]
    fn backoff_base_is_monotone_and_jitter_bounded_across_call_ids() {
        let p = RetryPolicy::default();
        for call_id in 0..200u64 {
            for k in 1..12u32 {
                let base = |k: u32| {
                    p.backoff_base_ms
                        .saturating_mul(p.backoff_factor.saturating_pow(k - 1))
                        .min(p.backoff_cap_ms)
                };
                let d = p.backoff_delay(k, call_id);
                assert!(
                    d >= base(k) && d <= base(k) + p.jitter_ms,
                    "call {call_id} attempt {k}: delay {d} outside envelope"
                );
                // the jitter-free envelope is monotone in the attempt, so
                // consecutive delays can regress by at most the jitter span
                let next = p.backoff_delay(k + 1, call_id);
                assert!(
                    next + p.jitter_ms >= d,
                    "call {call_id}: delay dropped {d} -> {next}"
                );
                assert!(base(k + 1) >= base(k));
            }
        }
    }

    #[test]
    fn recovery_state_tracks_fast_fails() {
        let mut r = RecoveryState::new(RecoveryConfig {
            breaker_failure_threshold: 1,
            breaker_open_ms: 500,
            ..Default::default()
        });
        assert!(r.breaker_allow("h", 0));
        r.breaker_failure("h", 0);
        assert_eq!(r.breaker_state("h"), BreakerState::Open { until: 500 });
        assert!(!r.breaker_allow("h", 10));
        assert_eq!(r.stats.breaker_fast_fails, 1);
        assert!(r.breaker_allow("h", 500));
        r.breaker_success("h");
        assert_eq!(r.breaker_state("h"), BreakerState::Closed);
        assert_eq!(r.breaker_states(), vec![("h".into(), BreakerState::Closed)]);
    }
}
