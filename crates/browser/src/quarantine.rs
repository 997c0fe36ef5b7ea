//! Per-listener fault quarantine: the listener-side sibling of the network
//! circuit breaker in [`crate::recovery`]. A listener that keeps panicking
//! or erroring is detached from dispatch for a cool-down window instead of
//! being invoked (and failing) on every event — one bad handler cannot
//! monopolise the single event loop of the paper's Figure 1.
//!
//! Each listener's guard is a [`CircuitBreaker`], whose closed → open →
//! half-open states read here as `Healthy` → `Quarantined { until }` →
//! `Probation`. While quarantined, dispatch skips the listener entirely;
//! once the (virtual-time) window expires the next matching event is a
//! probation trial — success fully heals the listener, another failure
//! re-quarantines it immediately.

use std::collections::HashMap;

use crate::events::ListenerId;
use crate::recovery::{BreakerState, CircuitBreaker, Transition};

/// Health states of one listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineState {
    /// Invoked normally; consecutive failures are counted.
    Healthy,
    /// Skipped by dispatch until the virtual clock reaches `until`.
    Quarantined { until: u64 },
    /// The cool-down expired: the next invocation is the probe. Success
    /// heals, failure re-quarantines without needing a fresh streak.
    Probation,
}

impl QuarantineState {
    /// Stable lowercase label for introspection (`browser:listenerStatus()`).
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineState::Healthy => "healthy",
            QuarantineState::Quarantined { .. } => "quarantined",
            QuarantineState::Probation => "probation",
        }
    }
}

/// The guard tracking one listener's failure streak.
#[derive(Debug, Clone)]
pub struct ListenerGuard {
    breaker: CircuitBreaker,
    /// Lifetime totals, for introspection.
    pub failures: u64,
    pub invocations: u64,
}

impl ListenerGuard {
    /// The listener's health: its breaker's state.
    pub fn state(&self) -> QuarantineState {
        match self.breaker.state {
            BreakerState::Closed => QuarantineState::Healthy,
            BreakerState::Open { until } => QuarantineState::Quarantined { until },
            BreakerState::HalfOpen => QuarantineState::Probation,
        }
    }

    pub fn consecutive_failures(&self) -> u32 {
        self.breaker.consecutive_failures()
    }
}

xqib_storage::counters! {
    /// Counters over all listeners, served to XQuery by
    /// `browser:listenerStatus()`.
    pub struct QuarantineStats {
        /// Listener invocations that returned a dynamic error.
        listener_errors: "listener-errors",
        /// Listener invocations that panicked (caught at the dispatch boundary).
        listener_panics: "listener-panics",
        /// Listeners that ran out of evaluation fuel (`XQIB0011`); these also
        /// count as `listener_errors`.
        fuel_exhausted: "fuel-exhausted",
        /// Transitions into quarantine.
        trips: "trips",
        /// Probation probes admitted after a cool-down.
        probes: "probes",
        /// Listeners restored to healthy after probation.
        recoveries: "recoveries",
        /// Invocations skipped because the listener was quarantined.
        skipped: "skipped",
    }
}

impl QuarantineStats {
    /// Counts a guard's transition, if it made one.
    fn count(&mut self, transition: Option<Transition>) {
        match transition {
            Some(Transition::Opened) => self.trips += 1,
            Some(Transition::HalfOpened) => self.probes += 1,
            Some(Transition::Closed) => self.recoveries += 1,
            None => {}
        }
    }
}

/// Isolation knobs (what the plug-in config carries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationConfig {
    /// Consecutive failures that quarantine a listener.
    pub failure_threshold: u32,
    /// Virtual-time cool-down before a probation probe.
    pub quarantine_ms: u64,
    /// Per-invocation evaluation fuel budget for listeners (`None` = no
    /// preemption).
    pub listener_fuel: Option<u64>,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig {
            failure_threshold: 3,
            quarantine_ms: 5_000,
            listener_fuel: None,
        }
    }
}

/// All listener guards owned by one host environment.
#[derive(Debug, Default)]
pub struct ListenerQuarantine {
    guards: HashMap<ListenerId, ListenerGuard>,
    failure_threshold: u32,
    quarantine_ms: u64,
    pub stats: QuarantineStats,
}

impl ListenerQuarantine {
    pub fn new(config: &IsolationConfig) -> Self {
        ListenerQuarantine {
            guards: HashMap::new(),
            failure_threshold: config.failure_threshold,
            quarantine_ms: config.quarantine_ms,
            stats: QuarantineStats::default(),
        }
    }

    /// Listener `id`'s guard, created healthy on first use, and the stats
    /// its transitions count in.
    fn guard(&mut self, id: ListenerId) -> (&mut ListenerGuard, &mut QuarantineStats) {
        let (threshold, window) = (self.failure_threshold, self.quarantine_ms);
        let guard = self.guards.entry(id).or_insert_with(|| ListenerGuard {
            breaker: CircuitBreaker::new(threshold, window),
            failures: 0,
            invocations: 0,
        });
        (guard, &mut self.stats)
    }

    /// Whether listener `id` may be invoked at `now`. An expired
    /// quarantine window moves to probation and admits the probe
    /// invocation. Skips are counted.
    pub fn allow(&mut self, id: ListenerId, now: u64) -> bool {
        let (guard, stats) = self.guard(id);
        let (allowed, transition) = guard.breaker.allow(now);
        stats.count(transition);
        if allowed {
            guard.invocations += 1;
        } else {
            stats.skipped += 1;
        }
        allowed
    }

    /// Records a normal return.
    pub fn on_success(&mut self, id: ListenerId) {
        let (guard, stats) = self.guard(id);
        stats.count(guard.breaker.on_success());
    }

    /// Records a failed invocation (error or panic) at `now`.
    pub fn on_failure(&mut self, id: ListenerId, now: u64) {
        let (guard, stats) = self.guard(id);
        guard.failures += 1;
        stats.count(guard.breaker.on_failure(now));
    }

    /// The state of one listener (healthy if never seen).
    pub fn state(&self, id: ListenerId) -> QuarantineState {
        self.guards
            .get(&id)
            .map_or(QuarantineState::Healthy, ListenerGuard::state)
    }

    /// Every tracked listener with its guard, sorted by listener id (for
    /// deterministic introspection output).
    pub fn guards(&self) -> Vec<(ListenerId, &ListenerGuard)> {
        let mut v: Vec<(ListenerId, &ListenerGuard)> =
            self.guards.iter().map(|(&id, g)| (id, g)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(threshold: u32, window: u64) -> ListenerQuarantine {
        ListenerQuarantine::new(&IsolationConfig {
            failure_threshold: threshold,
            quarantine_ms: window,
            listener_fuel: None,
        })
    }

    #[test]
    fn trips_exactly_at_threshold() {
        let mut quar = q(3, 1000);
        let id = ListenerId(1);
        quar.on_failure(id, 0);
        quar.on_failure(id, 10);
        assert_eq!(quar.state(id), QuarantineState::Healthy, "below threshold");
        assert_eq!(quar.stats.trips, 0);
        quar.on_failure(id, 20);
        assert_eq!(quar.state(id), QuarantineState::Quarantined { until: 1020 });
        assert_eq!(quar.stats.trips, 1);
    }

    #[test]
    fn quarantined_listener_is_skipped_then_probed() {
        let mut quar = q(1, 500);
        let id = ListenerId(2);
        assert!(quar.allow(id, 0));
        quar.on_failure(id, 0);
        assert!(!quar.allow(id, 100), "inside the window: skipped");
        assert_eq!(quar.stats.skipped, 1);
        assert!(quar.allow(id, 500), "window over: probe admitted");
        assert_eq!(quar.state(id), QuarantineState::Probation);
        assert_eq!(quar.stats.probes, 1);
        // failed probe: re-quarantined immediately, no fresh streak needed
        quar.on_failure(id, 510);
        assert_eq!(quar.state(id), QuarantineState::Quarantined { until: 1010 });
        assert_eq!(quar.stats.trips, 2);
        // successful probe after the second window heals fully
        assert!(quar.allow(id, 1010));
        quar.on_success(id);
        assert_eq!(quar.state(id), QuarantineState::Healthy);
        assert_eq!(quar.stats.recoveries, 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut quar = q(2, 100);
        let id = ListenerId(3);
        quar.on_failure(id, 0);
        quar.on_success(id);
        quar.on_failure(id, 1);
        assert_eq!(quar.state(id), QuarantineState::Healthy, "streak was reset");
        quar.on_failure(id, 2);
        assert!(matches!(
            quar.state(id),
            QuarantineState::Quarantined { .. }
        ));
    }

    #[test]
    fn guards_are_per_listener() {
        let mut quar = q(1, 100);
        quar.on_failure(ListenerId(1), 0);
        assert!(!quar.allow(ListenerId(1), 10));
        assert!(quar.allow(ListenerId(2), 10), "other listeners unaffected");
        let ids: Vec<u64> = quar.guards().iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2], "sorted introspection order");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(QuarantineState::Healthy.label(), "healthy");
        assert_eq!(
            QuarantineState::Quarantined { until: 9 }.label(),
            "quarantined"
        );
        assert_eq!(QuarantineState::Probation.label(), "probation");
    }
}
