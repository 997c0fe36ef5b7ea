//! Server-side metrics for the Figure 2 experiment: how much work and
//! traffic each deployment (server-rendered vs migrated) costs the server.

use xqib_browser::{QuarantineStats, RecoveryStats};
use xqib_dom::order::stats::EngineStats;
use xqib_storage::DurabilityStats;

use crate::governor::OverloadStats;
use xqib_xquery::plancache::PlanCacheStats;

/// Counters accumulated by the application server.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServerMetrics {
    /// HTTP requests handled.
    pub requests: u64,
    /// Bytes shipped to clients.
    pub bytes_out: u64,
    /// Server-side XQuery evaluations (the CPU-cost proxy the paper's
    /// off-loading argument is about).
    pub xquery_evals: u64,
    /// Document-order index rebuilds triggered by this server's evaluations
    /// (each is one O(n) traversal; see `xqib_dom::order`).
    pub order_index_rebuilds: u64,
    /// Path-step normalisations that actually sorted.
    pub sorts_performed: u64,
    /// Path-step normalisations the evaluator proved unnecessary.
    pub sorts_elided: u64,
    /// Web-service calls that ended in an error response.
    pub failed_calls: u64,
    /// Client fetch attempts (first tries + retries) observed via
    /// [`record_recovery`](Self::record_recovery).
    pub fetch_attempts: u64,
    /// Retry tasks the clients scheduled.
    pub fetch_retries: u64,
    /// Client-side request deadlines hit.
    pub fetch_timeouts: u64,
    pub breaker_opens: u64,
    pub breaker_half_opens: u64,
    pub breaker_closes: u64,
    /// Degraded fetches answered from the stale cache.
    pub stale_served: u64,
    /// Listener invocations that raised a dynamic error (contained).
    pub listener_errors: u64,
    /// Listener invocations that panicked (caught at dispatch).
    pub listener_panics: u64,
    /// Listener invocations preempted for exhausting their fuel budget.
    pub fuel_exhausted: u64,
    /// Listeners quarantined after repeated failures.
    pub quarantine_trips: u64,
    /// Dispatches skipped because the listener was quarantined.
    pub quarantine_skips: u64,
    /// Redo records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Successful WAL/checkpoint fsyncs (group commits).
    pub wal_fsyncs: u64,
    /// Checkpoints written (each truncates the WAL).
    pub checkpoints: u64,
    /// Recoveries performed over the disk image.
    pub recoveries: u64,
    /// Recoveries that dropped a torn/corrupt WAL tail.
    pub torn_tails_dropped: u64,
    /// Recoveries that found every written checkpoint slot corrupt and
    /// had to rebuild from the WAL alone (typed, not a panic).
    pub ckpt_slots_lost: u64,
    /// Mid-prefix WAL damage seen during recovery — never a legal crash
    /// shape, so it indicates latent media rot.
    pub wal_corruptions: u64,
    /// Recovered documents whose content digest disagreed with the digest
    /// recorded in the WAL.
    pub recovery_digest_mismatches: u64,
    /// Requests the governor admitted into the bounded queue.
    pub admitted: u64,
    /// Requests shed with 503 + `Retry-After` (queue overflow or CoDel
    /// queue-delay shedding).
    pub shed: u64,
    /// Render-class requests degraded to a whole-document cached snapshot
    /// (`X-XQIB-Degraded`).
    pub degraded: u64,
    /// Requests whose deadline expired (`XQIB0014`), in queue or in the
    /// evaluator.
    pub deadline_exceeded: u64,
    /// Median admission-queue delay, virtual milliseconds.
    pub queue_delay_p50_ms: u64,
    /// 99th-percentile admission-queue delay, virtual milliseconds.
    pub queue_delay_p99_ms: u64,
    /// Query evaluations answered by a cached compiled plan (no re-parse).
    pub plan_cache_hits: u64,
    /// Query evaluations that compiled and lowered a fresh plan.
    pub plan_cache_misses: u64,
    /// Cached plans evicted to respect the capacity bound.
    pub plan_cache_evictions: u64,
    /// Whole-cache invalidations (epoch bumps).
    pub plan_cache_invalidations: u64,
    /// WAL frames shipped to followers (every attempt, including resends).
    pub repl_frames_shipped: u64,
    /// Frame sequence numbers durably acknowledged by followers.
    pub repl_frames_acked: u64,
    /// Frames re-shipped after a lost or failed attempt.
    pub repl_frames_retried: u64,
    /// Full snapshots shipped (log-gap resync or new-term reset).
    pub repl_snapshots_shipped: u64,
    /// Failover probes sent to followers.
    pub repl_probes: u64,
    /// Leader promotions performed.
    pub repl_failovers: u64,
    /// Render reads served by a follower instead of the leader.
    pub repl_follower_reads: u64,
    /// Shipments or requests refused for documents the shard doesn't own.
    pub repl_ownership_rejections: u64,
    /// Total virtual milliseconds some shard spent leaderless.
    pub repl_blackout_ms: u64,
    /// High-water replica lag (leader committed − follower acked frames).
    pub repl_max_replica_lag: u64,
    /// Simulated browsers in the last fleet run reported to this server.
    pub fleet_clients: u64,
    /// Interactions the fleet performed (clicks, searches, cart ops).
    pub fleet_interactions: u64,
    /// Asynchronous `behind` fetches the fleet's pages issued.
    pub fleet_behind_calls: u64,
    /// Fleet-wide fetch attempts (first tries + retries).
    pub fleet_attempts: u64,
    /// Retry tasks the fleet's clients scheduled.
    pub fleet_retries: u64,
    /// Client-side request deadlines hit across the fleet.
    pub fleet_timeouts: u64,
    /// Fetches that exhausted retries and surfaced an error.
    pub fleet_fetch_errors: u64,
    /// Circuit breakers opened across the fleet.
    pub fleet_breaker_opens: u64,
    /// Fetches rejected without touching the wire (breaker open).
    pub fleet_breaker_fast_fails: u64,
    /// Degraded fetches answered from a client's stale cache.
    pub fleet_stale_served: u64,
    /// `stale` events delivered to page listeners.
    pub fleet_stale_events: u64,
    /// `error` events delivered to page listeners.
    pub fleet_error_events: u64,
    /// readyState-4 completions (fresh responses) observed by pages.
    pub fleet_completions: u64,
    /// Stale-cache entries LRU-evicted across the fleet.
    pub fleet_evictions: u64,
    /// Listeners quarantined across the fleet.
    pub fleet_quarantine_trips: u64,
    /// Turns where a 503's `Retry-After` gated the next interaction.
    pub fleet_retry_after_honored: u64,
    /// Turns that saw `X-XQIB-Degraded`/high replica lag and backed off.
    pub fleet_degraded_observed: u64,
    /// Requests that actually reached the wire towards the cluster.
    pub fleet_origin_requests: u64,
    /// `(behind_calls − origin_requests) * 1000 / behind_calls`: the §6.1
    /// offload claim as a number.
    pub fleet_cache_hit_permille: u64,
    /// Anti-entropy scrub cycles run across the cluster.
    pub scrub_cycles: u64,
    /// Per-document digest comparisons performed by the scrubber.
    pub scrub_docs_checked: u64,
    /// Replica documents whose digest disagreed with the leader's record.
    pub scrub_digest_mismatches: u64,
    /// Mid-prefix WAL damage the scrubber found on live nodes' disks.
    pub scrub_wal_corruptions: u64,
    /// Corrupt checkpoint slots the scrubber found.
    pub scrub_ckpt_corruptions: u64,
    /// Scrub passes that found every written checkpoint slot corrupt.
    pub scrub_ckpt_lost: u64,
    /// Followers pulled from the read pool over damage or divergence.
    pub integrity_quarantines: u64,
    /// Repairs begun (node-local re-checkpoint or snapshot resync).
    pub integrity_repairs_started: u64,
    /// Quarantined followers readmitted after digests matched again.
    pub integrity_repairs_verified: u64,
    /// Leaders demoted for sitting on a damaged WAL.
    pub integrity_leader_demotions: u64,
    /// Failover winners healed from intact memory before promotion.
    pub integrity_promote_heals: u64,
    /// Follower `/doc` bodies digest-verified before being served.
    pub integrity_reads_verified: u64,
    /// Follower `/doc` bodies refused over a digest mismatch.
    pub integrity_reads_refused: u64,
    /// Decay periods swept across every seat disk.
    pub decay_sweeps: u64,
    /// At-rest synced sectors hit by latent bit rot.
    pub decay_sectors: u64,
    /// Leader `/doc` bodies digest-verified before being served.
    pub doc_reads_verified: u64,
    /// Leader `/doc` bodies refused with `XQIB0019` (digest mismatch).
    pub doc_reads_refused: u64,
    /// Ring installs (add, decommission, rebalance) — topology epoch bumps.
    pub reshard_epoch_bumps: u64,
    /// Per-document migrations that entered the copy phase.
    pub reshard_migrations_started: u64,
    /// Migrations that reached cutover.
    pub reshard_migrations_completed: u64,
    /// Copy phases abandoned (destination rot or mid-flight retarget).
    pub reshard_migrations_aborted: u64,
    /// Documents whose home moved to a new shard.
    pub reshard_docs_moved: u64,
    /// WAL records forwarded as a migration's copy-window tail.
    pub reshard_tail_frames_forwarded: u64,
    /// Cutover fences stamped (source starts refusing with 421 + epoch).
    pub reshard_cutover_fences: u64,
    /// Decommissioned shards fully drained and retired.
    pub reshard_drains: u64,
}

impl ServerMetrics {
    pub fn reset(&mut self) {
        *self = ServerMetrics::default();
    }

    /// Folds in the engine counters accumulated since `baseline`. The
    /// engine counters are per-thread and monotone, so the server keeps
    /// the snapshot taken at construction as its baseline.
    pub fn record_engine_stats(&mut self, baseline: EngineStats, now: EngineStats) {
        self.order_index_rebuilds = now
            .order_index_rebuilds
            .saturating_sub(baseline.order_index_rebuilds);
        self.sorts_performed = now.sorts_performed.saturating_sub(baseline.sorts_performed);
        self.sorts_elided = now.sorts_elided.saturating_sub(baseline.sorts_elided);
    }

    /// Mirrors a client's recovery counters into the server's metrics (the
    /// Figure 2 experiment reads one struct for the whole deployment). The
    /// recovery counters are cumulative snapshots, so this overwrites.
    pub fn record_recovery(&mut self, stats: &RecoveryStats) {
        self.fetch_attempts = stats.attempts;
        self.fetch_retries = stats.retries;
        self.fetch_timeouts = stats.timeouts;
        self.breaker_opens = stats.breaker_opens;
        self.breaker_half_opens = stats.breaker_half_opens;
        self.breaker_closes = stats.breaker_closes;
        self.stale_served = stats.stale_served;
    }

    /// Mirrors a client's listener-isolation counters (cumulative snapshots,
    /// like [`record_recovery`](Self::record_recovery) — overwrites).
    pub fn record_isolation(&mut self, stats: &QuarantineStats) {
        self.listener_errors = stats.listener_errors;
        self.listener_panics = stats.listener_panics;
        self.fuel_exhausted = stats.fuel_exhausted;
        self.quarantine_trips = stats.trips;
        self.quarantine_skips = stats.skipped;
    }

    /// Mirrors the database's durability counters (cumulative snapshots —
    /// overwrites, same convention as the recovery/isolation mirrors).
    pub fn record_durability(&mut self, stats: &DurabilityStats) {
        self.wal_appends = stats.wal_appends;
        self.wal_fsyncs = stats.fsyncs;
        self.checkpoints = stats.checkpoints;
        self.recoveries = stats.recoveries;
        self.torn_tails_dropped = stats.torn_tails_dropped;
        self.ckpt_slots_lost = stats.ckpt_slots_lost;
        self.wal_corruptions = stats.wal_corruptions;
        self.recovery_digest_mismatches = stats.recovery_digest_mismatches;
    }

    /// Mirrors the cluster's end-to-end integrity counters (cumulative
    /// snapshots — overwrites, same convention as the other mirrors).
    pub fn record_integrity(&mut self, stats: &crate::cluster::IntegrityStats) {
        self.scrub_cycles = stats.scrub_cycles;
        self.scrub_docs_checked = stats.scrub_docs_checked;
        self.scrub_digest_mismatches = stats.scrub_digest_mismatches;
        self.scrub_wal_corruptions = stats.scrub_wal_corruptions;
        self.scrub_ckpt_corruptions = stats.scrub_ckpt_corruptions;
        self.scrub_ckpt_lost = stats.scrub_ckpt_lost;
        self.integrity_quarantines = stats.quarantines;
        self.integrity_repairs_started = stats.repairs_started;
        self.integrity_repairs_verified = stats.repairs_verified;
        self.integrity_leader_demotions = stats.leader_demotions;
        self.integrity_promote_heals = stats.promote_heals;
        self.integrity_reads_verified = stats.reads_verified;
        self.integrity_reads_refused = stats.reads_refused;
        self.decay_sweeps = stats.decay_sweeps;
        self.decay_sectors = stats.sectors_decayed;
    }

    /// Mirrors the database's plan-cache counters (cumulative snapshots —
    /// overwrites, same convention as the other mirrors).
    pub fn record_plan_cache(&mut self, stats: &PlanCacheStats) {
        self.plan_cache_hits = stats.hits;
        self.plan_cache_misses = stats.misses;
        self.plan_cache_evictions = stats.evictions;
        self.plan_cache_invalidations = stats.invalidations;
    }

    /// Mirrors the request governor's overload counters (cumulative
    /// snapshots — overwrites, same convention as the other mirrors).
    pub fn record_overload(&mut self, stats: &OverloadStats) {
        self.admitted = stats.admitted;
        self.shed = stats.shed();
        self.degraded = stats.degraded;
        self.deadline_exceeded = stats.deadline_exceeded;
        self.queue_delay_p50_ms = stats.queue_delay_percentile(50);
        self.queue_delay_p99_ms = stats.queue_delay_percentile(99);
    }

    /// Mirrors the cluster's replication counters (cumulative snapshots —
    /// overwrites, same convention as the other mirrors).
    pub fn record_replication(&mut self, stats: &crate::cluster::ReplicationStats) {
        self.repl_frames_shipped = stats.frames_shipped;
        self.repl_frames_acked = stats.frames_acked;
        self.repl_frames_retried = stats.frames_retried;
        self.repl_snapshots_shipped = stats.snapshots_shipped;
        self.repl_probes = stats.probes;
        self.repl_failovers = stats.failovers;
        self.repl_follower_reads = stats.follower_reads;
        self.repl_ownership_rejections = stats.ownership_rejections;
        self.repl_blackout_ms = stats.blackout_ms;
        self.repl_max_replica_lag = stats.max_replica_lag;
    }

    /// Mirrors the cluster's resharding counters (cumulative snapshots —
    /// overwrites, same convention as the other mirrors).
    pub fn record_resharding(&mut self, stats: &crate::cluster::ReshardStats) {
        self.reshard_epoch_bumps = stats.epoch_bumps;
        self.reshard_migrations_started = stats.migrations_started;
        self.reshard_migrations_completed = stats.migrations_completed;
        self.reshard_migrations_aborted = stats.migrations_aborted;
        self.reshard_docs_moved = stats.docs_moved;
        self.reshard_tail_frames_forwarded = stats.tail_frames_forwarded;
        self.reshard_cutover_fences = stats.cutover_fences;
        self.reshard_drains = stats.drains;
    }

    /// Mirrors a fleet run's aggregate counters (cumulative snapshots —
    /// overwrites, same convention as the other mirrors).
    pub fn record_fleet(&mut self, stats: &crate::fleet::FleetStats) {
        self.fleet_clients = stats.clients;
        self.fleet_interactions = stats.interactions;
        self.fleet_behind_calls = stats.behind_calls;
        self.fleet_attempts = stats.attempts;
        self.fleet_retries = stats.retries;
        self.fleet_timeouts = stats.timeouts;
        self.fleet_fetch_errors = stats.fetch_errors;
        self.fleet_breaker_opens = stats.breaker_opens;
        self.fleet_breaker_fast_fails = stats.breaker_fast_fails;
        self.fleet_stale_served = stats.stale_served;
        self.fleet_stale_events = stats.stale_events;
        self.fleet_error_events = stats.error_events;
        self.fleet_completions = stats.completions;
        self.fleet_evictions = stats.evictions;
        self.fleet_quarantine_trips = stats.quarantine_trips;
        self.fleet_retry_after_honored = stats.retry_after_honored;
        self.fleet_degraded_observed = stats.degraded_observed;
        self.fleet_origin_requests = stats.origin_requests;
        self.fleet_cache_hit_permille = stats.cache_hit_permille;
    }

    /// Serialises every counter as XML (the `/metrics` route). The
    /// exhaustive destructuring means a newly added counter fails to
    /// compile until it is serialized here too.
    pub fn to_xml(&self) -> String {
        let ServerMetrics {
            requests,
            bytes_out,
            xquery_evals,
            order_index_rebuilds,
            sorts_performed,
            sorts_elided,
            failed_calls,
            fetch_attempts,
            fetch_retries,
            fetch_timeouts,
            breaker_opens,
            breaker_half_opens,
            breaker_closes,
            stale_served,
            listener_errors,
            listener_panics,
            fuel_exhausted,
            quarantine_trips,
            quarantine_skips,
            wal_appends,
            wal_fsyncs,
            checkpoints,
            recoveries,
            torn_tails_dropped,
            ckpt_slots_lost,
            wal_corruptions,
            recovery_digest_mismatches,
            admitted,
            shed,
            degraded,
            deadline_exceeded,
            queue_delay_p50_ms,
            queue_delay_p99_ms,
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions,
            plan_cache_invalidations,
            repl_frames_shipped,
            repl_frames_acked,
            repl_frames_retried,
            repl_snapshots_shipped,
            repl_probes,
            repl_failovers,
            repl_follower_reads,
            repl_ownership_rejections,
            repl_blackout_ms,
            repl_max_replica_lag,
            fleet_clients,
            fleet_interactions,
            fleet_behind_calls,
            fleet_attempts,
            fleet_retries,
            fleet_timeouts,
            fleet_fetch_errors,
            fleet_breaker_opens,
            fleet_breaker_fast_fails,
            fleet_stale_served,
            fleet_stale_events,
            fleet_error_events,
            fleet_completions,
            fleet_evictions,
            fleet_quarantine_trips,
            fleet_retry_after_honored,
            fleet_degraded_observed,
            fleet_origin_requests,
            fleet_cache_hit_permille,
            scrub_cycles,
            scrub_docs_checked,
            scrub_digest_mismatches,
            scrub_wal_corruptions,
            scrub_ckpt_corruptions,
            scrub_ckpt_lost,
            integrity_quarantines,
            integrity_repairs_started,
            integrity_repairs_verified,
            integrity_leader_demotions,
            integrity_promote_heals,
            integrity_reads_verified,
            integrity_reads_refused,
            decay_sweeps,
            decay_sectors,
            doc_reads_verified,
            doc_reads_refused,
            reshard_epoch_bumps,
            reshard_migrations_started,
            reshard_migrations_completed,
            reshard_migrations_aborted,
            reshard_docs_moved,
            reshard_tail_frames_forwarded,
            reshard_cutover_fences,
            reshard_drains,
        } = self;
        let fields: &[(&str, u64)] = &[
            ("requests", *requests),
            ("bytes-out", *bytes_out),
            ("xquery-evals", *xquery_evals),
            ("order-index-rebuilds", *order_index_rebuilds),
            ("sorts-performed", *sorts_performed),
            ("sorts-elided", *sorts_elided),
            ("failed-calls", *failed_calls),
            ("fetch-attempts", *fetch_attempts),
            ("fetch-retries", *fetch_retries),
            ("fetch-timeouts", *fetch_timeouts),
            ("breaker-opens", *breaker_opens),
            ("breaker-half-opens", *breaker_half_opens),
            ("breaker-closes", *breaker_closes),
            ("stale-served", *stale_served),
            ("listener-errors", *listener_errors),
            ("listener-panics", *listener_panics),
            ("fuel-exhausted", *fuel_exhausted),
            ("quarantine-trips", *quarantine_trips),
            ("quarantine-skips", *quarantine_skips),
            ("wal-appends", *wal_appends),
            ("wal-fsyncs", *wal_fsyncs),
            ("checkpoints", *checkpoints),
            ("recoveries", *recoveries),
            ("torn-tails-dropped", *torn_tails_dropped),
            ("ckpt-slots-lost", *ckpt_slots_lost),
            ("wal-corruptions", *wal_corruptions),
            ("recovery-digest-mismatches", *recovery_digest_mismatches),
            ("admitted", *admitted),
            ("shed", *shed),
            ("degraded", *degraded),
            ("deadline-exceeded", *deadline_exceeded),
            ("queue-delay-p50-ms", *queue_delay_p50_ms),
            ("queue-delay-p99-ms", *queue_delay_p99_ms),
            ("plan-cache-hits", *plan_cache_hits),
            ("plan-cache-misses", *plan_cache_misses),
            ("plan-cache-evictions", *plan_cache_evictions),
            ("plan-cache-invalidations", *plan_cache_invalidations),
            ("repl-frames-shipped", *repl_frames_shipped),
            ("repl-frames-acked", *repl_frames_acked),
            ("repl-frames-retried", *repl_frames_retried),
            ("repl-snapshots-shipped", *repl_snapshots_shipped),
            ("repl-probes", *repl_probes),
            ("repl-failovers", *repl_failovers),
            ("repl-follower-reads", *repl_follower_reads),
            ("repl-ownership-rejections", *repl_ownership_rejections),
            ("repl-blackout-ms", *repl_blackout_ms),
            ("repl-max-replica-lag", *repl_max_replica_lag),
            ("fleet-clients", *fleet_clients),
            ("fleet-interactions", *fleet_interactions),
            ("fleet-behind-calls", *fleet_behind_calls),
            ("fleet-attempts", *fleet_attempts),
            ("fleet-retries", *fleet_retries),
            ("fleet-timeouts", *fleet_timeouts),
            ("fleet-fetch-errors", *fleet_fetch_errors),
            ("fleet-breaker-opens", *fleet_breaker_opens),
            ("fleet-breaker-fast-fails", *fleet_breaker_fast_fails),
            ("fleet-stale-served", *fleet_stale_served),
            ("fleet-stale-events", *fleet_stale_events),
            ("fleet-error-events", *fleet_error_events),
            ("fleet-completions", *fleet_completions),
            ("fleet-evictions", *fleet_evictions),
            ("fleet-quarantine-trips", *fleet_quarantine_trips),
            ("fleet-retry-after-honored", *fleet_retry_after_honored),
            ("fleet-degraded-observed", *fleet_degraded_observed),
            ("fleet-origin-requests", *fleet_origin_requests),
            ("fleet-cache-hit-permille", *fleet_cache_hit_permille),
            ("scrub-cycles", *scrub_cycles),
            ("scrub-docs-checked", *scrub_docs_checked),
            ("scrub-digest-mismatches", *scrub_digest_mismatches),
            ("scrub-wal-corruptions", *scrub_wal_corruptions),
            ("scrub-ckpt-corruptions", *scrub_ckpt_corruptions),
            ("scrub-ckpt-lost", *scrub_ckpt_lost),
            ("integrity-quarantines", *integrity_quarantines),
            ("integrity-repairs-started", *integrity_repairs_started),
            ("integrity-repairs-verified", *integrity_repairs_verified),
            ("integrity-leader-demotions", *integrity_leader_demotions),
            ("integrity-promote-heals", *integrity_promote_heals),
            ("integrity-reads-verified", *integrity_reads_verified),
            ("integrity-reads-refused", *integrity_reads_refused),
            ("decay-sweeps", *decay_sweeps),
            ("decay-sectors", *decay_sectors),
            ("doc-reads-verified", *doc_reads_verified),
            ("doc-reads-refused", *doc_reads_refused),
            ("reshard-epoch-bumps", *reshard_epoch_bumps),
            ("reshard-migrations-started", *reshard_migrations_started),
            (
                "reshard-migrations-completed",
                *reshard_migrations_completed,
            ),
            ("reshard-migrations-aborted", *reshard_migrations_aborted),
            ("reshard-docs-moved", *reshard_docs_moved),
            (
                "reshard-tail-frames-forwarded",
                *reshard_tail_frames_forwarded,
            ),
            ("reshard-cutover-fences", *reshard_cutover_fences),
            ("reshard-drains", *reshard_drains),
        ];
        let mut out = String::from("<metrics>");
        for (name, value) in fields {
            out.push_str(&format!("<{name}>{value}</{name}>"));
        }
        out.push_str("</metrics>");
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Every counter, set to a distinct non-default value, via an
    /// **exhaustive** struct literal: adding a `ServerMetrics` field
    /// without extending this constructor is a compile error, so a new
    /// counter can never silently survive [`ServerMetrics::reset`].
    fn all_counters_nonzero() -> ServerMetrics {
        ServerMetrics {
            requests: 1,
            bytes_out: 2,
            xquery_evals: 3,
            order_index_rebuilds: 4,
            sorts_performed: 5,
            sorts_elided: 6,
            failed_calls: 7,
            fetch_attempts: 8,
            fetch_retries: 9,
            fetch_timeouts: 10,
            breaker_opens: 11,
            breaker_half_opens: 12,
            breaker_closes: 13,
            stale_served: 14,
            listener_errors: 15,
            listener_panics: 16,
            fuel_exhausted: 17,
            quarantine_trips: 18,
            quarantine_skips: 19,
            wal_appends: 20,
            wal_fsyncs: 21,
            checkpoints: 22,
            recoveries: 23,
            torn_tails_dropped: 24,
            ckpt_slots_lost: 64,
            wal_corruptions: 65,
            recovery_digest_mismatches: 66,
            admitted: 25,
            shed: 26,
            degraded: 27,
            deadline_exceeded: 28,
            queue_delay_p50_ms: 29,
            queue_delay_p99_ms: 30,
            plan_cache_hits: 31,
            plan_cache_misses: 32,
            plan_cache_evictions: 33,
            plan_cache_invalidations: 34,
            repl_frames_shipped: 35,
            repl_frames_acked: 36,
            repl_frames_retried: 37,
            repl_snapshots_shipped: 38,
            repl_probes: 39,
            repl_failovers: 40,
            repl_follower_reads: 41,
            repl_ownership_rejections: 42,
            repl_blackout_ms: 43,
            repl_max_replica_lag: 44,
            fleet_clients: 45,
            fleet_interactions: 46,
            fleet_behind_calls: 47,
            fleet_attempts: 48,
            fleet_retries: 49,
            fleet_timeouts: 50,
            fleet_fetch_errors: 51,
            fleet_breaker_opens: 52,
            fleet_breaker_fast_fails: 53,
            fleet_stale_served: 54,
            fleet_stale_events: 55,
            fleet_error_events: 56,
            fleet_completions: 57,
            fleet_evictions: 58,
            fleet_quarantine_trips: 59,
            fleet_retry_after_honored: 60,
            fleet_degraded_observed: 61,
            fleet_origin_requests: 62,
            fleet_cache_hit_permille: 63,
            scrub_cycles: 67,
            scrub_docs_checked: 68,
            scrub_digest_mismatches: 69,
            scrub_wal_corruptions: 70,
            scrub_ckpt_corruptions: 71,
            scrub_ckpt_lost: 72,
            integrity_quarantines: 73,
            integrity_repairs_started: 74,
            integrity_repairs_verified: 75,
            integrity_leader_demotions: 76,
            integrity_promote_heals: 77,
            integrity_reads_verified: 78,
            integrity_reads_refused: 79,
            decay_sweeps: 80,
            decay_sectors: 81,
            doc_reads_verified: 82,
            doc_reads_refused: 83,
            reshard_epoch_bumps: 84,
            reshard_migrations_started: 85,
            reshard_migrations_completed: 86,
            reshard_migrations_aborted: 87,
            reshard_docs_moved: 88,
            reshard_tail_frames_forwarded: 89,
            reshard_cutover_fences: 90,
            reshard_drains: 91,
        }
    }

    #[test]
    fn reset_clears_every_counter() {
        let mut m = all_counters_nonzero();
        m.reset();
        assert_eq!(m, ServerMetrics::default());
    }

    #[test]
    fn to_xml_serializes_every_counter() {
        let xml = all_counters_nonzero().to_xml();
        assert!(xml.starts_with("<metrics>") && xml.ends_with("</metrics>"));
        // each field was set to a distinct value, so each must appear
        assert!(xml.contains("<requests>1</requests>"), "{xml}");
        assert!(xml.contains("<queue-delay-p99-ms>30</queue-delay-p99-ms>"));
        // 91 counters → 91 distinct element names
        assert_eq!(xml.matches("</").count(), 91 + 1, "{xml}");
        assert!(xml.contains("<plan-cache-hits>31</plan-cache-hits>"));
        assert!(xml.contains("<repl-frames-shipped>35</repl-frames-shipped>"));
        assert!(xml.contains("<repl-max-replica-lag>44</repl-max-replica-lag>"));
        assert!(xml.contains("<fleet-clients>45</fleet-clients>"));
        assert!(xml.contains("<fleet-cache-hit-permille>63</fleet-cache-hit-permille>"));
        assert!(xml.contains("<ckpt-slots-lost>64</ckpt-slots-lost>"));
        assert!(xml.contains("<scrub-cycles>67</scrub-cycles>"));
        assert!(xml.contains("<integrity-quarantines>73</integrity-quarantines>"));
        assert!(xml.contains("<decay-sectors>81</decay-sectors>"));
        assert!(xml.contains("<doc-reads-refused>83</doc-reads-refused>"));
        assert!(xml.contains("<reshard-epoch-bumps>84</reshard-epoch-bumps>"));
        assert!(xml.contains("<reshard-drains>91</reshard-drains>"));
    }

    #[test]
    fn fleet_counters_mirror_the_fleet_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = crate::fleet::FleetStats {
            clients: 12,
            interactions: 60,
            behind_calls: 70,
            attempts: 90,
            retries: 20,
            timeouts: 4,
            fetch_errors: 6,
            breaker_opens: 3,
            breaker_fast_fails: 5,
            stale_served: 11,
            stale_events: 11,
            error_events: 2,
            completions: 57,
            evictions: 1,
            quarantine_trips: 0,
            retry_after_honored: 3,
            degraded_observed: 2,
            origin_requests: 36,
            cache_hit_permille: 485,
        };
        m.record_fleet(&stats);
        assert_eq!(m.fleet_clients, 12);
        assert_eq!(m.fleet_interactions, 60);
        assert_eq!(m.fleet_behind_calls, 70);
        assert_eq!(m.fleet_attempts, 90);
        assert_eq!(m.fleet_retries, 20);
        assert_eq!(m.fleet_timeouts, 4);
        assert_eq!(m.fleet_fetch_errors, 6);
        assert_eq!(m.fleet_breaker_opens, 3);
        assert_eq!(m.fleet_breaker_fast_fails, 5);
        assert_eq!(m.fleet_stale_served, 11);
        assert_eq!(m.fleet_stale_events, 11);
        assert_eq!(m.fleet_error_events, 2);
        assert_eq!(m.fleet_completions, 57);
        assert_eq!(m.fleet_evictions, 1);
        assert_eq!(m.fleet_quarantine_trips, 0);
        assert_eq!(m.fleet_retry_after_honored, 3);
        assert_eq!(m.fleet_degraded_observed, 2);
        assert_eq!(m.fleet_origin_requests, 36);
        assert_eq!(m.fleet_cache_hit_permille, 485);
        m.record_fleet(&crate::fleet::FleetStats::default());
        assert_eq!(m.fleet_clients, 0, "cumulative snapshot overwrites");
    }

    #[test]
    fn replication_counters_mirror_the_cluster_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = crate::cluster::ReplicationStats {
            frames_shipped: 7,
            frames_acked: 6,
            frames_retried: 2,
            snapshots_shipped: 1,
            probes: 3,
            failovers: 1,
            follower_reads: 9,
            ownership_rejections: 1,
            blackout_ms: 250,
            max_replica_lag: 4,
        };
        m.record_replication(&stats);
        assert_eq!(m.repl_frames_shipped, 7);
        assert_eq!(m.repl_frames_acked, 6);
        assert_eq!(m.repl_frames_retried, 2);
        assert_eq!(m.repl_snapshots_shipped, 1);
        assert_eq!(m.repl_probes, 3);
        assert_eq!(m.repl_failovers, 1);
        assert_eq!(m.repl_follower_reads, 9);
        assert_eq!(m.repl_ownership_rejections, 1);
        assert_eq!(m.repl_blackout_ms, 250);
        assert_eq!(m.repl_max_replica_lag, 4);
        m.record_replication(&crate::cluster::ReplicationStats::default());
        assert_eq!(m.repl_frames_shipped, 0, "cumulative snapshot overwrites");
    }

    #[test]
    fn overload_counters_mirror_the_governor_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = OverloadStats {
            admitted: 10,
            shed_queue_full: 2,
            shed_queue_delay: 3,
            degraded: 4,
            deadline_exceeded: 5,
            queue_delays: vec![5, 1, 9, 2, 40],
            ..Default::default()
        };
        m.record_overload(&stats);
        assert_eq!(m.admitted, 10);
        assert_eq!(m.shed, 5, "both shedding flavours combined");
        assert_eq!(m.degraded, 4);
        assert_eq!(m.deadline_exceeded, 5);
        assert_eq!(m.queue_delay_p50_ms, 5);
        assert_eq!(m.queue_delay_p99_ms, 40);
        m.record_overload(&OverloadStats::default());
        assert_eq!(m.admitted, 0, "cumulative snapshot overwrites");
    }

    #[test]
    fn engine_stats_are_deltas() {
        let mut m = ServerMetrics::default();
        let base = EngineStats {
            order_index_rebuilds: 10,
            sorts_performed: 20,
            sorts_elided: 30,
        };
        let now = EngineStats {
            order_index_rebuilds: 12,
            sorts_performed: 25,
            sorts_elided: 37,
        };
        m.record_engine_stats(base, now);
        assert_eq!(m.order_index_rebuilds, 2);
        assert_eq!(m.sorts_performed, 5);
        assert_eq!(m.sorts_elided, 7);
        // A counter reset elsewhere must not underflow.
        m.record_engine_stats(now, base);
        assert_eq!(m.order_index_rebuilds, 0);
    }

    #[test]
    fn recovery_counters_mirror_the_client_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = RecoveryStats {
            attempts: 9,
            retries: 4,
            timeouts: 3,
            breaker_opens: 2,
            breaker_half_opens: 1,
            breaker_closes: 1,
            stale_served: 5,
            ..Default::default()
        };
        m.record_recovery(&stats);
        assert_eq!(m.fetch_attempts, 9);
        assert_eq!(m.fetch_retries, 4);
        assert_eq!(m.fetch_timeouts, 3);
        assert_eq!(m.breaker_opens, 2);
        assert_eq!(m.breaker_half_opens, 1);
        assert_eq!(m.breaker_closes, 1);
        assert_eq!(m.stale_served, 5);
        // a later snapshot overwrites (the counters are cumulative)
        m.record_recovery(&RecoveryStats::default());
        assert_eq!(m.fetch_attempts, 0);
    }

    #[test]
    fn isolation_counters_mirror_the_client_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = QuarantineStats {
            listener_errors: 6,
            listener_panics: 2,
            fuel_exhausted: 1,
            trips: 3,
            skipped: 4,
            ..Default::default()
        };
        m.record_isolation(&stats);
        assert_eq!(m.listener_errors, 6);
        assert_eq!(m.listener_panics, 2);
        assert_eq!(m.fuel_exhausted, 1);
        assert_eq!(m.quarantine_trips, 3);
        assert_eq!(m.quarantine_skips, 4);
        m.record_isolation(&QuarantineStats::default());
        assert_eq!(m.listener_errors, 0);
    }

    #[test]
    fn durability_counters_mirror_the_db_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = DurabilityStats {
            wal_appends: 8,
            fsyncs: 5,
            checkpoints: 2,
            recoveries: 1,
            torn_tails_dropped: 1,
            ckpt_slots_lost: 1,
            wal_corruptions: 2,
            recovery_digest_mismatches: 3,
        };
        m.record_durability(&stats);
        assert_eq!(m.wal_appends, 8);
        assert_eq!(m.wal_fsyncs, 5);
        assert_eq!(m.checkpoints, 2);
        assert_eq!(m.recoveries, 1);
        assert_eq!(m.torn_tails_dropped, 1);
        assert_eq!(m.ckpt_slots_lost, 1);
        assert_eq!(m.wal_corruptions, 2);
        assert_eq!(m.recovery_digest_mismatches, 3);
        m.record_durability(&DurabilityStats::default());
        assert_eq!(m.wal_appends, 0);
        assert_eq!(m.ckpt_slots_lost, 0, "cumulative snapshot overwrites");
    }

    #[test]
    fn integrity_counters_mirror_the_cluster_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = crate::cluster::IntegrityStats {
            scrub_cycles: 4,
            scrub_docs_checked: 40,
            scrub_digest_mismatches: 1,
            scrub_wal_corruptions: 2,
            scrub_ckpt_corruptions: 1,
            scrub_ckpt_lost: 1,
            quarantines: 3,
            repairs_started: 3,
            repairs_verified: 2,
            leader_demotions: 1,
            promote_heals: 1,
            reads_verified: 25,
            reads_refused: 1,
            decay_sweeps: 90,
            sectors_decayed: 7,
        };
        m.record_integrity(&stats);
        assert_eq!(m.scrub_cycles, 4);
        assert_eq!(m.scrub_docs_checked, 40);
        assert_eq!(m.scrub_digest_mismatches, 1);
        assert_eq!(m.scrub_wal_corruptions, 2);
        assert_eq!(m.scrub_ckpt_corruptions, 1);
        assert_eq!(m.scrub_ckpt_lost, 1);
        assert_eq!(m.integrity_quarantines, 3);
        assert_eq!(m.integrity_repairs_started, 3);
        assert_eq!(m.integrity_repairs_verified, 2);
        assert_eq!(m.integrity_leader_demotions, 1);
        assert_eq!(m.integrity_promote_heals, 1);
        assert_eq!(m.integrity_reads_verified, 25);
        assert_eq!(m.integrity_reads_refused, 1);
        assert_eq!(m.decay_sweeps, 90);
        assert_eq!(m.decay_sectors, 7);
        m.record_integrity(&crate::cluster::IntegrityStats::default());
        assert_eq!(m.scrub_cycles, 0, "cumulative snapshot overwrites");
    }

    #[test]
    fn reshard_counters_mirror_the_cluster_snapshot() {
        let mut m = ServerMetrics::default();
        let stats = crate::cluster::ReshardStats {
            epoch_bumps: 3,
            migrations_started: 9,
            migrations_completed: 8,
            migrations_aborted: 1,
            docs_moved: 8,
            tail_frames_forwarded: 12,
            cutover_fences: 8,
            drains: 1,
        };
        m.record_resharding(&stats);
        assert_eq!(m.reshard_epoch_bumps, 3);
        assert_eq!(m.reshard_migrations_started, 9);
        assert_eq!(m.reshard_migrations_completed, 8);
        assert_eq!(m.reshard_migrations_aborted, 1);
        assert_eq!(m.reshard_docs_moved, 8);
        assert_eq!(m.reshard_tail_frames_forwarded, 12);
        assert_eq!(m.reshard_cutover_fences, 8);
        assert_eq!(m.reshard_drains, 1);
        m.record_resharding(&crate::cluster::ReshardStats::default());
        assert_eq!(m.reshard_epoch_bumps, 0, "cumulative snapshot overwrites");
    }
}
