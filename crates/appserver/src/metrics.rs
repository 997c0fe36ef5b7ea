//! Server-side metrics for the Figure 2 experiment: how much work and
//! traffic each deployment (server-rendered vs migrated) costs the server.
//!
//! Each stats struct names each counter once, beside its field
//! (`xqib_storage::counters!` derives its `visit` from that). A
//! `/metrics` body is a [`MetricsSnapshot`]: every layer of the deployment
//! fills in its own part when the body is rendered. The serving
//! [`AppServer`](crate::AppServer) fills in its counters, its database's
//! and the engine's; a [`Cluster`](crate::Cluster) adds the overload
//! counters of its shard governors, summed, and its replication,
//! integrity, resharding and fleet counters. A layer the deployment does
//! not run stays at its default, so every deployment serves the same
//! names in the same order.

use std::fmt::Write;

use xqib_dom::order::stats::EngineStats;
use xqib_storage::DurabilityStats;
use xqib_xquery::plancache::PlanCacheStats;

use crate::cluster::{IntegrityStats, ReplicationStats, ReshardStats};
use crate::fleet::FleetStats;
use crate::governor::OverloadStats;

xqib_storage::counters! {
    /// The counters the application server increments itself.
    pub struct ServerMetrics {
        /// HTTP requests handled.
        requests: "requests",
        /// Bytes shipped to clients.
        bytes_out: "bytes-out",
        /// Leader `/doc` bodies digest-verified before being served.
        doc_reads_verified: "doc-reads-verified",
        /// Leader `/doc` bodies refused with `XQIB0019` (digest mismatch).
        doc_reads_refused: "doc-reads-refused",
    }
}

/// Everything one `/metrics` body serves, read from the owners of the
/// counters at the moment it is rendered.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub server: ServerMetrics,
    /// Server-side XQuery evaluations (the CPU-cost proxy the paper's
    /// off-loading argument is about).
    pub xquery_evals: u64,
    /// Engine work on the server's thread since the server was built.
    pub engine: EngineStats,
    pub durability: DurabilityStats,
    pub plan_cache: PlanCacheStats,
    pub overload: OverloadStats,
    pub replication: ReplicationStats,
    pub integrity: IntegrityStats,
    pub reshard: ReshardStats,
    /// Totals of the last fleet run reported to the cluster.
    pub fleet: FleetStats,
}

impl MetricsSnapshot {
    /// Visits every served counter, in `/metrics` order.
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let MetricsSnapshot {
            server,
            xquery_evals,
            engine,
            durability,
            plan_cache,
            overload,
            replication,
            integrity,
            reshard,
            fleet,
        } = self;
        server.visit(f);
        f("xquery-evals", *xquery_evals);
        engine.visit(f);
        durability.visit(f);
        plan_cache.visit(f);
        overload.visit(f);
        replication.visit(f);
        integrity.visit(f);
        reshard.visit(f);
        fleet.visit(f);
    }

    /// Serialises every counter as XML (the `/metrics` route body).
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<metrics>");
        self.visit(&mut |name, value| {
            let _ = write!(out, "<{name}>{value}</{name}>");
        });
        out.push_str("</metrics>");
        out
    }
}

/// The nearest-rank `pct`-th percentile of `samples` (0 when there are
/// none): the smallest sample at or above `pct`% of them, so p99 of five
/// samples is the largest.
pub fn nearest_rank(samples: &[u64], pct: u64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() * pct.min(100) as usize).div_ceil(100);
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// Every owner's counters set to distinct non-zero values. The struct
    /// literals are exhaustive, so a new field must be given a value here
    /// before it compiles.
    fn distinct() -> MetricsSnapshot {
        MetricsSnapshot {
            server: ServerMetrics {
                requests: 1,
                bytes_out: 2,
                doc_reads_verified: 3,
                doc_reads_refused: 4,
            },
            xquery_evals: 5,
            engine: EngineStats {
                order_index_rebuilds: 6,
                sorts_performed: 7,
                sorts_elided: 8,
                attr_index_builds: 80,
                attr_index_hits: 81,
                name_index_builds: 82,
                name_index_hits: 83,
                doc_image_builds: 84,
                doc_image_hits: 85,
            },
            durability: DurabilityStats {
                wal_appends: 9,
                fsyncs: 10,
                checkpoints: 11,
                recoveries: 12,
                torn_tails_dropped: 13,
                ckpt_slots_lost: 14,
                wal_corruptions: 15,
                recovery_digest_mismatches: 16,
            },
            plan_cache: PlanCacheStats {
                hits: 17,
                misses: 18,
                evictions: 19,
                invalidations: 20,
            },
            overload: OverloadStats {
                submitted: 21,
                admitted: 22,
                completed: 23,
                shed_queue_full: 124,
                shed_queue_delay: 125,
                degraded: 26,
                deadline_exceeded: 27,
                queue_delays: vec![500, 100, 900, 200, 4000],
            },
            replication: ReplicationStats {
                frames_shipped: 28,
                frames_acked: 29,
                frames_retried: 30,
                snapshots_shipped: 31,
                probes: 32,
                failovers: 33,
                follower_reads: 34,
                ownership_rejections: 35,
                blackout_ms: 36,
                max_replica_lag: 37,
            },
            integrity: IntegrityStats {
                scrub_cycles: 38,
                scrub_docs_checked: 39,
                scrub_digest_mismatches: 40,
                scrub_wal_corruptions: 41,
                scrub_ckpt_corruptions: 42,
                scrub_ckpt_lost: 43,
                scrub_bytes_verified: 86,
                quarantines: 44,
                repairs_started: 45,
                repairs_verified: 46,
                leader_demotions: 47,
                promote_heals: 48,
                reads_verified: 49,
                reads_refused: 50,
                decay_sweeps: 51,
                sectors_decayed: 52,
            },
            reshard: ReshardStats {
                epoch_bumps: 53,
                migrations_started: 54,
                migrations_completed: 55,
                migrations_aborted: 56,
                docs_moved: 57,
                tail_frames_forwarded: 58,
                cutover_fences: 59,
                drains: 60,
            },
            fleet: FleetStats {
                clients: 61,
                interactions: 62,
                behind_calls: 63,
                attempts: 64,
                retries: 65,
                timeouts: 66,
                fetch_errors: 67,
                breaker_opens: 68,
                breaker_fast_fails: 69,
                stale_served: 70,
                stale_events: 71,
                error_events: 72,
                completions: 73,
                evictions: 74,
                quarantine_trips: 75,
                retry_after_honored: 76,
                degraded_observed: 77,
                origin_requests: 78,
                cache_hit_permille: 79,
            },
        }
    }

    /// `field: value` pairs of a flat struct's `Debug` output.
    fn debug_fields(debug: &str) -> Vec<(String, u64)> {
        let inner = debug.split_once('{').unwrap().1.trim_end_matches('}');
        inner
            .split(", ")
            .filter_map(|pair| {
                let (k, v) = pair.split_once(": ")?;
                Some((k.trim().to_string(), v.trim().parse().ok()?))
            })
            .collect()
    }

    /// Each owner visits each of its values under the name of the field
    /// holding it (behind the owner's prefix), apart from two renames and
    /// the counters computed from the overload samples.
    #[test]
    fn every_owner_visits_each_value_under_its_name() {
        let m = distinct();
        let owners = [
            ("", format!("{:?}", m.server)),
            ("", format!("{:?}", m.engine)),
            ("", format!("{:?}", m.durability)),
            ("plan-cache-", format!("{:?}", m.plan_cache)),
            ("", format!("{:?}", m.overload)),
            ("repl-", format!("{:?}", m.replication)),
            ("integrity-", format!("{:?}", m.integrity)),
            ("reshard-", format!("{:?}", m.reshard)),
            ("fleet-", format!("{:?}", m.fleet)),
        ];
        let mut expected: HashMap<u64, String> = HashMap::new();
        for (prefix, debug) in &owners {
            for (field, value) in debug_fields(debug) {
                let name = match field.as_str() {
                    "fsyncs" => "wal-fsyncs".to_string(),
                    "sectors_decayed" => "decay-sectors".to_string(),
                    "submitted" | "completed" | "shed_queue_full" | "shed_queue_delay" => continue,
                    f if f.starts_with("scrub_") || f.starts_with("decay_") => f.replace('_', "-"),
                    f => format!("{prefix}{}", f.replace('_', "-")),
                };
                assert!(
                    expected.insert(value, name).is_none(),
                    "values are distinct"
                );
            }
        }
        expected.insert(m.xquery_evals, "xquery-evals".to_string());
        expected.insert(124 + 125, "shed".to_string());
        expected.insert(500, "queue-delay-p50-ms".to_string());
        expected.insert(4000, "queue-delay-p99-ms".to_string());
        let mut served = HashMap::new();
        m.visit(&mut |name, value| {
            assert!(served.insert(value, name.to_string()).is_none(), "{name}");
        });
        assert_eq!(served, expected);
    }

    /// The served names, in order, are the golden list: a rename, a
    /// duplicate or a reordering fails here.
    #[test]
    fn served_names_match_the_golden_list() {
        let mut names = Vec::new();
        MetricsSnapshot::default().visit(&mut |name, _| names.push(name));
        let golden: Vec<&str> = include_str!("../tests/metrics_names.txt").lines().collect();
        assert_eq!(names, golden);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate names");
    }

    #[test]
    fn nearest_rank_edge_cases() {
        assert_eq!(nearest_rank(&[], 50), 0, "no samples");
        assert_eq!(nearest_rank(&[7], 1), 7, "one sample");
        assert_eq!(nearest_rank(&[7], 99), 7, "one sample");
        let five = [40, 10, 50, 20, 30];
        assert_eq!(nearest_rank(&five, 99), 50, "p99 of five is the max");
        assert_eq!(nearest_rank(&five, 50), 30);
        assert_eq!(nearest_rank(&five, 0), 10, "p0 is the min");
        assert_eq!(nearest_rank(&five, 100), 50, "p100 is the max");
    }

    #[test]
    fn to_xml_wraps_each_counter_in_its_element() {
        let xml = distinct().to_xml();
        assert!(xml.starts_with("<metrics><requests>1</requests><bytes-out>2</bytes-out>"));
        assert!(xml.ends_with("<fleet-cache-hit-permille>79</fleet-cache-hit-permille></metrics>"));
    }
}
