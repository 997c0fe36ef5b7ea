//! End-to-end integrity: the anti-entropy scrubber, verified follower
//! reads and the quarantine lifecycle of a follower seat.
//!
//! Every seat disk decays with virtual time. On each tick the scrubber
//! probes each node's disk with
//! [`XmlDb::scrub_step`](crate::xmldb::XmlDb::scrub_step): the whole WAL,
//! decoding nothing, and the next bounded slice of its checkpoint slots,
//! resuming where the last tick stopped, so a tick's cost does not grow
//! with the store and a pass over both slots ends within
//! [`SCRUB_PASS_TICKS`](xqib_storage::SCRUB_PASS_TICKS) ticks. (Promotion
//! and cutover check the whole disk at once with
//! [`XmlDb::disk_damage`](crate::xmldb::XmlDb::disk_damage), the same
//! checks without a budget.) Damaged durable state is rewritten from
//! intact memory.
//!
//! Memory has one reference: a node's own seals
//! ([`XmlDb::digest_of`](crate::xmldb::XmlDb::digest_of)). Each op's
//! digest frame ships with it, so a follower's seals are the leader's at
//! the follower's own position, whatever its lag. The scrubber
//! self-checks every follower's memory against them, and every follower
//! read is verified against them. A follower that diverged is wiped and
//! resynced by snapshot, and rejoins the read pool once a self-check is
//! clean and its lag is within the read pool's bound.

use xqib_storage::IntegrityError;

use super::Cluster;
use crate::replica::ReplicaNode;
use crate::server::ServerResponse;
use crate::xmldb::DiskDamage;

xqib_storage::counters! {
    /// Cumulative end-to-end integrity counters: latent decay observed, scrub
    /// verdicts, quarantines and verified repairs. Served on the cluster's
    /// `/metrics`.
    pub struct IntegrityStats {
        /// Anti-entropy scrub cycles run across the cluster.
        scrub_cycles: "scrub-cycles",
        /// Sealed follower documents the scrubber's self-checks compared
        /// with their seals.
        scrub_docs_checked: "scrub-docs-checked",
        /// Follower documents whose memory no longer digested to the seal
        /// the follower itself applied.
        scrub_digest_mismatches: "scrub-digest-mismatches",
        /// Mid-prefix WAL damage the scrubber found on a live node's disk
        /// (never a legal crash shape — latent rot or a replication fault).
        scrub_wal_corruptions: "scrub-wal-corruptions",
        /// Corrupt checkpoint slots the scrubber found.
        scrub_ckpt_corruptions: "scrub-ckpt-corruptions",
        /// Scrub passes that found every written checkpoint slot corrupt.
        scrub_ckpt_lost: "scrub-ckpt-lost",
        /// Checkpoint-slot bytes the scrubber's slices verified intact,
        /// summed over every seat (the WAL probe is not counted).
        scrub_bytes_verified: "scrub-bytes-verified",
        /// Followers pulled from the read pool over damage or divergence.
        quarantines: "integrity-quarantines",
        /// Repairs begun (node-local re-checkpoint or full snapshot resync).
        repairs_started: "integrity-repairs-started",
        /// Followers readmitted from probation to the read pool on a clean
        /// self-check with their lag within the read pool's bound.
        repairs_verified: "integrity-repairs-verified",
        /// Leaders demoted for sitting on a damaged WAL; failover follows
        /// rather than ever serving bad bytes.
        leader_demotions: "integrity-leader-demotions",
        /// Failover winners healed from intact memory before promotion, so
        /// recovery would not truncate acked state at a rotted frame.
        promote_heals: "integrity-promote-heals",
        /// Follower `/doc` bodies verified against the serving node's own
        /// seal before being served, at any lag and on the blackout path
        /// too (an unsealed document serves unchecked and is not counted).
        reads_verified: "integrity-reads-verified",
        /// Follower `/doc` bodies refused (and the seat quarantined) over a
        /// digest mismatch.
        reads_refused: "integrity-reads-refused",
        /// Decay periods swept across every seat disk.
        decay_sweeps: "decay-sweeps",
        /// At-rest synced sectors hit by latent bit rot.
        sectors_decayed: "decay-sectors",
    }
}

impl IntegrityStats {
    /// Tallies one scrub step over a node's disk, which verified `bytes`
    /// slot bytes, and reports whether it found anything damaged.
    fn count_scrub_step(&mut self, (damage, bytes): &(DiskDamage, u64)) -> bool {
        self.scrub_bytes_verified += bytes;
        if damage.wal_rot {
            self.scrub_wal_corruptions += 1;
        }
        for v in &damage.slots {
            match v {
                IntegrityError::CheckpointSlotCorrupt { .. } => self.scrub_ckpt_corruptions += 1,
                IntegrityError::AllCheckpointSlotsCorrupt => self.scrub_ckpt_lost += 1,
                _ => {}
            }
        }
        damage.any()
    }
}

/// Bounded staleness of healthy-path follower `/doc` reads, in frames.
const MAX_READ_LAG: u64 = 64;
/// How long a quarantined follower stays out of the read pool before
/// probation; readmission still requires a clean self-check.
const QUARANTINE_MS: u64 = 400;

/// Read-pool standing of a follower seat — the same trip/cool-off/probe
/// shape as `xqib_browser::quarantine`, driven by the scrubber instead of
/// listener failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SeatHealth {
    /// In the read pool; the last self-check was clean.
    Healthy,
    /// Out of the read pool while a repair is in flight; stays out at
    /// least until the deadline even if its self-check is clean sooner.
    Quarantined { until: u64 },
    /// Cool-off served; readmitted on the first scrub pass whose
    /// self-check is clean with the seat's lag within [`MAX_READ_LAG`].
    Probation,
}

impl Cluster {
    /// Cluster-wide integrity counters; decay sweeps and rotted sectors
    /// are summed live from every seat disk's own stats.
    pub fn integrity_stats(&self) -> IntegrityStats {
        let mut st = self.istats.clone();
        for sh in &self.shards {
            for seat in &sh.seats {
                let ds = seat.disk.stats();
                st.decay_sweeps += ds.decay_sweeps;
                st.sectors_decayed += ds.sectors_decayed;
            }
        }
        st
    }

    /// A `/doc` body served from a follower replica. Healthy path
    /// (`any_lag = false`): round-robin over *healthy* followers within
    /// [`MAX_READ_LAG`]. Blackout path (`any_lag = true`): the most
    /// caught-up non-quarantined follower, whatever its lag. On both, the
    /// body is verified against the node's own seal before it leaves the
    /// cluster: a lagged follower serves an older version, which bounded
    /// staleness permits, but sealed at its position like any other. A
    /// mismatch quarantines the seat for resync and falls back to the
    /// leader.
    pub(super) fn follower_doc(
        &mut self,
        shard: usize,
        uri: &str,
        any_lag: bool,
        now: u64,
    ) -> Option<ServerResponse> {
        let sh = &self.shards[shard];
        let committed = sh.committed();
        let mut candidates: Vec<(usize, u64, u64)> = Vec::new(); // (seat, lag, applied)
        for (i, seat) in sh.seats.iter().enumerate() {
            if i == sh.leader_seat {
                continue;
            }
            let usable = if any_lag {
                !matches!(seat.health, SeatHealth::Quarantined { .. })
            } else {
                seat.health == SeatHealth::Healthy
            };
            if !usable {
                continue;
            }
            let Some(node) = seat.replica.as_ref() else {
                continue;
            };
            let lag = committed
                .unwrap_or(node.applied())
                .saturating_sub(seat.acked);
            if !any_lag && lag > MAX_READ_LAG {
                continue;
            }
            candidates.push((i, lag, node.applied()));
        }
        if candidates.is_empty() {
            return None;
        }
        let (seat_idx, lag, _) = if any_lag {
            // most caught-up wins; ties go to the lowest seat
            *candidates
                .iter()
                .max_by_key(|&&(i, _, applied)| (applied, usize::MAX - i))?
        } else {
            let pick = candidates[(self.read_rr as usize) % candidates.len()];
            self.read_rr += 1;
            pick
        };
        let seat = &self.shards[shard].seats[seat_idx];
        let (node, host) = (seat.replica.as_ref()?, seat.host.clone());
        let sealed = node.db.digest_of(uri).is_some();
        let Ok(body) = node.db.verified_serialize(uri) else {
            self.istats.reads_refused += 1;
            self.quarantine_and_resync(shard, seat_idx, now);
            return None;
        };
        let body = body?;
        self.istats.reads_verified += u64::from(sealed);
        self.stats.follower_reads += 1;
        Some(
            ServerResponse::new(200, body)
                .with_header("X-XQIB-Replica", &host)
                .with_header("X-XQIB-Replica-Lag", &lag.to_string()),
        )
    }

    /// Quarantines a follower seat over divergence and restarts it from
    /// nothing: files wiped, a fresh replica installed, and the leader
    /// forced to ship a full checkpoint snapshot (the ordinary straggler
    /// resync path). The seat re-enters the read pool only after a clean
    /// self-check past its cool-off.
    fn quarantine_and_resync(&mut self, s: usize, i: usize, now: u64) {
        let seat = &mut self.shards[s].seats[i];
        seat.restart(s, &self.cfg, now, true, true);
        seat.health = SeatHealth::Quarantined {
            until: now + QUARANTINE_MS,
        };
        self.istats.quarantines += 1;
        self.istats.repairs_started += 1;
    }

    /// One anti-entropy pass over every shard: probe the leader's own WAL
    /// and checkpoint slots, probe every follower's disk, self-check every
    /// follower's memory against its own seals, and drive the quarantine →
    /// repair → verified-readmission lifecycle.
    pub(super) fn scrub(&mut self, now: u64) {
        self.istats.scrub_cycles += 1;
        for s in 0..self.shards.len() {
            if self.shards[s].retired {
                continue;
            }
            self.scrub_shard(s, now);
        }
    }

    /// Demotes a leader whose durable log is rotten and lets the ordinary
    /// election promote a replica whose bytes still verify, rather than
    /// ever serving or shipping from damaged media. Unlike a crash, a
    /// voluntary step-down must not shrink the candidate set: right after
    /// a failover, acked state can exist on the leader alone (follower
    /// acks are reset under the new term until their snapshots land). So
    /// the rot is first superseded by a checkpoint from intact memory, and
    /// the node stays behind as a follower candidate carrying the full
    /// committed log — the election restriction re-promotes it, or an
    /// equally caught-up peer, with nothing lost. Backdating the vacancy
    /// makes the failover detector fire immediately.
    fn demote_leader(&mut self, s: usize, now: u64) {
        let detect_ms = self.cfg.failover_detect_ms;
        let sh = &mut self.shards[s];
        if let Some(mut leader) = sh.leader.take() {
            let _ = leader.db.checkpoint();
            let seat = &mut sh.seats[sh.leader_seat];
            let cfg = self.cfg.follower_durability;
            seat.replica = Some(ReplicaNode::demoted(s, sh.term, leader.db, cfg));
            seat.restart(s, &self.cfg, now, false, false);
            seat.health = SeatHealth::Healthy;
        }
        sh.vacate(now.saturating_sub(detect_ms), detect_ms);
        self.istats.leader_demotions += 1;
    }

    fn scrub_shard(&mut self, s: usize, now: u64) {
        // --- leader side -------------------------------------------------
        let leader_probe = self.shards[s].leader.as_mut().map(|l| l.db.scrub_step());
        if let Some(step) = leader_probe {
            let damaged = self.istats.count_scrub_step(&step);
            if step.0.wal_rot && self.shards[s].followers().next().is_some() {
                self.demote_leader(s, now);
                return; // follower scrubbing resumes once a leader exists
            }
            if damaged {
                // No quorum to hand off to (or only slot damage): rewrite
                // durable state from intact memory — checkpoint + truncate
                // supersede the damaged bytes.
                if let Some(leader) = self.shards[s].leader.as_mut() {
                    let _ = leader.db.checkpoint();
                }
            }
        }
        // --- follower side -----------------------------------------------
        let Some(committed) = self.shards[s].committed() else {
            return;
        };
        let leader_seat = self.shards[s].leader_seat;
        for i in 0..self.shards[s].seats.len() {
            if i == leader_seat {
                continue;
            }
            let seat = &mut self.shards[s].seats[i];
            // lifecycle: a quarantine cool-off elapses into probation
            if let SeatHealth::Quarantined { until } = seat.health {
                if now >= until {
                    seat.health = SeatHealth::Probation;
                }
            }
            let Some(node) = seat.replica.as_mut() else {
                continue;
            };
            // own-disk probe: typed damage self-heals from intact memory
            // (every applied frame was CRC-checked on arrival), so a fresh
            // checkpoint supersedes the rot without losing acked state
            if self.istats.count_scrub_step(&node.db.scrub_step()) {
                node.db.checkpoint_applied();
                self.istats.repairs_started += 1;
                if seat.health == SeatHealth::Healthy {
                    seat.health = SeatHealth::Quarantined {
                        until: now + QUARANTINE_MS,
                    };
                    self.istats.quarantines += 1;
                }
            }
            // self-check at any lag: a lagged replica is old, not wrong,
            // and its seals are the leader's at its own position
            let (checked, mismatches) = node.db.self_check(self.istats.scrub_cycles);
            self.istats.scrub_docs_checked += checked;
            self.istats.scrub_digest_mismatches += mismatches;
            if mismatches > 0 {
                // divergence means this replica's *memory* can no longer be
                // trusted: wipe and resync from a leader snapshot
                self.quarantine_and_resync(s, i, now);
                continue;
            }
            // probation → healthy on a clean self-check within the read
            // pool's staleness bound
            let lag = committed.saturating_sub(seat.acked);
            if seat.health == SeatHealth::Probation && lag <= MAX_READ_LAG {
                seat.health = SeatHealth::Healthy;
                self.istats.repairs_verified += 1;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cluster::tests::*;
    use crate::cluster::{ClusterCompletion, ClusterConfig, ClusterOutcome, Submitted};
    use crate::xmldb::DurabilityConfig;
    use xqib_storage::{
        Checkpoint, VirtualDisk, CKPT_SLOTS, SCRUB_PASS_TICKS, SCRUB_SLICE_FLOOR, WAL_FILE,
    };
    /// Flips one payload byte of the first WAL frame on `disk`: with later
    /// frames behind it, the scan must classify this as mid-prefix CRC
    /// damage (an alarm), never as an ordinary torn tail.
    fn rot_first_frame(disk: &VirtualDisk) {
        let mut img = disk.read(WAL_FILE).expect("a journaled WAL to rot");
        // frame layout [len u32][crc u32][seq u64][tag u8][payload]: byte
        // 17 is the first payload byte
        img[17] ^= 0x01;
        disk.write_file(WAL_FILE, &img);
    }

    #[test]
    fn scrub_repairs_a_follower_with_mid_prefix_wal_rot() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, now) = acked_markers(&mut c, "d0.xml", 3, 10, "rot");
        let disk = c.shards[0].seats[1].disk.clone();
        rot_first_frame(&disk);
        {
            let rep = c.shards[0].seats[1].replica.as_ref().unwrap();
            assert!(
                rep.db.disk_damage().wal_rot,
                "the flip must read as mid-prefix WAL damage"
            );
        }
        // the next scrub pass detects the rot, re-checkpoints the replica
        // from intact memory and pulls the seat out of the read pool
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + scrub + 2);
        let ist = c.integrity_stats();
        assert!(
            ist.scrub_wal_corruptions >= 1,
            "rot went undetected: {ist:?}"
        );
        assert!(ist.repairs_started >= 1);
        assert_eq!(ist.quarantines, 1);
        assert!(matches!(
            c.shards[0].seats[1].health,
            SeatHealth::Quarantined { .. }
        ));
        {
            let rep = c.shards[0].seats[1].replica.as_ref().unwrap();
            assert!(
                !rep.db.disk_damage().any(),
                "the repair checkpoint must supersede the rot"
            );
        }
        // cool-off elapses into probation; the scrubber readmits the seat
        // on a clean self-check
        let end = now + QUARANTINE_MS + 2 * scrub + 10;
        drive(&mut c, now, end);
        assert_eq!(c.shards[0].seats[1].health, SeatHealth::Healthy);
        assert!(c.integrity_stats().repairs_verified >= 1);
    }

    /// Shipping reads only the frames a follower lacks, so rot in frames
    /// every follower already holds costs no snapshot resync; the
    /// scrubber, not the shipper, detects it and demotes the leader.
    #[test]
    fn rot_in_frames_followers_hold_ships_no_snapshot_until_the_scrubber_demotes() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 2,
            ..ClusterConfig::default()
        });
        let scrub = c.cfg.scrub_interval_ms;
        let (_, now) = acked_markers(&mut c, "d0.xml", 2, 10, "held");
        let leader_seat = c.shards[0].leader_seat;
        rot_first_frame(&c.shards[0].seats[leader_seat].disk.clone());
        let leader = c.shards[0].leader.as_ref().unwrap();
        assert!(leader.db.disk_damage().wal_rot);
        assert!(now < scrub, "no scrub may run yet");
        let snapshots = c.stats().snapshots_shipped;
        let (_, now) = acked_markers(&mut c, "d0.xml", 3, now, "after");
        assert!(now < scrub, "no scrub may run yet");
        assert_eq!(
            c.stats().snapshots_shipped,
            snapshots,
            "frames past the rot ship as frames"
        );
        assert_eq!(c.integrity_stats().leader_demotions, 0);
        drive(&mut c, now, scrub + 20);
        let ist = c.integrity_stats();
        assert!(
            ist.scrub_wal_corruptions >= 1,
            "rot went undetected: {ist:?}"
        );
        assert_eq!(ist.leader_demotions, 1);
    }

    #[test]
    fn a_divergent_follower_is_wiped_resynced_and_readmitted() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (acked, now) = acked_markers(&mut c, "d0.xml", 2, 10, "div");
        let rep = c.shards[0].seats[1].replica.as_mut().unwrap();
        assert!(rep.poison_document("d0.xml"));
        // disk, WAL and seals are untouched — only the self-check of
        // memory against the follower's own seals can notice the divergence
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + scrub + 2);
        let ist = c.integrity_stats();
        assert!(
            ist.scrub_digest_mismatches >= 1,
            "divergence unseen: {ist:?}"
        );
        assert_eq!(ist.quarantines, 1);
        assert!(matches!(
            c.shards[0].seats[1].health,
            SeatHealth::Quarantined { .. }
        ));
        // the wiped seat resyncs from a leader snapshot, serves cool-off,
        // and is readmitted on a clean self-check
        let end = now + QUARANTINE_MS + 3 * scrub;
        drive(&mut c, now, end);
        assert_eq!(c.shards[0].seats[1].health, SeatHealth::Healthy);
        assert!(c.integrity_stats().repairs_verified >= 1);
        let rep = c.shards[0].seats[1].replica.as_ref().unwrap();
        let xml = rep.db.serialize("d0.xml").unwrap();
        assert!(!xml.contains("rotted"), "poison survived the resync: {xml}");
        for m in &acked {
            assert!(xml.contains(m.as_str()), "resync lost acked {m}: {xml}");
        }
    }

    #[test]
    fn a_leader_on_rotted_wal_is_demoted_without_losing_acked_updates() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            // never checkpoint on its own: the damaged log must survive
            // until the scrubber looks at it
            durability: DurabilityConfig {
                group_commit: 1,
                checkpoint_threshold: 0,
            },
            ..ClusterConfig::default()
        });
        let (acked, now) = acked_markers(&mut c, "d0.xml", 4, 10, "dem");
        let seat = c.shards[0].leader_seat;
        rot_first_frame(&c.shards[0].seats[seat].disk.clone());
        // the next scrub pass steps the leader down rather than ever
        // serving or shipping from damaged media; the backdated failover
        // detector re-elects within the same housekeeping tick, with the
        // demoted seat still in the candidate set carrying its full log
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + 2 * scrub + 2);
        let ist = c.integrity_stats();
        assert_eq!(ist.leader_demotions, 1, "rot must demote the leader");
        assert!(ist.scrub_wal_corruptions >= 1);
        assert!(c.has_leader(0), "demotion must end in a new election");
        assert_eq!(c.stats().failovers, 1);
        let (_, _) = c.quiesce(now);
        for m in &acked {
            assert!(
                c.holds_marker("d0.xml", m),
                "acked {m} lost across demotion"
            );
        }
    }

    #[test]
    fn a_poisoned_follower_read_is_refused_and_served_by_the_leader() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, now) = acked_markers(&mut c, "d0.xml", 1, 10, "rr");
        let rep = c.shards[0].seats[1].replica.as_mut().unwrap();
        assert!(rep.poison_document("d0.xml"));
        // the follower is in-sync and healthy, so the read router picks it;
        // its body hashes wrong against the follower's own seal, so the
        // read is refused, the seat quarantined, and the leader serves
        let done = match c.submit(&doc_url("d0.xml"), now) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("reads cannot pend"),
        };
        assert_eq!(done.response.status, 200);
        assert_eq!(done.outcome, ClusterOutcome::Served, "leader fallback");
        assert!(
            done.response.body.contains("rr0"),
            "the verified body must carry the acked update: {}",
            done.response.body
        );
        assert!(
            !done.response.body.contains("rotted"),
            "a digest-mismatched body must never be served"
        );
        let ist = c.integrity_stats();
        assert_eq!(ist.reads_refused, 1);
        assert_eq!(ist.quarantines, 1);
    }

    /// Under continuous writes (an update every 25 ms, no quiet period:
    /// the leader is ahead of both followers at every scrub tick), a
    /// follower whose memory is poisoned mid-stream is flagged within one
    /// rotation, resynced, and readmitted while the writes go on.
    #[test]
    fn a_poisoned_follower_is_readmitted_under_continuous_writes() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let scrub = c.cfg.scrub_interval_ms;
        let docs = c.shards[0].leader.as_ref().unwrap().db.dump().len() as u64;
        let seat = (0..3).find(|&i| i != c.shards[0].leader_seat).unwrap();
        let poison_at = 1_010;
        let end = poison_at + docs * scrub + QUARANTINE_MS + 4 * scrub;
        let (mut flagged, mut readmitted, mut acked) = (None, None, 0);
        for t in 10..end {
            // scrub ticks fall on 10 mod 25, so each one meets an update
            // the leader has committed and not yet shipped
            if t % 25 == 10 {
                let url = update_url(&format!("d{}.xml", t / 25 % 6), &format!("w{t}"));
                if let Submitted::Done(d) = c.submit(&url, t) {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate, "{}", d.url);
                    acked += 1;
                }
            }
            if t == poison_at {
                let rep = c.shards[0].seats[seat].replica.as_mut().unwrap();
                assert!(rep.poison_document("d0.xml"));
            }
            if t >= c.next_scrub_at {
                let committed = c.shards[0].committed().unwrap();
                let mut followers = c.shards[0].followers();
                assert!(followers.all(|f| f.replica.as_ref().unwrap().applied() < committed));
            }
            for done in c.advance(t) {
                assert_eq!(done.outcome, ClusterOutcome::AckedUpdate, "{}", done.url);
                acked += 1;
            }
            let health = c.shards[0].seats[seat].health;
            if flagged.is_none() && c.integrity_stats().scrub_digest_mismatches > 0 {
                assert!(matches!(health, SeatHealth::Quarantined { .. }));
                flagged = Some(t);
            }
            if flagged.is_some() && readmitted.is_none() && health == SeatHealth::Healthy {
                readmitted = Some(t);
            }
        }
        let flagged = flagged.expect("the poison was never flagged");
        assert!(
            flagged - poison_at <= docs * scrub,
            "flagged {}ms after the poison",
            flagged - poison_at
        );
        let readmitted = readmitted.expect("the repaired follower was never readmitted");
        assert!(readmitted < end - 2 * scrub, "readmitted at {readmitted}");
        let ist = c.integrity_stats();
        assert_eq!((ist.quarantines, ist.repairs_verified), (1, 1), "{ist:?}");
        assert!(acked > (end - 10) / 25 - 10, "only {acked} updates acked");
        let rep = c.shards[0].seats[seat].replica.as_ref().unwrap();
        assert!(!rep.db.serialize("d0.xml").unwrap().contains("rotted"));
    }

    /// One `/doc` read of `uri` at `now`, which must complete.
    fn read_doc(c: &mut Cluster, uri: &str, now: u64) -> ClusterCompletion {
        match c.submit(&doc_url(uri), now) {
            Submitted::Done(d) => *d,
            Submitted::Pending(_) => panic!("reads cannot pend"),
        }
    }

    /// A follower whose image is warm from a verified read and whose
    /// document is then poisoned: the next read checks the new document's
    /// image, refuses it and quarantines the seat.
    #[test]
    fn a_warm_follower_image_does_not_hide_a_poisoned_document() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, now) = acked_markers(&mut c, "d0.xml", 1, 10, "rr");
        let warm = read_doc(&mut c, "d0.xml", now);
        assert!(
            warm.response.header("X-XQIB-Replica").is_some(),
            "a follower read"
        );
        assert_eq!(c.integrity_stats().reads_verified, 1);
        let rep = c.shards[0].seats[1].replica.as_mut().unwrap();
        assert!(rep.poison_document("d0.xml"));
        let done = read_doc(&mut c, "d0.xml", now);
        assert_eq!(done.outcome, ClusterOutcome::Served, "leader fallback");
        assert!(
            !done.response.body.contains("rotted"),
            "{}",
            done.response.body
        );
        let ist = c.integrity_stats();
        assert_eq!((ist.reads_verified, ist.reads_refused), (1, 1));
        assert_eq!(ist.quarantines, 1);
    }

    /// The scrubber digests the tree, never the image: a poisoned follower
    /// whose image is warm from a verified read is still flagged.
    #[test]
    fn the_scrubber_flags_a_poisoned_follower_with_a_warm_image() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, now) = acked_markers(&mut c, "d0.xml", 1, 10, "sc");
        let warm = read_doc(&mut c, "d0.xml", now);
        assert!(
            warm.response.header("X-XQIB-Replica").is_some(),
            "a follower read"
        );
        let rep = c.shards[0].seats[1].replica.as_mut().unwrap();
        assert!(rep.poison_document("d0.xml"));
        let scrub = c.cfg.scrub_interval_ms;
        drive(&mut c, now, now + scrub + 2);
        let ist = c.integrity_stats();
        assert!(
            ist.scrub_digest_mismatches >= 1,
            "divergence unseen: {ist:?}"
        );
        assert_eq!(ist.quarantines, 1);
        assert!(matches!(
            c.shards[0].seats[1].health,
            SeatHealth::Quarantined { .. }
        ));
    }

    /// A cart of `n` items, each about 40 bytes.
    fn cart(n: usize) -> String {
        let items: String = (0..n)
            .map(|i| format!("<item id=\"i{i}\">{:08}</item>", i * 7))
            .collect();
        format!("<cart>{items}</cart>")
    }

    /// A one-seat shard holding a cart of `n` items and a 64 KB page, with
    /// both checkpoint slots written and no scrub tick run yet.
    fn one_seat_with_cart(n: usize) -> Cluster {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 1,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        c.load("page.xml", &format!("<p>{}</p>", "x".repeat(64 * 1024)))
            .unwrap();
        c.load("cart.xml", &cart(n)).unwrap();
        let leader = c.shards[0].leader.as_mut().unwrap();
        leader.db.checkpoint().unwrap();
        leader.db.checkpoint().unwrap();
        c
    }

    /// The scrubber's work per tick does not follow the store: as a cart
    /// grows from 100 to 10,000 items, each tick verifies at most the
    /// slice bound plus one unit (a section or a header), and a pass over
    /// both slots ends within `SCRUB_PASS_TICKS + 1` ticks.
    #[test]
    fn scrub_slices_stay_bounded_as_a_cart_grows() {
        for n in [100, 1_000, 10_000] {
            let mut c = one_seat_with_cart(n);
            let disk = c.shards[0].seats[0].disk.clone();
            let slots: usize = CKPT_SLOTS.iter().map(|s| disk.len(s)).sum();
            let budget = SCRUB_SLICE_FLOOR.max(slots.div_ceil(SCRUB_PASS_TICKS));
            let docs = c.shards[0].leader.as_ref().unwrap().db.dump();
            let unit = docs.iter().map(|(u, x)| 16 + u.len() + x.len()).max();
            let bound = (budget + unit.unwrap()) as u64;
            let scrub = c.cfg.scrub_interval_ms;
            let mut verified = Vec::new();
            for tick in 0..2 * (SCRUB_PASS_TICKS as u64 + 1) {
                let before = c.integrity_stats().scrub_bytes_verified;
                drive(&mut c, tick * scrub, (tick + 1) * scrub);
                let bytes = c.integrity_stats().scrub_bytes_verified - before;
                assert!(
                    bytes <= bound,
                    "{n} items: {bytes} bytes > {bound} in one tick"
                );
                verified.push(bytes);
            }
            // the first pass starts on the first tick and checks every
            // slot byte exactly once
            let mut sum = 0;
            let short = verified.iter().take_while(|&&b| {
                sum += b;
                sum < slots as u64
            });
            let ticks = 1 + short.count();
            let pass: u64 = verified[..ticks].iter().sum();
            assert_eq!(pass, slots as u64, "{n} items: {verified:?}");
            assert!(
                ticks <= SCRUB_PASS_TICKS + 1,
                "{n} items: a pass took {ticks} ticks: {verified:?}"
            );
            if slots as u64 > bound {
                assert!(ticks > 1, "{n} items: {slots} slot bytes checked at once");
            }
            assert_eq!(c.integrity_stats().scrub_ckpt_corruptions, 0);
        }
    }

    /// Rot in the last section of a follower's older slot, the last unit
    /// of a pass, on a disk whose slots are larger than the slice floor:
    /// wherever the cursor stands, the scrubber reports it and repairs the
    /// slot within `SCRUB_PASS_TICKS` ticks.
    #[test]
    fn rot_at_the_end_of_the_older_slot_is_found_within_one_pass() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        c.load("cart.xml", &cart(2_000)).unwrap();
        c.load("page.xml", &format!("<p>{}</p>", "y".repeat(40 * 1024)))
            .unwrap();
        let (_, now) = acked_markers(&mut c, "d0.xml", 2, 10, "sl");
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + 3 * scrub);
        let follower = c.shards[0].seats[1].replica.as_mut().unwrap();
        follower.db.checkpoint_applied();
        let disk = c.shards[0].seats[1].disk.clone();
        let gen = |slot: &str| Checkpoint::decode(&disk.read(slot).unwrap()).unwrap().gen;
        assert!(
            gen(CKPT_SLOTS[1]) < gen(CKPT_SLOTS[0]),
            "the older slot must be the second one the pass reaches"
        );
        let slots: usize = CKPT_SLOTS.iter().map(|s| disk.len(s)).sum();
        assert!(
            slots > SCRUB_SLICE_FLOOR,
            "{slots} slot bytes fit one slice"
        );
        let mut img = disk.read(CKPT_SLOTS[1]).unwrap();
        let last = img.len() - 1;
        img[last] ^= 0x04;
        disk.write_file(CKPT_SLOTS[1], &img);
        assert!(Checkpoint::decode(&img).is_none());
        let before = c.integrity_stats();
        drive(&mut c, now, now + SCRUB_PASS_TICKS as u64 * scrub);
        let ist = c.integrity_stats();
        assert_eq!(
            ist.scrub_ckpt_corruptions,
            before.scrub_ckpt_corruptions + 1
        );
        assert_eq!(ist.repairs_started, before.repairs_started + 1);
        let follower = c.shards[0].seats[1].replica.as_ref().unwrap();
        assert!(
            !follower.db.disk_damage().any(),
            "the slot was not rewritten"
        );
    }
}
