//! End-to-end integrity: the anti-entropy scrubber, verified follower
//! reads and the quarantine lifecycle of a follower seat.
//!
//! Every seat disk decays with virtual time. The scrubber probes each
//! node's disk with the one damage probe,
//! [`XmlDb::disk_damage`](crate::xmldb::XmlDb::disk_damage), which
//! promotion and cutover share, and rewrites damaged durable state from
//! intact memory. It cross-checks every caught-up follower's state digests
//! against the leader's recorded ones; a follower that diverged is wiped
//! and resynced by snapshot, and rejoins the read pool only once the
//! scrubber sees it caught up with matching digests.

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
        /// Per-document digest comparisons performed by the scrubber.
        scrub_docs_checked: "scrub-docs-checked",
        /// Replica documents whose state digest disagreed with the digest
        /// the leader recorded at journal time.
        scrub_digest_mismatches: "scrub-digest-mismatches",
        /// Mid-prefix WAL damage the scrubber found on a live node's disk
        /// (never a legal crash shape — latent rot or a replication fault).
        scrub_wal_corruptions: "scrub-wal-corruptions",
        /// Corrupt checkpoint slots the scrubber found.
        scrub_ckpt_corruptions: "scrub-ckpt-corruptions",
        /// Scrub passes that found every written checkpoint slot corrupt.
        scrub_ckpt_lost: "scrub-ckpt-lost",
        /// Followers pulled from the read pool over damage or divergence.
        quarantines: "integrity-quarantines",
        /// Repairs begun (node-local re-checkpoint or full snapshot resync).
        repairs_started: "integrity-repairs-started",
        /// Quarantined followers readmitted to the read pool after their
        /// digests matched the leader's again.
        repairs_verified: "integrity-repairs-verified",
        /// Leaders demoted for sitting on a damaged WAL; failover follows
        /// rather than ever serving bad bytes.
        leader_demotions: "integrity-leader-demotions",
        /// Failover winners healed from intact memory before promotion, so
        /// recovery would not truncate acked state at a rotted frame.
        promote_heals: "integrity-promote-heals",
        /// Follower `/doc` bodies digest-verified before being served.
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
    /// Tallies one scrub probe of a node's disk and reports whether
    /// anything is damaged.
    fn count_disk_damage(&mut self, damage: &DiskDamage) -> bool {
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
/// probation; readmission still requires its digests to match.
const QUARANTINE_MS: u64 = 400;

/// Read-pool standing of a follower seat — the same trip/cool-off/probe
/// shape as `xqib_browser::quarantine`, driven by the scrubber instead of
/// listener failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SeatHealth {
    /// In the read pool; digests clean as far as the scrubber knows.
    Healthy,
    /// Out of the read pool while a repair is in flight; stays out at
    /// least until the deadline even if it catches up sooner.
    Quarantined { until: u64 },
    /// Cool-off served; readmission waits on the scrubber verifying the
    /// seat is caught up with matching digests.
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
    /// [`MAX_READ_LAG`], and the body's state digest is verified against
    /// the leader's recorded digest before it leaves the cluster — a
    /// mismatch quarantines the seat for resync and falls back to the
    /// leader. Blackout path (`any_lag = true`): the most caught-up
    /// non-quarantined follower, whatever its lag.
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
        let (seat_idx, lag, applied) = if any_lag {
            // most caught-up wins; ties go to the lowest seat
            *candidates
                .iter()
                .max_by_key(|&&(i, _, applied)| (applied, usize::MAX - i))?
        } else {
            let pick = candidates[(self.read_rr as usize) % candidates.len()];
            self.read_rr += 1;
            pick
        };
        // End-to-end read verification: a caught-up follower's body must
        // hash to the digest the leader sealed at journal time. A lagged
        // follower is serving an older (but internally consistent)
        // version, which bounded staleness already permits — only an
        // in-sync body that hashes wrong is corruption. The body and its
        // digest are the document version's image: one serializer pass
        // per version, however often it is read.
        let (body, host, verified) = {
            let sh = &self.shards[shard];
            let seat = &sh.seats[seat_idx];
            let node = seat.replica.as_ref()?;
            let want = sh
                .leader
                .as_ref()
                .and_then(|l| l.db.digest_of(uri))
                .filter(|_| committed.is_some_and(|c| applied >= c));
            let image = node.db.image(uri)?;
            let verified = want.map(|want| image.digest == want);
            (image.body.clone(), seat.host.clone(), verified)
        };
        match verified {
            Some(false) => {
                self.istats.reads_refused += 1;
                self.quarantine_and_resync(shard, seat_idx, now);
                return None;
            }
            Some(true) => self.istats.reads_verified += 1,
            None => {}
        }
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
    /// resync path). The seat re-enters the read pool only after the
    /// scrubber sees it caught up with matching digests.
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
    /// and checkpoint slots, probe every follower's disk, cross-check
    /// replica digests against the leader's recorded digests, and drive
    /// the quarantine → repair → verified-readmission lifecycle.
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
        let leader_probe = self.shards[s].leader.as_ref().map(|l| l.db.disk_damage());
        if let Some(damage) = leader_probe {
            let damaged = self.istats.count_disk_damage(&damage);
            if damage.wal_rot && self.shards[s].followers().next().is_some() {
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
        let Some(leader) = self.shards[s].leader.as_ref() else {
            return;
        };
        let committed = leader.db.committed_seq();
        let digests = leader.db.recorded_digests();
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
            if self.istats.count_disk_damage(&node.db.disk_damage()) {
                node.db.checkpoint_applied();
                self.istats.repairs_started += 1;
                if seat.health == SeatHealth::Healthy {
                    seat.health = SeatHealth::Quarantined {
                        until: now + QUARANTINE_MS,
                    };
                    self.istats.quarantines += 1;
                }
            }
            // digest cross-check: only meaningful when the replica claims
            // to hold the leader's whole committed log — a lagged replica
            // is old, not wrong. The digests come from cached subtree
            // hashes, which only the DOM's writers invalidate; so each pass
            // re-hashes one document from scratch, in turn, and damage
            // that bypassed the writers shows within one rotation.
            let caught_up = node.applied() >= committed;
            let mut diverged = false;
            if caught_up {
                let rehash = self.istats.scrub_cycles as usize % digests.len().max(1);
                for (k, (uri, want)) in digests.iter().enumerate() {
                    self.istats.scrub_docs_checked += 1;
                    if k == rehash {
                        node.db.forget_hashes(uri);
                    }
                    if node.db.memory_digest(uri) != Some(*want) {
                        self.istats.scrub_digest_mismatches += 1;
                        diverged = true;
                    }
                }
            }
            if diverged {
                // divergence means this replica's *memory* can no longer be
                // trusted: wipe and resync from a leader snapshot
                self.quarantine_and_resync(s, i, now);
                continue;
            }
            // probation → healthy only once caught up with clean digests
            if seat.health == SeatHealth::Probation && caught_up && seat.acked >= committed {
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
    use xqib_storage::{VirtualDisk, WAL_FILE};
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
        // only after seeing it caught up with matching digests
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
        // disk and WAL digests are untouched — only the digest cross-check
        // against the leader's sealed digests can notice the divergence
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
        // and is readmitted once its digests match again
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
        // its body hashes wrong against the leader's sealed digest, so the
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
}
