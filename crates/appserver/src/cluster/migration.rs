//! Online membership and live migration.
//!
//! A [`TopologyChange`] installs a new ring at a new epoch, and every
//! document the ring now places elsewhere gets a two-phase [`Migration`]:
//! a snapshot copy at the destination while the source keeps serving,
//! then, after the copy window, an integrity check of the destination,
//! the forwarded WAL tail and the cutover fence. A decommissioned shard
//! drains this way and then retires its seats.

use xqib_storage::mix64;

use super::{Cluster, Router, Shard};
use crate::xmldb::XmlDb;

/// A scheduled membership / ring operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChange {
    /// Grow the ring by one fresh shard (next free id).
    AddShard,
    /// Drain every document homed on this shard, then retire its seats.
    Decommission(usize),
    /// Reseed the ring over the same members (moves a salted subset of
    /// keys — the "hot shard" relief valve).
    Rebalance(u64),
}

xqib_storage::counters! {
    /// Cumulative resharding counters, served on the cluster's `/metrics`.
    pub struct ReshardStats {
        /// Ring installs (add, decommission, rebalance) — each bumps the epoch.
        epoch_bumps: "reshard-epoch-bumps",
        /// Per-document migrations that entered the copy phase.
        migrations_started: "reshard-migrations-started",
        /// Migrations that reached cutover.
        migrations_completed: "reshard-migrations-completed",
        /// Copy phases abandoned: destination rot forced a re-copy, or a ring
        /// change retargeted the document mid-flight.
        migrations_aborted: "reshard-migrations-aborted",
        /// Documents whose home moved to a new shard.
        docs_moved: "reshard-docs-moved",
        /// Committed WAL records the source accepted during a copy window and
        /// forwarded to the destination before cutover.
        tail_frames_forwarded: "reshard-tail-frames-forwarded",
        /// Fences stamped at cutover (source starts refusing with 421 + epoch).
        cutover_fences: "reshard-cutover-fences",
        /// Decommissioned shards fully drained and retired.
        drains: "reshard-drains",
    }
}

/// One in-flight two-phase document migration.
#[derive(Debug, Clone)]
pub(super) struct Migration {
    uri: String,
    from: usize,
    to: usize,
    phase: MigrationPhase,
}

#[derive(Debug, Clone)]
enum MigrationPhase {
    /// Waiting for live leaders on both ends to start the copy.
    Pending,
    /// Snapshot installed at the destination; the source keeps serving
    /// until `done_at`, then the tail is forwarded and the fence stamped.
    Copying {
        done_at: u64,
        base_seq: u64,
        copy_digest: u64,
    },
}

/// Outcome of one cutover attempt.
enum CutoverStep {
    /// Fence stamped; the migration is finished.
    Done,
    /// Destination integrity failed — restart the copy phase.
    Recopy,
    /// A needed leader is missing, or the destination copy is not yet
    /// follower-durable; try again next tick.
    Wait,
    /// The source accepted updates during the copy window: the refreshed
    /// snapshot was re-installed at the destination and must replicate
    /// there before the fence is considered again.
    Forwarded {
        base_seq: u64,
        copy_digest: u64,
        tail: u64,
    },
}

/// Copy-phase window of a document migration, virtual ms: how long the
/// source keeps serving (accumulating a WAL tail) after the snapshot lands
/// at the destination, before tail-forwarding and cutover.
const MIGRATION_COPY_MS: u64 = 40;

impl Cluster {
    /// Cumulative resharding counters.
    pub fn reshard_stats(&self) -> ReshardStats {
        self.rstats.clone()
    }

    /// Document migrations currently in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// Whether a shard has been decommissioned, drained and shut down.
    pub fn is_retired(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|sh| sh.retired)
    }

    /// Whether a shard is draining toward retirement.
    pub fn is_draining(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|sh| sh.draining)
    }

    /// Grows the cluster by one fresh shard (next free id), installs a
    /// ring that includes it, and plans migrations for every document the
    /// new ring claims. Returns the new shard's id.
    pub fn add_shard(&mut self) -> usize {
        let s = self.shards.len();
        self.shards.push(Cluster::spawn_shard(&self.cfg, s));
        let mut members = self.topology.router.members().to_vec();
        members.push(s);
        self.install_ring(&members);
        s
    }

    /// Starts decommissioning a shard: it leaves the ring, every document
    /// homed on it is queued for migration, and once drained its seats are
    /// retired. Returns false if the shard cannot be decommissioned (bad
    /// id, already draining/retired, or last member standing).
    pub fn decommission_shard(&mut self, s: usize) -> bool {
        let Some(sh) = self.shards.get(s) else {
            return false;
        };
        if sh.draining || sh.retired {
            return false;
        }
        let members: Vec<usize> = self
            .topology
            .router
            .members()
            .iter()
            .copied()
            .filter(|&m| m != s)
            .collect();
        if members.is_empty() {
            return false;
        }
        self.shards[s].draining = true;
        self.install_ring(&members);
        true
    }

    /// Reseeds the ring over the same members, moving a salted subset of
    /// keys — relief for a hot shard without changing membership.
    pub fn rebalance(&mut self, salt: u64) {
        self.ring_seed = mix64(self.ring_seed ^ 0x4eba ^ salt);
        let members = self.topology.router.members().to_vec();
        self.install_ring(&members);
    }

    fn install_ring(&mut self, members: &[usize]) {
        self.topology
            .install(Router::with_members(members, self.ring_seed));
        self.rstats.epoch_bumps += 1;
        self.plan_migrations();
    }

    /// Applies a scheduled [`TopologyChange`].
    pub(super) fn apply_change(&mut self, change: TopologyChange) {
        match change {
            TopologyChange::AddShard => {
                self.add_shard();
            }
            TopologyChange::Decommission(s) => {
                self.decommission_shard(s);
            }
            TopologyChange::Rebalance(salt) => self.rebalance(salt),
        }
    }

    /// Reconciles the migration queue against the freshly installed ring:
    /// in-flight migrations whose destination the new ring disagrees with
    /// are aborted (their copies stay resident, harmlessly), and every
    /// homed document the ring wants elsewhere gets a migration.
    fn plan_migrations(&mut self) {
        let mut i = 0;
        while i < self.migrations.len() {
            let keep = {
                let m = &self.migrations[i];
                self.topology.router.owner(&m.uri) == m.to
            };
            if keep {
                i += 1;
            } else {
                self.migrations.remove(i);
                self.rstats.migrations_aborted += 1;
            }
        }
        for (uri, home) in self.topology.homes.clone() {
            if self.shards[home].retired {
                continue; // already moved; stale schedule entry
            }
            let want = self.topology.router.owner(&uri);
            if want == home || self.shards[want].retired {
                continue;
            }
            if self.migrations.iter().any(|m| m.uri == uri) {
                continue;
            }
            self.migrations.push(Migration {
                uri,
                from: home,
                to: want,
                phase: MigrationPhase::Pending,
            });
        }
    }

    /// Drives every in-flight migration one step. Each step needs live
    /// leaders on both ends — a crash mid-migration simply pauses the
    /// document until failover supplies a leader again.
    pub(super) fn drive_migrations(&mut self, now: u64) {
        let mut finished: Vec<usize> = Vec::new();
        for mi in 0..self.migrations.len() {
            let (uri, from, to, phase) = {
                let m = &self.migrations[mi];
                (m.uri.clone(), m.from, m.to, m.phase.clone())
            };
            match phase {
                MigrationPhase::Pending => {
                    // A home pin can outlive the bytes: a pre-migration
                    // failover may have promoted a follower that never
                    // replicated the document. Such a move is vacuous —
                    // nothing to copy, so the pin just flips at a fresh
                    // epoch and the ring converges instead of waiting
                    // forever for a snapshot that cannot exist.
                    let src_empty = match self.shards[from].leader.as_mut() {
                        Some(l) => {
                            let _ = l.db.commit();
                            l.db.serialize(&uri).is_none()
                        }
                        None => false,
                    };
                    if src_empty {
                        self.fence(&uri, to, false);
                        finished.push(mi);
                    } else if let Some(next) = self.start_copy(&uri, from, to, now) {
                        self.migrations[mi].phase = next;
                    }
                }
                MigrationPhase::Copying {
                    done_at,
                    base_seq,
                    copy_digest,
                } => {
                    if now < done_at {
                        continue;
                    }
                    match self.try_cutover(&uri, from, to, base_seq, copy_digest) {
                        CutoverStep::Done => finished.push(mi),
                        CutoverStep::Recopy => {
                            self.rstats.migrations_aborted += 1;
                            self.migrations[mi].phase = MigrationPhase::Pending;
                        }
                        CutoverStep::Wait => {}
                        CutoverStep::Forwarded {
                            base_seq,
                            copy_digest,
                            tail,
                        } => {
                            self.rstats.tail_frames_forwarded += tail;
                            // a forwarded tail is a fresh copy: it pays the
                            // same settle delay before the next fence check,
                            // so a hot document is re-checked per copy
                            // window, not per tick
                            self.migrations[mi].phase = MigrationPhase::Copying {
                                done_at: now + MIGRATION_COPY_MS,
                                base_seq,
                                copy_digest,
                            };
                        }
                    }
                }
            }
        }
        for mi in finished.into_iter().rev() {
            self.migrations.remove(mi);
        }
        self.retire_drained();
    }

    /// Phase 1: snapshot the document at the source and install it at the
    /// destination leader (journaled like any load, so the destination's
    /// followers replicate it over the ordinary WAL-shipping path). The
    /// source keeps serving throughout.
    fn start_copy(
        &mut self,
        uri: &str,
        from: usize,
        to: usize,
        now: u64,
    ) -> Option<MigrationPhase> {
        // without both leaders, wait for failover to supply them
        let (src, dest) = leaders(&mut self.shards, from, to)?;
        let _ = src.commit();
        let copy = src.image(uri)?;
        let base_seq = src.committed_seq();
        // the destination is a legitimate resident from here on, so its
        // followers accept the shipped frames
        self.topology.add_resident(uri, to);
        dest.load(uri, &copy.body).ok()?;
        let _ = dest.commit();
        self.rstats.migrations_started += 1;
        Some(MigrationPhase::Copying {
            done_at: now + MIGRATION_COPY_MS,
            base_seq,
            copy_digest: copy.digest,
        })
    }

    /// Phase 2: integrity-check the destination copy, forward the WAL tail
    /// the source accepted during the window, and stamp the fence — the
    /// home pin flips to the destination in the same tick, so no two
    /// shards ever accept updates for the document in one epoch.
    fn try_cutover(
        &mut self,
        uri: &str,
        from: usize,
        to: usize,
        base_seq: u64,
        copy_digest: u64,
    ) -> CutoverStep {
        let Some((src, dest)) = leaders(&mut self.shards, from, to) else {
            return CutoverStep::Wait;
        };
        // Destination integrity cross-check (migration × scrubber). Latent
        // rot on the destination mid-copy — WAL mid-prefix damage, a digest
        // mismatch against the journal-time seal, or a divergent content
        // digest — forces a clean re-copy, never a rotten cutover. A torn
        // WAL *tail* is the legal crash shape and does not count.
        let body_ok = matches!(dest.verified_serialize(uri), Ok(Some(_)));
        if dest.disk_damage().wal_rot || !body_ok || dest.digest_of(uri) != Some(copy_digest) {
            // supersede the damaged bytes from intact memory, then re-copy
            let _ = dest.checkpoint();
            return CutoverStep::Recopy;
        }
        // Forward the tail: updates the source accepted during the copy
        // window. The snapshot re-install is idempotent — the final bytes
        // land whether the tail was one record or a hundred — but it is
        // only the destination *leader's* state so far, so the fence must
        // wait until the forwarded copy has replicated there too.
        let _ = src.commit();
        if let Some(last) = src.image(uri).filter(|last| last.digest != copy_digest) {
            let tail = src.tail_records_touching(uri, base_seq);
            let base_seq = src.committed_seq();
            if dest.load(uri, &last.body).is_err() {
                return CutoverStep::Recopy;
            }
            let _ = dest.commit();
            return CutoverStep::Forwarded {
                base_seq,
                copy_digest: last.digest,
                tail,
            };
        }
        // The copy must be as durable at the destination as an acked
        // update: the ack-rule quorum of destination followers has to hold
        // it before the source may stop being the home. Otherwise a
        // destination-leader crash right after cutover would promote a
        // follower that never saw the document — losing updates that were
        // acked (durably!) back on the source. This holds as well when the
        // source durably lost the document mid-copy (a failover promoted a
        // follower that never replicated it): the destination's intact
        // copy is then the best surviving state.
        if !self.replica_durable(to) {
            return CutoverStep::Wait;
        }
        self.fence(uri, to, true);
        CutoverStep::Done
    }

    /// The fence that completes a migration: routing flips to `to`, the
    /// epoch bumps, and the source starts refusing with 421 + the new
    /// epoch, atomically in this tick. `moved` is false for a vacuous move
    /// whose source held no bytes.
    fn fence(&mut self, uri: &str, to: usize, moved: bool) {
        self.topology.cutover(uri, to);
        if moved {
            self.rstats.docs_moved += 1;
        }
        self.rstats.cutover_fences += 1;
        self.rstats.migrations_completed += 1;
    }

    /// Whether the shard's leader state is replicated per the ack rule:
    /// at least `ack_replicas` (clamped to the live follower count)
    /// followers have durably acked everything the leader committed.
    fn replica_durable(&self, s: usize) -> bool {
        let sh = &self.shards[s];
        let Some(committed) = sh.committed() else {
            return false;
        };
        let need = self.cfg.ack_replicas.min(sh.followers().count());
        sh.acks_through(committed) >= need
    }

    /// Retires draining shards that no longer home any document and have
    /// no in-flight migration, pending update or queued request: leadership
    /// and every follower seat shut down; the shard refuses everything
    /// with 421.
    fn retire_drained(&mut self) {
        for s in 0..self.shards.len() {
            if !self.shards[s].draining || self.shards[s].retired {
                continue;
            }
            if self.topology.homes.values().any(|&h| h == s) {
                continue;
            }
            if self.migrations.iter().any(|m| m.from == s) {
                continue;
            }
            let sh = &self.shards[s];
            if !sh.pending.is_empty() || sh.governor.as_ref().is_some_and(|g| g.backlog() > 0) {
                continue;
            }
            let sh = &mut self.shards[s];
            sh.retired = true;
            sh.leader = None;
            sh.leaderless_since = None;
            for seat in &mut sh.seats {
                seat.replica = None;
            }
            self.rstats.drains += 1;
        }
    }
}

/// The databases of the live leaders of shards `a` and `b` (`a != b`),
/// if both have one.
fn leaders(shards: &mut [Shard], a: usize, b: usize) -> Option<(&mut XmlDb, &mut XmlDb)> {
    let (low, high) = shards.split_at_mut(a.max(b));
    let (x, y) = (&mut low[a.min(b)], &mut high[0]);
    let (x, y) = if a < b { (x, y) } else { (y, x) };
    Some((&mut x.leader.as_mut()?.db, &mut y.leader.as_mut()?.db))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cluster::tests::*;
    use crate::cluster::{ClusterChaos, ClusterConfig, ClusterOutcome, Submitted};
    /// Loads `docs` documents and writes one acked marker into each;
    /// returns the markers keyed by URI and the advanced clock.
    fn marked(c: &mut Cluster, docs: usize, mut now: u64) -> (Vec<(String, String)>, u64) {
        let mut markers = Vec::new();
        for i in 0..docs {
            let uri = format!("m{i}.xml");
            c.load(&uri, &format!("<root n=\"{i}\"/>")).unwrap();
            let marker = format!("mk{i}");
            now = put_marker(c, &uri, &marker, now);
            markers.push((uri, marker));
        }
        (markers, now)
    }

    /// Submits one update and drives it to an ack; returns the new clock.
    fn put_marker(c: &mut Cluster, uri: &str, marker: &str, now: u64) -> u64 {
        match c.submit(&update_url(uri, marker), now) {
            Submitted::Done(d) => {
                assert_eq!(d.outcome, ClusterOutcome::AckedUpdate, "{uri}/{marker}");
                now + 1
            }
            Submitted::Pending(id) => {
                let (done, at) = await_update(c, id, now);
                assert_eq!(done.outcome, ClusterOutcome::AckedUpdate, "{uri}/{marker}");
                at + 1
            }
        }
    }

    #[test]
    fn add_shard_migrates_documents_and_fences_stale_routes() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let owners_before: Vec<usize> = markers.iter().map(|(u, _)| c.owner(u)).collect();
        let epoch_before = c.epoch();

        let new_shard = c.add_shard();
        assert_eq!(new_shard, 2);
        assert_eq!(
            c.epoch(),
            epoch_before + 1,
            "ring install must bump the epoch"
        );
        assert!(
            c.migrations_in_flight() > 0,
            "the new ring must claim documents"
        );
        let (settled, _) = c.quiesce(now);

        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0, "no document migrated to the new shard");
        assert_eq!(rs.migrations_completed, rs.docs_moved);
        assert_eq!(c.migrations_in_flight(), 0);
        let mut moved = 0;
        for ((uri, marker), before) in markers.iter().zip(&owners_before) {
            let owner = c.owner(uri);
            assert!(
                c.holds_marker(uri, marker),
                "acked marker {marker} lost while resharding {uri}"
            );
            if owner == *before {
                continue;
            }
            moved += 1;
            assert_eq!(
                owner, new_shard,
                "documents can only move to the joining shard"
            );
            // the stale route hits the old owner's fence: 421 plus the
            // pointers a client needs to re-resolve
            let done = match c.serve_at(*before, &doc_url(uri), settled) {
                Submitted::Done(d) => d,
                Submitted::Pending(_) => panic!("fence cannot pend"),
            };
            assert_eq!(done.response.status, 421);
            assert_eq!(done.outcome, ClusterOutcome::Misrouted);
            assert_eq!(
                done.response.header("X-XQIB-Owner"),
                Some(new_shard.to_string().as_str())
            );
            assert_eq!(
                done.response.header("X-XQIB-Epoch"),
                Some(c.epoch().to_string().as_str())
            );
            // and the routed path serves the moved document fine
            let ok = match c.submit(&doc_url(uri), settled) {
                Submitted::Done(d) => d,
                Submitted::Pending(_) => panic!("doc reads cannot pend"),
            };
            assert_eq!(ok.response.status, 200);
        }
        assert_eq!(moved as u64, rs.docs_moved);
        // a moved document accepts updates at its new home
        let moved_uri = markers
            .iter()
            .zip(&owners_before)
            .find(|((u, _), b)| c.owner(u) != **b)
            .map(|((u, _), _)| u.clone())
            .unwrap();
        let _ = put_marker(&mut c, &moved_uri, "after-move", settled + 1);
        assert!(c.holds_marker(&moved_uri, "after-move"));
    }

    #[test]
    fn decommission_drains_documents_and_retires_the_seats() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 3,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let homed_on_1 = markers.iter().filter(|(u, _)| c.owner(u) == 1).count();
        assert!(
            homed_on_1 > 0,
            "seed must home documents on the leaving shard"
        );

        assert!(c.decommission_shard(1));
        assert!(c.is_draining(1));
        assert!(!c.decommission_shard(1), "double decommission must refuse");
        let (settled, _) = c.quiesce(now);

        assert!(c.is_retired(1), "drained shard must retire");
        let rs = c.reshard_stats();
        assert_eq!(rs.drains, 1);
        assert!(rs.docs_moved as usize >= homed_on_1);
        for (uri, marker) in &markers {
            assert_ne!(c.owner(uri), 1, "{uri} still routed to the retired shard");
            assert!(
                c.holds_marker(uri, marker),
                "acked marker {marker} lost draining {uri}"
            );
        }
        // the retired shard refuses everything with the fence
        let done = match c.serve_at(1, &doc_url(&markers[0].0), settled) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("fence cannot pend"),
        };
        assert_eq!(done.response.status, 421);
        // and a retired shard never blocks quiescence
        let (_, _) = c.quiesce(settled);
    }

    #[test]
    fn the_last_shard_cannot_be_decommissioned() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        assert!(!c.decommission_shard(0));
        assert!(!c.is_draining(0));
        assert_eq!(c.epoch(), 0);
    }

    #[test]
    fn rebalance_moves_keys_without_losing_acked_updates() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 3,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        c.rebalance(7);
        assert_eq!(c.epoch(), 1);
        let (_, _) = c.quiesce(now);
        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0, "a reseeded ring must move some keys");
        for (uri, marker) in &markers {
            assert!(
                c.holds_marker(uri, marker),
                "{marker} lost in rebalance of {uri}"
            );
        }
    }

    #[test]
    fn scheduled_topology_changes_apply_at_their_time() {
        let mut c = seeded(ClusterConfig {
            shards: 2,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        c.schedule(&ClusterChaos {
            topology: vec![(500, TopologyChange::AddShard)],
            ..ClusterChaos::default()
        });
        let _ = c.advance(100);
        assert_eq!(c.shard_count(), 2, "topology change applied early");
        let _ = c.advance(600);
        assert_eq!(c.shard_count(), 3);
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn leader_crash_mid_migration_pauses_until_failover_then_completes() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let new_shard = c.add_shard();
        // the destination loses its leader before any copy can start: every
        // migration to it parks until failover elects a replacement
        c.crash_leader(new_shard, now);
        let _ = c.advance(now + 1);
        assert!(c.migrations_in_flight() > 0);
        let (_, _) = c.quiesce(now + 1);
        assert!(
            c.has_leader(new_shard),
            "failover must restaff the destination"
        );
        assert_eq!(
            c.migrations_in_flight(),
            0,
            "migrations must finish after failover"
        );
        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0);
        for (uri, marker) in &markers {
            assert!(
                c.holds_marker(uri, marker),
                "{marker} lost migrating {uri} across a destination crash"
            );
        }
    }

    /// Satellite: migration × scrubber. Latent rot on the migration
    /// destination mid-copy is caught by the cutover digest cross-check;
    /// the cluster re-copies cleanly instead of cutting over to rot.
    #[test]
    fn rotten_destination_copy_is_recopied_never_cut_over() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            scrub_interval_ms: 0, // isolate the migration's own cross-check
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let dest = c.add_shard();
        // first tick starts the copies
        let _ = c.advance(now);
        let copying: Vec<String> = c
            .migrations
            .iter()
            .filter(|m| matches!(m.phase, MigrationPhase::Copying { .. }))
            .map(|m| m.uri.clone())
            .collect();
        assert!(!copying.is_empty(), "no copy started on the first tick");
        // silent rot between the destination's store and its seal, exactly
        // the divergence a digest cross-check exists to catch
        let poisoned = &copying[0];
        assert!(c.shards[dest]
            .leader
            .as_mut()
            .unwrap()
            .db
            .poison_recorded_digest(poisoned));
        let before = c.reshard_stats().migrations_aborted;
        let (_, _) = c.quiesce(now + 1);
        let rs = c.reshard_stats();
        assert!(
            rs.migrations_aborted > before,
            "rotten copy must abort and re-copy, not cut over: {rs:?}"
        );
        assert_eq!(c.migrations_in_flight(), 0);
        assert_eq!(
            c.owner(poisoned),
            dest,
            "re-copy must still complete the move"
        );
        for (uri, marker) in &markers {
            assert!(c.holds_marker(uri, marker), "{marker} lost on {uri}");
        }
    }
}
