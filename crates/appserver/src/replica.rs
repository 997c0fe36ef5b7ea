//! # Follower replicas and the replication protocol
//!
//! The one module that knows how a shard leader talks to its followers.
//! The leader sends a term-stamped [`ReplMsg`] — committed WAL frames (the
//! exact on-disk bytes, CRC and all), a checkpoint snapshot, or a failover
//! probe — and the follower's [`ReplicaNode`] answers with a [`ReplReply`].
//! Every message crosses the seat's [`Link`], which draws the same seeded
//! [`FaultPlan`] schedule a virtual-network host would: a message can be
//! lost before the replica sees it, or the replica can run it and its
//! reply be lost on the way back.

use std::rc::Rc;

use xqib_browser::{Fault, FaultPlan};
#[cfg(test)]
use xqib_dom::serialize::serialize_document;
use xqib_dom::store::shared_store;
use xqib_dom::{DocImage, SharedStore};
use xqib_storage::{Checkpoint, IntegrityError, VirtualDisk, Wal, WalRecord, WAL_FILE};
use xqib_xquery::wire;

use crate::cluster::Topology;
use crate::xmldb::{
    apply_wal_record, doc_digest, doc_image, dump_store, with_doc, DurabilityConfig,
};

/// A leader→follower message. It travels with the sender's term, which
/// fences stale leaders; probes ignore it.
pub(crate) enum ReplMsg {
    /// Committed WAL frames, possibly cut short in flight.
    Frames(Vec<u8>),
    /// An encoded [`Checkpoint`]: a full snapshot for a log gap or a
    /// new-term reset, possibly cut short in flight.
    Snapshot(Vec<u8>),
    /// A failover probe for the replica's `(term, acked)`.
    Probe,
}

/// A follower's answer to one [`ReplMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplReply {
    /// Durable through this frame sequence.
    Ack(u64),
    /// A frame batch broke at a document this shard may not hold; the
    /// frames before the break are durable through `acked`.
    OwnershipRefused { acked: u64 },
    /// A snapshot was not installed: it names a document this shard may
    /// not hold (`ownership`), or it did not decode, parse or persist.
    SnapshotRefused { ownership: bool },
    /// The sender's term is older than the replica's.
    StaleTerm,
    /// Probe answer: the replica's term and durable position.
    State { term: u64, acked: u64 },
}

impl ReplReply {
    /// Whether the replica refused the message over document ownership.
    pub(crate) fn refuses_ownership(self) -> bool {
        matches!(
            self,
            ReplReply::OwnershipRefused { .. } | ReplReply::SnapshotRefused { ownership: true }
        )
    }
}

/// One leader→follower link: the seat's fault plan, if any, and how many
/// messages it has carried (the plan's per-request index).
#[derive(Default)]
pub(crate) struct Link {
    plan: Option<(FaultPlan, u64)>,
}

impl Link {
    pub(crate) fn with_plan(plan: FaultPlan) -> Link {
        Link {
            plan: Some((plan, 0)),
        }
    }

    /// Adds a `[from, to)` outage window. A link without a fault plan
    /// first gets one from `make`; one with a plan keeps its earlier
    /// windows and its request index.
    pub(crate) fn down_between(&mut self, from: u64, to: u64, make: impl FnOnce() -> FaultPlan) {
        let (plan, _) = self.plan.get_or_insert_with(|| (make(), 0));
        plan.flaps.push((from, to));
    }

    /// Carries one message sent at `now`; `run` is the replica handling it.
    /// Returns the replica's reply if it ran, with the latency after which
    /// the leader hears it — `None` when the reply is lost.
    pub(crate) fn carry(
        &mut self,
        now: u64,
        latency_ms: u64,
        run: impl FnOnce() -> ReplReply,
    ) -> Option<(ReplReply, Option<u64>)> {
        let (fault, jitter) = match &mut self.plan {
            Some((plan, index)) => {
                let d = plan.decide(*index, now);
                *index += 1;
                d
            }
            None => (None, 0),
        };
        match fault {
            Some(Fault::Timeout | Fault::Error(_)) => None,
            // a cut-off reply is as good as none: the leader cannot read it
            Some(Fault::ReplyLost | Fault::Truncate) => Some((run(), None)),
            None => Some((run(), Some(latency_ms + jitter))),
        }
    }
}

/// A follower replica: its own store, disk and WAL position. The leader
/// only ever talks to it through [`ReplMsg`]s carried by the seat's
/// [`Link`].
pub(crate) struct ReplicaNode {
    shard: usize,
    term: u64,
    store: SharedStore,
    disk: VirtualDisk,
    cfg: DurabilityConfig,
    ckpt_gen: u64,
    /// Highest frame applied to the in-memory store.
    applied: u64,
    /// Highest frame durable on this follower's own disk.
    acked: u64,
}

impl ReplicaNode {
    /// An empty replica of `shard` on `disk` (its WAL deleted).
    pub(crate) fn fresh(shard: usize, disk: VirtualDisk, cfg: DurabilityConfig) -> ReplicaNode {
        disk.delete(WAL_FILE);
        ReplicaNode {
            shard,
            term: 0,
            store: shared_store(),
            disk,
            cfg,
            ckpt_gen: 0,
            applied: 0,
            acked: 0,
        }
    }

    /// A demoted leader staying on as a follower of `term`: its intact
    /// store, durable through `committed` by the checkpoint just written
    /// to `disk`.
    pub(crate) fn demoted(
        shard: usize,
        term: u64,
        store: SharedStore,
        disk: VirtualDisk,
        cfg: DurabilityConfig,
        committed: u64,
    ) -> ReplicaNode {
        let (ck, _) = Checkpoint::read_latest_verified(&disk);
        ReplicaNode {
            shard,
            term,
            store,
            disk,
            cfg,
            ckpt_gen: ck.map(|c| c.gen).unwrap_or(0),
            applied: committed,
            acked: committed,
        }
    }

    pub(crate) fn applied(&self) -> u64 {
        self.applied
    }

    #[cfg(test)]
    pub(crate) fn serialize(&self, uri: &str) -> Option<String> {
        with_doc(&self.store, uri, serialize_document)
    }

    /// The image of a locally-held document's current version: the body
    /// a follower read serves and the digest a verified one checks.
    pub(crate) fn image(&self, uri: &str) -> Option<Rc<DocImage>> {
        with_doc(&self.store, uri, |doc| doc_image(uri, doc))
    }

    /// Handles one message from a leader of `term`.
    pub(crate) fn handle(&mut self, term: u64, msg: ReplMsg, topology: &Topology) -> ReplReply {
        match msg {
            ReplMsg::Probe => ReplReply::State {
                term: self.term,
                acked: self.acked,
            },
            _ if term < self.term => ReplReply::StaleTerm,
            ReplMsg::Frames(data) => self.accept_frames(term, &data, topology),
            ReplMsg::Snapshot(data) => self.install_snapshot(term, &data, topology),
        }
    }

    fn owns(&self, record: &WalRecord, topology: &Topology) -> bool {
        match record {
            WalRecord::Load { uri, .. } | WalRecord::Digest { uri, .. } => {
                topology.replicable_at(self.shard, uri)
            }
            WalRecord::Pul(bytes) => match wire::pul_doc_uris(bytes) {
                Ok(uris) => uris.iter().all(|u| topology.replicable_at(self.shard, u)),
                Err(_) => false,
            },
        }
    }

    /// Replays a shipped byte stream: skip what's already applied, stop at
    /// the first gap, foreign document or inapplicable record, persist the
    /// accepted raw frames, and report the new durable position.
    fn accept_frames(&mut self, term: u64, data: &[u8], topology: &Topology) -> ReplReply {
        self.term = term;
        let replay = Wal::scan_bytes(data);
        let mut start = 0usize;
        let mut refused = false;
        for (seq, record, end) in replay.records {
            let bytes = &data[start..end];
            start = end;
            if seq <= self.applied {
                continue; // idempotent resend after a lost ack
            }
            if seq != self.applied + 1 {
                break; // gap: the sender must fall back to a snapshot
            }
            if !self.owns(&record, topology) {
                refused = true;
                break;
            }
            if !apply_wal_record(&self.store, &record) {
                break;
            }
            self.disk.append(WAL_FILE, bytes);
            self.applied = seq;
        }
        if self.applied > self.acked && self.disk.sync(WAL_FILE).is_ok() {
            self.acked = self.applied;
        }
        self.maybe_checkpoint();
        if refused {
            ReplReply::OwnershipRefused { acked: self.acked }
        } else {
            ReplReply::Ack(self.acked)
        }
    }

    /// Installs a full snapshot (log-gap resync or new-term reset),
    /// replacing local state wholesale, or refuses it whole.
    fn install_snapshot(&mut self, term: u64, data: &[u8], topology: &Topology) -> ReplReply {
        let refused = |ownership| ReplReply::SnapshotRefused { ownership };
        let Some(ck) = Checkpoint::decode(data) else {
            return refused(false);
        };
        if ck
            .docs
            .iter()
            .any(|(uri, _)| !topology.replicable_at(self.shard, uri))
        {
            return refused(true);
        }
        let store = shared_store();
        for (uri, xml) in &ck.docs {
            let Ok(doc) = xqib_dom::parse_document(xml) else {
                return refused(false);
            };
            store.borrow_mut().add_document(doc, Some(uri));
        }
        let local = Checkpoint {
            gen: self.ckpt_gen + 1,
            seq: ck.seq,
            docs: ck.docs,
        };
        if local.write(&self.disk).is_err() {
            return refused(false);
        }
        self.ckpt_gen += 1;
        self.disk.truncate(WAL_FILE);
        self.term = term;
        self.store = store;
        self.applied = local.seq;
        self.acked = local.seq;
        ReplReply::Ack(self.acked)
    }

    /// Followers checkpoint independently once their copy of the log grows
    /// past the threshold, truncating it just like the leader does.
    fn maybe_checkpoint(&mut self) {
        let threshold = self.cfg.checkpoint_threshold;
        if threshold == 0 || self.disk.len(WAL_FILE) <= threshold {
            return;
        }
        self.force_checkpoint();
    }

    /// Writes a fresh checkpoint from the replica's intact in-memory state
    /// and truncates its WAL. Beyond the size-triggered housekeeping this
    /// is the node-local *repair* path: a rotted WAL frame or checkpoint
    /// slot is superseded wholesale by a new snapshot of memory, with no
    /// window where acked state exists only on damaged media.
    pub(crate) fn force_checkpoint(&mut self) -> bool {
        let ck = Checkpoint {
            gen: self.ckpt_gen + 1,
            seq: self.applied,
            docs: dump_store(&self.store),
        };
        if ck.write(&self.disk).is_ok() {
            self.ckpt_gen += 1;
            self.disk.truncate(WAL_FILE);
            // the checkpoint write fsynced the slot: state is durable
            self.acked = self.applied;
            true
        } else {
            false
        }
    }

    /// Recomputed content digest of one locally-held document, hashed as
    /// it is written.
    pub(crate) fn digest_for(&self, uri: &str) -> Option<u64> {
        with_doc(&self.store, uri, |doc| doc_digest(uri, doc))
    }

    /// Typed integrity verdicts for this replica's own disk image:
    /// mid-prefix WAL damage plus any checkpoint-slot verdicts. A torn WAL
    /// tail is *not* reported — it is the expected crash shape.
    pub(crate) fn disk_damage(&self) -> (bool, Vec<IntegrityError>) {
        let wal_rot = Wal::scan(&self.disk, WAL_FILE).mid_prefix_damage();
        let (_, verdicts) = Checkpoint::read_latest_verified(&self.disk);
        (wal_rot, verdicts)
    }

    /// Fault-injection hook: silently replaces a document in the replica's
    /// *memory*, modelling the divergence a mis-apply or memory fault
    /// would cause. Disk and shipped digests are untouched, so only a
    /// digest cross-check can notice.
    #[cfg(test)]
    pub(crate) fn poison_document(&mut self, uri: &str) -> bool {
        if self.store.borrow().doc_by_uri(uri).is_none() {
            return false;
        }
        let Ok(doc) = xqib_dom::parse_document("<rotted/>") else {
            return false;
        };
        self.store.borrow_mut().add_document(doc, Some(uri));
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cluster::Router;
    use crate::xmldb::XmlDb;

    #[test]
    fn followers_refuse_frames_for_foreign_documents() {
        // a follower of shard 0 fed frames for a document another shard
        // owns must refuse them and not advance its position
        let router = Router::new(4, 9);
        let foreign = (0..64)
            .map(|i| format!("x{i}.xml"))
            .find(|uri| router.owner(uri) != 0)
            .expect("some uri must hash off shard 0");
        let topology = Topology::new(router);
        let mut node = ReplicaNode::fresh(0, VirtualDisk::new(), DurabilityConfig::default());
        // build a real frame stream via a scratch durable db
        let scratch = VirtualDisk::new();
        let mut db = XmlDb::durable(scratch.clone(), DurabilityConfig::default());
        db.load(&foreign, "<root/>").unwrap();
        db.commit().unwrap();
        let data = scratch.read(WAL_FILE).unwrap();
        let reply = node.handle(1, ReplMsg::Frames(data.clone()), &topology);
        assert_eq!(reply, ReplReply::OwnershipRefused { acked: 0 });
        assert!(reply.refuses_ownership());
        assert_eq!(node.applied(), 0);
        assert!(node.serialize(&foreign).is_none());
        // a stale-term sender is fenced before the frames are looked at
        let mut fenced = ReplicaNode::fresh(0, VirtualDisk::new(), DurabilityConfig::default());
        fenced.term = 3;
        assert_eq!(
            fenced.handle(2, ReplMsg::Frames(data), &topology),
            ReplReply::StaleTerm
        );
        assert_eq!(
            fenced.handle(0, ReplMsg::Probe, &topology),
            ReplReply::State { term: 3, acked: 0 }
        );
    }
}
