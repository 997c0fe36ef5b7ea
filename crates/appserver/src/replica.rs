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

use std::collections::BTreeMap;

use xqib_browser::{Fault, FaultPlan};
use xqib_storage::{Checkpoint, VirtualDisk, Wal};

use crate::cluster::Topology;
use crate::xmldb::{record_uris, DurabilityConfig, XmlDb};

/// A leader→follower message. It travels with the sender's term, which
/// fences stale leaders; probes ignore it.
pub(crate) enum ReplMsg {
    /// Committed WAL frames, possibly cut short in flight.
    Frames(Vec<u8>),
    /// An encoded [`Checkpoint`]: a full snapshot for a log gap or a
    /// new-term reset, possibly cut short in flight, and the leader's
    /// seals that cover it (refused with it when it is cut short).
    Snapshot(Vec<u8>, BTreeMap<String, u64>),
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

/// A follower replica: the protocol around a durable [`XmlDb`] over the
/// seat's disk. The node's appended position is what the replica has
/// applied, its committed position what it has acked; its memory, WAL and
/// checkpoints are `XmlDb`'s own, so the disk is always an image
/// [`XmlDb::recover`] can promote. The leader only ever talks to it
/// through [`ReplMsg`]s carried by the seat's [`Link`].
pub(crate) struct ReplicaNode {
    shard: usize,
    term: u64,
    pub(crate) db: XmlDb,
}

impl ReplicaNode {
    /// An empty replica of `shard` on `disk` (its files wiped).
    pub(crate) fn fresh(shard: usize, disk: VirtualDisk, cfg: DurabilityConfig) -> ReplicaNode {
        ReplicaNode {
            shard,
            term: 0,
            db: XmlDb::durable(disk, cfg),
        }
    }

    /// A demoted leader staying on as a follower of `term`, keeping its
    /// intact memory and its disk.
    pub(crate) fn demoted(
        shard: usize,
        term: u64,
        mut db: XmlDb,
        cfg: DurabilityConfig,
    ) -> ReplicaNode {
        db.set_durability_config(cfg);
        ReplicaNode { shard, term, db }
    }

    /// Highest frame applied to memory.
    pub(crate) fn applied(&self) -> u64 {
        self.db.appended_seq()
    }

    /// Handles one message from a leader of `term`.
    pub(crate) fn handle(&mut self, term: u64, msg: ReplMsg, topology: &Topology) -> ReplReply {
        match msg {
            ReplMsg::Probe => ReplReply::State {
                term: self.term,
                acked: self.db.committed_seq(),
            },
            _ if term < self.term => ReplReply::StaleTerm,
            ReplMsg::Frames(data) => self.accept_frames(term, &data, topology),
            ReplMsg::Snapshot(data, seals) => self.install_snapshot(term, &data, seals, topology),
        }
    }

    /// Replays a shipped byte stream: skip what's already applied, stop at
    /// the first gap, foreign document or inapplicable record, persist the
    /// accepted raw frames, and report the new durable position. A frame's
    /// documents are skimmed once, for the ownership check and the seal
    /// rule alike.
    fn accept_frames(&mut self, term: u64, data: &[u8], topology: &Topology) -> ReplReply {
        self.term = term;
        let replay = Wal::scan_bytes(data);
        let mut start = 0usize;
        let mut refused = false;
        for (seq, record, end) in replay.records {
            let frame = &data[start..end];
            start = end;
            let applied = self.applied();
            if seq <= applied {
                continue; // idempotent resend after a lost ack
            }
            if seq != applied + 1 {
                break; // gap: the sender must fall back to a snapshot
            }
            let owned = record_uris(&record)
                .filter(|uris| uris.iter().all(|u| topology.replicable_at(self.shard, u)));
            let Some(uris) = owned else {
                refused = true;
                break;
            };
            if !self.db.accept_frame(seq, &record, &uris, frame) {
                break;
            }
        }
        let _ = self.db.commit();
        if self.db.checkpoint_due() {
            self.db.checkpoint_applied();
        }
        let acked = self.db.committed_seq();
        if refused {
            ReplReply::OwnershipRefused { acked }
        } else {
            ReplReply::Ack(acked)
        }
    }

    /// Installs a full snapshot (log-gap resync or new-term reset),
    /// replacing local state wholesale, or refuses it whole.
    fn install_snapshot(
        &mut self,
        term: u64,
        data: &[u8],
        seals: BTreeMap<String, u64>,
        topology: &Topology,
    ) -> ReplReply {
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
        if !self.db.install_snapshot(ck, seals) {
            return refused(false);
        }
        self.term = term;
        ReplReply::Ack(self.db.committed_seq())
    }

    /// Fault-injection hook: silently replaces a document in the replica's
    /// *memory*, modelling the divergence a mis-apply or memory fault
    /// would cause. Disk and seals are untouched, so only a check of
    /// memory against the seals can notice.
    #[cfg(test)]
    pub(crate) fn poison_document(&mut self, uri: &str) -> bool {
        let mut store = self.db.store.borrow_mut();
        if store.doc_by_uri(uri).is_none() {
            return false;
        }
        let Ok(doc) = xqib_dom::parse_document("<rotted/>") else {
            return false;
        };
        store.add_document(doc, Some(uri));
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cluster::Router;
    use xqib_storage::WAL_FILE;

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
        assert!(node.db.serialize(&foreign).is_none());
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

    /// Ships `leader`'s committed state to `node` as the pump would: the
    /// frames after the follower's acked position, or a snapshot when a
    /// checkpoint truncated frames it still needs.
    fn ship(leader: &mut XmlDb, node: &mut ReplicaNode, topology: &Topology) -> ReplReply {
        let msg = match leader.committed_frames_after(node.db.committed_seq()) {
            Some(frames) => ReplMsg::Frames(frames.into_iter().flat_map(|f| f.bytes).collect()),
            None => {
                let (ckpt, seals) = leader.replication_snapshot().unwrap();
                ReplMsg::Snapshot(ckpt.encode(), seals)
            }
        };
        node.handle(1, msg, topology)
    }

    /// Promotion recovers a follower's disk, so every way a follower
    /// writes it — shipped frames, a log-gap snapshot, a size-triggered
    /// checkpoint and a scrub repair — must leave an image `XmlDb::recover`
    /// turns back into the follower's acked state.
    #[test]
    fn a_followers_disk_is_a_recoverable_xmldb_image() {
        let topology = Topology::new(Router::new(1, 3));
        let manual = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 0,
        };
        let mut leader = XmlDb::durable(VirtualDisk::new(), manual);
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 512,
        };
        let mut node = ReplicaNode::fresh(0, VirtualDisk::new(), cfg);
        let checkpoints = |node: &ReplicaNode| node.db.durability_stats().checkpoints;
        let update = |leader: &mut XmlDb, uri: &str, v: &str| {
            let q = format!("insert node <v>{v}</v> into doc('{uri}')/*");
            leader.query(&q).unwrap();
        };
        // shipped frames
        leader.load("a.xml", "<a/>").unwrap();
        update(&mut leader, "a.xml", "1");
        assert_eq!(ship(&mut leader, &mut node, &topology), ReplReply::Ack(4));
        // a log gap: the leader checkpointed past frames the follower lacks
        leader.load("b.xml", "<b/>").unwrap();
        leader.checkpoint().unwrap();
        update(&mut leader, "b.xml", "2");
        assert!(leader.committed_frames_after(4).is_none());
        assert_eq!(ship(&mut leader, &mut node, &topology), ReplReply::Ack(8));
        assert_eq!(
            checkpoints(&node),
            1,
            "the snapshot is the node's own checkpoint"
        );
        // frames past the threshold: a size-triggered checkpoint
        let big = format!("<c>{}</c>", "<x>padding</x>".repeat(40));
        leader.load("c.xml", &big).unwrap();
        assert_eq!(ship(&mut leader, &mut node, &topology), ReplReply::Ack(10));
        assert_eq!(checkpoints(&node), 2, "the threshold was crossed");
        // a scrub repair rewrites the checkpoint from memory, then more
        // frames land in the truncated log
        update(&mut leader, "a.xml", "3");
        assert_eq!(ship(&mut leader, &mut node, &topology), ReplReply::Ack(12));
        assert!(node.db.checkpoint_applied());
        update(&mut leader, "c.xml", "4");
        assert_eq!(ship(&mut leader, &mut node, &topology), ReplReply::Ack(14));
        assert!(!node.db.disk_damage().any());

        let image = node.db.disk().unwrap().clone_image();
        let recovered = XmlDb::recover(image, cfg).unwrap();
        assert_eq!(recovered.committed_seq(), node.db.committed_seq());
        assert_eq!(recovered.dump(), node.db.dump());
        assert_eq!(recovered.dump(), leader.dump());
        for (uri, _) in leader.dump() {
            assert!(leader.digest_of(&uri).is_some(), "{uri} unsealed");
            assert_eq!(node.db.digest_of(&uri), leader.digest_of(&uri), "{uri}");
            assert_eq!(recovered.digest_of(&uri), leader.digest_of(&uri), "{uri}");
        }
    }
}
