//! # Replicated XmlDb cluster
//!
//! A leader/follower tier over N [`XmlDb`] shards. Documents are routed to
//! shards by a consistent-hash ring; each shard is one durable leader
//! ([`AppServer`]) plus K followers that replicate by **WAL shipping**: the
//! leader sends its committed WAL frames — the exact on-disk bytes, CRC
//! and all — over a fault-injected [`VirtualNetwork`], and each follower
//! replays them through the same [`apply_wal_record`] redo path recovery
//! uses, appending the raw frames to its *own* WAL so its disk image stays
//! a byte-prefix of the leader's log (modulo its own checkpoints).
//!
//! The protocol leans on three properties the storage tier already has:
//!
//! * **Torn-tail tolerance** — a truncated shipment decodes to the longest
//!   intact frame prefix ([`Wal::scan_bytes`]), so a cut-off message just
//!   acks less and the rest is resent.
//! * **Idempotent replay** — frames at or below the follower's applied
//!   sequence are skipped, so a resend after a lost ack
//!   ([`xqib_browser::net::Fault::ReplyLost`]) is harmless.
//! * **Checkpoint = snapshot** — when the leader has checkpointed past a
//!   straggler's position (log gap), it ships a [`Checkpoint`] as a full
//!   snapshot instead.
//!
//! An update is **acked** (HTTP 200 surfaced to the client) only once the
//! leader has fsynced it *and* at least `ack_replicas` followers have
//! durably acknowledged its sequence. On leader crash, the cluster waits
//! `failover_detect_ms`, then probes followers over the (possibly
//! partitioned) network until it hears from `K - ack_replicas + 1` of them
//! — a set that must intersect every ack quorum — and promotes the one
//! with the greatest `(term, acked)` pair (Raft's election restriction)
//! via the ordinary [`AppServer::recover`] path. The
//! new term starts by asserting the new leader's state: every surviving
//! follower gets a term-stamped snapshot, which fences stale leaders and
//! erases any un-acked divergent suffix a partitioned follower may hold
//! (a deliberately simplified Raft-style log reset). Under partition the
//! blackout simply extends until a quorum is reachable — consistency over
//! availability, by construction.
//!
//! Everything runs on virtual time and seeded draws: identical seeds give
//! bit-identical replication schedules, failovers and reports.
//!
//! # Online membership & live resharding
//!
//! Topology is no longer fixed at construction: the ring is versioned by a
//! [`TopologyEpoch`], and [`Cluster::add_shard`] /
//! [`Cluster::decommission_shard`] / [`Cluster::rebalance`] reshape it
//! *live*. A ring change never moves routing by itself — every document
//! stays **homed** on the shard currently serving it until its own
//! two-phase migration completes: (1) a checkpoint-style snapshot copy is
//! installed at the destination leader (journaled like any load, so the
//! destination's followers pick it up over the ordinary WAL-shipping
//! resync path) while the source keeps serving; then (2) after the copy
//! window, the destination is integrity-checked (rot forces a clean
//! re-copy, never a rotten cutover), the WAL tail of updates the source
//! accepted during the copy is forwarded, and the cutover fence is
//! stamped atomically: the source refuses the document with 421 + the new
//! epoch, and routing flips to the destination in the same tick.
//! Decommission drains every homed document this way, then retires the
//! shard's seats. Migrations compose with crashes, partitions and decay:
//! a step that needs a leader simply waits for failover to supply one.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use xqib_browser::recovery::{CircuitBreaker, RecoveryStats, RetryPolicy};
use xqib_browser::{FaultPlan, NetOutcome, Request, Response, VirtualNetwork};
use xqib_dom::store::shared_store;
use xqib_dom::SharedStore;
use xqib_storage::{
    content_digest, fnv1a, mix64, Checkpoint, IntegrityError, StorageFaultPlan, VirtualDisk, Wal,
    WalRecord, WAL_FILE,
};
use xqib_xquery::wire;

use crate::governor::Class;
use crate::metrics::ServerMetrics;
use crate::render;
use crate::server::{param, split_url, AppServer, ServerResponse};
use crate::xmldb::{apply_wal_record, DurabilityConfig, XmlDb};

/// Lowercase-hex encodes replication payloads for the text-bodied
/// [`Request`] transport.
fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
    }
    out
}

/// Decodes as many whole hex pairs as are intact; a truncated or mangled
/// tail yields a byte *prefix* — exactly the torn-shipment shape the WAL
/// scanner is built to absorb.
fn from_hex(s: &str) -> Vec<u8> {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    let mut i = 0;
    while i + 1 < b.len() {
        match ((b[i] as char).to_digit(16), (b[i + 1] as char).to_digit(16)) {
            (Some(hi), Some(lo)) => out.push((hi * 16 + lo) as u8),
            _ => break,
        }
        i += 2;
    }
    out
}

/// First `u64` attribute with this name in a tiny XML reply.
fn parse_attr(xml: &str, name: &str) -> Option<u64> {
    let pat = format!("{name}=\"");
    let start = xml.find(&pat)? + pat.len();
    let rest = &xml[start..];
    rest[..rest.find('"')?].parse().ok()
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Consistent-hash ring mapping document URIs to shards. Every member
/// contributes `VNODES` seeded points; a URI belongs to the first point at
/// or after its own hash (wrapping). Deterministic in `(members, seed)`.
/// A member's points depend only on its own id, so growing the ring moves
/// the minimum: only the keys that land on the new member's arcs.
#[derive(Debug, Clone)]
pub struct Router {
    ring: Vec<(u64, usize)>,
    members: Vec<usize>,
}

/// Virtual points per member. Load imbalance of a random-point ring
/// scales as `1/sqrt(VNODES)` — 128 points keeps the max/min shard load
/// within 3× with wide margin for any realistic member count (the
/// ring-balance property test in `tests/reshard.rs` enforces this).
const VNODES: u64 = 128;

impl Router {
    pub fn new(shards: usize, seed: u64) -> Router {
        let members: Vec<usize> = (0..shards.max(1)).collect();
        Router::with_members(&members, seed)
    }

    /// A ring over an explicit member set — live topologies are sparse
    /// (a decommissioned shard's id never comes back).
    pub fn with_members(members: &[usize], seed: u64) -> Router {
        let mut members = members.to_vec();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            members.push(0);
        }
        let mut ring = Vec::with_capacity(members.len() * VNODES as usize);
        for &s in &members {
            for v in 0..VNODES {
                ring.push((mix64(seed ^ ((s as u64) << 20) ^ v), s));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|(h, _)| *h);
        Router { ring, members }
    }

    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// The shard ids participating in this ring, sorted.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The shard that owns `uri`.
    pub fn owner(&self, uri: &str) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        let h = mix64(fnv1a(uri.as_bytes()));
        let i = match self.ring.binary_search_by(|(p, _)| p.cmp(&h)) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        };
        self.ring[i].1
    }
}

// ---------------------------------------------------------------------
// Topology: epoch-versioned ring + document homes
// ---------------------------------------------------------------------

/// Monotonic version of the cluster's routing state. Bumped on every ring
/// change; surfaced in 421 fencing refusals so clients re-resolve.
pub type TopologyEpoch = u64;

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

/// Cumulative resharding counters, mirrored into [`ServerMetrics`] via
/// [`ServerMetrics::record_resharding`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReshardStats {
    /// Ring installs (add, decommission, rebalance) — each bumps the epoch.
    pub epoch_bumps: u64,
    /// Per-document migrations that entered the copy phase.
    pub migrations_started: u64,
    /// Migrations that reached cutover.
    pub migrations_completed: u64,
    /// Copy phases abandoned: destination rot forced a re-copy, or a ring
    /// change retargeted the document mid-flight.
    pub migrations_aborted: u64,
    /// Documents whose home moved to a new shard.
    pub docs_moved: u64,
    /// Committed WAL records the source accepted during a copy window and
    /// forwarded to the destination before cutover.
    pub tail_frames_forwarded: u64,
    /// Fences stamped at cutover (source starts refusing with 421 + epoch).
    pub cutover_fences: u64,
    /// Decommissioned shards fully drained and retired.
    pub drains: u64,
}

/// Shared routing state: the ring, its epoch, and the per-document *home*
/// pins that keep routing stable while migrations are in flight. Cheap to
/// clone — all holders see every install and cutover instantly.
#[derive(Clone)]
pub(crate) struct Topology {
    state: Rc<RefCell<TopologyState>>,
}

struct TopologyState {
    router: Router,
    epoch: TopologyEpoch,
    /// Documents pinned to the shard currently serving them. Routing
    /// consults homes *before* the ring, so a ring install moves no
    /// traffic until the per-document cutover flips the pin.
    homes: BTreeMap<String, usize>,
    /// Every shard that has ever legitimately held a copy of the document.
    /// Grows monotonically: the store has no removal API, so source
    /// replicas and aborted-copy destinations keep the bytes and must keep
    /// accepting replication frames for them.
    resident: BTreeMap<String, Vec<usize>>,
}

impl Topology {
    fn new(router: Router) -> Topology {
        Topology {
            state: Rc::new(RefCell::new(TopologyState {
                router,
                epoch: 0,
                homes: BTreeMap::new(),
                resident: BTreeMap::new(),
            })),
        }
    }

    fn epoch(&self) -> TopologyEpoch {
        self.state.borrow().epoch
    }

    /// The shard a request for `uri` must go to *now*: its home pin if it
    /// has one, else the ring.
    fn owner(&self, uri: &str) -> usize {
        let st = self.state.borrow();
        match st.homes.get(uri) {
            Some(&s) => s,
            None => st.router.owner(uri),
        }
    }

    /// Where the current ring says `uri` should eventually live.
    fn ring_owner(&self, uri: &str) -> usize {
        self.state.borrow().router.owner(uri)
    }

    fn members(&self) -> Vec<usize> {
        self.state.borrow().router.members().to_vec()
    }

    /// Whether `shard` may hold/replicate `uri`: it is the home, or a
    /// past/under-copy resident.
    fn replicable_at(&self, shard: usize, uri: &str) -> bool {
        let st = self.state.borrow();
        match st.homes.get(uri) {
            Some(&home) if home == shard => return true,
            None if st.router.owner(uri) == shard => return true,
            _ => {}
        }
        st.resident.get(uri).is_some_and(|r| r.contains(&shard))
    }

    /// Installs a new ring and bumps the epoch.
    fn install(&self, router: Router) -> TopologyEpoch {
        let mut st = self.state.borrow_mut();
        st.router = router;
        st.epoch += 1;
        st.epoch
    }

    /// Pins `uri` to the shard that loaded it.
    fn note_home(&self, uri: &str, shard: usize) {
        let mut st = self.state.borrow_mut();
        st.homes.insert(uri.to_string(), shard);
        let res = st.resident.entry(uri.to_string()).or_default();
        if !res.contains(&shard) {
            res.push(shard);
        }
    }

    /// Marks `to` a legitimate resident while the copy runs.
    fn begin_copy(&self, uri: &str, to: usize) {
        let mut st = self.state.borrow_mut();
        let res = st.resident.entry(uri.to_string()).or_default();
        if !res.contains(&to) {
            res.push(to);
        }
    }

    /// Atomic cutover: the home pin flips to `to` and the epoch bumps in
    /// one tick, so the source's acceptances (old epoch) and the
    /// destination's (new epoch) can never share an epoch. `from` stays
    /// resident (its replicas keep the bytes forever).
    fn cutover(&self, uri: &str, to: usize) -> TopologyEpoch {
        let mut st = self.state.borrow_mut();
        st.homes.insert(uri.to_string(), to);
        let res = st.resident.entry(uri.to_string()).or_default();
        if !res.contains(&to) {
            res.push(to);
        }
        st.epoch += 1;
        st.epoch
    }

    /// Snapshot of every document's current home, sorted by URI.
    fn homes(&self) -> Vec<(String, usize)> {
        self.state
            .borrow()
            .homes
            .iter()
            .map(|(u, &s)| (u.clone(), s))
            .collect()
    }
}

/// One in-flight two-phase document migration.
#[derive(Debug, Clone)]
struct Migration {
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

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Cumulative replication counters, mirrored into [`ServerMetrics`] via
/// [`ServerMetrics::record_replication`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplicationStats {
    /// WAL frames shipped to followers (every attempt, including resends).
    pub frames_shipped: u64,
    /// Frame sequence numbers durably acknowledged by followers.
    pub frames_acked: u64,
    /// Frames re-shipped after a lost/failed attempt.
    pub frames_retried: u64,
    /// Full snapshots shipped (log gap, or term-change reset).
    pub snapshots_shipped: u64,
    /// Failover probes sent to followers.
    pub probes: u64,
    /// Leader promotions performed.
    pub failovers: u64,
    /// Render reads served by a follower instead of the leader.
    pub follower_reads: u64,
    /// Shipments or requests refused because the document is not owned by
    /// the shard.
    pub ownership_rejections: u64,
    /// Total virtual milliseconds some shard spent leaderless.
    pub blackout_ms: u64,
    /// High-water replica lag (leader committed − follower acked frames).
    pub max_replica_lag: u64,
}

/// Cumulative end-to-end integrity counters: latent decay observed, scrub
/// verdicts, quarantines and verified repairs. Mirrored into
/// [`ServerMetrics`] via [`ServerMetrics::record_integrity`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Anti-entropy scrub cycles run across the cluster.
    pub scrub_cycles: u64,
    /// Per-document digest comparisons performed by the scrubber.
    pub scrub_docs_checked: u64,
    /// Replica documents whose content digest disagreed with the digest
    /// the leader recorded at journal time.
    pub scrub_digest_mismatches: u64,
    /// Mid-prefix WAL damage the scrubber found on a live node's disk
    /// (never a legal crash shape — latent rot or a replication fault).
    pub scrub_wal_corruptions: u64,
    /// Corrupt checkpoint slots the scrubber found.
    pub scrub_ckpt_corruptions: u64,
    /// Scrub passes that found every written checkpoint slot corrupt.
    pub scrub_ckpt_lost: u64,
    /// Followers pulled from the read pool over damage or divergence.
    pub quarantines: u64,
    /// Repairs begun (node-local re-checkpoint or full snapshot resync).
    pub repairs_started: u64,
    /// Quarantined followers readmitted to the read pool after their
    /// digests matched the leader's again.
    pub repairs_verified: u64,
    /// Leaders demoted for sitting on a damaged WAL; failover follows
    /// rather than ever serving bad bytes.
    pub leader_demotions: u64,
    /// Failover winners healed from intact memory before promotion, so
    /// recovery would not truncate acked state at a rotted frame.
    pub promote_heals: u64,
    /// Follower `/doc` bodies digest-verified before being served.
    pub reads_verified: u64,
    /// Follower `/doc` bodies refused (and the seat quarantined) over a
    /// digest mismatch.
    pub reads_refused: u64,
    /// Decay periods swept across every seat disk.
    pub decay_sweeps: u64,
    /// At-rest synced sectors hit by latent bit rot.
    pub sectors_decayed: u64,
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Cluster topology and replication tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub seed: u64,
    /// Shards (consistent-hash partitions), each with its own leader.
    pub shards: usize,
    /// Followers per shard.
    pub followers: usize,
    /// Followers that must durably ack an update before the client sees
    /// 200 (clamped to the live follower count; 0 = leader-only acks).
    pub ack_replicas: usize,
    /// Leader durability (group commit, checkpoint threshold).
    pub durability: DurabilityConfig,
    /// Follower durability (checkpoint threshold for the shipped log).
    pub follower_durability: DurabilityConfig,
    /// Fault plan template for every replication link; reseeded per
    /// follower host so links fail independently.
    pub repl_fault: Option<FaultPlan>,
    /// ‰ of shipments truncated in flight by the cluster itself (exercises
    /// torn-frame acceptance end to end, on top of any network plan).
    pub ship_truncate_permille: u16,
    /// Max frames per shipment.
    pub max_batch_frames: usize,
    /// Round-trip latency of every replication link, virtual ms.
    pub link_latency_ms: u64,
    /// Backoff schedule for failed shipments.
    pub retry: RetryPolicy,
    /// Consecutive link failures before the breaker opens.
    pub breaker_failures: u32,
    /// How long an open link breaker stays open, virtual ms.
    pub breaker_open_ms: u64,
    /// Leaderless time before failover probing starts.
    pub failover_detect_ms: u64,
    /// Delay between probe rounds while gathering the failover quorum.
    pub probe_retry_ms: u64,
    /// Pending updates time out with 503 after this long un-acked.
    pub ack_timeout_ms: u64,
    /// Serve `/doc` renders from followers within `max_read_lag`.
    pub follower_reads: bool,
    /// Bounded staleness for healthy-path follower reads, in frames.
    pub max_read_lag: u64,
    /// Fault plan template for every seat's virtual disk; reseeded per seat
    /// so disks fail independently.
    pub disk_fault: Option<StorageFaultPlan>,
    /// Anti-entropy scrub interval, virtual ms (`0` disables scrubbing).
    pub scrub_interval_ms: u64,
    /// How long a quarantined follower stays out of the read pool before
    /// probation; readmission still requires its digests to match.
    pub quarantine_ms: u64,
    /// Copy-phase window of a document migration, virtual ms: how long the
    /// source keeps serving (accumulating a WAL tail) after the snapshot
    /// lands at the destination, before tail-forwarding and cutover.
    pub migration_copy_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 0,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            durability: DurabilityConfig::default(),
            follower_durability: DurabilityConfig::default(),
            repl_fault: None,
            ship_truncate_permille: 0,
            max_batch_frames: 64,
            link_latency_ms: 5,
            retry: RetryPolicy::default(),
            breaker_failures: 5,
            breaker_open_ms: 100,
            failover_detect_ms: 150,
            probe_retry_ms: 25,
            ack_timeout_ms: 1500,
            follower_reads: true,
            max_read_lag: 64,
            disk_fault: None,
            scrub_interval_ms: 250,
            quarantine_ms: 400,
            migration_copy_ms: 40,
        }
    }
}

// ---------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------

/// A follower replica: its own store, disk and WAL position. Lives behind
/// the seat's network handler; the leader only ever talks to it through
/// [`VirtualNetwork`] messages.
pub struct ReplicaNode {
    shard: usize,
    term: u64,
    store: SharedStore,
    disk: VirtualDisk,
    cfg: DurabilityConfig,
    topology: Topology,
    stats: Rc<RefCell<ReplicationStats>>,
    ckpt_gen: u64,
    /// Highest frame applied to the in-memory store.
    applied: u64,
    /// Highest frame durable on this follower's own disk.
    acked: u64,
}

impl ReplicaNode {
    fn fresh(
        shard: usize,
        disk: VirtualDisk,
        topology: Topology,
        stats: Rc<RefCell<ReplicationStats>>,
        cfg: DurabilityConfig,
    ) -> ReplicaNode {
        disk.delete(WAL_FILE);
        ReplicaNode {
            shard,
            term: 0,
            store: shared_store(),
            disk,
            cfg,
            topology,
            stats,
            ckpt_gen: 0,
            applied: 0,
            acked: 0,
        }
    }

    pub fn applied(&self) -> u64 {
        self.applied
    }

    pub fn acked(&self) -> u64 {
        self.acked
    }

    pub fn serialize(&self, uri: &str) -> Option<String> {
        let store = self.store.borrow();
        let id = store.doc_by_uri(uri)?;
        Some(xqib_dom::serialize::serialize_document(store.doc(id)))
    }

    fn owns(&self, record: &WalRecord) -> bool {
        match record {
            WalRecord::Load { uri, .. } | WalRecord::Digest { uri, .. } => {
                self.topology.replicable_at(self.shard, uri)
            }
            WalRecord::Pul(bytes) => match wire::pul_doc_uris(bytes) {
                Ok(uris) => uris
                    .iter()
                    .all(|u| self.topology.replicable_at(self.shard, u)),
                Err(_) => false,
            },
        }
    }

    /// Replays a shipped byte stream: skip what's already applied, stop at
    /// the first gap, foreign document or inapplicable record, persist the
    /// accepted raw frames, and report the new durable position plus
    /// whether the batch was refused over ownership. `None` fences a
    /// stale-term sender.
    fn accept_frames(&mut self, term: u64, data: &[u8]) -> Option<(u64, bool)> {
        if term < self.term {
            return None;
        }
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
            if !self.owns(&record) {
                self.stats.borrow_mut().ownership_rejections += 1;
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
        Some((self.acked, refused))
    }

    /// Installs a full snapshot (log-gap resync or new-term reset),
    /// replacing local state wholesale. `None` fences stale terms, refuses
    /// foreign documents and undecodable payloads.
    fn install_snapshot(&mut self, term: u64, data: &[u8]) -> Option<u64> {
        if term < self.term {
            return None;
        }
        let ck = Checkpoint::decode(data)?;
        for (uri, _) in &ck.docs {
            if !self.topology.replicable_at(self.shard, uri) {
                self.stats.borrow_mut().ownership_rejections += 1;
                return None;
            }
        }
        let store = shared_store();
        for (uri, xml) in &ck.docs {
            let doc = xqib_dom::parse_document(xml).ok()?;
            store.borrow_mut().add_document(doc, Some(uri));
        }
        let local = Checkpoint {
            gen: self.ckpt_gen + 1,
            seq: ck.seq,
            docs: ck.docs,
        };
        if local.write(&self.disk).is_err() {
            return None;
        }
        self.ckpt_gen += 1;
        self.disk.truncate(WAL_FILE);
        self.term = term;
        self.store = store;
        self.applied = local.seq;
        self.acked = local.seq;
        Some(self.acked)
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
    fn force_checkpoint(&mut self) -> bool {
        let docs = {
            let store = self.store.borrow();
            store
                .uri_bindings()
                .into_iter()
                .map(|(uri, id)| (uri, xqib_dom::serialize::serialize_document(store.doc(id))))
                .collect()
        };
        let ck = Checkpoint {
            gen: self.ckpt_gen + 1,
            seq: self.applied,
            docs,
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

    /// Recomputed content digest of one locally-held document.
    fn digest_for(&self, uri: &str) -> Option<u64> {
        self.serialize(uri).map(|xml| content_digest(uri, &xml))
    }

    /// Typed integrity verdicts for this replica's own disk image:
    /// mid-prefix WAL damage plus any checkpoint-slot verdicts. A torn WAL
    /// tail is *not* reported — it is the expected crash shape.
    fn disk_damage(&self) -> (bool, Vec<IntegrityError>) {
        let wal_rot = Wal::scan(&self.disk, WAL_FILE).mid_prefix_damage();
        let (_, verdicts) = Checkpoint::read_latest_verified(&self.disk);
        (wal_rot, verdicts)
    }

    /// Fault-injection hook: silently replaces a document in the replica's
    /// *memory*, modelling the divergence a mis-apply or memory fault
    /// would cause. Disk and shipped digests are untouched, so only a
    /// digest cross-check can notice.
    pub fn poison_document(&mut self, uri: &str) -> bool {
        if self.store.borrow().doc_by_uri(uri).is_none() {
            return false;
        }
        let Ok(doc) = xqib_dom::parse_document("<rotted/>") else {
            return false;
        };
        self.store.borrow_mut().add_document(doc, Some(uri));
        true
    }

    fn handle(node: &Rc<RefCell<Option<ReplicaNode>>>, req: &Request) -> Response {
        let mut guard = node.borrow_mut();
        let Some(n) = guard.as_mut() else {
            return Response {
                status: 503,
                body: "<error>not a replica</error>".to_string(),
                content_type: "application/xml".to_string(),
            };
        };
        if req.query_param("probe").is_some() {
            return Response::ok(format!(
                "<state term=\"{}\" acked=\"{}\" applied=\"{}\"/>",
                n.term, n.acked, n.applied
            ));
        }
        let term = req
            .query_param("term")
            .and_then(|t| t.parse().ok())
            .unwrap_or(0);
        let body = req.body.as_deref().unwrap_or("");
        let acked = match body.split_at(usize::from(!body.is_empty())) {
            ("F", hex) => n.accept_frames(term, &from_hex(hex)),
            ("S", hex) => n.install_snapshot(term, &from_hex(hex)).map(|a| (a, false)),
            _ => {
                return Response {
                    status: 400,
                    body: "<error>bad replication payload</error>".to_string(),
                    content_type: "application/xml".to_string(),
                }
            }
        };
        match acked {
            Some((seq, false)) => Response::ok(format!("<ack seq=\"{seq}\"/>")),
            // foreign document in the batch: a non-200 reply makes the
            // leader count a failure (backoff, breaker) instead of
            // hot-looping the identical shipment on every tick
            Some((seq, true)) => Response {
                status: 421,
                body: format!("<nack reason=\"ownership\" seq=\"{seq}\"/>"),
                content_type: "application/xml".to_string(),
            },
            None => Response {
                status: 409,
                body: format!("<nack term=\"{}\"/>", n.term),
                content_type: "application/xml".to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Cluster plumbing
// ---------------------------------------------------------------------

/// Read-pool standing of a follower seat — the same trip/cool-off/probe
/// shape as `xqib_browser::quarantine`, driven by the scrubber instead of
/// listener failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeatHealth {
    /// In the read pool; digests clean as far as the scrubber knows.
    Healthy,
    /// Out of the read pool while a repair is in flight; stays out at
    /// least until the deadline even if it catches up sooner.
    Quarantined { until: u64 },
    /// Cool-off served; readmission waits on the scrubber verifying the
    /// seat is caught up with matching digests.
    Probation,
}

/// One node slot in a shard: a stable host name and disk, plus the
/// leader-side link state used while the seat is a follower.
struct Seat {
    host: String,
    disk: VirtualDisk,
    /// `Some` while this seat is a follower; `None` while it's the leader.
    replica: Rc<RefCell<Option<ReplicaNode>>>,
    /// Leader's knowledge of this follower's durable position — learned
    /// exclusively from ack replies, never by peeking.
    acked: u64,
    /// Highest frame seq ever put on the wire to this seat, counted after
    /// in-flight truncation; frames at or below it are retries when
    /// re-shipped.
    shipped_top: u64,
    attempt: u32,
    next_send_at: u64,
    /// Ship a term-stamped snapshot before any frames (new-term reset).
    force_snapshot: bool,
    breaker: CircuitBreaker,
    rstats: RecoveryStats,
    /// Scrubber-managed read-pool standing.
    health: SeatHealth,
}

/// An update applied on the leader but not yet covered by the ack rule.
struct PendingUpdate {
    id: u64,
    seq: u64,
    arrival: u64,
    url: String,
    response: ServerResponse,
}

struct Shard {
    term: u64,
    leader: Option<AppServer>,
    leader_seat: usize,
    seats: Vec<Seat>,
    pending: VecDeque<PendingUpdate>,
    leaderless_since: Option<u64>,
    next_probe_at: u64,
    /// Probe answers `(term, acked)` gathered during the current failover.
    probed: Vec<Option<(u64, u64)>>,
    /// Decommission in progress: out of the ring, still serving its homed
    /// documents until each one's migration cuts over.
    draining: bool,
    /// Fully drained and shut down; refuses everything with 421.
    retired: bool,
}

/// How a cluster request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterOutcome {
    /// Served by the shard leader (any class, any status).
    Served,
    /// Render read served by an in-sync follower.
    FollowerRead,
    /// Render read served stale by a follower during a blackout.
    DegradedRead,
    /// Update durably acked per the replication ack rule.
    AckedUpdate,
    /// Update applied on the leader but not ack-covered in time.
    AckTimeout,
    /// Update applied on a leader that crashed before the ack rule held;
    /// the promoted leader does not have it.
    LostInFailover,
    /// No leader and no degraded path could serve it.
    NoLeader,
    /// The target shard does not own the document.
    Misrouted,
}

/// A finished cluster request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCompletion {
    pub id: u64,
    pub shard: usize,
    pub class: Class,
    pub url: String,
    pub arrival: u64,
    pub finished: u64,
    pub outcome: ClusterOutcome,
    pub response: ServerResponse,
}

/// What `submit` produced: an immediate completion, or a pending update id
/// whose completion a later [`Cluster::advance`] will emit.
#[derive(Debug)]
pub enum Submitted {
    Done(Box<ClusterCompletion>),
    Pending(u64),
}

/// The replicated tier. See the module docs for the protocol.
pub struct Cluster {
    cfg: ClusterConfig,
    topology: Topology,
    /// Seed of the currently installed ring; [`Cluster::rebalance`] folds
    /// a salt into it.
    ring_seed: u64,
    net: VirtualNetwork,
    shards: Vec<Shard>,
    stats: Rc<RefCell<ReplicationStats>>,
    istats: IntegrityStats,
    rstats: ReshardStats,
    migrations: Vec<Migration>,
    topo_schedule: Vec<(u64, TopologyChange)>,
    crashes: Vec<(u64, usize)>,
    next_id: u64,
    read_rr: u64,
    send_seq: u64,
    next_scrub_at: u64,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let nshards = cfg.shards.max(1);
        let topology = Topology::new(Router::new(nshards, cfg.seed));
        let stats = Rc::new(RefCell::new(ReplicationStats::default()));
        let mut net = VirtualNetwork::new();
        let mut shards = Vec::with_capacity(nshards);
        for s in 0..nshards {
            shards.push(Cluster::spawn_shard(&cfg, &mut net, &topology, &stats, s));
        }
        Cluster {
            ring_seed: cfg.seed,
            cfg,
            topology,
            net,
            shards,
            stats,
            istats: IntegrityStats::default(),
            rstats: ReshardStats::default(),
            migrations: Vec::new(),
            topo_schedule: Vec::new(),
            crashes: Vec::new(),
            next_id: 0,
            read_rr: 0,
            send_seq: 0,
            next_scrub_at: 0,
        }
    }

    /// Builds one shard's seats (leader + followers) and wires its hosts
    /// into the network. Associated so [`Cluster::add_shard`] can call it
    /// with disjoint field borrows.
    fn spawn_shard(
        cfg: &ClusterConfig,
        net: &mut VirtualNetwork,
        topology: &Topology,
        stats: &Rc<RefCell<ReplicationStats>>,
        s: usize,
    ) -> Shard {
        let mut seats = Vec::with_capacity(cfg.followers + 1);
        for slot in 0..=cfg.followers {
            let host = format!("s{s}r{slot}.xqib");
            let disk = match &cfg.disk_fault {
                Some(plan) => {
                    let mut plan = plan.clone();
                    plan.seed = mix64(cfg.seed ^ 0xd15c ^ ((s as u64) << 32) ^ slot as u64);
                    VirtualDisk::with_plan(plan)
                }
                None => VirtualDisk::new(),
            };
            let replica: Rc<RefCell<Option<ReplicaNode>>> = Rc::new(RefCell::new(None));
            if slot != 0 {
                *replica.borrow_mut() = Some(ReplicaNode::fresh(
                    s,
                    disk.clone(),
                    topology.clone(),
                    stats.clone(),
                    cfg.follower_durability,
                ));
                if let Some(plan) = &cfg.repl_fault {
                    let mut plan = plan.clone();
                    plan.seed = mix64(cfg.seed ^ ((s as u64) << 32) ^ slot as u64);
                    net.set_fault_plan(&host, plan);
                }
            }
            let handler_node = replica.clone();
            net.register(
                &format!("http://{host}/"),
                cfg.link_latency_ms,
                move |req| ReplicaNode::handle(&handler_node, req),
            );
            seats.push(Seat {
                host,
                disk,
                replica,
                acked: 0,
                shipped_top: 0,
                attempt: 0,
                next_send_at: 0,
                force_snapshot: false,
                breaker: CircuitBreaker::new(cfg.breaker_failures, cfg.breaker_open_ms),
                rstats: RecoveryStats::default(),
                health: SeatHealth::Healthy,
            });
        }
        let db = XmlDb::durable(seats[0].disk.clone(), cfg.durability);
        Shard {
            term: 1,
            leader: Some(AppServer::from_db(db)),
            leader_seat: 0,
            seats,
            pending: VecDeque::new(),
            leaderless_since: None,
            next_probe_at: 0,
            probed: vec![None; cfg.followers + 1],
            draining: false,
            retired: false,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn owner(&self, uri: &str) -> usize {
        self.topology.owner(uri)
    }

    /// Current topology epoch; bumped by every ring install.
    pub fn epoch(&self) -> TopologyEpoch {
        self.topology.epoch()
    }

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

    /// Schedules a topology change; [`advance`](Self::advance) applies it.
    pub fn schedule_topology(&mut self, at: u64, change: TopologyChange) {
        self.topo_schedule.push((at, change));
        self.topo_schedule.sort_by_key(|(t, _)| *t);
    }

    pub fn term(&self, shard: usize) -> u64 {
        self.shards[shard].term
    }

    pub fn leader_seat(&self, shard: usize) -> usize {
        self.shards[shard].leader_seat
    }

    pub fn has_leader(&self, shard: usize) -> bool {
        self.shards[shard].leader.is_some()
    }

    pub fn stats(&self) -> ReplicationStats {
        self.stats.borrow().clone()
    }

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

    /// Leader committed sequence, `None` during a blackout.
    pub fn leader_committed(&self, shard: usize) -> Option<u64> {
        self.shards[shard]
            .leader
            .as_ref()
            .map(|l| l.db.committed_seq())
    }

    /// Per-follower lag (leader committed − follower acked), leader's view.
    pub fn replica_lag(&self, shard: usize) -> Vec<u64> {
        let sh = &self.shards[shard];
        let committed = sh
            .leader
            .as_ref()
            .map(|l| l.db.committed_seq())
            .unwrap_or(0);
        sh.seats
            .iter()
            .enumerate()
            .filter(|(i, seat)| *i != sh.leader_seat && seat.replica.borrow().is_some())
            .map(|(_, seat)| committed.saturating_sub(seat.acked))
            .collect()
    }

    /// Serialized document from the owning shard's leader.
    pub fn serialize(&self, uri: &str) -> Option<String> {
        let shard = &self.shards[self.topology.owner(uri)];
        shard.leader.as_ref().and_then(|l| l.db.serialize(uri))
    }

    /// True when the owning leader's copy of `uri` contains `needle`.
    pub fn contains(&self, uri: &str, needle: &str) -> bool {
        self.serialize(uri).is_some_and(|xml| xml.contains(needle))
    }

    /// Loads a document into its owning shard and pins its home there;
    /// returns the shard index.
    pub fn load(&mut self, uri: &str, xml: &str) -> Option<usize> {
        let s = self.topology.owner(uri);
        let leader = self.shards[s].leader.as_mut()?;
        leader.db.load(uri, xml).ok()?;
        let _ = leader.db.commit();
        leader.invalidate_snapshots();
        self.topology.note_home(uri, s);
        Some(s)
    }

    /// Schedules a leader crash; [`advance`](Self::advance) executes it.
    pub fn crash_leader_at(&mut self, at: u64, shard: usize) {
        self.crashes.push((at, shard));
        self.crashes.sort_unstable();
    }

    /// Crashes the shard's leader now: power-loss on its disk (torn
    /// unsynced tail), leadership vacated.
    pub fn crash_leader(&mut self, shard: usize, now: u64) {
        let sh = &mut self.shards[shard];
        if sh.leader.take().is_none() {
            return;
        }
        sh.seats[sh.leader_seat].disk.crash();
        sh.leaderless_since = Some(now);
        sh.next_probe_at = now + self.cfg.failover_detect_ms;
        sh.probed = vec![None; sh.seats.len()];
    }

    /// Partitions one follower link for `[from, to)` virtual ms.
    pub fn partition(&mut self, shard: usize, slot: usize, from: u64, to: u64) {
        let host = self.shards[shard].seats[slot].host.clone();
        let mut plan = self
            .cfg
            .repl_fault
            .clone()
            .unwrap_or_else(|| FaultPlan::seeded(0));
        plan.seed = mix64(self.cfg.seed ^ ((shard as u64) << 32) ^ slot as u64);
        plan.flaps.push((from, to));
        self.net.set_fault_plan(&host, plan);
    }

    // -----------------------------------------------------------------
    // Online membership & resharding
    // -----------------------------------------------------------------

    /// Grows the cluster by one fresh shard (next free id), installs a
    /// ring that includes it, and plans migrations for every document the
    /// new ring claims. Returns the new shard's id.
    pub fn add_shard(&mut self, now: u64) -> usize {
        let s = self.shards.len();
        let shard = Cluster::spawn_shard(&self.cfg, &mut self.net, &self.topology, &self.stats, s);
        self.shards.push(shard);
        let mut members = self.topology.members();
        members.push(s);
        self.install_ring(&members, now);
        s
    }

    /// Starts decommissioning a shard: it leaves the ring, every document
    /// homed on it is queued for migration, and once drained its seats are
    /// retired. Returns false if the shard cannot be decommissioned (bad
    /// id, already draining/retired, or last member standing).
    pub fn decommission_shard(&mut self, s: usize, now: u64) -> bool {
        let Some(sh) = self.shards.get(s) else {
            return false;
        };
        if sh.draining || sh.retired {
            return false;
        }
        let members: Vec<usize> = self
            .topology
            .members()
            .into_iter()
            .filter(|&m| m != s)
            .collect();
        if members.is_empty() {
            return false;
        }
        self.shards[s].draining = true;
        self.install_ring(&members, now);
        true
    }

    /// Reseeds the ring over the same members, moving a salted subset of
    /// keys — relief for a hot shard without changing membership.
    pub fn rebalance(&mut self, salt: u64, now: u64) {
        self.ring_seed = mix64(self.ring_seed ^ 0x4eba ^ salt);
        let members = self.topology.members();
        self.install_ring(&members, now);
    }

    fn install_ring(&mut self, members: &[usize], now: u64) {
        self.topology
            .install(Router::with_members(members, self.ring_seed));
        self.rstats.epoch_bumps += 1;
        self.plan_migrations(now);
    }

    /// Applies a scheduled [`TopologyChange`].
    fn apply_change(&mut self, change: TopologyChange, now: u64) {
        match change {
            TopologyChange::AddShard => {
                self.add_shard(now);
            }
            TopologyChange::Decommission(s) => {
                self.decommission_shard(s, now);
            }
            TopologyChange::Rebalance(salt) => self.rebalance(salt, now),
        }
    }

    /// Reconciles the migration queue against the freshly installed ring:
    /// in-flight migrations whose destination the new ring disagrees with
    /// are aborted (their copies stay resident, harmlessly), and every
    /// homed document the ring wants elsewhere gets a migration.
    fn plan_migrations(&mut self, _now: u64) {
        let mut i = 0;
        while i < self.migrations.len() {
            let keep = {
                let m = &self.migrations[i];
                self.topology.ring_owner(&m.uri) == m.to
            };
            if keep {
                i += 1;
            } else {
                self.migrations.remove(i);
                self.rstats.migrations_aborted += 1;
            }
        }
        for (uri, home) in self.topology.homes() {
            if self.shards[home].retired {
                continue; // already moved; stale schedule entry
            }
            let want = self.topology.ring_owner(&uri);
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
    fn drive_migrations(&mut self, now: u64) {
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
                        let _ = self.topology.cutover(&uri, to);
                        self.rstats.cutover_fences += 1;
                        self.rstats.migrations_completed += 1;
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
                                done_at: now + self.cfg.migration_copy_ms,
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
        self.retire_drained(now);
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
        if self.shards[from].leader.is_none() || self.shards[to].leader.is_none() {
            return None; // wait for failover to supply leaders
        }
        let (xml, base_seq) = {
            let leader = self.shards[from].leader.as_mut()?;
            let _ = leader.db.commit();
            let xml = leader.db.serialize(uri)?;
            (xml, leader.db.committed_seq())
        };
        let copy_digest = content_digest(uri, &xml);
        // the destination is a legitimate resident from here on, so its
        // followers accept the shipped frames
        self.topology.begin_copy(uri, to);
        {
            let leader = self.shards[to].leader.as_mut()?;
            leader.db.load(uri, &xml).ok()?;
            let _ = leader.db.commit();
            leader.invalidate_snapshots();
        }
        self.rstats.migrations_started += 1;
        Some(MigrationPhase::Copying {
            done_at: now + self.cfg.migration_copy_ms,
            base_seq,
            copy_digest,
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
        if self.shards[from].leader.is_none() || self.shards[to].leader.is_none() {
            return CutoverStep::Wait;
        }
        // Destination integrity cross-check (satellite: migration ×
        // scrubber). Latent rot on the destination mid-copy — WAL
        // mid-prefix damage, a digest mismatch against the journal-time
        // seal, or a divergent content digest — forces a clean re-copy,
        // never a rotten cutover. A torn WAL *tail* is the legal crash
        // shape and does not count.
        let rotten = {
            let Some(dest) = self.shards[to].leader.as_mut() else {
                return CutoverStep::Wait;
            };
            let wal_rot = matches!(
                dest.db.wal_integrity(),
                Some(IntegrityError::WalCorruption { .. })
            );
            let body_ok = matches!(dest.db.verified_serialize(uri), Ok(Some(_)));
            let digest_ok = dest.db.digest_of(uri) == Some(copy_digest);
            wal_rot || !body_ok || !digest_ok
        };
        if rotten {
            // supersede the damaged bytes from intact memory, then re-copy
            if let Some(dest) = self.shards[to].leader.as_mut() {
                let _ = dest.db.checkpoint();
            }
            return CutoverStep::Recopy;
        }
        // Forward the tail: updates the source accepted during the copy
        // window. The snapshot re-install is idempotent — the final bytes
        // land whether the tail was one record or a hundred — but it is
        // only the destination *leader's* state so far, so the fence must
        // wait until the forwarded copy has replicated there too.
        let src_view = {
            let Some(src) = self.shards[from].leader.as_mut() else {
                return CutoverStep::Wait;
            };
            let _ = src.db.commit();
            src.db.serialize(uri).map(|xml| {
                let tail = src.db.tail_records_touching(uri, base_seq);
                (xml, src.db.committed_seq(), tail)
            })
        };
        let Some((final_xml, new_base, tail)) = src_view else {
            // The source durably lost the document mid-copy — a failover
            // promoted a follower that never replicated it. There is no
            // tail left to forward; the destination's intact copy is the
            // best surviving state, so fence to it once it is durable
            // rather than waiting forever for bytes that no longer exist.
            if !self.replica_durable(to) {
                return CutoverStep::Wait;
            }
            let _ = self.topology.cutover(uri, to);
            self.rstats.docs_moved += 1;
            self.rstats.cutover_fences += 1;
            self.rstats.migrations_completed += 1;
            return CutoverStep::Done;
        };
        let final_digest = content_digest(uri, &final_xml);
        if final_digest != copy_digest {
            let Some(dest) = self.shards[to].leader.as_mut() else {
                return CutoverStep::Wait;
            };
            if dest.db.load(uri, &final_xml).is_err() {
                return CutoverStep::Recopy;
            }
            let _ = dest.db.commit();
            dest.invalidate_snapshots();
            return CutoverStep::Forwarded {
                base_seq: new_base,
                copy_digest: final_digest,
                tail,
            };
        }
        // The copy must be as durable at the destination as an acked
        // update: the ack-rule quorum of destination followers has to hold
        // it before the source may stop being the home. Otherwise a
        // destination-leader crash right after cutover would promote a
        // follower that never saw the document — losing updates that were
        // acked (durably!) back on the source.
        if !self.replica_durable(to) {
            return CutoverStep::Wait;
        }
        // the fence: routing flips, the epoch bumps, and the source starts
        // refusing with 421 + the new epoch, atomically in this tick
        let _ = self.topology.cutover(uri, to);
        self.rstats.docs_moved += 1;
        self.rstats.cutover_fences += 1;
        self.rstats.migrations_completed += 1;
        CutoverStep::Done
    }

    /// Whether the shard's leader state is replicated per the ack rule:
    /// at least `ack_replicas` (clamped to the live follower count)
    /// followers have durably acked everything the leader committed.
    fn replica_durable(&self, s: usize) -> bool {
        let sh = &self.shards[s];
        let Some(leader) = sh.leader.as_ref() else {
            return false;
        };
        let committed = leader.db.committed_seq();
        let live: Vec<&Seat> = sh
            .seats
            .iter()
            .enumerate()
            .filter(|(i, seat)| *i != sh.leader_seat && seat.replica.borrow().is_some())
            .map(|(_, seat)| seat)
            .collect();
        let need = self.cfg.ack_replicas.min(live.len());
        live.iter().filter(|seat| seat.acked >= committed).count() >= need
    }

    /// Retires draining shards that no longer home any document and have
    /// no in-flight migration or pending update: leadership and every
    /// follower seat shut down; the shard refuses everything with 421.
    fn retire_drained(&mut self, _now: u64) {
        for s in 0..self.shards.len() {
            if !self.shards[s].draining || self.shards[s].retired {
                continue;
            }
            if self.topology.homes().iter().any(|(_, h)| *h == s) {
                continue;
            }
            if self.migrations.iter().any(|m| m.from == s) {
                continue;
            }
            if !self.shards[s].pending.is_empty() {
                continue;
            }
            let sh = &mut self.shards[s];
            sh.retired = true;
            sh.leader = None;
            sh.leaderless_since = None;
            for seat in &mut sh.seats {
                *seat.replica.borrow_mut() = None;
            }
            self.rstats.drains += 1;
        }
    }

    /// The document URI a request routes by — what clients should cache
    /// routing decisions against (and re-resolve on a 421).
    pub fn routing_uri(url: &str) -> String {
        let (path, query) = split_url(url);
        if let Some(uri) = param(&query, "uri") {
            return uri;
        }
        if path == "/query" || path == "/update" {
            if let Some(xq) = param(&query, "xq") {
                if let Some(uri) = first_doc_literal(&xq) {
                    return uri;
                }
            }
        }
        render::CORPUS_URI.to_string()
    }

    /// Routes a request to its owning shard and serves it.
    pub fn submit(&mut self, url: &str, now: u64) -> Submitted {
        let shard = self.topology.owner(&Self::routing_uri(url));
        self.serve_at(shard, url, now)
    }

    /// Serves a request on a specific shard, refusing documents the shard
    /// does not own or no longer serves (421 + the current epoch, so
    /// clients can re-resolve). `submit` always routes correctly; this is
    /// the enforcement point a stale client or migrated-away document hits.
    pub fn serve_at(&mut self, shard: usize, url: &str, now: u64) -> Submitted {
        let class = Class::of_url(url);
        let id = self.next_id;
        self.next_id += 1;
        let done = |response: ServerResponse, outcome: ClusterOutcome, finished: u64| {
            Submitted::Done(Box::new(ClusterCompletion {
                id,
                shard,
                class,
                url: url.to_string(),
                arrival: now,
                finished,
                outcome,
                response,
            }))
        };
        let (path, _) = split_url(url);
        if path == "/metrics" {
            let resp = self.metrics_response();
            return done(resp, ClusterOutcome::Served, now);
        }
        let uri = Self::routing_uri(url);
        let owner = self.topology.owner(&uri);
        if owner != shard || self.shards[shard].retired {
            self.stats.borrow_mut().ownership_rejections += 1;
            return done(
                ServerResponse::misrouted(shard, &uri, owner, self.topology.epoch()),
                ClusterOutcome::Misrouted,
                now,
            );
        }
        match class {
            Class::Update => self.serve_update(shard, url, id, now),
            Class::Query => match self.shards[shard].leader.as_mut() {
                Some(leader) => {
                    let resp = leader.handle(url);
                    done(resp, ClusterOutcome::Served, now)
                }
                None => done(no_leader_response(), ClusterOutcome::NoLeader, now),
            },
            Class::Render => self.serve_render(shard, url, &uri, id, now),
        }
    }

    fn serve_update(&mut self, shard: usize, url: &str, id: u64, now: u64) -> Submitted {
        let need = self.cfg.ack_replicas.min(self.cfg.followers);
        let sh = &mut self.shards[shard];
        let Some(leader) = sh.leader.as_mut() else {
            return Submitted::Done(Box::new(ClusterCompletion {
                id,
                shard,
                class: Class::Update,
                url: url.to_string(),
                arrival: now,
                finished: now,
                outcome: ClusterOutcome::NoLeader,
                response: no_leader_response(),
            }));
        };
        let response = leader.handle(url);
        if response.status != 200 {
            return Submitted::Done(Box::new(ClusterCompletion {
                id,
                shard,
                class: Class::Update,
                url: url.to_string(),
                arrival: now,
                finished: now,
                outcome: ClusterOutcome::Served,
                response,
            }));
        }
        let seq = leader.db.appended_seq();
        let _ = leader.db.commit();
        let committed = leader.db.committed_seq();
        let leader_seat = sh.leader_seat;
        let acks = sh
            .seats
            .iter()
            .enumerate()
            .filter(|(i, seat)| {
                *i != leader_seat && seat.replica.borrow().is_some() && seat.acked >= seq
            })
            .count();
        if committed >= seq && acks >= need {
            return Submitted::Done(Box::new(ClusterCompletion {
                id,
                shard,
                class: Class::Update,
                url: url.to_string(),
                arrival: now,
                finished: now,
                outcome: ClusterOutcome::AckedUpdate,
                response,
            }));
        }
        sh.pending.push_back(PendingUpdate {
            id,
            seq,
            arrival: now,
            url: url.to_string(),
            response,
        });
        Submitted::Pending(id)
    }

    fn serve_render(&mut self, shard: usize, url: &str, uri: &str, id: u64, now: u64) -> Submitted {
        let (path, _) = split_url(url);
        let done = |response: ServerResponse, outcome: ClusterOutcome| {
            Submitted::Done(Box::new(ClusterCompletion {
                id,
                shard,
                class: Class::Render,
                url: url.to_string(),
                arrival: now,
                finished: now,
                outcome,
                response,
            }))
        };
        let has_leader = self.shards[shard].leader.is_some();
        if has_leader {
            // bounded-staleness follower read for whole-document fetches
            if self.cfg.follower_reads && path == "/doc" {
                if let Some(resp) = self.follower_doc(shard, uri, false, now) {
                    return done(resp, ClusterOutcome::FollowerRead);
                }
            }
            let resp = match self.shards[shard].leader.as_mut() {
                Some(leader) => leader.handle(url),
                None => no_leader_response(),
            };
            return done(resp, ClusterOutcome::Served);
        }
        // Blackout: a stale whole-document read beats a 503 for the
        // render surface — same contract as the governor's degrade path.
        let stale_uri = if path == "/doc" {
            uri.to_string()
        } else {
            render::CORPUS_URI.to_string()
        };
        if self.topology.owner(&stale_uri) == shard {
            if let Some(resp) = self.follower_doc(shard, &stale_uri, true, now) {
                return done(
                    resp.with_header("X-XQIB-Degraded", "no-leader"),
                    ClusterOutcome::DegradedRead,
                );
            }
        }
        done(no_leader_response(), ClusterOutcome::NoLeader)
    }

    /// A `/doc` body served from a follower replica. Healthy path
    /// (`any_lag = false`): round-robin over *healthy* followers within
    /// `max_read_lag`, and the body's content digest is verified against
    /// the leader's recorded digest before it leaves the cluster — a
    /// mismatch quarantines the seat for resync and falls back to the
    /// leader. Blackout path (`any_lag = true`): the most caught-up
    /// non-quarantined follower, whatever its lag.
    fn follower_doc(
        &mut self,
        shard: usize,
        uri: &str,
        any_lag: bool,
        now: u64,
    ) -> Option<ServerResponse> {
        let sh = &self.shards[shard];
        let committed = sh.leader.as_ref().map(|l| l.db.committed_seq());
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
            let guard = seat.replica.borrow();
            let Some(node) = guard.as_ref() else {
                continue;
            };
            let lag = committed.unwrap_or(node.applied).saturating_sub(seat.acked);
            if !any_lag && lag > self.cfg.max_read_lag {
                continue;
            }
            candidates.push((i, lag, node.applied));
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
        let (body, host, want) = {
            let sh = &self.shards[shard];
            let seat = &sh.seats[seat_idx];
            let guard = seat.replica.borrow();
            let body = guard.as_ref()?.serialize(uri)?;
            let want = sh.leader.as_ref().and_then(|l| l.db.digest_of(uri));
            (body, seat.host.clone(), want)
        };
        // End-to-end read verification: a caught-up follower's body must
        // hash to the digest the leader sealed at journal time. A lagged
        // follower is serving an older (but internally consistent)
        // version, which bounded staleness already permits — only an
        // in-sync body that hashes wrong is corruption.
        if let (Some(c), Some(want)) = (committed, want) {
            if applied >= c {
                if content_digest(uri, &body) != want {
                    self.istats.reads_refused += 1;
                    self.quarantine_and_resync(shard, seat_idx, now);
                    return None;
                }
                self.istats.reads_verified += 1;
            }
        }
        self.stats.borrow_mut().follower_reads += 1;
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
        let topology = self.topology.clone();
        let stats = self.stats.clone();
        let follower_cfg = self.cfg.follower_durability;
        let until = now + self.cfg.quarantine_ms;
        let seat = &mut self.shards[s].seats[i];
        for f in seat.disk.files() {
            seat.disk.delete(&f);
        }
        *seat.replica.borrow_mut() = Some(ReplicaNode::fresh(
            s,
            seat.disk.clone(),
            topology,
            stats,
            follower_cfg,
        ));
        seat.acked = 0;
        seat.shipped_top = 0;
        seat.attempt = 0;
        seat.force_snapshot = true;
        seat.next_send_at = now;
        seat.health = SeatHealth::Quarantined { until };
        self.istats.quarantines += 1;
        self.istats.repairs_started += 1;
    }

    /// One anti-entropy pass over every shard: probe the leader's own WAL
    /// and checkpoint slots, probe every follower's disk, cross-check
    /// replica digests against the leader's recorded digests, and drive
    /// the quarantine → repair → verified-readmission lifecycle.
    fn scrub(&mut self, now: u64) {
        self.istats.scrub_cycles += 1;
        for s in 0..self.shards.len() {
            if self.shards[s].retired {
                continue;
            }
            self.scrub_shard(s, now);
        }
    }

    fn scrub_shard(&mut self, s: usize, now: u64) {
        // --- leader side -------------------------------------------------
        let leader_probe = self.shards[s]
            .leader
            .as_ref()
            .map(|l| (l.db.wal_integrity(), l.db.checkpoint_integrity()));
        if let Some((wal, ckpts)) = leader_probe {
            let mut slot_damage = false;
            for v in &ckpts {
                match v {
                    IntegrityError::CheckpointSlotCorrupt { .. } => {
                        self.istats.scrub_ckpt_corruptions += 1;
                        slot_damage = true;
                    }
                    IntegrityError::AllCheckpointSlotsCorrupt => {
                        self.istats.scrub_ckpt_lost += 1;
                        slot_damage = true;
                    }
                    _ => {}
                }
            }
            let mid_prefix = matches!(wal, Some(IntegrityError::WalCorruption { .. }));
            if mid_prefix {
                self.istats.scrub_wal_corruptions += 1;
            }
            let has_followers = {
                let sh = &self.shards[s];
                sh.seats
                    .iter()
                    .enumerate()
                    .any(|(i, seat)| i != sh.leader_seat && seat.replica.borrow().is_some())
            };
            if mid_prefix && has_followers {
                // The durable log under an otherwise-live leader is rotten.
                // Demote it and let the ordinary election promote a replica
                // whose bytes still verify, rather than ever serving or
                // shipping from damaged media. Unlike a crash, a voluntary
                // step-down must not shrink the candidate set: right after
                // a failover, acked state can exist on the leader alone
                // (follower acks are reset under the new term until their
                // snapshots land). So first supersede the rot with a
                // checkpoint from intact memory, then leave the seat behind
                // as a follower candidate carrying the full committed log —
                // the election restriction re-promotes it, or an equally
                // caught-up peer, with nothing lost. Backdating
                // `leaderless_since` makes the failover detector fire
                // immediately.
                let detect = self.cfg.failover_detect_ms;
                let topology = self.topology.clone();
                let stats = self.stats.clone();
                let follower_cfg = self.cfg.follower_durability;
                let sh = &mut self.shards[s];
                if let Some(mut leader) = sh.leader.take() {
                    let committed = leader.db.committed_seq();
                    let _ = leader.db.checkpoint();
                    let seat = sh.leader_seat;
                    let disk = sh.seats[seat].disk.clone();
                    let (ck, _) = Checkpoint::read_latest_verified(&disk);
                    *sh.seats[seat].replica.borrow_mut() = Some(ReplicaNode {
                        shard: s,
                        term: sh.term,
                        store: leader.db.store.clone(),
                        disk,
                        cfg: follower_cfg,
                        topology,
                        stats,
                        ckpt_gen: ck.map(|c| c.gen).unwrap_or(0),
                        applied: committed,
                        acked: committed,
                    });
                    sh.seats[seat].health = SeatHealth::Healthy;
                }
                sh.leaderless_since = Some(now.saturating_sub(detect));
                sh.next_probe_at = now;
                sh.probed = vec![None; sh.seats.len()];
                self.istats.leader_demotions += 1;
                return; // follower scrubbing resumes once a leader exists
            }
            if mid_prefix || slot_damage {
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
            // lifecycle: a quarantine cool-off elapses into probation
            if let SeatHealth::Quarantined { until } = self.shards[s].seats[i].health {
                if now >= until {
                    self.shards[s].seats[i].health = SeatHealth::Probation;
                }
            }
            let rep = self.shards[s].seats[i].replica.clone();
            let mut guard = rep.borrow_mut();
            let Some(node) = guard.as_mut() else {
                continue;
            };
            // own-disk probe: typed damage self-heals from intact memory
            // (every applied frame was CRC-checked on arrival), so a fresh
            // checkpoint supersedes the rot without losing acked state
            let (wal_rot, verdicts) = node.disk_damage();
            if wal_rot {
                self.istats.scrub_wal_corruptions += 1;
            }
            for v in &verdicts {
                match v {
                    IntegrityError::CheckpointSlotCorrupt { .. } => {
                        self.istats.scrub_ckpt_corruptions += 1;
                    }
                    IntegrityError::AllCheckpointSlotsCorrupt => {
                        self.istats.scrub_ckpt_lost += 1;
                    }
                    _ => {}
                }
            }
            if wal_rot || !verdicts.is_empty() {
                node.force_checkpoint();
                self.istats.repairs_started += 1;
                if self.shards[s].seats[i].health == SeatHealth::Healthy {
                    self.shards[s].seats[i].health = SeatHealth::Quarantined {
                        until: now + self.cfg.quarantine_ms,
                    };
                    self.istats.quarantines += 1;
                }
            }
            // digest cross-check: only meaningful when the replica claims
            // to hold the leader's whole committed log — a lagged replica
            // is old, not wrong
            let caught_up = node.applied >= committed;
            let mut diverged = false;
            if caught_up {
                for (uri, want) in &digests {
                    self.istats.scrub_docs_checked += 1;
                    if node.digest_for(uri) != Some(*want) {
                        self.istats.scrub_digest_mismatches += 1;
                        diverged = true;
                    }
                }
            }
            drop(guard);
            if diverged {
                // divergence means this replica's *memory* can no longer be
                // trusted: wipe and resync from a leader snapshot
                self.quarantine_and_resync(s, i, now);
                continue;
            }
            // probation → healthy only once caught up with clean digests
            if self.shards[s].seats[i].health == SeatHealth::Probation
                && caught_up
                && self.shards[s].seats[i].acked >= committed
            {
                self.shards[s].seats[i].health = SeatHealth::Healthy;
                self.istats.repairs_verified += 1;
            }
        }
    }

    /// One tick of cluster housekeeping: advances latent disk decay,
    /// executes due scheduled crashes, runs the anti-entropy scrubber,
    /// drives failovers, pumps replication links, and resolves pending
    /// updates. Returns the completions that finished at `now`.
    pub fn advance(&mut self, now: u64) -> Vec<ClusterCompletion> {
        let mut out = Vec::new();
        // latent bit rot accrues with virtual time on every seat disk,
        // leader and follower alike — decay never waits for a crash
        for sh in &self.shards {
            for seat in &sh.seats {
                seat.disk.decay_at(now);
            }
        }
        let due: Vec<usize> = self
            .crashes
            .iter()
            .filter(|(at, _)| *at <= now)
            .map(|(_, s)| *s)
            .collect();
        self.crashes.retain(|(at, _)| *at > now);
        for s in due {
            self.crash_leader(s, now);
        }
        let due_topo: Vec<TopologyChange> = self
            .topo_schedule
            .iter()
            .filter(|(at, _)| *at <= now)
            .map(|(_, c)| *c)
            .collect();
        self.topo_schedule.retain(|(at, _)| *at > now);
        for change in due_topo {
            self.apply_change(change, now);
        }
        if self.cfg.scrub_interval_ms > 0 && now >= self.next_scrub_at {
            self.next_scrub_at = now + self.cfg.scrub_interval_ms;
            self.scrub(now);
        }
        for s in 0..self.shards.len() {
            self.try_failover(s, now, &mut out);
        }
        // migrations step after failover (a fresh leader may unblock a
        // copy or cutover this very tick) and before pending resolution
        self.drive_migrations(now);
        // resolve before pumping: an ack earned by this tick's shipment is
        // only *observed* on a later tick, so acks always cost wall time
        for s in 0..self.shards.len() {
            self.resolve_pending(s, now, &mut out);
        }
        for s in 0..self.shards.len() {
            self.pump(s, now);
        }
        out
    }

    /// Steps virtual time from `from` until every shard has a leader, no
    /// update is pending, and every follower is fully caught up (or the
    /// iteration cap trips). Returns the final time and the completions.
    pub fn quiesce(&mut self, from: u64) -> (u64, Vec<ClusterCompletion>) {
        let step = self.cfg.link_latency_ms.max(1);
        let mut now = from;
        let mut out = Vec::new();
        for _ in 0..200_000 {
            out.extend(self.advance(now));
            if self.settled() {
                break;
            }
            now += step;
        }
        (now, out)
    }

    fn settled(&self) -> bool {
        if !self.migrations.is_empty() || !self.topo_schedule.is_empty() {
            return false;
        }
        self.shards.iter().all(|sh| {
            if sh.retired {
                return true; // shut down for good; nothing to wait on
            }
            let Some(leader) = sh.leader.as_ref() else {
                return false;
            };
            let committed = leader.db.committed_seq();
            sh.pending.is_empty()
                && sh.seats.iter().enumerate().all(|(i, seat)| {
                    i == sh.leader_seat
                        || seat.replica.borrow().is_none()
                        || seat.acked >= committed
                })
        })
    }

    fn try_failover(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        let detect = self.cfg.failover_detect_ms;
        let probe_retry = self.cfg.probe_retry_ms;
        if self.shards[s].retired || self.shards[s].leader.is_some() {
            return;
        }
        let since = self.shards[s].leaderless_since.unwrap_or(now);
        if now < since + detect {
            return;
        }
        let follower_seats: Vec<usize> = self.shards[s]
            .seats
            .iter()
            .enumerate()
            .filter(|(_, seat)| seat.replica.borrow().is_some())
            .map(|(i, _)| i)
            .collect();
        if follower_seats.is_empty() {
            // leader-only shard: recover from the crashed disk itself
            let seat = self.shards[s].leader_seat;
            let disk = self.shards[s].seats[seat].disk.clone();
            match AppServer::recover(disk, self.cfg.durability) {
                Ok(server) => self.install_leader(s, seat, server, since, now, out),
                Err(_) => self.shards[s].next_probe_at = now + probe_retry,
            }
            return;
        }
        // probe round: every follower we have not heard from yet
        if now >= self.shards[s].next_probe_at {
            for &i in &follower_seats {
                if self.shards[s].probed[i].is_some() {
                    continue;
                }
                let host = self.shards[s].seats[i].host.clone();
                self.stats.borrow_mut().probes += 1;
                let req = Request::get(&format!("http://{host}/replicate?probe=1"));
                if let NetOutcome::Reply { resp, .. } = self.net.fetch_at(&req, now) {
                    if resp.status == 200 {
                        if let (Some(term), Some(acked)) = (
                            parse_attr(&resp.body, "term"),
                            parse_attr(&resp.body, "acked"),
                        ) {
                            self.shards[s].probed[i] = Some((term, acked));
                        }
                    }
                }
            }
            self.shards[s].next_probe_at = now + probe_retry;
        }
        // Quorum: any K − ack_replicas + 1 followers must include one that
        // holds every acked update (pigeonhole against the ack rule).
        let k = follower_seats.len();
        let quorum = k - self.cfg.ack_replicas.min(k) + 1;
        let heard: Vec<(usize, (u64, u64))> = follower_seats
            .iter()
            .filter_map(|&i| self.shards[s].probed[i].map(|ta| (i, ta)))
            .collect();
        if heard.len() < quorum {
            return;
        }
        // Raft's election restriction, lexicographic on (term, acked): a
        // longer log from a dead term must never beat a shorter one that
        // holds acked updates from a newer term.
        let (win, _) = heard
            .iter()
            .fold(None::<(usize, (u64, u64))>, |best, &(i, ta)| match best {
                Some((_, bta)) if bta >= ta => best,
                _ => Some((i, ta)),
            })
            .unwrap_or((follower_seats[0], (0, 0)));
        // Promotion guard: the winner's disk may carry latent rot that
        // recovery would truncate at, silently dropping acked frames its
        // memory still holds — and rot on the log's last frames is
        // indistinguishable from an ordinary torn tail, so detection can
        // never be complete. A live follower's memory is always at least
        // as new as its disk (`applied >= acked`), so unconditionally
        // checkpoint from memory — truncating whatever the log carried —
        // before handing the disk to recovery.
        {
            let rep = self.shards[s].seats[win].replica.clone();
            let mut guard = rep.borrow_mut();
            if let Some(node) = guard.as_mut() {
                let (wal_rot, verdicts) = node.disk_damage();
                if node.force_checkpoint() && (wal_rot || !verdicts.is_empty()) {
                    self.istats.promote_heals += 1;
                }
            }
        }
        let disk = self.shards[s].seats[win].disk.clone();
        match AppServer::recover(disk, self.cfg.durability) {
            Ok(server) => self.install_leader(s, win, server, since, now, out),
            Err(_) => {
                // damaged candidate: drop it and re-probe the rest
                self.shards[s].probed[win] = None;
                self.shards[s].next_probe_at = now + probe_retry;
            }
        }
    }

    /// Seats `server` as shard `s`'s leader at seat `win`, demotes the old
    /// leader seat to a fresh follower, resets every surviving follower
    /// with a term-stamped snapshot, and fails pending updates the new
    /// leader does not have.
    fn install_leader(
        &mut self,
        s: usize,
        win: usize,
        server: AppServer,
        since: u64,
        now: u64,
        out: &mut Vec<ClusterCompletion>,
    ) {
        let committed = server.db.committed_seq();
        let follower_cfg = self.cfg.follower_durability;
        let topology = self.topology.clone();
        let stats = self.stats.clone();
        let sh = &mut self.shards[s];
        let old = sh.leader_seat;
        if old != win {
            // the crashed leader's seat rejoins as an empty follower and
            // resyncs over the wire like any straggler
            let oseat = &mut sh.seats[old];
            for f in oseat.disk.files() {
                oseat.disk.delete(&f);
            }
            *oseat.replica.borrow_mut() = Some(ReplicaNode::fresh(
                s,
                oseat.disk.clone(),
                topology,
                stats,
                follower_cfg,
            ));
            oseat.acked = 0;
            oseat.shipped_top = 0;
            oseat.attempt = 0;
            oseat.force_snapshot = false;
            oseat.next_send_at = now;
            *sh.seats[win].replica.borrow_mut() = None;
        }
        sh.leader_seat = win;
        sh.leader = Some(server);
        sh.term += 1;
        sh.leaderless_since = None;
        sh.probed = vec![None; sh.seats.len()];
        for (i, seat) in sh.seats.iter_mut().enumerate() {
            if i == win || i == old || seat.replica.borrow().is_none() {
                continue;
            }
            // new term asserts the new leader's log: snapshot reset wipes
            // any divergent un-acked suffix and fences the old term
            seat.force_snapshot = true;
            seat.acked = 0;
            seat.shipped_top = 0;
            seat.attempt = 0;
            seat.next_send_at = now;
        }
        {
            let mut st = self.stats.borrow_mut();
            st.failovers += 1;
            st.blackout_ms += now.saturating_sub(since);
        }
        // pending updates beyond the new leader's log are gone for good
        let mut keep = VecDeque::new();
        while let Some(p) = self.shards[s].pending.pop_front() {
            if p.seq > committed {
                out.push(ClusterCompletion {
                    id: p.id,
                    shard: s,
                    class: Class::Update,
                    url: p.url,
                    arrival: p.arrival,
                    finished: now,
                    outcome: ClusterOutcome::LostInFailover,
                    response: ServerResponse::new(
                        503,
                        "<error code=\"XQIB0016\">update lost in failover; retry</error>",
                    )
                    .with_header("Retry-After", "1"),
                });
            } else {
                keep.push_back(p);
            }
        }
        self.shards[s].pending = keep;
    }

    /// Ships committed WAL frames (or snapshots) to every follower link
    /// whose send timer is due, with breaker + backoff on failures.
    fn pump(&mut self, s: usize, now: u64) {
        let nseats = self.shards[s].seats.len();
        for i in 0..nseats {
            if self.shards[s].leader.is_none() || i == self.shards[s].leader_seat {
                continue;
            }
            if self.shards[s].seats[i].replica.borrow().is_none() {
                continue;
            }
            // phase 1: decide what to ship (leader + seat borrows only)
            let (payload, host, term, frame_meta, was_snapshot) = {
                let cfg = &self.cfg;
                let sh = &mut self.shards[s];
                let seat = &mut sh.seats[i];
                if now < seat.next_send_at {
                    continue;
                }
                if !seat.breaker.allow(now, &mut seat.rstats) {
                    seat.next_send_at = now + cfg.probe_retry_ms.max(1);
                    continue;
                }
                let Some(leader) = sh.leader.as_mut() else {
                    continue;
                };
                let mut snapshot = seat.force_snapshot;
                let mut frames = Vec::new();
                if !snapshot {
                    match leader.db.committed_frames_after(seat.acked) {
                        Some(f) if f.is_empty() => continue, // caught up
                        Some(f) => frames = f,
                        None => snapshot = true, // log gap: checkpointed past
                    }
                }
                if snapshot {
                    match leader.db.replication_snapshot() {
                        Some(ck) => (
                            format!("S{}", to_hex(&ck.encode())),
                            seat.host.clone(),
                            sh.term,
                            Vec::new(),
                            true,
                        ),
                        None => {
                            seat.attempt += 1;
                            seat.next_send_at = now
                                + cfg.retry.backoff_delay(
                                    seat.attempt,
                                    mix64(((s as u64) << 8) | i as u64),
                                );
                            continue;
                        }
                    }
                } else {
                    frames.truncate(cfg.max_batch_frames.max(1));
                    let mut bytes = Vec::new();
                    let mut meta: Vec<(u64, usize)> = Vec::with_capacity(frames.len());
                    for f in &frames {
                        bytes.extend_from_slice(&f.bytes);
                        meta.push((f.seq, bytes.len()));
                    }
                    (
                        format!("F{}", to_hex(&bytes)),
                        seat.host.clone(),
                        sh.term,
                        meta,
                        false,
                    )
                }
            };
            // deterministic in-flight truncation (torn shipments)
            let draw = mix64(self.cfg.seed ^ 0x5eed ^ self.send_seq);
            self.send_seq += 1;
            let body = if self.cfg.ship_truncate_permille > 0
                && draw % 1000 < u64::from(self.cfg.ship_truncate_permille)
            {
                let cut = 1 + (mix64(draw) as usize) % payload.len().max(2);
                payload[..cut.min(payload.len())].to_string()
            } else {
                payload
            };
            // frames whose bytes fully survived the in-flight cut (one tag
            // char, then two hex chars per byte) are the ones on the wire
            let delivered = body.len().saturating_sub(1) / 2;
            let sent: Vec<u64> = frame_meta
                .iter()
                .take_while(|&&(_, end)| end <= delivered)
                .map(|&(seq, _)| seq)
                .collect();
            {
                let shipped_top = self.shards[s].seats[i].shipped_top;
                let mut st = self.stats.borrow_mut();
                if was_snapshot {
                    st.snapshots_shipped += 1;
                } else {
                    st.frames_shipped += sent.len() as u64;
                    st.frames_retried += sent.iter().filter(|&&q| q <= shipped_top).count() as u64;
                }
            }
            // phase 2: the network call (handler may borrow replica/stats)
            let req = Request::post(
                &format!("http://{host}/replicate?shard={s}&term={term}"),
                &body,
            );
            let outcome = self.net.fetch_at(&req, now);
            // phase 3: apply the outcome to the link
            let cfg = &self.cfg;
            let seat = &mut self.shards[s].seats[i];
            if let Some(&top) = sent.last() {
                seat.shipped_top = seat.shipped_top.max(top);
            }
            let mut refused_seq = None;
            let acked = match outcome {
                NetOutcome::Reply { resp, latency_ms } if resp.status == 200 => {
                    parse_attr(&resp.body, "seq").map(|a| (a, latency_ms))
                }
                NetOutcome::Reply { resp, .. } => {
                    refused_seq = parse_attr(&resp.body, "seq");
                    None
                }
                _ => None,
            };
            match acked {
                Some((ack, latency_ms)) => {
                    seat.breaker.on_success(&mut seat.rstats);
                    seat.attempt = 0;
                    if was_snapshot {
                        seat.force_snapshot = false;
                        // log reset: frames beyond the snapshot are fresh
                        seat.shipped_top = ack;
                    }
                    if ack > seat.acked {
                        self.stats.borrow_mut().frames_acked += ack - seat.acked;
                        seat.acked = ack;
                    }
                    // an ack below the shipped top (torn shipment) leaves
                    // committed frames unshipped: the next tick resends
                    seat.next_send_at = now + latency_ms.max(1);
                }
                None => {
                    // an ownership refusal still reports the follower's
                    // durable position for the frames before the break
                    if let Some(a) = refused_seq {
                        if a > seat.acked {
                            self.stats.borrow_mut().frames_acked += a - seat.acked;
                            seat.acked = a;
                        }
                    }
                    seat.breaker.on_failure(now, &mut seat.rstats);
                    seat.attempt += 1;
                    seat.next_send_at = now
                        + cfg
                            .retry
                            .backoff_delay(seat.attempt, mix64(((s as u64) << 8) | i as u64));
                }
            }
            let committed = self.shards[s]
                .leader
                .as_ref()
                .map(|l| l.db.committed_seq())
                .unwrap_or(0);
            let lag = committed.saturating_sub(self.shards[s].seats[i].acked);
            let mut st = self.stats.borrow_mut();
            if lag > st.max_replica_lag {
                st.max_replica_lag = lag;
            }
        }
    }

    /// Emits completions for pending updates whose ack rule now holds, and
    /// times out the rest per `ack_timeout_ms`.
    fn resolve_pending(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        let need = self.cfg.ack_replicas.min(self.cfg.followers);
        let timeout = self.cfg.ack_timeout_ms;
        let sh = &mut self.shards[s];
        let committed = sh.leader.as_ref().map(|l| l.db.committed_seq());
        let leader_seat = sh.leader_seat;
        let mut keep = VecDeque::new();
        while let Some(p) = sh.pending.pop_front() {
            let acks = sh
                .seats
                .iter()
                .enumerate()
                .filter(|(i, seat)| {
                    *i != leader_seat && seat.replica.borrow().is_some() && seat.acked >= p.seq
                })
                .count();
            let satisfied = committed.is_some_and(|c| c >= p.seq) && acks >= need;
            if satisfied {
                out.push(ClusterCompletion {
                    id: p.id,
                    shard: s,
                    class: Class::Update,
                    url: p.url,
                    arrival: p.arrival,
                    finished: now,
                    outcome: ClusterOutcome::AckedUpdate,
                    response: p.response,
                });
            } else if now.saturating_sub(p.arrival) >= timeout {
                out.push(ClusterCompletion {
                    id: p.id,
                    shard: s,
                    class: Class::Update,
                    url: p.url,
                    arrival: p.arrival,
                    finished: now,
                    outcome: ClusterOutcome::AckTimeout,
                    response: ServerResponse::new(
                        503,
                        "<error code=\"XQIB0017\">replication ack timeout; \
                         update applied on the leader but not replicated</error>",
                    )
                    .with_header("Retry-After", "1"),
                });
            } else {
                keep.push_back(p);
            }
        }
        sh.pending = keep;
    }

    /// The `/metrics` surface: the first live leader's metrics with the
    /// cluster's replication, integrity and resharding counters mirrored
    /// in (every live leader gets the same snapshot, so any shard's
    /// endpoint agrees; shard 0 may be retired).
    fn metrics_response(&mut self) -> ServerResponse {
        let stats = self.stats.borrow().clone();
        let istats = self.integrity_stats();
        let rstats = self.rstats.clone();
        for sh in &mut self.shards {
            if let Some(leader) = sh.leader.as_mut() {
                leader.metrics.record_replication(&stats);
                leader.metrics.record_integrity(&istats);
                leader.metrics.record_resharding(&rstats);
            }
        }
        match self.shards.iter_mut().find_map(|sh| sh.leader.as_mut()) {
            Some(leader) => leader.handle("/metrics"),
            None => {
                let mut m = ServerMetrics::default();
                m.record_replication(&stats);
                m.record_integrity(&istats);
                m.record_resharding(&rstats);
                ServerResponse::new(200, m.to_xml())
            }
        }
    }

    /// Mirrors a fleet run's aggregate counters into every live leader's
    /// metrics, so the next `/metrics` render reports the client side of
    /// the deployment alongside the server and replication counters.
    pub fn record_fleet(&mut self, stats: &crate::fleet::FleetStats) {
        for sh in &mut self.shards {
            if let Some(leader) = sh.leader.as_mut() {
                leader.metrics.record_fleet(stats);
            }
        }
    }
}

fn no_leader_response() -> ServerResponse {
    ServerResponse::new(
        503,
        "<error code=\"XQIB0016\">no leader; failover in progress</error>",
    )
    .with_header("Retry-After", "1")
}

/// First `doc("…")` / `doc('…')` literal in an XQuery — the routing key
/// for `/query` and `/update` requests that don't pass `uri=` explicitly.
fn first_doc_literal(xq: &str) -> Option<String> {
    let start = xq.find("doc(")? + 4;
    let rest = &xq[start..];
    let quote = rest.chars().next()?;
    if quote != '"' && quote != '\'' {
        return None;
    }
    let inner = &rest[1..];
    Some(inner[..inner.find(quote)?].to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn doc_url(uri: &str) -> String {
        format!("/doc?uri={uri}")
    }

    fn update_url(uri: &str, marker: &str) -> String {
        format!("/update?xq=insert node <m id=\"{marker}\"/> into doc(\"{uri}\")/*")
    }

    fn seeded(mut cfg: ClusterConfig) -> Cluster {
        cfg.seed = 42;
        let mut c = Cluster::new(cfg);
        for i in 0..6 {
            let uri = format!("d{i}.xml");
            c.load(&uri, &format!("<root n=\"{i}\"/>")).unwrap();
        }
        c
    }

    /// Drives `c` until the pending update `id` completes (or panics).
    fn await_update(c: &mut Cluster, id: u64, mut now: u64) -> (ClusterCompletion, u64) {
        for _ in 0..10_000 {
            for done in c.advance(now) {
                if done.id == id {
                    return (done, now);
                }
            }
            now += 1;
        }
        panic!("update {id} never completed");
    }

    #[test]
    fn router_is_deterministic_and_covers_every_shard() {
        let a = Router::new(4, 7);
        let b = Router::new(4, 7);
        let mut hit = [false; 4];
        for i in 0..200 {
            let uri = format!("doc-{i}.xml");
            assert_eq!(a.owner(&uri), b.owner(&uri));
            hit[a.owner(&uri)] = true;
        }
        assert!(hit.iter().all(|h| *h), "200 URIs should touch all 4 shards");
    }

    #[test]
    fn replicated_update_acks_only_after_the_follower_is_durable() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let url = update_url("d0.xml", "k1");
        let id = match c.submit(&url, 10) {
            Submitted::Pending(id) => id,
            Submitted::Done(d) => panic!("acked before replication: {:?}", d.outcome),
        };
        let (done, _) = await_update(&mut c, id, 10);
        assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
        assert_eq!(done.response.status, 200);
        assert!(done.finished > done.arrival, "ack must cost round trips");
        // the follower replica holds the marker via shipped WAL frames
        let sh0 = &c.shards[0];
        let follower = sh0.seats[1].replica.borrow();
        let xml = follower.as_ref().unwrap().serialize("d0.xml").unwrap();
        assert!(xml.contains("k1"), "follower missing the update: {xml}");
        let stats = c.stats();
        assert!(stats.frames_shipped > 0);
        assert!(stats.frames_acked > 0);
        // clean links: every shipped frame acks exactly once, none re-sent
        assert_eq!(stats.frames_shipped, stats.frames_acked);
        assert_eq!(stats.frames_retried, 0);
    }

    #[test]
    fn leader_only_cluster_acks_immediately_and_self_recovers() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let done = match c.submit(&update_url("d0.xml", "solo"), 5) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("leader-only update should ack synchronously"),
        };
        assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
        c.crash_leader(0, 100);
        assert!(!c.has_leader(0));
        let (_, _) = c.quiesce(100);
        assert!(c.has_leader(0), "self-recovery should restore the leader");
        assert!(
            c.contains("d0.xml", "solo"),
            "acked update lost in self-recovery"
        );
        assert_eq!(c.stats().failovers, 1);
    }

    #[test]
    fn leader_crash_promotes_a_follower_and_keeps_every_acked_update() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let mut acked = Vec::new();
        let mut now = 0;
        for i in 0..8 {
            let marker = format!("m{i}");
            match c.submit(&update_url("d0.xml", &marker), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
            acked.push(marker);
        }
        c.crash_leader(0, now);
        let (_, _) = c.quiesce(now);
        assert!(c.has_leader(0), "failover should elect a new leader");
        assert_ne!(c.leader_seat(0), 0, "a follower must have been promoted");
        assert_eq!(c.term(0), 2);
        for marker in &acked {
            assert!(
                c.contains("d0.xml", marker),
                "acked update {marker} lost across failover"
            );
        }
        assert_eq!(c.stats().failovers, 1);
        assert!(c.stats().blackout_ms > 0);
    }

    #[test]
    fn double_failover_is_idempotent_on_acked_state() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let mut now = 0;
        for round in 0..2 {
            let marker = format!("r{round}");
            match c.submit(&update_url("d0.xml", &marker), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(_) => now += 1,
            }
            c.crash_leader(0, now);
            let (settled, _) = c.quiesce(now);
            now = settled + 1;
            assert!(c.has_leader(0), "round {round}: no leader after failover");
        }
        assert_eq!(c.term(0), 3);
        assert_eq!(c.stats().failovers, 2);
        for round in 0..2 {
            assert!(
                c.contains("d0.xml", &format!("r{round}")),
                "acked update r{round} lost after double failover"
            );
        }
    }

    #[test]
    fn stale_term_follower_with_longer_log_never_wins_failover() {
        // In term 1, follower B (seat 2) alone durably holds a tail of
        // updates the client never saw acked; term 2 then acks new updates
        // through the other seats while B is partitioned. When the term-2
        // leader crashes and B is heard again, promotion must weigh
        // (term, acked): promoting B on raw acked length would resurrect
        // the dead term-1 tail and drop the acked term-2 updates.
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 3,
            ack_replicas: 2,
            ..ClusterConfig::default()
        });
        // A = seat 1 dark for all of term 1, C = seat 3 dark only for the
        // un-acked tail, B = seat 2 dark from just before the first crash
        // until the second one
        c.partition(0, 1, 0, 500);
        c.partition(0, 3, 300, 650);
        c.partition(0, 2, 490, 900);
        let mut now = 10;
        for i in 0..3 {
            match c.submit(&update_url("d0.xml", &format!("m{i}")), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
        }
        assert!(now < 300, "acked phase must finish before C goes dark");
        // un-acked tail: only B receives e0..e2 (C dark, so 1 ack < 2)
        now = 310;
        for i in 0..3 {
            match c.submit(&update_url("d0.xml", &format!("e{i}")), now) {
                Submitted::Pending(_) => {}
                Submitted::Done(d) => panic!("tail update cannot ack: {:?}", d.outcome),
            }
            now += 5;
        }
        while now < 480 {
            let _ = c.advance(now);
            now += 5;
        }
        // every load/update journals a content-digest frame alongside its
        // redo record, so seqs advance by 2: 6 seed loads + 3 acked + 3
        // tail updates put B at 24; C stops at the acked prefix (18)
        assert_eq!(c.shards[0].seats[2].acked, 24, "B must hold the tail");
        assert_eq!(
            c.shards[0].seats[3].acked, 18,
            "C stops at the acked prefix"
        );
        // first failover: B is unheard, C (acked 9) beats A (acked 0)
        c.crash_leader(0, 500);
        now = 500;
        while !c.has_leader(0) && now < 900 {
            let _ = c.advance(now);
            now += 5;
        }
        assert!(c.has_leader(0), "first failover must complete");
        assert_eq!(c.leader_seat(0), 3, "most-caught-up heard follower wins");
        assert_eq!(c.term(0), 2);
        // term 2 acks two updates through seat 0 and A while B stays dark
        for i in 0..2 {
            match c.submit(&update_url("d0.xml", &format!("n{i}")), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
        }
        assert!(now < 900, "term-2 acks must land before B heals");
        // second failover: B (term 1, acked 12) is heard alongside seats
        // at (term 2, acked 11) — the newer term wins despite less log
        c.crash_leader(0, 900);
        let (_, _) = c.quiesce(900);
        assert!(c.has_leader(0), "second failover must complete");
        assert_ne!(c.leader_seat(0), 2, "stale-term B must not be promoted");
        assert_eq!(c.term(0), 3);
        for marker in ["m0", "m1", "m2", "n0", "n1"] {
            assert!(c.contains("d0.xml", marker), "acked update {marker} lost");
        }
        for marker in ["e0", "e1", "e2"] {
            assert!(
                !c.contains("d0.xml", marker),
                "dead term-1 tail {marker} resurrected"
            );
        }
    }

    #[test]
    fn misrouted_requests_are_refused_with_421() {
        let mut c = seeded(ClusterConfig {
            shards: 4,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let owner = c.owner("d0.xml");
        let wrong = (owner + 1) % c.shard_count();
        let before = c.stats().ownership_rejections;
        let done = match c.serve_at(wrong, &doc_url("d0.xml"), 0) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("misroute cannot pend"),
        };
        assert_eq!(done.response.status, 421);
        assert_eq!(done.outcome, ClusterOutcome::Misrouted);
        assert_eq!(c.stats().ownership_rejections, before + 1);
        // and the rightful owner serves it fine
        let ok = match c.serve_at(owner, &doc_url("d0.xml"), 0) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(ok.response.status, 200);
    }

    #[test]
    fn followers_refuse_shipped_frames_for_foreign_documents() {
        // Craft a follower for shard 0 and feed it frames that belong to a
        // different shard: it must refuse and not advance its ack.
        let topology = Topology::new(Router::new(4, 9));
        let stats = Rc::new(RefCell::new(ReplicationStats::default()));
        let mut foreign = None;
        for i in 0..64 {
            let uri = format!("x{i}.xml");
            if topology.ring_owner(&uri) != 0 {
                foreign = Some(uri);
                break;
            }
        }
        let foreign = foreign.expect("some uri must hash off shard 0");
        let mut node = ReplicaNode::fresh(
            0,
            VirtualDisk::new(),
            topology,
            stats.clone(),
            DurabilityConfig::default(),
        );
        // build a real frame stream via a scratch durable db
        let scratch = VirtualDisk::new();
        let mut db = XmlDb::durable(scratch.clone(), DurabilityConfig::default());
        db.load(&foreign, "<root/>").unwrap();
        db.commit().unwrap();
        let data = scratch.read(WAL_FILE).unwrap();
        let (acked, refused) = node.accept_frames(1, &data).unwrap();
        assert_eq!(acked, 0, "foreign document must not be acked");
        assert!(refused, "ownership break must be reported");
        assert_eq!(node.applied(), 0);
        assert_eq!(stats.borrow().ownership_rejections, 1);
        assert!(node.serialize(&foreign).is_none());
        // over the wire the refusal is a non-200 reply, so a leader with a
        // broken router backs off instead of hot-looping the same batch
        let node = Rc::new(RefCell::new(Some(node)));
        let req = Request::post(
            "http://s0r1.xqib/replicate?shard=0&term=1",
            &format!("F{}", to_hex(&data)),
        );
        let resp = ReplicaNode::handle(&node, &req);
        assert_eq!(
            resp.status, 421,
            "ownership refusal must not read as success"
        );
        assert_eq!(stats.borrow().ownership_rejections, 2);
    }

    #[test]
    fn follower_reads_carry_replica_and_lag_headers() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, _) = c.quiesce(0);
        let done = match c.submit(&doc_url("d1.xml"), 500) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(done.outcome, ClusterOutcome::FollowerRead);
        assert_eq!(done.response.status, 200);
        assert!(done.response.header("X-XQIB-Replica").is_some());
        assert_eq!(done.response.header("X-XQIB-Replica-Lag"), Some("0"));
        assert!(c.stats().follower_reads > 0);
    }

    #[test]
    fn blackout_doc_reads_degrade_to_the_most_caught_up_follower() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        c.crash_leader(0, now + 1);
        // before failover completes, a doc read still gets a stale body
        let done = match c.submit(&doc_url("d2.xml"), now + 2) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(done.outcome, ClusterOutcome::DegradedRead);
        assert_eq!(done.response.status, 200);
        assert_eq!(done.response.header("X-XQIB-Degraded"), Some("no-leader"));
        // but an update during the blackout is refused
        let refused = match c.submit(&update_url("d2.xml", "nope"), now + 3) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("no leader to pend on"),
        };
        assert_eq!(refused.outcome, ClusterOutcome::NoLeader);
        assert_eq!(refused.response.status, 503);
    }

    #[test]
    fn lost_replies_and_truncated_shipments_still_converge() {
        let mut cfg = ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 2,
            ship_truncate_permille: 250,
            ..ClusterConfig::default()
        };
        cfg.repl_fault = Some(FaultPlan::seeded(0).with_reply_lost_permille(200));
        let mut c = seeded(cfg);
        let mut now = 0;
        let mut ids = Vec::new();
        for i in 0..10 {
            match c.submit(&update_url("d3.xml", &format!("t{i}")), now) {
                Submitted::Pending(id) => ids.push(id),
                Submitted::Done(d) => assert_eq!(d.outcome, ClusterOutcome::AckedUpdate),
            }
            now += 3;
        }
        let (_, done) = c.quiesce(now);
        for d in &done {
            assert_eq!(
                d.outcome,
                ClusterOutcome::AckedUpdate,
                "update should ack despite lost replies: {d:?}"
            );
        }
        assert_eq!(done.len(), ids.len());
        // both followers hold every marker, byte-for-byte the same doc
        let leader_xml = c.serialize("d3.xml").unwrap();
        for slot in 0..3 {
            if slot == c.leader_seat(0) {
                continue;
            }
            let guard = c.shards[0].seats[slot].replica.borrow();
            let xml = guard.as_ref().unwrap().serialize("d3.xml").unwrap();
            assert_eq!(xml, leader_xml, "follower {slot} diverged");
        }
        // shipped counts only frames whose bytes survived the in-flight
        // cut, so every per-seat ack maps to a counted shipment
        let stats = c.stats();
        assert!(stats.frames_acked <= stats.frames_shipped);
        assert!(stats.frames_retried <= stats.frames_shipped);
        assert!(
            stats.frames_retried > 0,
            "chaos config must exercise resends"
        );
    }

    #[test]
    fn partition_extends_the_blackout_until_a_quorum_is_reachable() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 2,
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        // with ack_replicas = 2, quorum is 1 probe — partition BOTH
        // followers so no probe lands until the window closes
        c.partition(0, 1, now, now + 2_000);
        c.partition(0, 2, now, now + 2_000);
        c.crash_leader(0, now + 1);
        let mut t = now + 1;
        while t < now + 1_900 {
            let _ = c.advance(t);
            t += 10;
        }
        assert!(!c.has_leader(0), "partitioned shard must stay leaderless");
        let (_, _) = c.quiesce(now + 2_100);
        assert!(c.has_leader(0), "healed partition should allow promotion");
        let stats = c.stats();
        assert!(
            stats.blackout_ms >= 2_000,
            "blackout should span the partition: {}ms",
            stats.blackout_ms
        );
    }

    #[test]
    fn snapshot_resync_catches_up_a_follower_behind_a_checkpoint() {
        let mut cfg = ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 0,
            ..ClusterConfig::default()
        };
        // tiny leader checkpoint threshold: the log truncates constantly
        cfg.durability.checkpoint_threshold = 64;
        // keep the follower dark while the leader churns
        let mut c = seeded(cfg);
        c.partition(0, 1, 0, 5_000);
        let mut now = 0;
        for i in 0..12 {
            match c.submit(&update_url("d4.xml", &format!("s{i}")), now) {
                Submitted::Done(d) => assert_eq!(d.outcome, ClusterOutcome::AckedUpdate),
                Submitted::Pending(_) => panic!("ack_replicas=0 acks synchronously"),
            }
            now += 5;
        }
        let (_, _) = c.quiesce(5_100);
        assert!(
            c.stats().snapshots_shipped > 0,
            "resync must ship a snapshot"
        );
        let guard = c.shards[0].seats[1].replica.borrow();
        let xml = guard.as_ref().unwrap().serialize("d4.xml").unwrap();
        for i in 0..12 {
            assert!(
                xml.contains(&format!("s{i}")),
                "follower missing s{i}: {xml}"
            );
        }
    }

    #[test]
    fn identical_seeds_produce_identical_replication_stats() {
        let run = || {
            let mut cfg = ClusterConfig {
                shards: 2,
                followers: 1,
                ack_replicas: 1,
                ship_truncate_permille: 150,
                ..ClusterConfig::default()
            };
            cfg.repl_fault = Some(FaultPlan::seeded(0).with_reply_lost_permille(100));
            let mut c = seeded(cfg);
            let mut now = 0;
            let mut done = Vec::new();
            for i in 0..12 {
                let uri = format!("d{}.xml", i % 6);
                match c.submit(&update_url(&uri, &format!("det{i}")), now) {
                    Submitted::Done(d) => done.push(*d),
                    Submitted::Pending(_) => {}
                }
                now += 7;
            }
            c.crash_leader_at(now + 10, 0);
            let (_, rest) = c.quiesce(now);
            done.extend(rest);
            (done, c.stats())
        };
        let (a_done, a_stats) = run();
        let (b_done, b_stats) = run();
        assert_eq!(a_stats, b_stats, "stats must be bit-identical per seed");
        assert_eq!(a_done, b_done, "completions must be bit-identical per seed");
    }

    /// Runs `n` sequential acked updates against `uri`, asserting each one
    /// reaches `AckedUpdate`; returns the markers and the time after the
    /// last ack.
    fn acked_markers(
        c: &mut Cluster,
        uri: &str,
        n: usize,
        mut now: u64,
        tag: &str,
    ) -> (Vec<String>, u64) {
        let mut acked = Vec::new();
        for i in 0..n {
            let marker = format!("{tag}{i}");
            match c.submit(&update_url(uri, &marker), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
            acked.push(marker);
        }
        (acked, now)
    }

    /// Advances the cluster tick by tick across `[from, to)`.
    fn drive(c: &mut Cluster, from: u64, to: u64) -> u64 {
        for t in from..to {
            let _ = c.advance(t);
        }
        to
    }

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
            let rep = c.shards[0].seats[1].replica.borrow();
            let (rot, _) = rep.as_ref().unwrap().disk_damage();
            assert!(rot, "the flip must read as mid-prefix WAL damage");
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
            let rep = c.shards[0].seats[1].replica.borrow();
            let (rot, verdicts) = rep.as_ref().unwrap().disk_damage();
            assert!(
                !rot && verdicts.is_empty(),
                "the repair checkpoint must supersede the rot"
            );
        }
        // cool-off elapses into probation; the scrubber readmits the seat
        // only after seeing it caught up with matching digests
        let end = now + c.cfg.quarantine_ms + 2 * scrub + 10;
        drive(&mut c, now, end);
        assert_eq!(c.shards[0].seats[1].health, SeatHealth::Healthy);
        assert!(c.integrity_stats().repairs_verified >= 1);
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
        {
            let rep = c.shards[0].seats[1].replica.clone();
            let mut guard = rep.borrow_mut();
            assert!(guard.as_mut().unwrap().poison_document("d0.xml"));
        }
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
        let end = now + c.cfg.quarantine_ms + 3 * scrub;
        drive(&mut c, now, end);
        assert_eq!(c.shards[0].seats[1].health, SeatHealth::Healthy);
        assert!(c.integrity_stats().repairs_verified >= 1);
        let rep = c.shards[0].seats[1].replica.borrow();
        let xml = rep.as_ref().unwrap().serialize("d0.xml").unwrap();
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
            assert!(c.contains("d0.xml", m), "acked {m} lost across demotion");
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
        {
            let rep = c.shards[0].seats[1].replica.clone();
            let mut guard = rep.borrow_mut();
            assert!(guard.as_mut().unwrap().poison_document("d0.xml"));
        }
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

    #[test]
    fn metrics_surface_carries_replication_counters() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        match c.submit(&update_url("d5.xml", "mx"), 0) {
            Submitted::Pending(id) => {
                let _ = await_update(&mut c, id, 0);
            }
            Submitted::Done(_) => {}
        }
        let done = match c.submit("/metrics", 100) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("metrics cannot pend"),
        };
        assert_eq!(done.response.status, 200);
        assert!(
            done.response.body.contains("<repl-frames-shipped>"),
            "metrics body missing replication counters: {}",
            done.response.body
        );
    }

    // -----------------------------------------------------------------
    // Online membership & resharding
    // -----------------------------------------------------------------

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

        let new_shard = c.add_shard(now);
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
                c.contains(uri, marker),
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
        assert!(c.contains(&moved_uri, "after-move"));
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

        assert!(c.decommission_shard(1, now));
        assert!(c.is_draining(1));
        assert!(
            !c.decommission_shard(1, now),
            "double decommission must refuse"
        );
        let (settled, _) = c.quiesce(now);

        assert!(c.is_retired(1), "drained shard must retire");
        let rs = c.reshard_stats();
        assert_eq!(rs.drains, 1);
        assert!(rs.docs_moved as usize >= homed_on_1);
        for (uri, marker) in &markers {
            assert_ne!(c.owner(uri), 1, "{uri} still routed to the retired shard");
            assert!(
                c.contains(uri, marker),
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
        assert!(!c.decommission_shard(0, 0));
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
        c.rebalance(7, now);
        assert_eq!(c.epoch(), 1);
        let (_, _) = c.quiesce(now);
        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0, "a reseeded ring must move some keys");
        for (uri, marker) in &markers {
            assert!(
                c.contains(uri, marker),
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
        c.schedule_topology(500, TopologyChange::AddShard);
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
        let new_shard = c.add_shard(now);
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
                c.contains(uri, marker),
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
        let dest = c.add_shard(now);
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
            assert!(c.contains(uri, marker), "{marker} lost on {uri}");
        }
    }

    #[test]
    fn metrics_surface_carries_reshard_counters() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let (_, now) = marked(&mut c, 12, 0);
        let _ = c.add_shard(now);
        let (settled, _) = c.quiesce(now);
        let done = match c.submit("/metrics", settled) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("metrics cannot pend"),
        };
        assert_eq!(done.response.status, 200);
        for needle in [
            "<reshard-epoch-bumps>",
            "<reshard-docs-moved>",
            "<reshard-cutover-fences>",
        ] {
            assert!(
                done.response.body.contains(needle),
                "metrics body missing {needle}: {}",
                done.response.body
            );
        }
    }
}
