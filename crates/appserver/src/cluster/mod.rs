//! # Replicated XmlDb cluster
//!
//! A leader/follower tier over N [`XmlDb`] shards. Documents are routed to
//! shards by a consistent-hash ring; each shard is one durable leader
//! ([`AppServer`]) plus K followers that replicate by **WAL shipping**: the
//! leader sends its committed WAL frames — the exact on-disk bytes, CRC
//! and all — as typed `ReplMsg`s over a per-seat fault-injected `Link`.
//! Each follower (a `ReplicaNode`, in `replica.rs`, around a durable
//! [`XmlDb`] over the seat's disk) replays them through the same redo step
//! recovery uses, appending the raw frames to its *own* WAL so its disk
//! image stays a byte-prefix of the leader's log (modulo its own
//! checkpoints), and answers with a `ReplReply`. Nothing on this path is
//! text.
//!
//! The protocol leans on three properties the storage tier already has:
//!
//! * **Torn-tail tolerance** — a truncated shipment decodes to the longest
//!   intact frame prefix
//!   ([`Wal::scan_bytes`](xqib_storage::Wal::scan_bytes)), so a cut-off
//!   message just acks less and the rest is resent.
//! * **Idempotent replay** — frames at or below the follower's applied
//!   sequence are skipped, so a resend after a lost ack
//!   ([`xqib_browser::Fault::ReplyLost`]) is harmless.
//! * **Checkpoint = snapshot** — when the leader has checkpointed past a
//!   straggler's position (log gap), it ships a
//!   [`Checkpoint`](xqib_storage::Checkpoint) as a full snapshot instead.
//!
//! An update is **acked** (HTTP 200 surfaced to the client) only once the
//! leader has fsynced it *and* at least `ack_replicas` followers have
//! durably acknowledged its sequence. On leader crash, the cluster waits
//! `failover_detect_ms`, then probes followers over their (possibly
//! partitioned) links until it hears from `K - ack_replicas + 1` of them
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
//! With [`ClusterConfig::governor`] set, each shard leader has its own
//! [`RequestGovernor`]: a request the leader runs queues there, and
//! [`Cluster::advance`] serves it in virtual time.
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
//!
//! # Modules
//!
//! This module holds the request path, replication and failover. Three
//! submodules extend the one [`Cluster`]: `routing` (the ring, the
//! epoch-versioned topology and the client [`RouteCache`]), `integrity`
//! (the scrubber, verified follower reads and the quarantine lifecycle)
//! and `migration` (membership changes, the two-phase copy, cutover,
//! drain and retire). The follower side of the protocol lives in
//! `replica.rs`.

use std::collections::VecDeque;

use xqib_browser::recovery::{CircuitBreaker, RecoveryStats, RetryPolicy};
use xqib_browser::FaultPlan;
use xqib_dom::SharedStore;
use xqib_storage::{mix64, DiskError, StorageFaultPlan, VirtualDisk};

use crate::fleet::FleetStats;
use crate::governor::{self, Class, GovernorConfig, RequestGovernor};
use crate::metrics::MetricsSnapshot;
use crate::render;
use crate::replica::{Link, ReplMsg, ReplReply, ReplicaNode};
use crate::server::{split_url, AppServer, ServerResponse};
use crate::xmldb::{DurabilityConfig, XmlDb};

mod integrity;
mod migration;
mod routing;

pub use integrity::IntegrityStats;
use integrity::SeatHealth;
use migration::Migration;
pub use migration::{ReshardStats, TopologyChange};
pub(crate) use routing::Topology;
pub use routing::{RouteCache, Router, TopologyEpoch};

xqib_storage::counters! {
    /// Cumulative replication counters, served on the cluster's `/metrics`.
    pub struct ReplicationStats {
        /// WAL frames shipped to followers (every attempt, including resends).
        frames_shipped: "repl-frames-shipped",
        /// Frame sequence numbers durably acknowledged by followers.
        frames_acked: "repl-frames-acked",
        /// Frames re-shipped after a lost/failed attempt.
        frames_retried: "repl-frames-retried",
        /// Full snapshots shipped (log gap, or term-change reset).
        snapshots_shipped: "repl-snapshots-shipped",
        /// Failover probes sent to followers.
        probes: "repl-probes",
        /// Leader promotions performed.
        failovers: "repl-failovers",
        /// Render reads served by a follower instead of the leader.
        follower_reads: "repl-follower-reads",
        /// Shipments or requests refused because the document is not owned by
        /// the shard.
        ownership_rejections: "repl-ownership-rejections",
        /// Total virtual milliseconds some shard spent leaderless.
        blackout_ms: "repl-blackout-ms",
        /// High-water replica lag (leader committed − follower acked frames).
        max_replica_lag: "repl-max-replica-lag",
    }
}

/// Max WAL frames per shipment.
const MAX_BATCH_FRAMES: usize = 64;
/// Consecutive link failures before a seat's breaker opens.
const BREAKER_FAILURES: u32 = 5;
/// How long an open link breaker stays open, virtual ms.
const BREAKER_OPEN_MS: u64 = 100;
/// Delay between probe rounds while gathering the failover quorum, and
/// before an open breaker's link is tried again.
const PROBE_RETRY_MS: u64 = 25;

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
    /// Every seat's durability (group commit, checkpoint threshold),
    /// whether it leads or follows.
    pub durability: DurabilityConfig,
    /// Fault plan template for every replication link; reseeded per
    /// follower host so links fail independently.
    pub repl_fault: Option<FaultPlan>,
    /// ‰ of shipments truncated in flight by the cluster itself (exercises
    /// torn-frame acceptance end to end, on top of any network plan).
    pub ship_truncate_permille: u16,
    /// Round-trip latency of every replication link, virtual ms.
    pub link_latency_ms: u64,
    /// Leaderless time before failover probing starts.
    pub failover_detect_ms: u64,
    /// Pending updates time out with 503 after this long un-acked.
    pub ack_timeout_ms: u64,
    /// Fault plan template for every seat's virtual disk; reseeded per seat
    /// so disks fail independently.
    pub disk_fault: Option<StorageFaultPlan>,
    /// Anti-entropy scrub interval, virtual ms (`0` disables scrubbing).
    pub scrub_interval_ms: u64,
    /// Overload control: `Some` fronts every shard leader with its own
    /// [`RequestGovernor`], which queues the requests the leader runs and
    /// serves them in virtual time; `None` serves every request at submit.
    pub governor: Option<GovernorConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 0,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            durability: DurabilityConfig::default(),
            repl_fault: None,
            ship_truncate_permille: 0,
            link_latency_ms: 5,
            failover_detect_ms: 150,
            ack_timeout_ms: 1500,
            disk_fault: None,
            scrub_interval_ms: 250,
            governor: None,
        }
    }
}

/// The faults and topology changes scheduled for one run; see
/// [`Cluster::schedule`].
#[derive(Debug, Clone, Default)]
pub struct ClusterChaos {
    /// Leader crashes: `(at_ms, shard)`.
    pub leader_crashes: Vec<(u64, usize)>,
    /// Follower link partitions: `(shard, slot, from_ms, to_ms)`.
    pub partitions: Vec<(usize, usize, u64, u64)>,
    /// Topology changes: `(at_ms, change)`.
    pub topology: Vec<(u64, TopologyChange)>,
}

/// One node slot in a shard: a stable host name and disk, plus the
/// leader-side link state used while the seat is a follower.
struct Seat {
    host: String,
    disk: VirtualDisk,
    /// `Some` while this seat is a follower; `None` while it's the leader.
    replica: Option<ReplicaNode>,
    /// The leader's link to this seat.
    link: Link,
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

impl Seat {
    /// Sends one message to this seat's replica over its link: the reply,
    /// if the replica ran, and the latency after which the leader hears it
    /// (`None`: the reply was lost).
    fn send(
        &mut self,
        term: u64,
        msg: ReplMsg,
        topology: &Topology,
        now: u64,
        latency_ms: u64,
    ) -> Option<(ReplReply, Option<u64>)> {
        let node = self.replica.as_mut()?;
        self.link
            .carry(now, latency_ms, || node.handle(term, msg, topology))
    }

    /// Forgets what the leader knew of this follower — nothing acked or
    /// shipped, no backoff, the next send due at `now`. With `wipe` the
    /// seat's files are wiped and it restarts as an empty replica of shard
    /// `s`; `force_snapshot` makes the next shipment a term-stamped
    /// snapshot.
    fn restart(
        &mut self,
        s: usize,
        cfg: &ClusterConfig,
        now: u64,
        wipe: bool,
        force_snapshot: bool,
    ) {
        if wipe {
            self.replica = Some(ReplicaNode::fresh(s, self.disk.clone(), cfg.durability));
        }
        self.acked = 0;
        self.shipped_top = 0;
        self.attempt = 0;
        self.force_snapshot = force_snapshot;
        self.next_send_at = now;
    }
}

/// The fault plan of the link to seat `slot` of shard `s`: the cluster's
/// template (or a clean plan) reseeded per seat, so links fail
/// independently.
fn link_plan(cfg: &ClusterConfig, s: usize, slot: usize) -> FaultPlan {
    let mut plan = cfg
        .repl_fault
        .clone()
        .unwrap_or_else(|| FaultPlan::seeded(0));
    plan.seed = mix64(cfg.seed ^ ((s as u64) << 32) ^ slot as u64);
    plan
}

/// A request from arrival to completion: everything its
/// [`ClusterCompletion`] carries but how and when it ended.
#[derive(Debug)]
pub(crate) struct Ticket {
    pub(crate) id: u64,
    pub(crate) shard: usize,
    pub(crate) class: Class,
    pub(crate) url: String,
    pub(crate) arrival: u64,
}

impl Ticket {
    /// The request's completion at `finished`.
    fn finish(
        self,
        finished: u64,
        outcome: ClusterOutcome,
        response: ServerResponse,
    ) -> ClusterCompletion {
        ClusterCompletion {
            id: self.id,
            shard: self.shard,
            class: self.class,
            url: self.url,
            arrival: self.arrival,
            finished,
            outcome,
            response,
        }
    }

    /// The request completed on arrival.
    fn done(self, outcome: ClusterOutcome, response: ServerResponse) -> Submitted {
        let arrival = self.arrival;
        Submitted::Done(Box::new(self.finish(arrival, outcome, response)))
    }
}

/// An update applied on the leader but not yet covered by the ack rule.
struct PendingUpdate {
    ticket: Ticket,
    /// When its service ended (its arrival on an ungoverned cluster): the
    /// ack timeout runs from here, and it completes no earlier.
    served: u64,
    seq: u64,
    response: ServerResponse,
}

impl PendingUpdate {
    /// The update's completion at `now`, or at its service end if later: the
    /// leader's response once acked, a retryable 503 if lost or timed out.
    fn finish(self, now: u64, outcome: ClusterOutcome) -> ClusterCompletion {
        let response = match outcome {
            ClusterOutcome::LostInFailover => ServerResponse::new(
                503,
                "<error code=\"XQIB0016\">update lost in failover; retry</error>",
            )
            .with_header("Retry-After", "1"),
            ClusterOutcome::AckTimeout => ServerResponse::new(
                503,
                "<error code=\"XQIB0017\">replication ack timeout; \
                 update applied on the leader but not replicated</error>",
            )
            .with_header("Retry-After", "1"),
            _ => self.response,
        };
        self.ticket.finish(now.max(self.served), outcome, response)
    }
}

struct Shard {
    term: u64,
    leader: Option<AppServer>,
    /// The leader's admission queues, on a governed cluster. They outlive
    /// leaders: a failover keeps the counters and the virtual clock.
    governor: Option<RequestGovernor>,
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

impl Shard {
    /// Follower seats: every seat but the leader's that holds a replica.
    fn followers(&self) -> impl Iterator<Item = &Seat> {
        let leader = self.leader_seat;
        self.seats
            .iter()
            .enumerate()
            .filter(move |(i, seat)| *i != leader && seat.replica.is_some())
            .map(|(_, seat)| seat)
    }

    /// Followers whose durable position the leader knows covers `seq`.
    fn acks_through(&self, seq: u64) -> usize {
        self.followers().filter(|seat| seat.acked >= seq).count()
    }

    /// The leader's committed sequence, `None` during a blackout.
    fn committed(&self) -> Option<u64> {
        self.leader.as_ref().map(|l| l.db.committed_seq())
    }

    /// Leadership vacated as of `since`: failover probing starts once the
    /// detector's `detect_ms` have passed.
    fn vacate(&mut self, since: u64, detect_ms: u64) {
        self.leaderless_since = Some(since);
        self.next_probe_at = since + detect_ms;
        self.probed = vec![None; self.seats.len()];
    }
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
    /// Shed by the shard's governor with 503 + `Retry-After`: its class
    /// queue was full, or CoDel dropped it from a standing queue.
    Shed,
    /// Render deadline miss answered with the leader's whole-document
    /// snapshot (`X-XQIB-Degraded: whole-document-snapshot`).
    Degraded,
    /// Deadline miss failed with 504 (`XQIB0014`).
    DeadlineExceeded,
}

impl ClusterOutcome {
    /// The length of a tally indexed by [`index`](Self::index)
    /// (`DeadlineExceeded` is the last variant).
    pub const COUNT: usize = ClusterOutcome::DeadlineExceeded as usize + 1;

    pub fn index(self) -> usize {
        self as usize
    }
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

/// What `submit` produced: an immediate completion, or the id of a queued
/// or pending request whose completion a later [`Cluster::advance`] emits.
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
    shards: Vec<Shard>,
    stats: ReplicationStats,
    istats: IntegrityStats,
    rstats: ReshardStats,
    /// Totals of the last fleet run reported to the cluster.
    fleet: FleetStats,
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
        Cluster {
            topology: Topology::new(Router::new(nshards, cfg.seed)),
            ring_seed: cfg.seed,
            shards: (0..nshards)
                .map(|s| Cluster::spawn_shard(&cfg, s))
                .collect(),
            cfg,
            stats: ReplicationStats::default(),
            istats: IntegrityStats::default(),
            rstats: ReshardStats::default(),
            fleet: FleetStats::default(),
            migrations: Vec::new(),
            topo_schedule: Vec::new(),
            crashes: Vec::new(),
            next_id: 0,
            read_rr: 0,
            send_seq: 0,
            next_scrub_at: 0,
        }
    }

    /// Builds one shard's seats: the leader at slot 0, then followers.
    fn spawn_shard(cfg: &ClusterConfig, s: usize) -> Shard {
        let mut seats = Vec::with_capacity(cfg.followers + 1);
        for slot in 0..=cfg.followers {
            let disk = match &cfg.disk_fault {
                Some(plan) => {
                    let mut plan = plan.clone();
                    plan.seed = mix64(cfg.seed ^ 0xd15c ^ ((s as u64) << 32) ^ slot as u64);
                    VirtualDisk::with_plan(plan)
                }
                None => VirtualDisk::new(),
            };
            let follower = slot != 0;
            seats.push(Seat {
                host: format!("s{s}r{slot}.xqib"),
                replica: follower.then(|| ReplicaNode::fresh(s, disk.clone(), cfg.durability)),
                link: match &cfg.repl_fault {
                    Some(_) if follower => Link::with_plan(link_plan(cfg, s, slot)),
                    _ => Link::default(),
                },
                disk,
                acked: 0,
                shipped_top: 0,
                attempt: 0,
                next_send_at: 0,
                force_snapshot: false,
                breaker: CircuitBreaker::new(BREAKER_FAILURES, BREAKER_OPEN_MS),
                rstats: RecoveryStats::default(),
                health: SeatHealth::Healthy,
            });
        }
        let db = XmlDb::durable(seats[0].disk.clone(), cfg.durability);
        Shard {
            term: 1,
            leader: Some(AppServer::from_db(db)),
            governor: cfg.governor.clone().map(RequestGovernor::new),
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
        self.topology.epoch
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
        self.stats.clone()
    }

    /// Per-follower lag (leader committed − follower acked), leader's view.
    pub fn replica_lag(&self, shard: usize) -> Vec<u64> {
        let sh = &self.shards[shard];
        let committed = sh.committed().unwrap_or(0);
        sh.followers()
            .map(|seat| committed.saturating_sub(seat.acked))
            .collect()
    }

    /// Serialized document from the owning shard's leader.
    pub fn serialize(&self, uri: &str) -> Option<String> {
        let shard = &self.shards[self.topology.owner(uri)];
        shard.leader.as_ref().and_then(|l| l.db.serialize(uri))
    }

    /// Every live seat's host and store, leaders and followers, shard by
    /// shard: for checks of what the stores hold, not only of what they
    /// answer.
    #[doc(hidden)]
    pub fn seat_stores(&self) -> Vec<(String, SharedStore)> {
        let mut out = Vec::new();
        for sh in &self.shards {
            for (i, seat) in sh.seats.iter().enumerate() {
                let db = match (&seat.replica, &sh.leader) {
                    (Some(replica), _) => &replica.db,
                    (None, Some(leader)) if i == sh.leader_seat => &leader.db,
                    _ => continue,
                };
                out.push((seat.host.clone(), db.store.clone()));
            }
        }
        out
    }

    /// True when the owning leader's copy of `uri` contains `needle`.
    pub fn contains(&self, uri: &str, needle: &str) -> bool {
        self.serialize(uri).is_some_and(|xml| xml.contains(needle))
    }

    /// True when the owning leader's copy of `uri` holds the element an
    /// update planted with `id="<marker>"`: an exact attribute match, so a
    /// lost `u1` is not hidden by a `u10` in the same document. The
    /// acked-update durability check of every chaos suite.
    pub fn holds_marker(&self, uri: &str, marker: &str) -> bool {
        self.contains(uri, &format!("id=\"{marker}\""))
    }

    /// Loads a document into its owning shard and pins its home there;
    /// returns the shard index.
    pub fn load(&mut self, uri: &str, xml: &str) -> Option<usize> {
        let s = self.topology.owner(uri);
        let leader = self.shards[s].leader.as_mut()?;
        leader.db.load(uri, xml).ok()?;
        let _ = leader.db.commit();
        self.topology.pin_home(uri, s);
        Some(s)
    }

    /// Crashes the shard's leader now: power-loss on its disk (torn
    /// unsynced tail), leadership vacated.
    pub fn crash_leader(&mut self, shard: usize, now: u64) {
        let sh = &mut self.shards[shard];
        if sh.leader.take().is_none() {
            return;
        }
        sh.seats[sh.leader_seat].disk.crash();
        sh.vacate(now, self.cfg.failover_detect_ms);
    }

    /// Partitions one follower link for `[from, to)` virtual ms, on top of
    /// any window already scheduled on it.
    fn partition(&mut self, shard: usize, slot: usize, from: u64, to: u64) {
        let cfg = &self.cfg;
        self.shards[shard].seats[slot]
            .link
            .down_between(from, to, || link_plan(cfg, shard, slot));
    }

    /// Schedules a run's chaos: [`advance`](Self::advance) executes each
    /// crash and topology change at its time; partitions go on their links
    /// now.
    pub fn schedule(&mut self, chaos: &ClusterChaos) {
        self.crashes.extend(&chaos.leader_crashes);
        self.crashes.sort_unstable();
        // stable: changes due at one time apply in the order given
        self.topo_schedule.extend(&chaos.topology);
        self.topo_schedule.sort_by_key(|(t, _)| *t);
        for &(shard, slot, from, to) in &chaos.partitions {
            self.partition(shard, slot, from, to);
        }
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
        let ticket = Ticket {
            id: self.next_id,
            shard,
            class: Class::of_url(url),
            url: url.to_string(),
            arrival: now,
        };
        self.next_id += 1;
        let (path, _) = split_url(url);
        if path == "/metrics" {
            let resp = self.metrics_response();
            return ticket.done(ClusterOutcome::Served, resp);
        }
        let uri = Self::routing_uri(url);
        let retired = self.shards[shard].retired;
        if let Some(refusal) = misroute(&self.topology, shard, &uri, retired) {
            self.stats.ownership_rejections += 1;
            return ticket.done(ClusterOutcome::Misrouted, refusal);
        }
        match ticket.class {
            Class::Render => self.serve_render(ticket, &uri),
            Class::Update | Class::Query => self.lead(ticket),
        }
    }

    /// Runs a request on its shard's leader: at once on an ungoverned
    /// cluster; otherwise it joins the shard governor's queue, which
    /// [`advance`](Self::advance) serves, or is shed now.
    fn lead(&mut self, ticket: Ticket) -> Submitted {
        let sh = &mut self.shards[ticket.shard];
        let Some(leader) = sh.leader.as_mut() else {
            return ticket.done(ClusterOutcome::NoLeader, no_leader_response());
        };
        let Some(gov) = sh.governor.as_mut() else {
            let (response, arrival) = (leader.handle(&ticket.url), ticket.arrival);
            return self.complete(ticket, arrival, ClusterOutcome::Served, response);
        };
        let id = ticket.id;
        match gov.admit(ticket) {
            Ok(()) => Submitted::Pending(id),
            Err(ticket) => ticket.done(ClusterOutcome::Shed, governor::shed_response()),
        }
    }

    /// Completes a request its leader answered at `finished`. A served
    /// `/update` that succeeded waits for the ack rule: the leader commits
    /// it, and it acks now or pends until `advance` resolves it.
    fn complete(
        &mut self,
        ticket: Ticket,
        finished: u64,
        outcome: ClusterOutcome,
        response: ServerResponse,
    ) -> Submitted {
        let written = ticket.class == Class::Update && outcome == ClusterOutcome::Served;
        let sh = &mut self.shards[ticket.shard];
        let leader = sh
            .leader
            .as_mut()
            .filter(|_| written && response.status == 200);
        let Some(leader) = leader else {
            return Submitted::Done(Box::new(ticket.finish(finished, outcome, response)));
        };
        let seq = leader.db.appended_seq();
        let _ = leader.db.commit();
        let committed = leader.db.committed_seq();
        let need = self.cfg.ack_replicas.min(self.cfg.followers);
        if committed >= seq && sh.acks_through(seq) >= need {
            let acked = ticket.finish(finished, ClusterOutcome::AckedUpdate, response);
            return Submitted::Done(Box::new(acked));
        }
        let id = ticket.id;
        sh.pending.push_back(PendingUpdate {
            ticket,
            served: finished,
            seq,
            response,
        });
        Submitted::Pending(id)
    }

    /// Serves shard `s`'s governor queue while its leader is free by
    /// `now`. A shard without a leader answers its whole queue with the
    /// blackout 503: the leader those requests waited for is gone.
    fn serve_queued(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        loop {
            let (sh, topology) = (&mut self.shards[s], &self.topology);
            let Some(gov) = sh.governor.as_mut() else {
                return;
            };
            // the document may have been cut over while the request waited
            let refuse = |t: &Ticket| misroute(topology, s, &Self::routing_uri(&t.url), false);
            let served = gov.serve_next(now, sh.leader.as_mut(), refuse);
            let Some((ticket, finished, outcome, response)) = served else {
                return;
            };
            if outcome == ClusterOutcome::Misrouted {
                self.stats.ownership_rejections += 1;
            }
            if let Submitted::Done(done) = self.complete(ticket, finished, outcome, response) {
                out.push(*done);
            }
        }
    }

    fn serve_render(&mut self, ticket: Ticket, uri: &str) -> Submitted {
        let (shard, now) = (ticket.shard, ticket.arrival);
        let (path, _) = split_url(&ticket.url);
        let is_doc = path == "/doc";
        if self.shards[shard].leader.is_some() {
            // bounded-staleness follower read for whole-document fetches
            if is_doc {
                if let Some(resp) = self.follower_doc(shard, uri, false, now) {
                    return ticket.done(ClusterOutcome::FollowerRead, resp);
                }
            }
            return self.lead(ticket);
        }
        // Blackout: a stale whole-document read beats a 503 for the
        // render surface — same contract as the governor's degrade path.
        let stale_uri = if is_doc { uri } else { render::CORPUS_URI };
        if self.topology.owner(stale_uri) == shard {
            if let Some(resp) = self.follower_doc(shard, stale_uri, true, now) {
                let resp = resp.with_header("X-XQIB-Degraded", "no-leader");
                return ticket.done(ClusterOutcome::DegradedRead, resp);
            }
        }
        ticket.done(ClusterOutcome::NoLeader, no_leader_response())
    }

    /// One tick of cluster housekeeping: advances latent disk decay,
    /// executes due scheduled crashes and topology changes, serves the
    /// governors' queues, runs the anti-entropy scrubber, drives failovers,
    /// pumps replication links, and resolves pending updates. Returns the
    /// completions that finished by `now`.
    pub fn advance(&mut self, now: u64) -> Vec<ClusterCompletion> {
        let mut out = Vec::new();
        // latent bit rot accrues with virtual time on every seat disk,
        // leader and follower alike — decay never waits for a crash
        for sh in &self.shards {
            for seat in &sh.seats {
                seat.disk.decay_at(now);
            }
        }
        for s in take_due(&mut self.crashes, now) {
            self.crash_leader(s, now);
        }
        for change in take_due(&mut self.topo_schedule, now) {
            self.apply_change(change);
        }
        for s in 0..self.shards.len() {
            self.serve_queued(s, now, &mut out);
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
    /// request is queued or pending, and every follower is fully caught up
    /// (or the iteration cap trips). Returns the final time and the
    /// completions.
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
            let Some(committed) = sh.committed() else {
                return false;
            };
            sh.pending.is_empty()
                && sh.governor.as_ref().is_none_or(|g| g.backlog() == 0)
                && sh.followers().all(|seat| seat.acked >= committed)
        })
    }

    fn try_failover(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        let detect = self.cfg.failover_detect_ms;
        if self.shards[s].retired || self.shards[s].leader.is_some() {
            return;
        }
        let since = self.shards[s].leaderless_since.unwrap_or(now);
        if now < since + detect {
            return;
        }
        let Some(win) = self.elect(s, now) else {
            return;
        };
        let disk = self.shards[s].seats[win].disk.clone();
        let recovered = self
            .heal(s, win)
            .ok()
            .and_then(|()| AppServer::recover(disk, self.cfg.durability).ok());
        match recovered {
            Some(server) => self.install_leader(s, win, server, since, now, out),
            None => {
                // unhealed or damaged candidate: drop it and re-probe the rest
                self.shards[s].probed[win] = None;
                self.shards[s].next_probe_at = now + PROBE_RETRY_MS;
            }
        }
    }

    /// Promotion guard: the winner's disk may carry latent rot that
    /// recovery would truncate at, silently dropping acked frames its
    /// memory still holds — and rot on the log's last frames is
    /// indistinguishable from an ordinary torn tail, so detection can
    /// never be complete. A live follower's memory is always at least as
    /// new as its disk (`applied >= acked`), so seat `win` unconditionally
    /// checkpoints from memory — truncating whatever the log carried —
    /// before its disk goes to recovery. A heal that did not land promotes
    /// nothing: recovery would read the very image it was to replace. A
    /// crashed leader-only seat has no memory to heal from.
    fn heal(&mut self, s: usize, win: usize) -> Result<(), DiskError> {
        let Some(node) = self.shards[s].seats[win].replica.as_mut() else {
            return Ok(());
        };
        let damaged = node.db.disk_damage().any();
        node.db.checkpoint()?;
        if damaged {
            self.istats.promote_heals += 1;
        }
        Ok(())
    }

    /// The seat whose disk the next leader recovers from: the crashed
    /// leader's own on a leader-only shard, else the winner of an election
    /// over a quorum of probed followers — `None` until enough answered.
    fn elect(&mut self, s: usize, now: u64) -> Option<usize> {
        let follower_seats: Vec<usize> = self.shards[s]
            .seats
            .iter()
            .enumerate()
            .filter(|(_, seat)| seat.replica.is_some())
            .map(|(i, _)| i)
            .collect();
        if follower_seats.is_empty() {
            return Some(self.shards[s].leader_seat);
        }
        // probe round: every follower we have not heard from yet
        if now >= self.shards[s].next_probe_at {
            let sh = &mut self.shards[s];
            for &i in &follower_seats {
                if sh.probed[i].is_some() {
                    continue;
                }
                self.stats.probes += 1;
                let reply = sh.seats[i].send(
                    sh.term,
                    ReplMsg::Probe,
                    &self.topology,
                    now,
                    self.cfg.link_latency_ms,
                );
                if let Some((ReplReply::State { term, acked }, Some(_))) = reply {
                    sh.probed[i] = Some((term, acked));
                }
            }
            sh.next_probe_at = now + PROBE_RETRY_MS;
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
            return None;
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
        Some(win)
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
        let sh = &mut self.shards[s];
        let old = sh.leader_seat;
        if old != win {
            // the crashed leader's seat rejoins as an empty follower and
            // resyncs over the wire like any straggler
            sh.seats[old].restart(s, &self.cfg, now, true, false);
            sh.seats[win].replica = None;
        }
        sh.leader_seat = win;
        sh.leader = Some(server);
        sh.term += 1;
        sh.leaderless_since = None;
        sh.probed = vec![None; sh.seats.len()];
        for (i, seat) in sh.seats.iter_mut().enumerate() {
            if i == win || i == old || seat.replica.is_none() {
                continue;
            }
            // new term asserts the new leader's log: snapshot reset wipes
            // any divergent un-acked suffix and fences the old term
            seat.restart(s, &self.cfg, now, false, true);
        }
        self.stats.failovers += 1;
        self.stats.blackout_ms += now.saturating_sub(since);
        // pending updates beyond the new leader's log are gone for good
        let mut keep = VecDeque::new();
        while let Some(p) = self.shards[s].pending.pop_front() {
            if p.seq > committed {
                out.push(p.finish(now, ClusterOutcome::LostInFailover));
            } else {
                keep.push_back(p);
            }
        }
        self.shards[s].pending = keep;
    }

    /// Ships committed WAL frames (or snapshots) to every follower link
    /// whose send timer is due, with breaker + backoff on failures.
    fn pump(&mut self, s: usize, now: u64) {
        let Cluster {
            cfg,
            topology,
            shards,
            stats,
            send_seq,
            ..
        } = self;
        let sh = &mut shards[s];
        let Some(leader) = sh.leader.as_mut() else {
            return;
        };
        let retry = RetryPolicy::default();
        for (i, seat) in sh.seats.iter_mut().enumerate() {
            if i == sh.leader_seat || seat.replica.is_none() || now < seat.next_send_at {
                continue;
            }
            let (allowed, transition) = seat.breaker.allow(now);
            seat.rstats.count(transition);
            if !allowed {
                seat.next_send_at = now + PROBE_RETRY_MS;
                continue;
            }
            let backoff_id = mix64(((s as u64) << 8) | i as u64);
            // frames, or `None` for a snapshot: a forced one, or a log gap
            // (the leader checkpointed past the follower)
            let frames = match seat.force_snapshot {
                true => None,
                false => leader.db.committed_frames_after(seat.acked),
            };
            if frames.as_ref().is_some_and(Vec::is_empty) {
                continue; // caught up
            }
            let snapshot = frames.is_none();
            // the payload, and each frame's `(seq, end offset)` in it
            let (mut data, ends, seals) = match frames {
                Some(mut frames) => {
                    frames.truncate(MAX_BATCH_FRAMES);
                    let mut bytes = Vec::new();
                    let mut ends = Vec::with_capacity(frames.len());
                    for f in &frames {
                        bytes.extend_from_slice(&f.bytes);
                        ends.push((f.seq, bytes.len()));
                    }
                    (bytes, ends, None)
                }
                None => match leader.db.replication_snapshot() {
                    Some((ck, seals)) => (ck.encode(), Vec::new(), Some(seals)),
                    None => {
                        seat.attempt += 1;
                        seat.next_send_at = now + retry.backoff_delay(seat.attempt, backoff_id);
                        continue;
                    }
                },
            };
            // Deterministic in-flight truncation (torn shipments). The cut
            // reuses the draw of the former text transport, which sent one
            // tag character plus two hex digits per byte: of its `2n + 1`
            // cut points, `c` delivered `c / 2` whole bytes. Keeping that
            // arithmetic keeps every seeded trajectory.
            let draw = mix64(cfg.seed ^ 0x5eed ^ *send_seq);
            *send_seq += 1;
            if cfg.ship_truncate_permille > 0 && draw % 1000 < u64::from(cfg.ship_truncate_permille)
            {
                let cut = mix64(draw) % (2 * data.len() as u64 + 1) / 2;
                data.truncate(cut as usize);
            }
            // frames whose bytes fully survived the cut are on the wire
            let sent: Vec<u64> = ends
                .iter()
                .take_while(|&&(_, end)| end <= data.len())
                .map(|&(seq, _)| seq)
                .collect();
            if snapshot {
                stats.snapshots_shipped += 1;
            } else {
                stats.frames_shipped += sent.len() as u64;
                stats.frames_retried +=
                    sent.iter().filter(|&&q| q <= seat.shipped_top).count() as u64;
            }
            let msg = match seals {
                Some(seals) => ReplMsg::Snapshot(data, seals),
                None => ReplMsg::Frames(data),
            };
            let reply = seat.send(sh.term, msg, topology, now, cfg.link_latency_ms);
            if let Some(&top) = sent.last() {
                seat.shipped_top = seat.shipped_top.max(top);
            }
            // a refusal counts where the replica made it, heard or not
            if reply.is_some_and(|(r, _)| r.refuses_ownership()) {
                stats.ownership_rejections += 1;
            }
            let mut learn_acked = |seat: &mut Seat, ack: u64| {
                if ack > seat.acked {
                    stats.frames_acked += ack - seat.acked;
                    seat.acked = ack;
                }
            };
            match reply {
                Some((ReplReply::Ack(ack), Some(latency_ms))) => {
                    seat.rstats.count(seat.breaker.on_success());
                    seat.attempt = 0;
                    if snapshot {
                        seat.force_snapshot = false;
                        // log reset: frames beyond the snapshot are fresh
                        seat.shipped_top = ack;
                    }
                    learn_acked(seat, ack);
                    // an ack below the shipped top (torn shipment) leaves
                    // committed frames unshipped: the next tick resends
                    seat.next_send_at = now + latency_ms.max(1);
                }
                _ => {
                    // an ownership refusal still reports the follower's
                    // durable position for the frames before the break
                    if let Some((ReplReply::OwnershipRefused { acked }, Some(_))) = reply {
                        learn_acked(seat, acked);
                    }
                    seat.rstats.count(seat.breaker.on_failure(now));
                    seat.attempt += 1;
                    seat.next_send_at = now + retry.backoff_delay(seat.attempt, backoff_id);
                }
            }
            let lag = leader.db.committed_seq().saturating_sub(seat.acked);
            stats.max_replica_lag = stats.max_replica_lag.max(lag);
        }
    }

    /// Emits completions for pending updates whose ack rule now holds, and
    /// times out the rest per `ack_timeout_ms`.
    fn resolve_pending(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        let need = self.cfg.ack_replicas.min(self.cfg.followers);
        let timeout = self.cfg.ack_timeout_ms;
        let sh = &mut self.shards[s];
        let committed = sh.committed();
        let mut keep = VecDeque::new();
        while let Some(p) = sh.pending.pop_front() {
            let satisfied = committed.is_some_and(|c| c >= p.seq) && sh.acks_through(p.seq) >= need;
            if satisfied {
                out.push(p.finish(now, ClusterOutcome::AckedUpdate));
            } else if now.saturating_sub(p.served) >= timeout {
                out.push(p.finish(now, ClusterOutcome::AckTimeout));
            } else {
                keep.push_back(p);
            }
        }
        sh.pending = keep;
    }

    /// Every counter the `/metrics` surface serves: the first live
    /// leader's own (shard 0 may be retired), the shard governors'
    /// overload counters summed, and the cluster's replication, integrity,
    /// resharding and fleet counters. With no live leader the server's
    /// counters read zero.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let leader = self.shards.iter().find_map(|sh| sh.leader.as_ref());
        let mut m = leader.map_or_else(MetricsSnapshot::default, AppServer::metrics_snapshot);
        for gov in self.shards.iter().filter_map(|sh| sh.governor.as_ref()) {
            m.overload.absorb(&gov.stats);
        }
        m.replication = self.stats();
        m.integrity = self.integrity_stats();
        m.reshard = self.rstats.clone();
        m.fleet = self.fleet.clone();
        m
    }

    /// The `/metrics` response, served by the leader whose counters it
    /// reads.
    fn metrics_response(&mut self) -> ServerResponse {
        let m = self.metrics_snapshot();
        match self.shards.iter_mut().find_map(|sh| sh.leader.as_mut()) {
            Some(leader) => leader.serve_snapshot(m),
            None => ServerResponse::new(200, m.to_xml()),
        }
    }

    /// Stores a fleet run's totals, so the next `/metrics` render reports
    /// the client side of the deployment alongside the server and
    /// replication counters.
    pub fn set_fleet_stats(&mut self, stats: &FleetStats) {
        self.fleet = stats.clone();
    }
}

/// Removes the entries of a time-sorted schedule due at `now`, in order.
fn take_due<T: Copy>(schedule: &mut Vec<(u64, T)>, now: u64) -> Vec<T> {
    let due = schedule.partition_point(|(at, _)| *at <= now);
    schedule.drain(..due).map(|(_, item)| item).collect()
}

/// The 421 shard `shard` answers a request for `uri` with when it does not
/// serve the document: another shard owns it, or this one is retired.
fn misroute(topology: &Topology, shard: usize, uri: &str, retired: bool) -> Option<ServerResponse> {
    let owner = topology.owner(uri);
    let refused = owner != shard || retired;
    refused.then(|| ServerResponse::misrouted(shard, uri, owner, topology.epoch))
}

pub(crate) fn no_leader_response() -> ServerResponse {
    ServerResponse::new(
        503,
        "<error code=\"XQIB0016\">no leader; failover in progress</error>",
    )
    .with_header("Retry-After", "1")
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use xqib_browser::Fault;
    use xqib_storage::WAL_FILE;

    pub(super) fn doc_url(uri: &str) -> String {
        format!("/doc?uri={uri}")
    }

    pub(super) fn update_url(uri: &str, marker: &str) -> String {
        format!("/update?xq=insert node <m id=\"{marker}\"/> into doc(\"{uri}\")/*")
    }

    pub(super) fn seeded(mut cfg: ClusterConfig) -> Cluster {
        cfg.seed = 42;
        let mut c = Cluster::new(cfg);
        for i in 0..6 {
            let uri = format!("d{i}.xml");
            c.load(&uri, &format!("<root n=\"{i}\"/>")).unwrap();
        }
        c
    }

    /// Drives `c` until the pending update `id` completes (or panics).
    pub(super) fn await_update(c: &mut Cluster, id: u64, mut now: u64) -> (ClusterCompletion, u64) {
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
        let follower = sh0.seats[1].replica.as_ref().unwrap();
        let xml = follower.db.serialize("d0.xml").unwrap();
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
            c.holds_marker("d0.xml", "solo"),
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
                c.holds_marker("d0.xml", marker),
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
                c.holds_marker("d0.xml", &format!("r{round}")),
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
            assert!(
                c.holds_marker("d0.xml", marker),
                "acked update {marker} lost"
            );
        }
        for marker in ["e0", "e1", "e2"] {
            assert!(
                !c.holds_marker("d0.xml", marker),
                "dead term-1 tail {marker} resurrected"
            );
        }
    }

    /// A one-shard, one-follower cluster holding `uri`, whose follower
    /// link meets `fault` on its next message.
    fn faulted_link(uri: &str, fault: Option<Fault>) -> Cluster {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        // loaded straight into the leader: a URI the ring gives another
        // shard stays foreign to this shard's follower
        let leader = c.shards[0].leader.as_mut().unwrap();
        leader.db.load(uri, "<root/>").unwrap();
        leader.db.commit().unwrap();
        let mut plan = FaultPlan::seeded(0);
        plan.scripted.push(fault);
        c.shards[0].seats[1].link = Link::with_plan(plan);
        c
    }

    /// Every fault kind, one shipment each: whether the replica applied
    /// the frames, and what the leader learned from the reply.
    #[test]
    fn each_link_fault_decides_whether_the_replica_runs_and_the_leader_hears() {
        let table = [
            (None, true, true),
            (Some(Fault::Timeout), false, false),
            (Some(Fault::Error(503)), false, false),
            (Some(Fault::ReplyLost), true, false),
            (Some(Fault::Truncate), true, false),
        ];
        for (fault, runs, heard) in table {
            let mut c = faulted_link("d0.xml", fault);
            let _ = c.advance(0);
            let seat = &c.shards[0].seats[1];
            let applied = seat.replica.as_ref().unwrap().applied();
            assert_eq!(applied > 0, runs, "{fault:?}: replica ran");
            assert_eq!(seat.acked, if heard { applied } else { 0 }, "{fault:?}");
            if heard {
                assert_eq!(seat.next_send_at, c.cfg.link_latency_ms);
            }
            assert_eq!(seat.attempt, u32::from(!heard), "{fault:?}: backoff");
            let stats = c.stats();
            assert_eq!(stats.frames_shipped, 2, "load + digest frames");
            assert_eq!(stats.frames_acked, seat.acked, "{fault:?}");
            assert_eq!(stats.ownership_rejections, 0);
        }
    }

    #[test]
    fn ownership_refusals_count_where_the_replica_refuses_even_unheard() {
        // the document is homed on another shard, so this shard's
        // follower may not hold it
        let mut c = faulted_link("x.xml", None);
        c.topology.pin_home("x.xml", 1);
        for (fault, counted) in [
            (None, 1),
            (Some(Fault::ReplyLost), 1),
            (Some(Fault::Truncate), 1),
            (Some(Fault::Timeout), 0),
            (Some(Fault::Error(503)), 0),
        ] {
            let mut plan = FaultPlan::seeded(0);
            plan.scripted.push(fault);
            c.shards[0].seats[1].link = Link::with_plan(plan);
            let seat = &mut c.shards[0].seats[1];
            seat.next_send_at = 0;
            seat.attempt = 0;
            let before = c.stats().ownership_rejections;
            let _ = c.advance(0);
            let seat = &c.shards[0].seats[1];
            assert_eq!(seat.replica.as_ref().unwrap().applied(), 0);
            assert_eq!(seat.acked, 0, "{fault:?}: nothing durable to learn");
            assert_eq!(seat.attempt, 1, "{fault:?}: a refusal is a failure");
            assert_eq!(
                c.stats().ownership_rejections - before,
                counted,
                "{fault:?}"
            );
        }
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
            let replica = c.shards[0].seats[slot].replica.as_ref().unwrap();
            let xml = replica.db.serialize("d3.xml").unwrap();
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
        let replica = c.shards[0].seats[1].replica.as_ref().unwrap();
        let xml = replica.db.serialize("d4.xml").unwrap();
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
            c.schedule(&ClusterChaos {
                leader_crashes: vec![(now + 10, 0)],
                ..ClusterChaos::default()
            });
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
    pub(super) fn acked_markers(
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

    /// Flips one payload byte of the first WAL frame on `disk`: with later
    /// frames behind it, the scan must classify this as mid-prefix CRC
    /// damage (an alarm), never as an ordinary torn tail.
    pub(super) fn rot_first_frame(disk: &VirtualDisk) {
        let mut img = disk.read(WAL_FILE).expect("a journaled WAL to rot");
        // frame layout [len u32][crc u32][seq u64][tag u8][payload]: byte
        // 17 is the first payload byte
        img[17] ^= 0x01;
        disk.write_file(WAL_FILE, &img);
    }

    /// A promotion waits until its heal lands. The caught-up winner's log
    /// rotted mid-prefix and its every fsync fails, so no checkpoint from
    /// its memory can land, and recovery would read the image the heal
    /// was to replace: no seat is promoted. Once its disk syncs again the
    /// heal lands, the seat is promoted, and every acked update is there.
    #[test]
    fn a_promotion_waits_until_its_heal_lands() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (acked, now) = acked_markers(&mut c, "d0.xml", 3, 10, "heal");
        let disk = c.shards[0].seats[1].disk.clone();
        rot_first_frame(&disk);
        disk.set_plan(StorageFaultPlan::seeded(7).with_sync_fail_permille(1000));
        let follower = c.shards[0].seats[1].replica.as_ref().unwrap();
        assert!(follower.db.disk_damage().wal_rot);
        assert_eq!(follower.db.committed_seq(), c.shards[0].seats[1].acked);
        c.crash_leader(0, now);
        let detect = c.cfg.failover_detect_ms;
        let now = drive(&mut c, now, now + detect + 20 * PROBE_RETRY_MS);
        assert!(!c.has_leader(0), "promoted on a heal that never landed");
        assert_eq!(c.stats().failovers, 0);
        assert_eq!(c.integrity_stats().promote_heals, 0);
        disk.set_plan(StorageFaultPlan::default());
        let (_, _) = c.quiesce(now);
        assert!(c.has_leader(0), "the heal lands once the disk syncs");
        assert_eq!(c.leader_seat(0), 1);
        assert_eq!(c.stats().failovers, 1);
        assert_eq!(c.integrity_stats().promote_heals, 1);
        for m in &acked {
            assert!(c.holds_marker("d0.xml", m), "acked {m} lost");
        }
    }

    /// Advances the cluster tick by tick across `[from, to)`.
    pub(super) fn drive(c: &mut Cluster, from: u64, to: u64) -> u64 {
        for t in from..to {
            let _ = c.advance(t);
        }
        to
    }

    pub(super) fn metrics_at(c: &mut Cluster, now: u64) -> String {
        match c.submit("/metrics", now) {
            Submitted::Done(d) if d.response.status == 200 => d.response.body,
            other => panic!("metrics failed: {other:?}"),
        }
    }

    /// The value of one counter in a `/metrics` body.
    pub(super) fn metric(body: &str, name: &str) -> u64 {
        let open = format!("<{name}>");
        let at = body.find(&open).expect(name) + open.len();
        body[at..]
            .split('<')
            .next()
            .and_then(|v| v.parse().ok())
            .expect(name)
    }

    /// One acked update on a shard with a follower, then `/metrics`. With
    /// group commit the leader's handler only appends the update; the
    /// cluster's commit after it fsyncs, and that fsync must show.
    fn acked_update_then_metrics() -> (Cluster, String) {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            durability: DurabilityConfig {
                group_commit: 8,
                ..DurabilityConfig::default()
            },
            ..ClusterConfig::default()
        });
        let now = match c.submit(&update_url("d5.xml", "mx"), 0) {
            Submitted::Pending(id) => await_update(&mut c, id, 0).1,
            Submitted::Done(_) => 0,
        };
        let m = metrics_at(&mut c, now + 1);
        (c, m)
    }

    #[test]
    fn metrics_read_the_leaders_durability_live() {
        let (c, m) = acked_update_then_metrics();
        let leader = c.shards[0].leader.as_ref().expect("leader");
        let stats = leader.db.durability_stats();
        assert_eq!(metric(&m, "wal-fsyncs"), stats.fsyncs);
        assert_eq!(metric(&m, "wal-appends"), stats.wal_appends);
        assert_eq!(metric(&m, "checkpoints"), stats.checkpoints);
        assert!(metric(&m, "repl-frames-shipped") > 0);
        assert_eq!(metric(&m, "repl-frames-acked"), c.stats().frames_acked);
    }

    #[test]
    fn metrics_without_a_live_leader_serve_cluster_counters_alone() {
        let (mut c, before) = acked_update_then_metrics();
        c.crash_leader(0, 500);
        let m = metrics_at(&mut c, 500);
        for server in ["requests", "bytes-out", "xquery-evals", "wal-fsyncs"] {
            assert_eq!(metric(&m, server), 0, "{server}");
        }
        assert_eq!(
            metric(&m, "repl-frames-shipped"),
            metric(&before, "repl-frames-shipped")
        );
        assert!(metric(&m, "repl-frames-shipped") > 0);
    }

    #[test]
    fn a_second_partition_keeps_the_first_window() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        c.partition(0, 1, now, now + 300);
        c.partition(0, 1, now + 500, now + 600);
        let id = match c.submit(&update_url("d0.xml", "p1"), now + 10) {
            Submitted::Pending(id) => id,
            Submitted::Done(d) => panic!("acked with the follower dark: {:?}", d.outcome),
        };
        for t in now + 10..now + 300 {
            assert!(
                c.advance(t).iter().all(|d| d.id != id),
                "the follower acked at {t}, inside the first window"
            );
        }
        let (done, at) = await_update(&mut c, id, now + 300);
        assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
        assert!(at < now + 500, "acked only after the second window");
    }

    /// A governed shard with one follower, its leader's render queue full.
    fn governed_and_flooded() -> Cluster {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            governor: Some(GovernorConfig {
                queue_capacity: 4,
                ..GovernorConfig::default()
            }),
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        for _ in 0..4 {
            assert!(matches!(c.submit("/index", now), Submitted::Pending(_)));
        }
        c
    }

    /// A follower `/doc` read does not run on the leader, so it is served
    /// at submit, outside the leader's queue; `/metrics` is never queued,
    /// so a scrape is not shed by the overload it diagnoses.
    #[test]
    fn follower_reads_and_metrics_bypass_the_leaders_queue() {
        let mut c = governed_and_flooded();
        let shed = |s| matches!(s, Submitted::Done(d) if d.outcome == ClusterOutcome::Shed);
        assert!(shed(c.submit("/index", 20)), "the render queue is full");
        let read = match c.submit(&doc_url("d1.xml"), 20) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("a follower read is not queued"),
        };
        assert_eq!(read.outcome, ClusterOutcome::FollowerRead);
        assert_eq!(read.response.status, 200);
        let m = metrics_at(&mut c, 20);
        assert_eq!(metric(&m, "shed"), 1);
        assert_eq!(metric(&m, "admitted"), 4);
    }

    /// A request whose document was cut over to another shard while it
    /// waited gets the 421 that `serve_at` would have given it, unrun.
    #[test]
    fn a_queued_request_for_a_moved_document_is_refused_with_421() {
        let mut c = seeded(ClusterConfig {
            shards: 2,
            followers: 0,
            ack_replicas: 0,
            governor: Some(GovernorConfig::default()),
            ..ClusterConfig::default()
        });
        let from = c.owner("d0.xml");
        let id = match c.submit(&update_url("d0.xml", "late"), 10) {
            Submitted::Pending(id) => id,
            Submitted::Done(d) => panic!("an update is queued: {:?}", d.outcome),
        };
        c.topology.cutover("d0.xml", 1 - from);
        let done = c.advance(10);
        assert_eq!(done.len(), 1);
        let d = &done[0];
        assert_eq!(
            (d.id, d.shard, d.outcome),
            (id, from, ClusterOutcome::Misrouted)
        );
        assert_eq!(d.response.status, 421);
        assert_eq!(
            d.response.header("X-XQIB-Owner"),
            Some((1 - from).to_string().as_str())
        );
        assert_eq!(c.stats().ownership_rejections, 1);
        assert!(!c.holds_marker("d0.xml", "late"));
        let leader = c.shards[from].leader.as_ref().unwrap();
        assert!(!leader.db.serialize("d0.xml").unwrap().contains("late"));
    }

    /// An update with ≈40 virtual ms of evaluation, inside its deadline.
    const SLOW_UPDATE: &str = "/update?xq=insert node \
        <m n=\"{sum(for $i in 1 to 1000 return $i * 2)}\"/> into doc('d0.xml')/*";

    /// A governed update's follower ack can be observed while the leader
    /// is still, in virtual time, serving that update: it completes at the
    /// end of its service, not before, and its ack timeout runs from there.
    #[test]
    fn a_governed_ack_completes_no_earlier_than_its_service() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            governor: Some(GovernorConfig::default()),
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        let id = match c.submit(SLOW_UPDATE, now) {
            Submitted::Pending(id) => id,
            Submitted::Done(d) => panic!("an update is queued: {:?}", d.outcome),
        };
        assert!(c.advance(now).is_empty(), "served, then pending its ack");
        let served = c.shards[0].pending[0].served;
        assert!(served > now + 3 * c.cfg.link_latency_ms, "{served}");
        let (done, observed) = await_update(&mut c, id, now + 1);
        assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
        assert!(observed < served, "the ack arrived mid-service");
        assert_eq!(done.finished, served);
    }

    /// An update that waited in the leader's queue longer than the ack
    /// timeout still gets the whole timeout once served: it runs from the
    /// end of the update's service, not from its arrival.
    #[test]
    fn a_queued_update_gets_the_whole_ack_timeout() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            governor: Some(GovernorConfig::unbounded()),
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        let timeout = c.cfg.ack_timeout_ms;
        // the follower hears nothing, so the update can only time out
        c.partition(0, 1, now, now + 10 * timeout);
        for _ in 0..50 {
            assert!(matches!(c.submit(SLOW_UPDATE, now), Submitted::Pending(_)));
        }
        let id = match c.submit(&update_url("d0.xml", "late"), now) {
            Submitted::Pending(id) => id,
            Submitted::Done(d) => panic!("an update is queued: {:?}", d.outcome),
        };
        let mut t = now;
        let served = loop {
            if let Some(p) = c.shards[0].pending.iter().find(|p| p.ticket.id == id) {
                break p.served;
            }
            assert!(c.advance(t).iter().all(|d| d.id != id), "done at {t}");
            t += 1;
        };
        assert!(served > now + timeout, "queued past the timeout: {served}");
        let (done, _) = await_update(&mut c, id, t);
        assert_eq!(done.outcome, ClusterOutcome::AckTimeout);
        assert_eq!(done.finished, served + timeout);
    }
}
