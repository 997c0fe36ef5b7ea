//! The XML database (the MarkLogic stand-in of §6.1): a document store
//! with a server-side XQuery execution facility, durable over a
//! fault-injected [`VirtualDisk`].
//!
//! # Durability
//!
//! Every mutation is journaled to a write-ahead log *before* it is
//! acknowledged: document loads as [`WalRecord::Load`],
//! applied pending update lists as wire-encoded [`WalRecord::Pul`] redo
//! records (see `xqib_xquery::wire`). Appends are grouped: the log is
//! fsynced once every [`DurabilityConfig::group_commit`] operations. An
//! fsync failure is *soft* — the operation stays applied in memory, the
//! committed sequence simply does not advance, and the next group commit
//! retries the whole outstanding batch (fsync covers the file, not a
//! range).
//!
//! When the log outgrows [`DurabilityConfig::checkpoint_threshold`], a
//! [`Checkpoint`] snapshot of every bound document is written to the
//! alternate slot and the log is truncated. Checkpoints record the WAL
//! sequence they absorb, so [`XmlDb::recover`] — checkpoint load + replay
//! of the committed WAL suffix, stopping at the first torn or corrupt
//! frame — is idempotent even when a crash lands between the checkpoint
//! write and the log truncation.
//!
//! A cluster follower is the same node driven by the leader: it appends
//! shipped frames verbatim (`XmlDb::accept_frame`), installs shipped
//! snapshots (`XmlDb::install_snapshot`) and checkpoints at its applied
//! position like any node ([`XmlDb::checkpoint`]), so its disk is always
//! an image [`XmlDb::recover`] can promote. [`XmlDb::disk_damage`] is the
//! one probe of that image, for leaders and followers alike; the
//! scrubber's [`XmlDb::scrub_step`] runs the same checks a slice at a
//! time, keeping its place in the checkpoint slots in a per-node
//! [`SlotCursor`] that every checkpoint write tells which slot it rewrote.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use xqib_dom::store::shared_store;
use xqib_dom::{DocId, DocImage, Document, QName, SharedStore, TreeHash};
use xqib_storage::{
    fnv1a, mix64, Checkpoint, DiskError, DurabilityStats, IntegrityError, ShippedFrame, SlotCursor,
    VirtualDisk, Wal, WalBreak, WalRecord, CKPT_SLOTS, WAL_FILE,
};
use xqib_xdm::{Item, XdmResult};
use xqib_xquery::context::DynamicContext;
use xqib_xquery::plan::CompiledPlan;
use xqib_xquery::plancache::{compile_plan, static_fingerprint, PlanCache, PlanCacheStats};
use xqib_xquery::runtime::{self, ModuleRegistry};
use xqib_xquery::wire;

/// Plans kept per database. Render workloads cycle through a handful of
/// templates; 64 leaves generous room for ad-hoc `/query` traffic while
/// keeping the O(n) LRU scan trivial.
const PLAN_CACHE_CAPACITY: usize = 64;

/// The state digest of a document bound to `uri` whose serialization
/// hashes to `hash` ([`Document::tree_hash`], cached, so it re-hashes only
/// what changed since it was last asked): the URI's FNV-1a mixed with it.
/// A function of the URI and of `serialize_document(doc)`, so a replica
/// built by applying frames and one rebuilt from a snapshot's bytes
/// agree. What sealing, the digest-frame check, images, verified reads
/// and the scrubber compare.
fn state_digest(uri: &str, hash: TreeHash) -> u64 {
    mix64(fnv1a(uri.as_bytes()) ^ mix64(hash.hash ^ mix64(hash.power)))
}

/// The image of `doc`'s current version bound to `uri`: its serialization
/// and state digest, built on the first whole-document read of a version
/// and shared by the rest. What every whole-document read serves; verified
/// reads still compare its digest with the recorded one.
fn doc_image(uri: &str, doc: &Document) -> Rc<DocImage> {
    doc.image(uri, |hash| state_digest(uri, hash))
}

/// Runs `f` on the document bound to `uri` in `store`; `None` when the URI
/// is unbound.
fn with_doc<T>(store: &SharedStore, uri: &str, f: impl FnOnce(&Document) -> T) -> Option<T> {
    let store = store.borrow();
    let id = store.doc_by_uri(uri)?;
    Some(f(store.doc(id)))
}

/// A checkpoint's documents parsed into a fresh store: the state recovery
/// and a follower's snapshot install start from. A document that does not
/// parse is a typed error naming it.
fn load_checkpoint(ckpt: &Checkpoint) -> XdmResult<SharedStore> {
    let store = shared_store();
    for (uri, xml) in &ckpt.docs {
        let doc = xqib_dom::parse_document(xml).map_err(|e| {
            xqib_xdm::XdmError::new(
                wire::WIRE_ERR,
                format!("checkpoint document {uri} unreadable: {e}"),
            )
        })?;
        store.borrow_mut().add_document(doc, Some(uri));
    }
    Ok(store)
}

/// Binds `doc` under `uri` in `store`, replacing any existing binding in
/// place (same `DocId`, new content).
fn bind(store: &SharedStore, uri: &str, doc: Document) -> DocId {
    let mut store = store.borrow_mut();
    match store.doc_by_uri(uri) {
        Some(id) => {
            store.replace_document(id, doc);
            id
        }
        None => store.add_document(doc, Some(uri)),
    }
}

/// The state digest of the document bound to `uri` in `store`, from its
/// cached subtree hashes: what sealing, the digest-frame check and the
/// self-check compare. `None` for unbound URIs.
fn memory_digest(store: &SharedStore, uri: &str) -> Option<u64> {
    with_doc(store, uri, |doc| state_digest(uri, doc.tree_hash()))
}

/// Applies one redo record to `store`: the replay step of recovery and of
/// a follower. Both stop at the first record that refuses to apply — an
/// unparseable document, an undecodable or inapplicable PUL, a digest the
/// state no longer hashes to — keeping state at a frame boundary.
///
/// The seal rule: a `Load` or `Pul` that applies unseals the documents it
/// touches (`uris`, from [`record_uris`]) in `digests`; the document's
/// `Digest` frame seals it again, so it stays unsealed in between (for
/// good, if a torn tail cut the log there). A digest frame memory does not
/// hash to still seals, then refuses to apply: the divergence shows to
/// every verified read and to the self-check.
fn replay_record(
    store: &SharedStore,
    digests: &mut BTreeMap<String, u64>,
    record: &WalRecord,
    uris: &[String],
) -> bool {
    let applied = match record {
        WalRecord::Load { uri, xml } => xqib_dom::parse_document(xml)
            .map(|doc| bind(store, uri, doc))
            .is_ok(),
        WalRecord::Pul(bytes) => {
            let mut s = store.borrow_mut();
            wire::decode_pul(&mut s, bytes).is_ok_and(|pul| pul.apply(&mut s).is_ok())
        }
        WalRecord::Digest { uri, digest } => {
            digests.insert(uri.clone(), *digest);
            return memory_digest(store, uri) == Some(*digest);
        }
    };
    if applied {
        for uri in uris {
            digests.remove(uri);
        }
    }
    applied
}

/// The documents a WAL record names, skimmed without decoding a `Pul`
/// (`None` when it does not skim).
pub(crate) fn record_uris(record: &WalRecord) -> Option<Vec<String>> {
    match record {
        WalRecord::Load { uri, .. } | WalRecord::Digest { uri, .. } => Some(vec![uri.clone()]),
        WalRecord::Pul(bytes) => wire::pul_doc_uris(bytes).ok(),
    }
}

/// What one probe of a durable node's disk found: damage inside the
/// durable WAL prefix (a torn tail is the expected crash shape and does
/// not count) and a typed verdict per written-but-corrupt checkpoint slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskDamage {
    pub wal_rot: bool,
    pub slots: Vec<IntegrityError>,
}

impl DiskDamage {
    pub fn any(&self) -> bool {
        self.wal_rot || !self.slots.is_empty()
    }
}

/// Tuning knobs of a node's journal and checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Fsync the WAL once every `group_commit` journaled operations.
    pub group_commit: u64,
    /// Checkpoint (and truncate the WAL) once the log exceeds this many
    /// bytes. `0` disables automatic checkpoints.
    pub checkpoint_threshold: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 64 * 1024,
        }
    }
}

/// A node's durable state: the device, the open log, and commit
/// bookkeeping.
struct Durable {
    disk: VirtualDisk,
    wal: Wal,
    cfg: DurabilityConfig,
    /// Generation of the newest checkpoint on disk.
    ckpt_gen: u64,
    /// Highest WAL sequence acknowledged by a successful fsync (or covered
    /// by the recovery checkpoint).
    last_committed: u64,
    /// Highest WAL sequence appended (≥ `last_committed`).
    last_appended: u64,
    /// Journaled operations since the last successful fsync.
    pending_ops: u64,
    stats: DurabilityStats,
    /// Where the scrubber's pass over the checkpoint slots stands.
    scrub: SlotCursor,
}

impl Durable {
    /// Durable state over an open log whose prefix through `seq` is
    /// committed, absorbed into checkpoint generation `ckpt_gen` or after.
    fn new(disk: VirtualDisk, wal: Wal, cfg: DurabilityConfig, ckpt_gen: u64, seq: u64) -> Self {
        Durable {
            disk,
            wal,
            cfg,
            ckpt_gen,
            last_committed: seq,
            last_appended: seq,
            pending_ops: 0,
            stats: DurabilityStats::default(),
            scrub: SlotCursor::default(),
        }
    }

    /// Appends `record` to the log, awaiting its group commit.
    fn journal(&mut self, record: &WalRecord) {
        self.stats.wal_appends += 1;
        self.last_appended = self.wal.append(record);
        self.pending_ops += 1;
    }

    /// Whether the durable WAL prefix holds damage: the scan's accept rule
    /// over the frames in place, decoding nothing.
    fn wal_rot(&self) -> bool {
        Wal::probe(&self.disk, WAL_FILE).is_some_and(WalBreak::mid_prefix)
    }

    /// The one checkpoint writer: `docs` as the next generation, absorbing
    /// the log through `seq`, then the WAL truncated — the node is durable
    /// through exactly `seq`. On a failed slot fsync the previous
    /// checkpoint and the log stay authoritative.
    fn write_checkpoint(&mut self, seq: u64, docs: Vec<(String, String)>) -> Result<(), DiskError> {
        let ckpt = Checkpoint {
            gen: self.ckpt_gen + 1,
            seq,
            docs,
        };
        let written = ckpt.write(&self.disk);
        // the slot holds new bytes even when its fsync failed
        self.scrub.rewrote((ckpt.gen % 2) as usize);
        written?;
        self.ckpt_gen += 1;
        self.stats.checkpoints += 1;
        self.wal.truncate();
        (self.last_committed, self.last_appended, self.pending_ops) = (seq, seq, 0);
        Ok(())
    }
}

/// A server-side XML database.
pub struct XmlDb {
    pub store: SharedStore,
    /// number of queries evaluated (CPU proxy)
    pub evals: u64,
    /// Library modules visible to server-side queries (`import module`).
    modules: ModuleRegistry,
    /// Compiled plans keyed by (query text, static-context fingerprint).
    plans: PlanCache,
    durable: Durable,
    /// The seal of each document, the one reference verified reads and
    /// the scrubber check memory against. Sealed at journal time, by a
    /// replayed digest frame, from a checkpoint just recovered, or by the
    /// leader's seals shipped with a snapshot; unsealed by a replayed
    /// record frame ([`replay_record`]), so every seal covers memory at
    /// this node's own position.
    digests: BTreeMap<String, u64>,
}

impl Default for XmlDb {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlDb {
    /// A fresh database over a fresh [`VirtualDisk`], with the default
    /// [`DurabilityConfig`].
    pub fn new() -> Self {
        Self::durable(VirtualDisk::new(), DurabilityConfig::default())
    }

    /// A fresh database over `disk`, wiping any previous image.
    pub fn durable(disk: VirtualDisk, cfg: DurabilityConfig) -> Self {
        disk.delete(WAL_FILE);
        for slot in CKPT_SLOTS {
            disk.delete(slot);
        }
        let wal = Wal::create(disk.clone(), WAL_FILE);
        Self::open(
            Durable::new(disk, wal, cfg, 0, 0),
            shared_store(),
            BTreeMap::new(),
        )
    }

    /// A database over `durable` holding `store`, sealed with `digests`.
    fn open(durable: Durable, store: SharedStore, digests: BTreeMap<String, u64>) -> Self {
        XmlDb {
            store,
            evals: 0,
            modules: ModuleRegistry::new(),
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            durable,
            digests,
        }
    }

    /// Recovers a durable database from a (possibly crashed) disk image:
    /// loads the newest intact checkpoint, then replays the committed WAL
    /// suffix, stopping at the first torn or corrupt frame (the
    /// prefix-durability contract). Recovering the same image twice yields
    /// the same state.
    pub fn recover(disk: VirtualDisk, cfg: DurabilityConfig) -> XdmResult<XmlDb> {
        let mut stats = DurabilityStats {
            recoveries: 1,
            ..Default::default()
        };
        let (ckpt, slot_verdicts) = Checkpoint::read_latest_verified(&disk);
        if slot_verdicts
            .iter()
            .any(|v| matches!(v, IntegrityError::AllCheckpointSlotsCorrupt))
        {
            stats.ckpt_slots_lost = 1;
        }
        let (ckpt_gen, ckpt_seq) = ckpt.as_ref().map_or((0, 0), |c| (c.gen, c.seq));
        let (store, mut digests) = match &ckpt {
            Some(ckpt) => {
                let store = load_checkpoint(ckpt)?;
                let digests = ckpt
                    .docs
                    .iter()
                    .filter_map(|(uri, _)| Some((uri.clone(), memory_digest(&store, uri)?)))
                    .collect();
                (store, digests)
            }
            None => (shared_store(), BTreeMap::new()),
        };

        let mut replay = Wal::scan(&disk, WAL_FILE);
        if replay.mid_prefix_damage() {
            stats.wal_corruptions = 1;
        }
        let mut torn = replay.torn_tail_dropped;
        let mut applied_seq = ckpt_seq;
        let mut good = 0usize;
        for (seq, record, _end) in &replay.records {
            if *seq <= ckpt_seq {
                good += 1; // absorbed by the checkpoint; keep the frame
                continue;
            }
            if !record_uris(record)
                .is_some_and(|uris| replay_record(&store, &mut digests, record, &uris))
            {
                if let WalRecord::Digest { .. } = record {
                    // the replayed state no longer hashes to what was
                    // acknowledged: silent damage, not a torn append
                    stats.recovery_digest_mismatches += 1;
                }
                torn = true;
                break;
            }
            good += 1;
            applied_seq = *seq;
        }
        if good < replay.records.len() {
            replay.records.truncate(good);
            replay.valid_bytes = replay.records.last().map_or(0, |(_, _, end)| *end);
        }
        let mut wal = Wal::open_after(disk.clone(), WAL_FILE, &replay);
        wal.fast_forward(ckpt_seq);
        if torn {
            stats.torn_tails_dropped = 1;
        }
        let durable = Durable {
            stats,
            ..Durable::new(disk, wal, cfg, ckpt_gen, applied_seq)
        };
        Ok(Self::open(durable, store, digests))
    }

    /// A follower's redo step: applies a frame the leader shipped, naming
    /// the documents `uris`, and, if it applies, appends its exact bytes
    /// to the log. Durable once [`commit`](Self::commit) syncs it. Returns
    /// whether it applied.
    pub(crate) fn accept_frame(
        &mut self,
        seq: u64,
        record: &WalRecord,
        uris: &[String],
        frame: &[u8],
    ) -> bool {
        if !replay_record(&self.store, &mut self.digests, record, uris) {
            return false;
        }
        let d = &mut self.durable;
        d.stats.wal_appends += 1;
        d.wal.append_frame(seq, frame);
        d.last_appended = seq;
        d.pending_ops += 1;
        true
    }

    /// Replaces the whole state with a shipped snapshot (a follower's
    /// log-gap resync or new-term reset), persisted as this node's own
    /// next checkpoint generation: durable through `ckpt.seq` on success.
    /// The installed documents take `seals`, the leader's seals at
    /// `ckpt.seq` ([`Self::replication_snapshot`]), as a shipped digest
    /// frame would give them: the next self-check verifies the install.
    /// `false`, with the state untouched, when a document does not parse
    /// or the checkpoint cannot be persisted.
    pub(crate) fn install_snapshot(
        &mut self,
        ckpt: Checkpoint,
        seals: BTreeMap<String, u64>,
    ) -> bool {
        let Ok(store) = load_checkpoint(&ckpt) else {
            return false;
        };
        if self.durable.write_checkpoint(ckpt.seq, ckpt.docs).is_err() {
            return false;
        }
        self.store = store;
        self.digests = seals;
        true
    }

    /// Loads a document under a URI. If the URI is already bound the
    /// binding is **replaced** (same `DocId`, new content). The load is
    /// journaled before it is acknowledged.
    pub fn load(&mut self, uri: &str, xml: &str) -> XdmResult<DocId> {
        let doc = xqib_dom::parse_document(xml)
            .map_err(|e| xqib_xdm::XdmError::new("FODC0002", e.to_string()))?;
        self.durable.journal(&WalRecord::Load {
            uri: uri.to_string(),
            xml: xml.to_string(),
        });
        let id = bind(&self.store, uri, doc);
        self.seal_digests(&[uri.to_string()]);
        self.after_journaled_ops();
        Ok(id)
    }

    /// Serialises a stored document (whole-document REST responses), from
    /// its image.
    pub fn serialize(&self, uri: &str) -> Option<String> {
        self.image(uri).map(|image| image.body.clone())
    }

    /// The image of a stored document's current version (see
    /// `doc_image`); `None` for unbound URIs.
    pub fn image(&self, uri: &str) -> Option<Rc<DocImage>> {
        with_doc(&self.store, uri, |doc| doc_image(uri, doc))
    }

    /// Every bound document as its image's body, sorted by URI: the
    /// checkpoint input.
    pub fn dump(&self) -> Vec<(String, String)> {
        let store = self.store.borrow();
        store
            .uri_bindings()
            .into_iter()
            .map(|(uri, id)| {
                let xml = doc_image(&uri, store.doc(id)).body.clone();
                (uri, xml)
            })
            .collect()
    }

    /// Runs an XQuery against the database; returns the rendered result.
    /// Any pending update lists the query applies are journaled as redo
    /// records.
    pub fn query(&mut self, src: &str) -> XdmResult<String> {
        self.query_with_deadline(src, None, &[]).0
    }

    /// Runs an XQuery under an optional deadline budget, in engine fuel
    /// units (the server converts milliseconds-to-deadline into fuel).
    /// Exhausting the budget raises `XQIB0014`; committing a pending update
    /// list is a point of no return (the budget stops applying), so a
    /// deadline-killed query has applied — and journaled — nothing.
    ///
    /// `bindings` supply the query's external variables (names in no
    /// namespace), so a text that declares `$v external` compiles to one
    /// cached plan whatever value each request binds.
    ///
    /// Returns the result alongside the fuel actually consumed, which the
    /// request governor uses as the virtual-time cost of the evaluation.
    pub fn query_with_deadline(
        &mut self,
        src: &str,
        budget: Option<u64>,
        bindings: &[(&str, Item)],
    ) -> (XdmResult<String>, u64) {
        self.run(src, budget, bindings, None)
    }

    /// Runs an XQuery with the context item set to a stored document.
    pub fn query_doc(&mut self, uri: &str, src: &str) -> XdmResult<String> {
        self.run(src, None, &[], Some(uri)).0
    }

    /// The one evaluation path of every query: plan, evaluate, journal,
    /// render. Everything the query constructs lives in a scratch region
    /// of the store (its construction document and any `document { }`
    /// results) that is released before this returns, whatever the
    /// outcome — success, error, deadline kill or update. By then the
    /// result is a `String` and applied inserts are copies in their
    /// target documents, so nothing can still point into the region.
    ///
    /// The copies a pending update list makes when it is built are the
    /// only slots a query adds to a stored document, at its arena's tail.
    /// When the query fails, each stored document is cut back to its
    /// length from before it, unless a list applied mid-script attached
    /// some of them (see [`xqib_dom::Document::truncate_detached`]).
    fn run(
        &mut self,
        src: &str,
        budget: Option<u64>,
        bindings: &[(&str, Item)],
        context_doc: Option<&str>,
    ) -> (XdmResult<String>, u64) {
        self.evals += 1;
        let plan = match self.plan(src) {
            Ok(p) => p,
            Err(e) => return (Err(e), 0),
        };
        let lens = self.store.borrow().arena_lens();
        let (mark, construction) = self.store.borrow_mut().open_scratch();
        let mut ctx = DynamicContext::constructing_into(
            self.store.clone(),
            plan.static_context().clone(),
            construction,
        );
        for (name, value) in bindings {
            ctx.bind_global(QName::local(name), vec![value.clone()]);
        }
        if let Some(budget) = budget {
            ctx.set_deadline_fuel(budget);
            ctx.fuel_commit_exempt = true;
        }
        let journal = Rc::new(RefCell::new(Vec::new()));
        ctx.pul_journal = Some(journal.clone());
        let result = self
            .focus_on(&mut ctx, context_doc)
            .and_then(|()| plan.execute(&mut ctx));
        self.drain_journal(journal);
        let fuel_used = ctx.fuel_used;
        let rendered = result.map(|r| runtime::render_sequence(&ctx, &r));
        drop(ctx);
        let mut store = self.store.borrow_mut();
        store.release_scratch(mark);
        if rendered.is_err() {
            store.truncate_detached(&lens);
        }
        (rendered, fuel_used)
    }

    /// Sets the context item to the root of the document bound to `uri`
    /// (`FODC0002` if none is); no-op without a URI.
    fn focus_on(&self, ctx: &mut DynamicContext, uri: Option<&str>) -> XdmResult<()> {
        let Some(uri) = uri else {
            return Ok(());
        };
        let root = {
            let store = self.store.borrow();
            let id = store
                .doc_by_uri(uri)
                .ok_or_else(|| xqib_xdm::XdmError::new("FODC0002", format!("no document {uri}")))?;
            store.root(id)
        };
        ctx.focus = Some(xqib_xquery::context::Focus {
            item: Item::Node(root),
            position: 1,
            size: 1,
        });
        Ok(())
    }

    /// The plan for `src`: cached, or compiled, lowered and cached now.
    fn plan(&mut self, src: &str) -> XdmResult<Rc<CompiledPlan>> {
        let fp = static_fingerprint(&self.modules, false);
        let modules = &self.modules;
        self.plans
            .get_or_compile(src, fp, || compile_plan(src, modules, false))
    }

    /// Drops every cached plan (new cache epoch). For environment changes
    /// the static-context fingerprint cannot observe.
    pub fn invalidate_plans(&mut self) {
        self.plans.invalidate();
    }

    /// Plan-cache hit/miss/eviction/invalidation counters.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Hard group commit: fsyncs the WAL so every journaled operation
    /// becomes durable.
    pub fn commit(&mut self) -> Result<(), DiskError> {
        let d = &mut self.durable;
        if d.last_committed == d.last_appended {
            d.pending_ops = 0;
            return Ok(());
        }
        d.wal.sync()?;
        d.stats.fsyncs += 1;
        d.last_committed = d.last_appended;
        d.pending_ops = 0;
        Ok(())
    }

    /// Hard checkpoint, of leaders and followers alike: snapshots memory
    /// at the appended position into the alternate slot and truncates the
    /// WAL. The slot's own fsync makes it durable, so the frames it
    /// absorbs need no WAL sync first. Beyond size-triggered housekeeping
    /// it is the node-local repair path: a rotted frame or slot is
    /// superseded by intact memory, with no window where acked state lives
    /// only on damaged media. On a failed slot fsync the error is returned
    /// and the previous checkpoint and the log stay authoritative.
    pub fn checkpoint(&mut self) -> Result<(), DiskError> {
        let docs = self.dump();
        let d = &mut self.durable;
        d.write_checkpoint(d.last_appended, docs)
    }

    /// Whether the log outgrew the automatic-checkpoint threshold.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let d = &self.durable;
        d.cfg.checkpoint_threshold > 0 && d.wal.size_bytes() > d.cfg.checkpoint_threshold
    }

    /// The scrubber's self-check, pass `pass` of it: each sealed
    /// document's memory digest against its seal. Cached subtree hashes
    /// would hide damage that bypassed the DOM's writers, so sealed
    /// document `pass % n` is first re-hashed from scratch. Returns the
    /// documents checked and those that no longer digest to their seal.
    pub(crate) fn self_check(&self, pass: u64) -> (u64, u64) {
        let rehash = pass as usize % self.digests.len().max(1);
        let mut mismatches = 0;
        for (k, (uri, &seal)) in self.digests.iter().enumerate() {
            if k == rehash {
                with_doc(&self.store, uri, Document::forget_hashes);
            }
            if memory_digest(&self.store, uri) != Some(seal) {
                mismatches += 1;
            }
        }
        (self.digests.len() as u64, mismatches)
    }

    /// The seal of a document: its state digest when last sealed. `None`
    /// for unbound URIs and unsealed documents (a record frame touched
    /// them and their digest frame has not applied, or was lost to a torn
    /// tail).
    pub fn digest_of(&self, uri: &str) -> Option<u64> {
        self.digests.get(uri).copied()
    }

    /// Serialises a document with the end-to-end check, the verified read
    /// of every path: the image's digest must equal the document's seal on
    /// this node, or the read is refused. `Ok(None)` for unbound URIs;
    /// unsealed documents (see [`Self::digest_of`]) serve unchecked.
    pub fn verified_serialize(&self, uri: &str) -> Result<Option<String>, IntegrityError> {
        let Some(image) = self.image(uri) else {
            return Ok(None);
        };
        match self.digest_of(uri) {
            Some(want) if want != image.digest => Err(IntegrityError::DigestMismatch {
                uri: uri.to_string(),
                want,
                got: image.digest,
            }),
            _ => Ok(Some(image.body.clone())),
        }
    }

    /// The whole-disk damage probe of promotion, cutover and migration:
    /// probes the on-disk WAL for mid-prefix damage (the durable prefix
    /// rotted after it was acked) and verifies both checkpoint slots in
    /// place, whole.
    pub fn disk_damage(&self) -> DiskDamage {
        DiskDamage {
            wal_rot: self.durable.wal_rot(),
            slots: Checkpoint::slot_verdicts(&self.durable.disk),
        }
    }

    /// The scrubber's probe, one tick of it: the whole WAL, as in
    /// [`disk_damage`](Self::disk_damage), and the next slice of the
    /// checkpoint slots from where the last step stopped
    /// ([`SlotCursor::scrub_slice`]). A slot verdict is reported by the
    /// step that finds it. Returns the damage found and the slot bytes
    /// verified.
    pub fn scrub_step(&mut self) -> (DiskDamage, u64) {
        let d = &mut self.durable;
        let slice = d.scrub.scrub_slice(&d.disk);
        let damage = DiskDamage {
            wal_rot: d.wal_rot(),
            slots: slice.verdicts,
        };
        (damage, slice.bytes as u64)
    }

    /// Fault-injection hook: overwrites the recorded digest of `uri`,
    /// simulating undetected rot between the store and its seal so tests
    /// can prove the read path refuses to serve state that no longer
    /// hashes to what was acknowledged. Returns `false` if nothing was
    /// recorded for `uri`.
    pub fn poison_recorded_digest(&mut self, uri: &str) -> bool {
        match self.digests.get_mut(uri) {
            Some(d) => {
                *d = mix64(*d ^ 0xBAD);
                true
            }
            None => false,
        }
    }

    /// Durability counters.
    pub fn durability_stats(&self) -> DurabilityStats {
        self.durable.stats.clone()
    }

    /// Highest WAL sequence known durable.
    pub fn committed_seq(&self) -> u64 {
        self.durable.last_committed
    }

    /// Highest WAL sequence appended — it may still be awaiting its group
    /// commit. The cluster stamps each update with this to know when the
    /// ack rule covers it.
    pub fn appended_seq(&self) -> u64 {
        self.durable.last_appended
    }

    /// The backing device.
    pub fn disk(&self) -> VirtualDisk {
        self.durable.disk.clone()
    }

    /// The committed WAL frames with `after < seq <= committed_seq`, for
    /// shipping to a follower, read by offset from the log's frame index
    /// ([`Wal::frames_after`]). `None` when the follower has fallen off the
    /// log — a checkpoint truncated frames it still needs, or frame
    /// `after + 1` fails its check; the caller must resync by snapshot
    /// instead ([`Self::replication_snapshot`]).
    pub fn committed_frames_after(&self, after: u64) -> Option<Vec<ShippedFrame>> {
        let d = &self.durable;
        d.wal.frames_after(after, d.last_committed)
    }

    /// How many committed WAL records with `seq > after` touch `uri` — the
    /// size of the update tail a migration source accepted during a copy
    /// window. `0` when a checkpoint already absorbed the suffix (the
    /// caller re-snapshots then anyway).
    pub fn tail_records_touching(&self, uri: &str, after: u64) -> u64 {
        let Some(frames) = self.committed_frames_after(after) else {
            return 0;
        };
        frames
            .iter()
            .filter(|f| record_uris(&f.record).is_some_and(|uris| uris.iter().any(|u| u == uri)))
            .count() as u64
    }

    /// A consistent snapshot of the committed state, in the checkpoint
    /// wire format, for resyncing a follower that has fallen off the WAL,
    /// with the seals that cover it. Commits first so the document dump,
    /// the seals and the stamped sequence agree; `None` when the commit
    /// fsync fails (retry later — shipping an inconsistent snapshot would
    /// double-apply frames at the follower).
    pub fn replication_snapshot(&mut self) -> Option<(Checkpoint, BTreeMap<String, u64>)> {
        self.commit().ok()?;
        let ckpt = Checkpoint {
            gen: self.durable.ckpt_gen,
            seq: self.durable.last_committed,
            docs: self.dump(),
        };
        Some((ckpt, self.digests.clone()))
    }

    /// Appends the redo records a query produced — even when the query
    /// later failed, any PUL it already applied (mid-script) must be
    /// journaled — then runs the group-commit / checkpoint policy.
    fn drain_journal(&mut self, journal: Rc<RefCell<Vec<Vec<u8>>>>) {
        let records = journal.take();
        let mut touched: Vec<String> = Vec::new();
        for bytes in &records {
            if let Ok(uris) = wire::pul_doc_uris(bytes) {
                for uri in uris {
                    if !touched.contains(&uri) {
                        touched.push(uri);
                    }
                }
            }
        }
        for bytes in records {
            self.durable.journal(&WalRecord::Pul(bytes));
        }
        self.seal_digests(&touched);
        self.after_journaled_ops();
    }

    /// Seals the state digest of each touched document: refreshes it from
    /// the applied store's cached subtree hashes, records it, and journals
    /// a digest frame per document — the end-to-end integrity assertion
    /// recovery, replication and the scrubber all verify against.
    fn seal_digests(&mut self, uris: &[String]) {
        for uri in uris {
            let Some(digest) = memory_digest(&self.store, uri) else {
                continue;
            };
            self.digests.insert(uri.clone(), digest);
            self.durable.journal(&WalRecord::Digest {
                uri: uri.clone(),
                digest,
            });
        }
    }

    /// Group-commit policy: soft fsync once enough operations are
    /// outstanding (a failure leaves them pending for the next try), then
    /// checkpoint if the log outgrew its threshold.
    fn after_journaled_ops(&mut self) {
        if self.durable.pending_ops >= self.durable.cfg.group_commit {
            let _ = self.commit();
        }
        if self.checkpoint_due() {
            let _ = self.checkpoint();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use xqib_storage::StorageFaultPlan;

    /// The state digest from the serialization, hashed whole: what the
    /// cached subtree hashes must reproduce.
    fn digest_of_serialization(uri: &str, xml: &str) -> u64 {
        state_digest(uri, TreeHash::of(xml.as_bytes()))
    }

    /// Ships up to `n` of `leader`'s committed frames `follower` lacks,
    /// returning how many applied.
    fn ship_frames(leader: &XmlDb, follower: &mut XmlDb, n: usize) -> usize {
        let frames = leader.committed_frames_after(follower.appended_seq());
        let frames = frames.unwrap().into_iter().take(n);
        frames
            .take_while(|f| {
                let uris = record_uris(&f.record).unwrap();
                follower.accept_frame(f.seq, &f.record, &uris, &f.bytes)
            })
            .count()
    }

    /// An ack's digest work does not grow with the document: the leader's
    /// seal and a follower's digest-frame check of the 10,000th item
    /// appended to a cart cost what they cost for the 100th (children
    /// folded plus bytes hashed, `xqib_dom::digest::work`), and the
    /// follower's digests stay the leader's.
    #[test]
    fn ack_digest_work_is_flat_as_a_cart_grows() {
        use xqib_dom::digest::work;
        // no automatic checkpoint, which would truncate frames the
        // follower still needs and resync it by snapshot
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 0,
        };
        let mut leader = XmlDb::durable(VirtualDisk::new(), cfg);
        let mut follower = XmlDb::durable(VirtualDisk::new(), cfg);
        let add = "declare variable $id external; \
                   insert node <item id=\"{$id}\"/> into doc(\"cart.xml\")/*";
        leader.load("cart.xml", "<cart/>").unwrap();
        ship_frames(&leader, &mut follower, usize::MAX);
        let mut costs = Vec::new();
        for i in 1..=10_000 {
            let before = work();
            let id = Item::string(format!("{i:05}"));
            leader
                .query_with_deadline(add, None, &[("id", id)])
                .0
                .unwrap();
            let seal = work() - before;
            let before = work();
            assert_eq!(ship_frames(&leader, &mut follower, usize::MAX), 2);
            let check = work() - before;
            if i == 100 || i == 10_000 {
                costs.push((seal, check));
                assert_eq!(follower.digest_of("cart.xml"), leader.digest_of("cart.xml"));
            }
        }
        assert_eq!(
            costs[0], costs[1],
            "(seal, frame check) at 100 and 10,000 items"
        );
        assert!(costs[0].0 > 0 && costs[0].1 > 0);
        let xml = leader.serialize("cart.xml").unwrap();
        assert_eq!(
            leader.digest_of("cart.xml"),
            Some(digest_of_serialization("cart.xml", &xml))
        );
    }

    /// An ack's apply work does not grow with its target either: the
    /// leader's apply and a follower's frame apply of the 10,000th item
    /// appended to a cart read as many child kinds and copy as many node
    /// ids into the undo log (`xqib_xquery::pul::work`) as the 100th's,
    /// and the follower ends with the leader's cart. A delete still
    /// copies the list it shortens.
    #[test]
    fn ack_apply_work_is_flat_as_a_cart_grows() {
        use xqib_xquery::pul::work;
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 0,
        };
        let mut leader = XmlDb::durable(VirtualDisk::new(), cfg);
        let mut follower = XmlDb::durable(VirtualDisk::new(), cfg);
        let add = "declare variable $id external; \
                   insert node <item id=\"{$id}\"/> into doc(\"cart.xml\")/*";
        leader.load("cart.xml", "<cart/>").unwrap();
        ship_frames(&leader, &mut follower, usize::MAX);
        let ship = |leader: &XmlDb, follower: &mut XmlDb| {
            let before = work();
            assert_eq!(ship_frames(leader, follower, usize::MAX), 2);
            work() - before
        };
        let mut costs = Vec::new();
        for i in 1..=10_000 {
            let before = work();
            let id = Item::string(format!("{i:05}"));
            leader
                .query_with_deadline(add, None, &[("id", id)])
                .0
                .unwrap();
            let apply = work() - before;
            let frame_apply = ship(&leader, &mut follower);
            if i == 100 || i == 10_000 {
                costs.push((apply, frame_apply));
            }
        }
        assert_eq!(
            costs[0], costs[1],
            "(leader apply, follower frame apply) at 100 and 10,000 items"
        );
        let before = work();
        leader
            .query("delete node doc('cart.xml')/*/item[1]")
            .unwrap();
        assert!(
            work() - before >= 10_000,
            "the delete's undo copies the list"
        );
        ship(&leader, &mut follower);
        assert_eq!(follower.serialize("cart.xml"), leader.serialize("cart.xml"));
    }

    /// A torn tail that cuts the log between an update's record frame and
    /// its digest frame leaves the document unsealed, not sealed with the
    /// state before the update: the recovered node serves what it holds.
    #[test]
    fn a_seal_lost_to_a_torn_tail_leaves_the_document_readable() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<d/>").unwrap();
        db.query("insert node <x/> into doc('d.xml')/d").unwrap();
        drop(db);
        let scan = Wal::scan(&disk, WAL_FILE);
        let (seq, _, end) = &scan.records[scan.records.len() - 2];
        assert_eq!(*seq, 3, "the insert's record frame");
        let data = disk.read(WAL_FILE).unwrap();
        disk.write_file(WAL_FILE, &data[..end + 3]);
        let db = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db.committed_seq(), 3);
        assert_eq!(db.durability_stats().torn_tails_dropped, 1);
        assert_eq!(db.digest_of("d.xml"), None, "unsealed");
        let body = db.verified_serialize("d.xml").unwrap();
        assert_eq!(body.as_deref(), Some("<d><x/></d>"));
    }

    /// A leader holding `a.xml` and `b.xml` with one insert into `b.xml`
    /// not yet shipped, and a follower holding everything before it.
    fn leader_one_update_ahead() -> (XmlDb, XmlDb) {
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 0,
        };
        let mut leader = XmlDb::durable(VirtualDisk::new(), cfg);
        let mut follower = XmlDb::durable(VirtualDisk::new(), cfg);
        leader.load("a.xml", "<a/>").unwrap();
        leader.load("b.xml", "<b/>").unwrap();
        ship_frames(&leader, &mut follower, usize::MAX);
        leader
            .query("insert node <x/> into doc('b.xml')/b")
            .unwrap();
        assert_eq!(follower.self_check(0), (2, 0));
        (leader, follower)
    }

    /// Between an update's record frame and its digest frame a follower
    /// holds the document unsealed: its self-check skips it and counts no
    /// mismatch, and the digest frame seals it with the leader's digest.
    #[test]
    fn a_document_is_unsealed_between_its_record_and_digest_frames() {
        let (leader, mut follower) = leader_one_update_ahead();
        assert_eq!(
            ship_frames(&leader, &mut follower, 1),
            1,
            "the record frame"
        );
        assert_eq!(follower.serialize("b.xml").unwrap(), "<b><x/></b>");
        assert_eq!(follower.digest_of("b.xml"), None, "unsealed");
        assert_eq!(follower.digest_of("a.xml"), leader.digest_of("a.xml"));
        assert_eq!(follower.self_check(0), (1, 0), "a.xml alone is checked");
        assert!(follower.verified_serialize("b.xml").unwrap().is_some());
        assert_eq!(
            ship_frames(&leader, &mut follower, 1),
            1,
            "the digest frame"
        );
        assert_eq!(follower.digest_of("b.xml"), leader.digest_of("b.xml"));
        assert_eq!(follower.self_check(1), (2, 0));
    }

    /// A digest frame that a diverged follower's memory does not hash to
    /// is refused, but it seals: the self-check and every verified read
    /// see the divergence instead of an unsealed document.
    #[test]
    fn a_digest_frame_memory_disagrees_with_still_seals() {
        let (leader, mut follower) = leader_one_update_ahead();
        assert_eq!(
            ship_frames(&leader, &mut follower, 1),
            1,
            "the record frame"
        );
        let rotted = xqib_dom::parse_document("<rotted/>").unwrap();
        bind(&follower.store, "b.xml", rotted);
        assert_eq!(
            ship_frames(&leader, &mut follower, 1),
            0,
            "the digest frame"
        );
        assert_eq!(follower.digest_of("b.xml"), leader.digest_of("b.xml"));
        assert_eq!(follower.self_check(0), (2, 1));
        assert!(follower.verified_serialize("b.xml").is_err());
    }

    /// Documents and arena slots in the store.
    fn sizes(db: &XmlDb) -> (usize, usize) {
        let store = db.store.borrow();
        (store.doc_count(), store.node_count())
    }

    /// Whatever way a query ends, what it constructed is gone when it
    /// returns: an error after construction, a deadline kill in the middle
    /// of it, a `document { }` result, a missing context document. An
    /// update leaves exactly its inserted node behind, in its target.
    #[test]
    fn every_exit_path_releases_what_the_query_built() {
        let mut db = XmlDb::new();
        db.load("d.xml", "<r/>").unwrap();
        let before = sizes(&db);
        assert_eq!(db.query("(<a/>, error())").unwrap_err().code, "FOER0000");
        assert_eq!(sizes(&db), before, "error");
        let (killed, _) =
            db.query_with_deadline("count(for $i in 1 to 100000 return <a/>)", Some(500), &[]);
        assert_eq!(killed.unwrap_err().code, "XQIB0014");
        assert_eq!(sizes(&db), before, "deadline kill");
        assert_eq!(db.query("document { <x/> }").unwrap(), "<x/>");
        assert_eq!(sizes(&db), before, "document constructor");
        assert_eq!(
            db.query_doc("nope.xml", "<a/>").unwrap_err().code,
            "FODC0002"
        );
        assert_eq!(sizes(&db), before, "missing context document");
        db.query("insert node <i/> into doc('d.xml')/r").unwrap();
        assert_eq!(sizes(&db), (before.0, before.1 + 1), "update");
        assert_eq!(db.serialize("d.xml").unwrap(), "<r><i/></r>");
    }

    /// A read-only `copy … modify … return` copies into the request's
    /// construction document: its source document keeps its arena, its
    /// epoch and its cached image.
    #[test]
    fn a_transform_leaves_its_source_as_it_found_it() {
        let mut db = XmlDb::new();
        db.load("d.xml", "<r><a><b/><c/></a></r>").unwrap();
        let image = db.image("d.xml").unwrap();
        let state = |db: &XmlDb| {
            let store = db.store.borrow();
            let doc = store.doc(store.doc_by_uri("d.xml").unwrap());
            (doc.len(), doc.epoch())
        };
        let before = state(&db);
        for _ in 0..10 {
            let q = "copy $c := doc('d.xml')/r/a modify delete node $c/b return count($c/*)";
            assert_eq!(db.query(q).unwrap(), "1");
        }
        assert_eq!(state(&db), before);
        assert!(Rc::ptr_eq(&image, &db.image("d.xml").unwrap()));
    }

    /// A query that fails after building its pending update list takes
    /// the copies it made back out of the target, whether it raised an
    /// error or ran out of its deadline; copies a list applied mid-script
    /// stay with the nodes they were attached to.
    #[test]
    fn a_failed_update_leaves_its_target_as_it_found_it() {
        let mut db = XmlDb::new();
        db.load("d.xml", "<r/>").unwrap();
        let before = sizes(&db);
        for _ in 0..10 {
            let q = "(insert node <i><j/><k/></i> into doc('d.xml')/r, error())";
            assert_eq!(db.query(q).unwrap_err().code, "FOER0000");
        }
        assert_eq!(sizes(&db), before, "error");
        let q = "(insert node <i/> into doc('d.xml')/r, count(for $i in 1 to 100000 return <a/>))";
        let (killed, _) = db.query_with_deadline(q, Some(500), &[]);
        assert_eq!(killed.unwrap_err().code, "XQIB0014");
        assert_eq!(sizes(&db), before, "deadline kill");
        assert_eq!(db.serialize("d.xml").unwrap(), "<r/>");
        let q = "{ insert node <i><j/></i> into doc('d.xml')/r; \
                 (insert node <x/> into doc('d.xml')/r, error()); }";
        assert_eq!(db.query(q).unwrap_err().code, "FOER0000");
        assert_eq!(db.serialize("d.xml").unwrap(), "<r><i><j/></i></r>");
        assert_eq!(db.query("count(doc('d.xml')//*)").unwrap(), "3");
    }

    /// Constructed nodes follow every stored document in document order,
    /// including one loaded after the construction document was first
    /// used and kept for reuse.
    #[test]
    fn constructed_nodes_follow_every_stored_document() {
        let mut db = XmlDb::new();
        db.load("d.xml", "<d/>").unwrap();
        let order = "for $n in (<c/>, doc('d.xml')/d)/self::* return name($n)";
        assert_eq!(db.query(order).unwrap(), "d c");
        db.load("e.xml", "<e/>").unwrap();
        let order = "for $n in (<c/>, doc('e.xml')/e, doc('d.xml')/d)/self::* return name($n)";
        assert_eq!(db.query(order).unwrap(), "d e c");
    }

    #[test]
    fn load_and_query() {
        let mut db = XmlDb::new();
        db.load("lib.xml", "<books><book><title>A</title></book></books>")
            .unwrap();
        let out = db.query("count(doc('lib.xml')//book)").unwrap();
        assert_eq!(out, "1");
        assert_eq!(db.evals, 1);
    }

    #[test]
    fn query_doc_uses_context_item() {
        let mut db = XmlDb::new();
        db.load("lib.xml", "<books><book/><book/></books>").unwrap();
        let out = db.query_doc("lib.xml", "count(//book)").unwrap();
        assert_eq!(out, "2");
    }

    #[test]
    fn serialize_roundtrip() {
        let mut db = XmlDb::new();
        db.load("d.xml", "<r><a x=\"1\"/></r>").unwrap();
        assert_eq!(db.serialize("d.xml").unwrap(), "<r><a x=\"1\"/></r>");
        assert!(db.serialize("missing.xml").is_none());
    }

    #[test]
    fn bad_query_is_error() {
        let mut db = XmlDb::new();
        assert!(db.query("1 +").is_err());
        assert!(db.query_doc("nope.xml", "1").is_err());
    }

    #[test]
    fn reload_replaces_the_binding() {
        let mut db = XmlDb::new();
        let id1 = db.load("d.xml", "<old/>").unwrap();
        let id2 = db.load("d.xml", "<new><child/></new>").unwrap();
        assert_eq!(id1, id2, "same DocId slot");
        assert_eq!(db.serialize("d.xml").unwrap(), "<new><child/></new>");
        assert_eq!(db.query("count(doc('d.xml')//child)").unwrap(), "1");
    }

    #[test]
    fn durable_load_and_update_survive_recovery() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r><v>1</v></r>").unwrap();
        db.query("replace value of node doc('d.xml')//v with '2'")
            .unwrap();
        assert_eq!(db.serialize("d.xml").unwrap(), "<r><v>2</v></r>");
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), "<r><v>2</v></r>");
        assert_eq!(db2.durability_stats().recoveries, 1);
    }

    /// Deeper than any recursion survives on a test thread's stack: the
    /// load's digest seal, the checkpoint and the recovery walk it.
    #[test]
    fn deep_document_survives_checkpoint_and_recovery() {
        const DEEP: usize = 100_000;
        let xml = "<a>".repeat(DEEP) + "x" + &"</a>".repeat(DEEP);
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", &xml).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), xml);
    }

    #[test]
    fn recovery_is_idempotent() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        db.query("insert node <a>x</a> into doc('d.xml')/r")
            .unwrap();
        db.checkpoint().unwrap();
        db.query("insert node <b>y</b> into doc('d.xml')/r")
            .unwrap();
        let expect = db.serialize("d.xml").unwrap();
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk.clone(), DurabilityConfig::default()).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), expect);
        let seq = db2.committed_seq();
        drop(db2);
        disk.crash();
        let db3 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db3.serialize("d.xml").unwrap(), expect);
        assert_eq!(db3.committed_seq(), seq);
    }

    #[test]
    fn unsynced_tail_is_dropped_but_committed_prefix_survives() {
        let disk = VirtualDisk::with_plan(StorageFaultPlan::seeded(5));
        // group_commit = 100: nothing fsyncs until commit() is called
        let cfg = DurabilityConfig {
            group_commit: 100,
            checkpoint_threshold: 0,
        };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        db.load("d.xml", "<r><v>committed</v></r>").unwrap();
        db.commit().unwrap();
        db.query("replace value of node doc('d.xml')//v with 'lost-on-crash'")
            .unwrap();
        assert_eq!(db.committed_seq(), 2, "load frame + its digest seal");
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, cfg).unwrap();
        assert_eq!(
            db2.serialize("d.xml").unwrap(),
            "<r><v>committed</v></r>",
            "unsynced update is gone, committed load intact"
        );
    }

    #[test]
    fn sync_failure_is_soft_and_retried() {
        // sync always fails at permille 1000
        let disk =
            VirtualDisk::with_plan(StorageFaultPlan::seeded(7).with_sync_fail_permille(1000));
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // group commit fails softly
        assert_eq!(db.committed_seq(), 0, "not acknowledged");
        assert_eq!(db.serialize("d.xml").unwrap(), "<r/>", "still applied");
        // heal the device: the next journaled op commits the whole batch
        disk.set_plan(StorageFaultPlan::seeded(7));
        db.load("e.xml", "<e/>").unwrap();
        assert_eq!(
            db.committed_seq(),
            4,
            "both loads (and their digest seals) acknowledged"
        );
    }

    #[test]
    fn checkpoint_threshold_triggers_and_truncates() {
        let disk = VirtualDisk::new();
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 256,
        };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        let big = format!("<r>{}</r>", "<x>padding</x>".repeat(20));
        db.load("d.xml", &big).unwrap();
        assert!(db.durability_stats().checkpoints >= 1, "threshold crossed");
        assert!(disk.len(WAL_FILE) < 256, "log truncated");
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, cfg).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), big);
    }

    #[test]
    fn both_checkpoint_slots_corrupt_recovers_from_the_wal_alone() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r><v>1</v></r>").unwrap();
        db.checkpoint().unwrap();
        db.query("insert node <a/> into doc('d.xml')/r").unwrap();
        drop(db);
        // wreck both slots: recovery must fall back cleanly, not panic
        for slot in CKPT_SLOTS {
            if let Some(mut data) = disk.read(slot) {
                let mid = data.len() / 2;
                data[mid] ^= 0xff;
                disk.write_file(slot, &data);
            } else {
                disk.write_file(slot, b"garbage");
            }
        }
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        // the checkpoint absorbed seq 1..=2 and truncated the WAL, so only
        // the post-checkpoint insert replays onto an empty store: with the
        // snapshot gone, its PUL cannot resolve and recovery stops at the
        // empty frame boundary — a clean (if empty) state, never a panic
        assert_eq!(db2.committed_seq(), 0);
        assert!(db2.serialize("d.xml").is_none());
        assert_eq!(
            db2.durability_stats().ckpt_slots_lost,
            1,
            "losing every snapshot slot is surfaced, not silent"
        );
    }

    #[test]
    fn digests_are_sealed_journaled_and_survive_recovery() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r><v>1</v></r>").unwrap();
        db.query("replace value of node doc('d.xml')//v with '2'")
            .unwrap();
        let sealed = db.digest_of("d.xml").expect("digest recorded");
        let xml = db.serialize("d.xml").unwrap();
        assert_eq!(sealed, digest_of_serialization("d.xml", &xml));
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db2.digest_of("d.xml"), Some(sealed));
        assert_eq!(db2.durability_stats().recovery_digest_mismatches, 0);
        assert_eq!(
            db2.verified_serialize("d.xml").unwrap().unwrap(),
            "<r><v>2</v></r>"
        );
    }

    #[test]
    fn poisoned_digest_refuses_the_read() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk, DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        assert!(db.verified_serialize("d.xml").is_ok());
        assert!(db.poison_recorded_digest("d.xml"));
        let err = db.verified_serialize("d.xml").unwrap_err();
        assert!(matches!(
            err,
            xqib_storage::IntegrityError::DigestMismatch { .. }
        ));
        // unbound URIs and unpoisoned docs still serve
        assert_eq!(db.verified_serialize("missing.xml").unwrap(), None);
        assert!(!db.poison_recorded_digest("missing.xml"));
    }

    #[test]
    fn mid_prefix_rot_is_counted_and_truncated_by_recovery() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // seq 1..=2
        db.load("e.xml", "<e/>").unwrap(); // seq 3..=4
        drop(db);
        // flip a payload byte inside the second frame: damage strictly
        // inside the durable prefix, which no legal crash produces
        let mut data = disk.read(WAL_FILE).unwrap();
        let first_end = xqib_storage::Wal::scan(&disk, WAL_FILE).records[0].2;
        data[first_end + 17] ^= 0x40;
        disk.write_file(WAL_FILE, &data);
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        let stats = db2.durability_stats();
        assert_eq!(stats.wal_corruptions, 1, "rot classified as the alarm");
        assert_eq!(db2.committed_seq(), 1, "replay stops before the damage");
        assert_eq!(db2.serialize("d.xml").unwrap(), "<r/>");
        assert!(db2.serialize("e.xml").is_none());
    }

    #[test]
    fn forged_digest_frame_stops_replay_with_a_mismatch_count() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // seq 1..=2
        drop(db);
        // append a digest frame asserting a hash the store cannot match
        let replay = xqib_storage::Wal::scan(&disk, WAL_FILE);
        let mut wal = xqib_storage::Wal::open_after(disk.clone(), WAL_FILE, &replay);
        wal.append(&WalRecord::Digest {
            uri: "d.xml".to_string(),
            digest: 0xBAD0_BAD0_BAD0_BAD0,
        });
        wal.sync().unwrap();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        let stats = db2.durability_stats();
        assert_eq!(stats.recovery_digest_mismatches, 1);
        assert_eq!(db2.committed_seq(), 2, "state stops at the last seal");
        assert_eq!(db2.serialize("d.xml").unwrap(), "<r/>");
    }

    #[test]
    fn the_disk_damage_probe_classifies_the_device() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        db.load("e.xml", "<e/>").unwrap();
        db.checkpoint().unwrap();
        db.load("f.xml", "<f/>").unwrap();
        assert_eq!(
            db.disk_damage(),
            DiskDamage::default(),
            "clean log and slots"
        );
        // rot the WAL mid-prefix and one checkpoint slot
        let mut data = disk.read(WAL_FILE).unwrap();
        let first_end = xqib_storage::Wal::scan(&disk, WAL_FILE).records[0].2;
        data[first_end + 17] ^= 0x01;
        disk.write_file(WAL_FILE, &data);
        let slot = CKPT_SLOTS[1]; // gen 1 went to slot 1
        let mut ck = disk.read(slot).unwrap();
        let mid = ck.len() / 2;
        ck[mid] ^= 0x01;
        disk.write_file(slot, &ck);
        let damage = db.disk_damage();
        assert!(damage.wal_rot && damage.any());
        assert_eq!(
            damage.slots,
            vec![
                xqib_storage::IntegrityError::CheckpointSlotCorrupt { slot: 1 },
                xqib_storage::IntegrityError::AllCheckpointSlotsCorrupt,
            ],
            "the only written slot rotted: the alarm verdict fires"
        );
        // a torn tail is the expected crash shape, not damage
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        disk.append(WAL_FILE, &[7, 0, 0]);
        assert!(!db.disk_damage().any());
    }

    #[test]
    fn unreadable_checkpoint_document_is_a_typed_recovery_failure() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        db.checkpoint().unwrap();
        drop(db);
        // forge a checkpoint whose checksum is intact but whose document body is
        // not XML: read_latest accepts it, the parse must fail *typed*
        let forged = Checkpoint {
            gen: 2,
            seq: 1,
            docs: vec![("d.xml".into(), "<unclosed".into())],
        };
        forged.write(&disk).unwrap();
        let err = XmlDb::recover(disk, DurabilityConfig::default())
            .err()
            .expect("recovery must fail, not panic");
        assert_eq!(err.code, wire::WIRE_ERR);
        assert!(err.message.contains("d.xml"), "names the bad document");
    }

    #[test]
    fn committed_frames_after_ships_exactly_the_committed_suffix() {
        let disk = VirtualDisk::new();
        let cfg = DurabilityConfig {
            group_commit: 100, // manual commits only
            checkpoint_threshold: 0,
        };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        db.load("d.xml", "<r/>").unwrap(); // seq 1 + digest seq 2
        db.load("e.xml", "<e/>").unwrap(); // seq 3 + digest seq 4
        db.commit().unwrap();
        db.load("f.xml", "<f/>").unwrap(); // seq 5..=6, uncommitted
        assert_eq!(db.appended_seq(), 6);
        assert_eq!(db.committed_seq(), 4);
        let frames = db.committed_frames_after(0).unwrap();
        assert_eq!(
            frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4],
            "only committed frames ship"
        );
        let tail = db.committed_frames_after(3).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 4);
        assert!(db.committed_frames_after(4).unwrap().is_empty());
    }

    #[test]
    fn frames_absorbed_by_a_checkpoint_force_a_snapshot_resync() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // seq 1..=2
        db.checkpoint().unwrap(); // truncates the WAL
        db.load("e.xml", "<e/>").unwrap(); // seq 3..=4
        assert!(
            db.committed_frames_after(0).is_none(),
            "seq 1 is gone from the log: follower at 0 needs a snapshot"
        );
        let (snap, seals) = db.replication_snapshot().unwrap();
        assert_eq!(seals.len(), 2);
        assert_eq!(snap.seq, db.committed_seq());
        assert_eq!(snap.docs.len(), 2);
        // a follower already past the checkpoint still gets frames
        let frames = db.committed_frames_after(2).unwrap();
        assert_eq!(frames.iter().map(|f| f.seq).collect::<Vec<_>>(), vec![3, 4]);
    }
}
