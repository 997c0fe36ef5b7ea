//! The Pending Update List (XQuery Update Facility).
//!
//! §3.2 of the paper: "All modifications are performed once the expression
//! is entirely evaluated: there are no side effects until the end and
//! instructions do not see the side effects of former instructions." The
//! [`Pul`] accumulates update primitives during evaluation; [`Pul::apply`]
//! performs them against the store in the W3C-prescribed order with the
//! standard compatibility checks, and the Scripting Extension applies the
//! list between statements (making effects visible to subsequent ones).
//!
//! Applying is *transactional*: every mutation first records its inverse in
//! an undo log, and any mid-apply error rolls the store back to the exact
//! pre-apply state, so the live DOM is always all-or-nothing. A seeded
//! crash-point injector ([`CrashPoint`], `XQIB_CRASH_POINT`) forces failures
//! at arbitrary apply steps so tests can exercise every rollback path.
//!
//! An apply costs what its primitives touch, not what their targets hold:
//! an append records its target's child count, not its child list, and
//! the text coalescing skips every document whose
//! [`texts_apart`](xqib_dom::Document::texts_apart) flag says no two text
//! children are adjacent anywhere in it.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;

use xqib_dom::{DocId, NodeRef, QName, Store};
use xqib_xdm::{XdmError, XdmResult};

/// A single update primitive. Payload nodes (insertions, replacements) are
/// already *copies* living in the same document as their target.
#[derive(Debug, Clone)]
pub enum UpdatePrimitive {
    InsertInto {
        target: NodeRef,
        children: Vec<NodeRef>,
    },
    InsertFirst {
        target: NodeRef,
        children: Vec<NodeRef>,
    },
    InsertLast {
        target: NodeRef,
        children: Vec<NodeRef>,
    },
    InsertBefore {
        anchor: NodeRef,
        children: Vec<NodeRef>,
    },
    InsertAfter {
        anchor: NodeRef,
        children: Vec<NodeRef>,
    },
    InsertAttributes {
        target: NodeRef,
        attrs: Vec<NodeRef>,
    },
    Delete {
        target: NodeRef,
    },
    ReplaceNode {
        target: NodeRef,
        replacements: Vec<NodeRef>,
    },
    ReplaceValue {
        target: NodeRef,
        value: String,
    },
    ReplaceElementContent {
        target: NodeRef,
        text: String,
    },
    Rename {
        target: NodeRef,
        name: QName,
    },
}

/// Deterministic crash injection for the apply path, mirroring the seeded
/// `FaultPlan` on the network side: a crash point forces [`Pul::apply`] to
/// fail with `XQIB0012` just before executing the given apply step, so every
/// prefix of a primitive sequence can be tested for all-or-nothing rollback.
/// `XQIB_CRASH_POINT=<n>` injects globally (CI crash matrix); tests inject
/// explicit points via [`Pul::apply_with_crash`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashPoint {
    at: Option<u64>,
}

impl CrashPoint {
    /// Never crashes.
    pub fn none() -> Self {
        CrashPoint { at: None }
    }

    /// Crashes just before apply step `step` (0-based).
    pub fn at(step: u64) -> Self {
        CrashPoint { at: Some(step) }
    }

    /// Parses an `XQIB_CRASH_POINT`-style value; anything non-numeric
    /// (including absence) disables injection.
    pub fn parse(value: Option<&str>) -> Self {
        CrashPoint {
            at: value.and_then(|s| s.trim().parse().ok()),
        }
    }

    /// The process-wide crash point from the environment.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("XQIB_CRASH_POINT").ok().as_deref())
    }

    /// The injected step, if any.
    pub fn step(&self) -> Option<u64> {
        self.at
    }
}

/// One inverse operation captured *before* a mutation. Rolling back replays
/// the log in reverse; each entry restores a single piece of document state
/// (a child list, an attribute list, a simple value or a name) to its
/// pre-mutation snapshot. Nodes created during the failed apply stay in the
/// arena as unreachable tombstones — the arena never frees — which is
/// invisible to serialization and navigation.
#[derive(Debug, Clone)]
enum UndoOp {
    Children {
        parent: NodeRef,
        snapshot: Vec<xqib_dom::NodeId>,
    },
    /// Appends to `parent`'s child list, which held `len` children.
    Appended {
        parent: NodeRef,
        len: usize,
    },
    Attributes {
        elem: NodeRef,
        snapshot: Vec<xqib_dom::NodeId>,
    },
    SimpleValue {
        node: NodeRef,
        value: String,
    },
    Name {
        node: NodeRef,
        name: QName,
    },
}

/// Transaction state threaded through one apply: the undo log, the crash
/// injector, the step counter and each written document's
/// [`texts_apart`](xqib_dom::Document::texts_apart) flag as the apply
/// found it. `track == false` (the bench baseline) skips undo recording
/// entirely.
struct Txn {
    undo: Vec<UndoOp>,
    track: bool,
    crash: CrashPoint,
    step: u64,
    texts_apart: Vec<(DocId, bool)>,
    /// Check every touched parent for adjacent text, trusting no
    /// `texts_apart` flag: the oracle of the skip.
    scan_all: bool,
}

#[cfg(any(test, feature = "oracle"))]
thread_local! {
    static WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Child kinds read by the coalescing check plus node ids copied into the
/// undo log by this thread's applies so far: what the tests that pin an
/// apply's cost read.
#[cfg(any(test, feature = "oracle"))]
pub fn work() -> u64 {
    WORK.with(|w| w.get())
}

#[cfg(any(test, feature = "oracle"))]
fn count(n: usize) {
    WORK.with(|w| w.set(w.get() + n as u64));
}

#[cfg(not(any(test, feature = "oracle")))]
#[inline(always)]
fn count(_: usize) {}

impl Txn {
    fn new(track: bool, crash: CrashPoint) -> Self {
        Txn {
            undo: Vec::new(),
            track,
            crash,
            step: 0,
            texts_apart: Vec::new(),
            scan_all: false,
        }
    }

    /// Pre-sizes the undo log: almost every primitive records exactly one
    /// inverse, so reserving up front avoids regrowth on large lists.
    fn reserve(&mut self, prims: usize) {
        if self.track {
            self.undo.reserve(prims);
        }
    }

    /// Advances the apply-step counter, failing with `XQIB0012` when the
    /// injected crash point is reached.
    fn step(&mut self) -> XdmResult<()> {
        if self.crash.at == Some(self.step) {
            return Err(XdmError::new(
                "XQIB0012",
                format!("injected crash at apply step {}", self.step),
            ));
        }
        self.step += 1;
        Ok(())
    }

    fn save_children(&mut self, store: &Store, parent: NodeRef) {
        if self.track {
            let snapshot = store.doc(parent.doc).children(parent.node).to_vec();
            count(snapshot.len());
            self.undo.push(UndoOp::Children { parent, snapshot });
        }
    }

    /// The inverse of appends to `parent`: its child count.
    fn save_len(&mut self, store: &Store, parent: NodeRef) {
        if self.track {
            let len = store.doc(parent.doc).children(parent.node).len();
            self.undo.push(UndoOp::Appended { parent, len });
        }
    }

    fn save_attributes(&mut self, store: &Store, elem: NodeRef) {
        // non-elements (an attribute insert whose anchor's parent is the
        // document node) reject the mutation itself: nothing to undo
        if self.track && store.doc(elem.doc).kind(elem.node).is_element() {
            self.undo.push(UndoOp::Attributes {
                elem,
                snapshot: store.doc(elem.doc).attributes(elem.node).to_vec(),
            });
        }
    }

    fn save_simple_value(&mut self, store: &Store, node: NodeRef) {
        if self.track {
            // nodes without a simple value (documents, elements) reject the
            // mutation itself, so there is nothing to undo for them
            if let Some(value) = store.doc(node.doc).simple_value(node.node) {
                let value = value.to_string();
                self.undo.push(UndoOp::SimpleValue { node, value });
            }
        }
    }

    fn save_name(&mut self, store: &Store, node: NodeRef) {
        if self.track {
            if let Some(name) = store.doc(node.doc).node_name(node.node) {
                self.undo.push(UndoOp::Name { node, name });
            }
        }
    }

    /// Replays the undo log in reverse, restoring the pre-apply state.
    /// Rollback replays snapshots of a previously consistent document, so
    /// the individual restores cannot fail; any error here would indicate
    /// arena corruption and is deliberately not propagated (there is no
    /// better state to return to). Every child list the apply wrote is
    /// back as it was, so each document's `texts_apart` flag is too.
    fn rollback(self, store: &mut Store) {
        for op in self.undo.into_iter().rev() {
            match op {
                UndoOp::Children { parent, snapshot } => {
                    let r = store
                        .doc_mut(parent.doc)
                        .restore_children(parent.node, &snapshot);
                    debug_assert!(r.is_ok(), "child-list rollback failed: {r:?}");
                }
                UndoOp::Appended { parent, len } => {
                    let r = store
                        .doc_mut(parent.doc)
                        .truncate_children(parent.node, len);
                    debug_assert!(r.is_ok(), "append rollback failed: {r:?}");
                }
                UndoOp::Attributes { elem, snapshot } => {
                    let r = store
                        .doc_mut(elem.doc)
                        .restore_attributes(elem.node, &snapshot);
                    debug_assert!(r.is_ok(), "attribute rollback failed: {r:?}");
                }
                UndoOp::SimpleValue { node, value } => {
                    let r = store.doc_mut(node.doc).set_simple_value(node.node, value);
                    debug_assert!(r.is_ok(), "value rollback failed: {r:?}");
                }
                UndoOp::Name { node, name } => {
                    let r = store.doc_mut(node.doc).rename(node.node, name);
                    debug_assert!(r.is_ok(), "name rollback failed: {r:?}");
                }
            }
        }
        for (d, apart) in self.texts_apart {
            if apart && !store.doc(d).texts_apart() {
                store.doc_mut(d).mark_texts_apart();
            }
        }
    }
}

impl UpdatePrimitive {
    /// The document the primitive writes to.
    fn doc(&self) -> DocId {
        match self {
            UpdatePrimitive::InsertInto { target, .. }
            | UpdatePrimitive::InsertFirst { target, .. }
            | UpdatePrimitive::InsertLast { target, .. }
            | UpdatePrimitive::InsertAttributes { target, .. }
            | UpdatePrimitive::Delete { target }
            | UpdatePrimitive::ReplaceNode { target, .. }
            | UpdatePrimitive::ReplaceValue { target, .. }
            | UpdatePrimitive::ReplaceElementContent { target, .. }
            | UpdatePrimitive::Rename { target, .. } => target.doc,
            UpdatePrimitive::InsertBefore { anchor, .. }
            | UpdatePrimitive::InsertAfter { anchor, .. } => anchor.doc,
        }
    }
}

/// The pending update list.
#[derive(Debug, Default, Clone)]
pub struct Pul {
    prims: Vec<UpdatePrimitive>,
}

impl Pul {
    pub fn new() -> Self {
        Pul::default()
    }

    pub fn is_empty(&self) -> bool {
        self.prims.is_empty()
    }

    pub fn len(&self) -> usize {
        self.prims.len()
    }

    pub fn push(&mut self, p: UpdatePrimitive) {
        self.prims.push(p);
    }

    /// The accumulated primitives, in accumulation order (the order the
    /// wire codec in [`crate::wire`] encodes and replays them in).
    pub fn primitives(&self) -> &[UpdatePrimitive] {
        &self.prims
    }

    /// Merges another PUL into this one (used when combining results of
    /// sub-expressions). Compatibility invariants are *not* re-checked here;
    /// [`Pul::apply`] runs the full `check()` over the merged list, so
    /// conflicts across merged sub-lists are still rejected.
    pub fn merge(&mut self, other: Pul) {
        self.prims.extend(other.prims);
    }

    pub fn take(&mut self) -> Pul {
        Pul {
            prims: std::mem::take(&mut self.prims),
        }
    }

    /// W3C compatibility checks performed before applying (`XUDY0015/16/17`
    /// for duplicate renames / value replaces / node replaces). Public so
    /// merged lists can be validated without attempting an apply.
    pub fn check(&self) -> XdmResult<()> {
        let mut renamed: HashSet<NodeRef> = HashSet::new();
        let mut value_replaced: HashSet<NodeRef> = HashSet::new();
        let mut node_replaced: HashSet<NodeRef> = HashSet::new();
        for p in &self.prims {
            match p {
                UpdatePrimitive::Rename { target, .. } if !renamed.insert(*target) => {
                    return Err(XdmError::new(
                        "XUDY0015",
                        "two rename operations target the same node",
                    ));
                }
                UpdatePrimitive::ReplaceValue { target, .. }
                | UpdatePrimitive::ReplaceElementContent { target, .. }
                    if !value_replaced.insert(*target) =>
                {
                    return Err(XdmError::new(
                        "XUDY0017",
                        "two replace-value operations target the same node",
                    ));
                }
                UpdatePrimitive::ReplaceNode { target, .. } if !node_replaced.insert(*target) => {
                    return Err(XdmError::new(
                        "XUDY0016",
                        "two replace-node operations target the same node",
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Applies the whole list to the store, all-or-nothing: on any mid-apply
    /// error the store is rolled back to its pre-apply state via the undo
    /// log. Honours a process-wide `XQIB_CRASH_POINT` for fault injection.
    pub fn apply(self, store: &mut Store) -> XdmResult<()> {
        self.apply_with_crash(store, CrashPoint::from_env())
    }

    /// Transactional apply with an explicit crash point (test hook).
    pub fn apply_with_crash(self, store: &mut Store, crash: CrashPoint) -> XdmResult<()> {
        self.apply_txn(store, Txn::new(true, crash))
    }

    /// [`Self::apply_with_crash`] with the coalescing check run on every
    /// touched parent, as if no document kept its `texts_apart` flag: the
    /// oracle the skip is compared with.
    #[cfg(feature = "oracle")]
    pub fn apply_scanning_every_parent(
        self,
        store: &mut Store,
        crash: CrashPoint,
    ) -> XdmResult<()> {
        let mut txn = Txn::new(true, crash);
        txn.scan_all = true;
        self.apply_txn(store, txn)
    }

    fn apply_txn(self, store: &mut Store, mut txn: Txn) -> XdmResult<()> {
        self.check()?;
        txn.reserve(self.prims.len());
        match self.apply_inner(store, &mut txn) {
            Ok(()) => Ok(()),
            Err(e) => {
                txn.rollback(store);
                Err(e)
            }
        }
    }

    /// Non-transactional apply: no undo log, no rollback. A mid-apply error
    /// leaves earlier primitives applied. Exists as the baseline for the
    /// undo-log overhead benchmark; engine code always goes through
    /// [`Pul::apply`].
    pub fn apply_untracked(self, store: &mut Store) -> XdmResult<()> {
        self.check()?;
        let mut txn = Txn::new(false, CrashPoint::none());
        self.apply_inner(store, &mut txn)
    }

    /// The apply phases, in the UF spec's `upd:applyUpdates` order:
    /// inserts/attributes first, then replaces, then renames, then deletes;
    /// adjacent text nodes are merged afterwards. Each primitive charges one
    /// apply step (the crash-injection granularity) and captures its inverse
    /// *before* mutating.
    fn apply_inner(&self, store: &mut Store, txn: &mut Txn) -> XdmResult<()> {
        for p in &self.prims {
            let d = p.doc();
            if txn.texts_apart.iter().all(|&(seen, _)| seen != d) {
                txn.texts_apart.push((d, store.doc(d).texts_apart()));
            }
        }
        let mut touched_parents: Vec<NodeRef> = Vec::new();
        // documents where a replace by nothing detached a child: its
        // parent is not coalesced, so text it joined stays joined
        let mut uncoalesced: Vec<DocId> = Vec::new();

        let map_err = |e: xqib_dom::DomError| XdmError::new("XUDY9999", e.to_string());

        // Phase 1: insertions
        for p in &self.prims {
            match p {
                UpdatePrimitive::InsertInto { target, children }
                | UpdatePrimitive::InsertLast { target, children } => {
                    txn.step()?;
                    txn.save_len(store, *target);
                    let doc = store.doc_mut(target.doc);
                    for c in children {
                        doc.append_child(target.node, c.node).map_err(map_err)?;
                    }
                    touched_parents.push(*target);
                }
                UpdatePrimitive::InsertFirst { target, children } => {
                    txn.step()?;
                    txn.save_children(store, *target);
                    let doc = store.doc_mut(target.doc);
                    for (i, c) in children.iter().enumerate() {
                        doc.insert_child_at(target.node, i, c.node)
                            .map_err(map_err)?;
                    }
                    touched_parents.push(*target);
                }
                UpdatePrimitive::InsertBefore { anchor, children } => {
                    txn.step()?;
                    let parent = store.doc(anchor.doc).parent(anchor.node);
                    if let Some(parent) = parent {
                        txn.save_children(store, NodeRef::new(anchor.doc, parent));
                    }
                    let doc = store.doc_mut(anchor.doc);
                    for c in children {
                        doc.insert_before(c.node, anchor.node).map_err(map_err)?;
                    }
                    if let Some(parent) = parent {
                        touched_parents.push(NodeRef::new(anchor.doc, parent));
                    }
                }
                UpdatePrimitive::InsertAfter { anchor, children } => {
                    txn.step()?;
                    let parent = store.doc(anchor.doc).parent(anchor.node);
                    if let Some(parent) = parent {
                        txn.save_children(store, NodeRef::new(anchor.doc, parent));
                    }
                    let doc = store.doc_mut(anchor.doc);
                    let mut prev = anchor.node;
                    for c in children {
                        doc.insert_after(c.node, prev).map_err(map_err)?;
                        prev = c.node;
                    }
                    if let Some(parent) = parent {
                        touched_parents.push(NodeRef::new(anchor.doc, parent));
                    }
                }
                UpdatePrimitive::InsertAttributes { target, attrs } => {
                    txn.step()?;
                    // `put_attribute_node` implicitly detaches a same-name
                    // attribute; the list snapshot covers that too.
                    txn.save_attributes(store, *target);
                    let doc = store.doc_mut(target.doc);
                    for a in attrs {
                        doc.put_attribute_node(target.node, a.node)
                            .map_err(map_err)?;
                    }
                }
                _ => {}
            }
        }

        // Phase 2: replaces
        for p in &self.prims {
            match p {
                UpdatePrimitive::ReplaceNode {
                    target,
                    replacements,
                } => {
                    txn.step()?;
                    let doc = store.doc(target.doc);
                    if !doc.contains(target.node) {
                        return Err(XdmError::new(
                            "XUDY9999",
                            format!("replace-node target {:?} not in arena", target.node),
                        ));
                    }
                    let parent = doc.parent(target.node);
                    let target_is_attr = doc.kind(target.node).is_attribute();
                    if let Some(parent) = parent {
                        let parent_ref = NodeRef::new(target.doc, parent);
                        if target_is_attr {
                            txn.save_attributes(store, parent_ref);
                        } else {
                            txn.save_children(store, parent_ref);
                        }
                    }
                    let doc = store.doc_mut(target.doc);
                    if replacements.is_empty() {
                        doc.detach(target.node).map_err(map_err)?;
                        if parent.is_some() && !target_is_attr {
                            uncoalesced.push(target.doc);
                        }
                    } else {
                        doc.replace_node(target.node, replacements[0].node)
                            .map_err(map_err)?;
                        let mut prev = replacements[0].node;
                        for r in &replacements[1..] {
                            doc.insert_after(r.node, prev).map_err(map_err)?;
                            prev = r.node;
                        }
                        if let Some(parent) = parent {
                            if !target_is_attr {
                                touched_parents.push(NodeRef::new(target.doc, parent));
                            }
                        }
                    }
                }
                UpdatePrimitive::ReplaceValue { target, value } => {
                    txn.step()?;
                    let doc = store.doc(target.doc);
                    if !doc.contains(target.node) {
                        return Err(XdmError::new(
                            "XUDY9999",
                            format!("replace-value target {:?} not in arena", target.node),
                        ));
                    }
                    if doc.kind(target.node).is_element() {
                        txn.save_children(store, *target);
                        store
                            .doc_mut(target.doc)
                            .replace_element_value(target.node, value)
                            .map_err(map_err)?;
                    } else {
                        txn.save_simple_value(store, *target);
                        store
                            .doc_mut(target.doc)
                            .set_simple_value(target.node, value.clone())
                            .map_err(map_err)?;
                    }
                }
                UpdatePrimitive::ReplaceElementContent { target, text } => {
                    txn.step()?;
                    txn.save_children(store, *target);
                    store
                        .doc_mut(target.doc)
                        .replace_element_value(target.node, text)
                        .map_err(map_err)?;
                }
                _ => {}
            }
        }

        // Phase 3: renames
        for p in &self.prims {
            if let UpdatePrimitive::Rename { target, name } = p {
                txn.step()?;
                txn.save_name(store, *target);
                store
                    .doc_mut(target.doc)
                    .rename(target.node, name.clone())
                    .map_err(map_err)?;
            }
        }

        // Phase 4: deletes
        // Deduplicate delete targets (deleting a node twice is fine per spec).
        let mut deleted: HashSet<NodeRef> = HashSet::new();
        for p in &self.prims {
            if let UpdatePrimitive::Delete { target } = p {
                if deleted.insert(*target) {
                    txn.step()?;
                    let doc = store.doc(target.doc);
                    if !doc.contains(target.node) {
                        return Err(XdmError::new(
                            "XUDY9999",
                            format!("delete target {:?} not in arena", target.node),
                        ));
                    }
                    if let Some(parent) = doc.parent(target.node) {
                        let parent_ref = NodeRef::new(target.doc, parent);
                        if doc.kind(target.node).is_attribute() {
                            txn.save_attributes(store, parent_ref);
                        } else {
                            txn.save_children(store, parent_ref);
                            touched_parents.push(parent_ref);
                        }
                    }
                    store
                        .doc_mut(target.doc)
                        .detach(target.node)
                        .map_err(map_err)?;
                }
            }
        }

        // Text-node coalescing on every touched parent. Merging rewrites the
        // child list *and* concatenates values into surviving text nodes, so
        // both inverses are captured.
        let mut seen: HashSet<NodeRef> = HashSet::new();
        for parent in touched_parents {
            if seen.insert(parent) {
                let doc = store.doc(parent.doc);
                // no two text children adjacent anywhere in the document:
                // nothing to merge, and no child to read
                if (doc.texts_apart() && !txn.scan_all) || doc.kind(parent.node).is_attribute() {
                    continue;
                }
                // Merging only does anything when two text children are
                // adjacent; skip the step charge and the inverse snapshots
                // (a child-list clone plus a string per text node) otherwise.
                let kids = doc.children(parent.node);
                count(kids.len());
                let will_merge = kids
                    .windows(2)
                    .any(|w| doc.kind(w[0]).is_text() && doc.kind(w[1]).is_text());
                if !will_merge {
                    continue;
                }
                txn.step()?;
                txn.save_children(store, parent);
                if txn.track {
                    let texts: Vec<xqib_dom::NodeId> = doc
                        .children(parent.node)
                        .iter()
                        .copied()
                        .filter(|&k| doc.kind(k).is_text())
                        .collect();
                    for t in texts {
                        txn.save_simple_value(store, NodeRef::new(parent.doc, t));
                    }
                }
                store
                    .doc_mut(parent.doc)
                    .merge_adjacent_text(parent.node)
                    .map_err(map_err)?;
            }
        }
        // every list the phases could have joined text in is coalesced now
        for &(d, apart) in &txn.texts_apart {
            if apart && !uncoalesced.contains(&d) && !store.doc(d).texts_apart() {
                store.doc_mut(d).mark_texts_apart();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use xqib_dom::serialize::serialize_document;
    use xqib_dom::{DocId, NodeId, QName as Q};

    fn setup() -> (Store, NodeRef, NodeRef) {
        let mut s = Store::new();
        let d = s.new_document(None);
        let doc = s.doc_mut(d);
        let root = doc.create_element(Q::local("books"));
        doc.append_child(doc.root(), root).unwrap();
        let book = doc.create_element(Q::local("book"));
        doc.append_child(root, book).unwrap();
        (s, NodeRef::new(d, root), NodeRef::new(d, book))
    }

    fn snapshot(s: &Store) -> Vec<String> {
        (0..s.doc_count())
            .map(|i| serialize_document(s.doc(DocId(i as u32))))
            .collect()
    }

    #[test]
    fn insert_and_delete_apply_in_order() {
        let (mut s, root, book) = setup();
        let new = {
            let doc = s.doc_mut(root.doc);
            let e = doc.create_element(Q::local("book2"));
            NodeRef::new(root.doc, e)
        };
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: root,
            children: vec![new],
        });
        pul.push(UpdatePrimitive::Delete { target: book });
        pul.apply(&mut s).unwrap();
        let doc = s.doc(root.doc);
        let names: Vec<String> = doc
            .children(root.node)
            .iter()
            .map(|&k| doc.element_name(k).unwrap().lexical())
            .collect();
        assert_eq!(names, ["book2"]);
    }

    #[test]
    fn snapshot_semantics_insert_then_delete_same_node() {
        // deleting the anchor of an insert is fine: inserts run first
        let (mut s, root, book) = setup();
        let new = {
            let doc = s.doc_mut(root.doc);
            NodeRef::new(root.doc, doc.create_element(Q::local("note")))
        };
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::InsertAfter {
            anchor: book,
            children: vec![new],
        });
        pul.push(UpdatePrimitive::Delete { target: book });
        pul.apply(&mut s).unwrap();
        let doc = s.doc(root.doc);
        assert_eq!(doc.children(root.node).len(), 1);
        assert_eq!(
            doc.element_name(doc.children(root.node)[0])
                .unwrap()
                .lexical(),
            "note"
        );
    }

    #[test]
    fn conflicting_renames_rejected() {
        let (mut s, _root, book) = setup();
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Rename {
            target: book,
            name: Q::local("a"),
        });
        pul.push(UpdatePrimitive::Rename {
            target: book,
            name: Q::local("b"),
        });
        assert_eq!(pul.apply(&mut s).unwrap_err().code, "XUDY0015");
    }

    #[test]
    fn conflicting_replace_values_rejected() {
        let (mut s, _root, book) = setup();
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::ReplaceValue {
            target: book,
            value: "a".into(),
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: book,
            value: "b".into(),
        });
        assert_eq!(pul.apply(&mut s).unwrap_err().code, "XUDY0017");
    }

    #[test]
    fn conflicting_renames_across_merged_puls_rejected() {
        // `merge` defers checking to apply time: conflicts spread across two
        // merged sub-lists must still be caught.
        let (mut s, _root, book) = setup();
        let mut left = Pul::new();
        left.push(UpdatePrimitive::Rename {
            target: book,
            name: Q::local("a"),
        });
        let mut right = Pul::new();
        right.push(UpdatePrimitive::Rename {
            target: book,
            name: Q::local("b"),
        });
        left.merge(right);
        let before = snapshot(&s);
        assert_eq!(left.apply(&mut s).unwrap_err().code, "XUDY0015");
        assert_eq!(snapshot(&s), before, "failed check mutates nothing");
    }

    #[test]
    fn conflicting_replaces_across_take_and_merge_rejected() {
        let (mut s, _root, book) = setup();
        let mut staging = Pul::new();
        staging.push(UpdatePrimitive::ReplaceValue {
            target: book,
            value: "x".into(),
        });
        let taken = staging.take();
        assert!(staging.is_empty(), "take leaves the source empty");
        let mut combined = Pul::new();
        combined.push(UpdatePrimitive::ReplaceElementContent {
            target: book,
            text: "y".into(),
        });
        combined.merge(taken);
        assert_eq!(combined.apply(&mut s).unwrap_err().code, "XUDY0017");
    }

    #[test]
    fn replace_value_of_element_and_attribute() {
        let (mut s, _root, book) = setup();
        let attr = {
            let doc = s.doc_mut(book.doc);
            let a = doc.set_attribute(book.node, Q::local("id"), "1").unwrap();
            NodeRef::new(book.doc, a)
        };
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::ReplaceValue {
            target: book,
            value: "1500".into(),
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: attr,
            value: "2".into(),
        });
        pul.apply(&mut s).unwrap();
        let doc = s.doc(book.doc);
        assert_eq!(doc.string_value(book.node), "1500");
        assert_eq!(doc.get_attribute(book.node, None, "id"), Some("2"));
    }

    #[test]
    fn double_delete_is_idempotent() {
        let (mut s, root, book) = setup();
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Delete { target: book });
        pul.push(UpdatePrimitive::Delete { target: book });
        pul.apply(&mut s).unwrap();
        assert!(s.doc(root.doc).children(root.node).is_empty());
    }

    #[test]
    fn text_merging_after_delete() {
        let mut s = Store::new();
        let d = s.new_document(None);
        let (p, _mid) = {
            let doc = s.doc_mut(d);
            let p = doc.create_element(Q::local("p"));
            doc.append_child(doc.root(), p).unwrap();
            let t1 = doc.create_text("a");
            let mid = doc.create_element(Q::local("b"));
            let t2 = doc.create_text("c");
            doc.append_child(p, t1).unwrap();
            doc.append_child(p, mid).unwrap();
            doc.append_child(p, t2).unwrap();
            (NodeRef::new(d, p), NodeRef::new(d, mid))
        };
        let mid = NodeRef::new(d, s.doc(d).children(p.node)[1]);
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Delete { target: mid });
        pul.apply(&mut s).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.children(p.node).len(), 1, "adjacent text merged");
        assert_eq!(doc.string_value(p.node), "ac");
    }

    #[test]
    fn failing_replace_mid_list_rolls_back_earlier_inserts() {
        // The partial-apply regression from the issue: a ReplaceValue on a
        // node that does not exist errors in phase 2, *after* phase 1 already
        // inserted — without the undo log the insert stuck around.
        let (mut s, root, _book) = setup();
        let new = {
            let doc = s.doc_mut(root.doc);
            NodeRef::new(root.doc, doc.create_element(Q::local("late")))
        };
        let before = snapshot(&s);
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: root,
            children: vec![new],
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: NodeRef::new(root.doc, NodeId(9999)),
            value: "boom".into(),
        });
        let err = pul.apply(&mut s).unwrap_err();
        assert_eq!(err.code, "XUDY9999");
        assert_eq!(snapshot(&s), before, "apply is all-or-nothing");
    }

    #[test]
    fn failing_replace_on_document_node_rolls_back() {
        // A document node has no simple value and is not an element: the
        // replace errors after earlier primitives already ran.
        let (mut s, root, book) = setup();
        let before = snapshot(&s);
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Rename {
            target: book,
            name: Q::local("renamed"),
        });
        pul.push(UpdatePrimitive::InsertAttributes {
            target: root,
            attrs: vec![{
                let doc = s.doc_mut(root.doc);
                NodeRef::new(root.doc, doc.create_attribute(Q::local("k"), "v"))
            }],
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: NodeRef::new(root.doc, NodeId(0)),
            value: "boom".into(),
        });
        // note: phase order puts the failing replace *between* the insert
        // (phase 1) and the rename (phase 3)
        assert!(pul.apply(&mut s).is_err());
        assert_eq!(snapshot(&s), before);
        let doc = s.doc(book.doc);
        assert_eq!(doc.element_name(book.node).unwrap().lexical(), "book");
        assert_eq!(doc.get_attribute(root.node, None, "k"), None);
    }

    #[test]
    fn crash_point_at_every_step_round_trips() {
        // Exhaustive sweep: crash before step 0, 1, 2, ... until the apply
        // survives; every failed attempt must leave the store byte-identical.
        for k in 0..32u64 {
            let (mut s, root, book) = setup();
            let (new, attr) = {
                let doc = s.doc_mut(root.doc);
                let e = doc.create_element(Q::local("extra"));
                let a = doc.create_attribute(Q::local("id"), "7");
                (NodeRef::new(root.doc, e), NodeRef::new(root.doc, a))
            };
            let before = snapshot(&s);
            let mut pul = Pul::new();
            pul.push(UpdatePrimitive::InsertInto {
                target: root,
                children: vec![new],
            });
            pul.push(UpdatePrimitive::InsertAttributes {
                target: book,
                attrs: vec![attr],
            });
            pul.push(UpdatePrimitive::ReplaceValue {
                target: book,
                value: "v".into(),
            });
            pul.push(UpdatePrimitive::Rename {
                target: book,
                name: Q::local("tome"),
            });
            pul.push(UpdatePrimitive::Delete { target: new });
            match pul.apply_with_crash(&mut s, CrashPoint::at(k)) {
                Err(e) => {
                    assert_eq!(e.code, "XQIB0012");
                    assert_eq!(snapshot(&s), before, "crash at step {k} not rolled back");
                }
                Ok(()) => {
                    assert_ne!(snapshot(&s), before, "the full apply does mutate");
                    return; // k exceeded the total number of steps
                }
            }
        }
        panic!("apply never completed within the step budget");
    }

    #[test]
    fn crash_point_env_parsing() {
        assert_eq!(CrashPoint::parse(None), CrashPoint::none());
        assert_eq!(CrashPoint::parse(Some("")), CrashPoint::none());
        assert_eq!(CrashPoint::parse(Some("nope")), CrashPoint::none());
        assert_eq!(CrashPoint::parse(Some("3")), CrashPoint::at(3));
        assert_eq!(CrashPoint::parse(Some(" 12 ")).step(), Some(12));
    }

    #[test]
    fn untracked_apply_matches_tracked_on_success() {
        let build = |s: &mut Store, root: NodeRef, book: NodeRef| {
            let new = {
                let doc = s.doc_mut(root.doc);
                NodeRef::new(root.doc, doc.create_element(Q::local("n")))
            };
            let mut pul = Pul::new();
            pul.push(UpdatePrimitive::InsertInto {
                target: root,
                children: vec![new],
            });
            pul.push(UpdatePrimitive::ReplaceValue {
                target: book,
                value: "z".into(),
            });
            pul
        };
        let (mut s1, root1, book1) = setup();
        build(&mut s1, root1, book1).apply(&mut s1).unwrap();
        let (mut s2, root2, book2) = setup();
        build(&mut s2, root2, book2)
            .apply_untracked(&mut s2)
            .unwrap();
        assert_eq!(snapshot(&s1), snapshot(&s2));
    }
}
