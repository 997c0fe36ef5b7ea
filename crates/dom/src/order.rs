//! Document order.
//!
//! XPath/XQuery path results must be returned in document order with
//! duplicates removed — the normalisation that runs after *every* axis
//! step, i.e. the hottest comparison in the whole engine ("programming the
//! browser involves mostly XML (i.e., DOM) navigation").
//!
//! Order is decided by an **interval index**: one lazy O(n) pre-order
//! traversal per [`Document`] assigns every node a `begin`/`end` label
//! (attributes slot between their owner element and its children, matching
//! the XDM rules), after which comparison, ancestry and sorting are O(1)
//! per pair with no allocation. The index is cached behind an epoch counter
//! that every structural arena mutation bumps; a stale index is rebuilt on
//! the next read (see `DESIGN.md` § "Document-order index & invalidation").
//!
//! Across documents, order follows [`crate::store::DocId`]; across detached
//! trees of one document, the root's [`NodeId`] (both stable,
//! implementation-defined orders, as the spec allows).

use std::cmp::Ordering;

use crate::arena::Document;
use crate::node::NodeId;
use crate::store::{NodeRef, Store};

/// Engine counters for the order index and path normalisation, so the
/// wins (and rebuild storms) are observable from the app-server metrics.
///
/// The counters are per thread: the engine is single-threaded, and a
/// server diffing them against a baseline must not see work done by other
/// threads of the same process (e.g. tests running in parallel).
pub mod stats {
    use std::cell::Cell;

    thread_local! {
        static REBUILDS: Cell<u64> = const { Cell::new(0) };
        static SORTS_PERFORMED: Cell<u64> = const { Cell::new(0) };
        static SORTS_ELIDED: Cell<u64> = const { Cell::new(0) };
    }

    /// Point-in-time snapshot of the engine counters.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct EngineStats {
        /// Lazy order-index rebuilds (one O(n) traversal each).
        pub order_index_rebuilds: u64,
        /// `sort_dedup` calls that actually sorted (length > 1).
        pub sorts_performed: u64,
        /// Axis steps whose normalisation was proven unnecessary.
        pub sorts_elided: u64,
    }

    pub fn record_rebuild() {
        REBUILDS.set(REBUILDS.get() + 1);
    }
    pub fn record_sort() {
        SORTS_PERFORMED.set(SORTS_PERFORMED.get() + 1);
    }
    pub fn record_elided_sort() {
        SORTS_ELIDED.set(SORTS_ELIDED.get() + 1);
    }

    /// This thread's counters.
    pub fn snapshot() -> EngineStats {
        EngineStats {
            order_index_rebuilds: REBUILDS.get(),
            sorts_performed: SORTS_PERFORMED.get(),
            sorts_elided: SORTS_ELIDED.get(),
        }
    }

    /// Zeroes this thread's counters.
    pub fn reset() {
        REBUILDS.set(0);
        SORTS_PERFORMED.set(0);
        SORTS_ELIDED.set(0);
    }
}

// ---------------------------------------------------------------------------
// the interval index
// ---------------------------------------------------------------------------

/// Begin/end interval labels over a document's forest, built in one
/// pre-order traversal. For every node `v`:
///
/// * `begin[v]` is its pre-order position (elements first, then their
///   attributes, then children — the XDM document order);
/// * `end[v]` is the largest `begin` in `v`'s subtree, so
///   `begin[a] <= begin[d] && begin[d] <= end[a]` ⇔ `a` is an ancestor-or-
///   self of `d` (attributes count as inside their owner's interval);
/// * `root[v]` is the root of the tree containing `v` (detached subtrees
///   are separate trees, ordered by their root's `NodeId`);
/// * `order[begin[v]] == v`, i.e. `order` is the full pre-order sequence,
///   which makes `following`/`preceding` slice queries instead of walks.
#[derive(Debug, Clone, Default)]
pub struct OrderIndex {
    built_for_epoch: Option<u64>,
    begin: Vec<u32>,
    end: Vec<u32>,
    root: Vec<u32>,
    order: Vec<NodeId>,
}

impl OrderIndex {
    pub(crate) fn is_fresh(&self, epoch: u64) -> bool {
        self.built_for_epoch == Some(epoch)
    }

    /// One O(n) pass over the arena: label every tree in the forest, in
    /// root-`NodeId` order. Allocation-free once the vectors are warm.
    pub(crate) fn rebuild(&mut self, doc: &Document, epoch: u64) {
        let n = doc.len();
        self.begin.clear();
        self.begin.resize(n, 0);
        self.end.clear();
        self.end.resize(n, 0);
        self.root.clear();
        self.root.resize(n, 0);
        self.order.clear();
        self.order.reserve(n);

        // Iterative traversal: deep pages must not overflow the stack.
        enum Frame {
            Enter(NodeId),
            Exit(NodeId),
        }
        let mut stack: Vec<Frame> = Vec::new();
        for slot in 0..n {
            let id = NodeId(slot as u32);
            if doc.parent(id).is_some() {
                continue; // not a tree root
            }
            stack.push(Frame::Enter(id));
            while let Some(frame) = stack.pop() {
                match frame {
                    Frame::Enter(v) => {
                        self.begin[v.index()] = self.order.len() as u32;
                        self.root[v.index()] = id.0;
                        self.order.push(v);
                        for &a in doc.attributes(v) {
                            let pos = self.order.len() as u32;
                            self.begin[a.index()] = pos;
                            self.end[a.index()] = pos;
                            self.root[a.index()] = id.0;
                            self.order.push(a);
                        }
                        stack.push(Frame::Exit(v));
                        for &c in doc.children(v).iter().rev() {
                            stack.push(Frame::Enter(c));
                        }
                    }
                    Frame::Exit(v) => {
                        self.end[v.index()] = (self.order.len() - 1) as u32;
                    }
                }
            }
        }
        debug_assert_eq!(self.order.len(), n);
        self.built_for_epoch = Some(epoch);
    }

    /// Pre-order position of `v` within its document's forest.
    #[inline]
    pub fn begin(&self, v: NodeId) -> u32 {
        self.begin[v.index()]
    }

    /// Largest pre-order position inside `v`'s subtree.
    #[inline]
    pub fn end(&self, v: NodeId) -> u32 {
        self.end[v.index()]
    }

    /// Root of the tree containing `v` (the document node for attached
    /// nodes; the subtree root for detached ones).
    #[inline]
    pub fn tree_root(&self, v: NodeId) -> NodeId {
        NodeId(self.root[v.index()])
    }

    /// O(1) same-document comparison in document order.
    #[inline]
    pub fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        (self.root[a.index()], self.begin[a.index()])
            .cmp(&(self.root[b.index()], self.begin[b.index()]))
    }

    /// O(1) strict-ancestor test (attributes count as descendants of their
    /// owner element).
    #[inline]
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> bool {
        ancestor != node
            && self.root[ancestor.index()] == self.root[node.index()]
            && self.begin[ancestor.index()] <= self.begin[node.index()]
            && self.begin[node.index()] <= self.end[ancestor.index()]
    }

    /// The full pre-order node sequence (`order[begin(v)] == v`); slices of
    /// it answer `following`/`preceding`/subtree queries directly.
    #[inline]
    pub fn pre_order(&self) -> &[NodeId] {
        &self.order
    }
}

// ---------------------------------------------------------------------------
// public comparison API (indexed)
// ---------------------------------------------------------------------------

/// Compares two nodes of the *same* document in document order. O(1) with a
/// valid index; a stale index is rebuilt first (one O(n) traversal).
pub fn cmp_doc_order_local(doc: &Document, a: NodeId, b: NodeId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    doc.order_index().cmp(a, b)
}

/// Compares two [`NodeRef`]s in global document order.
pub fn cmp_doc_order(store: &Store, a: NodeRef, b: NodeRef) -> Ordering {
    match a.doc.cmp(&b.doc) {
        Ordering::Equal => cmp_doc_order_local(store.doc(a.doc), a.node, b.node),
        o => o,
    }
}

/// Sorts a node sequence into document order and removes duplicates, the
/// normalisation required after every path step. Allocation-free on the
/// warm path: O(1) label comparisons and an in-place unstable sort.
pub fn sort_dedup(store: &Store, nodes: &mut Vec<NodeRef>) {
    if nodes.len() <= 1 {
        return;
    }
    stats::record_sort();
    let first_doc = nodes[0].doc;
    if nodes.iter().all(|n| n.doc == first_doc) {
        // Single-document fast path: borrow the index once for the whole
        // sort instead of once per comparison.
        let ix = store.doc(first_doc).order_index();
        nodes.sort_unstable_by(|a, b| ix.cmp(a.node, b.node));
    } else {
        nodes.sort_unstable_by(|&a, &b| cmp_doc_order(store, a, b));
    }
    nodes.dedup();
}

/// True if `nodes` is already strictly document-ordered **and** no node's
/// subtree contains a later node. Under that condition the concatenated
/// results of a `child`/`attribute`/`self`/`descendant(-or-self)` step are
/// themselves sorted and duplicate-free, so the evaluator can elide the
/// per-step `sort_dedup` (see `eval/path.rs`). O(n) with O(1) label checks.
pub fn strictly_ordered_disjoint<I>(store: &Store, nodes: I) -> bool
where
    I: IntoIterator<Item = NodeRef>,
{
    let mut prev: Option<NodeRef> = None;
    for n in nodes {
        if let Some(p) = prev {
            if p.doc > n.doc {
                return false;
            }
            if p.doc == n.doc {
                let ix = store.doc(p.doc).order_index();
                let (rp, rn) = (ix.tree_root(p.node), ix.tree_root(n.node));
                if rp > rn {
                    return false;
                }
                // Same tree: require strict order and non-containment.
                if rp == rn && ix.end(p.node) >= ix.begin(n.node) {
                    return false;
                }
            }
        }
        prev = Some(n);
    }
    true
}

// ---------------------------------------------------------------------------
// naive reference implementation (the pre-index algorithm, kept as oracle)
// ---------------------------------------------------------------------------

/// One step of a naive order key. Attributes of an element come before its
/// children, hence the two-level encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// `Attr(i)` = i-th attribute, `Child(i)` = i-th child of the parent
    /// identified by the previous step.
    Attr(u32),
    Child(u32),
}

/// Computes the order key of a node: the sequence of steps from the tree
/// root down to the node. O(depth · fanout) with a heap allocation — the
/// seed algorithm, retained only as the property-test oracle for the index.
fn order_key(doc: &Document, node: NodeId) -> Vec<Step> {
    let mut rev = Vec::new();
    let mut cur = node;
    while let Some(parent) = doc.parent(cur) {
        if doc.kind(cur).is_attribute() {
            let idx = doc
                .attributes(parent)
                .iter()
                .position(|&a| a == cur)
                .unwrap_or(0) as u32;
            rev.push(Step::Attr(idx));
        } else {
            let idx = doc.child_index(parent, cur).unwrap_or(0) as u32;
            rev.push(Step::Child(idx));
        }
        cur = parent;
    }
    rev.reverse();
    rev
}

/// Reference comparison without the index: tree roots first (detached trees
/// order by their root `NodeId`, exactly as the index does), then the
/// child-index paths. Used by property tests to cross-check the index after
/// arbitrary mutation sequences; not called on any hot path.
pub fn cmp_doc_order_local_naive(doc: &Document, a: NodeId, b: NodeId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    match doc.tree_root(a).cmp(&doc.tree_root(b)) {
        Ordering::Equal => {}
        o => return o,
    }
    let ka = order_key(doc, a);
    let kb = order_key(doc, b);
    // An ancestor precedes its descendants: shorter prefix wins.
    match ka.cmp(&kb) {
        Ordering::Equal => a.cmp(&b),
        o => o,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::QName;

    fn sample() -> (Store, NodeRef, NodeRef, NodeRef, NodeRef, NodeRef) {
        // <r a="1"><x/><y><z/></y></r>
        let mut s = Store::new();
        let d = s.new_document(None);
        let doc = s.doc_mut(d);
        let r = doc.create_element(QName::local("r"));
        doc.append_child(doc.root(), r).unwrap();
        let a = doc.set_attribute(r, QName::local("a"), "1").unwrap();
        let x = doc.create_element(QName::local("x"));
        let y = doc.create_element(QName::local("y"));
        let z = doc.create_element(QName::local("z"));
        doc.append_child(r, x).unwrap();
        doc.append_child(r, y).unwrap();
        doc.append_child(y, z).unwrap();
        (
            s,
            NodeRef::new(d, r),
            NodeRef::new(d, a),
            NodeRef::new(d, x),
            NodeRef::new(d, y),
            NodeRef::new(d, z),
        )
    }

    #[test]
    fn ancestor_precedes_descendant() {
        let (s, r, _a, x, y, z) = sample();
        assert_eq!(cmp_doc_order(&s, r, x), Ordering::Less);
        assert_eq!(cmp_doc_order(&s, y, z), Ordering::Less);
        assert_eq!(cmp_doc_order(&s, z, y), Ordering::Greater);
    }

    #[test]
    fn attribute_after_element_before_children() {
        let (s, r, a, x, _y, _z) = sample();
        assert_eq!(cmp_doc_order(&s, r, a), Ordering::Less);
        assert_eq!(cmp_doc_order(&s, a, x), Ordering::Less);
    }

    #[test]
    fn siblings_in_order() {
        let (s, _r, _a, x, y, _z) = sample();
        assert_eq!(cmp_doc_order(&s, x, y), Ordering::Less);
    }

    #[test]
    fn sort_dedup_normalises() {
        let (s, r, a, x, y, z) = sample();
        let mut v = vec![z, x, r, z, a, y, x];
        sort_dedup(&s, &mut v);
        assert_eq!(v, vec![r, a, x, y, z]);
    }

    #[test]
    fn cross_document_order_by_doc_id() {
        let mut s = Store::new();
        let d1 = s.new_document(None);
        let d2 = s.new_document(None);
        let r1 = s.root(d1);
        let r2 = s.root(d2);
        assert_eq!(cmp_doc_order(&s, r1, r2), Ordering::Less);
        assert_eq!(cmp_doc_order(&s, r2, r1), Ordering::Greater);
        assert_eq!(cmp_doc_order(&s, r1, r1), Ordering::Equal);
    }

    #[test]
    fn indexed_agrees_with_naive_on_sample() {
        let (s, r, a, x, y, z) = sample();
        let doc = s.doc(r.doc);
        let nodes = [doc.root(), r.node, a.node, x.node, y.node, z.node];
        for &p in &nodes {
            for &q in &nodes {
                assert_eq!(
                    cmp_doc_order_local(doc, p, q),
                    cmp_doc_order_local_naive(doc, p, q),
                    "disagreement on ({p:?}, {q:?})"
                );
            }
        }
    }

    #[test]
    fn detached_trees_order_by_root_id() {
        let mut s = Store::new();
        let d = s.new_document(None);
        let doc = s.doc_mut(d);
        let r = doc.create_element(QName::local("r"));
        doc.append_child(doc.root(), r).unwrap();
        let early = doc.create_element(QName::local("early"));
        let late = doc.create_element(QName::local("late"));
        let leaf = doc.create_element(QName::local("leaf"));
        doc.append_child(late, leaf).unwrap();
        // Attached tree (root NodeId(0)) precedes both detached trees.
        assert_eq!(cmp_doc_order_local(doc, r, early), Ordering::Less);
        assert_eq!(cmp_doc_order_local(doc, early, late), Ordering::Less);
        assert_eq!(cmp_doc_order_local(doc, late, leaf), Ordering::Less);
        assert_eq!(cmp_doc_order_local(doc, early, leaf), Ordering::Less);
        assert_eq!(
            cmp_doc_order_local(doc, leaf, early),
            cmp_doc_order_local_naive(doc, leaf, early)
        );
    }

    #[test]
    fn interval_ancestry() {
        let (s, r, a, x, y, z) = sample();
        let doc = s.doc(r.doc);
        let ix = doc.order_index();
        assert!(ix.is_ancestor_of(r.node, z.node));
        assert!(ix.is_ancestor_of(y.node, z.node));
        assert!(ix.is_ancestor_of(r.node, a.node), "attribute inside owner");
        assert!(!ix.is_ancestor_of(x.node, z.node));
        assert!(!ix.is_ancestor_of(z.node, r.node));
        assert!(!ix.is_ancestor_of(r.node, r.node), "strict");
    }

    #[test]
    fn strictly_ordered_disjoint_detects_nesting() {
        let (s, r, a, x, y, z) = sample();
        assert!(strictly_ordered_disjoint(&s, [x, y].into_iter()));
        assert!(strictly_ordered_disjoint(&s, [a, x, z].into_iter()));
        // nested pair: y contains z
        assert!(!strictly_ordered_disjoint(&s, [y, z].into_iter()));
        // out of order
        assert!(!strictly_ordered_disjoint(&s, [y, x].into_iter()));
        // duplicate
        assert!(!strictly_ordered_disjoint(&s, [x, x].into_iter()));
        assert!(strictly_ordered_disjoint(&s, [r].into_iter()));
        assert!(strictly_ordered_disjoint(&s, [].into_iter()));
    }
}
