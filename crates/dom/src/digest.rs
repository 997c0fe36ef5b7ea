//! Subtree digests: the document node and every branch — an element with
//! an element child — cache a composable hash of the bytes
//! [`serialize_node`](crate::serialize::serialize_node) writes for them,
//! so after a change a document's digest re-hashes the changed paths only
//! and folds the other branches' cached values.
//!
//! The hash of a byte string `s` is the polynomial `Σ s[i]·B^(|s|−1−i)`
//! mod the Mersenne prime `M = 2^61 − 1` (Karp–Rabin), kept with the
//! weight `B^|s|`. Concatenation composes, `(h₁, p₁)·(h₂, p₂) = (h₁·p₂ +
//! h₂, p₁·p₂)`, so a branch's value is its start tag's, then its
//! children's, then its end tag's. Leaves and twigs (elements holding only
//! leaves) cache nothing: their bytes are written into their parent's
//! fold, and each run of bytes between two cached values is hashed in one
//! piece. Tags and leaves are written by the serializer's own writers, so
//! the digest is a function of the serialization: `<x/>`, escapes and
//! adjacent text nodes need no special case, and a tree parsed back from
//! the bytes has the digest of the tree that wrote them.
//!
//! A document never digested (or whose cache was dropped) holds no slots,
//! and marking it costs one branch. Its first digest fills them, and from
//! then on every change is marked.
//!
//! Writers mark what they change (`Document::touch`): the changed node and
//! its ancestors go dirty, and the walk up stops at the first node that
//! holds a value and is dirty already, so such a node has only dirty
//! ancestors (a leaf, a twig or an attribute holds none, and the walk
//! passes it). A dirty element whose start tag and first `covered`
//! children are unchanged keeps the value it had when clean: stripping its
//! end tag off gives the fold of the start tag and those children, so
//! appending a child folds one child, not all of them. A change before the
//! end of that prefix drops it, and the refold takes every child again.

use crate::arena::Document;
use crate::node::{NodeData, NodeId, NodeKind};
use crate::serialize::{write_end_tag, write_leaf, write_start_tag};

/// The modulus: the Mersenne prime 2^61 − 1.
const M: u64 = (1 << 61) - 1;
/// The base: a fixed odd residue.
const B: u64 = 0x0E1D_5A2F_93C7_64B5;
/// `B^n` for `n` in `0..=64`: the weight of a short string.
const POW: [u64; 65] = {
    let mut pow = [1u64; 65];
    let mut n = 1;
    while n < 65 {
        pow[n] = mul(pow[n - 1], B);
        n += 1;
    }
    pow
};
/// `WEIGHT[k][b] = b·B^k`: byte `b` with `k` bytes after it in its word.
/// Eight of them sum below `2^64`, so a word's weighted sum is eight
/// lookups and adds, with no multiply.
const WEIGHT: [[u64; 256]; 8] = {
    let mut table = [[0u64; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            table[k][b] = mul(b as u64, POW[k]);
            b += 1;
        }
        k += 1;
    }
    table
};
/// `B⁻¹ = B^(M−2)` (Fermat), which takes a suffix back off.
const B_INV: u64 = pow(B, M - 2);

/// `x mod M`, for any `x`: two folds of the high bits onto the low 61
/// (`2^61 ≡ 1`), then one conditional subtraction.
const fn reduce(x: u128) -> u64 {
    let m = M as u128;
    let x = (x & m) + (x >> 61);
    let x = ((x & m) + (x >> 61)) as u64;
    if x >= M {
        x - M
    } else {
        x
    }
}

/// `x mod M` for `x < 2^122 − 1` — a product of two residues, plus a
/// residue: one fold leaves less than `2M`.
#[inline]
const fn fold(x: u128) -> u64 {
    let x = (x as u64 & M) + (x >> 61) as u64;
    if x >= M {
        x - M
    } else {
        x
    }
}

const fn mul(a: u64, b: u64) -> u64 {
    fold(a as u128 * b as u128)
}

const fn pow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// The hash of a byte string and its weight `B^len`: a monoid under
/// `TreeHash::then`, whose unit is `TreeHash::EMPTY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeHash {
    /// `Σ s[i]·B^(len−1−i) mod M`.
    pub hash: u64,
    /// `B^len mod M`.
    pub power: u64,
}

impl TreeHash {
    /// The hash of no bytes.
    pub(crate) const EMPTY: TreeHash = TreeHash { hash: 0, power: 1 };

    /// The hash of `bytes`, a word at a time: each word's weighted byte
    /// sum from `WEIGHT`, then one multiply and reduction on the chain
    /// per two words (and one for a last word, and for its tail).
    pub fn of(bytes: &[u8]) -> TreeHash {
        let mut hash = 0;
        // two words a step: the second word's sum joins the first's off
        // the chain, so the chain takes one multiply per 16 bytes
        let mut pairs = bytes.chunks_exact(16);
        for pair in &mut pairs {
            let (a, b) = pair.split_at(8);
            let sum = reduce(weigh(a) as u128 * POW[8] as u128 + weigh(b) as u128);
            hash = reduce(hash as u128 * POW[16] as u128 + sum as u128);
        }
        let mut words = pairs.remainder().chunks_exact(8);
        for word in &mut words {
            hash = reduce(hash as u128 * POW[8] as u128 + weigh(word) as u128);
        }
        let rest = words.remainder();
        hash = reduce(hash as u128 * POW[rest.len()] as u128 + weigh(rest) as u128);
        let power = match POW.get(bytes.len()) {
            Some(&p) => p,
            None => pow(B, bytes.len() as u64),
        };
        TreeHash { hash, power }
    }

    /// The hash of `self`'s bytes followed by `next`'s.
    #[inline]
    pub(crate) fn then(self, next: TreeHash) -> TreeHash {
        TreeHash {
            hash: fold(self.hash as u128 * next.power as u128 + next.hash as u128),
            power: mul(self.power, next.power),
        }
    }

    /// The hash of `self`'s bytes less their last `len`, which hash to
    /// `suffix`: `x.then(suffix).strip(suffix, len) == x`.
    fn strip(self, suffix: TreeHash, len: usize) -> TreeHash {
        let inv = pow(B_INV, len as u64);
        TreeHash {
            hash: mul(reduce((self.hash + M - suffix.hash) as u128), inv),
            power: mul(self.power, inv),
        }
    }
}

/// `Σ word[j]·B^(len−1−j)` over at most eight bytes, unreduced.
#[inline]
fn weigh(word: &[u8]) -> u64 {
    let last = word.len().wrapping_sub(1);
    word.iter()
        .enumerate()
        .map(|(j, &b)| WEIGHT[last - j][b as usize])
        .sum()
}

/// A document's hash cache: a value slot for the document node and for
/// each branch — an element with an element child — found by a per-node
/// index (4 bytes a node), so a digested document pays 24 bytes for each
/// node that has been a branch and 4 for each other. A document boxes it,
/// and holds none until its first digest.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    /// Per arena node, its slot in `slots`, or [`NO_SLOT`]. Nodes pushed
    /// since the last refresh have no entry yet, which reads the same.
    index: Vec<u32>,
    slots: Vec<Slot>,
}

const NO_SLOT: u32 = u32::MAX;

impl Slots {
    /// The slot of `n`, if it has one.
    fn get_mut(&mut self, n: NodeId) -> Option<&mut Slot> {
        match self.index.get(n.index()) {
            Some(&k) if k != NO_SLOT => Some(&mut self.slots[k as usize]),
            _ => None,
        }
    }

    /// The slot of `n`, a new one if it has none.
    fn slot_of(&mut self, n: NodeId) -> usize {
        let k = &mut self.index[n.index()];
        if *k == NO_SLOT {
            *k = self.slots.len() as u32;
            self.slots.push(Slot::NONE);
        }
        *k as usize
    }

    /// Forgets every node from `len` on: their slots stay unreachable
    /// until the cache is dropped.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.index.truncate(len);
    }

    /// `n`'s cached hash, if it has a slot and the slot is clean.
    #[cfg(test)]
    pub(crate) fn clean_hash(&self, n: NodeId) -> Option<TreeHash> {
        let &k = self.index.get(n.index()).filter(|&&k| k != NO_SLOT)?;
        let slot = self.slots[k as usize];
        slot.clean.then_some(slot.hash)
    }
}

/// One cached value (24 bytes).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Clean: the hash of the node's serialization. Dirty, with `covered`
    /// above zero: the hash it had when it was last clean, whose start tag
    /// and first `covered` children it still has.
    hash: TreeHash,
    /// How many leading children `hash` covers.
    covered: u32,
    clean: bool,
    /// Whether the last refresh that reached the node cached its value: a
    /// node that was a branch and is a twig now holds none.
    held: bool,
}

// what each value a document holds costs it
const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    /// A node that holds no value.
    const NONE: Slot = Slot {
        hash: TreeHash::EMPTY,
        covered: 0,
        clean: false,
        held: false,
    };

    /// Marks the node changed, its start tag and first `keep` children
    /// aside. Returns whether the walk up must go on: the node holds no
    /// value, or it was clean (a dirty node that holds a value has only
    /// dirty ancestors).
    #[inline]
    fn invalidate(&mut self, keep: usize) -> bool {
        if keep < self.covered as usize {
            self.covered = 0;
        }
        !self.held || std::mem::replace(&mut self.clean, false)
    }
}

/// Dirties `node`'s slot and its ancestors', up to the first one that
/// holds a value and is dirty already (a node newer than the slots holds
/// none). `keep` is how many of `node`'s leading children and, if above
/// zero, its start tag the change left alone; each ancestor keeps the
/// children before the path. An attribute is hashed in its owner's start
/// tag, and a leaf or a twig in its parent's fold: they hold no value, and
/// the walk passes them.
pub(crate) fn mark(slots: &mut Slots, nodes: &[NodeData], node: NodeId, keep: usize) {
    let (mut node, mut keep) = (node, keep);
    while slots.get_mut(node).is_none_or(|slot| slot.invalidate(keep)) {
        let Some(parent) = nodes[node.index()].parent else {
            return;
        };
        // an attribute is no child: its owner keeps no children
        keep = match &nodes[parent.index()].kind {
            NodeKind::Document { children } | NodeKind::Element { children, .. } => {
                children.iter().rposition(|&c| c == node).unwrap_or(0)
            }
            _ => 0,
        };
        node = parent;
    }
}

/// Whether a refresh caches `node`'s value: the document node's, and a
/// branch's — an element with an element child. A leaf or a twig (an
/// element holding only leaves) is hashed in its parent's fold.
pub(crate) fn holds_value(doc: &Document, node: NodeId) -> bool {
    doc.kind(node).is_document() || doc.children(node).iter().any(|&k| doc.kind(k).is_element())
}

/// A dirty branch (or the document node) being folded: its children,
/// the next one to fold and the fold so far (bytes in the [`Run`] aside).
struct Frame<'a> {
    node: NodeId,
    /// Its value's slot.
    slot: usize,
    children: &'a [NodeId],
    next: usize,
    acc: TreeHash,
}

/// A serializer sink appending each piece to `buf`.
fn into(buf: &mut Vec<u8>) -> impl FnMut(&str) + '_ {
    |piece| buf.extend_from_slice(piece.as_bytes())
}

/// The bytes written since the innermost open fold last took a value in,
/// hashed in one piece when a cached value or a finished child joins the
/// fold, or the fold ends.
#[derive(Default)]
struct Run(Vec<u8>);

impl Run {
    /// `acc` followed by the bytes written since, which are cleared.
    fn flush(&mut self, acc: TreeHash) -> TreeHash {
        if self.0.is_empty() {
            return acc;
        }
        count(self.0.len() as u64);
        let acc = acc.then(TreeHash::of(&self.0));
        self.0.clear();
        acc
    }

    /// Starts the fold of a dirty branch, the run flushed: from its old
    /// value less its end tag when that still covers a prefix of its
    /// children, or else from its start tag.
    fn open<'a>(&mut self, doc: &'a Document, slots: &mut Slots, node: NodeId) -> Frame<'a> {
        let k = slots.slot_of(node);
        let slot = slots.slots[k];
        let acc = if slot.covered > 0 {
            self.end_tag(doc, node);
            let len = self.0.len();
            slot.hash.strip(self.flush(TreeHash::EMPTY), len)
        } else {
            self.start_tag(doc, node);
            TreeHash::EMPTY
        };
        Frame {
            node,
            slot: k,
            children: doc.children(node),
            next: slot.covered as usize,
            acc,
        }
    }

    /// Writes an element's start tag, and `>` when it has children;
    /// nothing for the document node.
    fn start_tag(&mut self, doc: &Document, node: NodeId) {
        if let NodeKind::Element {
            name,
            attrs,
            ns_decls,
            children,
        } = doc.kind(node)
        {
            write_start_tag(doc, name, ns_decls, attrs, &mut into(&mut self.0));
            if !children.is_empty() {
                self.0.push(b'>');
            }
        }
    }

    /// Writes the end of an element's markup: `/>` without children, its
    /// end tag with them; nothing for the document node.
    fn end_tag(&mut self, doc: &Document, node: NodeId) {
        if let NodeKind::Element { name, children, .. } = doc.kind(node) {
            if children.is_empty() {
                self.0.extend_from_slice(b"/>");
            } else {
                write_end_tag(name, &mut into(&mut self.0));
            }
        }
    }
}

/// The document's value through the slots, which start empty: a clean
/// node's cached value as it is; a dirty branch's recomputed from its
/// start, its children and its end, and cached; a leaf, or a twig (an
/// element holding only leaves), written into its parent's fold. Only
/// dirty branches are visited, so the cost follows the paths changed
/// since the last refresh. A loop over a stack of open branches, so no
/// document is too deep.
pub(crate) fn refresh(doc: &Document, slots: &mut Slots) -> TreeHash {
    slots.index.resize(doc.len(), NO_SLOT);
    let root = doc.root();
    if let Some(slot) = slots.get_mut(root).filter(|slot| slot.clean) {
        return slot.hash;
    }
    let mut run = Run::default();
    let mut open = vec![run.open(doc, slots, root)];
    while let Some(top) = open.last_mut() {
        if let Some(&child) = top.children.get(top.next) {
            top.next += 1;
            count(1);
            if let Some(slot) = slots.get_mut(child).filter(|slot| slot.clean) {
                top.acc = run.flush(top.acc).then(slot.hash);
            } else if holds_value(doc, child) {
                top.acc = run.flush(top.acc);
                let frame = run.open(doc, slots, child);
                open.push(frame);
            } else {
                // a twig's tags around its leaves, or a leaf: the other
                // writers write nothing for it. A branch turned twig
                // holds no value any more, so marks pass it.
                if let Some(slot) = slots.get_mut(child) {
                    *slot = Slot::NONE;
                }
                run.start_tag(doc, child);
                for &k in doc.children(child) {
                    write_leaf(doc.kind(k), &mut into(&mut run.0));
                }
                run.end_tag(doc, child);
                write_leaf(doc.kind(child), &mut into(&mut run.0));
            }
            continue;
        }
        let done = open.pop().expect("the loop runs on an open frame");
        run.end_tag(doc, done.node);
        let hash = run.flush(done.acc);
        slots.slots[done.slot] = Slot {
            hash,
            covered: done.next as u32,
            clean: true,
            held: true,
        };
        match open.last_mut() {
            Some(parent) => parent.acc = parent.acc.then(hash),
            None => return hash,
        }
    }
    unreachable!("the root's frame returns")
}

#[cfg(any(test, feature = "testgen"))]
thread_local! {
    static WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Children folded plus bytes hashed by this thread's digest refreshes so
/// far: what the tests that pin a refresh's cost read.
#[cfg(any(test, feature = "testgen"))]
pub fn work() -> u64 {
    WORK.with(|w| w.get())
}

#[cfg(any(test, feature = "testgen"))]
fn count(n: u64) {
    WORK.with(|w| w.set(w.get() + n));
}

#[cfg(not(any(test, feature = "testgen")))]
#[inline(always)]
fn count(_: u64) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::QName;
    use crate::parser::parse_document;
    use crate::serialize::{serialize_document, serialize_node};
    use crate::testgen::{
        deep_document, mix_env, random_document, reparseable_document, wide_document,
    };
    use proptest::prelude::*;

    /// The oracle: the hash of the serialization, written out whole.
    fn hash_of_serialization(doc: &Document) -> TreeHash {
        TreeHash::of(serialize_document(doc).as_bytes())
    }

    /// The hash is the serialization's, and every branch on the child
    /// axis caches the hash of its own serialization.
    fn assert_slots_hold_their_serialization(doc: &Document) {
        assert_eq!(doc.tree_hash(), hash_of_serialization(doc));
        for n in doc.descendants_or_self(doc.root()) {
            let want = holds_value(doc, n).then(|| TreeHash::of(serialize_node(doc, n).as_bytes()));
            assert_eq!(doc.cached_hash(n), want, "{n:?}");
        }
    }

    proptest! {
        #[test]
        fn concatenation_composes_and_strips(
            a in prop::collection::vec(any::<u8>(), 0..40),
            b in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let ab: Vec<u8> = a.iter().chain(&b).copied().collect();
            let (ha, hb) = (TreeHash::of(&a), TreeHash::of(&b));
            prop_assert_eq!(ha.then(hb), TreeHash::of(&ab));
            prop_assert_eq!(TreeHash::of(&ab).strip(hb, b.len()), ha);
            prop_assert_eq!(TreeHash::EMPTY.then(ha), ha);
            prop_assert_eq!(ha.then(TreeHash::EMPTY), ha);
        }

        #[test]
        fn every_node_caches_the_hash_of_its_serialization(seed in any::<u64>()) {
            let seed = mix_env(seed);
            for doc in [random_document(seed), wide_document(seed, 12)] {
                assert_slots_hold_their_serialization(&doc);
            }
        }

        /// What a replica rebuilt from shipped bytes holds: the tree parsed
        /// from a tree's serialization has its digest, though parsing
        /// merges the adjacent text nodes the builder made.
        #[test]
        fn a_reparsed_document_has_the_digest_of_its_source(seed in any::<u64>()) {
            let doc = reparseable_document(mix_env(seed));
            let xml = serialize_document(&doc);
            let reparsed = parse_document(&xml).unwrap();
            prop_assert_eq!(serialize_document(&reparsed), xml);
            prop_assert_eq!(reparsed.tree_hash(), doc.tree_hash());
        }
    }

    #[test]
    fn deep_chains_hash_on_a_test_thread() {
        let doc = deep_document(mix_env(3), 100_000);
        assert_eq!(doc.tree_hash(), hash_of_serialization(&doc));
    }

    /// One byte of any text, name or attribute value flipped to another
    /// ASCII letter changes the digest, to the digest of the new bytes.
    #[test]
    fn a_flipped_byte_of_any_text_name_or_value_changes_the_digest() {
        let mut doc = parse_document(
            r#"<shop xmlns:p="urn:p"><p:item id="i1" note="a&amp;b">first<!--c--></p:item><item id="i2"/>tail<?pi x?></shop>"#,
        )
        .unwrap();
        let flip = |s: &str, at: usize| -> String {
            let mut b = s.as_bytes().to_vec();
            b[at] = if b[at] == b'z' { b'y' } else { b'z' };
            String::from_utf8(b).unwrap()
        };
        let mut before = doc.tree_hash();
        for n in (0..doc.len() as u32).map(NodeId) {
            // element and attribute names, processing-instruction targets
            if let Some(name) = doc.node_name(n) {
                for at in 0..name.local.len() {
                    let local = flip(&name.local, at);
                    let new = QName::full(name.prefix.as_deref(), name.ns.as_deref(), local);
                    doc.rename(n, new).unwrap();
                    let after = doc.tree_hash();
                    assert_ne!(after, before, "renamed {n:?} at {at}");
                    assert_slots_hold_their_serialization(&doc);
                    before = after;
                }
            }
            if let Some(value) = doc.simple_value(n).map(str::to_string) {
                for at in 0..value.len() {
                    doc.set_simple_value(n, flip(&value, at)).unwrap();
                    let after = doc.tree_hash();
                    assert_ne!(after, before, "value of {n:?} at {at}");
                    assert_slots_hold_their_serialization(&doc);
                    before = after;
                }
            }
        }
    }

    /// A branch that loses its last element child is a twig at the next
    /// refresh and holds no value, so a later write inside it still
    /// reaches its parent; given an element child again, it holds one.
    #[test]
    fn a_branch_turned_twig_passes_marks_to_its_parent() {
        let mut doc = parse_document("<a><b><c/>text</b><d/></a>").unwrap();
        let a = doc.children(doc.root())[0];
        let b = doc.children(a)[0];
        let (c, text) = (doc.children(b)[0], doc.children(b)[1]);
        assert_slots_hold_their_serialization(&doc);
        assert!(doc.cached_hash(b).is_some());
        doc.detach(c).unwrap();
        assert_slots_hold_their_serialization(&doc);
        assert_eq!(doc.cached_hash(b), None);
        doc.set_simple_value(text, "other").unwrap();
        assert_slots_hold_their_serialization(&doc);
        doc.append_child(b, c).unwrap();
        assert_slots_hold_their_serialization(&doc);
        assert!(doc.cached_hash(b).is_some());
    }

    /// Appending to a wide element folds the new child, not its siblings:
    /// the refresh work is the same at 10 children and at 10,000.
    #[test]
    fn an_append_folds_one_child() {
        let mut doc = parse_document("<cart/>").unwrap();
        let cart = doc.children(doc.root())[0];
        let mut costs = Vec::new();
        for i in 0..10_000 {
            let item = doc.create_element(QName::local("item"));
            doc.set_attribute(item, QName::local("id"), format!("{i:05}"))
                .unwrap();
            doc.append_child(cart, item).unwrap();
            let before = work();
            doc.tree_hash();
            if i == 10 || i == 9_999 {
                costs.push(work() - before);
            }
        }
        assert_eq!(costs[0], costs[1]);
        assert_slots_hold_their_serialization(&doc);
    }
}
