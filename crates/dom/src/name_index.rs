//! Element-name index for `descendant(-or-self)::name` steps.
//!
//! This is the interval encoding of Grust's XPath Accelerator (SIGMOD
//! 2002) over the [`OrderIndex`] the document already keeps: every node
//! carries its pre-order position `begin` and the last position inside its
//! subtree `end`, so the descendants of `v` are exactly the nodes whose
//! position falls in `(begin(v), end(v)]`. Keeping, per expanded element
//! name, the sorted positions of the elements so named turns a named
//! descendant step into two binary searches instead of a walk of the
//! subtree. Positions cover the whole forest, detached trees included, so
//! the step can start from any element or document node.
//!
//! Fuel: a walk charges one unit per non-attribute node it visits. The
//! index keeps `walked[p]`, the number of non-attribute nodes at positions
//! below `p`, so the nodes a walk would visit up to any hit, and in total,
//! are differences of two entries — an evaluator can charge exactly what
//! the walk it replaces would have charged.
//!
//! An answer is lazy: it shares the name's list with the index and reads
//! one hit per pull, so `exists(//p)` costs two binary searches and one
//! hit however many `p` the subtree holds.
//!
//! Validity and build policy follow the attribute-value index
//! ([`crate::attr_index`]): the index is valid for the content version it
//! was built at; the first probe of a name at a version returns `None` (the
//! caller walks) and records the name, the second builds that name's list.
//! See `DESIGN.md` § "Document-order index & invalidation".

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use crate::arena::Document;
use crate::name::QName;
use crate::node::NodeId;
use crate::order::OrderIndex;

/// One element of a name's list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Its pre-order position.
    pos: u32,
    node: NodeId,
    /// Non-attribute nodes at positions up to and including `pos`.
    upto: u32,
}

/// The answer to one named descendant step: an iterator over the matching
/// elements in document order, each with the number of nodes a pre-order
/// walk from the context node visits up to and including it. Each pull
/// reads one entry of the name's list, which the answer shares with the
/// index, so it stays valid whatever the document does next.
#[derive(Clone)]
pub struct NamedDescendants {
    list: Rc<[Entry]>,
    /// The entries inside the context's subtree, not yet pulled.
    range: Range<usize>,
    /// Non-attribute nodes at positions before the walk's first node.
    base: u32,
    /// The number of nodes the whole walk visits.
    pub walked: u32,
}

impl NamedDescendants {
    /// An answer over hits already in hand (the walk oracle's).
    fn from_hits(hits: Vec<(NodeId, u32)>, walked: u32) -> Self {
        let list: Rc<[Entry]> = hits
            .into_iter()
            .map(|(node, upto)| Entry { pos: 0, node, upto })
            .collect();
        NamedDescendants {
            range: 0..list.len(),
            list,
            base: 0,
            walked,
        }
    }
}

impl ExactSizeIterator for NamedDescendants {}

impl Iterator for NamedDescendants {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<(NodeId, u32)> {
        let e = self.list[self.range.next()?];
        #[cfg(test)]
        tests::MATERIALIZED.with(|n| n.set(n.get() + 1));
        Some((e.node, e.upto - self.base))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

/// Two answers are equal when they yield the same hits and walk the same.
impl PartialEq for NamedDescendants {
    fn eq(&self, other: &Self) -> bool {
        self.walked == other.walked && self.clone().eq(other.clone())
    }
}

impl Eq for NamedDescendants {}

impl fmt::Debug for NamedDescendants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamedDescendants")
            .field("hits", &self.clone().collect::<Vec<_>>())
            .field("walked", &self.walked)
            .finish()
    }
}

/// Expanded element name → sorted pre-order positions. Lives behind a
/// `RefCell` in its [`Document`]; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    /// The content version `probed`, `walked` and `by_name` describe.
    version: Option<u64>,
    /// Names probed once at `version` and not built.
    probed: Vec<QName>,
    /// `walked[p]`: non-attribute nodes at positions below `p` (`n + 1`
    /// entries); filled by the first build at `version`.
    walked: Vec<u32>,
    /// The names built at `version`, each with its elements in document
    /// order.
    by_name: HashMap<QName, Rc<[Entry]>>,
}

impl NameIndex {
    pub(crate) fn is_built(&self, version: u64, name: &QName) -> bool {
        self.version == Some(version) && self.by_name.contains_key(name)
    }

    /// Records a probe of `name` that the index could not answer. The
    /// second such probe at the same version returns `true`: the caller
    /// must then [`Self::build`] the name; otherwise it walks.
    pub(crate) fn probe_unbuilt(&mut self, version: u64, name: &QName) -> bool {
        if self.version != Some(version) {
            self.version = Some(version);
            self.probed.clear();
            self.walked.clear();
            self.by_name.clear();
        }
        if self.probed.contains(name) {
            return true;
        }
        self.probed.push(name.clone());
        false
    }

    /// One pass over the pre-order sequence collecting the positions of
    /// the elements named `name` (and, first time at this version, the
    /// walk counts).
    pub(crate) fn build(&mut self, doc: &Document, ord: &OrderIndex, name: &QName) {
        let order = ord.pre_order();
        if self.walked.is_empty() {
            self.walked.reserve(order.len() + 1);
            let mut count = 0;
            self.walked.push(0);
            for &v in order {
                count += u32::from(!doc.kind(v).is_attribute());
                self.walked.push(count);
            }
        }
        let list = order
            .iter()
            .enumerate()
            .filter(|&(_, &v)| doc.element_name(v) == Some(name))
            .map(|(p, &node)| Entry {
                pos: p as u32,
                node,
                upto: self.walked[p + 1],
            })
            .collect();
        self.by_name.insert(name.clone(), list);
    }

    /// The elements named `name` among `v`'s descendants (and `v` itself
    /// when `or_self`), with the walk counts. `name` must be built.
    pub(crate) fn answer(
        &self,
        ord: &OrderIndex,
        v: NodeId,
        name: &QName,
        or_self: bool,
    ) -> NamedDescendants {
        let (begin, end) = (ord.begin(v), ord.end(v));
        let lo = if or_self { begin } else { begin + 1 };
        let base = self.walked[lo as usize];
        let list = &self.by_name[name];
        let from = list.partition_point(|e| e.pos < lo);
        let to = list.partition_point(|e| e.pos <= end);
        NamedDescendants {
            list: Rc::clone(list),
            range: from..to,
            base,
            walked: self.walked[end as usize + 1] - base,
        }
    }
}

/// Reference answer without the index: a pre-order walk of `v`'s subtree,
/// counting every node it visits. The oracle the index is tested against;
/// not called on any hot path.
pub fn named_descendants_naive(
    doc: &Document,
    v: NodeId,
    name: &QName,
    or_self: bool,
) -> NamedDescendants {
    let mut walk = doc.descendants_or_self(v);
    if !or_self {
        walk.remove(0);
    }
    let hits = walk
        .iter()
        .enumerate()
        .filter(|&(_, &d)| doc.element_name(d) == Some(name))
        .map(|(i, &d)| (d, i as u32 + 1))
        .collect();
    NamedDescendants::from_hits(hits, walk.len() as u32)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::order::stats;

    thread_local! {
        /// Hits the answers on this thread have yielded.
        pub(super) static MATERIALIZED: Cell<u64> = const { Cell::new(0) };
    }

    /// `<r a="1"><x/><y b="2"><x/>t</y></r>` and a detached `<x><x/></x>`.
    fn sample() -> (Document, [NodeId; 5]) {
        let mut d = Document::new();
        let r = d.create_element(QName::local("r"));
        d.append_child(d.root(), r).unwrap();
        d.set_attribute(r, QName::local("a"), "1").unwrap();
        let x1 = d.create_element(QName::local("x"));
        let y = d.create_element(QName::local("y"));
        let x2 = d.create_element(QName::local("x"));
        let t = d.create_text("t");
        d.append_child(r, x1).unwrap();
        d.append_child(r, y).unwrap();
        d.set_attribute(y, QName::local("b"), "2").unwrap();
        d.append_child(y, x2).unwrap();
        d.append_child(y, t).unwrap();
        let loose = d.create_element(QName::local("x"));
        let inner = d.create_element(QName::local("x"));
        d.append_child(loose, inner).unwrap();
        (d, [r, x1, y, x2, loose])
    }

    /// Every probe from every non-attribute node equals the walk: the first
    /// probe of a name at a version may walk, the second is indexed.
    fn assert_index_matches_walk(d: &Document) {
        let nodes: Vec<NodeId> = (0..d.len() as u32)
            .map(NodeId)
            .filter(|&v| d.kind(v).is_element() || d.kind(v).is_document())
            .collect();
        for name in ["x", "y", "r", "none"].map(QName::local) {
            for &v in &nodes {
                for or_self in [false, true] {
                    let walk = named_descendants_naive(d, v, &name, or_self);
                    for _ in 0..2 {
                        if let Some(hit) = d.named_descendants(v, &name, or_self) {
                            assert_eq!(hit, walk, "{name} from {v:?} (or_self {or_self})");
                        }
                    }
                    let hit = d.named_descendants(v, &name, or_self);
                    assert_eq!(hit.as_ref(), Some(&walk), "third probe is indexed");
                }
            }
        }
    }

    #[test]
    fn second_probe_builds_and_answers_like_the_walk() {
        let (d, [r, x1, _, x2, _]) = sample();
        let x = QName::local("x");
        let before = stats::snapshot();
        assert!(d.named_descendants(d.root(), &x, false).is_none());
        let hit = d.named_descendants(d.root(), &x, false).unwrap();
        // r, x1, y, x2 — the text after x2 is walked but not a hit
        assert_eq!(hit.walked, 5);
        assert_eq!(hit.collect::<Vec<_>>(), vec![(x1, 2), (x2, 4)]);
        let hit = d.named_descendants(r, &x, false).unwrap();
        assert_eq!(hit.walked, 4);
        assert_eq!(hit.collect::<Vec<_>>(), vec![(x1, 1), (x2, 3)]);
        let delta = stats::snapshot().since(before);
        assert_eq!((delta.name_index_builds, delta.name_index_hits), (1, 2));
    }

    #[test]
    fn detached_trees_and_every_context_agree_with_the_walk() {
        let (d, [.., loose]) = sample();
        assert_index_matches_walk(&d);
        let x = QName::local("x");
        let hit = d.named_descendants(loose, &x, true).unwrap();
        assert_eq!(hit.count(), 2, "a detached tree answers for itself");
    }

    /// `exists(//p)` pulls one hit: answering costs two binary searches,
    /// not a pass over the name's list, and the first pull reads one
    /// entry of it.
    #[test]
    fn an_answer_materializes_only_the_hits_pulled() {
        let mut d = Document::new();
        let r = d.create_element(QName::local("r"));
        d.append_child(d.root(), r).unwrap();
        for _ in 0..10_000 {
            let p = d.create_element(QName::local("p"));
            d.append_child(r, p).unwrap();
        }
        let p = QName::local("p");
        assert!(d.named_descendants(d.root(), &p, false).is_none());
        let before = MATERIALIZED.with(Cell::get);
        let mut hit = d.named_descendants(d.root(), &p, false).unwrap();
        assert_eq!(hit.len(), 10_000);
        assert!(hit.next().is_some());
        assert_eq!(MATERIALIZED.with(Cell::get) - before, 1);
        assert_eq!(hit.walked, 10_001, "the charge still covers the walk");
    }
}
