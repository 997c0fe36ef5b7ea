//! Cache coherence under every public mutator.
//!
//! A document keeps three content caches keyed by its content version: the
//! image ([`Document::image`]), the element-name index
//! ([`Document::named_descendants`]) and the attribute-value index. Each is
//! valid only if every writer bumps the version. A fourth, the subtree
//! hashes behind [`Document::tree_hash`], is valid only if every writer
//! marks the node it changed. This suite runs random mutation sequences
//! over [`random_document`] trees, drawing from every public `&mut self`
//! method, and after every step checks each cache against its oracle while
//! the caches are warm from the step before — so a writer that forgets to
//! bump or to mark serves a stale answer and fails here. The same steps
//! check the [`Document::texts_apart`] flag against a recount of adjacent
//! text children: a writer that joins two text nodes without clearing it
//! would let an update skip a merge it owes.

use proptest::prelude::*;

use crate::arena::Document;
use crate::digest::{holds_value, TreeHash};
use crate::name::QName;
use crate::name_index::named_descendants_naive;
use crate::node::NodeId;
use crate::serialize::{serialize_document, serialize_node};
use crate::testgen::random_document;

const URI: &str = "t.xml";

/// The image digest: the hash itself (a server also mixes in the URI).
fn digest(hash: TreeHash) -> u64 {
    hash.hash
}

/// SplitMix64: one seed's stream of mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick(&mut self, nodes: &[NodeId]) -> Option<NodeId> {
        (!nodes.is_empty()).then(|| nodes[self.below(nodes.len())])
    }
}

fn nodes_where(doc: &Document, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
    (0..doc.len() as u32)
        .map(NodeId)
        .filter(|&v| keep(v))
        .collect()
}

/// One random mutation through a public `&mut self` method; returns its
/// name for failure messages. Invalid requests the arena refuses are
/// fine: a refused write must leave every cache valid too.
fn mutate(doc: &mut Document, rng: &mut Rng) -> &'static str {
    let elements = nodes_where(doc, |v| doc.kind(v).is_element());
    let children = nodes_where(doc, |v| {
        doc.parent(v).is_some() && !doc.kind(v).is_attribute()
    });
    let attrs = nodes_where(doc, |v| doc.kind(v).is_attribute());
    let simple = nodes_where(doc, |v| doc.simple_value(v).is_some());
    let containers = nodes_where(doc, |v| !doc.children(v).is_empty());
    let names = ["a", "b", "x", "é"];
    let name = QName::local(names[rng.below(names.len())]);
    match rng.below(20) {
        0 => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let prefix = ["", "p", "q"][rng.below(3)];
            let _ = doc.add_ns_decl(e, prefix, format!("urn:{}", rng.below(4)));
            "add_ns_decl"
        }
        1 => {
            let targets: Vec<NodeId> = elements.iter().chain(&attrs).copied().collect();
            let Some(v) = rng.pick(&targets) else {
                return "none";
            };
            let _ = doc.rename(v, name);
            "rename"
        }
        2 => {
            let Some(v) = rng.pick(&simple) else {
                return "none";
            };
            let _ = doc.set_simple_value(v, format!("v{}&<", rng.below(9)));
            "set_simple_value"
        }
        3 => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let _ = doc.set_attribute(e, name, format!("{}", rng.below(3)));
            "set_attribute"
        }
        4 => {
            // an element holding only empty text writes `<x></x>`, and
            // `<x/>` once the merge drops it
            let hollow = nodes_where(doc, |v| {
                let kids = doc.children(v);
                doc.kind(v).is_element()
                    && !kids.is_empty()
                    && kids.iter().all(|&k| doc.simple_value(k) == Some(""))
            });
            let targets = if hollow.is_empty() || rng.below(2) == 0 {
                containers
            } else {
                hollow
            };
            let Some(p) = rng.pick(&targets) else {
                return "none";
            };
            if rng.below(2) == 0 {
                // adjacent and empty text for the merge to work on
                let t = doc.create_text(if rng.below(2) == 0 { "" } else { "m" });
                let _ = doc.append_child(p, t);
            }
            let _ = doc.merge_adjacent_text(p);
            "merge_adjacent_text"
        }
        5 => {
            let Some(p) = rng.pick(&containers) else {
                return "none";
            };
            let mut kept = doc.children(p).to_vec();
            kept.remove(rng.below(kept.len()));
            kept.reverse();
            let _ = doc.restore_children(p, &kept);
            "restore_children"
        }
        6 => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let mut kept = doc.attributes(e).to_vec();
            if !kept.is_empty() {
                kept.remove(rng.below(kept.len()));
            }
            kept.reverse();
            let _ = doc.restore_attributes(e, &kept);
            "restore_attributes"
        }
        7 => {
            let Some(old) = rng.pick(&children) else {
                return "none";
            };
            let new = doc.create_element(name);
            let _ = doc.replace_node(old, new);
            "replace_node"
        }
        8 => {
            let Some(old) = rng.pick(&attrs) else {
                return "none";
            };
            let new = doc.create_attribute(name, "r");
            let _ = doc.replace_node(old, new);
            "replace_node (attribute)"
        }
        9 => {
            let src = random_document(rng.next());
            let from = src.children(src.root()).to_vec();
            let Some(&s) = from.first() else {
                return "none";
            };
            let copy = doc.deep_copy_from(&src, s);
            if let Some(p) = rng.pick(&elements) {
                let _ = doc.append_child(p, copy);
            }
            "deep_copy_from"
        }
        10 => {
            let Some(v) = rng.pick(&children) else {
                return "none";
            };
            let copy = doc.deep_copy(v);
            let _ = doc.insert_after(copy, v);
            "deep_copy + insert_after"
        }
        11 => {
            // half the time a node between two text nodes, which the
            // detach joins
            let between = nodes_where(doc, |v| {
                let Some(p) = doc.parent(v) else {
                    return false;
                };
                let kids = doc.children(p);
                let at = kids.iter().position(|&k| k == v);
                let text = |i: Option<usize>| {
                    i.and_then(|i| kids.get(i))
                        .is_some_and(|&k| doc.kind(k).is_text())
                };
                at.is_some_and(|at| text(at.checked_sub(1)) && text(Some(at + 1)))
            });
            let targets = if between.is_empty() || rng.below(2) == 0 {
                children
            } else {
                between
            };
            let Some(v) = rng.pick(&targets) else {
                return "none";
            };
            let _ = doc.detach(v);
            "detach"
        }
        12 => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let _ = doc.replace_element_value(e, "rv");
            "replace_element_value"
        }
        13 => {
            // a rollback restoring a child list one of whose members has
            // since moved under another parent
            let Some(p) = rng.pick(&containers) else {
                return "none";
            };
            let movable: Vec<NodeId> = children
                .iter()
                .copied()
                .filter(|&v| doc.parent(v) != Some(p) && !doc.is_ancestor_or_self(v, p))
                .collect();
            let Some(v) = rng.pick(&movable) else {
                return "none";
            };
            let mut snapshot = doc.children(p).to_vec();
            snapshot.insert(rng.below(snapshot.len() + 1), v);
            let _ = doc.restore_children(p, &snapshot);
            "restore_children (move)"
        }
        14 => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let t = doc.create_text("");
            let _ = doc.append_child(e, t);
            "append_child (empty text)"
        }
        15 => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let _ = doc.append_text(e, ["", "t", "&<"][rng.below(3)]);
            "append_text"
        }
        16 => {
            // a failed update's copies: a tail of new slots, attached or
            // not, then the cut back to the length before them
            let len = doc.len();
            let Some(v) = rng.pick(&children) else {
                return "none";
            };
            let copy = doc.deep_copy(v);
            if rng.below(2) == 0 {
                let _ = doc.insert_after(copy, v);
            }
            let _ = doc.truncate_detached(len);
            "truncate_detached"
        }
        17 => {
            let Some(p) = rng.pick(&containers) else {
                return "none";
            };
            let len = rng.below(doc.children(p).len());
            let _ = doc.truncate_children(p, len);
            "truncate_children"
        }
        18 => {
            // a text node at any place in a list, beside text or not
            let Some(p) = rng.pick(&containers) else {
                return "none";
            };
            let at = rng.below(doc.children(p).len() + 1);
            let t = doc.create_text("i");
            let _ = doc.insert_child_at(p, at, t);
            "insert_child_at (text)"
        }
        _ => {
            let Some(e) = rng.pick(&elements) else {
                return "none";
            };
            let _ = doc.remove_attribute(e, None, &name.local);
            "remove_attribute"
        }
    }
}

/// Every cache answers like its oracle. Probes each name twice, so the
/// name index is built at this version and stays warm for the next step.
fn check_caches(doc: &Document, step: &str) {
    prop_assert!(
        !doc.texts_apart() || doc.count_adjacent_text() == 0,
        "texts_apart promised after {} over adjacent text",
        step
    );
    let image = doc.image(URI, digest);
    let body = serialize_document(doc);
    prop_assert_eq!(&image.body, &body, "stale image after {}", step);
    // the oracle of the subtree hashes: the serialization, hashed whole,
    // for the document and for every branch a refresh leaves clean
    // (leaves and twigs are hashed in their parent's fold)
    let oracle = TreeHash::of(body.as_bytes());
    prop_assert_eq!(image.digest, oracle.hash, "image digest after {}", step);
    prop_assert_eq!(doc.tree_hash(), oracle, "digest after {}", step);
    for n in doc.descendants_or_self(doc.root()) {
        let want = holds_value(doc, n).then(|| TreeHash::of(serialize_node(doc, n).as_bytes()));
        prop_assert_eq!(doc.cached_hash(n), want, "{:?} after {}", n, step);
    }

    let contexts = nodes_where(doc, |v| {
        doc.kind(v).is_element() || doc.kind(v).is_document()
    });
    let mut names = vec![QName::local("absent")];
    for &v in &contexts {
        match doc.element_name(v) {
            Some(name) if !names.contains(name) => names.push(name.clone()),
            _ => {}
        }
    }
    for name in &names {
        for &v in &contexts {
            for or_self in [false, true] {
                let walk = named_descendants_naive(doc, v, name, or_self);
                for _ in 0..2 {
                    if let Some(hit) = doc.named_descendants(v, name, or_self) {
                        // the hits and the visit counts an evaluator charges
                        prop_assert_eq!(&hit, &walk, "{} from {:?} after {}", name, v, step);
                    }
                }
            }
        }
    }
    for (name, value) in [("a", "0"), ("b", "1"), ("x", "2")] {
        let name = QName::local(name);
        let scan = crate::attr_index::attr_owners_naive(doc, &name, value);
        for _ in 0..2 {
            if let Some(hit) = doc.attr_owners(&name, value) {
                prop_assert_eq!(&*hit, scan.as_slice(), "@{} after {}", name, step);
            }
        }
    }
}

proptest! {
    #[test]
    fn every_mutator_invalidates_every_cache(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut doc = random_document(rng.next());
        // built by appends, the flag is exact: false only over adjacent text
        prop_assert_eq!(doc.texts_apart(), doc.count_adjacent_text() == 0);
        if rng.below(2) == 0 {
            // start most steps from a promise, for a writer to break
            for v in nodes_where(&doc, |v| !doc.children(v).is_empty()) {
                doc.merge_adjacent_text(v).unwrap();
            }
            doc.mark_texts_apart();
        }
        // the first check fills the subtree hashes, so every step is marked
        check_caches(&doc, "build");
        for _ in 0..16 {
            let step = mutate(&mut doc, &mut rng);
            check_caches(&doc, step);
            // renew a lapsed promise, so the next writer is checked too
            if doc.count_adjacent_text() == 0 {
                doc.mark_texts_apart();
            }
        }
    }
}

/// A store replaces a document only wholesale, and the replacement brings
/// its own caches: a reused `DocId` whose new document happens to be at
/// the same version never reaches the old image.
#[test]
fn a_replaced_document_brings_its_own_caches() {
    let parse = |xml| crate::parse_document(xml).unwrap();
    let mut store = crate::Store::new();
    let id = store.add_document(parse("<a/>"), Some(URI));
    let (old, new) = (parse("<a/>"), parse("<b/>"));
    assert_eq!(
        old.version(),
        new.version(),
        "the same version, other content"
    );
    let image = |store: &crate::Store| store.doc(id).image(URI, digest);
    assert_eq!(image(&store).body, "<a/>");
    store.replace_document(id, new);
    assert_eq!(image(&store).body, "<b/>");
    *store.doc_mut(id) = old;
    assert_eq!(image(&store).body, "<a/>");
}

#[test]
fn an_unchanged_document_is_serialized_once() {
    use crate::order::stats;
    let doc = random_document(7);
    let before = stats::snapshot();
    let first = doc.image(URI, digest);
    let second = doc.image(URI, digest);
    assert!(std::rc::Rc::ptr_eq(&first, &second));
    let delta = stats::snapshot().since(before);
    assert_eq!((delta.doc_image_builds, delta.doc_image_hits), (1, 1));
    // another URI is another digest: the slot is rebuilt
    assert_ne!(doc.image("u.xml", digest).uri, first.uri);
}
