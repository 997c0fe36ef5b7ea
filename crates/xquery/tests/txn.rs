//! Transactional-apply property tests: random primitive sequences crossed
//! with random crash points must always leave the store serializing exactly
//! as it did before the failed apply (all-or-nothing), and a rolled-back
//! store must stay fully usable.
//!
//! Deterministic CI matrix hook: `XQIB_CRASH_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! sequence × crash-point space while any single failure stays reproducible.

use proptest::prelude::*;
use xqib_dom::serialize::serialize_document;
use xqib_dom::{DocId, NodeRef, QName, Store};
use xqib_xquery::pul::{CrashPoint, Pul, UpdatePrimitive};

fn env_seed() -> u64 {
    std::env::var("XQIB_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64: a tiny deterministic generator for shaping primitives. The
/// proptest strategies drive the top-level seed; this fans it out.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// `<r><c0>t0</c0> … <c4>t4</c4></r>` plus the element/text node lists the
/// generator draws targets from.
fn build_store() -> (Store, DocId, Vec<NodeRef>, Vec<NodeRef>) {
    let mut s = Store::new();
    let d = s.new_document(None);
    let doc = s.doc_mut(d);
    let root = doc.create_element(QName::local("r"));
    doc.append_child(doc.root(), root).unwrap();
    let mut elems = vec![NodeRef::new(d, root)];
    let mut texts = Vec::new();
    for i in 0..5 {
        let c = doc.create_element(QName::local(format!("c{i}")));
        doc.append_child(root, c).unwrap();
        let t = doc.create_text(format!("t{i}"));
        doc.append_child(c, t).unwrap();
        elems.push(NodeRef::new(d, c));
        texts.push(NodeRef::new(d, t));
    }
    (s, d, elems, texts)
}

/// A random but structurally valid primitive sequence over the fixed tree.
/// Sequences may still fail `check()` (duplicate rename/replace targets) —
/// that is part of the property: a rejected list must also apply nothing.
fn gen_pul(
    store: &mut Store,
    d: DocId,
    elems: &[NodeRef],
    texts: &[NodeRef],
    rng: &mut Rng,
    len: usize,
) -> Pul {
    let mut pul = Pul::new();
    for i in 0..len {
        // elems[0] is the root element; children target it freely, but
        // delete/replace/rename draw from the non-root slice
        let inner = &elems[1..];
        let prim = match rng.below(8) {
            0 => {
                let n = store
                    .doc_mut(d)
                    .create_element(QName::local(format!("new{i}")));
                UpdatePrimitive::InsertInto {
                    target: *rng.pick(elems),
                    children: vec![NodeRef::new(d, n)],
                }
            }
            1 => {
                let n = store.doc_mut(d).create_text(format!("ins{i}"));
                UpdatePrimitive::InsertBefore {
                    anchor: *rng.pick(inner),
                    children: vec![NodeRef::new(d, n)],
                }
            }
            2 => {
                let a = store
                    .doc_mut(d)
                    .create_attribute(QName::local(format!("a{}", rng.below(3))), format!("v{i}"));
                UpdatePrimitive::InsertAttributes {
                    target: *rng.pick(inner),
                    attrs: vec![NodeRef::new(d, a)],
                }
            }
            3 => UpdatePrimitive::Delete {
                target: if rng.below(2) == 0 {
                    *rng.pick(inner)
                } else {
                    *rng.pick(texts)
                },
            },
            4 => UpdatePrimitive::ReplaceValue {
                target: *rng.pick(texts),
                value: format!("rv{i}"),
            },
            5 => UpdatePrimitive::ReplaceElementContent {
                target: *rng.pick(inner),
                text: format!("rec{i}"),
            },
            6 => UpdatePrimitive::Rename {
                target: *rng.pick(inner),
                name: QName::local(format!("ren{i}")),
            },
            _ => {
                let n = store
                    .doc_mut(d)
                    .create_element(QName::local(format!("sub{i}")));
                UpdatePrimitive::ReplaceNode {
                    target: *rng.pick(inner),
                    replacements: vec![NodeRef::new(d, n)],
                }
            }
        };
        pul.push(prim);
    }
    pul
}

fn snapshot(s: &Store) -> Vec<String> {
    (0..s.doc_count())
        .map(|i| serialize_document(s.doc(DocId(i as u32))))
        .collect()
}

proptest! {
    /// Crashing at ANY step of ANY random primitive sequence leaves the
    /// store serializing exactly as before the apply, and the rolled-back
    /// store behaves identically to a fresh one on the next apply.
    #[test]
    fn crashed_apply_round_trips_the_store(
        seed in 0u64..1_000_000,
        len in 1usize..7,
        crash in 0u64..48,
    ) {
        let mixed = seed ^ env_seed();
        let (mut store, d, elems, texts) = build_store();
        let pul = gen_pul(&mut store, d, &elems, &texts, &mut Rng(mixed), len);
        let before = snapshot(&store);

        // the reference run: same seed, fresh store, no crash
        let (mut fresh, fd, felems, ftexts) = build_store();
        let fpul = gen_pul(&mut fresh, fd, &felems, &ftexts, &mut Rng(mixed), len);
        let fresh_outcome = fpul.apply_with_crash(&mut fresh, CrashPoint::none());

        match pul.clone().apply_with_crash(&mut store, CrashPoint::at(crash)) {
            Err(_) => {
                prop_assert_eq!(
                    &snapshot(&store), &before,
                    "rollback must restore the pre-apply serialization"
                );
                // the rolled-back store is not wedged: re-applying without a
                // crash point agrees with the fresh-store reference run
                let retry = pul.apply_with_crash(&mut store, CrashPoint::none());
                prop_assert_eq!(
                    retry.as_ref().err().map(|e| e.code.clone()),
                    fresh_outcome.as_ref().err().map(|e| e.code.clone()),
                    "retry after rollback diverged from a fresh apply"
                );
                if retry.is_ok() {
                    prop_assert_eq!(snapshot(&store), snapshot(&fresh));
                }
            }
            Ok(()) => {
                // crash point past the end of the list: a complete apply,
                // which must agree with the reference run exactly
                prop_assert!(fresh_outcome.is_ok());
                prop_assert_eq!(snapshot(&store), snapshot(&fresh));
            }
        }
    }

    /// Sweeping every crash point of one fixed sequence: each injected
    /// failure reports `XQIB0012` and rolls back completely.
    #[test]
    fn every_crash_point_reports_the_injected_code(seed in 0u64..100_000) {
        let mixed = seed ^ env_seed();
        for crash in 0u64..32 {
            let (mut store, d, elems, texts) = build_store();
            let pul = gen_pul(&mut store, d, &elems, &texts, &mut Rng(mixed), 4);
            let before = snapshot(&store);
            if pul.check().is_err() {
                // conflicting list: apply refuses up front, nothing to sweep
                break;
            }
            match pul.apply_with_crash(&mut store, CrashPoint::at(crash)) {
                Err(e) => {
                    prop_assert_eq!(&e.code, "XQIB0012", "unexpected failure: {}", e);
                    prop_assert_eq!(snapshot(&store), before);
                }
                // past the last step: nothing left to crash
                Ok(()) => break,
            }
        }
    }
}

/// [`build_store`] with text the DOM API added, as minijs's
/// `createTextNode` + `appendChild` does: text between the `c{i}` under
/// the root, so deleting a `c{i}` can join two text nodes, and now and
/// then a second text node in a `c{i}`, already beside its first.
fn build_joined_store(rng: &mut Rng) -> (Store, DocId, Vec<NodeRef>, Vec<NodeRef>) {
    let (mut s, d, elems, mut texts) = build_store();
    let doc = s.doc_mut(d);
    let root = elems[0].node;
    for (i, c) in elems[1..].iter().enumerate() {
        if rng.below(2) == 0 {
            let t = doc.create_text(format!("s{i}"));
            doc.insert_before(t, c.node).unwrap();
            texts.push(NodeRef::new(d, t));
        }
        if rng.below(8) == 0 {
            let t = doc.create_text(format!("dom{i}"));
            doc.append_child(c.node, t).unwrap();
            texts.push(NodeRef::new(d, t));
        }
    }
    let t = doc.create_text("end");
    doc.append_child(root, t).unwrap();
    texts.push(NodeRef::new(d, t));
    (s, d, elems, texts)
}

/// A primitive that puts text beside text or removes what stood between:
/// text inserted at either end of a list or beside a node, a node
/// replaced by text or by nothing, an element deleted.
fn gen_text_prim(
    store: &mut Store,
    d: DocId,
    elems: &[NodeRef],
    texts: &[NodeRef],
    rng: &mut Rng,
    i: u64,
) -> UpdatePrimitive {
    let mut text = |s: &str| NodeRef::new(d, store.doc_mut(d).create_text(format!("{s}{i}")));
    let inner = &elems[1..];
    match rng.below(7) {
        0 => UpdatePrimitive::InsertInto {
            target: *rng.pick(elems),
            children: vec![text("a"), text("b")],
        },
        1 => UpdatePrimitive::InsertFirst {
            target: *rng.pick(elems),
            children: vec![text("f")],
        },
        2 => {
            let anchors = if rng.below(2) == 0 { inner } else { texts };
            UpdatePrimitive::InsertAfter {
                anchor: *rng.pick(anchors),
                children: vec![text("n")],
            }
        }
        3 => UpdatePrimitive::InsertBefore {
            anchor: *rng.pick(texts),
            children: vec![text("p")],
        },
        4 => UpdatePrimitive::ReplaceNode {
            target: *rng.pick(inner),
            replacements: Vec::new(),
        },
        5 => UpdatePrimitive::ReplaceNode {
            target: *rng.pick(texts),
            replacements: vec![text("r")],
        },
        _ => UpdatePrimitive::Delete {
            target: *rng.pick(inner),
        },
    }
}

/// Every text node's value, in document order, per document: tells
/// `"a"`, `"b"` from `"ab"`, which the serialization cannot.
fn text_values(s: &Store) -> Vec<Vec<String>> {
    (0..s.doc_count())
        .map(|i| {
            let doc = s.doc(DocId(i as u32));
            doc.descendants_or_self(doc.root())
                .into_iter()
                .filter(|&n| doc.kind(n).is_text())
                .map(|n| doc.simple_value(n).unwrap_or_default().to_string())
                .collect()
        })
        .collect()
}

proptest! {
    /// The coalescing skip is exact: over documents with and without text
    /// the DOM API joined beforehand, a random list applies with the
    /// skip exactly as it does when every touched parent is scanned —
    /// same outcome, same serialization, same text nodes — and a crash
    /// rolls both back to the state they started from, the documents'
    /// `texts_apart` flags included. The flag never promises what a
    /// recount denies.
    #[test]
    fn skipped_coalescing_matches_scanning_every_parent(seed in 0u64..1_000_000) {
        // sixteen lists per case: the skip is cheap to check
        for sub in 0..16 {
            let mut shape = Rng((seed << 4 | sub) ^ env_seed());
            let (mixed, len, crash, joined) = (
                shape.next(),
                1 + shape.below(6) as usize,
                shape.below(64),
                shape.below(2) == 0,
            );
            let run = |scan: bool| {
                let mut rng = Rng(mixed);
                let (mut store, d, elems, texts) = if joined {
                    build_joined_store(&mut rng)
                } else {
                    build_store()
                };
                let mut pul = gen_pul(&mut store, d, &elems, &texts, &mut rng, len);
                for i in 0..rng.below(4) {
                    pul.push(gen_text_prim(&mut store, d, &elems, &texts, &mut rng, i));
                }
                let before = (snapshot(&store), text_values(&store), store.doc(d).texts_apart());
                // crash points past the last step let the apply complete
                let crash = CrashPoint::at(crash);
                let outcome = if scan {
                    pul.apply_scanning_every_parent(&mut store, crash)
                } else {
                    pul.apply_with_crash(&mut store, crash)
                };
                let doc = store.doc(d);
                let after = (snapshot(&store), text_values(&store), doc.texts_apart());
                let recount = doc.count_adjacent_text();
                (outcome.err().map(|e| e.code), before, after, recount)
            };
            let (skip, scan) = (run(false), run(true));
            prop_assert_eq!(&skip.0, &scan.0, "outcome");
            prop_assert_eq!(&skip.2 .0, &scan.2 .0, "serialization");
            prop_assert_eq!(&skip.2 .1, &scan.2 .1, "text nodes");
            for (code, before, after, recount) in [skip, scan] {
                prop_assert!(!after.2 || recount == 0, "texts_apart over {} pairs", recount);
                if code.is_some() {
                    prop_assert_eq!(after, before, "rollback");
                }
            }
        }
    }
}
