//! Random document trees for property tests of the serializer and of
//! everything that hashes or ships its output.
//!
//! The trees are built through the DOM API rather than parsed, so they
//! reach shapes a markup round-trip normalises away: empty and adjacent
//! text nodes, and `<`, `>`, `&` and `"` beside multibyte UTF-8 in text
//! and in attribute values. Elements carry prefixes (the empty one too)
//! and `xmlns` declarations; comments, processing instructions and empty
//! elements all occur.
//!
//! Besides the small random documents there are two extreme shapes: a
//! chain deeper than any recursive walk survives ([`deep_document`]) and a
//! wide fan-out ([`wide_document`]); and [`reparseable_document`], whose
//! markup parses back to the same bytes.
//!
//! A tree is a pure function of one `u64` seed, so a property test draws
//! the seed and a failing case is reproduced from it. Compiled for this
//! crate's tests and, behind the `testgen` feature, for other crates'.

use crate::arena::Document;
use crate::name::QName;
use crate::node::NodeId;

/// The characters escaping must handle, ASCII neighbours, and multibyte
/// UTF-8 of two, three and four bytes.
const TEXT: &[char] = &[
    'a', 'b', 'z', ' ', '\n', '<', '>', '&', '"', '\'', '=', ';', 'é', '€', '😀',
];
const NAME: &[char] = &['a', 'b', 'x', 'y', 'é'];
const LOWER: &[char] = &['a', 'b', 'c', 'p', 'q'];

/// SplitMix64: the seed's stream of choices.
struct Gen {
    state: u64,
    /// Build markup that parses back: declare every prefix a name uses on
    /// its element, and make no empty text node.
    reparseable: bool,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `min..=max` characters drawn from `alphabet`.
    fn string(&mut self, alphabet: &[char], min: usize, max: usize) -> String {
        let len = min + self.below(max - min + 1);
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len())])
            .collect()
    }

    /// No prefix, the empty prefix, or a short one.
    fn prefix(&mut self) -> Option<String> {
        match self.below(3) {
            0 => None,
            1 => Some(String::new()),
            _ => Some(self.string(LOWER, 1, 2)),
        }
    }
}

/// A random document of one to three top-level trees, at most four
/// elements deep. Empty elements (no children) occur at every level.
pub fn random_document(seed: u64) -> Document {
    let mut g = Gen {
        state: seed,
        reparseable: false,
    };
    let mut doc = Document::new();
    let root = doc.root();
    for _ in 0..1 + g.below(3) {
        let n = random_node(&mut g, &mut doc, 4);
        doc.append_child(root, n).unwrap();
    }
    doc
}

fn random_node(g: &mut Gen, doc: &mut Document, depth: u32) -> NodeId {
    match g.below(if depth == 0 { 4 } else { 8 }) {
        // parsing drops an empty text node, which `<x></x>` shows
        0 | 1 => doc.create_text(g.string(TEXT, usize::from(g.reparseable), 12)),
        2 => doc.create_comment(g.string(TEXT, 0, 8)),
        3 => {
            let target = g.string(LOWER, 1, 4);
            doc.create_pi(target, g.string(NAME, 0, 6))
        }
        _ => {
            let e = random_element(g, doc);
            for _ in 0..g.below(5) {
                let c = random_node(g, doc, depth - 1);
                doc.append_child(e, c).unwrap();
            }
            e
        }
    }
}

/// An element without children: a random name, up to two namespace
/// declarations and up to three attributes.
fn random_element(g: &mut Gen, doc: &mut Document) -> NodeId {
    let prefix = g.prefix();
    let local = g.string(NAME, 1, 4);
    let e = doc.create_element(QName::full(prefix.as_deref(), None, local));
    for _ in 0..g.below(3) {
        let p = g.string(LOWER, 0, 2);
        // a declared prefix cannot be bound to no namespace
        let min = usize::from(g.reparseable && !p.is_empty());
        doc.add_ns_decl(e, p, g.string(TEXT, min, 8)).unwrap();
    }
    let mut used = prefix.into_iter().collect::<Vec<_>>();
    for _ in 0..g.below(4) {
        // a prefix's namespace keeps same-named attributes of
        // different prefixes apart, so each one survives
        let p = g.prefix().filter(|p| !(g.reparseable && p.is_empty()));
        let ns = p.as_deref().map(|p| format!("urn:{p}"));
        let name = QName::full(p.as_deref(), ns.as_deref(), g.string(NAME, 1, 3));
        doc.set_attribute(e, name, g.string(TEXT, 0, 12)).unwrap();
        used.extend(p);
    }
    if g.reparseable {
        for p in used.into_iter().filter(|p| !p.is_empty()) {
            doc.add_ns_decl(e, p.clone(), format!("urn:{p}")).unwrap();
        }
    }
    e
}

/// A random document that parses back to itself: [`wide_document`]'s
/// shape of one root element, with every prefix declared where it is used.
/// What a replica rebuilt from shipped bytes is checked against.
pub fn reparseable_document(seed: u64) -> Document {
    let mut g = Gen {
        state: seed,
        reparseable: true,
    };
    let mut doc = Document::new();
    let e = random_element(&mut g, &mut doc);
    for _ in 0..g.below(12) {
        let c = random_node(&mut g, &mut doc, 3);
        doc.append_child(e, c).unwrap();
    }
    let root = doc.root();
    doc.append_child(root, e).unwrap();
    doc
}

/// A chain of `depth` random elements under the document node, each
/// holding the next one and a leaf (text, comment or PI) before or after
/// it. Built from the bottom up, so no insertion walks the chain.
pub fn deep_document(seed: u64, depth: usize) -> Document {
    let mut g = Gen {
        state: seed,
        reparseable: false,
    };
    let mut doc = Document::new();
    let mut below = random_node(&mut g, &mut doc, 0);
    for _ in 0..depth {
        let e = random_element(&mut g, &mut doc);
        let leaf = random_node(&mut g, &mut doc, 0);
        let kids = if g.below(2) == 0 {
            [leaf, below]
        } else {
            [below, leaf]
        };
        for c in kids {
            doc.append_child(e, c).unwrap();
        }
        below = e;
    }
    let root = doc.root();
    doc.append_child(root, below).unwrap();
    doc
}

/// One random element with `width` random children, each a leaf or a
/// tree at most two elements deep.
pub fn wide_document(seed: u64, width: usize) -> Document {
    let mut g = Gen {
        state: seed,
        reparseable: false,
    };
    let mut doc = Document::new();
    let e = random_element(&mut g, &mut doc);
    for _ in 0..width {
        let c = random_node(&mut g, &mut doc, 2);
        doc.append_child(e, c).unwrap();
    }
    let root = doc.root();
    doc.append_child(root, e).unwrap();
    doc
}

/// `seed` mixed with the `XQIB_PLAN_SEED` environment variable, so a CI
/// matrix over it draws other trees from the same tests.
pub fn mix_env(seed: u64) -> u64 {
    let env: u64 = std::env::var("XQIB_PLAN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    seed ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `f` on a thread with a 256 MiB stack, for the recursive oracles
/// that deep trees are checked against: a test thread's default stack
/// holds a few thousand of their frames, not the depths the walk serves.
pub fn on_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn_scoped(s, f)
            .expect("spawn a big-stack thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}
