//! Path expression evaluation: axes, node tests, predicates, document-order
//! normalisation. This is the workhorse of browser scripting — "programming
//! the browser involves mostly XML (i.e., DOM) navigation" (paper abstract).

use xqib_dom::{NodeKind, NodeRef, Store};
use xqib_xdm::{effective_boolean_value, Atomic, Item, Sequence, XdmError, XdmResult};

use crate::ast::{Axis, KindTest, NodeTest};
use crate::context::DynamicContext;

use super::Eval;

/// True if concatenating per-input results of `axis` preserves document
/// order and never duplicates, given inputs that are strictly ordered and
/// pairwise non-nested: each input's results stay inside its own subtree
/// (or are the node itself/its attributes), so they cannot interleave.
pub(crate) fn axis_concat_stays_sorted(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Child | Axis::Attribute | Axis::SelfAxis | Axis::Descendant | Axis::DescendantOrSelf
    )
}

/// True if `axis` enumerates nodes in reverse document order.
pub(crate) fn axis_is_reverse(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::PrecedingSibling | Axis::Preceding
    )
}

/// A predicate whose selection is a pure position lookup: a numeric literal
/// (`[1]`, `[2.5]`) or a bare `last()` call resolving to the built-in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PosTake {
    Index(f64),
    Last,
}

/// Recognises positional-take predicates. `last()` qualifies only when it
/// is not shadowed by a user-declared function — the decision is static
/// (the `fn:` namespace is reserved, natives live in `browser:`) so the
/// executor and the oracle always agree on it.
pub(crate) fn static_positional_take(
    sctx: &crate::context::StaticContext,
    pred: &crate::ast::Expr,
) -> Option<PosTake> {
    match pred {
        crate::ast::Expr::Literal(a) if a.is_numeric() && !matches!(a, Atomic::Untyped(_)) => {
            Some(PosTake::Index(a.as_double().ok()?))
        }
        crate::ast::Expr::FunctionCall { name, args }
            if args.is_empty()
                && &*name.local == "last"
                && name.ns.as_deref() == Some(xqib_dom::name::FN_NS)
                && sctx.lookup_function(name, 0).is_none() =>
        {
            Some(PosTake::Last)
        }
        _ => None,
    }
}

/// Resolves a positional take against a list of `len` items: the selected
/// index (0-based), or `None` for an empty selection. Matches
/// `predicate_truth`'s `d == position` test: fractional, negative and NaN
/// positions select nothing.
pub(crate) fn take_index(take: &PosTake, len: usize) -> Option<usize> {
    match take {
        PosTake::Index(d) => {
            if *d >= 1.0 && d.fract() == 0.0 && (*d as usize) <= len {
                Some(*d as usize - 1)
            } else {
                None
            }
        }
        PosTake::Last => len.checked_sub(1),
    }
}

/// Predicate semantics: a numeric singleton is a position test, everything
/// else takes the effective boolean value.
pub(crate) fn predicate_truth<E>(
    ctx: &mut DynamicContext,
    pred: &E,
    position: usize,
    eval: Eval<E>,
) -> XdmResult<bool> {
    let v = eval(ctx, pred)?;
    if let [Item::Atomic(a)] = &v[..] {
        if a.is_numeric() && !matches!(a, Atomic::Untyped(_)) {
            return Ok(a.as_double()? == position as f64);
        }
    }
    effective_boolean_value(&v)
}

/// A filter step's combined per-item output: `XPTY0018` if it mixes nodes
/// and atomic values, nodes sorted into document order without duplicates,
/// atomic values in expression order. The flag says whether the result is
/// normalized (document order, duplicate-free).
pub(crate) fn filter_step_output(
    ctx: &DynamicContext,
    combined: Sequence,
) -> XdmResult<(Sequence, bool)> {
    // An empty or singleton result needs neither the XPTY0018 homogeneity
    // scan nor normalisation.
    if combined.len() <= 1 {
        return Ok((combined, true));
    }
    let any_node = combined.iter().any(|i| matches!(i, Item::Node(_)));
    let any_atomic = combined.iter().any(|i| matches!(i, Item::Atomic(_)));
    if any_node && any_atomic {
        return Err(XdmError::new(
            "XPTY0018",
            "path step mixes nodes and atomic values",
        ));
    }
    if !any_node {
        // Atomic-only results keep expression order; mark them
        // non-normalized so a later axis step (which would be a type error
        // anyway) never elides on their account.
        return Ok((combined, false));
    }
    let mut refs: Vec<NodeRef> = combined.iter().filter_map(Item::as_node).collect();
    xqib_dom::order::sort_dedup(&ctx.store.borrow(), &mut refs);
    Ok((refs.into_iter().map(Item::Node).collect(), true))
}

/// An axis step's output — each input's survivors in axis order, inputs
/// concatenated — in document order without duplicates. The sort is
/// elided where the construction already guarantees the order: a single
/// context node emits each axis in (possibly reversed) document order with
/// no duplicates, and subtree-confined axes concatenate in order over
/// strictly-ordered, non-nested inputs.
pub(crate) fn order_step_output(
    ctx: &DynamicContext,
    input: &Sequence,
    axis: Axis,
    input_normalized: bool,
    mut out: Vec<NodeRef>,
) -> Sequence {
    if out.len() > 1 {
        let store = ctx.store.borrow();
        let elide = input.len() == 1
            || input_normalized
                && axis_concat_stays_sorted(axis)
                && xqib_dom::order::strictly_ordered_disjoint(
                    &store,
                    input.iter().filter_map(|i| i.as_node()),
                );
        if elide {
            if input.len() == 1 && axis_is_reverse(axis) {
                out.reverse();
            }
            xqib_dom::order::stats::record_elided_sort();
            // Checked without the order index: building it here would make
            // a debug build do (and count in the engine stats) work that
            // the release build skips. The naive order walks both ancestor
            // chains, so a bounded sample of adjacent pairs keeps a debug
            // build linear over deep trees.
            debug_assert!({
                const PAIRS: usize = 16;
                let pairs = out.len() - 1;
                let picks = pairs.min(PAIRS);
                (0..picks).map(|j| j * pairs / picks).all(|i| {
                    let (a, b) = (out[i], out[i + 1]);
                    a.doc.cmp(&b.doc).then_with(|| {
                        xqib_dom::order::cmp_doc_order_local_naive(store.doc(a.doc), a.node, b.node)
                    }) == std::cmp::Ordering::Less
                })
            });
        } else {
            xqib_dom::order::sort_dedup(&store, &mut out);
        }
    }
    out.into_iter().map(Item::Node).collect()
}

/// Produces the nodes on `axis` from `n`, in axis order (reverse axes yield
/// reverse document order, matching positional-predicate semantics).
pub fn axis_nodes(store: &Store, n: NodeRef, axis: Axis) -> Vec<NodeRef> {
    let doc = store.doc(n.doc);
    let mk = |id| NodeRef::new(n.doc, id);
    match axis {
        Axis::Child => doc.children(n.node).iter().map(|&c| mk(c)).collect(),
        Axis::Attribute => doc.attributes(n.node).iter().map(|&a| mk(a)).collect(),
        Axis::SelfAxis => vec![n],
        Axis::Parent => doc.parent(n.node).map(mk).into_iter().collect(),
        Axis::Descendant => {
            // skip(1) drops self without the O(n) front-shift of remove(0)
            doc.descendants_or_self(n.node)
                .into_iter()
                .skip(1)
                .map(mk)
                .collect()
        }
        Axis::DescendantOrSelf => doc
            .descendants_or_self(n.node)
            .into_iter()
            .map(mk)
            .collect(),
        Axis::Ancestor => {
            let mut out = Vec::new();
            let mut cur = doc.parent(n.node);
            while let Some(p) = cur {
                out.push(mk(p));
                cur = doc.parent(p);
            }
            out
        }
        Axis::AncestorOrSelf => {
            let mut out = vec![n];
            let mut cur = doc.parent(n.node);
            while let Some(p) = cur {
                out.push(mk(p));
                cur = doc.parent(p);
            }
            out
        }
        Axis::FollowingSibling => {
            let Some(parent) = doc.parent(n.node) else {
                return vec![];
            };
            if doc.kind(n.node).is_attribute() {
                return vec![];
            }
            let sibs = doc.children(parent);
            match sibs.iter().position(|&s| s == n.node) {
                Some(i) => sibs[i + 1..].iter().map(|&s| mk(s)).collect(),
                None => vec![],
            }
        }
        Axis::PrecedingSibling => {
            let Some(parent) = doc.parent(n.node) else {
                return vec![];
            };
            if doc.kind(n.node).is_attribute() {
                return vec![];
            }
            let sibs = doc.children(parent);
            match sibs.iter().position(|&s| s == n.node) {
                Some(i) => sibs[..i].iter().rev().map(|&s| mk(s)).collect(),
                None => vec![],
            }
        }
        Axis::Following => {
            // All nodes after n in document order, excluding descendants
            // and attributes: with the order index this is one slice of the
            // pre-order sequence, `(end(n), end-of-tree]`. Attribute context
            // nodes follow from their owner element (their own "following
            // within the owner" is the owner's remaining subtree, which the
            // axis excludes).
            let ix = doc.order_index();
            let base = if doc.kind(n.node).is_attribute() {
                match doc.parent(n.node) {
                    Some(owner) => owner,
                    None => return vec![],
                }
            } else {
                n.node
            };
            let root = ix.tree_root(base);
            ix.pre_order()[ix.end(base) as usize + 1..]
                .iter()
                .take_while(|&&v| ix.tree_root(v) == root)
                .filter(|&&v| !doc.kind(v).is_attribute())
                .map(|&v| mk(v))
                .collect()
        }
        Axis::Preceding => {
            // All nodes before n in document order, excluding ancestors and
            // attributes, in reverse document order: the pre-order slice
            // `[start-of-tree, begin(n))` walked backwards. The ancestor
            // filter is an O(1) interval test; it also removes an attribute
            // context node's owner (attributes live inside the owner's
            // interval).
            let ix = doc.order_index();
            let root = ix.tree_root(n.node);
            let tree_start = ix.begin(root) as usize;
            ix.pre_order()[tree_start..ix.begin(n.node) as usize]
                .iter()
                .rev()
                .filter(|&&v| !doc.kind(v).is_attribute() && !ix.is_ancestor_of(v, n.node))
                .map(|&v| mk(v))
                .collect()
        }
    }
}

/// Does `node` satisfy the node test on the given axis? The principal node
/// kind is attribute for the attribute axis, element otherwise.
pub fn node_test_matches(store: &Store, node: NodeRef, axis: Axis, test: &NodeTest) -> bool {
    let doc = store.doc(node.doc);
    let kind = doc.kind(node.node);
    let principal_is_attr = axis == Axis::Attribute;
    match test {
        NodeTest::AnyName => {
            if principal_is_attr {
                kind.is_attribute()
            } else {
                kind.is_element()
            }
        }
        NodeTest::Name(q) => match kind {
            NodeKind::Element { name, .. } if !principal_is_attr => name == q,
            NodeKind::Attribute { name, .. } if principal_is_attr => name == q,
            _ => false,
        },
        NodeTest::NsWildcard(uri) => match kind {
            NodeKind::Element { name, .. } if !principal_is_attr => {
                name.ns.as_deref() == Some(uri.as_str())
            }
            NodeKind::Attribute { name, .. } if principal_is_attr => {
                name.ns.as_deref() == Some(uri.as_str())
            }
            _ => false,
        },
        NodeTest::LocalWildcard(local) => match kind {
            NodeKind::Element { name, .. } if !principal_is_attr => &*name.local == local,
            NodeKind::Attribute { name, .. } if principal_is_attr => &*name.local == local,
            _ => false,
        },
        NodeTest::Kind(kt) => kind_test_matches(kind, kt),
    }
}

fn kind_test_matches(kind: &NodeKind, kt: &KindTest) -> bool {
    match kt {
        KindTest::AnyKind => true,
        KindTest::Text => kind.is_text(),
        KindTest::Comment => matches!(kind, NodeKind::Comment { .. }),
        KindTest::Pi(target) => match kind {
            NodeKind::ProcessingInstruction { target: actual, .. } => match target {
                Some(t) => actual == t,
                None => true,
            },
            _ => false,
        },
        KindTest::Element(name) => match kind {
            NodeKind::Element { name: actual, .. } => match name {
                Some(q) => actual == q,
                None => true,
            },
            _ => false,
        },
        KindTest::Attribute(name) => match kind {
            NodeKind::Attribute { name: actual, .. } => match name {
                Some(q) => actual == q,
                None => true,
            },
            _ => false,
        },
        KindTest::Document => kind.is_document(),
    }
}
