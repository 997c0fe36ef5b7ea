//! The one pre-order tree walk. The serializer, the string value, the
//! copier, the order and attribute indexes, the wire encoder, `deep-equal`
//! and the streamed descendant axes all drive a [`Walk`] instead of
//! recursing, so no document is too deep for any thread's stack.
//!
//! A walk holds only its stack of pending visits — node ids into the index
//! arena, no reference held across levels — and borrows the document for
//! one [`Walk::next`] call at a time. Between two steps the caller may
//! write to the arena it walks, as a same-document copy does.

use crate::arena::Document;
use crate::node::{NodeId, NodeKind};

/// One step of a [`Walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// A node on the child axis, before its children. Attributes are not
    /// visited: read them with [`Document::attributes`] at the owner's
    /// `Open`.
    Open(NodeId),
    /// A document or element node, after its children (for an empty
    /// element, right after its `Open`).
    Close(NodeId),
}

/// A pre-order cursor over one subtree; see the module docs.
#[derive(Debug, Clone)]
pub struct Walk {
    /// Visits still to make, the next on top. A node's children are pushed
    /// when it is opened, so a child list is read at its parent's `Open`.
    pending: Vec<Visit>,
}

impl Walk {
    /// A walk of `root` and its descendants, `root` first.
    #[inline]
    pub fn new(root: NodeId) -> Self {
        // room for a few levels of a typical page, so a small subtree's
        // walk allocates once
        let mut pending = Vec::with_capacity(16);
        pending.push(Visit::Open(root));
        Walk { pending }
    }

    /// Restarts the walk at `root`, keeping the stack's allocation, for a
    /// caller that walks many trees in a row.
    pub fn restart(&mut self, root: NodeId) {
        self.pending.clear();
        self.pending.push(Visit::Open(root));
    }

    /// The next visit in document order, or `None` once `root` is closed
    /// (or, for a leaf root, opened). Inlined: every kernel's inner loop
    /// is this call.
    #[inline]
    pub fn next(&mut self, doc: &Document) -> Option<Visit> {
        let visit = self.pending.pop()?;
        if let Visit::Open(id) = visit {
            if let NodeKind::Document { children } | NodeKind::Element { children, .. } =
                doc.kind(id)
            {
                self.pending.push(Visit::Close(id));
                self.pending
                    .extend(children.iter().rev().map(|&c| Visit::Open(c)));
            }
        }
        Some(visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn visits(doc: &Document, root: NodeId) -> Vec<String> {
        let mut walk = Walk::new(root);
        let mut out = Vec::new();
        while let Some(v) = walk.next(doc) {
            let (tag, id) = match v {
                Visit::Open(id) => ("+", id),
                Visit::Close(id) => ("-", id),
            };
            let name = match doc.kind(id) {
                NodeKind::Document { .. } => "#doc".to_string(),
                NodeKind::Element { name, .. } => name.lexical(),
                k => format!("#{}", k.kind_name()),
            };
            out.push(format!("{tag}{name}"));
        }
        out
    }

    #[test]
    fn opens_in_pre_order_and_closes_containers_only() {
        let d = parse_document(r#"<a k="v"><b/>t<c><!--x--><?p?></c></a>"#).unwrap();
        assert_eq!(
            visits(&d, d.root()),
            [
                "+#doc",
                "+a",
                "+b",
                "-b",
                "+#text",
                "+c",
                "+#comment",
                "+#processing-instruction",
                "-c",
                "-a",
                "-#doc"
            ]
        );
        let a = d.children(d.root())[0];
        let attr = d.attributes(a)[0];
        assert_eq!(
            visits(&d, attr),
            ["+#attribute"],
            "a leaf root is only opened"
        );
    }
}
