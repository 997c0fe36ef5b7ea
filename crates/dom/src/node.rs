//! Node identifiers and node payloads.

use crate::name::QName;

/// Index of a node within its [`crate::arena::Document`] arena.
///
/// `NodeId`s are never reused: detached/deleted nodes stay in the arena as
/// unreachable tombstones, which keeps every outstanding reference valid —
/// the behaviour the paper relies on for "stale" window/document references
/// that keep existing but become useless (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The seven XDM node kinds relevant to web pages (no schema types).
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Document root. Owns top-level children (at most one element plus
    /// comments/PIs).
    Document {
        children: Vec<NodeId>,
    },
    /// An element with attribute nodes, namespace declarations captured on
    /// the element, and ordered children.
    Element {
        name: QName,
        attrs: Vec<NodeId>,
        children: Vec<NodeId>,
        /// In-scope namespace declarations written on this element
        /// (`prefix -> uri`); `""` prefix is the default namespace.
        ns_decls: Vec<(String, String)>,
    },
    /// An attribute. Attributes are arena nodes so that XPath's `attribute`
    /// axis, node identity and `replace value of node` work uniformly.
    Attribute {
        name: QName,
        value: String,
    },
    Text {
        value: String,
    },
    Comment {
        value: String,
    },
    ProcessingInstruction {
        target: String,
        value: String,
    },
}

impl NodeKind {
    /// An element without attributes or children yet.
    pub(crate) fn element(name: QName, ns_decls: Vec<(String, String)>) -> Self {
        NodeKind::Element {
            name,
            attrs: Vec::new(),
            children: Vec::new(),
            ns_decls,
        }
    }

    pub fn kind_name(&self) -> &'static str {
        match self {
            NodeKind::Document { .. } => "document",
            NodeKind::Element { .. } => "element",
            NodeKind::Attribute { .. } => "attribute",
            NodeKind::Text { .. } => "text",
            NodeKind::Comment { .. } => "comment",
            NodeKind::ProcessingInstruction { .. } => "processing-instruction",
        }
    }

    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeKind::Attribute { .. })
    }
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text { .. })
    }
    pub fn is_document(&self) -> bool {
        matches!(self, NodeKind::Document { .. })
    }
}

/// A node in the arena: payload plus parent link.
#[derive(Debug, Clone)]
pub struct NodeData {
    pub parent: Option<NodeId>,
    pub kind: NodeKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(
            NodeKind::Text {
                value: String::new()
            }
            .kind_name(),
            "text"
        );
        assert_eq!(
            NodeKind::Document { children: vec![] }.kind_name(),
            "document"
        );
        assert!(NodeKind::Attribute {
            name: QName::local("id"),
            value: "x".into()
        }
        .is_attribute());
    }
}
