//! Multi-document store and global node references.
//!
//! The paper's plug-in exposes many documents to one query: the page itself,
//! documents of other frames, XML fetched over REST, cached documents
//! (Elsevier scenario, §6.1). The [`Store`] owns all of them; a [`NodeRef`]
//! names a node globally as `(DocId, NodeId)`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::arena::Document;
use crate::node::NodeId;

/// Identifier of a document inside a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// A node reference that is unique across the whole store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    pub doc: DocId,
    pub node: NodeId,
}

impl NodeRef {
    pub fn new(doc: DocId, node: NodeId) -> Self {
        NodeRef { doc, node }
    }
}

/// Owns every document visible to an engine instance.
#[derive(Debug, Default, Clone)]
pub struct Store {
    docs: Vec<Document>,
    by_uri: HashMap<String, DocId>,
    /// The last scratch region's construction document, emptied and kept
    /// with its capacity for the next [`Store::open_scratch`].
    spare: Option<Document>,
}

/// Where a scratch region begins: [`Store::release_scratch`] drops every
/// document from here to the top of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a scratch region is released through its mark"]
pub struct ScratchMark(DocId);

impl Store {
    pub fn new() -> Self {
        Store::default()
    }

    /// Adds a document, optionally registering it under a URI for `fn:doc`.
    pub fn add_document(&mut self, mut doc: Document, uri: Option<&str>) -> DocId {
        let id = DocId(self.docs.len() as u32);
        if let Some(u) = uri {
            doc.base_uri = Some(u.to_string());
            self.by_uri.insert(u.to_string(), id);
        }
        self.docs.push(doc);
        id
    }

    /// Creates and registers an empty document.
    pub fn new_document(&mut self, uri: Option<&str>) -> DocId {
        self.add_document(Document::new(), uri)
    }

    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.0 as usize]
    }

    pub fn doc_mut(&mut self, id: DocId) -> &mut Document {
        &mut self.docs[id.0 as usize]
    }

    /// Looks up a registered document by URI.
    pub fn doc_by_uri(&self, uri: &str) -> Option<DocId> {
        self.by_uri.get(uri).copied()
    }

    /// Removes the URI binding (the document itself stays alive).
    pub fn unregister_uri(&mut self, uri: &str) -> Option<DocId> {
        self.by_uri.remove(uri)
    }

    /// Replaces the document stored under `id` in place, keeping the `DocId`
    /// (and any URI binding) stable. The old arena is dropped — outstanding
    /// `NodeRef`s into it become dangling and must not be dereferenced,
    /// which is why reloads happen between query evaluations only.
    pub fn replace_document(&mut self, id: DocId, mut doc: Document) {
        doc.base_uri = self.docs[id.0 as usize].base_uri.clone();
        self.docs[id.0 as usize] = doc;
    }

    /// Every `uri → document` binding, sorted by URI (a stable order for
    /// snapshots and dumps).
    pub fn uri_bindings(&self) -> Vec<(String, DocId)> {
        let mut all: Vec<(String, DocId)> =
            self.by_uri.iter().map(|(u, &id)| (u.clone(), id)).collect();
        all.sort();
        all
    }

    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Arena slots over every document (detached tombstones included).
    pub fn node_count(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }

    /// Every document's arena length, by `DocId`: the marks
    /// [`Self::truncate_detached`] cuts back to.
    pub fn arena_lens(&self) -> Vec<usize> {
        self.docs.iter().map(Document::len).collect()
    }

    /// Cuts each of the first `lens.len()` documents back to its length in
    /// `lens` where the slots past it are all detached
    /// ([`Document::truncate_detached`]): after a failed query, that drops
    /// the copies it made for a pending update list it never applied.
    pub fn truncate_detached(&mut self, lens: &[usize]) {
        for (doc, &len) in self.docs.iter_mut().zip(lens) {
            doc.truncate_detached(len);
        }
    }

    /// Whether an emptied construction document waits, outside the
    /// document list, for the next [`Self::open_scratch`].
    #[doc(hidden)]
    pub fn has_spare(&self) -> bool {
        self.spare.is_some()
    }

    /// Opens a scratch region at the top of the store and returns its mark
    /// with the region's construction document: the spare when there is
    /// one, else a new document. It and every document created before the
    /// release have higher `DocId`s, so later places in document order,
    /// than every document below the mark.
    pub fn open_scratch(&mut self) -> (ScratchMark, DocId) {
        let mark = ScratchMark(DocId(self.docs.len() as u32));
        let doc = self.spare.take().unwrap_or_default();
        (mark, self.add_document(doc, None))
    }

    /// Drops every document of the region `mark` opened. Its construction
    /// document is emptied and kept as the spare; the rest (`document { }`
    /// results, …) are freed. No `NodeRef` into the region may outlive
    /// this, and no URI may be bound inside it.
    pub fn release_scratch(&mut self, mark: ScratchMark) {
        let base = mark.0 .0 as usize;
        debug_assert!(
            self.by_uri.values().all(|id| (id.0 as usize) < base),
            "a URI is bound inside a scratch region"
        );
        if let Some(mut construction) = self.docs.drain(base..).next() {
            construction.clear();
            self.spare = Some(construction);
        }
    }

    /// Root node reference of a document.
    pub fn root(&self, id: DocId) -> NodeRef {
        NodeRef::new(id, self.doc(id).root())
    }

    /// XDM string value of a node reference.
    pub fn string_value(&self, n: NodeRef) -> String {
        self.doc(n.doc).string_value(n.node)
    }

    /// Parent as a `NodeRef`.
    pub fn parent(&self, n: NodeRef) -> Option<NodeRef> {
        self.doc(n.doc)
            .parent(n.node)
            .map(|p| NodeRef::new(n.doc, p))
    }

    /// Children as `NodeRef`s.
    pub fn children(&self, n: NodeRef) -> Vec<NodeRef> {
        self.doc(n.doc)
            .children(n.node)
            .iter()
            .map(|&c| NodeRef::new(n.doc, c))
            .collect()
    }

    /// Attributes as `NodeRef`s.
    pub fn attributes(&self, n: NodeRef) -> Vec<NodeRef> {
        self.doc(n.doc)
            .attributes(n.node)
            .iter()
            .map(|&a| NodeRef::new(n.doc, a))
            .collect()
    }

    /// Deep-copies `src` into document `dst` (possibly the same document),
    /// returning the new subtree root. Uses a split borrow so cross-document
    /// copies never clone whole documents.
    pub fn copy_node_between(&mut self, src: NodeRef, dst: DocId) -> NodeId {
        if src.doc == dst {
            return self.doc_mut(dst).deep_copy(src.node);
        }
        let si = src.doc.0 as usize;
        let di = dst.0 as usize;
        if si < di {
            let (left, right) = self.docs.split_at_mut(di);
            right[0].deep_copy_from(&left[si], src.node)
        } else {
            let (left, right) = self.docs.split_at_mut(si);
            left[di].deep_copy_from(&right[0], src.node)
        }
    }
}

/// The store handle shared between the engine, the browser substrate, the
/// plug-in and the JavaScript baseline — they all see the *same* DOM, which
/// is precisely the co-existence claim of §6.2 ("the Web page serves like a
/// database and both JavaScript and XQuery code can be used in order to
/// access and update that database").
pub type SharedStore = Rc<RefCell<Store>>;

/// Creates a fresh shared store.
pub fn shared_store() -> SharedStore {
    Rc::new(RefCell::new(Store::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::QName;
    use crate::serialize::serialize_node;
    use crate::testgen::{mix_env, random_document};
    use proptest::prelude::*;

    #[test]
    fn uri_registration_and_lookup() {
        let mut s = Store::new();
        let d = s.new_document(Some("http://x/lib.xml"));
        assert_eq!(s.doc_by_uri("http://x/lib.xml"), Some(d));
        assert_eq!(s.doc_by_uri("http://x/other.xml"), None);
        s.unregister_uri("http://x/lib.xml");
        assert_eq!(s.doc_by_uri("http://x/lib.xml"), None);
        assert_eq!(s.doc_count(), 1, "document survives unregistration");
    }

    #[test]
    fn node_refs_navigate() {
        let mut s = Store::new();
        let d = s.new_document(None);
        let (root, e) = {
            let doc = s.doc_mut(d);
            let e = doc.create_element(QName::local("r"));
            doc.append_child(doc.root(), e).unwrap();
            let t = doc.create_text("hi");
            doc.append_child(e, t).unwrap();
            (doc.root(), e)
        };
        let root_ref = NodeRef::new(d, root);
        let kids = s.children(root_ref);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].node, e);
        assert_eq!(s.string_value(kids[0]), "hi");
        assert_eq!(s.parent(kids[0]), Some(root_ref));
        assert_eq!(s.parent(root_ref), None);
    }

    #[test]
    fn identity_is_per_document() {
        let mut s = Store::new();
        let d1 = s.new_document(None);
        let d2 = s.new_document(None);
        let r1 = s.root(d1);
        let r2 = s.root(d2);
        assert_ne!(r1, r2);
        assert_eq!(r1.node, r2.node, "both are NodeId(0) locally");
    }

    /// A scratch region is released whole: documents below its mark are
    /// untouched, its construction document comes back emptied as the next
    /// region's, and everything else it made is gone.
    #[test]
    fn scratch_regions_release_down_to_their_mark() {
        let mut s = Store::new();
        let kept = s.new_document(Some("kept.xml"));
        let (mark, construction) = s.open_scratch();
        assert!(construction > kept, "constructed nodes follow stored ones");
        let doc = s.doc_mut(construction);
        let e = doc.create_element(QName::local("e"));
        doc.append_child(doc.root(), e).unwrap();
        s.new_document(None);
        s.release_scratch(mark);
        assert_eq!((s.doc_count(), s.node_count()), (1, 1));
        assert!(s.has_spare());
        let late = s.new_document(Some("late.xml"));
        let (mark, reused) = s.open_scratch();
        assert!(reused > late && !s.has_spare());
        assert_eq!(s.doc(reused).len(), 1, "emptied");
        s.release_scratch(mark);
        assert_eq!((s.doc_count(), s.node_count()), (2, 2));
    }

    proptest! {
        /// A same-document copy and a cross-document copy of any node are
        /// the same tree: a document node copies to its child (or a
        /// `#fragment` holder) either way, never to an empty text node.
        #[test]
        fn same_and_cross_document_copies_serialize_alike(seed in any::<u64>()) {
            let mut s = Store::new();
            let src = s.add_document(random_document(mix_env(seed)), None);
            let other = s.new_document(None);
            for i in 0..s.doc(src).len() {
                let n = NodeRef::new(src, NodeId(i as u32));
                let same = s.copy_node_between(n, src);
                let cross = s.copy_node_between(n, other);
                prop_assert_eq!(
                    serialize_node(s.doc(src), same),
                    serialize_node(s.doc(other), cross)
                );
            }
        }
    }
}
