//! Arena-based document: node storage plus the mutation API used by the
//! XQuery Update Facility and by the browser substrate.
//!
//! All structural operations are checked: the arena refuses mutations that
//! would create cycles, attach attributes as children, or give a node two
//! parents. Deleted nodes are *detached*, never freed — outstanding
//! references remain valid but unreachable from the root, mirroring how the
//! paper treats references to windows/documents that security policy has
//! since made useless (§4.2.1).

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use crate::attr_index::AttrIndex;
use crate::digest::{self, Slots, TreeHash};
use crate::error::{DomError, DomResult};
use crate::name::QName;
use crate::name_index::{NameIndex, NamedDescendants};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::order::{stats, OrderIndex};
use crate::serialize::serialize_document;
use crate::spare;
use crate::walk::{Visit, Walk};

/// Tag bit marking an attribute step in a stable node path; the remaining
/// bits index the owner element's attribute list. See [`Document::node_path`].
pub const PATH_ATTR_BIT: u32 = 0x8000_0000;

/// A single XML document (or document fragment host) backed by an arena.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
    /// Base URI of the document (`fn:doc` key, page URL, …).
    pub base_uri: Option<String>,
    /// Bumped by every structural mutation; the order index compares it to
    /// the epoch it was built for to detect staleness.
    epoch: u64,
    /// Lazily (re)built document-order interval index; see [`OrderIndex`].
    order_index: RefCell<OrderIndex>,
    /// The content version: bumped by every public `&mut self` method that
    /// can change what the document serializes to or answers — every
    /// structural write (with `epoch`), every in-place name or value write
    /// and every namespace declaration. The caches below are valid for the
    /// version they were filled at.
    version: u64,
    /// Lazily built attribute-value index; see [`crate::attr_index`].
    attr_index: RefCell<AttrIndex>,
    /// Lazily built element-name index; see [`crate::name_index`].
    name_index: RefCell<NameIndex>,
    /// The caches of whole-document reads, in one cell so a document is no
    /// bigger for holding both.
    whole: RefCell<WholeCaches>,
    /// Whether no node here has two adjacent text children (see
    /// [`Self::texts_apart`]).
    texts_apart: bool,
}

#[derive(Debug, Clone, Default)]
struct WholeCaches {
    /// The image of the last version read whole; see [`Document::image`].
    image: Option<Rc<DocImage>>,
    /// The subtree hashes behind [`Document::tree_hash`] (see
    /// [`crate::digest`]): none until the first digest, and marking costs
    /// one branch while there are none. Boxed, so a `Document` is no
    /// bigger for holding them.
    hashes: Option<Box<Slots>>,
}

// a `Document`'s size moves allocator behaviour (see DESIGN.md): the two
// caches cost two words
const _: () = assert!(std::mem::size_of::<WholeCaches>() == 2 * std::mem::size_of::<usize>());

/// A document's serialized body bound to a URI, with the state digest the
/// caller derives from [`Document::tree_hash`]: what every whole-document
/// read serves and verifies.
#[derive(Debug, PartialEq, Eq)]
pub struct DocImage {
    pub uri: Box<str>,
    pub body: String,
    pub digest: u64,
    /// The content version it is the image of.
    version: u64,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

/// A large arena outlives its document, emptied, for the next document
/// on the thread that needs one as large (see `spare.rs`).
impl Drop for Document {
    fn drop(&mut self) {
        spare::keep(std::mem::take(&mut self.nodes));
    }
}

impl Document {
    /// Creates an empty document whose root node is `NodeId(0)`.
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeData {
                parent: None,
                kind: NodeKind::Document {
                    children: Vec::new(),
                },
            }],
            base_uri: None,
            epoch: 0,
            order_index: RefCell::new(OrderIndex::default()),
            version: 0,
            attr_index: RefCell::new(AttrIndex::default()),
            name_index: RefCell::new(NameIndex::default()),
            whole: RefCell::new(WholeCaches::default()),
            texts_apart: true,
        }
    }

    /// Empties the document back to a bare root, keeping the arena's
    /// capacity: what a reused scratch document costs instead of a new
    /// one (see [`crate::Store::release_scratch`]). Every `NodeId` but
    /// the root's is dead afterwards. The epoch and the version move on
    /// rather than restart, so no cache built before the clear can pass
    /// for fresh after it.
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        if let NodeKind::Document { children } = &mut self.nodes[0].kind {
            children.clear();
        }
        self.base_uri = None;
        self.epoch += 1;
        self.version += 1;
        *self.whole.get_mut() = WholeCaches::default();
        self.texts_apart = true;
    }

    /// Drops every slot from `len` on when none of them hangs under a slot
    /// below `len`, and returns whether it did: what takes back the copies
    /// a failed update made in its target (see `XmlDb`). The dropped
    /// `NodeId`s are dead afterwards. Like [`Self::clear`], the epoch and
    /// the version move on so no index or image built before can pass for
    /// fresh; the subtree hashes of the kept slots stay. No kept child
    /// list held a dropped slot, so [`Self::texts_apart`] stays too.
    pub fn truncate_detached(&mut self, len: usize) -> bool {
        let tail = self.nodes.get(len..).unwrap_or_default();
        if tail.is_empty()
            || tail
                .iter()
                .any(|n| n.parent.is_some_and(|p| p.index() < len))
        {
            return false;
        }
        self.nodes.truncate(len);
        self.epoch += 1;
        self.version += 1;
        if let Some(slots) = &mut self.whole.get_mut().hashes {
            slots.truncate(len);
        }
        true
    }

    /// Marks a structural change under `node` — its child or attribute
    /// list — invalidating the order index and every content cache. Every
    /// mutating arena method that affects parentage or sibling order must
    /// call this with the node whose list it changed and how many of its
    /// leading children kept their place (`0` for an attribute list).
    #[inline]
    fn touch(&mut self, node: NodeId, keep: usize) {
        self.epoch += 1;
        self.touch_content(node, keep);
    }

    /// Marks an in-place content write to `node` — a name, a value or a
    /// namespace declaration — which leaves the structure (and so the
    /// order index) alone but invalidates every content cache; `keep` as
    /// for [`Self::touch`].
    #[inline]
    fn touch_content(&mut self, node: NodeId, keep: usize) {
        self.version += 1;
        if let Some(slots) = &mut self.whole.get_mut().hashes {
            digest::mark(slots, &self.nodes, node, keep);
        }
    }

    /// The hash of the bytes
    /// [`serialize_document`](crate::serialize::serialize_document)
    /// writes, from the cache (see [`crate::digest`]): the first call
    /// hashes every byte and caches a value per branch, and every later
    /// call re-hashes only the paths changed since the one before.
    pub fn tree_hash(&self) -> TreeHash {
        digest::refresh(self, self.whole.borrow_mut().hashes.get_or_insert_default())
    }

    /// Drops the hash cache, so the next [`Self::tree_hash`] hashes the
    /// document from scratch: the scrubber's check against damage that
    /// bypassed the writers.
    pub fn forget_hashes(&self) {
        self.whole.borrow_mut().hashes = None;
    }

    /// `n`'s cached subtree hash, if the document holds a slot for `n` and
    /// it is clean.
    #[cfg(test)]
    pub(crate) fn cached_hash(&self, n: NodeId) -> Option<TreeHash> {
        self.whole.borrow().hashes.as_ref()?.clean_hash(n)
    }

    /// Whether no element or document node here, attached or not, has two
    /// adjacent text children: then an update's text coalescing has
    /// nothing to merge (see `xqib_xquery::pul`). A new or cleared
    /// document starts it true, and parsing and copying keep it exact
    /// (the list setter reads its children's kinds). A write that puts a
    /// text node beside a text node, or removes the node between two,
    /// makes it false at the cost of two kind reads; nothing but
    /// [`Self::clear`] and [`Self::mark_texts_apart`] makes it true again,
    /// so `true` is a promise and `false` only a doubt.
    #[inline]
    pub fn texts_apart(&self) -> bool {
        self.texts_apart
    }

    /// Makes [`Self::texts_apart`] true again, for a caller that knows it
    /// holds: it held before a batch of writes, and every child list those
    /// writes could have joined text in has been coalesced since. Debug
    /// builds check the claim on documents of up to 4,096 slots.
    pub fn mark_texts_apart(&mut self) {
        debug_assert!(
            self.nodes.len() > 4096 || self.count_adjacent_text() == 0,
            "texts_apart marked on a document with adjacent text"
        );
        self.texts_apart = true;
    }

    /// The pairs of adjacent text children over every child list, attached
    /// or not: the recount [`Self::texts_apart`] promises is zero.
    pub fn count_adjacent_text(&self) -> usize {
        (0..self.nodes.len())
            .map(|i| self.adjacent_text_pairs(self.children(NodeId(i as u32))))
            .sum()
    }

    #[inline]
    fn is_text(&self, id: NodeId) -> bool {
        self.nodes[id.index()].kind.is_text()
    }

    #[inline]
    fn text_at(&self, id: Option<NodeId>) -> bool {
        id.is_some_and(|id| self.is_text(id))
    }

    fn adjacent_text_pairs(&self, list: &[NodeId]) -> usize {
        list.windows(2)
            .filter(|w| self.is_text(w[0]) && self.is_text(w[1]))
            .count()
    }

    /// Clears [`Self::texts_apart`] when a child-list write `joined` text
    /// to text.
    #[inline]
    fn note_join(&mut self, joined: bool) {
        if joined {
            self.texts_apart = false;
        }
    }

    /// Current mutation epoch (monotonically increasing).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[cfg(test)]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The document-order index, rebuilt first if any mutation happened
    /// since it was last built. The returned borrow must be dropped before
    /// the next structural mutation (mutations take `&mut self`, so the
    /// borrow checker enforces this).
    pub fn order_index(&self) -> Ref<'_, OrderIndex> {
        {
            let ix = self.order_index.borrow();
            if ix.is_fresh(self.epoch) {
                return ix;
            }
        }
        {
            let mut ix = self.order_index.borrow_mut();
            ix.rebuild(self, self.epoch);
            stats::record_rebuild();
        }
        self.order_index.borrow()
    }

    /// This version's image under `uri`: its serialization, and the digest
    /// `digest` derives from [`Self::tree_hash`], built on the first read of
    /// a version and shared by every later read of it. The digest comes
    /// from the cached subtree hashes, not from the body beside it; debug
    /// builds check that the two agree. `digest` must be a pure function of
    /// the hash and `uri`. Holds one image: a read under another URI
    /// rebuilds.
    pub fn image(&self, uri: &str, digest: impl FnOnce(TreeHash) -> u64) -> Rc<DocImage> {
        let mut whole = self.whole.borrow_mut();
        if let Some(image) = &whole.image {
            if image.version == self.version && &*image.uri == uri {
                stats::record_doc_image_hit();
                return image.clone();
            }
        }
        let body = serialize_document(self);
        let hash = digest::refresh(self, whole.hashes.get_or_insert_default());
        debug_assert_eq!(hash, TreeHash::of(body.as_bytes()), "cached digest");
        let digest = digest(hash);
        stats::record_doc_image_build();
        let image = Rc::new(DocImage {
            uri: uri.into(),
            body,
            digest,
            version: self.version,
        });
        whole.image = Some(image.clone());
        image
    }

    /// The elements named `name` among `v`'s descendants (and `v` itself
    /// when `or_self`) in document order, with what a pre-order walk from
    /// `v` would visit — or `None` when the element-name index has no list
    /// for `name` at this version and the caller should walk. `v` must be
    /// an element or the document node. The first probe of a name after a
    /// change returns `None`; the second builds its list (see
    /// [`crate::name_index`]).
    pub fn named_descendants(
        &self,
        v: NodeId,
        name: &QName,
        or_self: bool,
    ) -> Option<NamedDescendants> {
        if !self.name_index.borrow().is_built(self.version, name) {
            if !self
                .name_index
                .borrow_mut()
                .probe_unbuilt(self.version, name)
            {
                return None;
            }
            let ord = self.order_index();
            self.name_index.borrow_mut().build(self, &ord, name);
            stats::record_name_index_build();
        }
        stats::record_name_index_hit();
        let ord = self.order_index();
        Some(self.name_index.borrow().answer(&ord, v, name, or_self))
    }

    /// The elements under the document node whose attribute `name` equals
    /// `value`, in document order — or `None` when the attribute-value
    /// index has no table for `name` at the current version and the caller
    /// should scan. The first probe of a name after a change returns
    /// `None`; the second builds its table (see [`crate::attr_index`]). Like
    /// [`Self::order_index`], the borrow must be dropped before the next
    /// mutation.
    pub fn attr_owners(&self, name: &QName, value: &str) -> Option<Ref<'_, [NodeId]>> {
        let version = self.version;
        let built = self
            .attr_index
            .borrow()
            .lookup(version, name, value)
            .is_some();
        if !built {
            let mut ix = self.attr_index.borrow_mut();
            if !ix.probe_unbuilt(self, version, name) {
                return None;
            }
        }
        stats::record_attr_index_hit();
        Ref::filter_map(self.attr_index.borrow(), |ix| {
            ix.lookup(version, name, value)
        })
        .ok()
    }

    /// The document node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of slots in the arena (including detached tombstones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    #[inline]
    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        self.push_node(None, kind) // a new node is a new (detached) tree root
    }

    // ----- constructors ---------------------------------------------------

    pub fn create_element(&mut self, name: QName) -> NodeId {
        self.alloc(NodeKind::element(name, Vec::new()))
    }

    pub fn create_text(&mut self, value: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text {
            value: value.into(),
        })
    }

    pub fn create_comment(&mut self, value: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Comment {
            value: value.into(),
        })
    }

    pub fn create_pi(&mut self, target: impl Into<String>, value: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::ProcessingInstruction {
            target: target.into(),
            value: value.into(),
        })
    }

    pub fn create_attribute(&mut self, name: QName, value: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Attribute {
            name,
            value: value.into(),
        })
    }

    // ----- in-place construction (the parser) -----------------------------

    /// Makes room for `additional` more nodes, in a spare arena when one
    /// is large enough, else when the allocator grants it: a refused
    /// estimate leaves the arena to grow as nodes arrive.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if !self.move_to_spare(self.nodes.len() + additional) {
            let _ = self.nodes.try_reserve(additional);
        }
    }

    /// Moves the slots into a spare arena with room for `slots` when the
    /// arena has less, `slots` is large enough for spares to be kept and
    /// one is (see [`crate::spare`]), and returns whether it did. The old
    /// arena becomes a spare in turn.
    fn move_to_spare(&mut self, slots: usize) -> bool {
        if slots <= self.nodes.capacity() || slots < spare::MIN_SLOTS {
            return false;
        }
        let Some(mut arena) = spare::take(slots) else {
            return false;
        };
        arena.append(&mut self.nodes);
        spare::keep(std::mem::replace(&mut self.nodes, arena));
        true
    }

    /// Pushes a new node whose parent is `parent`, or detached when
    /// `parent` is `None`. The parent's child list is the caller's to fill,
    /// with [`Self::set_children`]. Unchecked, like the other builder
    /// methods: the parser keeps the tree well formed by construction.
    /// A new node has no hash slot until the next refresh, which starts
    /// it dirty.
    pub(crate) fn push_node(&mut self, parent: Option<NodeId>, kind: NodeKind) -> NodeId {
        self.epoch += 1;
        self.version += 1;
        let id = NodeId(self.nodes.len() as u32);
        if self.nodes.len() == self.nodes.capacity() {
            // grow as a `Vec` would, into a spare arena if one is kept
            self.move_to_spare(2 * self.nodes.len());
        }
        self.nodes.push(NodeData { parent, kind });
        id
    }

    /// Sets the child list of a document or element node whose children
    /// were pushed with it as their parent. The node is new, so dirty.
    /// Reads each child's kind, for [`Self::texts_apart`].
    pub(crate) fn set_children(&mut self, parent: NodeId, list: Vec<NodeId>) {
        self.note_join(self.texts_apart && self.adjacent_text_pairs(&list) > 0);
        match &mut self.nodes[parent.index()].kind {
            NodeKind::Document { children } | NodeKind::Element { children, .. } => {
                *children = list
            }
            _ => unreachable!("only documents and elements have children"),
        }
    }

    /// Gives element `elem`, new from [`Self::push_node`], the attribute
    /// `name = value`. A repeated name overwrites the earlier value and
    /// keeps its node, as [`Self::set_attribute`] does.
    pub(crate) fn push_attribute(&mut self, elem: NodeId, name: QName, value: String) {
        if let Some(a) = self.attribute_node(elem, name.ns.as_deref(), &name.local) {
            if let NodeKind::Attribute { value: v, .. } = &mut self.nodes[a.index()].kind {
                *v = value;
            }
            return;
        }
        let id = self.push_node(Some(elem), NodeKind::Attribute { name, value });
        match &mut self.nodes[elem.index()].kind {
            NodeKind::Element { attrs, .. } => attrs.push(id),
            _ => unreachable!("only elements have attributes"),
        }
    }

    // ----- read accessors ---------------------------------------------------

    /// Ordered child list of a document or element node; empty otherwise.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id.index()].kind {
            NodeKind::Document { children } => children,
            NodeKind::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Attribute nodes of an element; empty otherwise.
    pub fn attributes(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// The element name, if `id` is an element.
    pub fn element_name(&self, id: NodeId) -> Option<&QName> {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The node name for elements, attributes and PIs.
    pub fn node_name(&self, id: NodeId) -> Option<QName> {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { name, .. } => Some(name.clone()),
            NodeKind::Attribute { name, .. } => Some(name.clone()),
            NodeKind::ProcessingInstruction { target, .. } => Some(QName::local(target)),
            _ => None,
        }
    }

    /// Attribute string value by expanded name.
    pub fn get_attribute(&self, elem: NodeId, ns: Option<&str>, local: &str) -> Option<&str> {
        self.attribute_node(elem, ns, local)
            .map(|a| match &self.nodes[a.index()].kind {
                NodeKind::Attribute { value, .. } => value.as_str(),
                _ => unreachable!("attribute list holds non-attribute node"),
            })
    }

    /// Attribute node by expanded name.
    pub fn attribute_node(&self, elem: NodeId, ns: Option<&str>, local: &str) -> Option<NodeId> {
        self.attributes(elem).iter().copied().find(|a| {
            matches!(&self.nodes[a.index()].kind,
                NodeKind::Attribute { name, .. } if name.matches(ns, local))
        })
    }

    /// The string value of a text/comment/attribute/PI node, if any.
    pub fn simple_value(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].kind {
            NodeKind::Text { value }
            | NodeKind::Comment { value }
            | NodeKind::Attribute { value, .. }
            | NodeKind::ProcessingInstruction { value, .. } => Some(value),
            _ => None,
        }
    }

    /// XDM string value: concatenation of descendant text for
    /// documents/elements; own value otherwise.
    pub fn string_value(&self, id: NodeId) -> String {
        match &self.nodes[id.index()].kind {
            NodeKind::Document { .. } | NodeKind::Element { .. } => {
                let mut out = String::new();
                let mut walk = Walk::new(id);
                while let Some(visit) = walk.next(self) {
                    if let Visit::Open(n) = visit {
                        if let NodeKind::Text { value } = &self.nodes[n.index()].kind {
                            out.push_str(value);
                        }
                    }
                }
                out
            }
            _ => self.simple_value(id).unwrap_or("").to_string(),
        }
    }

    /// Pre-order traversal of `id` and all its descendants (elements
    /// descend into children; attributes are *not* visited).
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut walk = Walk::new(id);
        while let Some(visit) = walk.next(self) {
            if let Visit::Open(n) = visit {
                out.push(n);
            }
        }
        out
    }

    /// The first of `id` and its descendants, in pre-order, satisfying
    /// `pred` — the walk stops there instead of collecting the subtree.
    pub fn find_descendant(
        &self,
        id: NodeId,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let mut walk = Walk::new(id);
        while let Some(visit) = walk.next(self) {
            match visit {
                Visit::Open(n) if pred(n) => return Some(n),
                _ => {}
            }
        }
        None
    }

    /// True if `ancestor` is `node` or one of its ancestors.
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, node: NodeId) -> bool {
        let mut cur = Some(node);
        while let Some(n) = cur {
            if n == ancestor {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// Index of `child` in its parent's child list.
    pub fn child_index(&self, parent: NodeId, child: NodeId) -> Option<usize> {
        self.children(parent).iter().position(|&c| c == child)
    }

    /// The root of the tree containing `id` (follows parent links).
    pub fn tree_root(&self, id: NodeId) -> NodeId {
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            cur = p;
        }
        cur
    }

    /// True if the node is reachable from the document node.
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.tree_root(id) == self.root()
    }

    /// True if `id` names a slot that exists in this arena.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// Stable structural address of an attached node: the child indices from
    /// the document root down to the node, with an attribute addressed by a
    /// final [`PATH_ATTR_BIT`]-tagged index into its owner's attribute list.
    /// Unlike a [`NodeId`] — which depends on arena allocation history and
    /// tombstones — the path survives a serialize → parse round trip, which
    /// is what redo-log records are keyed on. Returns `None` for detached
    /// nodes and for the document node itself an empty path.
    pub fn node_path(&self, id: NodeId) -> Option<Vec<u32>> {
        if !self.contains(id) || !self.is_attached(id) {
            return None;
        }
        let mut steps = Vec::new();
        let mut cur = id;
        if self.kind(cur).is_attribute() {
            let owner = self.parent(cur)?;
            let idx = self.attributes(owner).iter().position(|&a| a == cur)?;
            steps.push(PATH_ATTR_BIT | idx as u32);
            cur = owner;
        }
        while cur != self.root() {
            let parent = self.parent(cur)?;
            let idx = self.child_index(parent, cur)?;
            steps.push(idx as u32);
            cur = parent;
        }
        steps.reverse();
        Some(steps)
    }

    /// Resolves a path produced by [`node_path`](Self::node_path) against
    /// this document. Returns `None` when any step is out of range or an
    /// attribute step is not last.
    pub fn resolve_path(&self, path: &[u32]) -> Option<NodeId> {
        let mut cur = self.root();
        for (i, &step) in path.iter().enumerate() {
            if step & PATH_ATTR_BIT != 0 {
                if i + 1 != path.len() {
                    return None;
                }
                cur = *self.attributes(cur).get((step & !PATH_ATTR_BIT) as usize)?;
            } else {
                cur = *self.children(cur).get(step as usize)?;
            }
        }
        Some(cur)
    }

    /// Namespace declarations written on an element.
    pub fn ns_decls(&self, id: NodeId) -> &[(String, String)] {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { ns_decls, .. } => ns_decls,
            _ => &[],
        }
    }

    /// Resolves `prefix` against the in-scope namespaces of `id`
    /// (walking ancestors). `""` looks up the default namespace.
    pub fn lookup_namespace(&self, id: NodeId, prefix: &str) -> Option<&str> {
        let mut cur = Some(id);
        while let Some(n) = cur {
            for (p, uri) in self.ns_decls(n) {
                if p == prefix {
                    return if uri.is_empty() { None } else { Some(uri) };
                }
            }
            cur = self.parent(n);
        }
        if prefix == "xml" {
            return Some(crate::name::XML_NS);
        }
        None
    }

    // ----- mutation ---------------------------------------------------------

    fn check_exists(&self, id: NodeId) -> DomResult<()> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(DomError::InvalidNode(format!("no node {id:?} in arena")))
        }
    }

    fn children_mut(&mut self, id: NodeId) -> DomResult<&mut Vec<NodeId>> {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Document { children } => Ok(children),
            NodeKind::Element { children, .. } => Ok(children),
            k => Err(DomError::InvalidMutation(format!(
                "{} node cannot have children",
                k.kind_name()
            ))),
        }
    }

    fn check_insertable_child(&self, parent: NodeId, child: NodeId) -> DomResult<()> {
        self.check_exists(parent)?;
        self.check_exists(child)?;
        if self.nodes[child.index()].parent.is_some() {
            return Err(DomError::InvalidMutation(
                "node already has a parent; detach it first".into(),
            ));
        }
        if self.nodes[child.index()].kind.is_attribute() {
            return Err(DomError::InvalidMutation(
                "attribute nodes cannot be inserted as children".into(),
            ));
        }
        if self.nodes[child.index()].kind.is_document() {
            return Err(DomError::InvalidMutation(
                "document nodes cannot be inserted as children".into(),
            ));
        }
        if self.is_ancestor_or_self(child, parent) {
            return Err(DomError::InvalidMutation(
                "insertion would create a cycle".into(),
            ));
        }
        Ok(())
    }

    /// Appends `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> DomResult<()> {
        self.check_insertable_child(parent, child)?;
        let kids = self.children(parent);
        let (last, keep) = (kids.last().copied(), kids.len());
        self.touch(parent, keep);
        self.children_mut(parent)?.push(child);
        self.nodes[child.index()].parent = Some(parent);
        self.note_join(self.is_text(child) && self.text_at(last));
        Ok(())
    }

    /// Appends character data to `parent`'s content: onto its last child
    /// when that is a text node, else as a new last child; nothing for an
    /// empty string. What a constructor does with its text, so adjacent
    /// text merges into one node (XQuery 1.0 §3.7.1.3).
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> DomResult<()> {
        if text.is_empty() {
            return Ok(());
        }
        if let Some(&last) = self.children(parent).last() {
            if self.nodes[last.index()].kind.is_text() {
                self.touch_content(last, 0);
                if let NodeKind::Text { value } = &mut self.nodes[last.index()].kind {
                    value.push_str(text);
                }
                return Ok(());
            }
        }
        let t = self.create_text(text);
        self.append_child(parent, t)
    }

    /// Inserts `child` at position `idx` of `parent`'s child list.
    pub fn insert_child_at(&mut self, parent: NodeId, idx: usize, child: NodeId) -> DomResult<()> {
        self.check_insertable_child(parent, child)?;
        let kids = self.children_mut(parent)?;
        if idx > kids.len() {
            return Err(DomError::InvalidMutation(format!(
                "index {idx} out of bounds ({} children)",
                kids.len()
            )));
        }
        kids.insert(idx, child);
        let (before, after) = (
            idx.checked_sub(1).map(|i| kids[i]),
            kids.get(idx + 1).copied(),
        );
        self.nodes[child.index()].parent = Some(parent);
        self.touch(parent, idx);
        self.note_join(self.is_text(child) && (self.text_at(before) || self.text_at(after)));
        Ok(())
    }

    /// Cuts `parent`'s child list back to its first `len` children and
    /// detaches the rest: the inverse of appends to a list that had
    /// `len` children (undo-log rollback). Cutting a tail joins no
    /// siblings. Nothing to do for a node without children.
    pub fn truncate_children(&mut self, parent: NodeId, len: usize) -> DomResult<()> {
        self.check_exists(parent)?;
        if self.children(parent).len() <= len {
            return Ok(());
        }
        self.touch(parent, len);
        let cut = self.children_mut(parent)?.split_off(len);
        for c in cut {
            self.nodes[c.index()].parent = None;
        }
        Ok(())
    }

    /// Inserts `new` immediately before `anchor` (which must be attached).
    pub fn insert_before(&mut self, new: NodeId, anchor: NodeId) -> DomResult<()> {
        let parent = self
            .parent(anchor)
            .ok_or_else(|| DomError::InvalidMutation("anchor node has no parent".into()))?;
        let idx = self
            .child_index(parent, anchor)
            .ok_or_else(|| DomError::InvalidNode("anchor not found in parent".into()))?;
        self.insert_child_at(parent, idx, new)
    }

    /// Inserts `new` immediately after `anchor`.
    pub fn insert_after(&mut self, new: NodeId, anchor: NodeId) -> DomResult<()> {
        let parent = self
            .parent(anchor)
            .ok_or_else(|| DomError::InvalidMutation("anchor node has no parent".into()))?;
        let idx = self
            .child_index(parent, anchor)
            .ok_or_else(|| DomError::InvalidNode("anchor not found in parent".into()))?;
        self.insert_child_at(parent, idx + 1, new)
    }

    /// Detaches a node from its parent (child or attribute). The node stays
    /// in the arena as the root of its own subtree.
    pub fn detach(&mut self, id: NodeId) -> DomResult<()> {
        self.check_exists(id)?;
        let Some(parent) = self.nodes[id.index()].parent else {
            return Ok(()); // already detached
        };
        let keep = self.unlink(id, parent);
        self.touch(parent, keep);
        self.nodes[id.index()].parent = None;
        Ok(())
    }

    /// Replaces attached node `old` with `new` (same position).
    pub fn replace_node(&mut self, old: NodeId, new: NodeId) -> DomResult<()> {
        let parent = self
            .parent(old)
            .ok_or_else(|| DomError::InvalidMutation("cannot replace a parentless node".into()))?;
        if self.nodes[old.index()].kind.is_attribute() {
            if !self.nodes[new.index()].kind.is_attribute() {
                return Err(DomError::InvalidMutation(
                    "an attribute can only be replaced by an attribute".into(),
                ));
            }
            self.detach(old)?;
            return self.put_attribute_node(parent, new);
        }
        let idx = self
            .child_index(parent, old)
            .ok_or_else(|| DomError::InvalidNode("old node not found in parent".into()))?;
        self.detach(old)?;
        self.insert_child_at(parent, idx, new)
    }

    /// Adds an existing attribute node to an element, replacing any
    /// attribute with the same expanded name.
    pub fn put_attribute_node(&mut self, elem: NodeId, attr: NodeId) -> DomResult<()> {
        self.check_exists(elem)?;
        self.check_exists(attr)?;
        let (ns, local) = match &self.nodes[attr.index()].kind {
            NodeKind::Attribute { name, .. } => (name.ns.clone(), name.local.clone()),
            _ => {
                return Err(DomError::InvalidMutation(
                    "put_attribute_node requires an attribute node".into(),
                ))
            }
        };
        if !self.nodes[elem.index()].kind.is_element() {
            return Err(DomError::InvalidMutation(
                "attributes can only be attached to elements".into(),
            ));
        }
        if self.nodes[attr.index()].parent.is_some() {
            return Err(DomError::InvalidMutation(
                "attribute already has an owner".into(),
            ));
        }
        if let Some(existing) = self.attribute_node(elem, ns.as_deref(), &local) {
            self.detach(existing)?;
        }
        self.touch(elem, 0);
        match &mut self.nodes[elem.index()].kind {
            NodeKind::Element { attrs, .. } => attrs.push(attr),
            _ => unreachable!(),
        }
        self.nodes[attr.index()].parent = Some(elem);
        Ok(())
    }

    /// Sets (creating or updating) an attribute by name; returns its node.
    pub fn set_attribute(
        &mut self,
        elem: NodeId,
        name: QName,
        value: impl Into<String>,
    ) -> DomResult<NodeId> {
        let value = value.into();
        if let Some(existing) = self.attribute_node(elem, name.ns.as_deref(), &name.local) {
            match &mut self.nodes[existing.index()].kind {
                NodeKind::Attribute { value: v, .. } => *v = value,
                _ => unreachable!(),
            }
            self.touch_content(existing, 0);
            return Ok(existing);
        }
        let attr = self.create_attribute(name, value);
        self.put_attribute_node(elem, attr)?;
        Ok(attr)
    }

    /// Removes an attribute by expanded name; returns true if one existed.
    pub fn remove_attribute(
        &mut self,
        elem: NodeId,
        ns: Option<&str>,
        local: &str,
    ) -> DomResult<bool> {
        if let Some(attr) = self.attribute_node(elem, ns, local) {
            self.detach(attr)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Renames an element, attribute or PI (Update Facility `rename node`).
    pub fn rename(&mut self, id: NodeId, new_name: QName) -> DomResult<()> {
        self.check_exists(id)?;
        self.touch_content(id, 0);
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { name, .. } | NodeKind::Attribute { name, .. } => {
                *name = new_name;
                Ok(())
            }
            NodeKind::ProcessingInstruction { target, .. } => {
                *target = new_name.local.to_string();
                Ok(())
            }
            k => Err(DomError::InvalidMutation(format!(
                "cannot rename a {} node",
                k.kind_name()
            ))),
        }
    }

    /// Overwrites the value of a text/comment/attribute/PI node
    /// (Update Facility `replace value of node` for simple nodes).
    pub fn set_simple_value(&mut self, id: NodeId, value: impl Into<String>) -> DomResult<()> {
        self.check_exists(id)?;
        self.touch_content(id, 0);
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text { value: v }
            | NodeKind::Comment { value: v }
            | NodeKind::Attribute { value: v, .. }
            | NodeKind::ProcessingInstruction { value: v, .. } => {
                *v = value.into();
                Ok(())
            }
            k => Err(DomError::InvalidMutation(format!(
                "{} node has no simple value",
                k.kind_name()
            ))),
        }
    }

    /// `replace value of node` for elements: all children are removed and
    /// replaced by a single text node (or nothing, for the empty string).
    pub fn replace_element_value(&mut self, elem: NodeId, text: &str) -> DomResult<()> {
        let kids: Vec<NodeId> = self.children(elem).to_vec();
        for k in kids {
            self.detach(k)?;
        }
        if !text.is_empty() {
            let t = self.create_text(text);
            self.append_child(elem, t)?;
        }
        Ok(())
    }

    /// Declares a namespace on an element.
    pub fn add_ns_decl(
        &mut self,
        elem: NodeId,
        prefix: impl Into<String>,
        uri: impl Into<String>,
    ) -> DomResult<()> {
        self.touch_content(elem, 0);
        match &mut self.nodes[elem.index()].kind {
            NodeKind::Element { ns_decls, .. } => {
                let prefix = prefix.into();
                let uri = uri.into();
                if let Some(slot) = ns_decls.iter_mut().find(|(p, _)| *p == prefix) {
                    slot.1 = uri;
                } else {
                    ns_decls.push((prefix, uri));
                }
                Ok(())
            }
            k => Err(DomError::InvalidMutation(format!(
                "cannot declare a namespace on a {} node",
                k.kind_name()
            ))),
        }
    }

    /// Deep-copies `src` (from `src_doc`) into this document; returns the
    /// new root of the copy. Used by Update Facility inserts, which insert
    /// *copies* of their source nodes. A document node has no copy: its
    /// single child is copied instead, or, when it has several or none,
    /// its children under a new `#fragment` element.
    pub fn deep_copy_from(&mut self, src_doc: &Document, src: NodeId) -> NodeId {
        self.copy_tree(Some(src_doc), src)
    }

    /// Deep copy within the same document; see [`Self::deep_copy_from`].
    pub fn deep_copy(&mut self, src: NodeId) -> NodeId {
        self.copy_tree(None, src)
    }

    /// The one copier: walks `src` in `from` (this document when `None`)
    /// and pushes, in pre-order, each node's copy and then its attributes'
    /// copies. That allocation order fixes the copy's `NodeId`s, which
    /// seeded runs replay. A fresh copy cannot form a cycle, so it is
    /// built unchecked; the walk borrows the source only within each step,
    /// which lets a same-document copy write to the arena it walks.
    fn copy_tree(&mut self, from: Option<&Document>, src: NodeId) -> NodeId {
        let src = match from.unwrap_or(self).kind(src) {
            NodeKind::Document { children } if children.len() == 1 => children[0],
            _ => src,
        };
        let root = NodeId(self.nodes.len() as u32); // the first node pushed
        let mut walk = Walk::new(src);
        // the copies of the open source nodes, each with its children's copies
        let mut open: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        while let Some(visit) = walk.next(from.unwrap_or(self)) {
            let Visit::Open(n) = visit else {
                let (copy, children) = open.pop().expect("a close follows its open");
                self.set_children(copy, children);
                continue;
            };
            let source = from.unwrap_or(self);
            let kind = match source.kind(n) {
                NodeKind::Document { .. } => {
                    NodeKind::element(QName::local("#fragment"), Vec::new())
                }
                NodeKind::Element { name, ns_decls, .. } => {
                    NodeKind::element(name.clone(), ns_decls.clone())
                }
                leaf => leaf.clone(),
            };
            let attrs: Vec<NodeKind> = source
                .attributes(n)
                .iter()
                .map(|&a| source.kind(a).clone())
                .collect();
            let is_container = matches!(kind, NodeKind::Element { .. });
            let copy = self.push_node(open.last().map(|(parent, _)| *parent), kind);
            let attr_copies = attrs
                .into_iter()
                .map(|a| self.push_node(Some(copy), a))
                .collect();
            if let NodeKind::Element { attrs, .. } = &mut self.nodes[copy.index()].kind {
                *attrs = attr_copies;
            }
            if let Some((_, siblings)) = open.last_mut() {
                siblings.push(copy);
            }
            if is_container {
                open.push((copy, Vec::new()));
            }
        }
        root
    }

    /// Forcibly restores `parent`'s child list to a previously captured
    /// snapshot (undo-log rollback). Children currently in the list but not
    /// in the snapshot are orphaned; snapshot members are re-parented here,
    /// being pulled out of whatever list they moved to in the meantime.
    /// Unlike the checked mutation API this trusts the snapshot: it was
    /// taken from a consistent document, so replaying it cannot create
    /// cycles or attribute children that did not already exist.
    pub fn restore_children(&mut self, parent: NodeId, snapshot: &[NodeId]) -> DomResult<()> {
        self.check_exists(parent)?;
        self.touch(parent, 0);
        // orphan every current child: a snapshot member is re-parented
        // below, so the lists are matched without a quadratic search
        let current: Vec<NodeId> = self.children(parent).to_vec();
        for c in current {
            self.nodes[c.index()].parent = None;
        }
        for &c in snapshot {
            self.unlink_from_other_parent(c, parent);
            self.nodes[c.index()].parent = Some(parent);
        }
        *self.children_mut(parent)? = snapshot.to_vec();
        self.note_join(self.adjacent_text_pairs(snapshot) > 0);
        Ok(())
    }

    /// Forcibly restores `elem`'s attribute list to a captured snapshot
    /// (undo-log rollback); the counterpart of [`Self::restore_children`].
    pub fn restore_attributes(&mut self, elem: NodeId, snapshot: &[NodeId]) -> DomResult<()> {
        self.check_exists(elem)?;
        self.touch(elem, 0);
        let current: Vec<NodeId> = self.attributes(elem).to_vec();
        for a in current {
            if !snapshot.contains(&a) {
                self.nodes[a.index()].parent = None;
            }
        }
        for &a in snapshot {
            self.unlink_from_other_parent(a, elem);
            self.nodes[a.index()].parent = Some(elem);
        }
        match &mut self.nodes[elem.index()].kind {
            NodeKind::Element { attrs, .. } => {
                *attrs = snapshot.to_vec();
                Ok(())
            }
            k => Err(DomError::InvalidMutation(format!(
                "{} node has no attributes to restore",
                k.kind_name()
            ))),
        }
    }

    /// Removes `node` from the child/attribute list of its current parent if
    /// that parent is not `keep` (rollback helper: a snapshot member may have
    /// been moved elsewhere by a later, already-undone primitive).
    fn unlink_from_other_parent(&mut self, node: NodeId, keep: NodeId) {
        let Some(cur) = self.nodes[node.index()].parent else {
            return;
        };
        if cur == keep {
            return;
        }
        let at = self.unlink(node, cur);
        self.touch(cur, at);
    }

    /// Removes `node` from `parent`'s attribute or child list; returns
    /// how many of `parent`'s children kept their place (`0` for an
    /// attribute), for [`Self::touch`].
    fn unlink(&mut self, node: NodeId, parent: NodeId) -> usize {
        let is_attr = self.nodes[node.index()].kind.is_attribute();
        let list = match &mut self.nodes[parent.index()].kind {
            NodeKind::Element { attrs, .. } if is_attr => attrs,
            NodeKind::Element { children, .. } | NodeKind::Document { children } => children,
            _ => return 0,
        };
        let Some(at) = list.iter().position(|&c| c == node) else {
            return 0;
        };
        list.remove(at);
        if is_attr {
            return 0;
        }
        let (before, after) = (at.checked_sub(1).map(|i| list[i]), list.get(at).copied());
        self.note_join(self.text_at(before) && self.text_at(after));
        at
    }

    /// Merges adjacent text children of `parent` and drops empty text nodes,
    /// as required after applying a pending update list.
    pub fn merge_adjacent_text(&mut self, parent: NodeId) -> DomResult<()> {
        let kids: Vec<NodeId> = self.children(parent).to_vec();
        let mut merged: Vec<NodeId> = Vec::with_capacity(kids.len());
        for &k in &kids {
            let is_text = self.nodes[k.index()].kind.is_text();
            if is_text {
                let val = self.simple_value(k).unwrap_or("").to_string();
                if val.is_empty() {
                    self.nodes[k.index()].parent = None;
                    continue;
                }
                if let Some(&last) = merged.last() {
                    if self.nodes[last.index()].kind.is_text() {
                        let combined = format!("{}{}", self.simple_value(last).unwrap_or(""), val);
                        self.set_simple_value(last, combined)?;
                        self.nodes[k.index()].parent = None;
                        continue;
                    }
                }
            }
            merged.push(k);
        }
        // Rewrites the child list and orphans nodes directly (bypassing
        // `detach`), so it must invalidate the order index itself.
        let keep = kids.iter().zip(&merged).take_while(|(a, b)| a == b).count();
        self.touch(parent, keep);
        *self.children_mut(parent)? = merged;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with_root() -> (Document, NodeId) {
        let mut d = Document::new();
        let e = d.create_element(QName::local("html"));
        d.append_child(d.root(), e).unwrap();
        (d, e)
    }

    #[test]
    fn build_and_string_value() {
        let (mut d, html) = doc_with_root();
        let body = d.create_element(QName::local("body"));
        d.append_child(html, body).unwrap();
        let t1 = d.create_text("Hello, ");
        let b = d.create_element(QName::local("b"));
        let t2 = d.create_text("World");
        d.append_child(body, t1).unwrap();
        d.append_child(body, b).unwrap();
        d.append_child(b, t2).unwrap();
        assert_eq!(d.string_value(d.root()), "Hello, World");
        assert_eq!(d.string_value(body), "Hello, World");
        assert_eq!(d.string_value(t1), "Hello, ");
    }

    /// A large document's arena outlives it on its thread and serves the
    /// next parse that grows as large; a small one goes back to the
    /// allocator.
    #[test]
    fn a_dropped_arena_serves_the_next_large_parse() {
        let big = format!("<r>{}</r>", "<a/>".repeat(spare::MIN_SLOTS));
        let doc = crate::parse_document(&big).unwrap();
        let arena = doc.nodes.as_ptr();
        drop(doc);
        assert!(spare::kept() >= spare::MIN_SLOTS);
        let again = crate::parse_document(&big).unwrap();
        assert_eq!(again.nodes.as_ptr(), arena);
        assert_eq!(spare::kept(), 0);
        assert_eq!(again.len(), spare::MIN_SLOTS + 2);
        assert_eq!(
            again.children(again.children(again.root())[0]).len(),
            spare::MIN_SLOTS
        );
        drop(Document::new());
        assert_eq!(spare::kept(), 0, "a small arena is not kept");
    }

    /// Detached slots at the tail go, attached ones stay, and what is left
    /// answers like a document that never had them.
    #[test]
    fn only_a_detached_tail_is_truncated() {
        let mut d = Document::new();
        let r = d.create_element(QName::local("r"));
        d.append_child(d.root(), r).unwrap();
        d.tree_hash();
        let len = d.len();
        let copy = d.create_element(QName::local("i"));
        let inner = d.create_element(QName::local("j"));
        d.append_child(copy, inner).unwrap();
        d.set_attribute(copy, QName::local("k"), "v").unwrap();
        d.order_index();
        let epoch = d.epoch();
        assert!(d.truncate_detached(len));
        assert_eq!(d.len(), len);
        assert!(d.epoch() > epoch);
        assert!(!d.truncate_detached(len), "nothing left to drop");
        let attached = d.create_element(QName::local("i"));
        d.append_child(r, attached).unwrap();
        assert!(!d.truncate_detached(len), "an attached slot stays");
        assert_eq!(serialize_document(&d), "<r><i/></r>");
        let mut fresh = Document::new();
        let fr = fresh.create_element(QName::local("r"));
        fresh.append_child(fresh.root(), fr).unwrap();
        let fi = fresh.create_element(QName::local("i"));
        fresh.append_child(fr, fi).unwrap();
        assert_eq!(d.tree_hash(), fresh.tree_hash());
        assert_eq!(d.order_index().pre_order(), fresh.order_index().pre_order());
    }

    /// A cleared document answers like a new one: the order, name and
    /// attribute indexes, the subtree hashes and the image built before the
    /// clear are all rebuilt for what is written after it.
    #[test]
    fn a_cleared_document_answers_like_a_new_one() {
        fn fill(d: &mut Document, names: &[&str]) {
            let r = d.create_element(QName::local("r"));
            d.append_child(d.root(), r).unwrap();
            for (i, n) in names.iter().enumerate() {
                let e = d.create_element(QName::local(n));
                d.set_attribute(e, QName::local("k"), i.to_string())
                    .unwrap();
                d.append_child(r, e).unwrap();
            }
        }
        fn answers(d: &Document) -> impl PartialEq + std::fmt::Debug {
            let (a, k) = (QName::local("a"), QName::local("k"));
            // the second probe of a name builds its index
            for _ in 0..2 {
                d.named_descendants(d.root(), &a, false);
                d.attr_owners(&k, "1");
            }
            (
                d.order_index().pre_order().to_vec(),
                d.named_descendants(d.root(), &a, false),
                d.attr_owners(&k, "1").map(|owners| owners.to_vec()),
                d.tree_hash(),
                d.image("d.xml", |h| h.hash).body.clone(),
            )
        }
        let mut d = Document::new();
        fill(&mut d, &["a", "b", "a"]);
        answers(&d);
        d.clear();
        assert_eq!(d.len(), 1);
        assert_eq!(serialize_document(&d), "");
        // as many writes as before the clear: a cache keyed by a counter
        // that restarted would pass for fresh
        fill(&mut d, &["b", "a", "a"]);
        let mut fresh = Document::new();
        fill(&mut fresh, &["b", "a", "a"]);
        assert_eq!(answers(&d), answers(&fresh));
    }

    #[test]
    fn texts_apart_follows_parses_and_writes() {
        let joined = crate::parse_document("<a>x<![CDATA[y]]></a>").unwrap();
        assert!(!joined.texts_apart(), "text beside a CDATA section");
        let mut d = crate::parse_document("<a>x<b/>y<c/></a>").unwrap();
        assert!(d.texts_apart());
        let a = d.children(d.root())[0];
        let [_, b, _, c] = d.children(a).try_into().unwrap();
        d.detach(c).unwrap();
        assert!(d.texts_apart(), "a detach at the end joins nothing");
        d.detach(b).unwrap();
        assert!(!d.texts_apart(), "the detach joined x and y");
        assert_eq!(d.count_adjacent_text(), 1);
        d.clear();
        assert!(d.texts_apart());
    }

    #[test]
    fn truncate_children_detaches_the_tail() {
        let (mut d, root) = doc_with_root();
        let kids: Vec<NodeId> = (0..3).map(|_| d.create_text("t")).collect();
        for &k in &kids {
            d.append_child(root, k).unwrap();
        }
        assert!(!d.texts_apart());
        d.truncate_children(root, 1).unwrap();
        assert_eq!(d.children(root), &kids[..1]);
        assert!(kids[1..].iter().all(|&k| d.parent(k).is_none()));
        d.truncate_children(root, 5).unwrap();
        assert_eq!(d.children(root), &kids[..1], "a longer length cuts nothing");
        d.truncate_children(kids[0], 0).unwrap();
    }

    #[test]
    fn find_descendant_stops_at_the_first_preorder_match() {
        let (mut d, html) = doc_with_root();
        let head = d.create_element(QName::local("head"));
        let body = d.create_element(QName::local("body"));
        d.append_child(html, head).unwrap();
        d.append_child(html, body).unwrap();
        let p1 = d.create_element(QName::local("p"));
        let p2 = d.create_element(QName::local("p"));
        d.append_child(head, p1).unwrap();
        d.append_child(body, p2).unwrap();
        let is_p = |d: &Document, n| d.element_name(n).is_some_and(|q| &*q.local == "p");
        let mut visited = 0;
        let hit = d.find_descendant(d.root(), |n| {
            visited += 1;
            is_p(&d, n)
        });
        assert_eq!(hit, Some(p1), "pre-order: head's p before body's");
        assert_eq!(visited, 4, "root, html, head, p — body is never visited");
        assert_eq!(d.find_descendant(body, |n| is_p(&d, n)), Some(p2));
        assert_eq!(
            d.find_descendant(html, |n| n == html),
            Some(html),
            "self counts"
        );
        assert_eq!(d.find_descendant(head, |n| n == body), None);
        let all = d.descendants_or_self(d.root());
        assert_eq!(
            d.find_descendant(d.root(), |n| is_p(&d, n)),
            all.into_iter().find(|&n| is_p(&d, n)),
            "same answer as filtering the collected walk"
        );
    }

    #[test]
    fn attributes_roundtrip() {
        let (mut d, html) = doc_with_root();
        d.set_attribute(html, QName::local("id"), "page").unwrap();
        assert_eq!(d.get_attribute(html, None, "id"), Some("page"));
        // overwrite keeps a single node
        let a1 = d.attribute_node(html, None, "id").unwrap();
        let a2 = d.set_attribute(html, QName::local("id"), "page2").unwrap();
        assert_eq!(a1, a2);
        assert_eq!(d.get_attribute(html, None, "id"), Some("page2"));
        assert!(d.remove_attribute(html, None, "id").unwrap());
        assert_eq!(d.get_attribute(html, None, "id"), None);
        assert!(!d.remove_attribute(html, None, "id").unwrap());
    }

    #[test]
    fn insert_before_and_after() {
        let (mut d, html) = doc_with_root();
        let a = d.create_element(QName::local("a"));
        let c = d.create_element(QName::local("c"));
        d.append_child(html, a).unwrap();
        d.append_child(html, c).unwrap();
        let b = d.create_element(QName::local("b"));
        d.insert_before(b, c).unwrap();
        let names: Vec<String> = d
            .children(html)
            .iter()
            .map(|&k| d.element_name(k).unwrap().lexical())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
        let a2 = d.create_element(QName::local("a2"));
        d.insert_after(a2, a).unwrap();
        let names: Vec<String> = d
            .children(html)
            .iter()
            .map(|&k| d.element_name(k).unwrap().lexical())
            .collect();
        assert_eq!(names, ["a", "a2", "b", "c"]);
    }

    #[test]
    fn detach_and_reattach() {
        let (mut d, html) = doc_with_root();
        let p = d.create_element(QName::local("p"));
        d.append_child(html, p).unwrap();
        assert!(d.is_attached(p));
        d.detach(p).unwrap();
        assert!(!d.is_attached(p));
        assert!(d.children(html).is_empty());
        d.append_child(html, p).unwrap();
        assert!(d.is_attached(p));
    }

    #[test]
    fn cycle_rejected() {
        let (mut d, html) = doc_with_root();
        let p = d.create_element(QName::local("p"));
        d.append_child(html, p).unwrap();
        // detaching html then appending under p would make a cycle only if
        // html were an ancestor of p... build the actual cycle case:
        d.detach(html).unwrap();
        let err = d.append_child(p, html).unwrap_err();
        assert!(matches!(err, DomError::InvalidMutation(_)));
    }

    #[test]
    fn double_parent_rejected() {
        let (mut d, html) = doc_with_root();
        let p = d.create_element(QName::local("p"));
        d.append_child(html, p).unwrap();
        let err = d.append_child(html, p).unwrap_err();
        assert!(matches!(err, DomError::InvalidMutation(_)));
    }

    #[test]
    fn attribute_as_child_rejected() {
        let (mut d, html) = doc_with_root();
        let a = d.create_attribute(QName::local("x"), "1");
        assert!(d.append_child(html, a).is_err());
    }

    #[test]
    fn replace_node_keeps_position() {
        let (mut d, html) = doc_with_root();
        let a = d.create_element(QName::local("a"));
        let b = d.create_element(QName::local("b"));
        let c = d.create_element(QName::local("c"));
        for n in [a, b, c] {
            d.append_child(html, n).unwrap();
        }
        let x = d.create_element(QName::local("x"));
        d.replace_node(b, x).unwrap();
        let names: Vec<String> = d
            .children(html)
            .iter()
            .map(|&k| d.element_name(k).unwrap().lexical())
            .collect();
        assert_eq!(names, ["a", "x", "c"]);
        assert!(!d.is_attached(b));
    }

    #[test]
    fn rename_element_and_attribute() {
        let (mut d, html) = doc_with_root();
        d.rename(html, QName::local("xhtml")).unwrap();
        assert_eq!(d.element_name(html).unwrap().lexical(), "xhtml");
        let attr = d.set_attribute(html, QName::local("a"), "v").unwrap();
        d.rename(attr, QName::local("b")).unwrap();
        assert_eq!(d.get_attribute(html, None, "b"), Some("v"));
        let t = d.create_text("x");
        assert!(d.rename(t, QName::local("nope")).is_err());
    }

    #[test]
    fn replace_element_value() {
        let (mut d, html) = doc_with_root();
        let p = d.create_element(QName::local("p"));
        d.append_child(html, p).unwrap();
        let t = d.create_text("old");
        d.append_child(p, t).unwrap();
        d.replace_element_value(p, "new").unwrap();
        assert_eq!(d.string_value(p), "new");
        assert_eq!(d.children(p).len(), 1);
        d.replace_element_value(p, "").unwrap();
        assert!(d.children(p).is_empty());
    }

    #[test]
    fn deep_copy_is_disjoint() {
        let (mut d, html) = doc_with_root();
        d.set_attribute(html, QName::local("id"), "orig").unwrap();
        let t = d.create_text("payload");
        d.append_child(html, t).unwrap();
        let copy = d.deep_copy(html);
        assert_ne!(copy, html);
        assert_eq!(d.string_value(copy), "payload");
        assert_eq!(d.get_attribute(copy, None, "id"), Some("orig"));
        // mutating the copy leaves the original alone
        d.set_attribute(copy, QName::local("id"), "copy").unwrap();
        assert_eq!(d.get_attribute(html, None, "id"), Some("orig"));
    }

    #[test]
    fn cross_document_copy() {
        let (d1, html) = {
            let (mut d, html) = doc_with_root();
            let t = d.create_text("xdoc");
            d.append_child(html, t).unwrap();
            (d, html)
        };
        let mut d2 = Document::new();
        let copied = d2.deep_copy_from(&d1, html);
        assert_eq!(d2.string_value(copied), "xdoc");
    }

    #[test]
    fn merge_adjacent_text_nodes() {
        let (mut d, html) = doc_with_root();
        let t1 = d.create_text("a");
        let t2 = d.create_text("b");
        let t3 = d.create_text("");
        let e = d.create_element(QName::local("i"));
        let t4 = d.create_text("c");
        for n in [t1, t2, t3, e, t4] {
            d.append_child(html, n).unwrap();
        }
        d.merge_adjacent_text(html).unwrap();
        assert_eq!(d.children(html).len(), 3);
        assert_eq!(d.string_value(html), "abc");
    }

    #[test]
    fn node_paths_round_trip_and_survive_reparse() {
        let (mut d, html) = doc_with_root();
        let a = d.create_element(QName::local("a"));
        d.append_child(html, a).unwrap();
        let t = d.create_text("hello");
        d.append_child(a, t).unwrap();
        let b = d.create_element(QName::local("b"));
        d.append_child(html, b).unwrap();
        let attr = d.create_attribute(QName::local("k"), "v");
        d.put_attribute_node(b, attr).unwrap();

        for n in [html, a, t, b, attr] {
            let path = d.node_path(n).unwrap();
            assert_eq!(d.resolve_path(&path), Some(n), "path {path:?}");
        }
        assert_eq!(d.node_path(d.root()).unwrap(), Vec::<u32>::new());
        let attr_path = d.node_path(attr).unwrap();
        assert_eq!(attr_path.last().copied(), Some(PATH_ATTR_BIT));

        // detached nodes have no path
        let loose = d.create_element(QName::local("x"));
        assert_eq!(d.node_path(loose), None);
        // out-of-range / non-final attribute steps resolve to None
        assert_eq!(d.resolve_path(&[9]), None);
        assert_eq!(d.resolve_path(&[PATH_ATTR_BIT, 0]), None);

        // the address is stable across a serialize → parse round trip
        let xml = crate::serialize::serialize_document(&d);
        let re = crate::parse_document(&xml).unwrap();
        let rt = re.resolve_path(&d.node_path(t).unwrap()).unwrap();
        assert_eq!(re.string_value(rt), "hello");
        let ra = re.resolve_path(&attr_path).unwrap();
        assert!(re.kind(ra).is_attribute());
    }

    #[test]
    fn namespace_lookup_walks_ancestors() {
        let (mut d, html) = doc_with_root();
        d.add_ns_decl(html, "", "urn:default").unwrap();
        d.add_ns_decl(html, "x", "urn:x").unwrap();
        let child = d.create_element(QName::local("c"));
        d.append_child(html, child).unwrap();
        assert_eq!(d.lookup_namespace(child, ""), Some("urn:default"));
        assert_eq!(d.lookup_namespace(child, "x"), Some("urn:x"));
        assert_eq!(d.lookup_namespace(child, "y"), None);
        assert_eq!(d.lookup_namespace(child, "xml"), Some(crate::name::XML_NS));
    }

    /// The recursive kernels the walk replaced, verbatim, kept as the
    /// oracles the cursor loops are tested against.
    impl Document {
        fn string_value_recursive(&self, id: NodeId) -> String {
            match &self.nodes[id.index()].kind {
                NodeKind::Document { .. } | NodeKind::Element { .. } => {
                    let mut out = String::new();
                    self.collect_text(id, &mut out);
                    out
                }
                _ => self.simple_value(id).unwrap_or("").to_string(),
            }
        }

        fn collect_text(&self, id: NodeId, out: &mut String) {
            for &c in self.children(id) {
                match &self.nodes[c.index()].kind {
                    NodeKind::Text { value } => out.push_str(value),
                    NodeKind::Element { .. } => self.collect_text(c, out),
                    _ => {}
                }
            }
        }

        fn deep_copy_from_recursive(&mut self, src_doc: &Document, src: NodeId) -> NodeId {
            match src_doc.kind(src).clone() {
                NodeKind::Document { children } => {
                    if children.len() == 1 {
                        self.deep_copy_from_recursive(src_doc, children[0])
                    } else {
                        let holder = self.create_element(QName::local("#fragment"));
                        for c in children {
                            let cc = self.deep_copy_from_recursive(src_doc, c);
                            let _ = self.append_child(holder, cc);
                        }
                        holder
                    }
                }
                NodeKind::Element {
                    name,
                    attrs,
                    children,
                    ns_decls,
                } => {
                    let e = self.create_element(name);
                    match &mut self.nodes[e.index()].kind {
                        NodeKind::Element { ns_decls: nd, .. } => *nd = ns_decls,
                        _ => unreachable!(),
                    }
                    for a in attrs {
                        let ac = self.deep_copy_from_recursive(src_doc, a);
                        let _ = self.put_attribute_node(e, ac);
                    }
                    for c in children {
                        let cc = self.deep_copy_from_recursive(src_doc, c);
                        let _ = self.append_child(e, cc);
                    }
                    e
                }
                NodeKind::Attribute { name, value } => self.create_attribute(name, value),
                NodeKind::Text { value } => self.create_text(value),
                NodeKind::Comment { value } => self.create_comment(value),
                NodeKind::ProcessingInstruction { target, value } => self.create_pi(target, value),
            }
        }
    }

    /// Two arenas equal slot for slot: `NodeData`'s debug form spells out
    /// every node's kind, parent, name parts, values, namespace
    /// declarations and attribute and child lists.
    fn assert_same_arena(a: &Document, b: &Document) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let id = NodeId(i as u32);
            assert_eq!(
                format!("{:?}", a.data(id)),
                format!("{:?}", b.data(id)),
                "slot {i}"
            );
        }
    }

    /// The walk copier and the recursive one build the same nodes under
    /// the same `NodeId`s: copying `n` into an empty document, and copying
    /// it within `d` (the oracle copies from `d` into a clone of it, which
    /// allocates as a same-document copy would).
    fn check_copies(d: &Document, n: NodeId) {
        let (mut new, mut old) = (Document::new(), Document::new());
        assert_eq!(new.deep_copy_from(d, n), old.deep_copy_from_recursive(d, n));
        assert_same_arena(&new, &old);
        let (mut new, mut old) = (d.clone(), d.clone());
        assert_eq!(new.deep_copy(n), old.deep_copy_from_recursive(d, n));
        assert_same_arena(&new, &old);
    }

    mod differential {
        use super::*;
        use crate::testgen::{
            deep_document, mix_env, on_big_stack, random_document, wide_document,
        };
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn walk_kernels_match_the_recursive_oracles(seed in any::<u64>()) {
                let seed = mix_env(seed);
                for d in [random_document(seed), wide_document(seed, 12)] {
                    for i in 0..d.len() {
                        let n = NodeId(i as u32);
                        prop_assert_eq!(d.string_value(n), d.string_value_recursive(n));
                        check_copies(&d, n);
                    }
                }
            }
        }

        #[test]
        fn deep_chains_match_the_recursive_oracles() {
            for k in 0..3 {
                // the recursive oracles need more than a test thread's stack
                on_big_stack(move || {
                    let d = deep_document(mix_env(k), 10_000);
                    for n in [d.root(), d.children(d.root())[0]] {
                        assert_eq!(d.string_value(n), d.string_value_recursive(n));
                        check_copies(&d, n);
                    }
                });
            }
        }

        /// Deeper than any recursion survives on a test thread's stack:
        /// every kernel here walks.
        #[test]
        fn deep_chains_serialize_copy_and_order_on_a_test_thread() {
            let d = deep_document(mix_env(7), 100_000);
            let xml = crate::serialize::serialize_document(&d);
            let text = d.string_value(d.root());
            let top = d.children(d.root())[0];
            let mut copies = d.clone();
            let same = copies.deep_copy(d.root());
            let other = copies.deep_copy_from(&d, top);
            for c in [same, other] {
                assert_eq!(crate::serialize::serialize_node(&copies, c), xml);
                assert_eq!(copies.string_value(c), text);
            }
            let ix = copies.order_index();
            assert!(ix.is_ancestor_of(other, NodeId(copies.len() as u32 - 1)));
            assert_eq!(
                ix.end(same) - ix.begin(same),
                ix.end(other) - ix.begin(other)
            );
        }
    }
}
