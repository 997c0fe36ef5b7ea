//! Wire encoding of pending update lists — the redo records of the
//! server tier's write-ahead log.
//!
//! A [`crate::pul::Pul`] holds `NodeRef`s: arena indices that depend on
//! allocation history and tombstones, so they are meaningless after a crash.
//! The codec therefore addresses **targets** by `(document URI, stable node
//! path)` — see [`Document::node_path`](xqib_dom::arena::Document::node_path)
//! — and carries **payload** nodes (insertions, replacements) structurally,
//! re-creating them in the recovered arena at decode time. Replaying the
//! same records in the same order against the same starting state therefore
//! reconstructs the same logical documents, which is the prefix-durability
//! contract the crash-restart suite checks.
//!
//! All integers are little-endian; strings are `u32` length + UTF-8 bytes.

use xqib_dom::{DocId, DomError, NodeId, NodeKind, NodeRef, QName, Store, Visit, Walk};
use xqib_xdm::{XdmError, XdmResult};

use crate::pul::{Pul, UpdatePrimitive};

/// Error code for records that cannot be made durable or decoded.
pub const WIRE_ERR: &str = "XQIB0013";

fn err(msg: impl Into<String>) -> XdmError {
    XdmError::new(WIRE_ERR, msg)
}

// ---------------------------------------------------------------------------
// primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> XdmResult<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| err("truncated record"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> XdmResult<u32> {
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| err("truncated record"))?;
        self.pos = end;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn str(&mut self) -> XdmResult<String> {
        let len = self.u32()? as usize;
        let end = self.pos + len;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| err("truncated record"))?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("record is not UTF-8"))
    }

    fn opt_str(&mut self) -> XdmResult<Option<String>> {
        Ok(if self.u8()? == 1 {
            Some(self.str()?)
        } else {
            None
        })
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left — the honest ceiling for any length-prefixed
    /// pre-allocation, so a corrupt count can never trigger an
    /// out-of-memory abort where a typed error is expected.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn put_qname(out: &mut Vec<u8>, name: &QName) {
    put_opt_str(out, name.prefix.as_deref());
    put_opt_str(out, name.ns.as_deref());
    put_str(out, &name.local);
}

fn read_qname(r: &mut Reader) -> XdmResult<QName> {
    let prefix = r.opt_str()?;
    let ns = r.opt_str()?;
    let local = r.str()?;
    Ok(QName::full(prefix.as_deref(), ns.as_deref(), local))
}

// ---------------------------------------------------------------------------
// target addressing
// ---------------------------------------------------------------------------

fn put_target(out: &mut Vec<u8>, store: &Store, n: NodeRef) -> XdmResult<()> {
    let doc = store.doc(n.doc);
    let uri = doc
        .base_uri
        .as_deref()
        .ok_or_else(|| err("update target lives in a document with no URI — not durable"))?;
    let path = doc
        .node_path(n.node)
        .ok_or_else(|| err("update target is detached — not addressable"))?;
    put_str(out, uri);
    put_u32(out, path.len() as u32);
    for step in path {
        put_u32(out, step);
    }
    Ok(())
}

fn read_target(r: &mut Reader, store: &Store) -> XdmResult<NodeRef> {
    let uri = r.str()?;
    let len = r.u32()? as usize;
    // each path step is 4 bytes: a corrupt count cannot out-allocate the
    // buffer that is supposed to carry it
    let mut path = Vec::with_capacity(len.min(r.remaining() / 4));
    for _ in 0..len {
        path.push(r.u32()?);
    }
    let id = store
        .doc_by_uri(&uri)
        .ok_or_else(|| err(format!("no document {uri} in recovered store")))?;
    let node = store
        .doc(id)
        .resolve_path(&path)
        .ok_or_else(|| err(format!("path {path:?} does not resolve in {uri}")))?;
    Ok(NodeRef::new(id, node))
}

// ---------------------------------------------------------------------------
// payload trees
// ---------------------------------------------------------------------------

const K_ELEM: u8 = 0;
const K_TEXT: u8 = 1;
const K_COMMENT: u8 = 2;
const K_PI: u8 = 3;
const K_ATTR: u8 = 4;

/// Writes the payload tree under `n`: a node's record, then (for an
/// element) its attributes' records, then its children's trees.
fn put_tree(out: &mut Vec<u8>, store: &Store, n: NodeRef) -> XdmResult<()> {
    let doc = store.doc(n.doc);
    let mut walk = Walk::new(n.node);
    while let Some(visit) = walk.next(doc) {
        let Visit::Open(id) = visit else {
            continue;
        };
        match doc.kind(id) {
            NodeKind::Element {
                name,
                attrs,
                children,
                ns_decls,
            } => {
                out.push(K_ELEM);
                put_qname(out, name);
                put_u32(out, ns_decls.len() as u32);
                for (p, u) in ns_decls {
                    put_str(out, p);
                    put_str(out, u);
                }
                put_u32(out, attrs.len() as u32);
                for &a in attrs {
                    if let NodeKind::Attribute { name, value } = doc.kind(a) {
                        put_attribute(out, name, value);
                    }
                }
                put_u32(out, children.len() as u32);
            }
            NodeKind::Attribute { name, value } => put_attribute(out, name, value),
            NodeKind::Text { value } => {
                out.push(K_TEXT);
                put_str(out, value);
            }
            NodeKind::Comment { value } => {
                out.push(K_COMMENT);
                put_str(out, value);
            }
            NodeKind::ProcessingInstruction { target, value } => {
                out.push(K_PI);
                put_str(out, target);
                put_str(out, value);
            }
            NodeKind::Document { .. } => {
                return Err(err("document nodes cannot be update payloads"));
            }
        }
    }
    Ok(())
}

fn put_attribute(out: &mut Vec<u8>, name: &QName, value: &str) {
    out.push(K_ATTR);
    put_qname(out, name);
    put_str(out, value);
}

/// Where [`read_tree`] re-creates payload nodes: a document of a store,
/// or nowhere, when only the bytes are skipped.
type Dst<'a> = Option<(&'a mut Store, DocId)>;

fn dom_err(e: DomError) -> XdmError {
    err(e.to_string())
}

/// Decodes one payload tree: re-created in `dst` when there is one (its
/// root returned), only skipped otherwise — by the same grammar, so a
/// skip accepts exactly what a decode does. One loop over an explicit
/// stack of open elements, each with its count of children still to
/// read. A node is attached once complete, while its parent is still
/// detached, so no insertion check walks a chain of ancestors.
fn read_tree(r: &mut Reader, dst: &mut Dst) -> XdmResult<Option<NodeId>> {
    let mut open: Vec<(Option<NodeId>, u32)> = Vec::new();
    loop {
        let kind = r.u8()?;
        let mut done = if kind != K_ELEM {
            if kind == K_ATTR && !open.is_empty() {
                return Err(err("attribute record among a payload element's children"));
            }
            read_leaf(r, kind, dst)?
        } else {
            let name = read_qname(r)?;
            let n_decls = r.u32()? as usize;
            // two length-prefixed strings per decl = at least 8 bytes each
            let mut decls = Vec::with_capacity(n_decls.min(r.remaining() / 8));
            for _ in 0..n_decls {
                let p = r.str()?;
                let u = r.str()?;
                decls.push((p, u));
            }
            let n_attrs = r.u32()?;
            let elem = dst
                .as_mut()
                .map(|(s, d)| s.doc_mut(*d).create_element(name));
            for (p, u) in decls {
                if let (Some((s, d)), Some(e)) = (dst.as_mut(), elem) {
                    s.doc_mut(*d).add_ns_decl(e, p, u).map_err(dom_err)?;
                }
            }
            for _ in 0..n_attrs {
                if r.u8()? != K_ATTR {
                    return Err(err(
                        "non-attribute record among a payload element's attributes",
                    ));
                }
                let a = read_leaf(r, K_ATTR, dst)?;
                if let (Some((s, d)), Some(e), Some(a)) = (dst.as_mut(), elem, a) {
                    s.doc_mut(*d).put_attribute_node(e, a).map_err(dom_err)?;
                }
            }
            let n_children = r.u32()?;
            if n_children > 0 {
                open.push((elem, n_children));
                continue;
            }
            elem
        };
        // attach `done`, and close each element whose last child it was
        loop {
            let Some((parent, left)) = open.last_mut() else {
                return Ok(done);
            };
            if let (Some((s, d)), Some(p), Some(c)) = (dst.as_mut(), *parent, done) {
                s.doc_mut(*d).append_child(p, c).map_err(dom_err)?;
            }
            *left -= 1;
            if *left > 0 {
                break;
            }
            done = open.pop().expect("checked above").0;
        }
    }
}

/// The rest of a leaf record of `kind`, re-created in `dst` if any.
fn read_leaf(r: &mut Reader, kind: u8, dst: &mut Dst) -> XdmResult<Option<NodeId>> {
    let doc = dst.as_mut().map(|(s, d)| s.doc_mut(*d));
    Ok(match kind {
        K_ATTR => {
            let (name, value) = (read_qname(r)?, r.str()?);
            doc.map(|doc| doc.create_attribute(name, value))
        }
        K_TEXT => {
            let value = r.str()?;
            doc.map(|doc| doc.create_text(value))
        }
        K_COMMENT => {
            let value = r.str()?;
            doc.map(|doc| doc.create_comment(value))
        }
        K_PI => {
            let (target, value) = (r.str()?, r.str()?);
            doc.map(|doc| doc.create_pi(target, value))
        }
        other => return Err(err(format!("unknown payload node kind {other}"))),
    })
}

fn put_trees(out: &mut Vec<u8>, store: &Store, nodes: &[NodeRef]) -> XdmResult<()> {
    put_u32(out, nodes.len() as u32);
    for &n in nodes {
        put_tree(out, store, n)?;
    }
    Ok(())
}

/// A counted list of payload trees; see [`read_tree`]. Empty when
/// skipping.
fn read_trees(r: &mut Reader, dst: &mut Dst) -> XdmResult<Vec<NodeRef>> {
    let n = r.u32()? as usize;
    // every encoded tree is at least one kind byte
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        if let Some(node) = read_tree(r, dst)? {
            let (_, d) = dst.as_ref().expect("a node was built");
            out.push(NodeRef::new(*d, node));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

const T_INSERT_INTO: u8 = 1;
const T_INSERT_FIRST: u8 = 2;
const T_INSERT_LAST: u8 = 3;
const T_INSERT_BEFORE: u8 = 4;
const T_INSERT_AFTER: u8 = 5;
const T_INSERT_ATTRS: u8 = 6;
const T_DELETE: u8 = 7;
const T_REPLACE_NODE: u8 = 8;
const T_REPLACE_VALUE: u8 = 9;
const T_REPLACE_CONTENT: u8 = 10;
const T_RENAME: u8 = 11;

/// Encodes a pending update list against the **pre-apply** store (targets
/// must still sit at the paths the records name). Fails with [`WIRE_ERR`]
/// when a target is detached or lives in a URI-less document.
pub fn encode_pul(store: &Store, pul: &Pul) -> XdmResult<Vec<u8>> {
    let mut out = Vec::new();
    let prims = pul.primitives();
    put_u32(&mut out, prims.len() as u32);
    for p in prims {
        match p {
            UpdatePrimitive::InsertInto { target, children } => {
                out.push(T_INSERT_INTO);
                put_target(&mut out, store, *target)?;
                put_trees(&mut out, store, children)?;
            }
            UpdatePrimitive::InsertFirst { target, children } => {
                out.push(T_INSERT_FIRST);
                put_target(&mut out, store, *target)?;
                put_trees(&mut out, store, children)?;
            }
            UpdatePrimitive::InsertLast { target, children } => {
                out.push(T_INSERT_LAST);
                put_target(&mut out, store, *target)?;
                put_trees(&mut out, store, children)?;
            }
            UpdatePrimitive::InsertBefore { anchor, children } => {
                out.push(T_INSERT_BEFORE);
                put_target(&mut out, store, *anchor)?;
                put_trees(&mut out, store, children)?;
            }
            UpdatePrimitive::InsertAfter { anchor, children } => {
                out.push(T_INSERT_AFTER);
                put_target(&mut out, store, *anchor)?;
                put_trees(&mut out, store, children)?;
            }
            UpdatePrimitive::InsertAttributes { target, attrs } => {
                out.push(T_INSERT_ATTRS);
                put_target(&mut out, store, *target)?;
                put_trees(&mut out, store, attrs)?;
            }
            UpdatePrimitive::Delete { target } => {
                out.push(T_DELETE);
                put_target(&mut out, store, *target)?;
            }
            UpdatePrimitive::ReplaceNode {
                target,
                replacements,
            } => {
                out.push(T_REPLACE_NODE);
                put_target(&mut out, store, *target)?;
                put_trees(&mut out, store, replacements)?;
            }
            UpdatePrimitive::ReplaceValue { target, value } => {
                out.push(T_REPLACE_VALUE);
                put_target(&mut out, store, *target)?;
                put_str(&mut out, value);
            }
            UpdatePrimitive::ReplaceElementContent { target, text } => {
                out.push(T_REPLACE_CONTENT);
                put_target(&mut out, store, *target)?;
                put_str(&mut out, text);
            }
            UpdatePrimitive::Rename { target, name } => {
                out.push(T_RENAME);
                put_target(&mut out, store, *target)?;
                put_qname(&mut out, name);
            }
        }
    }
    Ok(out)
}

/// Decodes a redo record against the recovered store, re-creating payload
/// nodes in the target's document. The returned list is ready for
/// [`Pul::apply`](crate::pul::Pul::apply).
pub fn decode_pul(store: &mut Store, bytes: &[u8]) -> XdmResult<Pul> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    let mut pul = Pul::new();
    for _ in 0..count {
        let tag = r.u8()?;
        let prim = match tag {
            T_INSERT_INTO | T_INSERT_FIRST | T_INSERT_LAST | T_INSERT_BEFORE | T_INSERT_AFTER
            | T_INSERT_ATTRS | T_REPLACE_NODE => {
                let target = read_target(&mut r, store)?;
                let nodes = read_trees(&mut r, &mut Some((&mut *store, target.doc)))?;
                match tag {
                    T_INSERT_INTO => UpdatePrimitive::InsertInto {
                        target,
                        children: nodes,
                    },
                    T_INSERT_FIRST => UpdatePrimitive::InsertFirst {
                        target,
                        children: nodes,
                    },
                    T_INSERT_LAST => UpdatePrimitive::InsertLast {
                        target,
                        children: nodes,
                    },
                    T_INSERT_BEFORE => UpdatePrimitive::InsertBefore {
                        anchor: target,
                        children: nodes,
                    },
                    T_INSERT_AFTER => UpdatePrimitive::InsertAfter {
                        anchor: target,
                        children: nodes,
                    },
                    T_INSERT_ATTRS => UpdatePrimitive::InsertAttributes {
                        target,
                        attrs: nodes,
                    },
                    _ => UpdatePrimitive::ReplaceNode {
                        target,
                        replacements: nodes,
                    },
                }
            }
            T_DELETE => UpdatePrimitive::Delete {
                target: read_target(&mut r, store)?,
            },
            T_REPLACE_VALUE => UpdatePrimitive::ReplaceValue {
                target: read_target(&mut r, store)?,
                value: r.str()?,
            },
            T_REPLACE_CONTENT => UpdatePrimitive::ReplaceElementContent {
                target: read_target(&mut r, store)?,
                text: r.str()?,
            },
            T_RENAME => UpdatePrimitive::Rename {
                target: read_target(&mut r, store)?,
                name: read_qname(&mut r)?,
            },
            other => return Err(err(format!("unknown primitive tag {other}"))),
        };
        pul.push(prim);
    }
    if !r.done() {
        return Err(err("trailing bytes after the last primitive"));
    }
    Ok(pul)
}

// ---------------------------------------------------------------------------
// skimming: target URIs without a store
// ---------------------------------------------------------------------------

/// Skips a target, returning only its document URI.
fn skim_target(r: &mut Reader) -> XdmResult<String> {
    let uri = r.str()?;
    let len = r.u32()? as usize;
    for _ in 0..len {
        r.u32()?;
    }
    Ok(uri)
}

/// The distinct document URIs an encoded PUL touches, in first-touch
/// order, without resolving targets against any store. A replication
/// receiver uses this to refuse frames addressing documents its shard does
/// not own — the record cannot even be *decoded* against a store that
/// lacks the document, but the ownership check must fire before any decode
/// attempt and report the offending URI.
pub fn pul_doc_uris(bytes: &[u8]) -> XdmResult<Vec<String>> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    let mut uris: Vec<String> = Vec::new();
    for _ in 0..count {
        let tag = r.u8()?;
        let uri = skim_target(&mut r)?;
        match tag {
            T_INSERT_INTO | T_INSERT_FIRST | T_INSERT_LAST | T_INSERT_BEFORE | T_INSERT_AFTER
            | T_INSERT_ATTRS | T_REPLACE_NODE => {
                read_trees(&mut r, &mut None)?;
            }
            T_DELETE => {}
            T_REPLACE_VALUE | T_REPLACE_CONTENT => {
                r.str()?;
            }
            T_RENAME => {
                read_qname(&mut r)?;
            }
            other => return Err(err(format!("unknown primitive tag {other}"))),
        }
        if !uris.contains(&uri) {
            uris.push(uri);
        }
    }
    if !r.done() {
        return Err(err("trailing bytes after the last primitive"));
    }
    Ok(uris)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqib_dom::serialize::serialize_document;

    fn store_with(xml: &str) -> (Store, DocId) {
        let mut s = Store::new();
        let doc = xqib_dom::parse_document(xml).unwrap();
        let id = s.add_document(doc, Some("db.xml"));
        (s, id)
    }

    #[test]
    fn round_trips_every_primitive_family() {
        let (mut s, d) = store_with("<r a=\"1\"><c>t</c><c2/></r>");
        let doc_root = s.doc(d).root();
        let root = s.doc(d).children(doc_root)[0];
        let c = s.doc(d).children(root)[0];
        let c2 = s.doc(d).children(root)[1];
        let t = s.doc(d).children(c)[0];
        let attr = s.doc(d).attributes(root)[0];

        let mut pul = Pul::new();
        let (new_elem, new_attr, new_text) = {
            let doc = s.doc_mut(d);
            let e = doc.create_element(QName::ns("urn:x", "nx"));
            let grand = doc.create_text("payload");
            doc.append_child(e, grand).unwrap();
            let a = doc.create_attribute(QName::local("k"), "v");
            let tx = doc.create_text("tail");
            (e, a, tx)
        };
        pul.push(UpdatePrimitive::InsertInto {
            target: NodeRef::new(d, root),
            children: vec![NodeRef::new(d, new_elem)],
        });
        pul.push(UpdatePrimitive::InsertAfter {
            anchor: NodeRef::new(d, c2),
            children: vec![NodeRef::new(d, new_text)],
        });
        pul.push(UpdatePrimitive::InsertAttributes {
            target: NodeRef::new(d, c2),
            attrs: vec![NodeRef::new(d, new_attr)],
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: NodeRef::new(d, t),
            value: "newval".into(),
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: NodeRef::new(d, attr),
            value: "2".into(),
        });
        pul.push(UpdatePrimitive::Rename {
            target: NodeRef::new(d, c),
            name: QName::local("renamed"),
        });

        let bytes = encode_pul(&s, &pul).unwrap();

        // decode against a structurally identical, freshly parsed store
        let (mut fresh, _) = store_with("<r a=\"1\"><c>t</c><c2/></r>");
        let decoded = decode_pul(&mut fresh, &bytes).unwrap();
        assert_eq!(decoded.len(), pul.len());

        let mut s1 = s.clone();
        pul.apply(&mut s1).unwrap();
        decoded.apply(&mut fresh).unwrap();
        assert_eq!(
            serialize_document(s1.doc(d)),
            serialize_document(fresh.doc(DocId(0))),
            "replayed apply must serialize identically"
        );
    }

    #[test]
    fn delete_and_replace_node_replay() {
        let (mut s, d) = store_with("<r><a/><b/><c/></r>");
        let doc_root = s.doc(d).root();
        let root = s.doc(d).children(doc_root)[0];
        let a = s.doc(d).children(root)[0];
        let b = s.doc(d).children(root)[1];
        let repl = {
            let doc = s.doc_mut(d);
            let e = doc.create_element(QName::local("swapped"));
            NodeRef::new(d, e)
        };
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Delete {
            target: NodeRef::new(d, a),
        });
        pul.push(UpdatePrimitive::ReplaceNode {
            target: NodeRef::new(d, b),
            replacements: vec![repl],
        });
        let bytes = encode_pul(&s, &pul).unwrap();

        let (mut fresh, _) = store_with("<r><a/><b/><c/></r>");
        decode_pul(&mut fresh, &bytes)
            .unwrap()
            .apply(&mut fresh)
            .unwrap();
        assert_eq!(
            serialize_document(fresh.doc(DocId(0))),
            "<r><swapped/><c/></r>"
        );
    }

    #[test]
    fn unaddressable_targets_refuse_to_encode() {
        let (mut s, d) = store_with("<r/>");
        // a detached node is not addressable
        let loose = s.doc_mut(d).create_element(QName::local("x"));
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Delete {
            target: NodeRef::new(d, loose),
        });
        assert_eq!(encode_pul(&s, &pul).unwrap_err().code, WIRE_ERR);

        // a URI-less document is not durable
        let temp = s.new_document(None);
        let e = {
            let doc = s.doc_mut(temp);
            let e = doc.create_element(QName::local("y"));
            doc.append_child(doc.root(), e).unwrap();
            e
        };
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::Rename {
            target: NodeRef::new(temp, e),
            name: QName::local("z"),
        });
        assert_eq!(encode_pul(&s, &pul).unwrap_err().code, WIRE_ERR);
    }

    #[test]
    fn corrupt_records_error_cleanly() {
        let (mut s, _) = store_with("<r/>");
        assert!(decode_pul(&mut s, &[]).is_err());
        assert!(decode_pul(&mut s, &[1, 0, 0, 0, 99]).is_err());
        // trailing garbage after a valid empty list
        assert!(decode_pul(&mut s, &[0, 0, 0, 0, 7]).is_err());
    }

    #[test]
    fn pul_doc_uris_skims_targets_without_a_store() {
        let (mut s, d) = store_with("<r><c>t</c></r>");
        let doc_root = s.doc(d).root();
        let root = s.doc(d).children(doc_root)[0];
        let c = s.doc(d).children(root)[0];
        let payload = {
            let doc = s.doc_mut(d);
            let e = doc.create_element(QName::ns("urn:x", "nx"));
            let t = doc.create_text("inside");
            doc.append_child(e, t).unwrap();
            e
        };
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: NodeRef::new(d, root),
            children: vec![NodeRef::new(d, payload)],
        });
        pul.push(UpdatePrimitive::Rename {
            target: NodeRef::new(d, c),
            name: QName::local("renamed"),
        });
        let bytes = encode_pul(&s, &pul).unwrap();
        // skim works without any store — the receiver-side ownership check
        assert_eq!(pul_doc_uris(&bytes).unwrap(), vec!["db.xml".to_string()]);
        // corrupt records skim to a clean error, never a panic
        assert!(pul_doc_uris(&bytes[..bytes.len() - 2]).is_err());
        assert!(pul_doc_uris(&[9, 0, 0, 0]).is_err());
    }

    /// The recursive payload codec the loops replaced, verbatim, kept as
    /// the oracle for bytes, arenas, reader positions and errors.
    mod oracle {
        use super::super::*;

        pub fn put_tree(out: &mut Vec<u8>, store: &Store, n: NodeRef) -> XdmResult<()> {
            let doc = store.doc(n.doc);
            match doc.kind(n.node) {
                NodeKind::Element { name, .. } => {
                    out.push(K_ELEM);
                    put_qname(out, name);
                    let decls = doc.ns_decls(n.node);
                    put_u32(out, decls.len() as u32);
                    for (p, u) in decls {
                        put_str(out, p);
                        put_str(out, u);
                    }
                    let attrs = doc.attributes(n.node);
                    put_u32(out, attrs.len() as u32);
                    for &a in attrs {
                        put_tree(out, store, NodeRef::new(n.doc, a))?;
                    }
                    let children = doc.children(n.node);
                    put_u32(out, children.len() as u32);
                    for &c in children {
                        put_tree(out, store, NodeRef::new(n.doc, c))?;
                    }
                }
                NodeKind::Attribute { name, value } => {
                    out.push(K_ATTR);
                    put_qname(out, name);
                    put_str(out, value);
                }
                NodeKind::Text { value } => {
                    out.push(K_TEXT);
                    put_str(out, value);
                }
                NodeKind::Comment { value } => {
                    out.push(K_COMMENT);
                    put_str(out, value);
                }
                NodeKind::ProcessingInstruction { target, value } => {
                    out.push(K_PI);
                    put_str(out, target);
                    put_str(out, value);
                }
                NodeKind::Document { .. } => {
                    return Err(err("document nodes cannot be update payloads"));
                }
            }
            Ok(())
        }

        pub fn read_tree(r: &mut Reader, store: &mut Store, dst: DocId) -> XdmResult<NodeRef> {
            let map_err = |e: xqib_dom::DomError| err(e.to_string());
            let kind = r.u8()?;
            let node = match kind {
                K_ELEM => {
                    let name = read_qname(r)?;
                    let n_decls = r.u32()? as usize;
                    let mut decls = Vec::with_capacity(n_decls.min(r.remaining() / 8));
                    for _ in 0..n_decls {
                        let p = r.str()?;
                        let u = r.str()?;
                        decls.push((p, u));
                    }
                    let n_attrs = r.u32()? as usize;
                    let elem = store.doc_mut(dst).create_element(name);
                    for (p, u) in decls {
                        store
                            .doc_mut(dst)
                            .add_ns_decl(elem, p, u)
                            .map_err(map_err)?;
                    }
                    for _ in 0..n_attrs {
                        let a = read_tree(r, store, dst)?;
                        store
                            .doc_mut(dst)
                            .put_attribute_node(elem, a.node)
                            .map_err(map_err)?;
                    }
                    let n_children = r.u32()? as usize;
                    for _ in 0..n_children {
                        let c = read_tree(r, store, dst)?;
                        store
                            .doc_mut(dst)
                            .append_child(elem, c.node)
                            .map_err(map_err)?;
                    }
                    elem
                }
                K_ATTR => {
                    let name = read_qname(r)?;
                    let value = r.str()?;
                    store.doc_mut(dst).create_attribute(name, value)
                }
                K_TEXT => {
                    let value = r.str()?;
                    store.doc_mut(dst).create_text(value)
                }
                K_COMMENT => {
                    let value = r.str()?;
                    store.doc_mut(dst).create_comment(value)
                }
                K_PI => {
                    let target = r.str()?;
                    let value = r.str()?;
                    store.doc_mut(dst).create_pi(target, value)
                }
                other => return Err(err(format!("unknown payload node kind {other}"))),
            };
            Ok(NodeRef::new(dst, node))
        }

        pub fn skim_tree(r: &mut Reader) -> XdmResult<()> {
            match r.u8()? {
                K_ELEM => {
                    read_qname(r)?;
                    let n_decls = r.u32()? as usize;
                    for _ in 0..n_decls {
                        r.str()?;
                        r.str()?;
                    }
                    let n_attrs = r.u32()? as usize;
                    for _ in 0..n_attrs {
                        skim_tree(r)?;
                    }
                    let n_children = r.u32()? as usize;
                    for _ in 0..n_children {
                        skim_tree(r)?;
                    }
                }
                K_ATTR => {
                    read_qname(r)?;
                    r.str()?;
                }
                K_TEXT | K_COMMENT => {
                    r.str()?;
                }
                K_PI => {
                    r.str()?;
                    r.str()?;
                }
                other => return Err(err(format!("unknown payload node kind {other}"))),
            }
            Ok(())
        }
    }

    mod differential {
        use super::*;
        use xqib_dom::testgen::{
            deep_document, mix_env, on_big_stack, random_document, wide_document,
        };
        use xqib_dom::{Document, NodeId};

        /// Decodes `bytes` with the loop and with the oracle: both accept
        /// or both refuse, and on accept they stop at the same byte and
        /// build the same arena. Skipping accepts what decoding does and
        /// stops where the oracle's skim does.
        fn decode_alike(bytes: &[u8]) {
            let (mut new, mut old) = (Store::new(), Store::new());
            let d = new.new_document(None);
            old.new_document(None);
            let (mut r_new, mut r_old) = (Reader::new(bytes), Reader::new(bytes));
            let built = read_tree(&mut r_new, &mut Some((&mut new, d)));
            let want = oracle::read_tree(&mut r_old, &mut old, d);
            match (&built, &want) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(*a, Some(b.node));
                    assert_eq!(r_new.pos, r_old.pos);
                    let (a, b) = (new.doc(d), old.doc(d));
                    assert_eq!(a.len(), b.len());
                    for i in 0..a.len() {
                        let id = NodeId(i as u32);
                        assert_eq!(format!("{:?}", a.data(id)), format!("{:?}", b.data(id)));
                    }
                }
                (Err(a), Err(_)) => assert_eq!(a.code, WIRE_ERR),
                _ => panic!("loop {built:?}, oracle {want:?} on {bytes:?}"),
            }
            let mut r_skip = Reader::new(bytes);
            let skipped = read_tree(&mut r_skip, &mut None);
            assert_eq!(skipped.is_ok(), built.is_ok(), "skipping {bytes:?}");
            if skipped.is_ok() {
                let mut r_old = Reader::new(bytes);
                oracle::skim_tree(&mut r_old).unwrap();
                assert_eq!(r_skip.pos, r_old.pos);
            }
        }

        /// Every node of `doc` but the document node encodes to the
        /// oracle's bytes and decodes alike. Short encodings are also
        /// decoded cut at every length and with a byte replaced at every
        /// offset, which reaches each malformed-input check.
        fn check(doc: Document) {
            let mut s = Store::new();
            let d = s.add_document(doc, None);
            for i in 1..s.doc(d).len() {
                let n = NodeRef::new(d, NodeId(i as u32));
                let (mut new, mut old) = (Vec::new(), Vec::new());
                put_tree(&mut new, &s, n).unwrap();
                oracle::put_tree(&mut old, &s, n).unwrap();
                assert_eq!(new, old);
                decode_alike(&new);
                if new.len() <= 96 {
                    for cut in 0..new.len() {
                        decode_alike(&new[..cut]);
                        for b in [0, 1, 4, 9, 0xFF] {
                            let mut bad = new.clone();
                            bad[cut] = b;
                            decode_alike(&bad);
                        }
                    }
                }
            }
        }

        proptest::proptest! {
            #[test]
            fn codec_loops_match_the_recursive_oracle(seed in proptest::prelude::any::<u64>()) {
                let seed = mix_env(seed);
                check(random_document(seed));
                check(wide_document(seed, 12));
            }
        }

        #[test]
        fn deep_chains_match_the_recursive_oracle() {
            for k in 0..2 {
                // the recursive oracle needs more than a test thread's stack
                on_big_stack(move || {
                    let mut s = Store::new();
                    let d = s.add_document(deep_document(mix_env(k), 10_000), None);
                    let top = NodeRef::new(d, s.doc(d).children(s.doc(d).root())[0]);
                    let (mut new, mut old) = (Vec::new(), Vec::new());
                    put_tree(&mut new, &s, top).unwrap();
                    oracle::put_tree(&mut old, &s, top).unwrap();
                    assert_eq!(new, old);
                    decode_alike(&new);
                    decode_alike(&new[..new.len() / 2]);
                });
            }
        }
    }

    /// A payload deeper than any recursion survives on a test thread's
    /// stack encodes, skims, decodes and applies.
    #[test]
    fn deep_insert_round_trips() {
        let (mut s, d) = store_with("<r/>");
        let deep = xqib_dom::testgen::deep_document(3, 100_000);
        let payload = s.doc_mut(d).deep_copy_from(&deep, deep.root());
        let root = s.doc(d).children(s.doc(d).root())[0];
        let mut pul = Pul::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: NodeRef::new(d, root),
            children: vec![NodeRef::new(d, payload)],
        });
        let bytes = encode_pul(&s, &pul).unwrap();
        assert_eq!(pul_doc_uris(&bytes).unwrap(), ["db.xml"]);
        let (mut fresh, _) = store_with("<r/>");
        let decoded = decode_pul(&mut fresh, &bytes).unwrap();
        pul.apply(&mut s).unwrap();
        decoded.apply(&mut fresh).unwrap();
        assert_eq!(
            serialize_document(fresh.doc(DocId(0))),
            serialize_document(s.doc(d))
        );
    }
}
