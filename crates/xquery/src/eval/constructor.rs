//! Node constructors: direct element constructors (the paper builds whole
//! page fragments with them, §6.3) and computed constructors.
//!
//! Constructed nodes live in the dynamic context's construction document.
//! A constructor's content is either *owned* or *copied*. Owned content —
//! a nested constructor, or enclosed content the plan lowering proved
//! fresh (see `plan::fresh`) — is new, parentless and reachable from
//! nothing else, so its nodes are adopted: attached to the element as
//! they are. Any other node is deep-copied, which gives the copy the new
//! identity XQuery 1.0 §3.7.1.3 asks for. Either way the content goes
//! through `add_content`, so attribute placement, text joining and the
//! `XQTY0024`/`XQDY0025` errors do not depend on which it is. The Update
//! Facility copies inserted nodes into their target documents.

use xqib_dom::{DocId, NodeId, NodeKind, NodeRef, QName, Store};
use xqib_xdm::{atomize, Item, Sequence, XdmError, XdmResult};

use crate::ast::{AttrContent, Computed, ElemContent, NameExpr};
use crate::context::DynamicContext;

use super::Eval;

/// Builds a computed constructor's node: `element`, `attribute`, `text`,
/// `comment` and `processing-instruction` nodes in the construction
/// document, `document` nodes as a new document of their own.
pub(crate) fn build_computed<E>(
    ctx: &mut DynamicContext,
    c: &Computed<E>,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let doc_id = ctx.construction_doc;
    let node = match c {
        Computed::Element { name, content } => {
            let qname = resolve_name(ctx, name, eval)?;
            let elem = ctx.store.borrow_mut().doc_mut(doc_id).create_element(qname);
            let elem_ref = NodeRef::new(doc_id, elem);
            if let Some(c) = content {
                let seq = eval(ctx, c)?;
                add_content(ctx, elem_ref, &seq, false)?;
            }
            elem_ref
        }
        Computed::Attribute { name, content } => {
            let qname = resolve_name(ctx, name, eval)?;
            let value = content_string(ctx, content.as_deref(), eval)?;
            let attr = ctx
                .store
                .borrow_mut()
                .doc_mut(doc_id)
                .create_attribute(qname, value);
            NodeRef::new(doc_id, attr)
        }
        Computed::Text(content) => {
            let seq = eval(ctx, content)?;
            if seq.is_empty() {
                return Ok(vec![]);
            }
            let value = sequence_to_string(ctx, &seq);
            let t = ctx.store.borrow_mut().doc_mut(doc_id).create_text(value);
            NodeRef::new(doc_id, t)
        }
        Computed::Comment(content) => {
            let value = content_string(ctx, Some(&**content), eval)?;
            let c = ctx.store.borrow_mut().doc_mut(doc_id).create_comment(value);
            NodeRef::new(doc_id, c)
        }
        Computed::Pi { target, content } => {
            let qname = resolve_name(ctx, target, eval)?;
            let value = content_string(ctx, content.as_deref(), eval)?;
            let pi = ctx
                .store
                .borrow_mut()
                .doc_mut(doc_id)
                .create_pi(qname.local.to_string(), value);
            NodeRef::new(doc_id, pi)
        }
        Computed::Document(content) => {
            let seq = eval(ctx, content)?;
            let root = {
                let mut store = ctx.store.borrow_mut();
                let doc_id = store.new_document(None);
                store.root(doc_id)
            };
            add_content(ctx, root, &seq, false)?;
            root
        }
    };
    Ok(vec![Item::Node(node)])
}

/// The string value of an optional content part; empty when absent.
fn content_string<E>(
    ctx: &mut DynamicContext,
    content: Option<&E>,
    eval: Eval<E>,
) -> XdmResult<String> {
    match content {
        Some(c) => {
            let seq = eval(ctx, c)?;
            Ok(sequence_to_string(ctx, &seq))
        }
        None => Ok(String::new()),
    }
}

fn resolve_name<E>(
    ctx: &mut DynamicContext,
    name: &NameExpr<E>,
    eval: Eval<E>,
) -> XdmResult<QName> {
    match name {
        NameExpr::Static(q) => Ok(q.clone()),
        NameExpr::Dynamic(e) => {
            let v = eval(ctx, e)?;
            match v.first() {
                Some(Item::Atomic(xqib_xdm::Atomic::QName(q))) => Ok(q.clone()),
                Some(i) => {
                    let s = i.string_value(&ctx.store.borrow());
                    if s.is_empty() || s.contains(':') {
                        // prefixes in dynamic names would need runtime ns
                        // resolution; only unprefixed names are supported
                        Err(XdmError::new(
                            "XQDY0074",
                            format!("cannot resolve dynamic name `{s}`"),
                        ))
                    } else {
                        Ok(QName::local(&s))
                    }
                }
                None => Err(XdmError::new(
                    "XQDY0074",
                    "empty name in computed constructor",
                )),
            }
        }
    }
}

/// Builds a direct element constructor in the construction document and
/// returns it as a one-item sequence: attribute value templates, text
/// nodes, content adopted ([`ElemContent::Child`]) or copied
/// ([`ElemContent::Enclosed`]), and the `XQDY0025`/`XQTY0024` errors.
pub(crate) fn build_element<E>(
    ctx: &mut DynamicContext,
    name: &QName,
    ns_decls: &[(String, String)],
    attrs: &[(QName, Vec<AttrContent<E>>)],
    children: &[ElemContent<E>],
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let doc_id = ctx.construction_doc;
    let elem = {
        let mut store = ctx.store.borrow_mut();
        let doc = store.doc_mut(doc_id);
        let e = doc.create_element(name.clone());
        for (p, u) in ns_decls {
            doc.add_ns_decl(e, p.clone(), u.clone())
                .map_err(|er| XdmError::new("XQDY0025", er.to_string()))?;
        }
        e
    };
    let elem_ref = NodeRef::new(doc_id, elem);
    // attributes: evaluate value templates
    for (aname, parts) in attrs {
        let mut value = String::new();
        for part in parts {
            match part {
                AttrContent::Text(t) => value.push_str(t),
                AttrContent::Enclosed(e) => {
                    let seq = eval(ctx, e)?;
                    value.push_str(&sequence_to_string(ctx, &seq));
                }
            }
        }
        let mut store = ctx.store.borrow_mut();
        store
            .doc_mut(doc_id)
            .set_attribute(elem, aname.clone(), value)
            .map_err(|er| XdmError::new("XQDY0025", er.to_string()))?;
    }
    // children
    for child in children {
        match child {
            ElemContent::Text(t) => append_text(&mut ctx.store.borrow_mut(), elem_ref, t)?,
            ElemContent::Enclosed(e) => {
                let seq = eval(ctx, e)?;
                add_content(ctx, elem_ref, &seq, false)?;
            }
            ElemContent::Child(e) => {
                let seq = eval(ctx, e)?;
                add_content(ctx, elem_ref, &seq, true)?;
            }
        }
    }
    Ok(vec![Item::Node(elem_ref)])
}

/// Content-sequence processing: adjacent atomic values are joined with
/// spaces into text, and adjacent text — atomics', a text node's, the
/// constructor's literal text — merges into one text node; other nodes are
/// adopted when `owned` (each is new, parentless, in `parent`'s document
/// and reachable from nothing else) and deep-copied otherwise; attribute
/// nodes attach to the element (and must precede other content).
pub(crate) fn add_content(
    ctx: &mut DynamicContext,
    parent: NodeRef,
    seq: &Sequence,
    owned: bool,
) -> XdmResult<()> {
    let mut pending_text: Option<String> = None;
    for item in seq {
        match item {
            Item::Atomic(_) => {
                let s = {
                    let store = ctx.store.borrow();
                    atomize(&store, item).string_value()
                };
                match pending_text {
                    Some(ref mut t) => {
                        t.push(' ');
                        t.push_str(&s);
                    }
                    None => pending_text = Some(s),
                }
            }
            Item::Node(n) => {
                let mut store = ctx.store.borrow_mut();
                let kind = store.doc(n.doc).kind(n.node);
                if kind.is_attribute() {
                    // content before it in any part of the constructor —
                    // literal text, an enclosed expression, a nested
                    // constructor — but not zero-length text, which
                    // content processing deletes (XQuery 1.0 §3.7.1.3)
                    let after_content = pending_text.as_deref().is_some_and(|t| !t.is_empty())
                        || !store.doc(parent.doc).children(parent.node).is_empty();
                    if after_content {
                        return Err(XdmError::new(
                            "XQTY0024",
                            "attribute nodes must precede other element content",
                        ));
                    }
                    let attr = place(&mut store, parent, *n, owned);
                    store
                        .doc_mut(parent.doc)
                        .put_attribute_node(parent.node, attr)
                        .map_err(|er| XdmError::new("XQDY0025", er.to_string()))?;
                    continue;
                }
                let text = match kind {
                    NodeKind::Text { value } => Some(value.clone()),
                    _ => None,
                };
                flush_text(&mut store, parent, &mut pending_text)?;
                match text {
                    Some(text) => append_text(&mut store, parent, &text)?,
                    None => {
                        let child = place(&mut store, parent, *n, owned);
                        store
                            .doc_mut(parent.doc)
                            .append_child(parent.node, child)
                            .map_err(|er| XdmError::new("XQTY0024", er.to_string()))?;
                    }
                }
            }
        }
    }
    flush_text(&mut ctx.store.borrow_mut(), parent, &mut pending_text)
}

fn flush_text(store: &mut Store, parent: NodeRef, pending: &mut Option<String>) -> XdmResult<()> {
    match pending.take() {
        Some(text) => append_text(store, parent, &text),
        None => Ok(()),
    }
}

/// Appends character data to `parent`, merged into a text node that ends
/// its content already: a text node's value, an atomic's or literal text.
fn append_text(store: &mut Store, parent: NodeRef, text: &str) -> XdmResult<()> {
    store
        .doc_mut(parent.doc)
        .append_text(parent.node, text)
        .map_err(|er| XdmError::new("XQTY0024", er.to_string()))
}

/// The node to attach under `parent` for content node `n`: `n` itself when
/// it is owned, else a deep copy of it in `parent`'s document.
fn place(store: &mut Store, parent: NodeRef, n: NodeRef, owned: bool) -> NodeId {
    if owned {
        debug_assert!(
            n.doc == parent.doc && store.parent(n).is_none(),
            "owned content is new and parentless in its parent's document"
        );
        return n.node;
    }
    copy_into(store, parent.doc, n)
}

/// Deep-copies a node (possibly from another document) into `target_doc`.
pub(crate) fn copy_into(store: &mut Store, target_doc: DocId, src: NodeRef) -> NodeId {
    store.copy_node_between(src, target_doc)
}

/// String value of a content sequence: items joined with spaces.
pub(crate) fn sequence_to_string(ctx: &DynamicContext, seq: &Sequence) -> String {
    let store = ctx.store.borrow();
    if let [item] = &seq[..] {
        return atomize(&store, item).string_value();
    }
    seq.iter()
        .map(|i| atomize(&store, i).string_value())
        .collect::<Vec<_>>()
        .join(" ")
}
