//! Node constructors: direct element constructors (the paper builds whole
//! page fragments with them, §6.3) and computed constructors.
//!
//! Constructed nodes live in the dynamic context's construction document and
//! are deep-copied into target documents by the Update Facility on insert.

use xqib_dom::{DocId, NodeId, NodeRef, QName};
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
                add_content(ctx, elem_ref, &seq)?;
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
            add_content(ctx, root, &seq)?;
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
/// nodes, content copying and the `XQDY0025`/`XQTY0024` errors.
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
            ElemContent::Text(t) => {
                let mut store = ctx.store.borrow_mut();
                let doc = store.doc_mut(doc_id);
                let tn = doc.create_text(t.clone());
                doc.append_child(elem, tn)
                    .map_err(|er| XdmError::new("XQTY0024", er.to_string()))?;
            }
            ElemContent::Enclosed(e) | ElemContent::Child(e) => {
                let seq = eval(ctx, e)?;
                add_content(ctx, elem_ref, &seq)?;
            }
        }
    }
    Ok(vec![Item::Node(elem_ref)])
}

/// Content-sequence processing: adjacent atomic values are joined with
/// spaces into text nodes; nodes are deep-copied; attribute nodes attach to
/// the element (and must precede other content).
pub(crate) fn add_content(
    ctx: &mut DynamicContext,
    parent: NodeRef,
    seq: &Sequence,
) -> XdmResult<()> {
    let mut pending_text: Option<String> = None;
    let mut saw_child = false;
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
                let is_attr = {
                    let store = ctx.store.borrow();
                    store.doc(n.doc).kind(n.node).is_attribute()
                };
                if is_attr {
                    if saw_child || pending_text.is_some() {
                        return Err(XdmError::new(
                            "XQTY0024",
                            "attribute nodes must precede other element content",
                        ));
                    }
                    let mut store = ctx.store.borrow_mut();
                    let copied = copy_into(&mut store, parent.doc, *n);
                    store
                        .doc_mut(parent.doc)
                        .put_attribute_node(parent.node, copied)
                        .map_err(|er| XdmError::new("XQDY0025", er.to_string()))?;
                } else {
                    flush_text(ctx, parent, &mut pending_text)?;
                    saw_child = true;
                    let mut store = ctx.store.borrow_mut();
                    let copied = copy_into(&mut store, parent.doc, *n);
                    store
                        .doc_mut(parent.doc)
                        .append_child(parent.node, copied)
                        .map_err(|er| XdmError::new("XQTY0024", er.to_string()))?;
                }
            }
        }
    }
    flush_text(ctx, parent, &mut pending_text)?;
    Ok(())
}

fn flush_text(
    ctx: &mut DynamicContext,
    parent: NodeRef,
    pending: &mut Option<String>,
) -> XdmResult<()> {
    if let Some(t) = pending.take() {
        if !t.is_empty() {
            let mut store = ctx.store.borrow_mut();
            let doc = store.doc_mut(parent.doc);
            let tn = doc.create_text(t);
            doc.append_child(parent.node, tn)
                .map_err(|er| XdmError::new("XQTY0024", er.to_string()))?;
        }
    }
    Ok(())
}

/// Deep-copies a node (possibly from another document) into `target_doc`.
pub(crate) fn copy_into(store: &mut xqib_dom::Store, target_doc: DocId, src: NodeRef) -> NodeId {
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
