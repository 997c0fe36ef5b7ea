//! Evaluation of XQuery Update Facility expressions into pending-update
//! primitives (§3.2 of the paper), plus `transform … modify … return`.

use xqib_dom::{NodeKind, NodeRef, QName};
use xqib_xdm::{Item, Sequence, XdmError, XdmResult};

use crate::ast::{InsertPos, NameExpr, UpdateExpr};
use crate::context::DynamicContext;
use crate::pul::UpdatePrimitive;

use super::constructor::copy_into;
use super::{nodes_of, Eval};

/// Appends the primitives of one update expression to the pending update
/// list: evaluation order, the copy of inserted content and every `XU*`
/// error.
pub(crate) fn eval_update<E>(
    ctx: &mut DynamicContext,
    u: &UpdateExpr<E>,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    match u {
        UpdateExpr::Insert {
            source,
            pos,
            target,
        } => {
            let src_nodes = nodes_of(eval(ctx, source)?)?;
            let targets = eval(ctx, target)?;
            let target = exactly_one_node(&targets, "insert target")?;

            // split source into attributes and content nodes
            let (attr_nodes, content_nodes): (Vec<NodeRef>, Vec<NodeRef>) = {
                let store = ctx.store.borrow();
                src_nodes
                    .into_iter()
                    .partition(|n| store.doc(n.doc).kind(n.node).is_attribute())
            };

            match pos {
                InsertPos::Into | InsertPos::AsFirstInto | InsertPos::AsLastInto => {
                    let target_ok = {
                        let store = ctx.store.borrow();
                        matches!(
                            store.doc(target.doc).kind(target.node),
                            NodeKind::Element { .. } | NodeKind::Document { .. }
                        )
                    };
                    if !target_ok {
                        return Err(XdmError::new(
                            "XUTY0005",
                            "insert into target must be an element or document",
                        ));
                    }
                    let attrs = copy_all(ctx, target.doc, &attr_nodes);
                    let children = copy_all(ctx, target.doc, &content_nodes);
                    if !attrs.is_empty() {
                        ctx.pul
                            .push(UpdatePrimitive::InsertAttributes { target, attrs });
                    }
                    if !children.is_empty() {
                        ctx.pul.push(match pos {
                            InsertPos::AsFirstInto => {
                                UpdatePrimitive::InsertFirst { target, children }
                            }
                            _ => UpdatePrimitive::InsertLast { target, children },
                        });
                    }
                }
                InsertPos::Before | InsertPos::After => {
                    let (has_parent, parent) = {
                        let store = ctx.store.borrow();
                        let p = store.parent(target);
                        (p.is_some(), p)
                    };
                    if !has_parent {
                        return Err(XdmError::new(
                            "XUDY0029",
                            "insert before/after target has no parent",
                        ));
                    }
                    let attrs = copy_all(ctx, target.doc, &attr_nodes);
                    let children = copy_all(ctx, target.doc, &content_nodes);
                    if !attrs.is_empty() {
                        // attributes attach to the target's parent element
                        let parent = parent.expect("checked above");
                        ctx.pul.push(UpdatePrimitive::InsertAttributes {
                            target: parent,
                            attrs,
                        });
                    }
                    if !children.is_empty() {
                        ctx.pul.push(match pos {
                            InsertPos::Before => UpdatePrimitive::InsertBefore {
                                anchor: target,
                                children,
                            },
                            _ => UpdatePrimitive::InsertAfter {
                                anchor: target,
                                children,
                            },
                        });
                    }
                }
            }
            Ok(vec![])
        }
        UpdateExpr::Delete(target) => {
            let targets = nodes_of(eval(ctx, target)?)?;
            for t in targets {
                ctx.pul.push(UpdatePrimitive::Delete { target: t });
            }
            Ok(vec![])
        }
        UpdateExpr::ReplaceNode { target, with } => {
            let targets = eval(ctx, target)?;
            let target = exactly_one_node(&targets, "replace target")?;
            {
                let store = ctx.store.borrow();
                if store.parent(target).is_none() {
                    return Err(XdmError::new(
                        "XUDY0009",
                        "replace target must have a parent",
                    ));
                }
            }
            let target_is_attr = {
                let store = ctx.store.borrow();
                store.doc(target.doc).kind(target.node).is_attribute()
            };
            let replacements = nodes_of(eval(ctx, with)?)?;
            {
                let store = ctx.store.borrow();
                for r in &replacements {
                    let r_is_attr = store.doc(r.doc).kind(r.node).is_attribute();
                    if r_is_attr != target_is_attr {
                        return Err(XdmError::new(
                            "XUTY0011",
                            "replacement node kind must match the target kind",
                        ));
                    }
                }
            }
            let copies = copy_all(ctx, target.doc, &replacements);
            ctx.pul.push(UpdatePrimitive::ReplaceNode {
                target,
                replacements: copies,
            });
            Ok(vec![])
        }
        UpdateExpr::ReplaceValue { target, with } => {
            let targets = eval(ctx, target)?;
            let target = exactly_one_node(&targets, "replace value target")?;
            let value_seq = eval(ctx, with)?;
            let value = super::constructor::sequence_to_string(ctx, &value_seq);
            ctx.pul
                .push(UpdatePrimitive::ReplaceValue { target, value });
            Ok(vec![])
        }
        UpdateExpr::Rename { target, name } => {
            let targets = eval(ctx, target)?;
            let target = exactly_one_node(&targets, "rename target")?;
            {
                let store = ctx.store.borrow();
                let kind = store.doc(target.doc).kind(target.node);
                if !matches!(
                    kind,
                    NodeKind::Element { .. }
                        | NodeKind::Attribute { .. }
                        | NodeKind::ProcessingInstruction { .. }
                ) {
                    return Err(XdmError::new(
                        "XUTY0012",
                        "rename target must be an element, attribute or PI",
                    ));
                }
            }
            let qname = match name {
                NameExpr::Static(q) => q.clone(),
                NameExpr::Dynamic(e) => {
                    let v = eval(ctx, e)?;
                    match v.first() {
                        Some(Item::Atomic(xqib_xdm::Atomic::QName(q))) => q.clone(),
                        Some(i) => {
                            let s = i.string_value(&ctx.store.borrow());
                            QName::local(&s)
                        }
                        None => return Err(XdmError::new("XQDY0074", "empty rename name")),
                    }
                }
            };
            ctx.pul.push(UpdatePrimitive::Rename {
                target,
                name: qname,
            });
            Ok(vec![])
        }
    }
}

/// `copy $x := E modify U return R`: each copy is made in the construction
/// document, never in its source's, so a read-only transform leaves the
/// source document untouched; `modify` runs against a private pending
/// update list applied at once to the copies, then `ret` reads them.
pub(crate) fn eval_transform<E>(
    ctx: &mut DynamicContext,
    bindings: &[(QName, E)],
    modify: &E,
    ret: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    ctx.push_scope();
    let result = (|| {
        for (var, src) in bindings {
            let v = eval(ctx, src)?;
            let node = exactly_one_node(&v, "copy binding")?;
            let copied = {
                let doc = ctx.construction_doc;
                let mut store = ctx.store.borrow_mut();
                NodeRef::new(doc, copy_into(&mut store, doc, node))
            };
            ctx.bind_var(var.clone(), vec![Item::Node(copied)]);
        }
        // run `modify` against a private PUL applied immediately —
        // its effects touch only the copies
        let outer_pul = ctx.pul.take();
        let modify_result = eval(ctx, modify);
        let inner_pul = ctx.pul.take();
        ctx.pul = outer_pul;
        modify_result?;
        {
            let mut store = ctx.store.borrow_mut();
            inner_pul.apply(&mut store)?;
        }
        eval(ctx, ret)
    })();
    ctx.pop_scope();
    result
}

fn exactly_one_node(seq: &Sequence, what: &str) -> XdmResult<NodeRef> {
    match &seq[..] {
        [Item::Node(n)] => Ok(*n),
        [] => Err(XdmError::new("XUDY0027", format!("{what} is empty"))),
        _ => Err(XdmError::new(
            "XUTY0008",
            format!("{what} must be exactly one node"),
        )),
    }
}

fn copy_all(
    ctx: &mut DynamicContext,
    target_doc: xqib_dom::DocId,
    nodes: &[NodeRef],
) -> Vec<NodeRef> {
    let mut store = ctx.store.borrow_mut();
    nodes
        .iter()
        .map(|n| NodeRef::new(target_doc, copy_into(&mut store, target_doc, *n)))
        .collect()
}
