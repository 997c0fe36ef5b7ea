//! The semantics both evaluators share. Each routine is generic over the
//! expression form of its parts and takes the evaluator that runs them
//! ([`Eval`]): the plan executor (`exec::eval_plan`) on every shipped path,
//! and the AST walker ([`eval_expr`], behind the dev-only `oracle` feature)
//! that the differential suites compare the executor against. A construct's
//! evaluation order, errors and effects therefore live in one routine.

pub mod arith;
pub mod constructor;
pub mod flwor;
pub mod fulltext;
#[cfg(any(test, feature = "oracle"))]
mod oracle;
pub mod path;
pub mod update;

#[cfg(any(test, feature = "oracle"))]
pub use oracle::eval_expr;
#[cfg(any(test, feature = "oracle"))]
pub(crate) use oracle::{eval_statements, interpret_body};

use std::rc::Rc;

use xqib_dom::{name::XS_NS, NodeRef, QName};
use xqib_xdm::{
    atomize, general_compare, value_compare, Atomic, CompOp, Item, Sequence, SequenceType,
    TypeName, XdmError, XdmResult,
};

use crate::ast::{BrowserExpr, FunctionDecl, NodeCompOp, SetOp};
use crate::context::{DynamicContext, EngineHooks};
use crate::functions;
use crate::plan::ExprPlan;

/// Internal control-flow code for `exit with` (never surfaces to callers).
pub(crate) const EXIT_CODE: &str = "XQIB-EXIT";
/// Maximum user-function recursion depth (secondary guard).
const MAX_CALL_DEPTH: usize = 4096;
/// Maximum engine stack consumption in bytes (primary guard — evaluator
/// frames are large in debug builds, so count bytes, not calls).
const MAX_STACK_BYTES: usize = 1_000_000;

/// How a shared routine evaluates one of its parts: `exec::eval_plan` over
/// lowered plans, or the oracle's `eval_expr` over the AST.
pub(crate) type Eval<E> = fn(&mut DynamicContext, &E) -> XdmResult<Sequence>;

/// Value comparison over already-evaluated operand sequences.
pub(crate) fn value_comp_seqs(
    ctx: &DynamicContext,
    op: CompOp,
    ls: &Sequence,
    rs: &Sequence,
) -> XdmResult<Sequence> {
    if ls.is_empty() || rs.is_empty() {
        return Ok(vec![]);
    }
    if ls.len() > 1 || rs.len() > 1 {
        return Err(XdmError::type_error(
            "value comparison requires singleton operands",
        ));
    }
    let (a, b) = {
        let store = ctx.store.borrow();
        (atomize(&store, &ls[0]), atomize(&store, &rs[0]))
    };
    // untyped operands are compared as strings in value comparisons
    let a = promote_untyped_to_string(a);
    let b = promote_untyped_to_string(b);
    value_compare(op, &a, &b).map(|v| vec![Item::boolean(v)])
}

/// General comparison over already-evaluated operand sequences.
pub(crate) fn general_comp_seqs(
    ctx: &DynamicContext,
    op: CompOp,
    ls: &Sequence,
    rs: &Sequence,
) -> XdmResult<Sequence> {
    let (la, ra) = {
        let store = ctx.store.borrow();
        (
            ls.iter().map(|i| atomize(&store, i)).collect::<Vec<_>>(),
            rs.iter().map(|i| atomize(&store, i)).collect::<Vec<_>>(),
        )
    };
    general_compare(op, &la, &ra).map(|v| vec![Item::boolean(v)])
}

/// `is`, `<<` and `>>` over already-evaluated operand sequences.
pub(crate) fn node_comp_seqs(
    ctx: &DynamicContext,
    op: NodeCompOp,
    ls: &Sequence,
    rs: &Sequence,
) -> XdmResult<Sequence> {
    if ls.is_empty() || rs.is_empty() {
        return Ok(vec![]);
    }
    let a = single_node(ls)?;
    let b = single_node(rs)?;
    let store = ctx.store.borrow();
    let result = match op {
        NodeCompOp::Is => a == b,
        NodeCompOp::Precedes => {
            xqib_dom::order::cmp_doc_order(&store, a, b) == std::cmp::Ordering::Less
        }
        NodeCompOp::Follows => {
            xqib_dom::order::cmp_doc_order(&store, a, b) == std::cmp::Ordering::Greater
        }
    };
    Ok(vec![Item::boolean(result)])
}

/// `typeswitch`: the first case whose type matches the operand's value
/// runs with its variable bound, else the default.
pub(crate) fn typeswitch<E>(
    ctx: &mut DynamicContext,
    operand: &E,
    cases: &[(SequenceType, Option<QName>, E)],
    default_var: Option<&QName>,
    default: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let value = eval(ctx, operand)?;
    let (var, body) = cases
        .iter()
        .find(|(st, _, _)| ctx.with_store(|s| st.matches(s, &value)))
        .map_or((default_var, default), |(_, var, body)| {
            (var.as_ref(), body)
        });
    ctx.push_scope();
    if let Some(v) = var {
        ctx.bind_var(v.clone(), value);
    }
    let r = eval(ctx, body);
    ctx.pop_scope();
    r
}

/// `union`, `intersect` and `except`: node sequences in, a document-ordered
/// duplicate-free node sequence out.
pub(crate) fn set_op<E>(
    ctx: &mut DynamicContext,
    op: SetOp,
    l: &E,
    r: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let a = nodes_of(eval(ctx, l)?)?;
    let b = nodes_of(eval(ctx, r)?)?;
    let mut refs: Vec<NodeRef> = match op {
        SetOp::Union => {
            let mut v = a;
            v.extend(b);
            v
        }
        SetOp::Intersect => a.into_iter().filter(|n| b.contains(n)).collect(),
        SetOp::Except => a.into_iter().filter(|n| !b.contains(n)).collect(),
    };
    let store = ctx.store.borrow();
    xqib_dom::order::sort_dedup(&store, &mut refs);
    Ok(refs.into_iter().map(Item::Node).collect())
}

/// `instance of`.
pub(crate) fn instance_of<E>(
    ctx: &mut DynamicContext,
    inner: &E,
    st: &SequenceType,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let v = eval(ctx, inner)?;
    Ok(vec![Item::boolean(ctx.with_store(|s| st.matches(s, &v)))])
}

/// `treat as`.
pub(crate) fn treat_as<E>(
    ctx: &mut DynamicContext,
    inner: &E,
    st: &SequenceType,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let v = eval(ctx, inner)?;
    if ctx.with_store(|s| st.matches(s, &v)) {
        Ok(v)
    } else {
        Err(XdmError::new(
            "XPDY0050",
            format!("treat as {st}: value does not match"),
        ))
    }
}

/// `castable as`.
pub(crate) fn castable<E>(
    ctx: &mut DynamicContext,
    inner: &E,
    ty: TypeName,
    optional: bool,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let v = eval(ctx, inner)?;
    let ok = match &v[..] {
        [] => optional,
        [item] => atomize(&ctx.store.borrow(), item).cast_to(ty).is_ok(),
        _ => false,
    };
    Ok(vec![Item::boolean(ok)])
}

/// `cast as`.
pub(crate) fn cast<E>(
    ctx: &mut DynamicContext,
    inner: &E,
    ty: TypeName,
    optional: bool,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let v = eval(ctx, inner)?;
    match &v[..] {
        [] if optional => Ok(vec![]),
        [] => Err(XdmError::type_error("cast of empty sequence")),
        [item] => {
            let a = atomize(&ctx.store.borrow(), item);
            a.cast_to(ty).map(|r| vec![Item::Atomic(r)])
        }
        _ => Err(XdmError::type_error("cast of multi-item sequence")),
    }
}

/// The browser grammar extensions, routed to the host's [`EngineHooks`]
/// (styles fall back to the `style` attribute without one). `call_plan`
/// hands a `behind` call to the host as the lowered plan it keeps.
pub(crate) fn eval_browser<E, C>(
    ctx: &mut DynamicContext,
    b: &BrowserExpr<E, C>,
    eval: Eval<E>,
    call_plan: fn(&DynamicContext, &C) -> Rc<ExprPlan>,
) -> XdmResult<Sequence> {
    match b {
        BrowserExpr::Attach {
            event,
            target,
            listener,
        } => {
            let ev = string_of(ctx, &**event, eval)?;
            let targets = eval(ctx, target)?;
            require_hooks(ctx)?.attach_listener(&ev, &targets, listener)?;
        }
        BrowserExpr::Behind {
            event,
            call,
            listener,
        } => {
            let ev = string_of(ctx, &**event, eval)?;
            let hooks = require_hooks(ctx)?;
            hooks.attach_behind(ctx, &ev, call_plan(ctx, call), listener)?;
        }
        BrowserExpr::Detach {
            event,
            target,
            listener,
        } => {
            let ev = string_of(ctx, &**event, eval)?;
            let targets = eval(ctx, target)?;
            require_hooks(ctx)?.detach_listener(&ev, &targets, listener)?;
        }
        BrowserExpr::Trigger { event, target } => {
            let ev = string_of(ctx, &**event, eval)?;
            let targets = eval(ctx, target)?;
            require_hooks(ctx)?.trigger_event(ctx, &ev, &targets)?;
        }
        BrowserExpr::SetStyle {
            prop,
            target,
            value,
        } => {
            let p = string_of(ctx, &**prop, eval)?;
            let v = string_of(ctx, &**value, eval)?;
            let targets = eval(ctx, target)?;
            match ctx.hooks.clone() {
                Some(h) => h.set_style(&targets, &p, &v)?,
                None => {
                    for t in &targets {
                        let Item::Node(n) = t else {
                            return Err(XdmError::type_error("set style target must be a node"));
                        };
                        set_style_attribute(ctx, *n, &p, &v)?;
                    }
                }
            }
        }
        BrowserExpr::GetStyle { prop, target } => {
            let p = string_of(ctx, &**prop, eval)?;
            let targets = eval(ctx, target)?;
            let value = match (ctx.hooks.clone(), targets.first()) {
                (Some(h), _) => h.get_style(&targets, &p)?,
                (None, Some(Item::Node(n))) => get_style_attribute(ctx, *n, &p),
                (None, _) => None,
            };
            return Ok(value.map(Item::string).into_iter().collect());
        }
    }
    Ok(vec![])
}

fn promote_untyped_to_string(a: Atomic) -> Atomic {
    match a {
        Atomic::Untyped(s) => Atomic::String(s),
        other => other,
    }
}

fn require_hooks(ctx: &DynamicContext) -> XdmResult<Rc<dyn EngineHooks>> {
    ctx.hooks.clone().ok_or_else(|| {
        XdmError::new(
            "XQIB0002",
            "event expressions require a browser host (no hooks installed)",
        )
    })
}

/// Evaluates a part and returns the string value of its first item.
fn string_of<E>(ctx: &mut DynamicContext, e: &E, eval: Eval<E>) -> XdmResult<String> {
    let v = eval(ctx, e)?;
    Ok(functions::string_arg(ctx, &v))
}

/// The nodes of a sequence expected to hold nothing else.
pub(crate) fn nodes_of(v: Sequence) -> XdmResult<Vec<NodeRef>> {
    v.into_iter()
        .map(|i| match i {
            Item::Node(n) => Ok(n),
            Item::Atomic(_) => Err(XdmError::type_error(
                "expected nodes, found an atomic value",
            )),
        })
        .collect()
}

fn single_node(seq: &Sequence) -> XdmResult<NodeRef> {
    match &seq[..] {
        [Item::Node(n)] => Ok(*n),
        _ => Err(XdmError::type_error("expected a single node")),
    }
}

/// Applies the accumulated pending update list to the store. When a redo
/// journal is installed (durable server tier), the list is wire-encoded
/// against the pre-apply store first and pushed to the journal only if the
/// apply succeeds — a rolled-back apply must not leave a redo record.
pub fn apply_pending(ctx: &mut DynamicContext) -> XdmResult<()> {
    if ctx.pul.is_empty() {
        return Ok(());
    }
    // Point of no return for deadline-budgeted requests: once the first
    // non-empty pending update list starts committing, the deadline may no
    // longer preempt — shedding mid-transaction would trade a late response
    // for a torn one. The invariant the server tier relies on: a request
    // killed by `XQIB0014` has applied (and journaled) nothing.
    if ctx.fuel_commit_exempt {
        ctx.fuel = None;
    }
    let pul = ctx.pul.take();
    let journal = ctx.pul_journal.clone();
    let mut store = ctx.store.borrow_mut();
    let encoded = match &journal {
        Some(_) => Some(crate::wire::encode_pul(&store, &pul)?),
        None => None,
    };
    pul.apply(&mut store)?;
    if let (Some(journal), Some(bytes)) = (journal, encoded) {
        journal.borrow_mut().push(bytes);
    }
    Ok(())
}

// ----- function calls -------------------------------------------------------

/// How a user-declared function's body runs inside the frame
/// [`call_user_function_with`] sets up: the executor runs the declaration's
/// lowered plan; the oracle walks the AST.
pub(crate) type BodyEval = fn(&mut DynamicContext, &FunctionDecl) -> XdmResult<Sequence>;

/// Calls a function by name with pre-evaluated arguments. Resolution order:
/// `xs:` constructor → user-declared → native (browser library) → built-in.
pub(crate) fn call_function_with(
    ctx: &mut DynamicContext,
    name: &QName,
    args: Vec<Sequence>,
    body: BodyEval,
) -> XdmResult<Sequence> {
    if name.ns.as_deref() == Some(XS_NS) {
        if args.len() == 1 {
            if let Some(r) = functions::xs_constructor(ctx, &name.local, &args) {
                return r;
            }
        }
        return Err(XdmError::unknown_function(&name.lexical(), args.len()));
    }
    if let Some(decl) = ctx.sctx.lookup_function(name, args.len()) {
        return call_user_function_with(ctx, &decl, args, body);
    }
    if let Some(native) = ctx.lookup_native(name, args.len()) {
        return native(ctx, args);
    }
    let arity = args.len();
    if let Some(r) = functions::call_builtin(ctx, name, args) {
        return r;
    }
    Err(XdmError::unknown_function(&name.lexical(), arity))
}

/// Invokes a user-declared function: fresh frame, parameter binding with
/// sequence-type checks, `exit with` handling for sequential functions.
pub(crate) fn call_user_function_with(
    ctx: &mut DynamicContext,
    decl: &FunctionDecl,
    args: Vec<Sequence>,
    body: BodyEval,
) -> XdmResult<Sequence> {
    let used = ctx
        .stack_base
        .saturating_sub(crate::context::approx_stack_ptr());
    if ctx.call_depth >= MAX_CALL_DEPTH || used > MAX_STACK_BYTES {
        return Err(XdmError::new(
            "XQDY0130",
            format!("recursion too deep calling {}", decl.name),
        ));
    }
    ctx.call_depth += 1;
    ctx.push_function_frame();
    let result = (|| {
        for ((pname, pty), value) in decl.params.iter().zip(args) {
            if let Some(ty) = pty {
                let ok = ctx.with_store(|s| ty.matches(s, &value));
                if !ok {
                    return Err(XdmError::type_error(format!(
                        "argument ${pname} of {} does not match {ty}",
                        decl.name
                    )));
                }
            }
            ctx.bind_var(pname.clone(), value);
        }
        body(ctx, decl)
    })();
    ctx.pop_function_frame();
    ctx.call_depth -= 1;
    match result {
        Err(e) if e.code == EXIT_CODE => Ok(ctx.exit_value.take().unwrap_or_default()),
        other => other,
    }
}

/// A host's re-entry into a listener function: the call, `exit with`
/// unwinding, then the pending updates applied so the page reflects the
/// handler's effects. `body` picks the evaluator, as in
/// [`call_function_with`].
pub(crate) fn invoke_with(
    ctx: &mut DynamicContext,
    name: &QName,
    args: Vec<Sequence>,
    body: BodyEval,
) -> XdmResult<Sequence> {
    let r = match call_function_with(ctx, name, args, body) {
        Err(e) if e.code == EXIT_CODE => Ok(ctx.exit_value.take().unwrap_or_default()),
        other => other,
    }?;
    apply_pending(ctx)?;
    Ok(r)
}

// ----- style attribute fallback (§4.5) ---------------------------------------

/// Parses a `style` attribute value into (property, value) pairs.
pub fn parse_style_attr(style: &str) -> Vec<(String, String)> {
    style
        .split(';')
        .filter_map(|decl| {
            let (p, v) = decl.split_once(':')?;
            let p = p.trim();
            let v = v.trim();
            if p.is_empty() {
                None
            } else {
                Some((p.to_string(), v.to_string()))
            }
        })
        .collect()
}

/// Renders (property, value) pairs back into a `style` attribute value.
pub fn render_style_attr(props: &[(String, String)]) -> String {
    props
        .iter()
        .map(|(p, v)| format!("{p}: {v}"))
        .collect::<Vec<_>>()
        .join("; ")
}

fn set_style_attribute(
    ctx: &mut DynamicContext,
    target: NodeRef,
    prop: &str,
    value: &str,
) -> XdmResult<()> {
    let mut store = ctx.store.borrow_mut();
    let doc = store.doc_mut(target.doc);
    if !doc.kind(target.node).is_element() {
        return Err(XdmError::type_error("set style target must be an element"));
    }
    let existing = doc
        .get_attribute(target.node, None, "style")
        .unwrap_or("")
        .to_string();
    let mut props = parse_style_attr(&existing);
    match props.iter_mut().find(|(p, _)| p == prop) {
        Some(slot) => slot.1 = value.to_string(),
        None => props.push((prop.to_string(), value.to_string())),
    }
    doc.set_attribute(
        target.node,
        QName::local("style"),
        render_style_attr(&props),
    )
    .map_err(|e| XdmError::new("XQIB0003", e.to_string()))?;
    Ok(())
}

fn get_style_attribute(ctx: &DynamicContext, target: NodeRef, prop: &str) -> Option<String> {
    let store = ctx.store.borrow();
    let style = store
        .doc(target.doc)
        .get_attribute(target.node, None, "style")?;
    parse_style_attr(style)
        .into_iter()
        .find(|(p, _)| p == prop)
        .map(|(_, v)| v)
}
