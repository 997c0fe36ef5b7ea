//! The tree-walking evaluator.

pub mod arith;
pub mod constructor;
pub mod flwor;
pub mod fulltext;
pub mod path;
pub mod update;

use xqib_dom::{name::XS_NS, NodeRef, QName};
use xqib_xdm::{
    atomize, effective_boolean_value, general_compare, value_compare, Atomic, Item, Sequence,
    XdmError, XdmResult,
};

use crate::ast::*;
use crate::context::DynamicContext;
use crate::functions;

/// Internal control-flow code for `exit with` (never surfaces to callers).
pub(crate) const EXIT_CODE: &str = "XQIB-EXIT";
/// Maximum user-function recursion depth (secondary guard).
const MAX_CALL_DEPTH: usize = 4096;
/// Maximum engine stack consumption in bytes (primary guard — interpreter
/// frames are large in debug builds, so count bytes, not calls).
const MAX_STACK_BYTES: usize = 1_000_000;

/// Evaluates an expression to a sequence.
pub fn eval_expr(ctx: &mut DynamicContext, e: &Expr) -> XdmResult<Sequence> {
    // one fuel unit per expression step — the preemption granularity
    ctx.charge_fuel(1)?;
    match e {
        Expr::Literal(a) => Ok(vec![Item::Atomic(a.clone())]),
        Expr::VarRef(name) => ctx
            .lookup_var(name)
            .cloned()
            .ok_or_else(|| XdmError::undefined(format!("undefined variable ${name}"))),
        Expr::ContextItem => ctx.context_item().map(|i| vec![i]),
        Expr::Sequence(items) => {
            let mut out = Vec::new();
            for item in items {
                out.extend(eval_expr(ctx, item)?);
            }
            Ok(out)
        }
        Expr::Range(lo, hi) => arith::eval_range(ctx, lo, hi),
        Expr::Arith(op, l, r) => arith::eval_arith(ctx, *op, l, r),
        Expr::Neg(inner) => arith::eval_neg(ctx, inner),
        Expr::ValueComp(op, l, r) => eval_value_comp(ctx, *op, l, r),
        Expr::GeneralComp(op, l, r) => eval_general_comp(ctx, *op, l, r),
        Expr::NodeComp(op, l, r) => eval_node_comp(ctx, *op, l, r),
        Expr::And(l, r) => {
            let lv = effective_boolean_value(&eval_expr(ctx, l)?)?;
            if !lv {
                return Ok(vec![Item::boolean(false)]);
            }
            let rv = effective_boolean_value(&eval_expr(ctx, r)?)?;
            Ok(vec![Item::boolean(rv)])
        }
        Expr::Or(l, r) => {
            let lv = effective_boolean_value(&eval_expr(ctx, l)?)?;
            if lv {
                return Ok(vec![Item::boolean(true)]);
            }
            let rv = effective_boolean_value(&eval_expr(ctx, r)?)?;
            Ok(vec![Item::boolean(rv)])
        }
        Expr::If { cond, then, els } => {
            let c = effective_boolean_value(&eval_expr(ctx, cond)?)?;
            if c {
                eval_expr(ctx, then)
            } else {
                eval_expr(ctx, els)
            }
        }
        Expr::Flwor { clauses, ret } => flwor::eval_flwor(ctx, clauses, ret),
        Expr::Quantified {
            kind,
            bindings,
            satisfies,
        } => flwor::eval_quantified(ctx, *kind, bindings, satisfies),
        Expr::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => eval_typeswitch(ctx, operand, cases, default_var.as_ref(), default),
        Expr::Path { start, steps } => path::eval_path(ctx, *start, steps),
        Expr::Union(l, r) => eval_set_op(ctx, SetOp::Union, l, r),
        Expr::Intersect(l, r) => eval_set_op(ctx, SetOp::Intersect, l, r),
        Expr::Except(l, r) => eval_set_op(ctx, SetOp::Except, l, r),
        Expr::InstanceOf(inner, st) => eval_instance_of(ctx, inner, st),
        Expr::TreatAs(inner, st) => eval_treat_as(ctx, inner, st),
        Expr::CastableAs(inner, ty, optional) => eval_castable(ctx, inner, *ty, *optional),
        Expr::CastAs(inner, ty, optional) => eval_cast(ctx, inner, *ty, *optional),
        Expr::FunctionCall { name, args } => eval_call(ctx, name, args),
        Expr::DirectElement { .. }
        | Expr::ComputedElement { .. }
        | Expr::ComputedAttribute { .. }
        | Expr::ComputedText(_)
        | Expr::ComputedComment(_)
        | Expr::ComputedPi { .. }
        | Expr::ComputedDocument(_) => constructor::eval_constructor(ctx, e),
        Expr::Update(u) => update::eval_update(ctx, u, eval_expr),
        Expr::Transform {
            bindings,
            modify,
            ret,
        } => update::eval_transform(ctx, bindings, modify, ret),
        Expr::Block(stmts) => eval_block(ctx, stmts),
        Expr::FtContains { source, selection } => fulltext::eval_ftcontains(ctx, source, selection),
        Expr::EventAttach {
            event,
            mode,
            target,
            listener,
        } => eval_event_attach(ctx, event, *mode, target, listener),
        Expr::EventDetach {
            event,
            target,
            listener,
        } => eval_event_detach(ctx, event, target, listener),
        Expr::EventTrigger { event, target } => eval_event_trigger(ctx, event, target),
        Expr::SetStyle {
            prop,
            target,
            value,
        } => eval_set_style(ctx, prop, target, value),
        Expr::GetStyle { prop, target } => eval_get_style(ctx, prop, target),
    }
}

// ----- out-of-line arm implementations (keeps eval_expr's frame small) -------

fn eval_value_comp(
    ctx: &mut DynamicContext,
    op: xqib_xdm::CompOp,
    l: &Expr,
    r: &Expr,
) -> XdmResult<Sequence> {
    let ls = eval_expr(ctx, l)?;
    let rs = eval_expr(ctx, r)?;
    value_comp_seqs(ctx, op, &ls, &rs)
}

/// Value comparison over already-evaluated operand sequences (shared with
/// the compiled evaluator so both tiers agree exactly).
pub(crate) fn value_comp_seqs(
    ctx: &DynamicContext,
    op: xqib_xdm::CompOp,
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

fn eval_general_comp(
    ctx: &mut DynamicContext,
    op: xqib_xdm::CompOp,
    l: &Expr,
    r: &Expr,
) -> XdmResult<Sequence> {
    let ls = eval_expr(ctx, l)?;
    let rs = eval_expr(ctx, r)?;
    general_comp_seqs(ctx, op, &ls, &rs)
}

/// General comparison over already-evaluated operand sequences (shared with
/// the compiled evaluator so both tiers agree exactly).
pub(crate) fn general_comp_seqs(
    ctx: &DynamicContext,
    op: xqib_xdm::CompOp,
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

fn eval_node_comp(
    ctx: &mut DynamicContext,
    op: NodeCompOp,
    l: &Expr,
    r: &Expr,
) -> XdmResult<Sequence> {
    let ls = eval_expr(ctx, l)?;
    let rs = eval_expr(ctx, r)?;
    if ls.is_empty() || rs.is_empty() {
        return Ok(vec![]);
    }
    let a = single_node(&ls)?;
    let b = single_node(&rs)?;
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

fn eval_typeswitch(
    ctx: &mut DynamicContext,
    operand: &Expr,
    cases: &[(xqib_xdm::SequenceType, Option<QName>, Expr)],
    default_var: Option<&QName>,
    default: &Expr,
) -> XdmResult<Sequence> {
    let value = eval_expr(ctx, operand)?;
    for (st, var, body) in cases {
        let matches = ctx.with_store(|s| st.matches(s, &value));
        if matches {
            ctx.push_scope();
            if let Some(v) = var {
                ctx.bind_var(v.clone(), value.clone());
            }
            let r = eval_expr(ctx, body);
            ctx.pop_scope();
            return r;
        }
    }
    ctx.push_scope();
    if let Some(v) = default_var {
        ctx.bind_var(v.clone(), value.clone());
    }
    let r = eval_expr(ctx, default);
    ctx.pop_scope();
    r
}

#[derive(Clone, Copy)]
enum SetOp {
    Union,
    Intersect,
    Except,
}

fn eval_set_op(ctx: &mut DynamicContext, op: SetOp, l: &Expr, r: &Expr) -> XdmResult<Sequence> {
    let a = node_sequence(ctx, l)?;
    let b = node_sequence(ctx, r)?;
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

fn eval_instance_of(
    ctx: &mut DynamicContext,
    inner: &Expr,
    st: &xqib_xdm::SequenceType,
) -> XdmResult<Sequence> {
    let v = eval_expr(ctx, inner)?;
    let m = ctx.with_store(|s| st.matches(s, &v));
    Ok(vec![Item::boolean(m)])
}

fn eval_treat_as(
    ctx: &mut DynamicContext,
    inner: &Expr,
    st: &xqib_xdm::SequenceType,
) -> XdmResult<Sequence> {
    let v = eval_expr(ctx, inner)?;
    let m = ctx.with_store(|s| st.matches(s, &v));
    if m {
        Ok(v)
    } else {
        Err(XdmError::new(
            "XPDY0050",
            format!("treat as {st}: value does not match"),
        ))
    }
}

fn eval_castable(
    ctx: &mut DynamicContext,
    inner: &Expr,
    ty: xqib_xdm::TypeName,
    optional: bool,
) -> XdmResult<Sequence> {
    let v = eval_expr(ctx, inner)?;
    let ok = match v.len() {
        0 => optional,
        1 => {
            let a = atomize(&ctx.store.borrow(), &v[0]);
            a.cast_to(ty).is_ok()
        }
        _ => false,
    };
    Ok(vec![Item::boolean(ok)])
}

fn eval_cast(
    ctx: &mut DynamicContext,
    inner: &Expr,
    ty: xqib_xdm::TypeName,
    optional: bool,
) -> XdmResult<Sequence> {
    let v = eval_expr(ctx, inner)?;
    match v.len() {
        0 => {
            if optional {
                Ok(vec![])
            } else {
                Err(XdmError::type_error("cast of empty sequence"))
            }
        }
        1 => {
            let a = atomize(&ctx.store.borrow(), &v[0]);
            a.cast_to(ty).map(|r| vec![Item::Atomic(r)])
        }
        _ => Err(XdmError::type_error("cast of multi-item sequence")),
    }
}

fn eval_call(ctx: &mut DynamicContext, name: &QName, args: &[Expr]) -> XdmResult<Sequence> {
    let mut argv = Vec::with_capacity(args.len());
    for a in args {
        argv.push(eval_expr(ctx, a)?);
    }
    call_function(ctx, name, argv)
}

fn eval_event_attach(
    ctx: &mut DynamicContext,
    event: &Expr,
    mode: EventBindMode,
    target: &Expr,
    listener: &QName,
) -> XdmResult<Sequence> {
    let ev = eval_string(ctx, event)?;
    match mode {
        EventBindMode::At => {
            let targets = eval_expr(ctx, target)?;
            let hooks = require_hooks(ctx)?;
            hooks.attach_listener(ctx, &ev, &targets, listener)?;
        }
        EventBindMode::Behind => {
            let hooks = require_hooks(ctx)?;
            hooks.attach_behind(ctx, &ev, target, listener)?;
        }
    }
    Ok(vec![])
}

fn eval_event_detach(
    ctx: &mut DynamicContext,
    event: &Expr,
    target: &Expr,
    listener: &QName,
) -> XdmResult<Sequence> {
    let ev = eval_string(ctx, event)?;
    let targets = eval_expr(ctx, target)?;
    let hooks = require_hooks(ctx)?;
    hooks.detach_listener(ctx, &ev, &targets, listener)?;
    Ok(vec![])
}

fn eval_event_trigger(
    ctx: &mut DynamicContext,
    event: &Expr,
    target: &Expr,
) -> XdmResult<Sequence> {
    let ev = eval_string(ctx, event)?;
    let targets = eval_expr(ctx, target)?;
    let hooks = require_hooks(ctx)?;
    hooks.trigger_event(ctx, &ev, &targets)?;
    Ok(vec![])
}

fn eval_set_style(
    ctx: &mut DynamicContext,
    prop: &Expr,
    target: &Expr,
    value: &Expr,
) -> XdmResult<Sequence> {
    let p = eval_string(ctx, prop)?;
    let v = eval_string(ctx, value)?;
    let targets = eval_expr(ctx, target)?;
    for t in &targets {
        let Item::Node(n) = t else {
            return Err(XdmError::type_error("set style target must be a node"));
        };
        let handled = match ctx.hooks.clone() {
            Some(h) => h.set_style(ctx, *n, &p, &v)?,
            None => false,
        };
        if !handled {
            set_style_attribute(ctx, *n, &p, &v)?;
        }
    }
    Ok(vec![])
}

fn eval_get_style(ctx: &mut DynamicContext, prop: &Expr, target: &Expr) -> XdmResult<Sequence> {
    let p = eval_string(ctx, prop)?;
    let targets = eval_expr(ctx, target)?;
    let Some(Item::Node(n)) = targets.first() else {
        return Ok(vec![]);
    };
    let answered = match ctx.hooks.clone() {
        Some(h) => h.get_style(ctx, *n, &p)?,
        None => None,
    };
    let value = match answered {
        Some(v) => v,
        None => get_style_attribute(ctx, *n, &p),
    };
    Ok(match value {
        Some(v) => vec![Item::string(v)],
        None => vec![],
    })
}

fn promote_untyped_to_string(a: Atomic) -> Atomic {
    match a {
        Atomic::Untyped(s) => Atomic::String(s),
        other => other,
    }
}

fn require_hooks(ctx: &DynamicContext) -> XdmResult<std::rc::Rc<dyn crate::context::EngineHooks>> {
    ctx.hooks.clone().ok_or_else(|| {
        XdmError::new(
            "XQIB0002",
            "event expressions require a browser host (no hooks installed)",
        )
    })
}

/// Evaluates an expression and returns the string value of its first item.
pub fn eval_string(ctx: &mut DynamicContext, e: &Expr) -> XdmResult<String> {
    let v = eval_expr(ctx, e)?;
    Ok(functions::string_arg(ctx, &v))
}

/// Evaluates an expression expected to produce zero or more nodes.
pub(crate) fn node_sequence(ctx: &mut DynamicContext, e: &Expr) -> XdmResult<Vec<NodeRef>> {
    nodes_of(eval_expr(ctx, e)?)
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

// ----- scripting blocks ---------------------------------------------------

/// Evaluates a block: statements run sequentially, pending updates are
/// applied *between* statements (§3.3 — "the effects of the execution of one
/// expression become visible for the execution of other, sub-sequent
/// expressions"). The value of the block is the value of its last statement.
pub fn eval_block(ctx: &mut DynamicContext, stmts: &[Statement]) -> XdmResult<Sequence> {
    ctx.push_scope();
    let r = eval_statements(ctx, stmts);
    ctx.pop_scope();
    r
}

pub(crate) fn eval_statements(
    ctx: &mut DynamicContext,
    stmts: &[Statement],
) -> XdmResult<Sequence> {
    let mut last: Sequence = vec![];
    for (i, stmt) in stmts.iter().enumerate() {
        let is_last = i + 1 == stmts.len();
        last = eval_statement(ctx, stmt)?;
        // apply pending updates so the next statement sees them; the final
        // statement's updates are left to the caller (top-level applies them
        // after the whole program, matching snapshot semantics for plain
        // queries while scripting blocks re-apply eagerly).
        if !is_last {
            apply_pending(ctx)?;
        }
    }
    Ok(last)
}

fn eval_statement(ctx: &mut DynamicContext, stmt: &Statement) -> XdmResult<Sequence> {
    match stmt {
        Statement::VarDecl { name, ty: _, init } => {
            let v = match init {
                Some(e) => eval_expr(ctx, e)?,
                None => vec![],
            };
            ctx.bind_var(name.clone(), v);
            Ok(vec![])
        }
        Statement::Assign { name, value } => {
            let v = eval_expr(ctx, value)?;
            ctx.assign_var(name, v)?;
            Ok(vec![])
        }
        Statement::While { cond, body } => {
            let mut guard = 0u64;
            loop {
                let c = effective_boolean_value(&eval_expr(ctx, cond)?)?;
                if !c {
                    break;
                }
                ctx.push_scope();
                let r = eval_statements(ctx, body);
                ctx.pop_scope();
                r?;
                apply_pending(ctx)?;
                guard += 1;
                if guard > ctx.loop_guard {
                    return Err(XdmError::new(
                        "XQSE0001",
                        "while loop exceeded the iteration guard",
                    ));
                }
            }
            Ok(vec![])
        }
        Statement::ExitWith(e) => {
            let v = eval_expr(ctx, e)?;
            ctx.exit_value = Some(v);
            Err(XdmError::new(EXIT_CODE, "exit"))
        }
        Statement::Expr(e) => eval_expr(ctx, e),
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
/// [`call_user_function`] sets up: the interpreter walks the AST (and stays
/// the oracle); the executor runs the declaration's lowered plan.
pub(crate) type BodyEval = fn(&mut DynamicContext, &FunctionDecl) -> XdmResult<Sequence>;

pub(crate) fn interpret_body(ctx: &mut DynamicContext, decl: &FunctionDecl) -> XdmResult<Sequence> {
    eval_expr(ctx, &decl.body)
}

/// Calls a function by name with pre-evaluated arguments. Resolution order:
/// `xs:` constructor → user-declared → native (browser library) → built-in.
pub fn call_function(
    ctx: &mut DynamicContext,
    name: &QName,
    args: Vec<Sequence>,
) -> XdmResult<Sequence> {
    call_function_with(ctx, name, args, interpret_body)
}

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
pub fn call_user_function(
    ctx: &mut DynamicContext,
    decl: &FunctionDecl,
    args: Vec<Sequence>,
) -> XdmResult<Sequence> {
    call_user_function_with(ctx, decl, args, interpret_body)
}

fn call_user_function_with(
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
/// handler's effects. `body` picks the tier, as in [`call_function_with`].
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
