//! The streaming pull evaluator for [`CompiledPlan`]s.
//!
//! Where the AST oracle materialises every intermediate sequence, this
//! executor evaluates plan paths through *cursors*: each axis step pulls
//! nodes from the step before it one at a time, so `exists(//a)` touches a
//! single node, `//x[1]` stops at the first match per context node, and a
//! long path never holds more than one per-step frontier in memory. Fuel is
//! charged per pulled candidate, so `XQIB0011`/`XQIB0014` preemption
//! semantics are preserved — a streamed query pays proportionally to the
//! nodes it actually touches.
//!
//! This is the only evaluator on a shipped path: the server, the plug-in
//! and minijs's `document.evaluate` all run lowered plans here.
//!
//! # Equivalence contract
//!
//! For every query, `CompiledPlan::execute` produces the same sequence,
//! the same dynamic error codes and the same pending-update effects as the
//! AST oracle (`CompiledQuery::execute`, dev-only `oracle` feature), with
//! one documented exception: under a fuel budget a streamed early exit may
//! *succeed* where the oracle runs out of fuel (never the other way around
//! — the executor charges at least as eagerly). The machinery behind the
//! guarantee:
//!
//! * lazy cursors are only built for paths lowering marked `lazy` (every
//!   predicate stage statically infallible), so a cursor can fail only
//!   before its first item or on fuel — pull order can never reorder which
//!   error surfaces;
//! * steps whose per-node output cannot be concatenated in document order
//!   (`streamed == false`) run as buffered barriers inside the pipeline,
//!   draining their input and sorting exactly like the oracle;
//! * anything outside the streaming subset — multi-item path starts,
//!   fallible predicates — replays the oracle's breadth-first algorithm
//!   over the plan, value for value and charge point for charge point;
//! * every FLWOR runs the oracle's own breadth-first pipeline
//!   (`eval::flwor::eval_flwor`) over its lowered clauses: each clause
//!   maps the whole tuple stream before the next, so a `for` source is
//!   materialised even when it is a lazy path;
//! * a `descendant(-or-self)` step from a document node that opens with an
//!   attribute probe asks the document's attribute-value index instead of
//!   enumerating the tree. The index answers with the candidates the probe
//!   would admit, in document order, so only the charge differs: 1 plus
//!   one unit per owner instead of one per node walked;
//! * any other `descendant(-or-self)::name` step from an element or
//!   document node takes its candidates from the document's element-name
//!   index instead of walking the subtree. The remaining stages run
//!   unchanged, and the charge is exactly the walk's: one unit per
//!   candidate on the eager path; on the lazy path, at each pull, the
//!   nodes the walk would have visited up to that hit, plus the rest of
//!   the walk at exhaustion.

use xqib_dom::name_index::NamedDescendants;
use xqib_dom::{DocId, NodeRef, QName, Store, Visit, Walk};
use xqib_xdm::{effective_boolean_value, Atomic, EbvProbe, Item, Sequence, XdmError, XdmResult};

use crate::ast::{Axis, FunctionDecl, NodeTest};
use crate::context::DynamicContext;
use crate::eval::arith::{atomic_operand, eval_arith, eval_neg, eval_range, range_bounds};
use crate::eval::constructor::{build_computed, build_element};
use crate::eval::flwor::{eval_flwor, quantified};
use crate::eval::fulltext::eval_ftcontains;
use crate::eval::path::{
    axis_is_reverse, axis_nodes, filter_step_output, node_test_matches, order_step_output,
    predicate_truth, take_index, PosTake,
};
use crate::eval::update::{eval_transform, eval_update};
use crate::eval::{self, EXIT_CODE};
use crate::functions;
use crate::plan::{
    CompiledPlan, ExprPlan, PathPlan, PathStartPlan, Plan, PlanAxisStep, PlanPred, PlanStep,
    PlanStmt, PredStage,
};

impl CompiledPlan {
    /// Executes the lowered program: globals, body statements with
    /// scripting visibility between them, `exit with` unwinding, final
    /// update application. The plan's static context (whose declarations carry the lowered function
    /// bodies) is installed for the run.
    pub fn execute(&self, ctx: &mut DynamicContext) -> XdmResult<Sequence> {
        let saved = std::mem::replace(&mut ctx.sctx, self.sctx.clone());
        let r = self.run(ctx);
        ctx.sctx = saved;
        r
    }

    fn run(&self, ctx: &mut DynamicContext) -> XdmResult<Sequence> {
        self.init_globals(ctx)?;
        let result = exec_statements(ctx, &self.body);
        let result = match result {
            Err(e) if e.code == EXIT_CODE => Ok(ctx.exit_value.take().unwrap_or_default()),
            other => other,
        }?;
        eval::apply_pending(ctx)?;
        Ok(result)
    }

    fn init_globals(&self, ctx: &mut DynamicContext) -> XdmResult<()> {
        for g in &self.globals {
            if let Some(init) = &g.init {
                let v = eval_plan(ctx, init)?;
                ctx.bind_global(g.name.clone(), v);
            } else if ctx.lookup_var(&g.name).is_none() {
                return Err(XdmError::undefined(format!(
                    "external variable ${} was not provided",
                    g.name
                )));
            }
        }
        Ok(())
    }
}

impl ExprPlan {
    /// Evaluates the lowered expression in the current context. Pending
    /// updates are left to the caller.
    pub fn eval(&self, ctx: &mut DynamicContext) -> XdmResult<Sequence> {
        eval_plan(ctx, &self.plan)
    }
}

/// Invokes a listener function by name — the plug-in's re-entry point when
/// the browser dispatches an event (Figure 1's loop). User-declared bodies
/// run their lowered plans inside the call frame (type checks, recursion
/// guard, `exit with`); the listener's pending updates are applied before
/// returning, so the page reflects the handler's effects.
pub fn invoke(ctx: &mut DynamicContext, name: &QName, args: Vec<Sequence>) -> XdmResult<Sequence> {
    eval::invoke_with(ctx, name, args, run_body)
}

/// Calls a user-declared function with pre-evaluated arguments, leaving
/// its pending updates to the caller.
pub fn call_user_function(
    ctx: &mut DynamicContext,
    decl: &FunctionDecl,
    args: Vec<Sequence>,
) -> XdmResult<Sequence> {
    eval::call_user_function_with(ctx, decl, args, run_body)
}

/// The executor's [`eval::BodyEval`]: the body [`crate::plan::lower_functions`]
/// stored with the declaration, or — for a declaration whose context was
/// never lowered — the body lowered against the caller's context.
fn run_body(ctx: &mut DynamicContext, decl: &FunctionDecl) -> XdmResult<Sequence> {
    match &decl.plan {
        Some(p) => p.eval(ctx),
        None => ExprPlan::lower(&ctx.sctx.clone(), &decl.body).eval(ctx),
    }
}

fn exec_statements(ctx: &mut DynamicContext, stmts: &[PlanStmt]) -> XdmResult<Sequence> {
    let mut last: Sequence = vec![];
    for (i, stmt) in stmts.iter().enumerate() {
        let is_last = i + 1 == stmts.len();
        last = exec_statement(ctx, stmt)?;
        if !is_last {
            eval::apply_pending(ctx)?;
        }
    }
    Ok(last)
}

fn exec_statement(ctx: &mut DynamicContext, stmt: &PlanStmt) -> XdmResult<Sequence> {
    match stmt {
        PlanStmt::VarDecl { name, init } => {
            let v = match init {
                Some(p) => eval_plan(ctx, p)?,
                None => vec![],
            };
            ctx.bind_var(name.clone(), v);
            Ok(vec![])
        }
        PlanStmt::Assign { name, value } => {
            let v = eval_plan(ctx, value)?;
            ctx.assign_var(name, v)?;
            Ok(vec![])
        }
        PlanStmt::While { cond, body } => {
            let mut guard = 0u64;
            loop {
                let c = effective_boolean_value(&eval_plan(ctx, cond)?)?;
                if !c {
                    break;
                }
                ctx.push_scope();
                let r = exec_statements(ctx, body);
                ctx.pop_scope();
                r?;
                eval::apply_pending(ctx)?;
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
        PlanStmt::ExitWith(p) => {
            let v = eval_plan(ctx, p)?;
            ctx.exit_value = Some(v);
            Err(XdmError::new(EXIT_CODE, "exit"))
        }
        PlanStmt::Expr(p) => eval_plan(ctx, p),
    }
}

// ---------------------------------------------------------------------------
// expression evaluation
// ---------------------------------------------------------------------------

pub(crate) fn eval_plan(ctx: &mut DynamicContext, p: &Plan) -> XdmResult<Sequence> {
    ctx.charge_fuel(1)?;
    match p {
        Plan::Const(seq) => Ok(seq.clone()),
        Plan::Var(name) => ctx
            .lookup_var(name)
            .cloned()
            .ok_or_else(|| XdmError::undefined(format!("undefined variable ${name}"))),
        Plan::ContextItem => ctx.context_item().map(|i| vec![i]),
        Plan::Seq(ps) => {
            let mut out = Vec::new();
            for part in ps {
                out.extend(eval_plan(ctx, part)?);
            }
            Ok(out)
        }
        Plan::Range(lo, hi) => eval_range(ctx, &**lo, &**hi, eval_plan),
        Plan::Arith(op, l, r) => eval_arith(ctx, *op, &**l, &**r, eval_plan),
        Plan::Neg(inner) => eval_neg(ctx, &**inner, eval_plan),
        Plan::ValueComp(op, l, r) => {
            let (ls, rs) = operands(ctx, l, r)?;
            eval::value_comp_seqs(ctx, *op, &ls, &rs)
        }
        Plan::GeneralComp(op, l, r) => {
            let (ls, rs) = operands(ctx, l, r)?;
            eval::general_comp_seqs(ctx, *op, &ls, &rs)
        }
        Plan::NodeComp(op, l, r) => {
            let (ls, rs) = operands(ctx, l, r)?;
            eval::node_comp_seqs(ctx, *op, &ls, &rs)
        }
        Plan::And(l, r) => {
            let lv = effective_boolean_value(&eval_plan(ctx, l)?)?;
            if !lv {
                return Ok(vec![Item::boolean(false)]);
            }
            let rv = effective_boolean_value(&eval_plan(ctx, r)?)?;
            Ok(vec![Item::boolean(rv)])
        }
        Plan::Or(l, r) => {
            let lv = effective_boolean_value(&eval_plan(ctx, l)?)?;
            if lv {
                return Ok(vec![Item::boolean(true)]);
            }
            let rv = effective_boolean_value(&eval_plan(ctx, r)?)?;
            Ok(vec![Item::boolean(rv)])
        }
        Plan::If { cond, then, els } => {
            if effective_boolean_value(&eval_plan(ctx, cond)?)? {
                eval_plan(ctx, then)
            } else {
                eval_plan(ctx, els)
            }
        }
        Plan::Flwor { clauses, ret } => eval_flwor(ctx, clauses, ret, eval_plan),
        Plan::Path(pp) => eval_path_plan(ctx, pp),
        Plan::Exists { src, negate } => {
            let mut cur = open_cursor(ctx, src)?;
            let found = cur.next(ctx)?.is_some();
            Ok(vec![Item::boolean(found != *negate)])
        }
        Plan::Count(src) => {
            let mut cur = open_cursor(ctx, src)?;
            let mut n: i64 = 0;
            while cur.next(ctx)?.is_some() {
                n += 1;
            }
            Ok(vec![Item::integer(n)])
        }
        Plan::Not(src) => {
            let mut cur = open_cursor(ctx, src)?;
            let mut probe = EbvProbe::new();
            loop {
                match cur.next(ctx)? {
                    Some(item) => {
                        if let Some(b) = probe.push(item)? {
                            return Ok(vec![Item::boolean(!b)]);
                        }
                    }
                    None => return Ok(vec![Item::boolean(!probe.finish()?)]),
                }
            }
        }
        Plan::Call {
            name,
            args,
            builtin,
        } => {
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_plan(ctx, a)?);
            }
            if *builtin {
                let arity = argv.len();
                return functions::call_builtin(ctx, name, argv)
                    .unwrap_or_else(|| Err(XdmError::unknown_function(&name.lexical(), arity)));
            }
            eval::call_function_with(ctx, name, argv, run_body)
        }
        Plan::Element {
            name,
            ns_decls,
            attrs,
            children,
        } => build_element(ctx, name, ns_decls, attrs, children, eval_plan),
        Plan::Block(stmts) => {
            ctx.push_scope();
            let r = exec_statements(ctx, stmts);
            ctx.pop_scope();
            r
        }
        Plan::Update(u) => eval_update(ctx, u, eval_plan),
        Plan::SetOp(op, l, r) => eval::set_op(ctx, *op, &**l, &**r, eval_plan),
        Plan::Quantified {
            kind,
            bindings,
            satisfies,
        } => quantified(ctx, *kind, bindings, &**satisfies, eval_plan),
        Plan::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => eval::typeswitch(
            ctx,
            &**operand,
            cases,
            default_var.as_ref(),
            &**default,
            eval_plan,
        ),
        Plan::InstanceOf(inner, st) => eval::instance_of(ctx, &**inner, st, eval_plan),
        Plan::TreatAs(inner, st) => eval::treat_as(ctx, &**inner, st, eval_plan),
        Plan::CastableAs(inner, ty, opt) => eval::castable(ctx, &**inner, *ty, *opt, eval_plan),
        Plan::CastAs(inner, ty, opt) => eval::cast(ctx, &**inner, *ty, *opt, eval_plan),
        Plan::Computed(c) => build_computed(ctx, c, eval_plan),
        Plan::Transform {
            bindings,
            modify,
            ret,
        } => eval_transform(ctx, bindings, &**modify, &**ret, eval_plan),
        Plan::FtContains { source, selection } => {
            eval_ftcontains(ctx, &**source, selection, eval_plan)
        }
        Plan::Browser(b) => eval::eval_browser(ctx, b, eval_plan, |_, call| call.clone()),
    }
}

fn operands(ctx: &mut DynamicContext, l: &Plan, r: &Plan) -> XdmResult<(Sequence, Sequence)> {
    let ls = eval_plan(ctx, l)?;
    let rs = eval_plan(ctx, r)?;
    Ok((ls, rs))
}

// ---------------------------------------------------------------------------
// cursors
// ---------------------------------------------------------------------------

/// A pull source over a plan's result. Only lazy paths and ranges stream;
/// everything else materialises once and iterates.
enum Cursor<'p> {
    Seq(std::vec::IntoIter<Item>),
    Range(std::ops::RangeInclusive<i64>),
    Path(Box<PathCursor<'p>>),
}

fn open_cursor<'p>(ctx: &mut DynamicContext, p: &'p Plan) -> XdmResult<Cursor<'p>> {
    match p {
        Plan::Range(lo, hi) => {
            ctx.charge_fuel(1)?;
            let l = atomic_operand(ctx, &**lo, eval_plan)?;
            let h = atomic_operand(ctx, &**hi, eval_plan)?;
            Ok(match range_bounds(l, h)? {
                Some((l, h)) => Cursor::Range(l..=h),
                None => Cursor::Seq(Vec::new().into_iter()),
            })
        }
        Plan::Path(pp) if pp.lazy => {
            ctx.charge_fuel(1)?;
            match open_path(ctx, pp)? {
                Opened::Stream(cur) => Ok(Cursor::Path(Box::new(cur))),
                Opened::Eager(seq) => Ok(Cursor::Seq(seq.into_iter())),
            }
        }
        other => Ok(Cursor::Seq(eval_plan(ctx, other)?.into_iter())),
    }
}

impl Cursor<'_> {
    fn next(&mut self, ctx: &mut DynamicContext) -> XdmResult<Option<Item>> {
        match self {
            Cursor::Seq(it) => Ok(it.next()),
            Cursor::Range(r) => match r.next() {
                Some(i) => {
                    ctx.charge_fuel(1)?;
                    Ok(Some(Item::integer(i)))
                }
                None => Ok(None),
            },
            Cursor::Path(pc) => pc.next(ctx),
        }
    }
}

// ---------------------------------------------------------------------------
// path evaluation
// ---------------------------------------------------------------------------

enum Opened<'p> {
    Stream(PathCursor<'p>),
    Eager(Sequence),
}

fn eval_path_plan(ctx: &mut DynamicContext, pp: &PathPlan) -> XdmResult<Sequence> {
    match open_path(ctx, pp)? {
        Opened::Eager(seq) => Ok(seq),
        Opened::Stream(mut cur) => {
            let mut out = Vec::new();
            while let Some(item) = cur.next(ctx)? {
                out.push(item);
            }
            Ok(out)
        }
    }
}

/// Resolves the path start exactly like the oracle and decides between
/// a streaming cursor and an eager replay. Streaming requires the `lazy`
/// flag plus a single-node start: the static invariants were computed under
/// that assumption, so anything else replays breadth-first.
fn open_path<'p>(ctx: &mut DynamicContext, pp: &'p PathPlan) -> XdmResult<Opened<'p>> {
    let (mut start, mut normalized, mut steps) = resolve_start(ctx, pp)?;
    if !pp.lazy {
        return exec_steps_eager(ctx, start, normalized, steps).map(Opened::Eager);
    }
    // a leading filter step (focus-present case) runs as one eager step
    if let Some((PlanStep::Filter { primary, preds }, rest)) = steps.split_first() {
        ctx.charge_fuel(1 + start.len() as u64)?;
        let (seq, norm) = apply_filter_step(ctx, &start, primary, preds)?;
        start = seq;
        normalized = norm;
        steps = rest;
    }
    if steps.is_empty() || start.len() != 1 || !matches!(start[0], Item::Node(_)) {
        // non-node starts raise XPTY0019 with the oracle's charge order
        return exec_steps_eager(ctx, start, normalized, steps).map(Opened::Eager);
    }
    let Item::Node(n) = start[0] else {
        unreachable!("checked above")
    };
    Ok(Opened::Stream(PathCursor::new(n, steps)))
}

fn resolve_start<'p>(
    ctx: &mut DynamicContext,
    pp: &'p PathPlan,
) -> XdmResult<(Sequence, bool, &'p [PlanStep])> {
    match pp.start {
        PathStartPlan::Root => {
            let item = ctx.context_item()?;
            let Item::Node(n) = item else {
                return Err(XdmError::new(
                    "XPTY0020",
                    "`/` requires the context item to be a node",
                ));
            };
            let root = {
                let store = ctx.store.borrow();
                store.doc(n.doc).tree_root(n.node)
            };
            Ok((vec![Item::Node(NodeRef::new(n.doc, root))], true, &pp.steps))
        }
        PathStartPlan::Relative => {
            if let Some(f) = &ctx.focus {
                return Ok((vec![f.item.clone()], true, &pp.steps));
            }
            match pp.steps.split_first() {
                Some((PlanStep::Filter { primary, preds }, rest)) => {
                    let r = eval_plan(ctx, primary)?;
                    let filtered = apply_plan_preds(ctx, r, preds, Item::clone)?;
                    let normalized = filtered.len() <= 1;
                    Ok((filtered, normalized, rest))
                }
                _ => Err(XdmError::undefined("relative path with no context item")),
            }
        }
    }
}

// ----- eager replay (the oracle's algorithm over the plan) -------------------

fn exec_steps_eager(
    ctx: &mut DynamicContext,
    mut current: Sequence,
    mut normalized: bool,
    steps: &[PlanStep],
) -> XdmResult<Sequence> {
    for step in steps {
        ctx.charge_fuel(1 + current.len() as u64)?;
        match step {
            PlanStep::Axis(ax) => {
                current = eager_axis_step(ctx, &current, ax, normalized)?;
                normalized = true;
            }
            PlanStep::Filter { primary, preds } => {
                let (seq, norm) = apply_filter_step(ctx, &current, primary, preds)?;
                current = seq;
                normalized = norm;
            }
        }
    }
    Ok(current)
}

fn eager_axis_step(
    ctx: &mut DynamicContext,
    input: &Sequence,
    step: &PlanAxisStep,
    input_normalized: bool,
) -> XdmResult<Sequence> {
    let pruned = if input_normalized && input.len() > 1 {
        outermost_inputs(ctx, input, step)
    } else {
        None
    };
    let input = pruned.as_ref().unwrap_or(input);
    let mut out_refs: Vec<NodeRef> = Vec::new();
    for item in input {
        let Item::Node(n) = item else {
            return Err(XdmError::new(
                "XPTY0019",
                "axis step applied to an atomic value",
            ));
        };
        out_refs.extend(node_survivors(ctx, *n, step, false)?);
    }
    Ok(order_step_output(
        ctx,
        input,
        step.axis,
        input_normalized,
        out_refs,
    ))
}

/// Position-free stages judge each candidate on its own, so a descendant
/// step from a node nested in an earlier input adds nothing: only the
/// outermost inputs need to run, and their outputs need no sort (`//s//p`
/// over nested sections). Candidates are still judged in the
/// oracle's order up to the first error, and never more often.
/// `None` when the step or the (document-ordered) input does not qualify.
fn outermost_inputs(
    ctx: &DynamicContext,
    input: &Sequence,
    step: &PlanAxisStep,
) -> Option<Sequence> {
    let qualifies = matches!(step.axis, Axis::Descendant | Axis::DescendantOrSelf)
        && step.stages.iter().all(|s| {
            matches!(
                s,
                PredStage::AttrEq { .. } | PredStage::AttrEqVar { .. } | PredStage::Filter(_)
            )
        });
    if !qualifies {
        return None;
    }
    let nodes: Vec<NodeRef> = input.iter().map(Item::as_node).collect::<Option<_>>()?;
    let store = ctx.store.borrow();
    Some(
        xqib_dom::order::outermost(&store, &nodes)
            .into_iter()
            .map(Item::Node)
            .collect(),
    )
}

/// The oracle's filter-step arm: per-item focus, predicates,
/// homogeneity check, node normalisation.
fn apply_filter_step(
    ctx: &mut DynamicContext,
    input: &Sequence,
    primary: &Plan,
    preds: &[PlanPred],
) -> XdmResult<(Sequence, bool)> {
    let mut combined: Sequence = Vec::new();
    let size = input.len();
    for (i, item) in input.iter().enumerate() {
        let result = ctx.with_focus(item.clone(), i + 1, size, |ctx| eval_plan(ctx, primary))?;
        combined.extend(apply_plan_preds(ctx, result, preds, Item::clone)?);
    }
    filter_step_output(ctx, combined)
}

/// Lowered-predicate application (the oracle's `apply_predicates`), to
/// items or to one axis step's candidate nodes: `item` gives each
/// candidate's focus item.
fn apply_plan_preds<T: Clone>(
    ctx: &mut DynamicContext,
    seq: Vec<T>,
    preds: &[PlanPred],
    item: fn(&T) -> Item,
) -> XdmResult<Vec<T>> {
    let mut current = seq;
    for pred in preds {
        if let Some(take) = &pred.take {
            ctx.charge_fuel(1)?;
            current = match take_index(take, current.len()) {
                Some(i) => vec![current[i].clone()],
                None => vec![],
            };
            continue;
        }
        let size = current.len();
        let mut next = Vec::with_capacity(size);
        for (i, c) in current.iter().enumerate() {
            let keep = ctx.with_focus(item(c), i + 1, size, |ctx| {
                predicate_truth(ctx, &pred.plan, i + 1, eval_plan)
            })?;
            if keep {
                next.push(c.clone());
            }
        }
        current = next;
    }
    Ok(current)
}

// ----- per-node stage machinery --------------------------------------------

/// Candidates of one axis step from one context node, with all predicate
/// stages applied (positions count along the axis direction). When
/// `reverse` is set, reverse-axis output is flipped to document order —
/// the oracle's single-input elision.
fn node_survivors(
    ctx: &mut DynamicContext,
    n: NodeRef,
    step: &PlanAxisStep,
    reverse: bool,
) -> XdmResult<Vec<NodeRef>> {
    if let Some((hits, rest)) = indexed_candidates(ctx, n, step)? {
        return apply_stages(ctx, hits, rest);
    }
    let candidates: Vec<NodeRef> = match named_candidates(ctx, n, step) {
        Some(named) => named.map(|(v, _)| NodeRef::new(n.doc, v)).collect(),
        None => {
            let store = ctx.store.borrow();
            axis_nodes(&store, n, step.axis)
                .into_iter()
                .filter(|&c| node_test_matches(&store, c, step.axis, &step.test))
                .collect()
        }
    };
    ctx.charge_fuel(candidates.len() as u64)?;
    let mut survivors = apply_stages(ctx, candidates, &step.stages)?;
    if reverse && axis_is_reverse(step.axis) && survivors.len() > 1 {
        survivors.reverse();
    }
    Ok(survivors)
}

/// A `descendant(-or-self)` step from a document node whose first stage
/// is an attribute probe with one string value, answered by the
/// document's attribute-value index: the owners that pass the node test,
/// charged 1 + one unit per owner, and the stages still to run. `None`
/// when the step does not qualify or the index is not built for the
/// document's current version — the caller scans, which is also how the
/// index gets built (see `xqib_dom::attr_index`). Every call is one probe,
/// so each step application must ask at most once.
fn indexed_candidates<'s>(
    ctx: &mut DynamicContext,
    n: NodeRef,
    step: &'s PlanAxisStep,
) -> XdmResult<Option<(Vec<NodeRef>, &'s [PredStage])>> {
    if !matches!(step.axis, Axis::Descendant | Axis::DescendantOrSelf) {
        return Ok(None);
    }
    let values;
    let (name, value, rest): (_, &str, _) = match step.stages.split_first() {
        Some((PredStage::AttrEq { name, value }, rest)) => (name, value, rest),
        Some((PredStage::AttrEqVar { name, var, .. }, rest)) => {
            values = probe_values(ctx, var);
            match values.as_deref() {
                Some([value]) => (name, value, rest),
                _ => return Ok(None),
            }
        }
        _ => return Ok(None),
    };
    let (owners, hits) = {
        let store = ctx.store.borrow();
        let doc = store.doc(n.doc);
        if !doc.kind(n.node).is_document() {
            return Ok(None);
        }
        let Some(owners) = doc.attr_owners(name, value) else {
            return Ok(None);
        };
        let hits: Vec<NodeRef> = owners
            .iter()
            .map(|&o| NodeRef::new(n.doc, o))
            .filter(|&c| node_test_matches(&store, c, step.axis, &step.test))
            .collect();
        (owners.len() as u64, hits)
    };
    ctx.charge_fuel(1 + owners)?;
    Ok(Some((hits, rest)))
}

/// A `descendant(-or-self)::name` step from an element or document node,
/// answered by the document's element-name index: the named elements of
/// the subtree in document order, with what the walk would have visited.
/// `None` when the step does not qualify or the index has no list for the
/// name at the document's version — the caller walks, which is also how
/// the index gets built (see `xqib_dom::name_index`). Every call is one
/// probe, so each step application must ask at most once.
fn named_candidates(
    ctx: &DynamicContext,
    n: NodeRef,
    step: &PlanAxisStep,
) -> Option<NamedDescendants> {
    let or_self = match step.axis {
        Axis::Descendant => false,
        Axis::DescendantOrSelf => true,
        _ => return None,
    };
    let NodeTest::Name(name) = &step.test else {
        return None;
    };
    let store = ctx.store.borrow();
    let doc = store.doc(n.doc);
    let kind = doc.kind(n.node);
    if !kind.is_element() && !kind.is_document() {
        return None;
    }
    doc.named_descendants(n.node, name, or_self)
}

fn apply_stages(
    ctx: &mut DynamicContext,
    nodes: Vec<NodeRef>,
    stages: &[PredStage],
) -> XdmResult<Vec<NodeRef>> {
    let mut current = nodes;
    for stage in stages {
        match stage {
            PredStage::Take(t) => {
                ctx.charge_fuel(1)?;
                current = match take_index(t, current.len()) {
                    Some(i) => vec![current[i]],
                    None => vec![],
                };
            }
            PredStage::AttrEq { name, value } => {
                ctx.charge_fuel(current.len() as u64)?;
                let store = ctx.store.borrow();
                current.retain(|&c| attr_eq(&store, c, name, value));
            }
            PredStage::AttrEqVar { name, var, pred } => match probe_values(ctx, var) {
                Some(values) => {
                    ctx.charge_fuel(current.len() as u64)?;
                    let store = ctx.store.borrow();
                    current.retain(|&c| values.iter().any(|v| attr_eq(&store, c, name, v)));
                }
                None => current = filter_stage(ctx, current, pred)?,
            },
            PredStage::Filter(p) => current = filter_stage(ctx, current, p)?,
            PredStage::General(preds) => {
                current = apply_plan_preds(ctx, current, preds, |&n| Item::Node(n))?;
            }
        }
    }
    Ok(current)
}

/// A position-free predicate tested one candidate at a time.
fn filter_stage(
    ctx: &mut DynamicContext,
    nodes: Vec<NodeRef>,
    p: &PlanPred,
) -> XdmResult<Vec<NodeRef>> {
    let size = nodes.len();
    let mut next = Vec::with_capacity(size);
    for (i, &c) in nodes.iter().enumerate() {
        let keep = ctx.with_focus(Item::Node(c), i + 1, size, |ctx| {
            let v = eval_plan(ctx, &p.plan)?;
            effective_boolean_value(&v)
        })?;
        if keep {
            next.push(c);
        }
    }
    Ok(next)
}

/// The string values an attribute probe compares against, when `$var`'s
/// items are all `xs:string`, `xs:untypedAtomic` or `xs:anyURI` — the types
/// an untyped attribute compares with by plain string equality. `None`
/// (unbound, a node, any other type) means the predicate must be tested
/// as written. The value is read once per candidate list: nothing but the
/// comparison itself runs between two candidates of one stage, so it is
/// the value every candidate would see.
fn probe_values(ctx: &DynamicContext, var: &QName) -> Option<Vec<String>> {
    ctx.lookup_var(var)?
        .iter()
        .map(|item| match item {
            Item::Atomic(a @ (Atomic::String(_) | Atomic::Untyped(_) | Atomic::AnyUri(_))) => {
                Some(a.string_value())
            }
            _ => None,
        })
        .collect()
}

fn attr_eq(store: &Store, c: NodeRef, name: &QName, value: &str) -> bool {
    store
        .doc(c.doc)
        .get_attribute(c.node, name.ns.as_deref(), &name.local)
        == Some(value)
}

// ----- the streaming cursor -------------------------------------------------

/// A chain of per-step cursors over an all-axis-step path with a single
/// node start. Pulling the last step pulls its input from the previous one
/// on demand (volcano-style).
struct PathCursor<'p> {
    start: Option<NodeRef>,
    steps: Vec<StepCursor<'p>>,
}

enum StepCursor<'p> {
    /// per-node concatenation preserves document order
    Streamed {
        step: &'p PlanAxisStep,
        out: StepOut,
    },
    /// sort barrier: drains its whole input, applies the step eagerly
    Barrier {
        step: &'p PlanAxisStep,
        out: Option<std::vec::IntoIter<NodeRef>>,
    },
}

enum StepOut {
    Idle,
    Walk(WalkState),
    List(std::vec::IntoIter<NodeRef>),
}

impl<'p> PathCursor<'p> {
    fn new(start: NodeRef, steps: &'p [PlanStep]) -> Self {
        let steps = steps
            .iter()
            .map(|s| {
                let PlanStep::Axis(ax) = s else {
                    unreachable!("open_path consumes filter steps before streaming")
                };
                if ax.streamed {
                    StepCursor::Streamed {
                        step: ax,
                        out: StepOut::Idle,
                    }
                } else {
                    StepCursor::Barrier {
                        step: ax,
                        out: None,
                    }
                }
            })
            .collect();
        PathCursor {
            start: Some(start),
            steps,
        }
    }

    fn next(&mut self, ctx: &mut DynamicContext) -> XdmResult<Option<Item>> {
        let last = self.steps.len() - 1;
        Ok(self.step_next(ctx, last)?.map(Item::Node))
    }

    fn pull_input(&mut self, ctx: &mut DynamicContext, i: usize) -> XdmResult<Option<NodeRef>> {
        if i == 0 {
            Ok(self.start.take())
        } else {
            self.step_next(ctx, i - 1)
        }
    }

    fn step_next(&mut self, ctx: &mut DynamicContext, i: usize) -> XdmResult<Option<NodeRef>> {
        if matches!(self.steps[i], StepCursor::Barrier { .. }) {
            if matches!(&self.steps[i], StepCursor::Barrier { out: None, .. }) {
                let mut inputs: Vec<NodeRef> = Vec::new();
                while let Some(n) = self.pull_input(ctx, i)? {
                    inputs.push(n);
                }
                let StepCursor::Barrier { step, .. } = &self.steps[i] else {
                    unreachable!()
                };
                let step = *step;
                let result = barrier_apply(ctx, inputs, step)?;
                let StepCursor::Barrier { out, .. } = &mut self.steps[i] else {
                    unreachable!()
                };
                *out = Some(result.into_iter());
            }
            let StepCursor::Barrier { out: Some(it), .. } = &mut self.steps[i] else {
                unreachable!()
            };
            return Ok(it.next());
        }
        loop {
            {
                let StepCursor::Streamed { step, out } = &mut self.steps[i] else {
                    unreachable!()
                };
                match out {
                    StepOut::Idle => {}
                    StepOut::Walk(ws) => {
                        if let Some(n) = walk_next(ctx, ws, step)? {
                            return Ok(Some(n));
                        }
                    }
                    StepOut::List(it) => {
                        if let Some(n) = it.next() {
                            return Ok(Some(n));
                        }
                    }
                }
            }
            let Some(n) = self.pull_input(ctx, i)? else {
                return Ok(None);
            };
            // the oracle charges one unit per (step, context item)
            ctx.charge_fuel(1)?;
            let StepCursor::Streamed { step, .. } = &self.steps[i] else {
                unreachable!()
            };
            let step = *step;
            let new_out = open_node(ctx, n, step)?;
            let StepCursor::Streamed { out, .. } = &mut self.steps[i] else {
                unreachable!()
            };
            *out = new_out;
        }
    }
}

/// Drain-and-sort application of a non-streamable step inside the lazy
/// pipeline. Input from a streamed upstream is always normalized.
fn barrier_apply(
    ctx: &mut DynamicContext,
    inputs: Vec<NodeRef>,
    step: &PlanAxisStep,
) -> XdmResult<Vec<NodeRef>> {
    ctx.charge_fuel(1 + inputs.len() as u64)?;
    let seq: Sequence = inputs.into_iter().map(Item::Node).collect();
    let out = eager_axis_step(ctx, &seq, step, true)?;
    Ok(out
        .into_iter()
        .map(|i| i.as_node().expect("axis output is nodes"))
        .collect())
}

/// Opens one context node's axis enumeration: a lazy walker when the axis
/// and stages support incremental admission, otherwise a buffered list.
fn open_node(ctx: &mut DynamicContext, n: NodeRef, step: &PlanAxisStep) -> XdmResult<StepOut> {
    let walkable = matches!(
        step.axis,
        Axis::Child | Axis::Attribute | Axis::SelfAxis | Axis::Descendant | Axis::DescendantOrSelf
    ) && step.stages.iter().all(|s| {
        matches!(
            s,
            PredStage::AttrEq { .. } | PredStage::Filter(_) | PredStage::Take(PosTake::Index(_))
        )
    });
    if !walkable {
        // reverse axes are only streamed off a single context node, where
        // the oracle elides the sort and reverses into document order
        let survivors = node_survivors(ctx, n, step, true)?;
        return Ok(StepOut::List(survivors.into_iter()));
    }
    if let Some((hits, rest)) = indexed_candidates(ctx, n, step)? {
        let survivors = apply_stages(ctx, hits, rest)?;
        return Ok(StepOut::List(survivors.into_iter()));
    }
    let walker = if let Some(hits) = named_candidates(ctx, n, step) {
        Walker::Named(NamedWalk {
            doc: n.doc,
            hits,
            visited: 0,
        })
    } else {
        match step.axis {
            Axis::Child => Walker::Children { parent: n, idx: 0 },
            Axis::Attribute => Walker::Attrs { owner: n, idx: 0 },
            Axis::SelfAxis => Walker::SelfOnce(Some(n)),
            Axis::Descendant => {
                let mut walk = Walk::new(n.node);
                walk.next(ctx.store.borrow().doc(n.doc)); // opens `n` itself
                Walker::Desc { doc: n.doc, walk }
            }
            Axis::DescendantOrSelf => Walker::Desc {
                doc: n.doc,
                walk: Walk::new(n.node),
            },
            _ => unreachable!("walkable axes checked above"),
        }
    };
    let takes = vec![
        0u64;
        step.stages
            .iter()
            .filter(|s| matches!(s, PredStage::Take(_)))
            .count()
    ];
    Ok(StepOut::Walk(WalkState {
        walker,
        takes,
        closed: false,
    }))
}

/// Incremental enumeration of one context node's candidates.
struct WalkState {
    walker: Walker,
    /// survivor counters, one per `Take` stage
    takes: Vec<u64>,
    /// a take stage consumed its selected index — nothing later can pass
    closed: bool,
}

enum Walker {
    Children {
        parent: NodeRef,
        idx: usize,
    },
    Attrs {
        owner: NodeRef,
        idx: usize,
    },
    SelfOnce(Option<NodeRef>),
    /// a pre-order walk, past its root's `Open` for descendant
    Desc {
        doc: DocId,
        walk: Walk,
    },
    /// the hits of a pre-order traversal, read from the element-name index
    Named(NamedWalk),
}

/// A pre-order traversal answered by the element-name index: its hits,
/// each with the nodes the traversal visits up to it, read one per pull
/// (`hits.walked` is the whole traversal's visits); `visited`, the visits
/// charged so far.
struct NamedWalk {
    doc: DocId,
    hits: NamedDescendants,
    visited: u32,
}

impl NamedWalk {
    /// The next hit, charging the visits the traversal makes to reach it —
    /// at exhaustion `None`, charging the rest of the traversal.
    fn next(&mut self, ctx: &mut DynamicContext) -> XdmResult<Option<NodeRef>> {
        let (next, upto) = match self.hits.next() {
            Some((v, upto)) => (Some(NodeRef::new(self.doc, v)), upto),
            None => (None, self.hits.walked),
        };
        let visits = upto - self.visited;
        self.visited = upto;
        ctx.charge_fuel_each(u64::from(visits))?;
        Ok(next)
    }
}

impl Walker {
    fn next(&mut self, store: &Store) -> Option<NodeRef> {
        match self {
            Walker::Children { parent, idx } => {
                let r = store
                    .doc(parent.doc)
                    .children(parent.node)
                    .get(*idx)
                    .map(|&k| NodeRef::new(parent.doc, k));
                if r.is_some() {
                    *idx += 1;
                }
                r
            }
            Walker::Attrs { owner, idx } => {
                let r = store
                    .doc(owner.doc)
                    .attributes(owner.node)
                    .get(*idx)
                    .map(|&k| NodeRef::new(owner.doc, k));
                if r.is_some() {
                    *idx += 1;
                }
                r
            }
            Walker::SelfOnce(slot) => slot.take(),
            Walker::Desc { doc, walk } => loop {
                if let Visit::Open(k) = walk.next(store.doc(*doc))? {
                    return Some(NodeRef::new(*doc, k));
                }
            },
            Walker::Named(_) => unreachable!("pulled with its charge by `walk_next`"),
        }
    }
}

fn walk_next(
    ctx: &mut DynamicContext,
    ws: &mut WalkState,
    step: &PlanAxisStep,
) -> XdmResult<Option<NodeRef>> {
    if ws.closed {
        return Ok(None);
    }
    loop {
        let cand = match &mut ws.walker {
            Walker::Named(named) => named.next(ctx)?,
            walker => {
                let cand = walker.next(&ctx.store.borrow());
                if cand.is_some() {
                    // one fuel unit per candidate examined: streamed
                    // traversals pay proportionally to the nodes they
                    // touch, preserving preemption
                    ctx.charge_fuel(1)?;
                }
                cand
            }
        };
        let Some(c) = cand else {
            return Ok(None);
        };
        if !ctx.with_store(|s| node_test_matches(s, c, step.axis, &step.test)) {
            continue;
        }
        if admit(ctx, c, step, ws)? {
            return Ok(Some(c));
        }
        if ws.closed {
            return Ok(None);
        }
    }
}

/// Runs the stage pipeline over one candidate. `Take(Index)` stages count
/// survivors of the stages before them, pass exactly the k-th, and close
/// the node afterwards — the streaming form of the positional short-circuit.
fn admit(
    ctx: &mut DynamicContext,
    c: NodeRef,
    step: &PlanAxisStep,
    ws: &mut WalkState,
) -> XdmResult<bool> {
    let mut take_i = 0;
    for stage in &step.stages {
        match stage {
            PredStage::Take(PosTake::Index(d)) => {
                ws.takes[take_i] += 1;
                let pos = ws.takes[take_i];
                take_i += 1;
                let sel = if *d >= 1.0 && d.fract() == 0.0 {
                    Some(*d as u64)
                } else {
                    None
                };
                match sel {
                    Some(k) if pos == k => {
                        // selected: later stages may still reject it, but no
                        // other candidate can ever pass this stage
                        ws.closed = true;
                    }
                    Some(k) if pos < k => return Ok(false),
                    _ => {
                        // fractional/negative index selects nothing
                        ws.closed = true;
                        return Ok(false);
                    }
                }
            }
            PredStage::Take(PosTake::Last) => unreachable!("last-takes are buffered"),
            PredStage::AttrEq { name, value } => {
                let hit = ctx.with_store(|s| attr_eq(s, c, name, value));
                if !hit {
                    return Ok(false);
                }
            }
            PredStage::Filter(p) => {
                // position-free: the (1, 1) focus is observationally
                // equivalent for these predicates
                let keep = ctx.with_focus(Item::Node(c), 1, 1, |ctx| {
                    let v = eval_plan(ctx, &p.plan)?;
                    effective_boolean_value(&v)
                })?;
                if !keep {
                    return Ok(false);
                }
            }
            PredStage::General(_) | PredStage::AttrEqVar { .. } => {
                unreachable!("general and variable-probe stages are buffered")
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::lower;
    use crate::runtime::{self, render_sequence};
    use xqib_dom::store::shared_store;
    use xqib_dom::SharedStore;

    const DOC: &str = r#"<site><items><item id="a"><price>10</price></item><item id="b"><price>20</price></item><item id="c"><price>30</price></item></items><names><name>x</name><name>y</name></names></site>"#;

    fn store_with_doc(xml: &str) -> SharedStore {
        let store = shared_store();
        let doc = xqib_dom::parse_document(xml).unwrap();
        store.borrow_mut().add_document(doc, Some("t.xml"));
        store
    }

    fn interp(src: &str, store: SharedStore, fuel: Option<u64>) -> Result<String, String> {
        let q = runtime::compile(src).map_err(|e| e.code)?;
        let mut ctx = DynamicContext::new(store, q.sctx.clone());
        ctx.set_fuel(fuel);
        match q.execute(&mut ctx) {
            Ok(seq) => Ok(render_sequence(&ctx, &seq)),
            Err(e) => Err(e.code),
        }
    }

    fn compiled(src: &str, store: SharedStore, fuel: Option<u64>) -> Result<String, String> {
        let q = runtime::compile(src).map_err(|e| e.code)?;
        let plan = lower(&q);
        let mut ctx = DynamicContext::new(store, q.sctx.clone());
        ctx.set_fuel(fuel);
        match plan.execute(&mut ctx) {
            Ok(seq) => Ok(render_sequence(&ctx, &seq)),
            Err(e) => Err(e.code),
        }
    }

    fn same(src: &str) {
        let a = interp(src, store_with_doc(DOC), None);
        let b = compiled(src, store_with_doc(DOC), None);
        assert_eq!(a, b, "compiled/interpreted divergence on `{src}`");
    }

    #[test]
    fn paths_agree() {
        same("doc('t.xml')//item");
        same("doc('t.xml')//item/price");
        same("doc('t.xml')/site/items/item");
        same("doc('t.xml')//item/@id");
        same("doc('t.xml')//item[@id = 'b']");
        same("doc('t.xml')//item[price]");
        same("doc('t.xml')//item[1]");
        same("doc('t.xml')//item[last()]");
        same("doc('t.xml')//item[2]/price");
        same("(doc('t.xml')//item)[2]");
        same("doc('t.xml')//item/parent::items");
        same("doc('t.xml')//price/ancestor::*");
        same("doc('t.xml')//item[2]/preceding-sibling::item");
        same("doc('t.xml')//name/../name");
        same("doc('t.xml')//*[@id][price/text() = '20']");
        // descendant steps from nested inputs
        same("doc('t.xml')//*//price");
        same("doc('t.xml')//*//*[@id = 'b']");
        same("doc('t.xml')/site//node()//text()");
        same("doc('t.xml')//*/descendant-or-self::*[price][1]");
    }

    #[test]
    fn scalars_and_flwor_agree() {
        same("1 to 10");
        same("sum(1 to 100)");
        same("for $i in 1 to 5 return $i * $i");
        same("for $i in doc('t.xml')//item return $i/price");
        same("for $i in doc('t.xml')//item where $i/@id = 'b' return $i");
        same("for $i at $p in doc('t.xml')//item return $p");
        same("for $i in doc('t.xml')//item order by $i/@id descending return $i/@id");
        same("for $i in doc('t.xml')//item let $p := $i/price where $p = 20 return $i/@id");
        same("exists(doc('t.xml')//item)");
        same("empty(doc('t.xml')//missing)");
        same("count(doc('t.xml')//item)");
        same("not(doc('t.xml')//missing)");
        same("if (doc('t.xml')//item) then 'y' else 'n'");
        same("some $i in doc('t.xml')//item satisfies $i/@id = 'c'");
    }

    #[test]
    fn errors_agree() {
        same("1 div 0");
        same("$undeclared");
        same("doc('t.xml')//item/(price, 7)");
        same("('a','b')/self::node()");
        same("doc('t.xml')//item[price div 0 = 1]");
    }

    #[test]
    fn scripting_and_updates_agree() {
        same("declare variable $n := 0; while ($n < 5) { set $n := $n + 1; }; $n");
        same("declare variable $n := 3; if ($n > 2) then exit with 'big' else (); 'small'");
        let a = {
            let store = store_with_doc(DOC);
            let r = interp(
                "insert node <new/> into doc('t.xml')/site, 0",
                store.clone(),
                None,
            );
            (
                r,
                runtime::run_to_string("doc('t.xml')/site/new", store).unwrap(),
            )
        };
        let b = {
            let store = store_with_doc(DOC);
            let r = compiled(
                "insert node <new/> into doc('t.xml')/site, 0",
                store.clone(),
                None,
            );
            (
                r,
                runtime::run_to_string("doc('t.xml')/site/new", store).unwrap(),
            )
        };
        assert_eq!(a, b, "update effects diverge");
        assert_eq!(b.1, "<new/>");
    }

    #[test]
    fn streamed_early_exit_uses_less_fuel() {
        // a budget the interpreter exhausts but the streaming cursor,
        // stopping at the first match, does not
        let mut wide = String::from("<d><hit/>");
        for _ in 0..500 {
            wide.push_str("<pad><x/><x/></pad>");
        }
        wide.push_str("</d>");
        let q = "exists(doc('t.xml')//hit)";
        assert_eq!(
            interp(q, store_with_doc(&wide), Some(200)).unwrap_err(),
            "XQIB0011"
        );
        assert_eq!(
            compiled(q, store_with_doc(&wide), Some(200)).unwrap(),
            "true"
        );
        // and the streamed result is never *cheaper but wrong*: unlimited
        // budgets agree
        let a = interp(q, store_with_doc(&wide), None).unwrap();
        let b = compiled(q, store_with_doc(&wide), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fuel_exhaustion_still_raises() {
        let q = "count(doc('t.xml')//item)";
        assert_eq!(
            compiled(q, store_with_doc(DOC), Some(3)).unwrap_err(),
            "XQIB0011"
        );
    }

    #[test]
    fn positional_walker_stops_early() {
        let mut wide = String::from("<d>");
        for i in 0..1000 {
            wide.push_str(&format!("<item n=\"{i}\"/>"));
        }
        wide.push_str("</d>");
        // the interpreter evaluates the attribute predicate under a focus
        // for every child; the walker probes one candidate, takes it, and
        // closes the node
        let q = "doc('t.xml')/d/item[@n = '0'][1]/@n";
        let fuel_of = |use_plan: bool, src: &str, xml: &str| {
            let store = store_with_doc(xml);
            let q = runtime::compile(src).unwrap();
            let mut ctx = DynamicContext::new(store, q.sctx.clone());
            // a huge budget so `fuel_used` is tracked without preemption
            ctx.set_fuel(Some(u64::MAX));
            let out = if use_plan {
                lower(&q).execute(&mut ctx).unwrap()
            } else {
                q.execute(&mut ctx).unwrap()
            };
            (render_sequence(&ctx, &out), ctx.fuel_used)
        };
        let (iv, ifuel) = fuel_of(false, q, &wide);
        let (cv, cfuel) = fuel_of(true, q, &wide);
        assert_eq!(iv, cv);
        assert!(
            cfuel * 10 < ifuel,
            "walker should examine ~1 candidate, not 1000 (compiled {cfuel} vs interpreted {ifuel})"
        );
    }
}
