//! The AST walker: the reference semantics the plan executor is tested
//! against, compiled only with the dev-only `oracle` feature. It evaluates
//! the parsed tree directly and materialises every intermediate sequence;
//! each construct whose meaning does not depend on the tree shape runs the
//! routine the executor shares (see the parent module).

use std::rc::Rc;

use xqib_dom::NodeRef;
use xqib_xdm::{effective_boolean_value, Item, Sequence, XdmError, XdmResult};

use crate::ast::*;
use crate::context::DynamicContext;
use crate::plan::ExprPlan;

use super::arith::{eval_arith, eval_neg, eval_range};
use super::constructor::{build_computed, build_element};
use super::flwor::{eval_flwor, quantified};
use super::fulltext::eval_ftcontains;
use super::path::{
    axis_nodes, filter_step_output, node_test_matches, order_step_output, predicate_truth,
    static_positional_take, take_index,
};
use super::update::{eval_transform, eval_update};
use super::*;

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
        Expr::Range(lo, hi) => eval_range(ctx, &**lo, &**hi, eval_expr),
        Expr::Arith(op, l, r) => eval_arith(ctx, *op, &**l, &**r, eval_expr),
        Expr::Neg(inner) => eval_neg(ctx, &**inner, eval_expr),
        Expr::ValueComp(op, l, r) => {
            let (ls, rs) = operands(ctx, l, r)?;
            value_comp_seqs(ctx, *op, &ls, &rs)
        }
        Expr::GeneralComp(op, l, r) => {
            let (ls, rs) = operands(ctx, l, r)?;
            general_comp_seqs(ctx, *op, &ls, &rs)
        }
        Expr::NodeComp(op, l, r) => {
            let (ls, rs) = operands(ctx, l, r)?;
            node_comp_seqs(ctx, *op, &ls, &rs)
        }
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
            if effective_boolean_value(&eval_expr(ctx, cond)?)? {
                eval_expr(ctx, then)
            } else {
                eval_expr(ctx, els)
            }
        }
        Expr::Flwor { clauses, ret } => eval_flwor(ctx, clauses, ret, eval_expr),
        Expr::Quantified {
            kind,
            bindings,
            satisfies,
        } => quantified(ctx, *kind, bindings, &**satisfies, eval_expr),
        Expr::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => typeswitch(
            ctx,
            &**operand,
            cases,
            default_var.as_ref(),
            &**default,
            eval_expr,
        ),
        Expr::Path { start, steps } => eval_path(ctx, *start, steps),
        Expr::SetOp(op, l, r) => set_op(ctx, *op, &**l, &**r, eval_expr),
        Expr::InstanceOf(inner, st) => instance_of(ctx, &**inner, st, eval_expr),
        Expr::TreatAs(inner, st) => treat_as(ctx, &**inner, st, eval_expr),
        Expr::CastableAs(inner, ty, opt) => castable(ctx, &**inner, *ty, *opt, eval_expr),
        Expr::CastAs(inner, ty, opt) => cast(ctx, &**inner, *ty, *opt, eval_expr),
        Expr::FunctionCall { name, args } => {
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_expr(ctx, a)?);
            }
            call_function_with(ctx, name, argv, interpret_body)
        }
        Expr::DirectElement {
            name,
            attrs,
            ns_decls,
            children,
        } => build_element(ctx, name, ns_decls, attrs, children, eval_expr),
        Expr::Computed(c) => build_computed(ctx, c, eval_expr),
        Expr::Update(u) => eval_update(ctx, u, eval_expr),
        Expr::Transform {
            bindings,
            modify,
            ret,
        } => eval_transform(ctx, bindings, &**modify, &**ret, eval_expr),
        Expr::Block(stmts) => eval_block(ctx, stmts),
        Expr::FtContains { source, selection } => {
            eval_ftcontains(ctx, &**source, selection, eval_expr)
        }
        // a `behind` call reaches the host lowered, as on the executor
        Expr::Browser(b) => eval_browser(ctx, b, eval_expr, |ctx, call| {
            Rc::new(ExprPlan::lower(&ctx.sctx, call))
        }),
    }
}

fn operands(ctx: &mut DynamicContext, l: &Expr, r: &Expr) -> XdmResult<(Sequence, Sequence)> {
    let ls = eval_expr(ctx, l)?;
    let rs = eval_expr(ctx, r)?;
    Ok((ls, rs))
}

/// The oracle's body evaluator: the declaration's AST.
pub(crate) fn interpret_body(ctx: &mut DynamicContext, decl: &FunctionDecl) -> XdmResult<Sequence> {
    eval_expr(ctx, &decl.body)
}

// ----- paths ----------------------------------------------------------------

fn eval_path(
    ctx: &mut DynamicContext,
    start: PathStart,
    steps: &[StepExpr],
) -> XdmResult<Sequence> {
    // Initial context sequence, plus whether it is already known to be in
    // document order without duplicates ("normalized") — the invariant the
    // sort-elision below relies on. Singletons trivially are; a leading
    // filter step keeps its expression's own order, so it is not.
    let mut steps = steps;
    let mut normalized = true;
    let mut current: Sequence = match start {
        PathStart::Relative => match &ctx.focus {
            Some(f) => vec![f.item.clone()],
            None => {
                // A relative path whose first step is a primary expression
                // (e.g. `doc("x")//y`, `$v/y`) needs no context item: the
                // first step supplies the context for the rest.
                let (first, rest) = steps
                    .split_first()
                    .ok_or_else(|| XdmError::undefined("relative path with no context item"))?;
                match first {
                    StepExpr::Filter {
                        primary,
                        predicates,
                    } => {
                        let r = eval_expr(ctx, primary)?;
                        let filtered = apply_predicates(ctx, r, predicates, Item::clone)?;
                        steps = rest;
                        normalized = filtered.len() <= 1;
                        filtered
                    }
                    StepExpr::Axis(_) => {
                        return Err(XdmError::undefined("relative path with no context item"))
                    }
                }
            }
        },
        PathStart::Root | PathStart::RootDescendant => {
            let item = ctx.context_item()?;
            let Item::Node(n) = item else {
                return Err(XdmError::new(
                    "XPTY0020",
                    "`/` requires the context item to be a node",
                ));
            };
            let store = ctx.store.borrow();
            let root = store.doc(n.doc).tree_root(n.node);
            vec![Item::Node(NodeRef::new(n.doc, root))]
        }
    };
    if start == PathStart::RootDescendant {
        current = apply_axis_step(
            ctx,
            &current,
            &AxisStep {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::Kind(KindTest::AnyKind),
                predicates: vec![],
            },
            normalized,
        )?;
        // Axis steps always emit normalized output.
    }
    for step in steps {
        (current, normalized) = apply_step(ctx, &current, step, normalized)?;
    }
    Ok(current)
}

/// Applies one step; returns the result sequence plus whether it is
/// normalized (document order, duplicate-free).
fn apply_step(
    ctx: &mut DynamicContext,
    input: &Sequence,
    step: &StepExpr,
    input_normalized: bool,
) -> XdmResult<(Sequence, bool)> {
    // fuel is charged per (step, context item): a step over a huge node set
    // costs proportionally, so runaway traversals are preempted even when
    // the query text is a single path expression
    ctx.charge_fuel(1 + input.len() as u64)?;
    match step {
        StepExpr::Axis(ax) => apply_axis_step(ctx, input, ax, input_normalized).map(|s| (s, true)),
        StepExpr::Filter {
            primary,
            predicates,
        } => {
            let mut combined: Sequence = Vec::new();
            let size = input.len();
            for (i, item) in input.iter().enumerate() {
                let result =
                    ctx.with_focus(item.clone(), i + 1, size, |ctx| eval_expr(ctx, primary))?;
                combined.extend(apply_predicates(ctx, result, predicates, Item::clone)?);
            }
            filter_step_output(ctx, combined)
        }
    }
}

fn apply_axis_step(
    ctx: &mut DynamicContext,
    input: &Sequence,
    step: &AxisStep,
    input_normalized: bool,
) -> XdmResult<Sequence> {
    let mut out_refs: Vec<NodeRef> = Vec::new();
    for item in input {
        let Item::Node(n) = item else {
            return Err(XdmError::new(
                "XPTY0019",
                "axis step applied to an atomic value",
            ));
        };
        // candidates in axis order
        let candidates: Vec<NodeRef> = {
            let store = ctx.store.borrow();
            axis_nodes(&store, *n, step.axis)
                .into_iter()
                .filter(|&c| node_test_matches(&store, c, step.axis, &step.test))
                .collect()
        };
        let filtered = apply_predicates(ctx, candidates, &step.predicates, |&n| Item::Node(n))?;
        out_refs.extend(filtered);
    }

    Ok(order_step_output(
        ctx,
        input,
        step.axis,
        input_normalized,
        out_refs,
    ))
}

/// Applies predicates to a sequence, or to an axis step's candidate nodes
/// (in axis order: positions count along the axis direction); `item` gives
/// each candidate's focus item.
fn apply_predicates<T: Clone>(
    ctx: &mut DynamicContext,
    seq: Vec<T>,
    predicates: &[Expr],
    item: fn(&T) -> Item,
) -> XdmResult<Vec<T>> {
    let mut current = seq;
    for pred in predicates {
        // Positional short-circuit: `[k]` / `[last()]` index directly
        // instead of evaluating the predicate against every node — `//x[1]`
        // must not pay for every sibling it discards.
        if let Some(take) = static_positional_take(&ctx.sctx, pred) {
            ctx.charge_fuel(1)?;
            current = match take_index(&take, current.len()) {
                Some(i) => vec![current[i].clone()],
                None => vec![],
            };
            continue;
        }
        let size = current.len();
        let mut next = Vec::with_capacity(current.len());
        for (i, c) in current.iter().enumerate() {
            let keep = ctx.with_focus(item(c), i + 1, size, |ctx| {
                predicate_truth(ctx, pred, i + 1, eval_expr)
            })?;
            if keep {
                next.push(c.clone());
            }
        }
        current = next;
    }
    Ok(current)
}

// ----- scripting blocks ---------------------------------------------------

/// Evaluates a block: statements run sequentially, pending updates are
/// applied *between* statements (§3.3 — "the effects of the execution of one
/// expression become visible for the execution of other, sub-sequent
/// expressions"). The value of the block is the value of its last statement.
fn eval_block(ctx: &mut DynamicContext, stmts: &[Statement]) -> XdmResult<Sequence> {
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
