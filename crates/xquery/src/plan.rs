//! Plan IR: a compact, analyzable representation lowered from the AST.
//!
//! The AST oracle (dev-only `oracle` feature) walks the tree directly and
//! materializes every intermediate sequence. The plan tier lowers a
//! compiled module once into a small IR on which four rewrites run:
//!
//! * **constant folding** — literal arithmetic, comparisons, ranges and
//!   boolean short-circuits collapse to `Plan::Const`. A computation is
//!   only folded when it *succeeds*; anything that would raise a dynamic
//!   error (`1 div 0`) is left in place so the error surfaces at run time
//!   with the same code the oracle produces.
//! * **step fusion** — `descendant-or-self::node()/child::t` (the `//t`
//!   expansion) fuses into a single `descendant::t` step when the child
//!   step's predicates are statically position-free, halving the number of
//!   per-node passes on the hottest axis in the §7 workloads.
//! * **predicate pushdown** — predicates are classified into pipeline
//!   *stages* applied per candidate while the axis enumerates:
//!   positional takes (`[1]`, `[last()]`), attribute-equality probes
//!   (`[@id = "x"]` and `[@id = $v]`, answered straight off the attribute
//!   table), lazy position-free filters, and a buffered general tail for
//!   everything positional.
//! * **early-exit rewrites** — `exists()`, `empty()`, `not()` and `count()`
//!   over unshadowed `fn:` names become dedicated plan nodes the streaming
//!   executor can satisfy without draining their operand.
//!
//! Every construct lowers: the plan is the only form a shipped query runs
//! in. Constructs the rewrites do not touch lower to nodes that mirror the
//! AST and hand their lowered parts to the one routine in `eval` that
//! defines the construct, generic over the evaluator that runs the parts:
//! constructors (`Plan::Element`, `Plan::Computed`), updates and
//! `transform` (`Plan::Update`, `Plan::Transform`), quantifiers,
//! type-switch, set operators, node comparisons, `instance of`/`treat`/
//! `cast`, full-text and the browser statements. The AST walker behind the
//! dev-only `oracle` feature calls the same routines, so the differential
//! suites compare the executor against a reference that differs only in
//! how it walks. A `behind` call is lowered once, with its statement, to
//! the [`ExprPlan`] the host keeps and runs later. Scripting blocks
//! (`Plan::Block`) run statements with updates applied between them.
//! Declared function bodies are lowered once per static context by
//! [`lower_functions`] and stored with their declarations.
//!
//! # Streaming soundness
//!
//! The executor evaluates a `PathPlan` lazily only when `lazy` is set.
//! Lowering grants it exactly when every step is an axis step whose
//! predicate stages are all *statically infallible*: a lazy cursor then
//! either fails before yielding its first item or on fuel exhaustion, so
//! depth-first pulling can never reorder which dynamic error surfaces
//! relative to the oracle's breadth-first walk — and `exists()`-style
//! early exits are always observationally safe. Per-step `streamed` flags
//! additionally record whether concatenating per-node axis output preserves
//! document order (tracked through the static `Inv` invariant lattice);
//! steps without the flag run as buffered sort barriers inside the lazy
//! pipeline, exactly reproducing the oracle's normalisation.
//!
//! The variable-valued probe `PredStage::AttrEqVar` is infallible only
//! when its variable holds string-like items, which is a run-time fact, so
//! it counts as fallible (its predicate as written can raise, e.g. `@id`
//! against a number) and a path carrying it is never lazy. It runs in the
//! eager per-node stage pipeline, which decides between probe and
//! predicate once per candidate list; nothing else evaluates between two
//! candidates of one stage, so every candidate sees the value the
//! oracle's per-candidate test would read.

use std::rc::Rc;

use xqib_dom::{name::FN_NS, QName};
use xqib_xdm::{
    effective_boolean_value, general_compare, value_compare, Atomic, CompOp, Item, Sequence,
    SequenceType, TypeName,
};

use crate::ast::{
    ArithOp, AttrContent, Axis, AxisStep, BrowserExpr, Computed, ElemContent, Expr, FlworClause,
    FtSelection, FunctionDecl, KindTest, NameExpr, NodeCompOp, NodeTest, OrderSpec, PathStart,
    Quantifier, SetOp, Statement, StepExpr, UpdateExpr,
};
use crate::context::StaticContext;
use crate::eval::arith::{apply_arith, neg_atomic, range_bounds};
use crate::eval::path::{static_positional_take, PosTake};
use crate::runtime::CompiledQuery;

/// A lowered main module: globals + statement list, sharing the static
/// context of the [`CompiledQuery`] it was lowered from.
pub struct CompiledPlan {
    pub(crate) sctx: Rc<StaticContext>,
    pub(crate) globals: Vec<PlanGlobal>,
    pub(crate) body: Vec<PlanStmt>,
}

impl CompiledPlan {
    pub fn static_context(&self) -> &Rc<StaticContext> {
        &self.sctx
    }
}

/// A lowered standalone expression: a declared function body (see
/// [`lower_functions`]) or a host's inline listener. Lowered once, run any
/// number of times by [`ExprPlan::eval`].
pub struct ExprPlan {
    pub(crate) plan: Plan,
}

impl ExprPlan {
    pub fn lower(sctx: &StaticContext, e: &Expr) -> Self {
        ExprPlan {
            plan: lower_expr(sctx, e),
        }
    }
}

impl std::fmt::Debug for ExprPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExprPlan").finish_non_exhaustive()
    }
}

pub(crate) struct PlanGlobal {
    pub name: QName,
    /// `None` means `external`.
    pub init: Option<Plan>,
}

/// Mirrors [`Statement`] with lowered expressions.
pub(crate) enum PlanStmt {
    VarDecl { name: QName, init: Option<Plan> },
    Assign { name: QName, value: Plan },
    While { cond: Plan, body: Vec<PlanStmt> },
    ExitWith(Plan),
    Expr(Plan),
}

/// The expression IR, evaluated by `exec::eval_plan` against a
/// `DynamicContext`.
pub(crate) enum Plan {
    Const(Sequence),
    Var(QName),
    ContextItem,
    Seq(Vec<Plan>),
    Range(Box<Plan>, Box<Plan>),
    Arith(ArithOp, Box<Plan>, Box<Plan>),
    Neg(Box<Plan>),
    ValueComp(CompOp, Box<Plan>, Box<Plan>),
    GeneralComp(CompOp, Box<Plan>, Box<Plan>),
    And(Box<Plan>, Box<Plan>),
    Or(Box<Plan>, Box<Plan>),
    If {
        cond: Box<Plan>,
        then: Box<Plan>,
        els: Box<Plan>,
    },
    Flwor {
        clauses: Vec<FlworClause<Plan>>,
        ret: Box<Plan>,
    },
    Path(PathPlan),
    /// `exists(src)` (`negate` = false) / `empty(src)` (`negate` = true)
    Exists {
        src: Box<Plan>,
        negate: bool,
    },
    Count(Box<Plan>),
    Not(Box<Plan>),
    /// generic function call through the shared dispatch chain;
    /// `builtin` when the name statically resolves to an `fn:` built-in
    /// (see [`is_fn_builtin`]), which skips the user and native lookups
    Call {
        name: QName,
        args: Vec<Plan>,
        builtin: bool,
    },
    NodeComp(NodeCompOp, Box<Plan>, Box<Plan>),
    SetOp(SetOp, Box<Plan>, Box<Plan>),
    Quantified {
        kind: Quantifier,
        bindings: Vec<(QName, Plan)>,
        satisfies: Box<Plan>,
    },
    TypeSwitch {
        operand: Box<Plan>,
        cases: Vec<(SequenceType, Option<QName>, Plan)>,
        default_var: Option<QName>,
        default: Box<Plan>,
    },
    InstanceOf(Box<Plan>, SequenceType),
    TreatAs(Box<Plan>, SequenceType),
    CastableAs(Box<Plan>, TypeName, bool),
    CastAs(Box<Plan>, TypeName, bool),
    /// direct element constructor with lowered enclosed parts, built by
    /// `build_element`
    Element {
        name: QName,
        ns_decls: Vec<(String, String)>,
        attrs: Vec<(QName, Vec<AttrContent<Plan>>)>,
        children: Vec<ElemContent<Plan>>,
    },
    /// scripting block: its statements run in a fresh scope, with pending
    /// updates applied between them
    Block(Vec<PlanStmt>),
    Computed(Computed<Plan>),
    /// `insert`/`delete`/`replace`/`rename` with lowered parts, appended to
    /// the pending update list by `eval_update`
    Update(UpdateExpr<Plan>),
    Transform {
        bindings: Vec<(QName, Plan)>,
        modify: Box<Plan>,
        ret: Box<Plan>,
    },
    FtContains {
        source: Box<Plan>,
        selection: FtSelection<Plan>,
    },
    /// the browser statements; a `behind` call is lowered once, here, to the
    /// plan the host keeps
    Browser(BrowserExpr<Plan, Rc<ExprPlan>>),
}

/// A lowered path expression.
pub(crate) struct PathPlan {
    pub start: PathStartPlan,
    pub steps: Vec<PlanStep>,
    /// Lazy pull evaluation is observationally equivalent: every step is an
    /// axis step and every predicate stage is statically infallible (a lazy
    /// cursor can then only fail before its first item or on fuel).
    pub lazy: bool,
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub(crate) enum PathStartPlan {
    /// `/...` — the root of the context node's tree
    Root,
    /// relative path: the focus item, or a leading filter step when there
    /// is no focus (the oracle's `doc("x")//y` shape)
    Relative,
}

pub(crate) enum PlanStep {
    Axis(PlanAxisStep),
    /// mid-path (or leading) filter step — always an eager barrier
    Filter {
        primary: Plan,
        preds: Vec<PlanPred>,
    },
}

pub(crate) struct PlanAxisStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub stages: Vec<PredStage>,
    /// Concatenating per-node output in input order preserves document
    /// order with no duplicates (given the start turns out to be at most
    /// one item at run time), so no sort barrier is needed.
    pub streamed: bool,
}

/// A lowered predicate plus the static facts the executor needs.
pub(crate) struct PlanPred {
    pub plan: Plan,
    /// `[k]` / `[last()]` recognised on the original expression — mirrors
    /// the oracle's positional short-circuit
    pub take: Option<PosTake>,
    /// truth value is independent of `position()`/`last()` and never a
    /// numeric position test, so it can be decided per candidate
    pub positional_free: bool,
    /// cannot raise a dynamic error (fuel aside) when the focus is a node
    pub infallible: bool,
}

/// One stage of an axis step's predicate pipeline, applied in order.
pub(crate) enum PredStage {
    /// positional take: index the surviving candidates of this node
    Take(PosTake),
    /// `[@name = "literal"]` answered directly off the attribute table
    AttrEq { name: QName, value: Rc<str> },
    /// `[@name = $var]`: the same probe while `$var` holds only
    /// `xs:string`/`xs:untypedAtomic`/`xs:anyURI` items; otherwise `pred`,
    /// the predicate as written, tested per candidate
    AttrEqVar {
        name: QName,
        var: QName,
        pred: PlanPred,
    },
    /// position-free predicate: tested one candidate at a time
    Filter(PlanPred),
    /// positional tail: buffered per node and applied with true positions,
    /// exactly like the oracle
    General(Vec<PlanPred>),
}

impl PredStage {
    pub(crate) fn infallible(&self) -> bool {
        match self {
            PredStage::Take(_) | PredStage::AttrEq { .. } => true,
            PredStage::AttrEqVar { pred: p, .. } | PredStage::Filter(p) => p.infallible,
            PredStage::General(ps) => ps.iter().all(|p| p.infallible),
        }
    }
}

// ---------------------------------------------------------------------------
// lowering
// ---------------------------------------------------------------------------

/// Lowers a compiled module to a plan. Lowering never fails. The plan's
/// static context is the module's with every declared function body
/// lowered (see [`lower_functions`]).
pub fn lower(q: &CompiledQuery) -> CompiledPlan {
    let sctx = lower_functions(&q.sctx);
    let globals = q
        .module
        .prolog
        .variables
        .iter()
        .map(|v| PlanGlobal {
            name: v.name.clone(),
            init: v.init.as_ref().map(|e| lower_expr(&sctx, e)),
        })
        .collect();
    let body = q.module.body.iter().map(|s| lower_stmt(&sctx, s)).collect();
    CompiledPlan {
        sctx,
        globals,
        body,
    }
}

/// Lowers every declared function body of `sctx` that carries no plan yet,
/// against `sctx` itself, and stores each plan with its declaration.
/// Returns `sctx` itself when there is nothing left to lower, so a context
/// is lowered once however many callers ask.
pub fn lower_functions(sctx: &Rc<StaticContext>) -> Rc<StaticContext> {
    if sctx.functions.values().all(|d| d.plan.is_some()) {
        return sctx.clone();
    }
    let functions = sctx
        .functions
        .iter()
        .map(|(key, decl)| {
            let decl = match decl.plan {
                Some(_) => decl.clone(),
                None => Rc::new(FunctionDecl {
                    plan: Some(Rc::new(ExprPlan::lower(sctx, &decl.body))),
                    ..(**decl).clone()
                }),
            };
            (key.clone(), decl)
        })
        .collect();
    Rc::new(StaticContext {
        functions,
        namespaces: sctx.namespaces.clone(),
        options: sctx.options.clone(),
        browser_profile: sctx.browser_profile,
    })
}

fn lower_stmt(sctx: &StaticContext, s: &Statement) -> PlanStmt {
    match s {
        Statement::VarDecl { name, ty: _, init } => PlanStmt::VarDecl {
            name: name.clone(),
            init: init.as_ref().map(|e| lower_expr(sctx, e)),
        },
        Statement::Assign { name, value } => PlanStmt::Assign {
            name: name.clone(),
            value: lower_expr(sctx, value),
        },
        Statement::While { cond, body } => PlanStmt::While {
            cond: lower_expr(sctx, cond),
            body: body.iter().map(|b| lower_stmt(sctx, b)).collect(),
        },
        Statement::ExitWith(e) => PlanStmt::ExitWith(lower_expr(sctx, e)),
        Statement::Expr(e) => PlanStmt::Expr(lower_expr(sctx, e)),
    }
}

pub(crate) fn lower_expr(sctx: &StaticContext, e: &Expr) -> Plan {
    match e {
        Expr::Literal(a) => Plan::Const(vec![Item::Atomic(a.clone())]),
        Expr::VarRef(q) => Plan::Var(q.clone()),
        Expr::ContextItem => Plan::ContextItem,
        Expr::Sequence(es) => {
            let parts: Vec<Plan> = es.iter().map(|x| lower_expr(sctx, x)).collect();
            fold_seq(parts)
        }
        Expr::Range(a, b) => fold_range(lower_expr(sctx, a), lower_expr(sctx, b)),
        Expr::Arith(op, a, b) => fold_arith(*op, lower_expr(sctx, a), lower_expr(sctx, b)),
        Expr::Neg(a) => fold_neg(lower_expr(sctx, a)),
        Expr::ValueComp(op, a, b) => fold_value_comp(*op, lower_expr(sctx, a), lower_expr(sctx, b)),
        Expr::GeneralComp(op, a, b) => {
            fold_general_comp(*op, lower_expr(sctx, a), lower_expr(sctx, b))
        }
        Expr::And(a, b) => fold_and(lower_expr(sctx, a), lower_expr(sctx, b)),
        Expr::Or(a, b) => fold_or(lower_expr(sctx, a), lower_expr(sctx, b)),
        Expr::If { cond, then, els } => fold_if(
            lower_expr(sctx, cond),
            lower_expr(sctx, then),
            lower_expr(sctx, els),
        ),
        Expr::Flwor { clauses, ret } => Plan::Flwor {
            clauses: clauses.iter().map(|c| lower_clause(sctx, c)).collect(),
            ret: Box::new(lower_expr(sctx, ret)),
        },
        Expr::Path { start, steps } => lower_path(sctx, *start, steps),
        Expr::FunctionCall { name, args } => lower_call(sctx, name, args),
        Expr::DirectElement {
            name,
            attrs,
            ns_decls,
            children,
        } => Plan::Element {
            name: name.clone(),
            ns_decls: ns_decls.clone(),
            attrs: attrs
                .iter()
                .map(|(aname, parts)| {
                    let parts = parts
                        .iter()
                        .map(|part| match part {
                            AttrContent::Text(t) => AttrContent::Text(t.clone()),
                            AttrContent::Enclosed(e) => AttrContent::Enclosed(lower_expr(sctx, e)),
                        })
                        .collect();
                    (aname.clone(), parts)
                })
                .collect(),
            children: children
                .iter()
                .map(|child| match child {
                    ElemContent::Text(t) => ElemContent::Text(t.clone()),
                    ElemContent::Enclosed(e) => lower_enclosed(sctx, e),
                    ElemContent::Child(e) => ElemContent::Child(lower_expr(sctx, e)),
                })
                .collect(),
        },
        // a computed element with a static name is a direct constructor
        // with one enclosed part, so its content is adopted the same way
        Expr::Computed(Computed::Element {
            name: NameExpr::Static(name),
            content,
        }) => Plan::Element {
            name: name.clone(),
            ns_decls: Vec::new(),
            attrs: Vec::new(),
            children: content.iter().map(|e| lower_enclosed(sctx, e)).collect(),
        },
        Expr::Block(stmts) => Plan::Block(stmts.iter().map(|s| lower_stmt(sctx, s)).collect()),
        Expr::Update(u) => Plan::Update(lower_update(sctx, u)),
        Expr::NodeComp(op, a, b) => Plan::NodeComp(
            *op,
            Box::new(lower_expr(sctx, a)),
            Box::new(lower_expr(sctx, b)),
        ),
        Expr::SetOp(op, a, b) => Plan::SetOp(
            *op,
            Box::new(lower_expr(sctx, a)),
            Box::new(lower_expr(sctx, b)),
        ),
        Expr::Quantified {
            kind,
            bindings,
            satisfies,
        } => Plan::Quantified {
            kind: *kind,
            bindings: lower_bindings(sctx, bindings),
            satisfies: Box::new(lower_expr(sctx, satisfies)),
        },
        Expr::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => Plan::TypeSwitch {
            operand: Box::new(lower_expr(sctx, operand)),
            cases: cases
                .iter()
                .map(|(st, var, body)| (st.clone(), var.clone(), lower_expr(sctx, body)))
                .collect(),
            default_var: default_var.clone(),
            default: Box::new(lower_expr(sctx, default)),
        },
        Expr::InstanceOf(a, st) => Plan::InstanceOf(Box::new(lower_expr(sctx, a)), st.clone()),
        Expr::TreatAs(a, st) => Plan::TreatAs(Box::new(lower_expr(sctx, a)), st.clone()),
        Expr::CastableAs(a, ty, opt) => Plan::CastableAs(Box::new(lower_expr(sctx, a)), *ty, *opt),
        Expr::CastAs(a, ty, opt) => Plan::CastAs(Box::new(lower_expr(sctx, a)), *ty, *opt),
        Expr::Computed(c) => Plan::Computed(lower_computed(sctx, c)),
        Expr::Transform {
            bindings,
            modify,
            ret,
        } => Plan::Transform {
            bindings: lower_bindings(sctx, bindings),
            modify: Box::new(lower_expr(sctx, modify)),
            ret: Box::new(lower_expr(sctx, ret)),
        },
        Expr::FtContains { source, selection } => Plan::FtContains {
            source: Box::new(lower_expr(sctx, source)),
            selection: lower_ft(sctx, selection),
        },
        Expr::Browser(b) => Plan::Browser(lower_browser(sctx, b)),
    }
}

/// An enclosed part of a constructor's content: owned when its plan is
/// fresh, so the constructor adopts its nodes, copied otherwise.
fn lower_enclosed(sctx: &StaticContext, e: &Expr) -> ElemContent<Plan> {
    match lower_expr(sctx, e) {
        p if fresh(&p) => ElemContent::Child(p),
        p => ElemContent::Enclosed(p),
    }
}

/// Whether every node `p` returns was built by that evaluation and can be
/// reached from nothing else — no variable, global or function result —
/// so an enclosing constructor may adopt it instead of copying it. True
/// for a constructor other than `document { }`, a FLWOR whose `return`
/// is fresh, an `if` or `typeswitch` whose branches all are, a sequence of
/// fresh parts, and a plan that returns atomic values only; false for
/// everything else, a variable reference, path or function call included.
fn fresh(p: &Plan) -> bool {
    match p {
        Plan::Element { .. } => true,
        Plan::Computed(c) => !matches!(c, Computed::Document(_)),
        Plan::Flwor { ret, .. } => fresh(ret),
        Plan::If { then, els, .. } => fresh(then) && fresh(els),
        Plan::TypeSwitch { cases, default, .. } => {
            cases.iter().all(|(_, _, body)| fresh(body)) && fresh(default)
        }
        Plan::Seq(parts) => parts.iter().all(fresh),
        Plan::Const(items) => !items.iter().any(Item::is_node),
        Plan::Range(..)
        | Plan::Arith(..)
        | Plan::Neg(_)
        | Plan::ValueComp(..)
        | Plan::GeneralComp(..)
        | Plan::And(..)
        | Plan::Or(..)
        | Plan::Exists { .. }
        | Plan::Count(_)
        | Plan::Not(_)
        | Plan::NodeComp(..)
        | Plan::Quantified { .. }
        | Plan::InstanceOf(..)
        | Plan::CastableAs(..)
        | Plan::CastAs(..)
        | Plan::FtContains { .. } => true,
        _ => false,
    }
}

fn lower_bindings(sctx: &StaticContext, bindings: &[(QName, Expr)]) -> Vec<(QName, Plan)> {
    bindings
        .iter()
        .map(|(var, e)| (var.clone(), lower_expr(sctx, e)))
        .collect()
}

fn lower_name(sctx: &StaticContext, n: &NameExpr) -> NameExpr<Plan> {
    match n {
        NameExpr::Static(q) => NameExpr::Static(q.clone()),
        NameExpr::Dynamic(e) => NameExpr::Dynamic(Box::new(lower_expr(sctx, e))),
    }
}

fn lower_computed(sctx: &StaticContext, c: &Computed) -> Computed<Plan> {
    let low = |e: &Expr| Box::new(lower_expr(sctx, e));
    match c {
        Computed::Element { name, content } => Computed::Element {
            name: lower_name(sctx, name),
            content: content.as_deref().map(low),
        },
        Computed::Attribute { name, content } => Computed::Attribute {
            name: lower_name(sctx, name),
            content: content.as_deref().map(low),
        },
        Computed::Text(e) => Computed::Text(low(e)),
        Computed::Comment(e) => Computed::Comment(low(e)),
        Computed::Pi { target, content } => Computed::Pi {
            target: lower_name(sctx, target),
            content: content.as_deref().map(low),
        },
        Computed::Document(e) => Computed::Document(low(e)),
    }
}

fn lower_ft(sctx: &StaticContext, sel: &FtSelection) -> FtSelection<Plan> {
    let all = |sels: &[FtSelection]| sels.iter().map(|s| lower_ft(sctx, s)).collect();
    match sel {
        FtSelection::Or(sels) => FtSelection::Or(all(sels)),
        FtSelection::And(sels) => FtSelection::And(all(sels)),
        FtSelection::Not(inner) => FtSelection::Not(Box::new(lower_ft(sctx, inner))),
        FtSelection::Words { expr, options } => FtSelection::Words {
            expr: Box::new(lower_expr(sctx, expr)),
            options: *options,
        },
    }
}

fn lower_browser(sctx: &StaticContext, b: &BrowserExpr) -> BrowserExpr<Plan, Rc<ExprPlan>> {
    let low = |e: &Expr| Box::new(lower_expr(sctx, e));
    match b {
        BrowserExpr::Attach {
            event,
            target,
            listener,
        } => BrowserExpr::Attach {
            event: low(event),
            target: low(target),
            listener: listener.clone(),
        },
        BrowserExpr::Behind {
            event,
            call,
            listener,
        } => BrowserExpr::Behind {
            event: low(event),
            call: Rc::new(ExprPlan::lower(sctx, call)),
            listener: listener.clone(),
        },
        BrowserExpr::Detach {
            event,
            target,
            listener,
        } => BrowserExpr::Detach {
            event: low(event),
            target: low(target),
            listener: listener.clone(),
        },
        BrowserExpr::Trigger { event, target } => BrowserExpr::Trigger {
            event: low(event),
            target: low(target),
        },
        BrowserExpr::SetStyle {
            prop,
            target,
            value,
        } => BrowserExpr::SetStyle {
            prop: low(prop),
            target: low(target),
            value: low(value),
        },
        BrowserExpr::GetStyle { prop, target } => BrowserExpr::GetStyle {
            prop: low(prop),
            target: low(target),
        },
    }
}

fn lower_update(sctx: &StaticContext, u: &UpdateExpr) -> UpdateExpr<Plan> {
    let low = |e: &Expr| Box::new(lower_expr(sctx, e));
    match u {
        UpdateExpr::Insert {
            source,
            pos,
            target,
        } => UpdateExpr::Insert {
            source: low(source),
            pos: *pos,
            target: low(target),
        },
        UpdateExpr::Delete(target) => UpdateExpr::Delete(low(target)),
        UpdateExpr::ReplaceNode { target, with } => UpdateExpr::ReplaceNode {
            target: low(target),
            with: low(with),
        },
        UpdateExpr::ReplaceValue { target, with } => UpdateExpr::ReplaceValue {
            target: low(target),
            with: low(with),
        },
        UpdateExpr::Rename { target, name } => UpdateExpr::Rename {
            target: low(target),
            name: lower_name(sctx, name),
        },
    }
}

fn lower_clause(sctx: &StaticContext, c: &FlworClause) -> FlworClause<Plan> {
    match c {
        FlworClause::For { var, at, ty, seq } => FlworClause::For {
            var: var.clone(),
            at: at.clone(),
            ty: ty.clone(),
            seq: lower_expr(sctx, seq),
        },
        FlworClause::Let { var, ty, expr } => FlworClause::Let {
            var: var.clone(),
            ty: ty.clone(),
            expr: lower_expr(sctx, expr),
        },
        FlworClause::Where(cond) => FlworClause::Where(lower_expr(sctx, cond)),
        FlworClause::OrderBy { specs, stable } => FlworClause::OrderBy {
            specs: specs
                .iter()
                .map(|s| OrderSpec {
                    key: lower_expr(sctx, &s.key),
                    descending: s.descending,
                    empty_least: s.empty_least,
                })
                .collect(),
            stable: *stable,
        },
    }
}

/// True if `name(#arity)` resolves to the `fn:` built-in: right namespace
/// and not shadowed by a user/module declaration. The `fn:` namespace is
/// reserved (natives register under `browser:`), so this is a static fact.
fn is_fn_builtin(sctx: &StaticContext, name: &QName, arity: usize) -> bool {
    name.ns.as_deref() == Some(FN_NS) && sctx.lookup_function(name, arity).is_none()
}

fn lower_call(sctx: &StaticContext, name: &QName, args: &[Expr]) -> Plan {
    if is_fn_builtin(sctx, name, args.len())
        && args.len() == 1
        && matches!(&*name.local, "exists" | "empty" | "count" | "not")
    {
        let arg = lower_expr(sctx, &args[0]);
        return match &*name.local {
            "exists" => fold_exists(arg, false),
            "empty" => fold_exists(arg, true),
            "count" => fold_count(arg),
            _ => fold_not(arg),
        };
    }
    Plan::Call {
        name: name.clone(),
        args: args.iter().map(|a| lower_expr(sctx, a)).collect(),
        builtin: is_fn_builtin(sctx, name, args.len()),
    }
}

// ---------------------------------------------------------------------------
// path lowering: fusion, pushdown, streaming analysis
// ---------------------------------------------------------------------------

/// Static ordering facts about the node sequence flowing between steps,
/// assuming the path start resolves to at most one item (the executor
/// checks that at run time and falls back to eager evaluation otherwise).
#[derive(Clone, Copy)]
struct Inv {
    /// document order, duplicate-free
    ordered: bool,
    /// additionally pairwise non-nested (no node contains another)
    disjoint: bool,
    /// at most one node
    one: bool,
}

/// Can per-node output of `axis` be concatenated in input order without a
/// sort barrier?
fn step_streamable(inv: Inv, axis: Axis) -> bool {
    if inv.one {
        // a single context node emits every axis in (possibly reversed)
        // document order with no duplicates — mirrors the oracle's
        // single-input sort elision
        return true;
    }
    if inv.ordered && inv.disjoint {
        // subtree-confined axes over ordered, non-nested inputs
        return crate::eval::path::axis_concat_stays_sorted(axis);
    }
    if inv.ordered {
        // attributes sit between their owner and its children, so even
        // nested (but ordered, duplicate-free) inputs concatenate sorted;
        // self is a subset
        return matches!(axis, Axis::Attribute | Axis::SelfAxis);
    }
    false
}

fn step_out_inv(inv: Inv, axis: Axis, streamed: bool, has_take: bool) -> Inv {
    let out = if !streamed {
        // barrier: sort_dedup leaves order without the non-nesting fact
        Inv {
            ordered: true,
            disjoint: false,
            one: false,
        }
    } else {
        match axis {
            Axis::SelfAxis => inv,
            Axis::Child | Axis::Attribute | Axis::FollowingSibling | Axis::PrecedingSibling => {
                Inv {
                    ordered: true,
                    disjoint: true,
                    one: false,
                }
            }
            Axis::Parent => Inv {
                ordered: true,
                disjoint: true,
                one: inv.one,
            },
            Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Following
            | Axis::Preceding => Inv {
                ordered: true,
                disjoint: false,
                one: false,
            },
        }
    };
    if inv.one && has_take {
        // a positional take keeps at most one survivor per context node
        Inv {
            ordered: true,
            disjoint: true,
            one: true,
        }
    } else {
        out
    }
}

fn lower_path(sctx: &StaticContext, start: PathStart, steps: &[StepExpr]) -> Plan {
    // `//t` parses as RootDescendant; materialize the d-o-s step so the
    // fusion pass below sees the same shape as an explicit `/descendant-
    // or-self::node()/child::t`.
    let dos = StepExpr::Axis(AxisStep {
        axis: Axis::DescendantOrSelf,
        test: NodeTest::Kind(KindTest::AnyKind),
        predicates: vec![],
    });
    let mut ast_steps: Vec<&StepExpr> = Vec::with_capacity(steps.len() + 1);
    let start_plan = match start {
        PathStart::Root => PathStartPlan::Root,
        PathStart::RootDescendant => {
            ast_steps.push(&dos);
            PathStartPlan::Root
        }
        PathStart::Relative => PathStartPlan::Relative,
    };
    ast_steps.extend(steps);

    let mut plan_steps: Vec<PlanStep> = Vec::with_capacity(ast_steps.len());
    let mut lazy = true;
    // optimistic: the start is at most one item (verified at run time)
    let mut inv = Inv {
        ordered: true,
        disjoint: true,
        one: true,
    };
    let mut idx = 0;
    while idx < ast_steps.len() {
        match ast_steps[idx] {
            StepExpr::Filter {
                primary,
                predicates,
            } => {
                let leading = idx == 0 && start_plan == PathStartPlan::Relative;
                if !leading {
                    // a mid-path filter step is an eager barrier with
                    // arbitrary (fallible) primaries — no lazy evaluation
                    lazy = false;
                    inv = Inv {
                        ordered: false,
                        disjoint: false,
                        one: false,
                    };
                }
                // a leading filter is consumed while resolving the start,
                // before the pipeline emits anything, so it keeps the
                // optimistic invariant
                plan_steps.push(PlanStep::Filter {
                    primary: lower_expr(sctx, primary),
                    preds: predicates.iter().map(|p| lower_pred(sctx, p)).collect(),
                });
            }
            StepExpr::Axis(ax) => {
                // fusion: d-o-s::node() (no predicates) + child::t[preds]
                // → descendant::t[preds], valid only when the child step's
                // predicates are position-free (`//x[1]` groups positions
                // per d-o-s node and must not fuse)
                let mut axis = ax.axis;
                let mut test = &ax.test;
                let mut predicates = &ax.predicates;
                if ax.axis == Axis::DescendantOrSelf
                    && matches!(ax.test, NodeTest::Kind(KindTest::AnyKind))
                    && ax.predicates.is_empty()
                {
                    if let Some(StepExpr::Axis(next)) = ast_steps.get(idx + 1).copied() {
                        if next.axis == Axis::Child
                            && next.predicates.iter().all(|p| is_positional_free(sctx, p))
                        {
                            axis = Axis::Descendant;
                            test = &next.test;
                            predicates = &next.predicates;
                            idx += 1;
                        }
                    }
                }
                let stages = lower_stages(sctx, predicates);
                if !stages.iter().all(|s| s.infallible()) {
                    lazy = false;
                }
                let streamed = step_streamable(inv, axis);
                let has_take = stages.iter().any(|s| matches!(s, PredStage::Take(_)));
                inv = step_out_inv(inv, axis, streamed, has_take);
                plan_steps.push(PlanStep::Axis(PlanAxisStep {
                    axis,
                    test: test.clone(),
                    stages,
                    streamed,
                }));
            }
        }
        idx += 1;
    }

    Plan::Path(PathPlan {
        start: start_plan,
        steps: plan_steps,
        lazy,
    })
}

fn lower_stages(sctx: &StaticContext, preds: &[Expr]) -> Vec<PredStage> {
    let mut stages = Vec::with_capacity(preds.len());
    let mut i = 0;
    while i < preds.len() {
        let p = &preds[i];
        if let Some(t) = static_positional_take(sctx, p) {
            stages.push(PredStage::Take(t));
            i += 1;
            continue;
        }
        if let Some((name, value)) = attr_eq_pattern(p) {
            i += 1;
            stages.push(match value {
                EqOperand::Lit(value) => PredStage::AttrEq { name, value },
                EqOperand::Var(var) => PredStage::AttrEqVar {
                    name,
                    var,
                    pred: lower_pred(sctx, p),
                },
            });
            continue;
        }
        let lowered = lower_pred(sctx, p);
        if lowered.positional_free {
            stages.push(PredStage::Filter(lowered));
            i += 1;
            continue;
        }
        // first positional predicate: everything from here on needs true
        // positions over the surviving candidate list
        stages.push(PredStage::General(
            preds[i..].iter().map(|p| lower_pred(sctx, p)).collect(),
        ));
        break;
    }
    stages
}

fn lower_pred(sctx: &StaticContext, e: &Expr) -> PlanPred {
    let take = static_positional_take(sctx, e);
    let positional_free = is_positional_free(sctx, e);
    let plan = lower_expr(sctx, e);
    let infallible = plan_infallible(&plan);
    PlanPred {
        plan,
        take,
        positional_free,
        infallible,
    }
}

/// The other side of an attribute-equality predicate.
enum EqOperand {
    Lit(Rc<str>),
    Var(QName),
}

/// `[@name = "literal"]` or `[@name = $var]` (either operand order):
/// answered by a direct attribute-table probe. Matches the oracle
/// exactly: the attribute atomizes to untyped, which a general comparison
/// against a string, untyped or `xs:anyURI` item casts to that item's type
/// — plain string equality against any of the items, and an absent
/// attribute is `false`. A variable's items are only known at run time, so
/// the executor checks them before probing.
fn attr_eq_pattern(e: &Expr) -> Option<(QName, EqOperand)> {
    let Expr::GeneralComp(CompOp::Eq, l, r) = e else {
        return None;
    };
    let operand = |e: &Expr| match e {
        Expr::Literal(Atomic::String(s)) => Some(EqOperand::Lit(s.clone())),
        Expr::VarRef(v) => Some(EqOperand::Var(v.clone())),
        _ => None,
    };
    if let (Some(q), Some(v)) = (attr_step(l), operand(r)) {
        return Some((q, v));
    }
    if let (Some(q), Some(v)) = (attr_step(r), operand(l)) {
        return Some((q, v));
    }
    None
}

fn attr_step(e: &Expr) -> Option<QName> {
    let Expr::Path { start, steps } = e else {
        return None;
    };
    if *start != PathStart::Relative || steps.len() != 1 {
        return None;
    }
    match &steps[0] {
        StepExpr::Axis(AxisStep {
            axis: Axis::Attribute,
            test: NodeTest::Name(q),
            predicates,
        }) if predicates.is_empty() => Some(q.clone()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// static analyses
// ---------------------------------------------------------------------------

/// A predicate is position-free when its truth value per candidate cannot
/// depend on `position()`/`last()` and cannot be a numeric position test:
/// it must be statically boolean-valued *and* never read the focus position.
fn is_positional_free(sctx: &StaticContext, e: &Expr) -> bool {
    boolean_valued(sctx, e) && focus_position_free(sctx, e)
}

/// Conservatively: does this expression always produce a value whose
/// predicate truth is the effective boolean value (never a numeric
/// singleton that would become a position test)?
fn boolean_valued(sctx: &StaticContext, e: &Expr) -> bool {
    match e {
        Expr::ValueComp(..)
        | Expr::GeneralComp(..)
        | Expr::NodeComp(..)
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Quantified { .. }
        | Expr::InstanceOf(..)
        | Expr::CastableAs(..)
        | Expr::FtContains { .. } => true,
        Expr::Literal(Atomic::Boolean(_) | Atomic::String(_)) => true,
        // node-set operators and paths ending in an axis step yield nodes
        // only — node sequences always take the EBV
        Expr::SetOp(..) => true,
        Expr::Path { steps, .. } => matches!(steps.last(), Some(StepExpr::Axis(_))),
        Expr::If { then, els, .. } => boolean_valued(sctx, then) && boolean_valued(sctx, els),
        Expr::FunctionCall { name, args } if is_fn_builtin(sctx, name, args.len()) => {
            matches!(
                &*name.local,
                "exists"
                    | "empty"
                    | "not"
                    | "boolean"
                    | "contains"
                    | "starts-with"
                    | "ends-with"
                    | "matches"
            )
        }
        _ => false,
    }
}

/// Conservatively: is this expression's value independent of the *focus
/// position* (`position()`/`last()`)? Nested step predicates rebind the
/// focus and are skipped; user-declared functions may read the caller's
/// focus and natives are opaque, so both reject.
fn focus_position_free(sctx: &StaticContext, e: &Expr) -> bool {
    let rec = |x: &Expr| focus_position_free(sctx, x);
    match e {
        Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem => true,
        Expr::Sequence(es) => es.iter().all(rec),
        Expr::Range(a, b)
        | Expr::Arith(_, a, b)
        | Expr::ValueComp(_, a, b)
        | Expr::GeneralComp(_, a, b)
        | Expr::NodeComp(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::SetOp(_, a, b) => rec(a) && rec(b),
        Expr::Neg(a)
        | Expr::InstanceOf(a, _)
        | Expr::TreatAs(a, _)
        | Expr::CastableAs(a, _, _)
        | Expr::CastAs(a, _, _) => rec(a),
        Expr::If { cond, then, els } => rec(cond) && rec(then) && rec(els),
        Expr::Quantified {
            bindings,
            satisfies,
            ..
        } => bindings.iter().all(|(_, s)| rec(s)) && rec(satisfies),
        Expr::Flwor { clauses, ret } => {
            clauses.iter().all(|c| match c {
                FlworClause::For { seq, .. } => rec(seq),
                FlworClause::Let { expr, .. } => rec(expr),
                FlworClause::Where(cond) => rec(cond),
                FlworClause::OrderBy { specs, .. } => specs.iter().all(|s| rec(&s.key)),
            }) && rec(ret)
        }
        Expr::Path { steps, .. } => steps.iter().all(|s| match s {
            // axis steps carry no focus-reading expressions of their own;
            // their predicates get a fresh focus
            StepExpr::Axis(_) => true,
            StepExpr::Filter { primary, .. } => rec(primary),
        }),
        Expr::FunctionCall { name, args } => {
            if !is_fn_builtin(sctx, name, args.len()) {
                return false;
            }
            if args.is_empty() && matches!(&*name.local, "position" | "last") {
                return false;
            }
            args.iter().all(rec)
        }
        _ => false,
    }
}

/// Value classes for deciding whether a comparison can raise a type or
/// cast error. Nodes atomize to untyped in this (untyped) instantiation.
#[derive(PartialEq, Eq, Clone, Copy)]
enum ValClass {
    Empty,
    StrLike,
    Num,
    Bool,
    Other,
}

fn plan_class(p: &Plan) -> ValClass {
    match p {
        Plan::Const(seq) => {
            if seq.is_empty() {
                return ValClass::Empty;
            }
            let mut class: Option<ValClass> = None;
            for item in seq {
                let c = match item {
                    Item::Atomic(Atomic::String(_) | Atomic::Untyped(_)) => ValClass::StrLike,
                    Item::Atomic(a) if a.is_numeric() => ValClass::Num,
                    Item::Atomic(Atomic::Boolean(_)) => ValClass::Bool,
                    _ => ValClass::Other,
                };
                match class {
                    None => class = Some(c),
                    Some(prev) if prev == c => {}
                    Some(_) => return ValClass::Other,
                }
            }
            class.unwrap_or(ValClass::Other)
        }
        Plan::Path(pp) => {
            if yields_nodes_only(pp) {
                ValClass::StrLike
            } else {
                ValClass::Other
            }
        }
        Plan::Exists { .. } | Plan::Not(_) => ValClass::Bool,
        Plan::Count(_) => ValClass::Num,
        _ => ValClass::Other,
    }
}

fn yields_nodes_only(pp: &PathPlan) -> bool {
    match pp.steps.last() {
        Some(PlanStep::Axis(_)) => true,
        Some(PlanStep::Filter { .. }) => false,
        None => pp.start == PathStartPlan::Root,
    }
}

/// Comparing these two classes (after untyped promotion) can never raise:
/// strings/untyped compare as strings, numerics via double (NaN maps to a
/// boolean, not an error), booleans directly. Anything mixed can need a
/// cast or is a type error.
fn comparable_infallible(a: ValClass, b: ValClass) -> bool {
    a == ValClass::Empty || b == ValClass::Empty || (a == b && a != ValClass::Other)
}

/// At most one item, statically.
fn at_most_one(p: &Plan) -> bool {
    match p {
        Plan::Const(seq) => seq.len() <= 1,
        Plan::ContextItem | Plan::Exists { .. } | Plan::Not(_) | Plan::Count(_) => true,
        _ => false,
    }
}

/// Can taking the effective boolean value of this plan's result raise
/// `FORG0006`?
pub(crate) fn ebv_safe(p: &Plan) -> bool {
    match p {
        Plan::Const(seq) => effective_boolean_value(seq).is_ok(),
        Plan::Path(pp) => yields_nodes_only(pp),
        Plan::ValueComp(..)
        | Plan::GeneralComp(..)
        | Plan::And(..)
        | Plan::Or(..)
        | Plan::Exists { .. }
        | Plan::Not(_)
        | Plan::Count(_) => true,
        Plan::If { then, els, .. } => ebv_safe(then) && ebv_safe(els),
        _ => false,
    }
}

/// Conservatively: evaluated with a *node* focus (predicate context), can
/// this plan raise any dynamic error besides fuel exhaustion?
pub(crate) fn plan_infallible(p: &Plan) -> bool {
    match p {
        Plan::Const(_) | Plan::ContextItem => true,
        Plan::Seq(ps) => ps.iter().all(plan_infallible),
        Plan::Path(pp) => {
            pp.start == PathStartPlan::Root
                || pp.steps.iter().all(|s| match s {
                    PlanStep::Axis(ax) => ax.stages.iter().all(|st| st.infallible()),
                    PlanStep::Filter { .. } => false,
                })
        }
        Plan::GeneralComp(_, l, r) => {
            plan_infallible(l)
                && plan_infallible(r)
                && comparable_infallible(plan_class(l), plan_class(r))
        }
        Plan::ValueComp(_, l, r) => {
            plan_infallible(l)
                && plan_infallible(r)
                && comparable_infallible(plan_class(l), plan_class(r))
                && at_most_one(l)
                && at_most_one(r)
        }
        Plan::And(l, r) | Plan::Or(l, r) => {
            plan_infallible(l) && plan_infallible(r) && ebv_safe(l) && ebv_safe(r)
        }
        Plan::Exists { src, .. } | Plan::Count(src) => plan_infallible(src),
        Plan::Not(src) => plan_infallible(src) && ebv_safe(src),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// constant folding (success-only: dynamic errors stay dynamic)
// ---------------------------------------------------------------------------

/// The arithmetic operand rule over a constant sequence. `Err(())` means
/// "cannot fold" (the oracle would raise or the shape is unexpected).
fn const_atomic(seq: &Sequence) -> Result<Option<Atomic>, ()> {
    match seq.len() {
        0 => Ok(None),
        1 => match &seq[0] {
            Item::Atomic(a) => Ok(Some(a.clone())),
            Item::Node(_) => Err(()),
        },
        _ => Err(()),
    }
}

fn fold_seq(parts: Vec<Plan>) -> Plan {
    if parts.len() == 1 {
        return parts.into_iter().next().expect("len checked");
    }
    if parts.iter().all(|p| matches!(p, Plan::Const(_))) {
        let mut out = Vec::new();
        for p in parts {
            let Plan::Const(seq) = p else { unreachable!() };
            out.extend(seq);
        }
        return Plan::Const(out);
    }
    Plan::Seq(parts)
}

/// Ranges fold only when small: `1 to 1000000` stays a plan node the
/// executor streams without materializing.
const MAX_FOLDED_RANGE: i64 = 1024;

fn fold_range(l: Plan, r: Plan) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        if let (Ok(x), Ok(y)) = (const_atomic(a), const_atomic(b)) {
            match range_bounds(x, y) {
                Ok(None) => return Plan::Const(vec![]),
                Ok(Some((lo, hi))) if hi - lo < MAX_FOLDED_RANGE => {
                    return Plan::Const((lo..=hi).map(Item::integer).collect())
                }
                _ => {}
            }
        }
    }
    Plan::Range(Box::new(l), Box::new(r))
}

fn fold_arith(op: ArithOp, l: Plan, r: Plan) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        match (const_atomic(a), const_atomic(b)) {
            (Ok(None), Ok(_)) | (Ok(Some(_)), Ok(None)) => return Plan::Const(vec![]),
            (Ok(Some(x)), Ok(Some(y))) => {
                if let Ok(v) = apply_arith(op, &x, &y) {
                    return Plan::Const(vec![Item::Atomic(v)]);
                }
            }
            _ => {}
        }
    }
    Plan::Arith(op, Box::new(l), Box::new(r))
}

fn fold_neg(inner: Plan) -> Plan {
    if let Plan::Const(a) = &inner {
        if let Ok(v) = const_atomic(a) {
            if let Ok(seq) = neg_atomic(v) {
                return Plan::Const(seq);
            }
        }
    }
    Plan::Neg(Box::new(inner))
}

fn fold_value_comp(op: CompOp, l: Plan, r: Plan) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        if a.is_empty() || b.is_empty() {
            return Plan::Const(vec![]);
        }
        if let (Ok(Some(x)), Ok(Some(y))) = (const_atomic(a), const_atomic(b)) {
            // literals are never untyped, so no promotion step is needed
            if !matches!(x, Atomic::Untyped(_)) && !matches!(y, Atomic::Untyped(_)) {
                if let Ok(v) = value_compare(op, &x, &y) {
                    return Plan::Const(vec![Item::boolean(v)]);
                }
            }
        }
    }
    Plan::ValueComp(op, Box::new(l), Box::new(r))
}

fn fold_general_comp(op: CompOp, l: Plan, r: Plan) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        let atoms = |seq: &Sequence| -> Option<Vec<Atomic>> {
            seq.iter()
                .map(|i| match i {
                    Item::Atomic(a) => Some(a.clone()),
                    Item::Node(_) => None,
                })
                .collect()
        };
        if let (Some(xs), Some(ys)) = (atoms(a), atoms(b)) {
            if let Ok(v) = general_compare(op, &xs, &ys) {
                return Plan::Const(vec![Item::boolean(v)]);
            }
        }
    }
    Plan::GeneralComp(op, Box::new(l), Box::new(r))
}

fn fold_and(l: Plan, r: Plan) -> Plan {
    if let Plan::Const(a) = &l {
        match effective_boolean_value(a) {
            // short-circuit exactly like the oracle: a false left
            // operand means the right is never evaluated
            Ok(false) => return Plan::Const(vec![Item::boolean(false)]),
            Ok(true) => {
                if let Plan::Const(b) = &r {
                    if let Ok(v) = effective_boolean_value(b) {
                        return Plan::Const(vec![Item::boolean(v)]);
                    }
                }
            }
            Err(_) => {}
        }
    }
    Plan::And(Box::new(l), Box::new(r))
}

fn fold_or(l: Plan, r: Plan) -> Plan {
    if let Plan::Const(a) = &l {
        match effective_boolean_value(a) {
            Ok(true) => return Plan::Const(vec![Item::boolean(true)]),
            Ok(false) => {
                if let Plan::Const(b) = &r {
                    if let Ok(v) = effective_boolean_value(b) {
                        return Plan::Const(vec![Item::boolean(v)]);
                    }
                }
            }
            Err(_) => {}
        }
    }
    Plan::Or(Box::new(l), Box::new(r))
}

fn fold_if(cond: Plan, then: Plan, els: Plan) -> Plan {
    if let Plan::Const(c) = &cond {
        if let Ok(b) = effective_boolean_value(c) {
            // the untaken branch is never evaluated by the oracle
            // either, so dropping it cannot elide an error
            return if b { then } else { els };
        }
    }
    Plan::If {
        cond: Box::new(cond),
        then: Box::new(then),
        els: Box::new(els),
    }
}

fn fold_exists(src: Plan, negate: bool) -> Plan {
    if let Plan::Const(seq) = &src {
        return Plan::Const(vec![Item::boolean(seq.is_empty() == negate)]);
    }
    Plan::Exists {
        src: Box::new(src),
        negate,
    }
}

fn fold_count(src: Plan) -> Plan {
    if let Plan::Const(seq) = &src {
        return Plan::Const(vec![Item::integer(seq.len() as i64)]);
    }
    Plan::Count(Box::new(src))
}

fn fold_not(src: Plan) -> Plan {
    if let Plan::Const(seq) = &src {
        if let Ok(b) = effective_boolean_value(seq) {
            return Plan::Const(vec![Item::boolean(!b)]);
        }
    }
    Plan::Not(Box::new(src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime;

    fn plan_of(src: &str) -> CompiledPlan {
        lower(&runtime::compile(src).expect("compiles"))
    }

    fn body_plan(p: &CompiledPlan) -> &Plan {
        match p.body.first().expect("one statement") {
            PlanStmt::Expr(plan) => plan,
            _ => panic!("expected an expression statement"),
        }
    }

    #[test]
    fn folds_literal_arithmetic() {
        let p = plan_of("1 + 2 * 3");
        match body_plan(&p) {
            Plan::Const(seq) => {
                assert_eq!(seq.len(), 1);
                assert!(matches!(&seq[0], Item::Atomic(Atomic::Integer(7))));
            }
            _ => panic!("expected a folded constant"),
        }
    }

    #[test]
    fn division_by_zero_stays_dynamic() {
        let p = plan_of("1 div 0");
        assert!(
            matches!(body_plan(&p), Plan::Arith(..)),
            "folding must not swallow the runtime error"
        );
    }

    #[test]
    fn fuses_descendant_child() {
        let p = plan_of("//item");
        match body_plan(&p) {
            Plan::Path(pp) => {
                assert_eq!(pp.steps.len(), 1);
                match &pp.steps[0] {
                    PlanStep::Axis(ax) => assert_eq!(ax.axis, Axis::Descendant),
                    _ => panic!("expected an axis step"),
                }
                assert!(pp.lazy);
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn positional_predicate_blocks_fusion() {
        let p = plan_of("//item[1]");
        let Plan::Path(pp) = body_plan(&p) else {
            panic!("expected a path");
        };
        assert_eq!(
            pp.steps.len(),
            2,
            "`//x[1]` groups positions per d-o-s node; fusing would change the result"
        );
    }

    #[test]
    fn attr_eq_predicate_becomes_probe_stage() {
        let p = plan_of("//item[@id = \"x\"]");
        match body_plan(&p) {
            Plan::Path(pp) => {
                assert!(pp.lazy);
                let PlanStep::Axis(ax) = &pp.steps[0] else {
                    panic!("axis step");
                };
                assert!(matches!(ax.stages[0], PredStage::AttrEq { .. }));
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn exists_lowered_to_early_exit_node() {
        let p = plan_of("exists(//a)");
        assert!(matches!(body_plan(&p), Plan::Exists { negate: false, .. }));
        let p = plan_of("empty(//a)");
        assert!(matches!(body_plan(&p), Plan::Exists { negate: true, .. }));
    }

    #[test]
    fn shadowed_builtin_is_not_fused() {
        let p = plan_of(
            "declare namespace f = \"http://www.w3.org/2005/xpath-functions\";\n\
             declare function f:exists($x) { 42 };\n\
             f:exists(//a)",
        );
        assert!(
            matches!(body_plan(&p), Plan::Call { builtin: false, .. }),
            "a user-declared fn:exists must go through the generic call path"
        );
        let p = plan_of("concat('a', 'b')");
        assert!(
            matches!(body_plan(&p), Plan::Call { builtin: true, .. }),
            "an unshadowed fn: name resolves to the built-in at lowering"
        );
    }

    #[test]
    fn position_free_comparison_streams_under_filter_stage() {
        let p = plan_of("//entry[author = \"Kim\"]");
        match body_plan(&p) {
            Plan::Path(pp) => {
                assert!(pp.lazy, "string-vs-node comparison is infallible");
                let PlanStep::Axis(ax) = &pp.steps[0] else {
                    panic!("axis step");
                };
                match &ax.stages[0] {
                    PredStage::Filter(pred) => {
                        assert!(pred.positional_free);
                        assert!(pred.infallible);
                    }
                    _ => panic!("expected a filter stage"),
                }
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn arithmetic_predicate_is_not_lazy() {
        // `@n + 1` can raise FORG0001 per candidate — the whole path must
        // stay eager so error order matches the interpreter
        let p = plan_of("//entry[@n + 1 = 2]");
        match body_plan(&p) {
            Plan::Path(pp) => assert!(!pp.lazy),
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn position_call_is_not_position_free() {
        let p = plan_of("//entry[position() = 2]");
        match body_plan(&p) {
            Plan::Path(pp) => {
                let PlanStep::Axis(ax) = pp.steps.last().expect("step") else {
                    panic!("axis step");
                };
                assert!(matches!(ax.stages[0], PredStage::General(_)));
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn if_with_constant_condition_picks_branch() {
        let p = plan_of("if (1 = 1) then \"a\" else (1 div 0)");
        match body_plan(&p) {
            Plan::Const(seq) => assert_eq!(seq.len(), 1),
            _ => panic!("constant condition should fold"),
        }
    }

    #[test]
    fn blocks_and_updates_lower_with_plan_parts() {
        let p = plan_of(
            "{ declare variable $x := 1; insert node <a/> into //b; set $x := 2; \
             rename node //c[1] as 'd'; $x }",
        );
        let Plan::Block(stmts) = body_plan(&p) else {
            panic!("expected a block plan");
        };
        assert_eq!(stmts.len(), 5);
        let PlanStmt::Expr(Plan::Update(UpdateExpr::Insert { source, target, .. })) = &stmts[1]
        else {
            panic!("expected a lowered insert");
        };
        assert!(matches!(**source, Plan::Element { .. }));
        assert!(matches!(**target, Plan::Path(_)));
    }

    #[test]
    fn declared_function_bodies_are_lowered_once_with_their_declarations() {
        let q = runtime::compile(
            "declare function local:f($x as xs:integer) { { $x + 1 } }; local:f(1)",
        )
        .expect("compiles");
        let p = lower(&q);
        let decl = p.sctx.functions.values().next().expect("one declaration");
        let body = decl.plan.as_ref().expect("body lowered");
        assert!(matches!(body.plan, Plan::Block(_)));
        // lowering the lowered context again is free: the same context
        assert!(Rc::ptr_eq(&lower_functions(&p.sctx), &p.sctx));
        // the compile-time context stays unlowered for the interpreter
        assert!(q.sctx.functions.values().all(|d| d.plan.is_none()));
    }

    #[test]
    fn variable_attr_eq_becomes_probe_stage_but_not_lazy() {
        let p = plan_of("let $v := \"x\" return //item[@id = $v]");
        let Plan::Flwor { ret, .. } = body_plan(&p) else {
            panic!("expected a FLWOR");
        };
        let Plan::Path(pp) = &**ret else {
            panic!("expected a path");
        };
        assert!(!pp.lazy, "the predicate as written can raise");
        let PlanStep::Axis(ax) = &pp.steps[0] else {
            panic!("axis step");
        };
        assert!(matches!(ax.stages[0], PredStage::AttrEqVar { .. }));
    }

    #[test]
    fn xquery_1_forms_lower_to_mirroring_nodes() {
        let lowers =
            |src: &str, to: fn(&Plan) -> bool| assert!(to(body_plan(&plan_of(src))), "{src}");
        lowers("element {'a'} {1}", |p| {
            matches!(p, Plan::Computed(Computed::Element { .. }))
        });
        lowers(
            "element a {<b/>}",
            |p| matches!(p, Plan::Element { children, .. } if matches!(children[..], [ElemContent::Child(_)])),
        );
        lowers("(//a) intersect (//b)", |p| {
            matches!(p, Plan::SetOp(SetOp::Intersect, ..))
        });
        lowers("every $x in (1, 2) satisfies $x", |p| {
            matches!(
                p,
                Plan::Quantified {
                    kind: Quantifier::Every,
                    ..
                }
            )
        });
        lowers("//a instance of element()*", |p| {
            matches!(p, Plan::InstanceOf(..))
        });
        lowers("//a ftcontains 'x'", |p| {
            matches!(p, Plan::FtContains { .. })
        });
    }

    #[test]
    fn behind_call_is_lowered_once_with_its_statement() {
        let p = plan_of(r#"on event "e" behind browser:httpGet("u") attach listener local:f"#);
        let Plan::Browser(BrowserExpr::Behind { call, .. }) = body_plan(&p) else {
            panic!("expected a lowered behind statement");
        };
        assert!(matches!(call.plan, Plan::Call { .. }));
    }

    #[test]
    fn direct_constructor_lowers_its_enclosed_parts() {
        let p = plan_of("<a id=\"{1 + 1}\"><b>{//item}</b>{element c {}}</a>");
        let Plan::Element {
            attrs, children, ..
        } = body_plan(&p)
        else {
            panic!("expected an element plan");
        };
        assert!(matches!(
            attrs[0].1[0],
            AttrContent::Enclosed(Plan::Const(_))
        ));
        let ElemContent::Child(Plan::Element {
            children: inner, ..
        }) = &children[0]
        else {
            panic!("nested constructors lower recursively");
        };
        let ElemContent::Enclosed(Plan::Path(pp)) = &inner[0] else {
            panic!("enclosed path lowers to a path plan");
        };
        assert!(
            matches!(&pp.steps[..], [PlanStep::Axis(ax)] if ax.axis == Axis::Descendant),
            "`//item` fuses to one descendant step"
        );
        assert!(
            matches!(children[1], ElemContent::Child(Plan::Element { .. })),
            "a computed element is fresh content, owned by its parent, and \
             with a static name lowers like a direct one"
        );
    }

    /// Enclosed content the analysis proves fresh lowers to owned content;
    /// anything a variable, path or call could also reach stays copied.
    #[test]
    fn only_fresh_enclosed_content_is_owned() {
        let owned = |content: &str| {
            let p = plan_of(&format!("let $c := <c/> return <a>{{{content}}}</a>"));
            let Plan::Flwor { ret, .. } = body_plan(&p) else {
                panic!("expected a FLWOR");
            };
            let Plan::Element { children, .. } = &**ret else {
                panic!("expected an element plan");
            };
            matches!(children[..], [ElemContent::Child(_)])
        };
        for fresh in [
            "<b/>",
            "element b {}",
            "text {1}",
            "comment {'x'}",
            "attribute b {1}",
            "(<b/>, 1 + 1, <d/>)",
            "for $i in 1 to 3 order by -$i return <b>{$i}</b>",
            "let $x := $c return <b>{$x}</b>",
            "if ($c) then <b/> else 'none'",
            "typeswitch ($c) case element() return <b/> default return ()",
            "count($c)",
        ] {
            assert!(owned(fresh), "`{fresh}` is fresh");
        }
        for shared in [
            "$c",
            "($c, <b/>)",
            "$c/self::c",
            "for $i in 1 to 3 return $c",
            "if (1) then $c else <b/>",
            "typeswitch ($c) case $e as element() return $e default return <b/>",
            "document { <b/> }",
            "fn:root($c)",
            "copy $d := $c modify () return $d",
        ] {
            assert!(!owned(shared), "`{shared}` is not fresh");
        }
    }
}
