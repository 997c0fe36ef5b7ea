//! Abstract syntax for XQuery 1.0 plus the Update Facility, the Scripting
//! Extension, Full-Text, and the paper's browser extensions (§4.3–4.5).

use std::rc::Rc;

use xqib_dom::QName;
use xqib_xdm::{Atomic, CompOp, SequenceType, TypeName};

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

/// Node-set operators (`union`/`|`, `intersect`, `except`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// Node comparison operators (`is`, `<<`, `>>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeCompOp {
    Is,
    Precedes,
    Follows,
}

/// XPath axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    Attribute,
    SelfAxis,
    DescendantOrSelf,
    FollowingSibling,
    Following,
    Parent,
    Ancestor,
    PrecedingSibling,
    Preceding,
    AncestorOrSelf,
}

/// Node tests within a step.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// `*`
    AnyName,
    /// `name` / `p:name`
    Name(QName),
    /// `p:*`
    NsWildcard(String),
    /// `*:local`
    LocalWildcard(String),
    /// kind tests: `node()`, `text()`, `element(x)?`, …
    Kind(KindTest),
}

/// Kind tests.
#[derive(Debug, Clone, PartialEq)]
pub enum KindTest {
    AnyKind,
    Text,
    Comment,
    Pi(Option<String>),
    Element(Option<QName>),
    Attribute(Option<QName>),
    Document,
}

/// An axis step: `axis::test[preds]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
}

/// One step in a relative path.
#[derive(Debug, Clone, PartialEq)]
pub enum StepExpr {
    Axis(AxisStep),
    /// A primary expression used as a step (e.g. `$doc/foo`, `id("x")/bar`),
    /// with trailing predicates.
    Filter {
        primary: Box<Expr>,
        predicates: Vec<Expr>,
    },
}

/// How a path starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStart {
    /// `/...` — from the root of the context node's tree.
    Root,
    /// `//...`
    RootDescendant,
    /// relative path
    Relative,
}

/// FLWOR clauses. `E` is the expression form of their parts: the AST's
/// [`Expr`], or a lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FlworClause<E = Expr> {
    For {
        var: QName,
        at: Option<QName>,
        ty: Option<SequenceType>,
        seq: E,
    },
    Let {
        var: QName,
        ty: Option<SequenceType>,
        expr: E,
    },
    Where(E),
    OrderBy {
        specs: Vec<OrderSpec<E>>,
        stable: bool,
    },
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec<E = Expr> {
    pub key: E,
    pub descending: bool,
    pub empty_least: bool,
}

/// `some`/`every` quantifier kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    Some,
    Every,
}

/// Content of a direct element constructor. `E` is the expression form of
/// the enclosed parts: the AST's [`Expr`], or a lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemContent<E = Expr> {
    /// literal character data
    Text(String),
    /// `{ expr }`: its nodes are copied into the element
    Enclosed(E),
    /// owned content, whose nodes are adopted as they are: a nested
    /// direct element, comment or PI constructor, or (in a plan) enclosed
    /// content the lowering proved fresh
    Child(E),
}

/// Content of an attribute value template: literal and enclosed parts.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrContent<E = Expr> {
    Text(String),
    Enclosed(E),
}

/// Insert positions of the Update Facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPos {
    Into,
    AsFirstInto,
    AsLastInto,
    Before,
    After,
}

/// A computed name: either a static QName or an expression evaluated to one.
#[derive(Debug, Clone, PartialEq)]
pub enum NameExpr<E = Expr> {
    Static(QName),
    Dynamic(Box<E>),
}

/// The Update Facility expressions that append primitives to the pending
/// update list (§3.2). `E` is the expression form of their target, source
/// and value parts: the AST's [`Expr`], or a lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateExpr<E = Expr> {
    Insert {
        source: Box<E>,
        pos: InsertPos,
        target: Box<E>,
    },
    Delete(Box<E>),
    ReplaceNode {
        target: Box<E>,
        with: Box<E>,
    },
    ReplaceValue {
        target: Box<E>,
        with: Box<E>,
    },
    Rename {
        target: Box<E>,
        name: NameExpr<E>,
    },
}

/// Computed constructors. `E` is the expression form of their name and
/// content parts: the AST's [`Expr`], or a lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Computed<E = Expr> {
    Element {
        name: NameExpr<E>,
        content: Option<Box<E>>,
    },
    Attribute {
        name: NameExpr<E>,
        content: Option<Box<E>>,
    },
    Text(Box<E>),
    Comment(Box<E>),
    Pi {
        target: NameExpr<E>,
        content: Option<Box<E>>,
    },
    Document(Box<E>),
}

/// Full-text selection (simplified FTSelection grammar). `E` is the
/// expression form of the word sources: the AST's [`Expr`], or a lowered
/// plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FtSelection<E = Expr> {
    Or(Vec<FtSelection<E>>),
    And(Vec<FtSelection<E>>),
    Not(Box<FtSelection<E>>),
    /// Words produced by an expression, with match options.
    Words {
        expr: Box<E>,
        options: FtMatchOptions,
    },
}

/// Full-text match options (`with stemming`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FtMatchOptions {
    pub stemming: bool,
    pub case_sensitive: bool,
    pub wildcards: bool,
}

/// Scripting statements (XQuery Scripting Extension, §3.3; block syntax
/// follows the paper's listings).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `declare variable $x (as T)? (:= expr)? ;`
    VarDecl {
        name: QName,
        ty: Option<SequenceType>,
        init: Option<Expr>,
    },
    /// `set $x := expr ;`
    Assign { name: QName, value: Expr },
    /// `while (cond) { body }`
    While { cond: Expr, body: Vec<Statement> },
    /// `exit with expr ;`
    ExitWith(Expr),
    /// an expression statement
    Expr(Expr),
}

/// The browser grammar extensions (§4.3–4.5), bridged to the host through
/// [`crate::context::EngineHooks`]. `E` is the expression form of their
/// parts and `C` the form of a `behind` call: the AST's boxed [`Expr`], or
/// the lowered plan the host keeps and runs later.
#[derive(Debug, Clone, PartialEq)]
pub enum BrowserExpr<E = Expr, C = Box<E>> {
    /// `on event E at T attach listener Q` (§4.3.1)
    Attach {
        event: Box<E>,
        target: Box<E>,
        listener: QName,
    },
    /// `on event E behind Call attach listener Q` (§4.4)
    Behind {
        event: Box<E>,
        call: C,
        listener: QName,
    },
    /// `on event E at T detach listener Q`
    Detach {
        event: Box<E>,
        target: Box<E>,
        listener: QName,
    },
    /// `trigger event E at T`
    Trigger { event: Box<E>, target: Box<E> },
    /// `set style P of T to V` (§4.5)
    SetStyle {
        prop: Box<E>,
        target: Box<E>,
        value: Box<E>,
    },
    /// `get style P of T`
    GetStyle { prop: Box<E>, target: Box<E> },
}

/// The expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Atomic),
    VarRef(QName),
    ContextItem,
    /// comma operator — sequence construction
    Sequence(Vec<Expr>),
    Range(Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// unary minus (odd number of `-` signs)
    Neg(Box<Expr>),
    ValueComp(CompOp, Box<Expr>, Box<Expr>),
    GeneralComp(CompOp, Box<Expr>, Box<Expr>),
    NodeComp(NodeCompOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    Flwor {
        clauses: Vec<FlworClause>,
        ret: Box<Expr>,
    },
    Quantified {
        kind: Quantifier,
        bindings: Vec<(QName, Expr)>,
        satisfies: Box<Expr>,
    },
    TypeSwitch {
        operand: Box<Expr>,
        cases: Vec<(SequenceType, Option<QName>, Expr)>,
        default_var: Option<QName>,
        default: Box<Expr>,
    },
    Path {
        start: PathStart,
        steps: Vec<StepExpr>,
    },
    SetOp(SetOp, Box<Expr>, Box<Expr>),
    InstanceOf(Box<Expr>, SequenceType),
    TreatAs(Box<Expr>, SequenceType),
    CastableAs(Box<Expr>, TypeName, bool),
    CastAs(Box<Expr>, TypeName, bool),
    FunctionCall {
        name: QName,
        args: Vec<Expr>,
    },
    DirectElement {
        name: QName,
        /// attribute name → value template parts
        attrs: Vec<(QName, Vec<AttrContent>)>,
        ns_decls: Vec<(String, String)>,
        children: Vec<ElemContent>,
    },
    Computed(Computed),
    // --- XQuery Update Facility ---
    Update(UpdateExpr),
    Transform {
        bindings: Vec<(QName, Expr)>,
        modify: Box<Expr>,
        ret: Box<Expr>,
    },
    // --- Scripting Extension ---
    Block(Vec<Statement>),
    // --- Full-Text ---
    FtContains {
        source: Box<Expr>,
        selection: FtSelection,
    },
    // --- Browser extensions (§4.3–4.5) ---
    Browser(BrowserExpr),
}

impl Expr {
    pub fn boxed(self) -> Box<Expr> {
        Box::new(self)
    }
    pub fn string_lit(s: &str) -> Expr {
        Expr::Literal(Atomic::str(s))
    }
}

/// Function kinds: plain, updating (may produce a PUL), sequential
/// (scripting: applies updates as it goes, may `exit with`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionKind {
    Simple,
    Updating,
    Sequential,
}

/// A user-declared function.
#[derive(Debug, Clone)]
pub struct FunctionDecl {
    pub name: QName,
    pub params: Vec<(QName, Option<SequenceType>)>,
    pub return_type: Option<SequenceType>,
    pub kind: FunctionKind,
    pub body: Rc<Expr>,
    /// The body lowered by [`crate::plan::lower_functions`] against the
    /// static context that holds this declaration; `None` until then.
    /// [`crate::context::StaticContext::declare_function`] clears it, so a
    /// declaration copied into another context is lowered again there.
    pub plan: Option<Rc<crate::plan::ExprPlan>>,
}

/// A global variable declaration.
#[derive(Debug, Clone)]
pub struct VarDecl {
    pub name: QName,
    pub ty: Option<SequenceType>,
    /// `None` means `external`.
    pub init: Option<Expr>,
}

/// Prolog of a module.
#[derive(Debug, Clone, Default)]
pub struct Prolog {
    /// Every prefix the prolog binds, `declare namespace` and `import
    /// module namespace` alike, in declaration order.
    pub namespaces: Vec<(String, String)>,
    pub variables: Vec<VarDecl>,
    pub functions: Vec<FunctionDecl>,
    pub options: Vec<(QName, String)>,
    pub module_imports: Vec<ModuleImport>,
}

/// `import module namespace p = "uri" at "loc";`
#[derive(Debug, Clone)]
pub struct ModuleImport {
    pub prefix: String,
    pub uri: String,
    pub locations: Vec<String>,
}

/// A parsed main module: prolog plus body program.
#[derive(Debug, Clone)]
pub struct MainModule {
    pub prolog: Prolog,
    /// The query body as a scripting program (a single expression becomes a
    /// one-statement program).
    pub body: Vec<Statement>,
}

/// A parsed library module (`module namespace p = "uri";` + prolog).
#[derive(Debug, Clone)]
pub struct LibraryModule {
    pub prefix: String,
    pub uri: String,
    /// The paper's web-service extension: `module namespace ex="…" port:2001;`
    pub port: Option<u16>,
    pub prolog: Prolog,
}
