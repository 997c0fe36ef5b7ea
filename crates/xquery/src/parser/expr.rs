//! Expression grammar: precedence chain, FLWOR, conditionals, quantifiers,
//! paths, steps, predicates, primaries and scripting statements.

use xqib_xdm::{Atomic, CompOp, XdmResult};

use crate::ast::*;
use crate::token::Tok;

use super::Parser;

impl<'a> Parser<'a> {
    /// Expr ::= ExprSingle ("," ExprSingle)*
    pub(crate) fn parse_expr(&mut self) -> XdmResult<Expr> {
        let first = self.parse_expr_single()?;
        if self.cur.tok != Tok::Comma {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat_tok(&Tok::Comma)? {
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    /// Maximum expression-nesting depth (coarse backstop).
    const MAX_NESTING: usize = 256;
    /// Maximum parser stack consumption in bytes (primary guard; parser
    /// frames are large in debug builds).
    const MAX_STACK_BYTES: usize = 900_000;

    /// ExprSingle — dispatches on leading contextual keywords.
    pub(crate) fn parse_expr_single(&mut self) -> XdmResult<Expr> {
        self.depth += 1;
        let used = self
            .stack_base
            .saturating_sub(crate::context::approx_stack_ptr());
        if self.depth > Self::MAX_NESTING || used > Self::MAX_STACK_BYTES {
            self.depth -= 1;
            return Err(self.error("expression is nested too deeply"));
        }
        let r = self.parse_expr_single_inner();
        self.depth -= 1;
        r
    }

    fn parse_expr_single_inner(&mut self) -> XdmResult<Expr> {
        // FLWOR
        if (self.at_kw("for") || self.at_kw("let")) && self.peek2()? == Tok::Dollar {
            return self.parse_flwor();
        }
        // quantified
        if (self.at_kw("some") || self.at_kw("every")) && self.peek2()? == Tok::Dollar {
            return self.parse_quantified();
        }
        if self.at_kw("typeswitch") && self.peek2()? == Tok::LParen {
            return self.parse_typeswitch();
        }
        if self.at_kw("if") && self.peek2()? == Tok::LParen {
            return self.parse_if();
        }
        // Update Facility
        if self.at_kw2("insert", "node")? || self.at_kw2("insert", "nodes")? {
            return self.parse_insert();
        }
        if self.at_kw2("delete", "node")? || self.at_kw2("delete", "nodes")? {
            return self.parse_delete();
        }
        if self.at_kw2("replace", "node")? || self.at_kw2("replace", "value")? {
            return self.parse_replace();
        }
        if self.at_kw2("rename", "node")? {
            return self.parse_rename();
        }
        if self.at_kw("copy") && self.peek2()? == Tok::Dollar {
            return self.parse_transform();
        }
        if self.at_kw2("transform", "copy")? {
            self.advance()?; // transform
            return self.parse_transform();
        }
        // "do" prefix used by some update drafts (the paper writes
        // `do replace value of …`): accept and delegate.
        if self.at_kw2("do", "replace")? {
            self.advance()?;
            return self.parse_replace();
        }
        if self.at_kw2("do", "insert")? {
            self.advance()?;
            return self.parse_insert();
        }
        if self.at_kw2("do", "delete")? {
            self.advance()?;
            return self.parse_delete();
        }
        if self.at_kw2("do", "rename")? {
            self.advance()?;
            return self.parse_rename();
        }
        // scripting `exit with` in expression position (XQSE allows it in
        // sequential function bodies, e.g. inside an if branch)
        if self.at_kw2("exit", "with")? {
            self.advance()?;
            self.advance()?;
            let e = self.parse_expr_single()?;
            return Ok(Expr::Block(vec![Statement::ExitWith(e)]));
        }
        // Browser extensions
        if self.at_kw2("on", "event")? {
            return self.parse_event_attach_detach();
        }
        if self.at_kw2("trigger", "event")? {
            return self.parse_event_trigger();
        }
        if self.at_kw2("set", "style")? {
            return self.parse_set_style();
        }
        if self.at_kw2("get", "style")? {
            return self.parse_get_style();
        }
        self.parse_or()
    }

    // ----- binary operators: precedence climbing ------------------------------
    //
    // A single climbing function replaces the classic 12-deep grammar chain:
    // recursive-descent frames are expensive in debug builds, and deeply
    // parenthesised queries would otherwise exhaust the stack long before
    // the nesting guard fires.

    fn parse_or(&mut self) -> XdmResult<Expr> {
        self.parse_binary_expr(1)
    }

    #[allow(clippy::while_let_loop)]
    fn parse_binary_expr(&mut self, min_prec: u8) -> XdmResult<Expr> {
        let mut left = self.parse_type_ops()?;
        loop {
            let Some((kind, prec)) = self.peek_binary_op()? else {
                break;
            };
            if prec < min_prec {
                break;
            }
            self.consume_binary_op(&kind)?;
            if let BinKind::FtContains = kind {
                let selection = self.parse_ft_selection()?;
                left = Expr::FtContains {
                    source: left.boxed(),
                    selection,
                };
                continue;
            }
            let right = self.parse_binary_expr(prec + 1)?;
            left = match kind {
                BinKind::Or => Expr::Or(left.boxed(), right.boxed()),
                BinKind::And => Expr::And(left.boxed(), right.boxed()),
                BinKind::GenComp(op) => Expr::GeneralComp(op, left.boxed(), right.boxed()),
                BinKind::ValComp(op) => Expr::ValueComp(op, left.boxed(), right.boxed()),
                BinKind::NodeComp(op) => Expr::NodeComp(op, left.boxed(), right.boxed()),
                BinKind::Range => Expr::Range(left.boxed(), right.boxed()),
                BinKind::Arith(op) => Expr::Arith(op, left.boxed(), right.boxed()),
                BinKind::Union => Expr::SetOp(SetOp::Union, left.boxed(), right.boxed()),
                BinKind::Intersect => Expr::SetOp(SetOp::Intersect, left.boxed(), right.boxed()),
                BinKind::Except => Expr::SetOp(SetOp::Except, left.boxed(), right.boxed()),
                BinKind::FtContains => unreachable!("handled above"),
            };
        }
        Ok(left)
    }

    /// Identifies the binary operator at the current position (if any) and
    /// its precedence. Precedences (low → high): or=1, and=2, comparisons=3,
    /// ftcontains=4, to=5, +/-=6, */div/idiv/mod=7, union=8,
    /// intersect/except=9.
    fn peek_binary_op(&mut self) -> XdmResult<Option<(BinKind, u8)>> {
        let r = match &self.cur.tok {
            Tok::Eq => Some((BinKind::GenComp(CompOp::Eq), 3)),
            Tok::NotEq => Some((BinKind::GenComp(CompOp::Ne), 3)),
            Tok::Lt => Some((BinKind::GenComp(CompOp::Lt), 3)),
            Tok::LtEq => Some((BinKind::GenComp(CompOp::Le), 3)),
            Tok::Gt => Some((BinKind::GenComp(CompOp::Gt), 3)),
            Tok::GtEq => Some((BinKind::GenComp(CompOp::Ge), 3)),
            Tok::LtLt => Some((BinKind::NodeComp(NodeCompOp::Precedes), 3)),
            Tok::GtGt => Some((BinKind::NodeComp(NodeCompOp::Follows), 3)),
            Tok::Plus => Some((BinKind::Arith(ArithOp::Add), 6)),
            Tok::Minus => Some((BinKind::Arith(ArithOp::Sub), 6)),
            Tok::Star => Some((BinKind::Arith(ArithOp::Mul), 7)),
            Tok::Pipe => Some((BinKind::Union, 8)),
            Tok::Name(n) => match n.as_str() {
                "or" => Some((BinKind::Or, 1)),
                "and" => Some((BinKind::And, 2)),
                "eq" => Some((BinKind::ValComp(CompOp::Eq), 3)),
                "ne" => Some((BinKind::ValComp(CompOp::Ne), 3)),
                "lt" => Some((BinKind::ValComp(CompOp::Lt), 3)),
                "le" => Some((BinKind::ValComp(CompOp::Le), 3)),
                "gt" => Some((BinKind::ValComp(CompOp::Gt), 3)),
                "ge" => Some((BinKind::ValComp(CompOp::Ge), 3)),
                "is" => Some((BinKind::NodeComp(NodeCompOp::Is), 3)),
                "ftcontains" => Some((BinKind::FtContains, 4)),
                "to" => Some((BinKind::Range, 5)),
                "div" => Some((BinKind::Arith(ArithOp::Div), 7)),
                "idiv" => Some((BinKind::Arith(ArithOp::IDiv), 7)),
                "mod" => Some((BinKind::Arith(ArithOp::Mod), 7)),
                "union" => Some((BinKind::Union, 8)),
                "intersect" => Some((BinKind::Intersect, 9)),
                "except" => Some((BinKind::Except, 9)),
                _ => None,
            },
            _ => None,
        };
        Ok(r)
    }

    fn consume_binary_op(&mut self, _kind: &BinKind) -> XdmResult<()> {
        self.advance()
    }

    /// An expression one precedence level below the range operator — used
    /// where a following `to` keyword belongs to the surrounding construct
    /// (`set style … of TARGET to …`).
    pub(crate) fn parse_below_range(&mut self) -> XdmResult<Expr> {
        self.parse_binary_expr(6)
    }

    /// Postfix type operators over a unary expression:
    /// `instance of`, `treat as`, `castable as`, `cast as`.
    fn parse_type_ops(&mut self) -> XdmResult<Expr> {
        let mut e = self.parse_unary()?;
        loop {
            if self.at_kw2("instance", "of")? {
                self.advance()?;
                self.advance()?;
                let st = self.parse_sequence_type()?;
                e = Expr::InstanceOf(e.boxed(), st);
            } else if self.at_kw2("treat", "as")? {
                self.advance()?;
                self.advance()?;
                let st = self.parse_sequence_type()?;
                e = Expr::TreatAs(e.boxed(), st);
            } else if self.at_kw2("castable", "as")? {
                self.advance()?;
                self.advance()?;
                let (ty, optional) = self.parse_single_type()?;
                e = Expr::CastableAs(e.boxed(), ty, optional);
            } else if self.at_kw2("cast", "as")? {
                self.advance()?;
                self.advance()?;
                let (ty, optional) = self.parse_single_type()?;
                e = Expr::CastAs(e.boxed(), ty, optional);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_unary(&mut self) -> XdmResult<Expr> {
        let mut negs = 0usize;
        loop {
            match self.cur.tok {
                Tok::Minus => {
                    negs += 1;
                    self.advance()?;
                }
                Tok::Plus => {
                    self.advance()?;
                }
                _ => break,
            }
        }
        let e = self.parse_path()?;
        if negs % 2 == 1 {
            Ok(Expr::Neg(e.boxed()))
        } else {
            Ok(e)
        }
    }

    // ----- paths --------------------------------------------------------------

    fn parse_path(&mut self) -> XdmResult<Expr> {
        match self.cur.tok {
            Tok::Slash => {
                self.advance()?;
                // "/" alone, or "/relative"
                if self.starts_step() {
                    let steps = self.parse_relative_steps()?;
                    Ok(Expr::Path {
                        start: PathStart::Root,
                        steps,
                    })
                } else {
                    Ok(Expr::Path {
                        start: PathStart::Root,
                        steps: vec![],
                    })
                }
            }
            Tok::SlashSlash => {
                self.advance()?;
                let steps = self.parse_relative_steps()?;
                Ok(Expr::Path {
                    start: PathStart::RootDescendant,
                    steps,
                })
            }
            _ => {
                let first = self.parse_step_expr()?;
                if matches!(self.cur.tok, Tok::Slash | Tok::SlashSlash) {
                    let mut steps = vec![first];
                    self.parse_path_tail(&mut steps)?;
                    Ok(Expr::Path {
                        start: PathStart::Relative,
                        steps,
                    })
                } else {
                    // a lone step: axis steps still need path semantics
                    match first {
                        StepExpr::Axis(_) => Ok(Expr::Path {
                            start: PathStart::Relative,
                            steps: vec![first],
                        }),
                        StepExpr::Filter {
                            primary,
                            predicates,
                        } => {
                            if predicates.is_empty() {
                                Ok(*primary)
                            } else {
                                Ok(Expr::Path {
                                    start: PathStart::Relative,
                                    steps: vec![StepExpr::Filter {
                                        primary,
                                        predicates,
                                    }],
                                })
                            }
                        }
                    }
                }
            }
        }
    }

    fn parse_relative_steps(&mut self) -> XdmResult<Vec<StepExpr>> {
        let mut steps = vec![self.parse_step_expr()?];
        self.parse_path_tail(&mut steps)?;
        Ok(steps)
    }

    fn parse_path_tail(&mut self, steps: &mut Vec<StepExpr>) -> XdmResult<()> {
        loop {
            match self.cur.tok {
                Tok::Slash => {
                    self.advance()?;
                    steps.push(self.parse_step_expr()?);
                }
                Tok::SlashSlash => {
                    self.advance()?;
                    // `//` expands to /descendant-or-self::node()/
                    steps.push(StepExpr::Axis(AxisStep {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTest::Kind(KindTest::AnyKind),
                        predicates: vec![],
                    }));
                    steps.push(self.parse_step_expr()?);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Can the current token begin a path step?
    fn starts_step(&self) -> bool {
        matches!(
            self.cur.tok,
            Tok::Name(_)
                | Tok::PrefixedName(..)
                | Tok::Star
                | Tok::NsWildcard(_)
                | Tok::LocalWildcard(_)
                | Tok::At
                | Tok::Dot
                | Tok::DotDot
                | Tok::Dollar
                | Tok::LParen
                | Tok::StringLit(_)
                | Tok::IntegerLit(_)
                | Tok::DecimalLit(_)
                | Tok::DoubleLit(_)
                | Tok::Lt
        )
    }

    fn parse_step_expr(&mut self) -> XdmResult<StepExpr> {
        // Reverse/forward axis steps & node tests come first; everything
        // else is a filter (primary + predicates).
        if self.cur.tok == Tok::DotDot {
            self.advance()?;
            let predicates = self.parse_predicates()?;
            return Ok(StepExpr::Axis(AxisStep {
                axis: Axis::Parent,
                test: NodeTest::Kind(KindTest::AnyKind),
                predicates,
            }));
        }
        if self.cur.tok == Tok::At {
            self.advance()?;
            let test = self.parse_node_test(true)?;
            let predicates = self.parse_predicates()?;
            return Ok(StepExpr::Axis(AxisStep {
                axis: Axis::Attribute,
                test,
                predicates,
            }));
        }
        // explicit axis?
        if let Tok::Name(name) = self.cur.tok.clone() {
            if self.peek2()? == Tok::ColonColon {
                let axis = match name.as_str() {
                    "child" => Axis::Child,
                    "descendant" => Axis::Descendant,
                    "attribute" => Axis::Attribute,
                    "self" => Axis::SelfAxis,
                    "descendant-or-self" => Axis::DescendantOrSelf,
                    "following-sibling" => Axis::FollowingSibling,
                    "following" => Axis::Following,
                    "parent" => Axis::Parent,
                    "ancestor" => Axis::Ancestor,
                    "preceding-sibling" => Axis::PrecedingSibling,
                    "preceding" => Axis::Preceding,
                    "ancestor-or-self" => Axis::AncestorOrSelf,
                    other => return Err(self.error(format!("unknown axis `{other}`"))),
                };
                self.advance()?; // axis name
                self.advance()?; // ::
                let test = self.parse_node_test(axis == Axis::Attribute)?;
                let predicates = self.parse_predicates()?;
                return Ok(StepExpr::Axis(AxisStep {
                    axis,
                    test,
                    predicates,
                }));
            }
        }
        // name test (child axis) — but not a function call, kind test or
        // keyword-led expression
        let cur_tok = self.cur.tok.clone();
        let is_name_step = match &cur_tok {
            Tok::Star | Tok::NsWildcard(_) | Tok::LocalWildcard(_) => true,
            Tok::PrefixedName(..) => self.peek2()? != Tok::LParen,
            Tok::Name(n) => {
                let next = self.peek2()?;
                if next == Tok::LParen {
                    // kind tests are steps; function calls are primaries
                    matches!(
                        n.as_str(),
                        "node"
                            | "text"
                            | "comment"
                            | "processing-instruction"
                            | "element"
                            | "attribute"
                            | "document-node"
                    )
                } else {
                    !self.starts_computed_constructor(n, &next)?
                }
            }
            _ => false,
        };
        if is_name_step {
            let test = self.parse_node_test(false)?;
            let predicates = self.parse_predicates()?;
            // `attribute(...)` kind test implies the attribute axis
            let axis = match &test {
                NodeTest::Kind(KindTest::Attribute(_)) => Axis::Attribute,
                _ => Axis::Child,
            };
            return Ok(StepExpr::Axis(AxisStep {
                axis,
                test,
                predicates,
            }));
        }
        // primary expression with optional predicates
        let primary = self.parse_primary()?;
        let predicates = self.parse_predicates()?;
        Ok(StepExpr::Filter {
            primary: primary.boxed(),
            predicates,
        })
    }

    /// Is `name` (with `next` following) the start of a computed constructor
    /// or ordered/unordered/validate expression rather than a name step?
    pub(crate) fn starts_computed_constructor(
        &mut self,
        name: &str,
        next: &Tok,
    ) -> XdmResult<bool> {
        match name {
            "text" | "comment" | "document" | "ordered" | "unordered" | "validate" => {
                Ok(*next == Tok::LBrace)
            }
            "element" | "attribute" | "processing-instruction" => {
                if *next == Tok::LBrace {
                    return Ok(true);
                }
                // `element qname {` needs a third-token peek
                if matches!(next, Tok::Name(_) | Tok::PrefixedName(..)) {
                    let save = self.lx.pos;
                    let _name2 = self.lx.next_token()?;
                    let third = self.lx.next_token()?;
                    self.lx.pos = save;
                    return Ok(third.tok == Tok::LBrace);
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    pub(crate) fn parse_node_test(&mut self, attr_axis: bool) -> XdmResult<NodeTest> {
        match self.cur.tok.clone() {
            Tok::Star => {
                self.advance()?;
                Ok(NodeTest::AnyName)
            }
            Tok::NsWildcard(p) => {
                let uri = self
                    .namespaces
                    .get(&p)
                    .cloned()
                    .ok_or_else(|| self.error(format!("undeclared prefix `{p}`")))?;
                self.advance()?;
                Ok(NodeTest::NsWildcard(uri))
            }
            Tok::LocalWildcard(l) => {
                self.advance()?;
                Ok(NodeTest::LocalWildcard(l))
            }
            Tok::Name(n) => {
                if self.peek2()? == Tok::LParen {
                    match n.as_str() {
                        "node" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::AnyKind));
                        }
                        "text" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::Text));
                        }
                        "comment" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::Comment));
                        }
                        "processing-instruction" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            let target = match self.cur.tok.clone() {
                                Tok::StringLit(s) => {
                                    self.advance()?;
                                    Some(s)
                                }
                                Tok::Name(n) => {
                                    self.advance()?;
                                    Some(n)
                                }
                                _ => None,
                            };
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::Pi(target)));
                        }
                        "element" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            let name = if self.cur.tok == Tok::RParen || self.cur.tok == Tok::Star {
                                let _ = self.eat_tok(&Tok::Star)?;
                                None
                            } else {
                                Some(self.parse_element_qname()?)
                            };
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::Element(name)));
                        }
                        "attribute" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            let name = if self.cur.tok == Tok::RParen || self.cur.tok == Tok::Star {
                                let _ = self.eat_tok(&Tok::Star)?;
                                None
                            } else {
                                let (p, l) = self.parse_raw_qname()?;
                                Some(self.resolve_qname(p, l, false)?)
                            };
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::Attribute(name)));
                        }
                        "document-node" => {
                            self.advance()?;
                            self.expect_tok(Tok::LParen)?;
                            // allow an inner element() test, ignored
                            if self.cur.tok != Tok::RParen {
                                let _ = self.parse_node_test(false)?;
                            }
                            self.expect_tok(Tok::RParen)?;
                            return Ok(NodeTest::Kind(KindTest::Document));
                        }
                        _ => {}
                    }
                }
                let (p, l) = self.parse_raw_qname()?;
                // attribute names don't use the default element namespace
                let q = self.resolve_qname(p, l, !attr_axis)?;
                Ok(NodeTest::Name(q))
            }
            Tok::PrefixedName(..) => {
                let (p, l) = self.parse_raw_qname()?;
                let q = self.resolve_qname(p, l, !attr_axis)?;
                Ok(NodeTest::Name(q))
            }
            other => Err(self.error(format!("expected a node test, found {}", other.describe()))),
        }
    }

    pub(crate) fn parse_predicates(&mut self) -> XdmResult<Vec<Expr>> {
        let mut preds = Vec::new();
        while self.cur.tok == Tok::LBracket {
            self.advance()?;
            preds.push(self.parse_expr()?);
            self.expect_tok(Tok::RBracket)?;
        }
        Ok(preds)
    }

    // ----- primaries ------------------------------------------------------------

    pub(crate) fn parse_primary(&mut self) -> XdmResult<Expr> {
        match self.cur.tok.clone() {
            Tok::IntegerLit(i) => {
                self.advance()?;
                Ok(Expr::Literal(Atomic::Integer(i)))
            }
            Tok::DecimalLit(d) => {
                self.advance()?;
                Ok(Expr::Literal(Atomic::Decimal(d)))
            }
            Tok::DoubleLit(d) => {
                self.advance()?;
                Ok(Expr::Literal(Atomic::Double(d)))
            }
            Tok::StringLit(s) => {
                self.advance()?;
                Ok(Expr::Literal(Atomic::str(s)))
            }
            Tok::Dollar => {
                let name = self.parse_var_name()?;
                Ok(Expr::VarRef(name))
            }
            Tok::Dot => {
                self.advance()?;
                Ok(Expr::ContextItem)
            }
            Tok::LParen => {
                self.advance()?;
                if self.eat_tok(&Tok::RParen)? {
                    return Ok(Expr::Sequence(vec![]));
                }
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => self.parse_block(),
            Tok::Lt => self.parse_direct_constructor(),
            Tok::Name(n) => self.parse_keyword_or_call(&n),
            Tok::PrefixedName(..) => self.parse_function_call(),
            other => Err(self.error(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_keyword_or_call(&mut self, name: &str) -> XdmResult<Expr> {
        // computed constructors
        match name {
            "element"
            | "attribute"
            | "text"
            | "comment"
            | "processing-instruction"
            | "document" => {
                let next = self.peek2()?;
                let is_computed =
                    matches!(next, Tok::LBrace | Tok::Name(_) | Tok::PrefixedName(..));
                if is_computed {
                    return self.parse_computed_constructor(name);
                }
            }
            "ordered" | "unordered" if self.peek2()? == Tok::LBrace => {
                self.advance()?;
                self.expect_tok(Tok::LBrace)?;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RBrace)?;
                return Ok(e);
            }
            "validate" if self.peek2()? == Tok::LBrace => {
                // schema validation is out of scope: validate { E } = E
                self.advance()?;
                self.expect_tok(Tok::LBrace)?;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RBrace)?;
                return Ok(e);
            }
            _ => {}
        }
        if self.peek2()? == Tok::LParen && !Self::is_reserved_fn_name(name) {
            return self.parse_function_call();
        }
        Err(self.error(format!("unexpected name `{name}` in expression position")))
    }

    pub(crate) fn parse_function_call(&mut self) -> XdmResult<Expr> {
        let name = self.parse_function_qname()?;
        self.expect_tok(Tok::LParen)?;
        let mut args = Vec::new();
        if self.cur.tok != Tok::RParen {
            loop {
                args.push(self.parse_expr_single()?);
                if !self.eat_tok(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect_tok(Tok::RParen)?;
        Ok(Expr::FunctionCall { name, args })
    }

    // ----- control flow -----------------------------------------------------------

    fn parse_if(&mut self) -> XdmResult<Expr> {
        self.expect_kw("if")?;
        self.expect_tok(Tok::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_tok(Tok::RParen)?;
        self.expect_kw("then")?;
        let then = self.parse_expr_single()?;
        self.expect_kw("else")?;
        let els = self.parse_expr_single()?;
        Ok(Expr::If {
            cond: cond.boxed(),
            then: then.boxed(),
            els: els.boxed(),
        })
    }

    fn parse_flwor(&mut self) -> XdmResult<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.at_kw("for") && self.peek2()? == Tok::Dollar {
                self.advance()?;
                loop {
                    let var = self.parse_var_name()?;
                    let ty = if self.at_kw("as") {
                        self.advance()?;
                        Some(self.parse_sequence_type()?)
                    } else {
                        None
                    };
                    let at = if self.at_kw("at") {
                        self.advance()?;
                        Some(self.parse_var_name()?)
                    } else {
                        None
                    };
                    self.expect_kw("in")?;
                    let seq = self.parse_expr_single()?;
                    clauses.push(FlworClause::For { var, at, ty, seq });
                    if !self.eat_tok(&Tok::Comma)? {
                        break;
                    }
                }
            } else if self.at_kw("let") && self.peek2()? == Tok::Dollar {
                self.advance()?;
                loop {
                    let var = self.parse_var_name()?;
                    let ty = if self.at_kw("as") {
                        self.advance()?;
                        Some(self.parse_sequence_type()?)
                    } else {
                        None
                    };
                    self.expect_tok(Tok::ColonEq)?;
                    let expr = self.parse_expr_single()?;
                    clauses.push(FlworClause::Let { var, ty, expr });
                    if !self.eat_tok(&Tok::Comma)? {
                        break;
                    }
                }
            } else if self.at_kw("where") {
                self.advance()?;
                clauses.push(FlworClause::Where(self.parse_expr_single()?));
            } else if self.at_kw2("order", "by")? {
                self.advance()?;
                self.advance()?;
                clauses.push(self.parse_order_by(false)?);
            } else if self.at_kw2("stable", "order")? {
                self.advance()?;
                self.advance()?;
                self.expect_kw("by")?;
                clauses.push(self.parse_order_by(true)?);
            } else {
                break;
            }
        }
        self.expect_kw("return")?;
        let ret = self.parse_expr_single()?;
        Ok(Expr::Flwor {
            clauses,
            ret: ret.boxed(),
        })
    }

    fn parse_order_by(&mut self, stable: bool) -> XdmResult<FlworClause> {
        let mut specs = Vec::new();
        loop {
            let key = self.parse_expr_single()?;
            let mut descending = false;
            if self.eat_kw("ascending")? {
            } else if self.eat_kw("descending")? {
                descending = true;
            }
            let mut empty_least = true;
            if self.at_kw("empty") {
                self.advance()?;
                if self.eat_kw("greatest")? {
                    empty_least = false;
                } else {
                    self.expect_kw("least")?;
                }
            }
            specs.push(OrderSpec {
                key,
                descending,
                empty_least,
            });
            if !self.eat_tok(&Tok::Comma)? {
                break;
            }
        }
        Ok(FlworClause::OrderBy { specs, stable })
    }

    fn parse_quantified(&mut self) -> XdmResult<Expr> {
        let kind = if self.eat_kw("some")? {
            Quantifier::Some
        } else {
            self.expect_kw("every")?;
            Quantifier::Every
        };
        let mut bindings = Vec::new();
        loop {
            let var = self.parse_var_name()?;
            if self.at_kw("as") {
                self.advance()?;
                let _ = self.parse_sequence_type()?;
            }
            self.expect_kw("in")?;
            let seq = self.parse_expr_single()?;
            bindings.push((var, seq));
            if !self.eat_tok(&Tok::Comma)? {
                break;
            }
        }
        self.expect_kw("satisfies")?;
        let satisfies = self.parse_expr_single()?;
        Ok(Expr::Quantified {
            kind,
            bindings,
            satisfies: satisfies.boxed(),
        })
    }

    fn parse_typeswitch(&mut self) -> XdmResult<Expr> {
        self.expect_kw("typeswitch")?;
        self.expect_tok(Tok::LParen)?;
        let operand = self.parse_expr()?;
        self.expect_tok(Tok::RParen)?;
        let mut cases = Vec::new();
        while self.at_kw("case") {
            self.advance()?;
            let var = if self.cur.tok == Tok::Dollar {
                let v = self.parse_var_name()?;
                self.expect_kw("as")?;
                Some(v)
            } else {
                None
            };
            let st = self.parse_sequence_type()?;
            self.expect_kw("return")?;
            let e = self.parse_expr_single()?;
            cases.push((st, var, e));
        }
        self.expect_kw("default")?;
        let default_var = if self.cur.tok == Tok::Dollar {
            Some(self.parse_var_name()?)
        } else {
            None
        };
        self.expect_kw("return")?;
        let default = self.parse_expr_single()?;
        Ok(Expr::TypeSwitch {
            operand: operand.boxed(),
            cases,
            default_var,
            default: default.boxed(),
        })
    }

    // ----- scripting blocks ----------------------------------------------------

    /// `{ Statement (; Statement)* ;? }` — the XQSE block shape the paper
    /// uses in §3.3 and §6.3.
    pub(crate) fn parse_block(&mut self) -> XdmResult<Expr> {
        self.expect_tok(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.cur.tok != Tok::RBrace {
            stmts.push(self.parse_statement()?);
            if !self.eat_tok(&Tok::Semicolon)? {
                break;
            }
        }
        self.expect_tok(Tok::RBrace)?;
        Ok(Expr::Block(stmts))
    }

    pub(crate) fn parse_statement(&mut self) -> XdmResult<Statement> {
        if self.at_kw2("declare", "variable")? {
            self.advance()?;
            self.advance()?;
            let name = self.parse_var_name()?;
            let ty = if self.at_kw("as") {
                self.advance()?;
                Some(self.parse_sequence_type()?)
            } else {
                None
            };
            // both `:=` and `=` accepted (the paper writes
            // `declare variable $message = <message>…`)
            let init = if self.eat_tok(&Tok::ColonEq)? || self.eat_tok(&Tok::Eq)? {
                Some(self.parse_expr_single()?)
            } else {
                None
            };
            return Ok(Statement::VarDecl { name, ty, init });
        }
        if self.at_kw("set") && self.peek2()? == Tok::Dollar {
            self.advance()?;
            let name = self.parse_var_name()?;
            self.expect_tok(Tok::ColonEq)?;
            let value = self.parse_expr_single()?;
            return Ok(Statement::Assign { name, value });
        }
        if self.at_kw("while") && self.peek2()? == Tok::LParen {
            self.advance()?;
            self.expect_tok(Tok::LParen)?;
            let cond = self.parse_expr()?;
            self.expect_tok(Tok::RParen)?;
            let body_expr = self.parse_block()?;
            let body = match body_expr {
                Expr::Block(stmts) => stmts,
                other => vec![Statement::Expr(other)],
            };
            return Ok(Statement::While { cond, body });
        }
        if self.at_kw2("exit", "with")? {
            self.advance()?;
            self.advance()?;
            let e = self.parse_expr_single()?;
            return Ok(Statement::ExitWith(e));
        }
        Ok(Statement::Expr(self.parse_expr()?))
    }
}

/// Binary operator kinds for the precedence climber.
enum BinKind {
    Or,
    And,
    GenComp(CompOp),
    ValComp(CompOp),
    NodeComp(NodeCompOp),
    FtContains,
    Range,
    Arith(ArithOp),
    Union,
    Intersect,
    Except,
}
