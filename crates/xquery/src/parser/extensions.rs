//! Parsing of the Update Facility, Full-Text selections and the paper's
//! browser grammar extensions (§4.3 events, §4.4 `behind`, §4.5 CSS).

use xqib_xdm::XdmResult;

use crate::ast::*;
use crate::token::Tok;

use super::Parser;

impl<'a> Parser<'a> {
    // ----- XQuery Update Facility -------------------------------------------

    /// `insert node(s) Source (into | as first into | as last into | before | after) Target`
    pub(crate) fn parse_insert(&mut self) -> XdmResult<Expr> {
        self.expect_kw("insert")?;
        if !self.eat_kw("nodes")? {
            self.expect_kw("node")?;
        }
        let source = self.parse_expr_single()?;
        let pos = if self.eat_kw("into")? {
            InsertPos::Into
        } else if self.at_kw("as") {
            self.advance()?;
            let first = if self.eat_kw("first")? {
                true
            } else {
                self.expect_kw("last")?;
                false
            };
            self.expect_kw("into")?;
            if first {
                InsertPos::AsFirstInto
            } else {
                InsertPos::AsLastInto
            }
        } else if self.eat_kw("before")? {
            InsertPos::Before
        } else if self.eat_kw("after")? {
            InsertPos::After
        } else {
            return Err(
                self.error("expected `into`, `as first into`, `as last into`, `before` or `after`")
            );
        };
        let target = self.parse_expr_single()?;
        // the paper's §4.2.1 listing uses the postfix word order
        // `insert node X into T as first`; accept it as a synonym
        let pos = if pos == InsertPos::Into && self.at_kw("as") {
            self.advance()?;
            if self.eat_kw("first")? {
                InsertPos::AsFirstInto
            } else {
                self.expect_kw("last")?;
                InsertPos::AsLastInto
            }
        } else {
            pos
        };
        Ok(Expr::Update(UpdateExpr::Insert {
            source: source.boxed(),
            pos,
            target: target.boxed(),
        }))
    }

    /// `delete node(s) Target`
    pub(crate) fn parse_delete(&mut self) -> XdmResult<Expr> {
        self.expect_kw("delete")?;
        if !self.eat_kw("nodes")? {
            self.expect_kw("node")?;
        }
        let target = self.parse_expr_single()?;
        Ok(Expr::Update(UpdateExpr::Delete(target.boxed())))
    }

    /// `replace (value of)? node Target with Expr`
    pub(crate) fn parse_replace(&mut self) -> XdmResult<Expr> {
        self.expect_kw("replace")?;
        let value_of = if self.at_kw("value") {
            self.advance()?;
            self.expect_kw("of")?;
            true
        } else {
            false
        };
        self.expect_kw("node")?;
        let target = self.parse_expr_single()?;
        self.expect_kw("with")?;
        let with = self.parse_expr_single()?;
        Ok(Expr::Update(if value_of {
            UpdateExpr::ReplaceValue {
                target: target.boxed(),
                with: with.boxed(),
            }
        } else {
            UpdateExpr::ReplaceNode {
                target: target.boxed(),
                with: with.boxed(),
            }
        }))
    }

    /// `rename node Target as NewName`
    pub(crate) fn parse_rename(&mut self) -> XdmResult<Expr> {
        self.expect_kw("rename")?;
        self.expect_kw("node")?;
        let target = self.parse_expr_single()?;
        self.expect_kw("as")?;
        let name = self.parse_name_expr()?;
        Ok(Expr::Update(UpdateExpr::Rename {
            target: target.boxed(),
            name,
        }))
    }

    /// `copy $x := E (, $y := E)* modify E return E` (with optional leading
    /// `transform` consumed by the caller).
    pub(crate) fn parse_transform(&mut self) -> XdmResult<Expr> {
        self.expect_kw("copy")?;
        let mut bindings = Vec::new();
        loop {
            let var = self.parse_var_name()?;
            self.expect_tok(Tok::ColonEq)?;
            let e = self.parse_expr_single()?;
            bindings.push((var, e));
            if !self.eat_tok(&Tok::Comma)? {
                break;
            }
        }
        self.expect_kw("modify")?;
        let modify = self.parse_expr_single()?;
        self.expect_kw("return")?;
        let ret = self.parse_expr_single()?;
        Ok(Expr::Transform {
            bindings,
            modify: modify.boxed(),
            ret: ret.boxed(),
        })
    }

    /// Name expressions for `rename … as` and computed constructors: either a
    /// QName or an expression evaluating to one.
    fn parse_name_expr(&mut self) -> XdmResult<NameExpr> {
        match self.cur.tok.clone() {
            Tok::Name(_) | Tok::PrefixedName(..) => {
                let q = self.parse_element_qname()?;
                Ok(NameExpr::Static(q))
            }
            _ => {
                let e = self.parse_expr_single()?;
                Ok(NameExpr::Dynamic(e.boxed()))
            }
        }
    }

    // ----- browser extensions (§4.3–4.5) -------------------------------------

    /// ```text
    /// EventAttach ::= "on" "event" ExprSingle ("at"|"behind") ExprSingle
    ///                 "attach" "listener" QName
    /// EventDetach ::= "on" "event" ExprSingle "at" ExprSingle
    ///                 "detach" "listener" QName
    /// ```
    pub(crate) fn parse_event_attach_detach(&mut self) -> XdmResult<Expr> {
        self.expect_kw("on")?;
        self.expect_kw("event")?;
        let event = self.parse_expr_single()?.boxed();
        let behind = self.eat_kw("behind")?;
        if !behind {
            self.expect_kw("at")?;
        }
        let target = self.parse_expr_single()?.boxed();
        let attach = self.eat_kw("attach")?;
        if !attach {
            self.expect_kw("detach")?;
        }
        self.expect_kw("listener")?;
        let listener = self.parse_function_qname()?;
        Ok(Expr::Browser(match (behind, attach) {
            (false, true) => BrowserExpr::Attach {
                event,
                target,
                listener,
            },
            (true, true) => BrowserExpr::Behind {
                event,
                call: target,
                listener,
            },
            (false, false) => BrowserExpr::Detach {
                event,
                target,
                listener,
            },
            (true, false) => return Err(self.error("`behind` is only valid with `attach`")),
        }))
    }

    /// `trigger event ExprSingle at ExprSingle`
    pub(crate) fn parse_event_trigger(&mut self) -> XdmResult<Expr> {
        self.expect_kw("trigger")?;
        self.expect_kw("event")?;
        let event = self.parse_expr_single()?;
        self.expect_kw("at")?;
        let target = self.parse_expr_single()?;
        Ok(Expr::Browser(BrowserExpr::Trigger {
            event: event.boxed(),
            target: target.boxed(),
        }))
    }

    /// `set style ExprSingle of TargetExpr to ExprSingle`
    ///
    /// The target is parsed *below* the range operator so that the `to`
    /// keyword terminates it (`set style "x" of $t to "2px"` — `$t to …`
    /// must not parse as a range; parenthesise if a range is really meant).
    pub(crate) fn parse_set_style(&mut self) -> XdmResult<Expr> {
        self.expect_kw("set")?;
        self.expect_kw("style")?;
        let prop = self.parse_expr_single()?;
        self.expect_kw("of")?;
        let target = self.parse_below_range()?;
        self.expect_kw("to")?;
        let value = self.parse_expr_single()?;
        Ok(Expr::Browser(BrowserExpr::SetStyle {
            prop: prop.boxed(),
            target: target.boxed(),
            value: value.boxed(),
        }))
    }

    /// `get style ExprSingle of ExprSingle`
    pub(crate) fn parse_get_style(&mut self) -> XdmResult<Expr> {
        self.expect_kw("get")?;
        self.expect_kw("style")?;
        let prop = self.parse_expr_single()?;
        self.expect_kw("of")?;
        let target = self.parse_expr_single()?;
        Ok(Expr::Browser(BrowserExpr::GetStyle {
            prop: prop.boxed(),
            target: target.boxed(),
        }))
    }

    // ----- full-text ----------------------------------------------------------

    /// FTSelection with `ftor` / `ftand` / `ftnot`, parenthesised groups and
    /// per-group match options.
    pub(crate) fn parse_ft_selection(&mut self) -> XdmResult<FtSelection> {
        self.parse_ft_or()
    }

    fn parse_ft_or(&mut self) -> XdmResult<FtSelection> {
        let first = self.parse_ft_and()?;
        if !self.at_kw("ftor") {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat_kw("ftor")? {
            items.push(self.parse_ft_and()?);
        }
        Ok(FtSelection::Or(items))
    }

    fn parse_ft_and(&mut self) -> XdmResult<FtSelection> {
        let first = self.parse_ft_not()?;
        if !self.at_kw("ftand") {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat_kw("ftand")? {
            items.push(self.parse_ft_not()?);
        }
        Ok(FtSelection::And(items))
    }

    fn parse_ft_not(&mut self) -> XdmResult<FtSelection> {
        if self.eat_kw("ftnot")? {
            let inner = self.parse_ft_primary()?;
            return Ok(FtSelection::Not(Box::new(inner)));
        }
        self.parse_ft_primary()
    }

    fn parse_ft_primary(&mut self) -> XdmResult<FtSelection> {
        let mut sel = match self.cur.tok.clone() {
            Tok::LParen => {
                self.advance()?;
                let inner = self.parse_ft_selection()?;
                self.expect_tok(Tok::RParen)?;
                inner
            }
            Tok::LBrace => {
                self.advance()?;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RBrace)?;
                FtSelection::Words {
                    expr: e.boxed(),
                    options: FtMatchOptions::default(),
                }
            }
            Tok::StringLit(s) => {
                self.advance()?;
                FtSelection::Words {
                    expr: Expr::string_lit(&s).boxed(),
                    options: FtMatchOptions::default(),
                }
            }
            Tok::Dollar => {
                let name = self.parse_var_name()?;
                FtSelection::Words {
                    expr: Expr::VarRef(name).boxed(),
                    options: FtMatchOptions::default(),
                }
            }
            other => {
                return Err(self.error(format!(
                    "expected a full-text primary, found {}",
                    other.describe()
                )))
            }
        };
        // match options apply to the nearest primary/group
        while self.at_kw("with")
            || self.at_kw2("case", "sensitive")?
            || self.at_kw2("case", "insensitive")?
        {
            let opts = self.parse_ft_match_option()?;
            sel = apply_options(sel, opts);
        }
        Ok(sel)
    }

    fn parse_ft_match_option(&mut self) -> XdmResult<FtMatchOptions> {
        let mut opts = FtMatchOptions::default();
        if self.eat_kw("with")? {
            if self.eat_kw("stemming")? {
                opts.stemming = true;
            } else if self.eat_kw("wildcards")? {
                opts.wildcards = true;
            } else {
                return Err(self.error("expected `stemming` or `wildcards` after `with`"));
            }
        } else if self.eat_kw("case")? {
            if self.eat_kw("sensitive")? {
                opts.case_sensitive = true;
            } else {
                self.expect_kw("insensitive")?;
            }
        }
        Ok(opts)
    }
}

fn apply_options(sel: FtSelection, opts: FtMatchOptions) -> FtSelection {
    match sel {
        FtSelection::Words { expr, options } => FtSelection::Words {
            expr,
            options: FtMatchOptions {
                stemming: options.stemming || opts.stemming,
                case_sensitive: options.case_sensitive || opts.case_sensitive,
                wildcards: options.wildcards || opts.wildcards,
            },
        },
        FtSelection::And(items) => {
            FtSelection::And(items.into_iter().map(|s| apply_options(s, opts)).collect())
        }
        FtSelection::Or(items) => {
            FtSelection::Or(items.into_iter().map(|s| apply_options(s, opts)).collect())
        }
        FtSelection::Not(inner) => FtSelection::Not(Box::new(apply_options(*inner, opts))),
    }
}
