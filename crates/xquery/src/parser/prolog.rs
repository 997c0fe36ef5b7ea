//! Prolog parsing: namespace/option/variable/function declarations and
//! module imports, including `declare updating function` (Update Facility)
//! and `declare sequential function` (Scripting Extension), both of which the
//! paper's listings use.

use xqib_xdm::XdmResult;

use crate::ast::{FunctionDecl, FunctionKind, ModuleImport, Prolog, VarDecl};
use crate::token::Tok;

use super::Parser;

impl<'a> Parser<'a> {
    pub(crate) fn parse_prolog(&mut self) -> XdmResult<Prolog> {
        let mut prolog = Prolog::default();
        loop {
            if self.at_kw("declare") {
                let next = self.peek2()?;
                if next.is_kw("namespace") {
                    self.advance()?;
                    self.advance()?;
                    let prefix = match self.cur.tok.clone() {
                        Tok::Name(n) => {
                            self.advance()?;
                            n
                        }
                        _ => return Err(self.error("expected a namespace prefix")),
                    };
                    self.expect_tok(Tok::Eq)?;
                    let uri = self.parse_string_literal()?;
                    self.expect_tok(Tok::Semicolon)?;
                    self.namespaces.insert(prefix.clone(), uri.clone());
                    prolog.namespaces.push((prefix, uri));
                } else if next.is_kw("default") {
                    self.advance()?;
                    self.advance()?;
                    if self.eat_kw("element")? {
                        self.expect_kw("namespace")?;
                        let uri = self.parse_string_literal()?;
                        self.default_element_ns = if uri.is_empty() { None } else { Some(uri) };
                    } else if self.eat_kw("function")? {
                        self.expect_kw("namespace")?;
                        self.default_function_ns = Some(self.parse_string_literal()?);
                    } else if self.eat_kw("collation")? {
                        let _ = self.parse_string_literal()?;
                    } else if self.eat_kw("order")? {
                        // `declare default order empty least/greatest`
                        self.expect_kw("empty")?;
                        if !self.eat_kw("least")? {
                            self.expect_kw("greatest")?;
                        }
                    } else {
                        return Err(self.error("unsupported default declaration"));
                    }
                    self.expect_tok(Tok::Semicolon)?;
                } else if next.is_kw("option") {
                    self.advance()?;
                    self.advance()?;
                    let (p, l) = self.parse_raw_qname()?;
                    let q = self.resolve_qname(p, l, false)?;
                    let value = self.parse_string_literal()?;
                    self.expect_tok(Tok::Semicolon)?;
                    prolog.options.push((q, value));
                } else if next.is_kw("variable") {
                    self.advance()?;
                    self.advance()?;
                    let name = self.parse_var_name()?;
                    let ty = if self.at_kw("as") {
                        self.advance()?;
                        Some(self.parse_sequence_type()?)
                    } else {
                        None
                    };
                    let init = if self.eat_tok(&Tok::ColonEq)? {
                        Some(self.parse_expr_single()?)
                    } else {
                        self.expect_kw("external")?;
                        None
                    };
                    self.expect_tok(Tok::Semicolon)?;
                    prolog.variables.push(VarDecl { name, ty, init });
                } else if next.is_kw("function")
                    || next.is_kw("updating")
                    || next.is_kw("sequential")
                    || next.is_kw("simple")
                {
                    self.advance()?; // declare
                    let kind = if self.eat_kw("updating")? {
                        FunctionKind::Updating
                    } else if self.eat_kw("sequential")? {
                        FunctionKind::Sequential
                    } else {
                        let _ = self.eat_kw("simple")?;
                        FunctionKind::Simple
                    };
                    self.expect_kw("function")?;
                    let decl = self.parse_function_decl(kind)?;
                    self.expect_tok(Tok::Semicolon)?;
                    prolog.functions.push(decl);
                } else if next.is_kw("boundary-space") {
                    self.advance()?;
                    self.advance()?;
                    if !self.eat_kw("preserve")? {
                        self.expect_kw("strip")?;
                    }
                    self.expect_tok(Tok::Semicolon)?;
                } else if next.is_kw("base-uri") {
                    self.advance()?;
                    self.advance()?;
                    let _ = self.parse_string_literal()?;
                    self.expect_tok(Tok::Semicolon)?;
                } else if next.is_kw("construction")
                    || next.is_kw("ordering")
                    || next.is_kw("copy-namespaces")
                    || next.is_kw("revalidation")
                {
                    // accepted and ignored (defaults apply)
                    self.advance()?;
                    while self.cur.tok != Tok::Semicolon && self.cur.tok != Tok::Eof {
                        self.advance()?;
                    }
                    self.expect_tok(Tok::Semicolon)?;
                } else {
                    break;
                }
            } else if self.at_kw("import") {
                let next = self.peek2()?;
                if next.is_kw("module") {
                    self.advance()?;
                    self.advance()?;
                    self.expect_kw("namespace")?;
                    let prefix = match self.cur.tok.clone() {
                        Tok::Name(n) => {
                            self.advance()?;
                            n
                        }
                        _ => return Err(self.error("expected a module prefix")),
                    };
                    self.expect_tok(Tok::Eq)?;
                    let uri = self.parse_string_literal()?;
                    let mut locations = Vec::new();
                    if self.eat_kw("at")? {
                        loop {
                            locations.push(self.parse_string_literal()?);
                            if !self.eat_tok(&Tok::Comma)? {
                                break;
                            }
                        }
                    }
                    self.expect_tok(Tok::Semicolon)?;
                    self.namespaces.insert(prefix.clone(), uri.clone());
                    prolog.namespaces.push((prefix.clone(), uri.clone()));
                    prolog.module_imports.push(ModuleImport {
                        prefix,
                        uri,
                        locations,
                    });
                } else if next.is_kw("schema") {
                    return Err(self.error("schema import is not supported (untyped data model)"));
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(prolog)
    }

    /// Parses `name(params) (as Type)? ({ body } | external)` after the
    /// `function` keyword.
    pub(crate) fn parse_function_decl(
        &mut self,
        kind: crate::ast::FunctionKind,
    ) -> XdmResult<FunctionDecl> {
        let (p, l) = self.parse_raw_qname()?;
        let name = match p {
            Some(_) => self.resolve_qname(p, l, false)?,
            // unprefixed user functions live in local: unless the prolog
            // declares a default function namespace
            None => self.unprefixed_function_name(&l, xqib_dom::name::LOCAL_NS),
        };
        self.expect_tok(Tok::LParen)?;
        let mut params = Vec::new();
        if self.cur.tok != Tok::RParen {
            loop {
                let pname = self.parse_var_name()?;
                let ty = if self.at_kw("as") {
                    self.advance()?;
                    Some(self.parse_sequence_type()?)
                } else {
                    None
                };
                params.push((pname, ty));
                if !self.eat_tok(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect_tok(Tok::RParen)?;
        let return_type = if self.at_kw("as") {
            self.advance()?;
            Some(self.parse_sequence_type()?)
        } else {
            None
        };
        let body = if self.at_kw("external") {
            self.advance()?;
            // external functions are resolved against native bindings at
            // runtime; represent as a call marker
            crate::ast::Expr::FunctionCall {
                name: xqib_dom::QName::ns("xqib:external", "external"),
                args: vec![],
            }
        } else {
            self.parse_block()?
        };
        Ok(FunctionDecl {
            name,
            params,
            return_type,
            kind,
            body: std::rc::Rc::new(body),
            plan: None,
        })
    }
}
