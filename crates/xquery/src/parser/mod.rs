//! Recursive-descent parser for XQuery 1.0 + Update Facility + Scripting +
//! Full-Text + the paper's browser extensions.
//!
//! Keywords are contextual (XQuery reserves nothing), so the parser decides
//! keyword-hood by looking at name tokens in position. Direct XML
//! constructors switch the parser into raw character scanning at the lexer's
//! byte offset — the standard dual-lexical-state technique.

mod constructor;
mod expr;
mod extensions;
mod prolog;
mod types;

use std::collections::HashMap;

use xqib_dom::name::FN_NS;
use xqib_dom::QName;
use xqib_xdm::{XdmError, XdmResult};

use crate::ast::{Expr, LibraryModule, MainModule, Statement};
use crate::context::PREDECLARED_NAMESPACES;
use crate::lexer::Lexer;
use crate::token::{Tok, Token};

/// Reserved function-name words that must not be parsed as function calls.
const RESERVED_FN_NAMES: &[&str] = &[
    "attribute",
    "comment",
    "document-node",
    "element",
    "empty-sequence",
    "if",
    "item",
    "node",
    "processing-instruction",
    "schema-attribute",
    "schema-element",
    "text",
    "typeswitch",
];

/// The parser state.
pub struct Parser<'a> {
    pub(crate) lx: Lexer<'a>,
    pub(crate) cur: Token,
    /// expression-nesting depth guard (keeps recursive descent off the
    /// end of the stack for adversarial inputs)
    pub(crate) depth: usize,
    /// stack position at parser creation — the primary guard measures real
    /// bytes, since debug-build frames are large
    pub(crate) stack_base: usize,
    /// statically-known namespaces (prefix → URI), seeded with
    /// [`PREDECLARED_NAMESPACES`].
    pub(crate) namespaces: HashMap<String, String>,
    pub(crate) default_element_ns: Option<String>,
    /// `declare default function namespace`, once the prolog declares it
    /// (`""` puts unprefixed function names in no namespace).
    pub(crate) default_function_ns: Option<String>,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str) -> XdmResult<Self> {
        let mut lx = Lexer::new(src);
        let cur = lx.next_token()?;
        let namespaces = PREDECLARED_NAMESPACES
            .iter()
            .map(|&(p, uri)| (p.to_string(), uri.to_string()))
            .collect();
        Ok(Parser {
            lx,
            cur,
            depth: 0,
            stack_base: crate::context::approx_stack_ptr(),
            namespaces,
            default_element_ns: None,
            default_function_ns: None,
        })
    }

    // ----- token plumbing ---------------------------------------------------

    pub(crate) fn advance(&mut self) -> XdmResult<()> {
        self.cur = self.lx.next_token()?;
        Ok(())
    }

    /// Peeks at the token after the current one without consuming.
    pub(crate) fn peek2(&mut self) -> XdmResult<Tok> {
        let save = self.lx.pos;
        let t = self.lx.next_token()?;
        self.lx.pos = save;
        Ok(t.tok)
    }

    pub(crate) fn error(&self, msg: impl Into<String>) -> XdmError {
        XdmError::new(
            "XPST0003",
            format!("{} (at byte {})", msg.into(), self.cur.start),
        )
    }

    pub(crate) fn expect_tok(&mut self, t: Tok) -> XdmResult<()> {
        if self.cur.tok == t {
            self.advance()
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                t.describe(),
                self.cur.tok.describe()
            )))
        }
    }

    /// Consumes a contextual keyword.
    pub(crate) fn expect_kw(&mut self, kw: &str) -> XdmResult<()> {
        if self.cur.tok.is_kw(kw) {
            self.advance()
        } else {
            Err(self.error(format!(
                "expected keyword `{kw}`, found {}",
                self.cur.tok.describe()
            )))
        }
    }

    pub(crate) fn at_kw(&self, kw: &str) -> bool {
        self.cur.tok.is_kw(kw)
    }

    /// `kw1 kw2` lookahead: current token is `kw1` and next is `kw2`.
    pub(crate) fn at_kw2(&mut self, kw1: &str, kw2: &str) -> XdmResult<bool> {
        Ok(self.at_kw(kw1) && self.peek2()?.is_kw(kw2))
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> XdmResult<bool> {
        if self.at_kw(kw) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    pub(crate) fn eat_tok(&mut self, t: &Tok) -> XdmResult<bool> {
        if &self.cur.tok == t {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    // ----- names ------------------------------------------------------------

    /// Parses a lexical QName token into raw (prefix, local).
    pub(crate) fn parse_raw_qname(&mut self) -> XdmResult<(Option<String>, String)> {
        match self.cur.tok.clone() {
            Tok::Name(n) => {
                self.advance()?;
                Ok((None, n))
            }
            Tok::PrefixedName(p, l) => {
                self.advance()?;
                Ok((Some(p), l))
            }
            other => Err(self.error(format!("expected a QName, found {}", other.describe()))),
        }
    }

    /// Resolves a raw name against the in-scope namespaces.
    /// `use_default_element_ns` controls whether unprefixed names pick up the
    /// default element namespace (element names: yes; functions/vars: no).
    pub(crate) fn resolve_qname(
        &self,
        prefix: Option<String>,
        local: String,
        use_default_element_ns: bool,
    ) -> XdmResult<QName> {
        match prefix {
            Some(p) => {
                let uri = self.namespaces.get(&p).ok_or_else(|| {
                    XdmError::new("XPST0081", format!("undeclared namespace prefix `{p}`"))
                })?;
                Ok(QName::full(Some(&p), Some(uri), &local))
            }
            None => {
                if use_default_element_ns {
                    Ok(QName::full(
                        None,
                        self.default_element_ns.as_deref(),
                        &local,
                    ))
                } else {
                    Ok(QName::local(&local))
                }
            }
        }
    }

    /// QName in element-name position.
    pub(crate) fn parse_element_qname(&mut self) -> XdmResult<QName> {
        let (p, l) = self.parse_raw_qname()?;
        self.resolve_qname(p, l, true)
    }

    /// QName in function-name position (no default element ns);
    /// unprefixed function names resolve to the default function namespace.
    pub(crate) fn parse_function_qname(&mut self) -> XdmResult<QName> {
        let (p, l) = self.parse_raw_qname()?;
        match p {
            Some(_) => self.resolve_qname(p, l, false),
            None => Ok(self.unprefixed_function_name(&l, FN_NS)),
        }
    }

    /// An unprefixed function name: in the prolog's default function
    /// namespace when it declares one, else in `otherwise`.
    pub(crate) fn unprefixed_function_name(&self, local: &str, otherwise: &str) -> QName {
        let ns = self.default_function_ns.as_deref().unwrap_or(otherwise);
        QName::full(None, Some(ns).filter(|ns| !ns.is_empty()), local)
    }

    /// `$name`
    pub(crate) fn parse_var_name(&mut self) -> XdmResult<QName> {
        self.expect_tok(Tok::Dollar)?;
        let (p, l) = self.parse_raw_qname()?;
        self.resolve_qname(p, l, false)
    }

    // ----- entry points -----------------------------------------------------

    /// Parses a complete main module (prolog + body program).
    pub fn parse_main_module(mut self) -> XdmResult<MainModule> {
        self.skip_version_decl()?;
        let prolog = self.parse_prolog()?;
        let body = self.parse_program()?;
        if self.cur.tok != Tok::Eof {
            return Err(self.error(format!("unexpected trailing {}", self.cur.tok.describe())));
        }
        Ok(MainModule { prolog, body })
    }

    /// Parses a library module.
    pub fn parse_library_module(mut self) -> XdmResult<LibraryModule> {
        self.skip_version_decl()?;
        self.expect_kw("module")?;
        self.expect_kw("namespace")?;
        let prefix = match self.cur.tok.clone() {
            Tok::Name(n) => {
                self.advance()?;
                n
            }
            _ => return Err(self.error("expected module prefix")),
        };
        self.expect_tok(Tok::Eq)?;
        let uri = self.parse_string_literal()?;
        // the paper's web-service extension: `port:2001` — `:2001` is not a
        // QName tail (digits), so read it at the character level
        let port = if self.cur.tok.is_kw("port") {
            let mut pos = self.cur.end;
            let bytes = self.lx.src.as_bytes();
            if bytes.get(pos) == Some(&b':') {
                pos += 1;
                let start = pos;
                while bytes.get(pos).is_some_and(|b| b.is_ascii_digit()) {
                    pos += 1;
                }
                let digits = &self.lx.src[start..pos];
                let port: u16 = digits
                    .parse()
                    .map_err(|_| self.error(format!("bad port number `{digits}`")))?;
                self.lx.pos = pos;
                self.advance()?;
                Some(port)
            } else {
                None
            }
        } else {
            None
        };
        self.expect_tok(Tok::Semicolon)?;
        self.namespaces.insert(prefix.clone(), uri.clone());
        let prolog = self.parse_prolog()?;
        if self.cur.tok != Tok::Eof {
            return Err(self.error(format!(
                "unexpected trailing {} in library module",
                self.cur.tok.describe()
            )));
        }
        Ok(LibraryModule {
            prefix,
            uri,
            port,
            prolog,
        })
    }

    fn skip_version_decl(&mut self) -> XdmResult<()> {
        if self.at_kw("xquery") && self.peek2()?.is_kw("version") {
            self.advance()?; // xquery
            self.advance()?; // version
            let _v = self.parse_string_literal()?;
            if self.eat_kw("encoding")? {
                let _e = self.parse_string_literal()?;
            }
            self.expect_tok(Tok::Semicolon)?;
        }
        Ok(())
    }

    /// The query body: one or more statements separated by `;` (the XQSE
    /// "Program" shape; a plain XQuery body is a single statement).
    fn parse_program(&mut self) -> XdmResult<Vec<Statement>> {
        let mut stmts = Vec::new();
        loop {
            if self.cur.tok == Tok::Eof {
                break;
            }
            let stmt = self.parse_statement()?;
            stmts.push(stmt);
            if !self.eat_tok(&Tok::Semicolon)? {
                break;
            }
        }
        if stmts.is_empty() {
            return Err(self.error("empty query body"));
        }
        Ok(stmts)
    }

    pub(crate) fn parse_string_literal(&mut self) -> XdmResult<String> {
        match self.cur.tok.clone() {
            Tok::StringLit(s) => {
                self.advance()?;
                Ok(s)
            }
            other => Err(self.error(format!(
                "expected a string literal, found {}",
                other.describe()
            ))),
        }
    }

    pub(crate) fn is_reserved_fn_name(name: &str) -> bool {
        RESERVED_FN_NAMES.contains(&name)
    }
}

/// Parses a query source into a main module.
pub fn parse_main(src: &str) -> XdmResult<MainModule> {
    Parser::new(src)?.parse_main_module()
}

/// Parses a library module source.
pub fn parse_library(src: &str) -> XdmResult<LibraryModule> {
    Parser::new(src)?.parse_library_module()
}

/// Parses a single expression (convenience for tests and embedded XPath).
pub fn parse_expr_str(src: &str) -> XdmResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.parse_expr()?;
    if p.cur.tok != Tok::Eof {
        return Err(p.error(format!("unexpected trailing {}", p.cur.tok.describe())));
    }
    Ok(e)
}
