//! Direct and computed XML constructors.
//!
//! Direct constructors (`<li>{$x}</li>`) are parsed in raw character mode at
//! the lexer's byte offset; enclosed expressions `{ … }` temporarily switch
//! back to token mode — the classic XQuery dual-state parse.

use xqib_xdm::{XdmError, XdmResult};

use crate::ast::{AttrContent, Computed, ElemContent, Expr, NameExpr};
use crate::lexer::{is_name_char, is_name_start, utf8_len};
use crate::token::Tok;

use super::Parser;

impl<'a> Parser<'a> {
    /// Called with `cur == Tok::Lt`. Consumes the whole constructor and
    /// resumes token mode.
    pub(crate) fn parse_direct_constructor(&mut self) -> XdmResult<Expr> {
        debug_assert_eq!(self.cur.tok, Tok::Lt);
        let mut pos = self.cur.end; // first char after '<'
        let expr = self.parse_direct_element(&mut pos)?;
        // resume token mode after the constructor
        self.lx.pos = pos;
        self.advance()?;
        Ok(expr)
    }

    // --- raw character helpers ---

    fn ch(&self, pos: usize) -> Option<u8> {
        self.lx.src.as_bytes().get(pos).copied()
    }

    fn starts_with(&self, pos: usize, s: &str) -> bool {
        self.lx.src.as_bytes()[pos.min(self.lx.src.len())..].starts_with(s.as_bytes())
    }

    fn skip_ws_raw(&self, pos: &mut usize) {
        while matches!(self.ch(*pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            *pos += 1;
        }
    }

    fn read_raw_name(&self, pos: &mut usize) -> XdmResult<String> {
        let start = *pos;
        if !self.ch(*pos).is_some_and(is_name_start) {
            return Err(XdmError::new(
                "XPST0003",
                format!("expected a name in constructor at byte {start}"),
            ));
        }
        while self.ch(*pos).is_some_and(|b| is_name_char(b) || b == b':') {
            *pos += 1;
        }
        Ok(self.lx.src[start..*pos].to_string())
    }

    fn err_at(&self, pos: usize, msg: &str) -> XdmError {
        XdmError::new("XPST0003", format!("{msg} at byte {pos}"))
    }

    /// Parses an element whose `<` has already been consumed; `pos` points at
    /// the element name.
    fn parse_direct_element(&mut self, pos: &mut usize) -> XdmResult<Expr> {
        let raw_name = self.read_raw_name(pos)?;
        let mut local_ns: Vec<(String, String)> = Vec::new();
        let mut raw_attrs: Vec<(String, Vec<AttrContent>)> = Vec::new();

        // attributes
        loop {
            self.skip_ws_raw(pos);
            match self.ch(*pos) {
                Some(b'/') | Some(b'>') | None => break,
                _ => {}
            }
            let aname = self.read_raw_name(pos)?;
            self.skip_ws_raw(pos);
            if self.ch(*pos) != Some(b'=') {
                return Err(self.err_at(*pos, "expected `=` after attribute name"));
            }
            *pos += 1;
            self.skip_ws_raw(pos);
            let parts = self.parse_attr_value_template(pos)?;
            if aname == "xmlns" {
                let uri = literal_only(&parts)
                    .ok_or_else(|| self.err_at(*pos, "xmlns value must be a literal"))?;
                local_ns.push((String::new(), uri));
            } else if let Some(p) = aname.strip_prefix("xmlns:") {
                let uri = literal_only(&parts)
                    .ok_or_else(|| self.err_at(*pos, "xmlns value must be a literal"))?;
                local_ns.push((p.to_string(), uri));
            } else {
                raw_attrs.push((aname, parts));
            }
        }

        // register local namespace declarations for resolving names inside
        let saved_ns: Vec<(String, Option<String>)> = local_ns
            .iter()
            .map(|(p, _)| (p.clone(), self.namespaces.get(p).cloned()))
            .collect();
        let saved_default = self.default_element_ns.clone();
        for (p, u) in &local_ns {
            if p.is_empty() {
                self.default_element_ns = if u.is_empty() { None } else { Some(u.clone()) };
            } else {
                self.namespaces.insert(p.clone(), u.clone());
            }
        }

        let result = self.parse_direct_element_inner(pos, &raw_name, raw_attrs, &local_ns);

        // restore namespace scope
        for (p, old) in saved_ns {
            match old {
                Some(u) => {
                    self.namespaces.insert(p, u);
                }
                None => {
                    self.namespaces.remove(&p);
                }
            }
        }
        self.default_element_ns = saved_default;
        result
    }

    fn parse_direct_element_inner(
        &mut self,
        pos: &mut usize,
        raw_name: &str,
        raw_attrs: Vec<(String, Vec<AttrContent>)>,
        local_ns: &[(String, String)],
    ) -> XdmResult<Expr> {
        let name = self.resolve_raw_lexical(raw_name, true)?;
        let mut attrs = Vec::with_capacity(raw_attrs.len());
        for (an, parts) in raw_attrs {
            let aq = self.resolve_raw_lexical(&an, false)?;
            attrs.push((aq, parts));
        }

        // self-closing?
        if self.ch(*pos) == Some(b'/') {
            *pos += 1;
            if self.ch(*pos) != Some(b'>') {
                return Err(self.err_at(*pos, "expected `>` after `/`"));
            }
            *pos += 1;
            return Ok(Expr::DirectElement {
                name,
                attrs,
                ns_decls: local_ns.to_vec(),
                children: vec![],
            });
        }
        if self.ch(*pos) != Some(b'>') {
            return Err(self.err_at(*pos, "expected `>` in start tag"));
        }
        *pos += 1;

        // content
        let mut children: Vec<ElemContent> = Vec::new();
        let mut text = String::new();
        loop {
            match self.ch(*pos) {
                None => return Err(self.err_at(*pos, "unterminated direct constructor")),
                Some(b'<') => {
                    if self.starts_with(*pos, "</") {
                        flush_text(&mut text, &mut children);
                        *pos += 2;
                        let close = self.read_raw_name(pos)?;
                        if close != raw_name {
                            return Err(self.err_at(
                                *pos,
                                &format!("mismatched close tag </{close}> for <{raw_name}>"),
                            ));
                        }
                        self.skip_ws_raw(pos);
                        if self.ch(*pos) != Some(b'>') {
                            return Err(self.err_at(*pos, "expected `>` in end tag"));
                        }
                        *pos += 1;
                        return Ok(Expr::DirectElement {
                            name,
                            attrs,
                            ns_decls: local_ns.to_vec(),
                            children,
                        });
                    } else if self.starts_with(*pos, "<!--") {
                        flush_text(&mut text, &mut children);
                        *pos += 4;
                        let start = *pos;
                        while !self.starts_with(*pos, "-->") {
                            if self.ch(*pos).is_none() {
                                return Err(self.err_at(start, "unterminated comment"));
                            }
                            *pos += 1;
                        }
                        let body = self.lx.src[start..*pos].to_string();
                        *pos += 3;
                        children.push(ElemContent::Child(Expr::Computed(Computed::Comment(
                            Expr::string_lit(&body).boxed(),
                        ))));
                    } else if self.starts_with(*pos, "<![CDATA[") {
                        *pos += 9;
                        let start = *pos;
                        while !self.starts_with(*pos, "]]>") {
                            if self.ch(*pos).is_none() {
                                return Err(self.err_at(start, "unterminated CDATA"));
                            }
                            *pos += 1;
                        }
                        text.push_str(&self.lx.src[start..*pos]);
                        *pos += 3;
                    } else if self.starts_with(*pos, "<?") {
                        flush_text(&mut text, &mut children);
                        *pos += 2;
                        let target = self.read_raw_name(pos)?;
                        let start = *pos;
                        while !self.starts_with(*pos, "?>") {
                            if self.ch(*pos).is_none() {
                                return Err(self.err_at(start, "unterminated PI"));
                            }
                            *pos += 1;
                        }
                        let body = self.lx.src[start..*pos].trim().to_string();
                        *pos += 2;
                        children.push(ElemContent::Child(Expr::Computed(Computed::Pi {
                            target: NameExpr::Static(xqib_dom::QName::local(&target)),
                            content: Some(Expr::string_lit(&body).boxed()),
                        })));
                    } else {
                        // nested element
                        flush_text(&mut text, &mut children);
                        *pos += 1;
                        let child = self.parse_direct_element(pos)?;
                        children.push(ElemContent::Child(child));
                    }
                }
                Some(b'{') => {
                    if self.ch(*pos + 1) == Some(b'{') {
                        text.push('{');
                        *pos += 2;
                    } else {
                        flush_text(&mut text, &mut children);
                        *pos += 1;
                        let (e, after) = self.parse_enclosed_in_char_mode(*pos)?;
                        children.push(ElemContent::Enclosed(e));
                        *pos = after;
                    }
                }
                Some(b'}') => {
                    if self.ch(*pos + 1) == Some(b'}') {
                        text.push('}');
                        *pos += 2;
                    } else {
                        return Err(self.err_at(*pos, "`}` must be doubled inside element content"));
                    }
                }
                Some(b'&') => {
                    let rest = &self.lx.src[*pos..];
                    let semi = rest
                        .find(';')
                        .ok_or_else(|| self.err_at(*pos, "unterminated entity reference"))?;
                    let decoded = xqib_dom::parser::decode_entities(&rest[..=semi], *pos)
                        .map_err(|e| XdmError::new("XPST0003", e.to_string()))?;
                    text.push_str(&decoded);
                    *pos += semi + 1;
                }
                Some(b) => {
                    let len = utf8_len(b);
                    text.push_str(&self.lx.src[*pos..*pos + len]);
                    *pos += len;
                }
            }
        }
    }

    /// Attribute value template: quoted string with `{expr}` holes and
    /// `{{`/`}}`/doubled-quote escapes.
    fn parse_attr_value_template(&mut self, pos: &mut usize) -> XdmResult<Vec<AttrContent>> {
        let quote = self
            .ch(*pos)
            .ok_or_else(|| self.err_at(*pos, "expected attribute value"))?;
        if quote != b'"' && quote != b'\'' {
            return Err(self.err_at(*pos, "attribute value must be quoted"));
        }
        *pos += 1;
        let mut parts: Vec<AttrContent> = Vec::new();
        let mut text = String::new();
        loop {
            match self.ch(*pos) {
                None => return Err(self.err_at(*pos, "unterminated attribute value")),
                Some(b) if b == quote => {
                    if self.ch(*pos + 1) == Some(quote) {
                        text.push(quote as char);
                        *pos += 2;
                    } else {
                        *pos += 1;
                        break;
                    }
                }
                Some(b'{') => {
                    if self.ch(*pos + 1) == Some(b'{') {
                        text.push('{');
                        *pos += 2;
                    } else {
                        if !text.is_empty() {
                            parts.push(AttrContent::Text(std::mem::take(&mut text)));
                        }
                        *pos += 1;
                        let (e, after) = self.parse_enclosed_in_char_mode(*pos)?;
                        parts.push(AttrContent::Enclosed(e));
                        *pos = after;
                    }
                }
                Some(b'}') => {
                    if self.ch(*pos + 1) == Some(b'}') {
                        text.push('}');
                        *pos += 2;
                    } else {
                        return Err(
                            self.err_at(*pos, "`}` must be doubled inside attribute values")
                        );
                    }
                }
                Some(b'&') => {
                    let rest = &self.lx.src[*pos..];
                    let semi = rest
                        .find(';')
                        .ok_or_else(|| self.err_at(*pos, "unterminated entity reference"))?;
                    let decoded = xqib_dom::parser::decode_entities(&rest[..=semi], *pos)
                        .map_err(|e| XdmError::new("XPST0003", e.to_string()))?;
                    text.push_str(&decoded);
                    *pos += semi + 1;
                }
                Some(b) => {
                    let len = utf8_len(b);
                    text.push_str(&self.lx.src[*pos..*pos + len]);
                    *pos += len;
                }
            }
        }
        if !text.is_empty() || parts.is_empty() {
            parts.push(AttrContent::Text(text));
        }
        Ok(parts)
    }

    /// Switches to token mode at `pos` to parse an enclosed expression; the
    /// closing `}` is consumed. Returns the expression and the byte offset
    /// right after `}`.
    fn parse_enclosed_in_char_mode(&mut self, pos: usize) -> XdmResult<(Expr, usize)> {
        self.lx.pos = pos;
        self.advance()?;
        let e = self.parse_expr()?;
        if self.cur.tok != Tok::RBrace {
            return Err(self.error(format!(
                "expected `}}` after enclosed expression, found {}",
                self.cur.tok.describe()
            )));
        }
        Ok((e, self.cur.end))
    }

    /// Resolves a raw lexical name (`p:local` or `local`) from a direct
    /// constructor against in-scope namespaces.
    fn resolve_raw_lexical(&self, raw: &str, is_element: bool) -> XdmResult<xqib_dom::QName> {
        match raw.split_once(':') {
            Some((p, l)) => {
                let uri = self.namespaces.get(p).ok_or_else(|| {
                    XdmError::new("XPST0081", format!("undeclared namespace prefix `{p}`"))
                })?;
                Ok(xqib_dom::QName::full(Some(p), Some(uri), l))
            }
            None => {
                if is_element {
                    Ok(xqib_dom::QName::full(
                        None,
                        self.default_element_ns.as_deref(),
                        raw,
                    ))
                } else {
                    Ok(xqib_dom::QName::local(raw))
                }
            }
        }
    }

    // ----- computed constructors -------------------------------------------

    /// `element {E} {E}` / `element name {E}` / `attribute …` / `text {E}` /
    /// `comment {E}` / `processing-instruction …` / `document {E}`.
    pub(crate) fn parse_computed_constructor(&mut self, kind: &str) -> XdmResult<Expr> {
        self.advance()?; // the keyword
        match kind {
            "text" => {
                self.expect_tok(Tok::LBrace)?;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RBrace)?;
                Ok(Expr::Computed(Computed::Text(e.boxed())))
            }
            "comment" => {
                self.expect_tok(Tok::LBrace)?;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RBrace)?;
                Ok(Expr::Computed(Computed::Comment(e.boxed())))
            }
            "document" => {
                self.expect_tok(Tok::LBrace)?;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RBrace)?;
                Ok(Expr::Computed(Computed::Document(e.boxed())))
            }
            "element" | "attribute" | "processing-instruction" => {
                let name = if self.cur.tok == Tok::LBrace {
                    self.advance()?;
                    let e = self.parse_expr()?;
                    self.expect_tok(Tok::RBrace)?;
                    NameExpr::Dynamic(e.boxed())
                } else {
                    let q = if kind == "element" {
                        self.parse_element_qname()?
                    } else {
                        let (p, l) = self.parse_raw_qname()?;
                        self.resolve_qname(p, l, false)?
                    };
                    NameExpr::Static(q)
                };
                let content = if self.cur.tok == Tok::LBrace {
                    self.advance()?;
                    if self.cur.tok == Tok::RBrace {
                        self.advance()?;
                        None
                    } else {
                        let e = self.parse_expr()?;
                        self.expect_tok(Tok::RBrace)?;
                        Some(e.boxed())
                    }
                } else {
                    None
                };
                Ok(Expr::Computed(match kind {
                    "element" => Computed::Element { name, content },
                    "attribute" => Computed::Attribute { name, content },
                    _ => Computed::Pi {
                        target: name,
                        content,
                    },
                }))
            }
            other => Err(self.error(format!("unknown constructor kind `{other}`"))),
        }
    }
}

fn flush_text(text: &mut String, children: &mut Vec<ElemContent>) {
    if !text.is_empty() {
        children.push(ElemContent::Text(std::mem::take(text)));
    }
}

fn literal_only(parts: &[AttrContent]) -> Option<String> {
    match parts {
        [AttrContent::Text(t)] => Some(t.clone()),
        [] => Some(String::new()),
        _ => None,
    }
}
