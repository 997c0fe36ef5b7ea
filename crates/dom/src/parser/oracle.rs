//! The recursive-descent parser the iterative scanner in [`super`]
//! replaced, kept verbatim as the oracle it must match: the same inputs
//! accepted and rejected, and the same arena, slot for slot.

use super::{decode_entities, ParseOptions};
use crate::arena::Document;
use crate::error::{DomError, DomResult};
use crate::name::QName;
use crate::node::NodeId;

/// Parses a complete document with explicit options.
pub fn parse_with_options(input: &str, opts: &ParseOptions) -> DomResult<Document> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        opts,
    };
    let mut doc = Document::new();
    p.skip_misc(&mut doc)?;
    if p.eof() {
        return Err(DomError::parse("document has no root element", p.pos));
    }
    let mut scope = NsScope::new();
    let root = p.parse_element(&mut doc, &mut scope)?;
    doc.append_child(doc.root(), root)
        .map_err(|e| DomError::parse(e.to_string(), p.pos))?;
    p.skip_misc(&mut doc)?;
    if !p.eof() {
        return Err(DomError::parse("content after root element", p.pos));
    }
    Ok(doc)
}

/// Parses a standalone fragment (sequence of content items) into a fresh
/// document whose document node holds the items. Useful for constructing
/// test fixtures and REST payloads.
pub fn parse_fragment(input: &str) -> DomResult<(Document, Vec<NodeId>)> {
    let opts = ParseOptions::default();
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        opts: &opts,
    };
    let mut doc = Document::new();
    let mut scope = NsScope::new();
    let mut items = Vec::new();
    while !p.eof() {
        if p.peek_str("<!--") {
            let c = p.parse_comment(&mut doc)?;
            items.push(c);
        } else if p.peek_str("<?") {
            let pi = p.parse_pi(&mut doc)?;
            if let Some(pi) = pi {
                items.push(pi);
            }
        } else if p.peek() == Some(b'<') {
            let e = p.parse_element(&mut doc, &mut scope)?;
            items.push(e);
        } else {
            let t = p.parse_text(&mut doc)?;
            if let Some(t) = t {
                items.push(t);
            }
        }
    }
    let root = doc.root();
    for &i in &items {
        doc.append_child(root, i)
            .map_err(|e| DomError::parse(e.to_string(), 0))?;
    }
    Ok((doc, items))
}

/// Namespace scope stack used during parsing.
struct NsScope {
    /// (prefix, uri) frames; a frame boundary is marked by depth counters.
    frames: Vec<Vec<(String, String)>>,
}

impl NsScope {
    fn new() -> Self {
        NsScope {
            frames: vec![vec![]],
        }
    }
    fn push(&mut self) {
        self.frames.push(Vec::new());
    }
    fn pop(&mut self) {
        self.frames.pop();
    }
    fn declare(&mut self, prefix: &str, uri: &str) {
        self.frames
            .last_mut()
            .expect("scope stack never empty")
            .push((prefix.to_string(), uri.to_string()));
    }
    fn resolve(&self, prefix: &str) -> Option<&str> {
        for frame in self.frames.iter().rev() {
            for (p, u) in frame.iter().rev() {
                if p == prefix {
                    return if u.is_empty() { None } else { Some(u) };
                }
            }
        }
        match prefix {
            "xml" => Some(crate::name::XML_NS),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    opts: &'a ParseOptions,
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_str(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, s: &str) -> DomResult<()> {
        if self.peek_str(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(DomError::parse(format!("expected `{s}`"), self.pos))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, PIs, the XML declaration and DOCTYPE that
    /// may appear outside the root element.
    fn skip_misc(&mut self, doc: &mut Document) -> DomResult<()> {
        loop {
            self.skip_ws();
            if self.peek_str("<?xml") {
                // XML declaration: skip to ?>
                self.seek_past("?>")?;
            } else if self.peek_str("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.peek_str("<!--") {
                let _ = self.parse_comment(doc)?;
                // comments outside the root are currently dropped
            } else if self.peek_str("<?") {
                let _ = self.parse_pi(doc)?;
            } else {
                return Ok(());
            }
        }
    }

    fn seek_past(&mut self, end: &str) -> DomResult<()> {
        let hay = &self.bytes[self.pos..];
        match find_sub(hay, end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(DomError::parse(
                format!("unterminated, expected `{end}`"),
                self.pos,
            )),
        }
    }

    fn skip_doctype(&mut self) -> DomResult<()> {
        // Handles internal subsets in brackets.
        self.expect("<!DOCTYPE")?;
        let mut depth = 1usize;
        let mut in_bracket = false;
        while let Some(b) = self.bump() {
            match b {
                b'[' => in_bracket = true,
                b']' => in_bracket = false,
                b'<' => depth += 1,
                b'>' if !in_bracket => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        Err(DomError::parse("unterminated DOCTYPE", self.pos))
    }

    fn parse_name(&mut self) -> DomResult<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok =
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(DomError::parse("expected a name", self.pos));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_element(&mut self, doc: &mut Document, scope: &mut NsScope) -> DomResult<NodeId> {
        self.expect("<")?;
        let raw_name = self.parse_name()?;
        scope.push();

        // First pass over attributes: collect raw (name, value) pairs and
        // register namespace declarations.
        let mut raw_attrs: Vec<(String, String)> = Vec::new();
        let mut ns_decls: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') | Some(b'>') | None => break,
                _ => {}
            }
            let aname = self.parse_name()?;
            self.skip_ws();
            self.expect("=")?;
            self.skip_ws();
            let value = self.parse_attr_value()?;
            if aname == "xmlns" {
                scope.declare("", &value);
                ns_decls.push((String::new(), value));
            } else if let Some(p) = aname.strip_prefix("xmlns:") {
                scope.declare(p, &value);
                ns_decls.push((p.to_string(), value));
            } else {
                raw_attrs.push((aname, value));
            }
        }

        let name = self.make_qname(&raw_name, scope, true)?;
        let elem = doc.create_element(name);
        for (p, u) in ns_decls {
            doc.add_ns_decl(elem, p, u)
                .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
        }
        for (aname, value) in raw_attrs {
            let qn = self.make_qname(&aname, scope, false)?;
            doc.set_attribute(elem, qn, value)
                .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
        }

        self.skip_ws();
        if self.peek_str("/>") {
            self.pos += 2;
            scope.pop();
            return Ok(elem);
        }
        self.expect(">")?;

        // Content
        loop {
            if self.eof() {
                return Err(DomError::parse(
                    format!("unterminated element <{raw_name}>"),
                    self.pos,
                ));
            }
            if self.peek_str("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if !names_match(&close, &raw_name, self.opts.uppercase_names) {
                    return Err(DomError::parse(
                        format!("mismatched close tag </{close}> for <{raw_name}>"),
                        self.pos,
                    ));
                }
                self.skip_ws();
                self.expect(">")?;
                scope.pop();
                return Ok(elem);
            } else if self.peek_str("<!--") {
                let c = self.parse_comment(doc)?;
                doc.append_child(elem, c)
                    .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
            } else if self.peek_str("<![CDATA[") {
                let t = self.parse_cdata(doc)?;
                doc.append_child(elem, t)
                    .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
            } else if self.peek_str("<?") {
                if let Some(pi) = self.parse_pi(doc)? {
                    doc.append_child(elem, pi)
                        .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
                }
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(doc, scope)?;
                doc.append_child(elem, child)
                    .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
            } else {
                if let Some(t) = self.parse_text(doc)? {
                    doc.append_child(elem, t)
                        .map_err(|e| DomError::parse(e.to_string(), self.pos))?;
                }
            }
        }
    }

    fn make_qname(&self, raw: &str, scope: &NsScope, is_element: bool) -> DomResult<QName> {
        let raw_cased: String = if self.opts.uppercase_names && is_element {
            raw.to_ascii_uppercase()
        } else {
            raw.to_string()
        };
        if let Some(colon) = raw_cased.find(':') {
            let (prefix, local) = raw_cased.split_at(colon);
            let local = &local[1..];
            let ns = scope.resolve(prefix).ok_or_else(|| {
                DomError::parse(format!("undeclared namespace prefix `{prefix}`"), self.pos)
            })?;
            Ok(QName::full(Some(prefix), Some(ns), local))
        } else if is_element {
            // default namespace applies to unprefixed element names
            Ok(QName::full(None, scope.resolve(""), &raw_cased))
        } else {
            // ...but never to attributes
            Ok(QName::local(&raw_cased))
        }
    }

    fn parse_attr_value(&mut self) -> DomResult<String> {
        let quote = self
            .bump()
            .ok_or_else(|| DomError::parse("expected attribute value", self.pos))?;
        if quote != b'"' && quote != b'\'' {
            return Err(DomError::parse("attribute value must be quoted", self.pos));
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = &self.bytes[start..self.pos];
                self.pos += 1;
                return decode_entities(&String::from_utf8_lossy(raw), start);
            }
            self.pos += 1;
        }
        Err(DomError::parse("unterminated attribute value", self.pos))
    }

    fn parse_text(&mut self, doc: &mut Document) -> DomResult<Option<NodeId>> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        let text = decode_entities(&raw, start)?;
        if self.opts.trim_inter_element_whitespace && text.chars().all(char::is_whitespace) {
            return Ok(None);
        }
        if text.is_empty() {
            return Ok(None);
        }
        Ok(Some(doc.create_text(text)))
    }

    fn parse_comment(&mut self, doc: &mut Document) -> DomResult<NodeId> {
        self.expect("<!--")?;
        let start = self.pos;
        match find_sub(&self.bytes[self.pos..], b"-->") {
            Some(i) => {
                let body = String::from_utf8_lossy(&self.bytes[start..start + i]).into_owned();
                self.pos += i + 3;
                Ok(doc.create_comment(body))
            }
            None => Err(DomError::parse("unterminated comment", self.pos)),
        }
    }

    fn parse_cdata(&mut self, doc: &mut Document) -> DomResult<NodeId> {
        self.expect("<![CDATA[")?;
        let start = self.pos;
        match find_sub(&self.bytes[self.pos..], b"]]>") {
            Some(i) => {
                let body = String::from_utf8_lossy(&self.bytes[start..start + i]).into_owned();
                self.pos += i + 3;
                Ok(doc.create_text(body))
            }
            None => Err(DomError::parse("unterminated CDATA section", self.pos)),
        }
    }

    /// Returns `None` for the XML declaration, `Some(pi)` otherwise.
    fn parse_pi(&mut self, doc: &mut Document) -> DomResult<Option<NodeId>> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        self.skip_ws();
        let start = self.pos;
        match find_sub(&self.bytes[self.pos..], b"?>") {
            Some(i) => {
                let body = String::from_utf8_lossy(&self.bytes[start..start + i]).into_owned();
                self.pos += i + 2;
                if target.eq_ignore_ascii_case("xml") {
                    Ok(None)
                } else {
                    Ok(Some(doc.create_pi(target, body.trim_end().to_string())))
                }
            }
            None => Err(DomError::parse(
                "unterminated processing instruction",
                self.pos,
            )),
        }
    }
}

fn names_match(close: &str, open: &str, case_insensitive: bool) -> bool {
    if case_insensitive {
        close.eq_ignore_ascii_case(open)
    } else {
        close == open
    }
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    hay.windows(needle.len()).position(|w| w == needle)
}
