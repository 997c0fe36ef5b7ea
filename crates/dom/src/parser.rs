//! A from-scratch, namespace-aware XML/XHTML parser.
//!
//! The parser is one iterative, byte-level scanner over the input. It
//! supports everything the paper's pages use: the XML declaration,
//! DOCTYPE (skipped), elements, attributes, namespace declarations,
//! character data with entity references, CDATA sections, comments and
//! processing instructions.
//!
//! It builds the arena in place, in one loop over an explicit stack of
//! open elements, so nesting costs heap, not call stack. Each node is
//! created with its parent link set, and each element's child list is
//! filled once, at its end tag, from a run of ids the parser keeps: the
//! tree is well formed by construction, so no insertion check runs. Names
//! are scanned with a byte-class table; text and attribute-value runs are
//! found eight bytes at a time and sliced straight from the input at ASCII
//! delimiters. Each distinct name is built once per parse: a table maps
//! (name as written, resolved namespace, element or attribute) to its
//! [`QName`], and every later node with that name shares its `Rc`s, so
//! name tests on parsed trees compare pointers first.
//!
//! [`ParseOptions::uppercase_names`] emulates Internet Explorer's behaviour
//! of upper-casing all HTML tag names, which §5.1 reports as a portability
//! hazard ("XPath expressions have to contain upper-case names"). Tests and
//! one experiment exercise this quirk.

use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

use crate::arena::Document;
use crate::error::{DomError, DomResult};
use crate::name::{QName, XML_NS};
use crate::node::{NodeId, NodeKind};

#[cfg(test)]
mod oracle;

/// Parser configuration.
#[derive(Debug, Clone, Default)]
pub struct ParseOptions {
    /// Upper-case all element names, as Internet Explorer did (§5.1).
    pub uppercase_names: bool,
    /// Drop text nodes that consist solely of whitespace between elements.
    pub trim_inter_element_whitespace: bool,
}

/// Parses a complete document.
pub fn parse_document(input: &str) -> DomResult<Document> {
    parse_with_options(input, &ParseOptions::default())
}

/// Parses a complete document with explicit options.
pub fn parse_with_options(input: &str, opts: &ParseOptions) -> DomResult<Document> {
    let mut p = Parser::new(input, opts);
    p.document()?;
    Ok(p.doc)
}

/// Parses a standalone fragment (sequence of content items) into a fresh
/// document whose document node holds the items. Useful for constructing
/// test fixtures and REST payloads.
pub fn parse_fragment(input: &str) -> DomResult<(Document, Vec<NodeId>)> {
    let opts = ParseOptions::default();
    let mut p = Parser::new(input, &opts);
    p.fragment()?;
    let items = p.doc.children(p.doc.root()).to_vec();
    Ok((p.doc, items))
}

/// Bytes a name may hold: ASCII letters and digits, `_ - . :`, and every
/// byte of a multibyte character. A name therefore ends at an ASCII byte
/// or at the end of the input, both character boundaries.
static NAME_BYTE: [bool; 256] = {
    let mut class = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        class[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80;
        b += 1;
    }
    class
};

/// An element whose start tag has been read and whose end tag has not.
struct Open<'a> {
    node: NodeId,
    /// The name as written, for the end tag to match.
    name: &'a str,
    /// The number of namespace bindings in scope outside the element.
    ns_mark: usize,
    /// Where the element's children start on [`Parser::kids`].
    kids: usize,
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    opts: &'a ParseOptions,
    doc: Document,
    /// Open elements, innermost last.
    open: Vec<Open<'a>>,
    /// The children read so far of the document node and of each open
    /// element, outermost first. An end tag moves its element's run into
    /// the element in one exact allocation.
    kids: Vec<NodeId>,
    scope: NsScope<'a>,
    /// Every name built so far, by (name as written, the id of the
    /// namespace it resolved to, whether it names an element).
    names: HashMap<(&'a str, u32, bool), QName>,
    /// The names looked up last, in front of `names`.
    recent: [Option<Recent<'a>>; RECENT],
    /// The current start tag's attributes as (name, value): one buffer
    /// for the whole parse.
    attrs: Vec<(&'a str, String)>,
}

/// The namespace bindings in scope, innermost last, with each distinct URI
/// stored once. A URI is named by its id: 0 is no namespace, `n` is
/// `uris[n - 1]`.
struct NsScope<'a> {
    /// (prefix, URI id); the prefix `""` binds the default namespace, and
    /// id 0 undeclares (`xmlns=""`).
    bindings: Vec<(&'a str, u32)>,
    /// Bumped whenever `bindings` changes: a name resolves the same way
    /// for as long as the epoch it was resolved at lasts.
    epoch: u64,
    uris: Vec<Rc<str>>,
    ids: HashMap<Rc<str>, u32>,
}

impl<'a> NsScope<'a> {
    fn declare(&mut self, prefix: &'a str, uri: &str) {
        let id = self.intern(uri);
        self.bindings.push((prefix, id));
        self.epoch += 1;
    }

    /// Drops the bindings declared after `mark`.
    fn pop_to(&mut self, mark: usize) {
        if self.bindings.len() > mark {
            self.bindings.truncate(mark);
            self.epoch += 1;
        }
    }

    fn intern(&mut self, uri: &str) -> u32 {
        if uri.is_empty() {
            return 0;
        }
        if let Some(&id) = self.ids.get(uri) {
            return id;
        }
        let uri: Rc<str> = Rc::from(uri);
        self.uris.push(uri.clone());
        let id = self.uris.len() as u32;
        self.ids.insert(uri, id);
        id
    }

    /// The URI id `prefix` is bound to, 0 when it is unbound. With `fold`
    /// the prefix is matched as if upper-cased, as the IE quirk upper-cases
    /// a whole element name before resolving it.
    fn resolve(&mut self, prefix: &str, fold: bool) -> u32 {
        let same = |bound: &str| {
            if fold {
                bound.len() == prefix.len()
                    && bound
                        .bytes()
                        .zip(prefix.bytes())
                        .all(|(b, p)| b == p.to_ascii_uppercase())
            } else {
                bound == prefix
            }
        };
        match self.bindings.iter().rev().find(|(p, _)| same(p)) {
            Some(&(_, id)) => id,
            None if same("xml") => self.intern(XML_NS),
            None => 0,
        }
    }

    fn uri(&self, id: u32) -> Option<Rc<str>> {
        id.checked_sub(1).map(|i| self.uris[i as usize].clone())
    }
}

/// Slots of the recent-name cache.
const RECENT: usize = 64;

/// A name as last looked up: the name as written, whether it names an
/// element, the scope epoch it was resolved at, and the result.
struct Recent<'a> {
    raw: &'a str,
    element: bool,
    epoch: u64,
    name: QName,
}

/// The offset of the first byte of `hay` that is `a` or `b`, found eight
/// bytes at a time: a byte of `w ^ a·0x01…01` is zero where `w` holds `a`,
/// and the lowest flagged zero byte is always a true one.
fn find_either(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    let zero = |x: u64| x.wrapping_sub(LO) & !x & HI;
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
        let hit = zero(w ^ (LO * u64::from(a))) | zero(w ^ (LO * u64::from(b)));
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let rest = words.remainder().iter().position(|&c| c == a || c == b);
    rest.map(|i| at + i)
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, opts: &'a ParseOptions) -> Self {
        let mut doc = Document::new();
        // room for one node per 12 bytes, about as dense as data-oriented
        // markup with short names and values gets: sparser input leaves
        // the rest of the reservation untouched, denser input grows the
        // arena as usual
        doc.reserve(src.len() / 12);
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            opts,
            doc,
            open: Vec::new(),
            kids: Vec::new(),
            scope: NsScope {
                bindings: Vec::new(),
                epoch: 0,
                uris: Vec::new(),
                ids: HashMap::new(),
            },
            names: HashMap::new(),
            recent: std::array::from_fn(|_| None),
            attrs: Vec::new(),
        }
    }

    fn document(&mut self) -> DomResult<()> {
        self.skip_misc()?;
        if self.eof() {
            return Err(DomError::parse("document has no root element", self.pos));
        }
        self.element()?;
        self.skip_misc()?;
        if !self.eof() {
            return Err(DomError::parse("content after root element", self.pos));
        }
        self.close_document();
        Ok(())
    }

    fn fragment(&mut self) -> DomResult<()> {
        while !self.eof() {
            if self.at(b"<!--") {
                let comment = self.comment()?;
                self.push(comment);
            } else if self.at(b"<?") {
                if let Some(pi) = self.pi()? {
                    self.push(pi);
                }
            } else if self.at(b"<") {
                self.element()?;
            } else {
                self.text()?;
            }
        }
        self.close_document();
        Ok(())
    }

    /// Gives the document node its children: the nodes left on `kids`.
    fn close_document(&mut self) {
        let kids = std::mem::take(&mut self.kids);
        self.doc.set_children(self.doc.root(), kids);
    }

    /// Creates a node as the next child of the innermost open element, or
    /// of the document node when none is open.
    fn push(&mut self, kind: NodeKind) -> NodeId {
        let parent = self.open.last().map_or(self.doc.root(), |o| o.node);
        let id = self.doc.push_node(Some(parent), kind);
        self.kids.push(id);
        id
    }

    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn at(&self, s: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(s)
    }

    fn expect(&mut self, b: u8) -> DomResult<()> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DomError::parse(
                format!("expected `{}`", b as char),
                self.pos,
            ))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Moves past the next `end`, returning the text before it.
    fn until(&mut self, end: &str, what: &str) -> DomResult<&'a str> {
        let start = self.pos;
        match self.src[start..].find(end) {
            Some(len) => {
                self.pos = start + len + end.len();
                Ok(&self.src[start..start + len])
            }
            None => Err(DomError::parse(format!("unterminated {what}"), start)),
        }
    }

    fn name(&mut self) -> DomResult<&'a str> {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| !NAME_BYTE[b as usize])
            .unwrap_or(self.bytes.len() - start);
        if len == 0 {
            return Err(DomError::parse("expected a name", start));
        }
        self.pos = start + len;
        Ok(&self.src[start..self.pos])
    }

    /// Skips whitespace, comments, PIs, the XML declaration and DOCTYPE that
    /// may appear outside the root element. Comments and PIs there stay in
    /// the arena as detached nodes.
    fn skip_misc(&mut self) -> DomResult<()> {
        loop {
            self.skip_ws();
            if self.at(b"<?xml") {
                self.until("?>", "XML declaration")?;
            } else if self.at(b"<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.at(b"<!--") {
                let comment = self.comment()?;
                self.doc.push_node(None, comment);
            } else if self.at(b"<?") {
                if let Some(pi) = self.pi()? {
                    self.doc.push_node(None, pi);
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_doctype(&mut self) -> DomResult<()> {
        // Handles internal subsets in brackets.
        self.pos += b"<!DOCTYPE".len();
        let mut depth = 1usize;
        let mut in_bracket = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
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

    /// Parses the element at `pos` and all its content: one loop over the
    /// open-element stack, which the call leaves as it found it (empty).
    fn element(&mut self) -> DomResult<()> {
        self.start_tag()?;
        while !self.open.is_empty() {
            match self.bytes.get(self.pos..self.pos + 2) {
                Some(b"</") => self.end_tag()?,
                Some(b"<!") if self.at(b"<!--") => {
                    let comment = self.comment()?;
                    self.push(comment);
                }
                Some(b"<!") if self.at(b"<![CDATA[") => {
                    self.pos += b"<![CDATA[".len();
                    let value = self.until("]]>", "CDATA section")?.to_owned();
                    self.push(NodeKind::Text { value });
                }
                Some(b"<?") => {
                    if let Some(pi) = self.pi()? {
                        self.push(pi);
                    }
                }
                _ if self.at(b"<") => self.start_tag()?,
                _ if self.eof() => {
                    let name = self.open.last().map_or("", |o| o.name);
                    return Err(DomError::parse(
                        format!("unterminated element <{name}>"),
                        self.pos,
                    ));
                }
                _ => self.text()?,
            }
        }
        Ok(())
    }

    /// Parses a start tag into a new element and leaves the element open on
    /// the stack unless the tag ends `/>`.
    fn start_tag(&mut self) -> DomResult<()> {
        self.expect(b'<')?;
        let raw = self.name()?;
        let ns_mark = self.scope.bindings.len();
        // Read every attribute first: the namespace declarations among
        // them scope the element's own name.
        let mut attrs = std::mem::take(&mut self.attrs);
        let mut ns_decls: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            if matches!(self.bytes.get(self.pos), Some(b'/' | b'>') | None) {
                break;
            }
            let name = self.name()?;
            self.skip_ws();
            self.expect(b'=')?;
            self.skip_ws();
            let value = self.attr_value()?;
            let prefix = match name.strip_prefix("xmlns") {
                Some("") => "",
                Some(p) if p.starts_with(':') => &p[1..],
                _ => {
                    attrs.push((name, value));
                    continue;
                }
            };
            self.scope.declare(prefix, &value);
            match ns_decls.iter_mut().find(|(p, _)| p == prefix) {
                Some(slot) => slot.1 = value,
                None => ns_decls.push((prefix.to_owned(), value)),
            }
        }
        let name = self.qname(raw, true)?.clone();
        let elem = self.push(NodeKind::Element {
            name,
            attrs: Vec::with_capacity(attrs.len()),
            children: Vec::new(),
            ns_decls,
        });
        for (name, value) in attrs.drain(..) {
            let name = self.qname(name, false)?.clone();
            self.doc.push_attribute(elem, name, value);
        }
        self.attrs = attrs;
        if self.at(b"/>") {
            self.pos += 2;
            self.scope.pop_to(ns_mark);
        } else {
            self.expect(b'>')?;
            self.open.push(Open {
                node: elem,
                name: raw,
                ns_mark,
                kids: self.kids.len(),
            });
        }
        Ok(())
    }

    /// Parses the end tag at `pos`, closing the innermost open element.
    fn end_tag(&mut self) -> DomResult<()> {
        self.pos += 2;
        let open = self
            .open
            .pop()
            .expect("an end tag is read inside an element");
        let same = if self.opts.uppercase_names {
            self.name()?.eq_ignore_ascii_case(open.name)
        } else {
            // a longer name matched only at its start fails at the `>`
            // below
            let same = self.at(open.name.as_bytes());
            if same {
                self.pos += open.name.len();
            }
            same
        };
        if !same {
            return Err(DomError::parse(
                format!("mismatched close tag for <{}>", open.name),
                self.pos,
            ));
        }
        self.skip_ws();
        self.expect(b'>')?;
        self.scope.pop_to(open.ns_mark);
        let kids = self.kids.split_off(open.kids);
        self.doc.set_children(open.node, kids);
        Ok(())
    }

    /// The name `raw` of an element or attribute, resolved in the current
    /// scope, for the caller to clone into its node. Each distinct name is
    /// built once. A cache of the names looked up last, direct-mapped by
    /// length, first and last byte, answers most lookups without resolving
    /// or hashing.
    fn qname(&mut self, raw: &'a str, element: bool) -> DomResult<&QName> {
        let b = raw.as_bytes();
        let slot = (b.len() ^ usize::from(b[0]) << 2 ^ usize::from(b[b.len() - 1]) << 4)
            .wrapping_add(usize::from(element))
            % RECENT;
        let epoch = self.scope.epoch;
        let hit = matches!(&self.recent[slot],
            Some(r) if r.raw == raw && r.element == element && r.epoch == epoch);
        if !hit {
            let name = self.resolve_name(raw, element)?;
            self.recent[slot] = Some(Recent {
                raw,
                element,
                epoch,
                name,
            });
        }
        Ok(&self.recent[slot].as_ref().expect("filled above").name)
    }

    /// [`Self::qname`] past the cache: resolves the prefix, then finds or
    /// builds the name in the table.
    fn resolve_name(&mut self, raw: &'a str, element: bool) -> DomResult<QName> {
        let fold = element && self.opts.uppercase_names;
        let colon = raw.find(':');
        let ns = match colon {
            Some(c) => match self.scope.resolve(&raw[..c], fold) {
                0 => {
                    return Err(DomError::parse(
                        format!("undeclared namespace prefix `{}`", &raw[..c]),
                        self.pos,
                    ))
                }
                id => id,
            },
            // the default namespace applies to unprefixed element names,
            // but never to attributes
            None if element => self.scope.resolve("", false),
            None => 0,
        };
        let scope = &self.scope;
        let name = self.names.entry((raw, ns, element)).or_insert_with(|| {
            let cased = if fold {
                Cow::Owned(raw.to_ascii_uppercase())
            } else {
                Cow::Borrowed(raw)
            };
            let (prefix, local) = match colon {
                Some(c) => (Some(Rc::from(&cased[..c])), &cased[c + 1..]),
                None => (None, &cased[..]),
            };
            QName {
                prefix,
                local: Rc::from(local),
                ns: scope.uri(ns),
            }
        });
        Ok(name.clone())
    }

    fn attr_value(&mut self) -> DomResult<String> {
        let quote = match self.bytes.get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => q,
            Some(_) => return Err(DomError::parse("attribute value must be quoted", self.pos)),
            None => return Err(DomError::parse("expected attribute value", self.pos)),
        };
        self.pos += 1;
        let value = self.run(quote)?.into_owned();
        if self.eof() {
            return Err(DomError::parse("unterminated attribute value", self.pos));
        }
        self.pos += 1;
        Ok(value)
    }

    /// The run from `pos` up to the next `stop` byte or the end of the
    /// input, with its entities decoded. Leaves `pos` at the `stop`.
    fn run(&mut self, stop: u8) -> DomResult<Cow<'a, str>> {
        let start = self.pos;
        let hay = &self.bytes[start..];
        let end = find_either(hay, stop, b'&').unwrap_or(hay.len());
        if hay.get(end) != Some(&b'&') {
            self.pos = start + end;
            return Ok(Cow::Borrowed(&self.src[start..self.pos]));
        }
        let rest = find_either(&hay[end..], stop, stop).unwrap_or(hay.len() - end);
        self.pos = start + end + rest;
        decode(&self.src[start..self.pos], start)
    }

    /// Parses the text run at `pos` into a node, unless it is dropped as
    /// inter-element whitespace.
    fn text(&mut self) -> DomResult<()> {
        let text = self.run(b'<')?;
        if text.is_empty()
            || self.opts.trim_inter_element_whitespace && text.chars().all(char::is_whitespace)
        {
            return Ok(());
        }
        let value = text.into_owned();
        self.push(NodeKind::Text { value });
        Ok(())
    }

    fn comment(&mut self) -> DomResult<NodeKind> {
        self.pos += b"<!--".len();
        let value = self.until("-->", "comment")?.to_owned();
        Ok(NodeKind::Comment { value })
    }

    /// Returns `None` for the XML declaration.
    fn pi(&mut self) -> DomResult<Option<NodeKind>> {
        self.pos += b"<?".len();
        let target = self.name()?;
        self.skip_ws();
        let body = self.until("?>", "processing instruction")?;
        if target.eq_ignore_ascii_case("xml") {
            return Ok(None);
        }
        Ok(Some(NodeKind::ProcessingInstruction {
            target: target.to_owned(),
            value: body.trim_end().to_owned(),
        }))
    }
}

/// Decodes the five predefined entities plus numeric character references.
/// An error reports the offset of the offending `&`: `base_offset`, the
/// offset of `raw` itself, plus the `&`'s index in `raw`.
pub fn decode_entities(raw: &str, base_offset: usize) -> DomResult<String> {
    decode(raw, base_offset).map(Cow::into_owned)
}

/// [`decode_entities`], borrowing `raw` when it holds no reference.
fn decode(raw: &str, base_offset: usize) -> DomResult<Cow<'_, str>> {
    let Some(mut amp) = raw.find('&') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut out = String::with_capacity(raw.len());
    let mut done = 0;
    loop {
        out.push_str(&raw[done..amp]);
        let offset = base_offset + amp;
        let Some(semi) = raw[amp + 1..].find(';') else {
            return Err(DomError::parse("unterminated entity reference", offset));
        };
        let ent = &raw[amp + 1..amp + 1 + semi];
        out.push(match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let Some(digits) = ent.strip_prefix('#') else {
                    return Err(DomError::parse(format!("unknown entity &{ent};"), offset));
                };
                let cp = match digits.strip_prefix(['x', 'X']) {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => digits.parse(),
                }
                .map_err(|_| DomError::parse(format!("bad character reference &{ent};"), offset))?;
                char::from_u32(cp).ok_or_else(|| DomError::parse("invalid code point", offset))?
            }
        });
        done = amp + 1 + semi + 1;
        match raw[done..].find('&') {
            Some(i) => amp = done + i,
            None => break,
        }
    }
    out.push_str(&raw[done..]);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use std::rc::Rc;

    #[test]
    fn minimal_document() {
        let d = parse_document("<html/>").unwrap();
        let root_kids = d.children(d.root());
        assert_eq!(root_kids.len(), 1);
        assert_eq!(d.element_name(root_kids[0]).unwrap().lexical(), "html");
    }

    #[test]
    fn nested_with_text_and_attrs() {
        let d = parse_document(
            r#"<html><body id="b"><p class="x">Hello <b>World</b>!</p></body></html>"#,
        )
        .unwrap();
        let html = d.children(d.root())[0];
        let body = d.children(html)[0];
        assert_eq!(d.get_attribute(body, None, "id"), Some("b"));
        let p = d.children(body)[0];
        assert_eq!(d.string_value(p), "Hello World!");
        assert_eq!(d.children(p).len(), 3);
    }

    #[test]
    fn xml_decl_and_doctype_skipped() {
        let d = parse_document(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE html>\n<html><body/></html>",
        )
        .unwrap();
        assert_eq!(d.children(d.root()).len(), 1);
    }

    #[test]
    fn entities_decoded() {
        let d = parse_document("<p a=\"x &amp; y\">&lt;tag&gt; &#65;&#x42;</p>").unwrap();
        let p = d.children(d.root())[0];
        assert_eq!(d.get_attribute(p, None, "a"), Some("x & y"));
        assert_eq!(d.string_value(p), "<tag> AB");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let d = parse_document("<s><![CDATA[a < b && c]]></s>").unwrap();
        let s = d.children(d.root())[0];
        assert_eq!(d.string_value(s), "a < b && c");
    }

    #[test]
    fn comments_and_pis() {
        let d = parse_document("<r><!-- note --><?phptarget do it?></r>").unwrap();
        let r = d.children(d.root())[0];
        let kids = d.children(r);
        assert_eq!(kids.len(), 2);
        assert!(matches!(d.kind(kids[0]), NodeKind::Comment { value } if value == " note "));
        assert!(matches!(
            d.kind(kids[1]),
            NodeKind::ProcessingInstruction { target, .. } if target == "phptarget"
        ));
    }

    #[test]
    fn namespaces_resolved() {
        let d = parse_document(
            r#"<x:root xmlns:x="urn:x" xmlns="urn:default"><child/><x:kid/></x:root>"#,
        )
        .unwrap();
        let root = d.children(d.root())[0];
        assert_eq!(d.element_name(root).unwrap().ns.as_deref(), Some("urn:x"));
        let kids = d.children(root);
        assert_eq!(
            d.element_name(kids[0]).unwrap().ns.as_deref(),
            Some("urn:default"),
            "default namespace applies to unprefixed elements"
        );
        assert_eq!(
            d.element_name(kids[1]).unwrap().ns.as_deref(),
            Some("urn:x")
        );
    }

    #[test]
    fn default_ns_does_not_apply_to_attributes() {
        let d = parse_document(r#"<r xmlns="urn:d" a="1"/>"#).unwrap();
        let r = d.children(d.root())[0];
        assert_eq!(d.get_attribute(r, None, "a"), Some("1"));
    }

    #[test]
    fn undeclared_prefix_is_error() {
        assert!(parse_document("<x:r/>").is_err());
    }

    #[test]
    fn mismatched_close_tag_is_error() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, DomError::Parse { .. }));
    }

    #[test]
    fn unterminated_element_is_error() {
        assert!(parse_document("<a><b>").is_err());
        assert!(parse_document("<a").is_err());
    }

    #[test]
    fn content_after_root_is_error() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    #[test]
    fn ie_uppercase_quirk() {
        let opts = ParseOptions {
            uppercase_names: true,
            ..Default::default()
        };
        let d = parse_with_options("<html><Body id='x'/></html>", &opts).unwrap();
        let html = d.children(d.root())[0];
        assert_eq!(d.element_name(html).unwrap().lexical(), "HTML");
        let body = d.children(html)[0];
        assert_eq!(d.element_name(body).unwrap().lexical(), "BODY");
        // attribute names keep their case
        assert_eq!(d.get_attribute(body, None, "id"), Some("x"));
    }

    #[test]
    fn whitespace_trimming_option() {
        let src = "<r>\n  <a/>\n  <b/>\n</r>";
        let keep = parse_document(src).unwrap();
        let r = keep.children(keep.root())[0];
        assert_eq!(keep.children(r).len(), 5);
        let opts = ParseOptions {
            trim_inter_element_whitespace: true,
            ..Default::default()
        };
        let trim = parse_with_options(src, &opts).unwrap();
        let r = trim.children(trim.root())[0];
        assert_eq!(trim.children(r).len(), 2);
    }

    #[test]
    fn fragment_parsing() {
        let (doc, items) = parse_fragment("text<first/><second/>more").unwrap();
        assert_eq!(items.len(), 4);
        assert_eq!(doc.string_value(doc.root()), "textmore");
    }

    #[test]
    fn single_quotes_ok() {
        let d = parse_document("<a x='1' y=\"2\"/>").unwrap();
        let a = d.children(d.root())[0];
        assert_eq!(d.get_attribute(a, None, "x"), Some("1"));
        assert_eq!(d.get_attribute(a, None, "y"), Some("2"));
    }

    #[test]
    fn entity_errors_point_at_the_ampersand() {
        let pad = "x".repeat(4096);
        let err = parse_document(&format!("<a>{pad}&bogus;</a>")).unwrap_err();
        assert_eq!(err, DomError::parse("unknown entity &bogus;", 3 + 4096));
        let err = parse_document("<a t='ok &amp; &#xZZ;'/>").unwrap_err();
        assert!(matches!(err, DomError::Parse { offset: 15, .. }), "{err}");
        let err = decode_entities("a&lt;b&c", 100).unwrap_err();
        assert!(matches!(err, DomError::Parse { offset: 106, .. }), "{err}");
    }

    /// Deeper than any recursive parser survives on a test thread's stack.
    const DEEP: usize = 100_000;

    fn nested(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    /// The number of elements from the last node in the arena (the
    /// innermost element) up to the document node.
    fn depth_of_last(doc: &Document) -> usize {
        let mut n = NodeId(doc.len() as u32 - 1);
        let mut depth = 0;
        while let Some(p) = doc.parent(n) {
            depth += 1;
            n = p;
        }
        assert_eq!(n, doc.root());
        depth
    }

    #[test]
    fn deep_nesting_parses_as_a_document() {
        let doc = parse_document(&nested(DEEP)).unwrap();
        assert_eq!(doc.len(), DEEP + 1);
        assert_eq!(depth_of_last(&doc), DEEP);
    }

    #[test]
    fn deep_nesting_parses_as_a_fragment() {
        let (doc, items) = parse_fragment(&nested(DEEP)).unwrap();
        assert_eq!(items, [NodeId(1)]);
        assert_eq!(depth_of_last(&doc), DEEP);
    }

    #[test]
    fn names_are_shared_and_resolved_per_scope() {
        let d = parse_document(concat!(
            r#"<r xmlns="urn:outer" xmlns:p="urn:p1">"#,
            r#"<a/><s xmlns="urn:inner" xmlns:p="urn:p2"><a/><p:b/></s>"#,
            r#"<a q="1" p:q="2"/><p:b/></r>"#,
        ))
        .unwrap();
        let r = d.children(d.root())[0];
        let kids = d.children(r);
        let s = kids[1];
        let name = |n| d.element_name(n).unwrap();
        let (a1, a2, a3) = (name(kids[0]), name(kids[2]), name(d.children(s)[0]));
        // same-named elements share one allocation of each part
        assert!(Rc::ptr_eq(&a1.local, &a2.local));
        assert!(Rc::ptr_eq(a1.ns.as_ref().unwrap(), a2.ns.as_ref().unwrap()));
        // the rebound default namespace applies inside `s` only
        assert_eq!(a1.ns.as_deref(), Some("urn:outer"));
        assert_eq!(a3.ns.as_deref(), Some("urn:inner"));
        // and so does the redeclared prefix
        assert_eq!(name(d.children(s)[1]).ns.as_deref(), Some("urn:p2"));
        assert_eq!(name(kids[3]).ns.as_deref(), Some("urn:p1"));
        // an unprefixed attribute takes no namespace; a prefixed one does
        assert_eq!(d.get_attribute(kids[2], None, "q"), Some("1"));
        assert_eq!(d.get_attribute(kids[2], Some("urn:p1"), "q"), Some("2"));
        assert_eq!(d.get_attribute(kids[2], Some("urn:outer"), "q"), None);
    }

    #[test]
    fn repeated_attributes_keep_the_first_node_and_the_last_value() {
        let d = parse_document(r#"<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" j="2" q:k="3"/>"#)
            .unwrap();
        let a = d.children(d.root())[0];
        assert_eq!(d.attributes(a).len(), 2);
        let k = d.attribute_node(a, Some("urn:x"), "k").unwrap();
        assert_eq!(d.node_name(k).unwrap().lexical(), "p:k");
        assert_eq!(d.get_attribute(a, Some("urn:x"), "k"), Some("3"));
    }

    mod differential {
        use super::super::oracle;
        use super::*;
        use crate::serialize::serialize_document;
        use crate::testgen::random_document;
        use proptest::prelude::*;

        fn env_seed() -> u64 {
            std::env::var("XQIB_PLAN_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        }

        /// The four combinations of the two options.
        fn all_options() -> impl Iterator<Item = ParseOptions> {
            (0..4).map(|bits| ParseOptions {
                uppercase_names: bits & 1 != 0,
                trim_inter_element_whitespace: bits & 2 != 0,
            })
        }

        /// A serialized random tree, bare and inside a root element that
        /// declares each prefix the tree uses, so most wrapped inputs
        /// resolve and parse as documents.
        fn inputs(seed: u64) -> [String; 2] {
            let doc = random_document(seed);
            let mut prefixes = std::collections::BTreeSet::new();
            for i in 0..doc.len() {
                if let Some(name) = doc.node_name(NodeId(i as u32)) {
                    prefixes.extend(name.prefix.filter(|p| !p.is_empty()));
                }
            }
            let decls: String = prefixes
                .iter()
                .map(|p| format!(" xmlns:{p}=\"urn:{p}\""))
                .collect();
            let body = serialize_document(&doc);
            let wrapped = format!("<w{decls}>{body}</w>");
            [body, wrapped]
        }

        /// Both parsers accept or both reject; on accept the arenas are
        /// equal slot for slot. `NodeData`'s debug form spells out the kind,
        /// the parent, every part of a name (prefix, namespace, local), the
        /// value, the `ns_decls` and the attribute and child lists in
        /// order. Returns whether the input was accepted.
        fn agree(new: DomResult<Document>, old: DomResult<Document>, input: &str) -> bool {
            match (new, old) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(new.len(), old.len(), "{input:?}");
                    for i in 0..new.len() {
                        let id = NodeId(i as u32);
                        assert_eq!(
                            format!("{:?}", new.data(id)),
                            format!("{:?}", old.data(id)),
                            "slot {i} of {input:?}"
                        );
                    }
                    true
                }
                (Err(_), Err(_)) => false,
                (new, old) => panic!(
                    "{input:?}: new parser {:?}, oracle {:?}",
                    new.err(),
                    old.err()
                ),
            }
        }

        /// Runs both parsers on `input` as a document under every option
        /// combination and as a fragment; returns how many runs accepted.
        fn check(input: &str) -> usize {
            let mut accepted = 0;
            for opts in all_options() {
                let new = parse_with_options(input, &opts);
                let old = oracle::parse_with_options(input, &opts);
                accepted += usize::from(agree(new, old, input));
            }
            let new = parse_fragment(input);
            let old = oracle::parse_fragment(input);
            if let (Ok((_, a)), Ok((_, b))) = (&new, &old) {
                assert_eq!(a, b, "{input:?}");
            }
            let accept = agree(new.map(|(d, _)| d), old.map(|(d, _)| d), input);
            accepted + usize::from(accept)
        }

        proptest! {
            #[test]
            fn scanner_builds_the_oracles_trees(seed in any::<u64>()) {
                for input in inputs(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                    check(&input);
                }
            }
        }

        /// Hand-written inputs for what random trees rarely reach:
        /// namespace rebinding around one name, repeated declarations and
        /// attributes, the `xml` prefix, the case-folding quirk, odd
        /// whitespace, CDATA, and markup outside the root element.
        const EDGE_CASES: &[&str] = &[
            r#"<r xmlns="urn:o" xmlns:p="urn:1"><a/><s xmlns="urn:i" xmlns:p="urn:2"><a/><p:b/></s><a/><p:b/></r>"#,
            r#"<a xmlns:p="urn:1" xmlns:p="urn:2" xmlns="" xmlns="urn:d"><p:b/><c/></a>"#,
            r#"<a xmlns:="urn:e" xmlns:q=""><b/><q:c/></a>"#,
            r#"<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" k="2" q:k="3" k="4"/>"#,
            r#"<a xml:lang="en"><xml:b/></a><!-- after --><?pi after?>"#,
            r#"<a xmlns:xml=""><xml:b/></a>"#,
            r#"<P:a xmlns:P="urn:u" xmlns:p="urn:l"><p:b/></p:A>"#,
            r#"<Html><BODY x='1'y="2"></body></html>"#,
            "<a> \n\t<b/>&#32;<c/>&#160;\u{3000}<d/>\u{a0}x</a>",
            "<a><![CDATA[]]>t<![CDATA[<&>]]><![CDATA[x]]></a>",
            "<a>&#x+41;&#+65;&#0;&#xD800;</a>",
            "<?xml version='1.0'?><!DOCTYPE a [<!ENTITY e 'x'>]><!--c--><?t v ?><a><?xml no?><?XML?></a> ",
            "<:a/><a:/><a:b:c xmlns:a='urn:a'/>",
            "<a>x<b>y</b  ><c></c\t\n></a>",
        ];

        #[test]
        fn edge_and_malformed_inputs_match_the_oracle() {
            const SUBSTITUTES: &[char] = &['<', '>', '&', ';', '"', '\'', '=', ':', '/', 'é'];
            let (mut runs, mut accepted) = (0, 0);
            // each input costs a parse per prefix and substitution, so
            // keep to trees that serialize short
            let base = env_seed().wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let trees = (0..)
                .map(|k| inputs(base ^ k)[1].clone())
                .filter(|w| w.len() <= 300)
                .take(3);
            for input in trees.chain(EDGE_CASES.iter().map(|s| s.to_string())) {
                let bounds: Vec<usize> = input.char_indices().map(|(i, _)| i).collect();
                for &i in &bounds {
                    accepted += check(&input[..i]);
                    runs += 5;
                    let next = input[i..].chars().next().map_or(0, char::len_utf8);
                    for &c in SUBSTITUTES {
                        let mut edited = input.clone();
                        edited.replace_range(i..i + next, c.encode_utf8(&mut [0; 4]));
                        accepted += check(&edited);
                        runs += 5;
                    }
                }
                accepted += check(&input);
                runs += 5;
            }
            // the corpus reaches both outcomes
            assert!(
                0 < accepted && accepted < runs,
                "{accepted} of {runs} accepted"
            );
        }
    }
}
