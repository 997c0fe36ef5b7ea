//! Serialisation of DOM (sub)trees back to markup.
//!
//! Round-tripping matters for two reasons in the reproduction: (1) the
//! application server ships rendered pages as markup and we count the bytes
//! on the wire for the Figure 2 experiment; (2) tests compare DOM states via
//! canonical serialisation.

use crate::arena::Document;
use crate::name::QName;
use crate::node::{NodeId, NodeKind};
use crate::walk::{Visit, Walk};

/// Serialises `node` (and its subtree) to markup.
pub fn serialize_node(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, node, &mut |piece| out.push_str(piece));
    out
}

/// Serialises a whole document (children of the document node).
pub fn serialize_document(doc: &Document) -> String {
    let mut out = String::new();
    write_document(doc, &mut |piece| out.push_str(piece));
    out
}

/// Writes a whole document as markup, handing it to `sink` piece by piece
/// in order: the concatenation of the pieces is [`serialize_document`]'s
/// output. The one serializer — a `String` is just one sink, a content
/// hash fed as the document is written is another.
pub fn write_document(doc: &Document, sink: &mut impl FnMut(&str)) {
    write_node(doc, doc.root(), sink);
}

/// Writes `node` (and its subtree) as markup to `sink`; see
/// [`write_document`]. One [`Walk`]: a start tag at an element's `Open`,
/// its end tag at its `Close`, and `<x/>` for an element without children.
/// The subtree digests ([`crate::digest`]) hash the same pieces.
fn write_node(doc: &Document, node: NodeId, sink: &mut impl FnMut(&str)) {
    let mut walk = Walk::new(node);
    while let Some(visit) = walk.next(doc) {
        let id = match visit {
            Visit::Open(id) => id,
            Visit::Close(id) => {
                if let NodeKind::Element { name, children, .. } = doc.kind(id) {
                    if !children.is_empty() {
                        write_end_tag(name, sink);
                    }
                }
                continue;
            }
        };
        match doc.kind(id) {
            NodeKind::Document { .. } => {}
            NodeKind::Element {
                name,
                attrs,
                children,
                ns_decls,
            } => {
                write_start_tag(doc, name, ns_decls, attrs, sink);
                sink(if children.is_empty() { "/>" } else { ">" });
            }
            leaf => write_leaf(leaf, sink),
        }
    }
}

/// An element's start tag up to, not including, its `>` or `/>`: the
/// name, the namespace declarations, the attributes.
#[inline(always)]
pub(crate) fn write_start_tag(
    doc: &Document,
    name: &QName,
    ns_decls: &[(String, String)],
    attrs: &[NodeId],
    sink: &mut impl FnMut(&str),
) {
    sink("<");
    write_name(name, sink);
    for (p, u) in ns_decls {
        if p.is_empty() {
            sink(" xmlns=\"");
        } else {
            sink(" xmlns:");
            sink(p);
            sink("=\"");
        }
        write_escaped::<true>(u, sink);
        sink("\"");
    }
    for &a in attrs {
        if let NodeKind::Attribute { name, value } = doc.kind(a) {
            sink(" ");
            write_attribute(name, value, sink);
        }
    }
}

/// The end tag `</name>` of an element with children.
#[inline(always)]
pub(crate) fn write_end_tag(name: &QName, sink: &mut impl FnMut(&str)) {
    sink("</");
    write_name(name, sink);
    sink(">");
}

/// The markup of a node without children: text, comment, processing
/// instruction, or a bare attribute as `name="value"`. Nothing for a
/// document or element.
#[inline(always)]
pub(crate) fn write_leaf(kind: &NodeKind, sink: &mut impl FnMut(&str)) {
    match kind {
        NodeKind::Document { .. } | NodeKind::Element { .. } => {}
        NodeKind::Attribute { name, value } => write_attribute(name, value, sink),
        NodeKind::Text { value } => write_escaped::<false>(value, sink),
        NodeKind::Comment { value } => {
            sink("<!--");
            sink(value);
            sink("-->");
        }
        NodeKind::ProcessingInstruction { target, value } => {
            sink("<?");
            sink(target);
            if !value.is_empty() {
                sink(" ");
                sink(value);
            }
            sink("?>");
        }
    }
}

/// The lexical name `prefix:local` (or `local`), written from its parts
/// without building it.
fn write_name(name: &QName, sink: &mut impl FnMut(&str)) {
    if let Some(p) = name.prefix.as_deref().filter(|p| !p.is_empty()) {
        sink(p);
        sink(":");
    }
    sink(&name.local);
}

fn write_attribute(name: &QName, value: &str, sink: &mut impl FnMut(&str)) {
    write_name(name, sink);
    sink("=\"");
    write_escaped::<true>(value, sink);
    sink("\"");
}

/// Writes `s` with the markup characters replaced by entity references:
/// `<`, `&` and `"` in attribute values (`ATTR`), `<`, `>` and `&` in text.
/// Each run between two escapes goes to `sink` as one slice. The escaped
/// characters are ASCII and no byte of a multibyte UTF-8 sequence is, so
/// matching on bytes only ever cuts `s` at a character boundary.
fn write_escaped<const ATTR: bool>(s: &str, sink: &mut impl FnMut(&str)) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let entity = match b {
            b'<' => "&lt;",
            b'&' => "&amp;",
            b'>' if !ATTR => "&gt;",
            b'"' if ATTR => "&quot;",
            _ => continue,
        };
        if run < i {
            sink(&s[run..i]);
        }
        sink(entity);
        run = i + 1;
    }
    if run < s.len() {
        sink(&s[run..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::testgen::{deep_document, mix_env, on_big_stack, random_document, wide_document};
    use proptest::prelude::*;

    /// The char-at-a-time serializer [`write_node`] replaced, kept as the
    /// oracle its output must match byte for byte.
    mod oracle {
        use crate::arena::Document;
        use crate::node::{NodeId, NodeKind};

        pub fn serialize_document(doc: &Document) -> String {
            let mut out = String::new();
            for &c in doc.children(doc.root()) {
                write_node(doc, c, &mut out);
            }
            out
        }

        pub fn write_node(doc: &Document, node: NodeId, out: &mut String) {
            match doc.kind(node) {
                NodeKind::Document { children } => {
                    for &c in children {
                        write_node(doc, c, out);
                    }
                }
                NodeKind::Element {
                    name,
                    attrs,
                    children,
                    ns_decls,
                } => {
                    out.push('<');
                    out.push_str(&name.lexical());
                    for (p, u) in ns_decls {
                        if p.is_empty() {
                            out.push_str(" xmlns=\"");
                        } else {
                            out.push_str(" xmlns:");
                            out.push_str(p);
                            out.push_str("=\"");
                        }
                        escape_attr(u, out);
                        out.push('"');
                    }
                    for &a in attrs {
                        if let NodeKind::Attribute { name, value } = doc.kind(a) {
                            out.push(' ');
                            out.push_str(&name.lexical());
                            out.push_str("=\"");
                            escape_attr(value, out);
                            out.push('"');
                        }
                    }
                    if children.is_empty() {
                        out.push_str("/>");
                    } else {
                        out.push('>');
                        for &c in children {
                            write_node(doc, c, out);
                        }
                        out.push_str("</");
                        out.push_str(&name.lexical());
                        out.push('>');
                    }
                }
                NodeKind::Attribute { name, value } => {
                    out.push_str(&name.lexical());
                    out.push_str("=\"");
                    escape_attr(value, out);
                    out.push('"');
                }
                NodeKind::Text { value } => escape_text(value, out),
                NodeKind::Comment { value } => {
                    out.push_str("<!--");
                    out.push_str(value);
                    out.push_str("-->");
                }
                NodeKind::ProcessingInstruction { target, value } => {
                    out.push_str("<?");
                    out.push_str(target);
                    if !value.is_empty() {
                        out.push(' ');
                        out.push_str(value);
                    }
                    out.push_str("?>");
                }
            }
        }

        fn escape_text(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '&' => out.push_str("&amp;"),
                    c => out.push(c),
                }
            }
        }

        fn escape_attr(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '<' => out.push_str("&lt;"),
                    '&' => out.push_str("&amp;"),
                    '"' => out.push_str("&quot;"),
                    c => out.push(c),
                }
            }
        }
    }

    proptest! {
        #[test]
        fn streaming_writer_matches_the_char_oracle(seed in any::<u64>()) {
            let seed = mix_env(seed);
            for doc in [random_document(seed), wide_document(seed, 12)] {
                prop_assert_eq!(serialize_document(&doc), oracle::serialize_document(&doc));
                // every node on its own too: bare attributes, inner subtrees
                for i in 0..doc.len() {
                    let n = NodeId(i as u32);
                    let mut want = String::new();
                    oracle::write_node(&doc, n, &mut want);
                    prop_assert_eq!(serialize_node(&doc, n), want);
                }
            }
        }
    }

    #[test]
    fn deep_chains_match_the_char_oracle() {
        for k in 0..3 {
            // the recursive oracle needs more than a test thread's stack
            on_big_stack(move || {
                let doc = deep_document(mix_env(k), 10_000);
                assert_eq!(serialize_document(&doc), oracle::serialize_document(&doc));
            });
        }
    }

    #[test]
    fn random_trees_cover_every_escape_and_shape() {
        let all: String = (0..64)
            .map(|s| serialize_document(&random_document(s)))
            .collect();
        for needle in [
            "&lt;", "&gt;", "&amp;", "&quot;", "é&", "😀<", "xmlns=\"", "xmlns:", "<!--", "<?",
            "/>", ":",
        ] {
            assert!(all.contains(needle), "no random tree serialized {needle:?}");
        }
    }

    fn roundtrip(src: &str) -> String {
        let d = parse_document(src).unwrap();
        serialize_document(&d)
    }

    #[test]
    fn simple_roundtrip() {
        assert_eq!(
            roundtrip("<a><b x=\"1\">hi</b></a>"),
            "<a><b x=\"1\">hi</b></a>"
        );
    }

    #[test]
    fn empty_element_collapsed() {
        assert_eq!(roundtrip("<a></a>"), "<a/>");
    }

    #[test]
    fn escaping() {
        let d = parse_document("<a t=\"x &amp; &quot;y&quot;\">1 &lt; 2 &amp; 3</a>").unwrap();
        assert_eq!(
            serialize_document(&d),
            "<a t=\"x &amp; &quot;y&quot;\">1 &lt; 2 &amp; 3</a>"
        );
    }

    #[test]
    fn namespace_decls_serialised() {
        let s = roundtrip(r#"<x:r xmlns:x="urn:x" xmlns="urn:d"><c/></x:r>"#);
        assert!(s.contains("xmlns:x=\"urn:x\""));
        assert!(s.contains("xmlns=\"urn:d\""));
    }

    #[test]
    fn comment_and_pi_roundtrip() {
        assert_eq!(
            roundtrip("<r><!--c--><?pi data?></r>"),
            "<r><!--c--><?pi data?></r>"
        );
    }

    #[test]
    fn double_roundtrip_is_fixpoint() {
        let once = roundtrip("<a>\n <b/> text <c q=\"v\"/></a>");
        let d2 = parse_document(&once).unwrap();
        assert_eq!(serialize_document(&d2), once);
    }
}
