//! Attribute-value index.
//!
//! `//article[@id = "x"]` from a document node selects the elements whose
//! `id` attribute equals `"x"`. Answering that by enumerating every
//! descendant costs O(n) per probe; the index answers it with one hash
//! lookup. It maps attribute name → value → owner elements in document
//! order, and covers only the tree under the document node: detached
//! subtrees and tombstones are never reachable from a document root, so
//! they are never answers.
//!
//! Validity: an answer depends on the structure (which elements are
//! attached, in what order, owning which attribute nodes) and on attribute
//! names and values. Every writer of either bumps the document's content
//! version; value writers (`set_attribute` on an existing attribute,
//! `rename`, `set_simple_value`, and rollback, which restores through
//! those two) bump it without the structural epoch, so a value write never
//! rebuilds the order index. The index is valid for exactly the version it
//! was built at.
//!
//! Build policy, per attribute name: the first probe of a name at a new
//! version returns `None` (the caller scans, as it would without an index)
//! and records the name; the second probe of it at the same version builds
//! that name's table. A document that changes between every probe
//! — a page mutated on every click — then never pays an O(n) build for a
//! single probe, while a document probed repeatedly between writes is
//! indexed after one scan, for the names it is actually probed by.
//! See `DESIGN.md` § "Attribute-value index & invalidation".

use std::collections::HashMap;

use crate::arena::Document;
use crate::name::QName;
use crate::node::NodeId;
use crate::walk::{Visit, Walk};

/// Attribute name → value → owner elements, in document order. Lives
/// behind a `RefCell` in its [`Document`]; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrIndex {
    /// The content version `probed` and `by_name` describe.
    version: Option<u64>,
    /// Names probed once at `version` and not built.
    probed: Vec<QName>,
    /// The names built at `version`: value → owners.
    by_name: HashMap<QName, HashMap<Box<str>, Vec<NodeId>>>,
}

impl AttrIndex {
    /// The owners of `name` = `value` when `name` is built for `version`.
    pub(crate) fn lookup(&self, version: u64, name: &QName, value: &str) -> Option<&[NodeId]> {
        if self.version != Some(version) {
            return None;
        }
        let by_value = self.by_name.get(name)?;
        Some(by_value.get(value).map_or(&[], Vec::as_slice))
    }

    /// Records a probe of `name` that [`Self::lookup`] could not answer.
    /// The second such probe at the same version builds `name` and returns
    /// `true`; otherwise the caller must scan.
    pub(crate) fn probe_unbuilt(&mut self, doc: &Document, version: u64, name: &QName) -> bool {
        if self.version != Some(version) {
            self.version = Some(version);
            self.probed.clear();
            self.by_name.clear();
        }
        if !self.probed.contains(name) {
            self.probed.push(name.clone());
            return false;
        }
        self.build(doc, name);
        crate::order::stats::record_attr_index_build();
        true
    }

    /// One pre-order pass from the document node. An element whose
    /// attribute list names `name` twice answers with the first, as
    /// [`Document::get_attribute`] does.
    fn build(&mut self, doc: &Document, name: &QName) {
        let mut by_value: HashMap<Box<str>, Vec<NodeId>> = HashMap::new();
        let mut walk = Walk::new(doc.root());
        while let Some(visit) = walk.next(doc) {
            if let Visit::Open(v) = visit {
                if let Some(value) = doc.get_attribute(v, name.ns.as_deref(), &name.local) {
                    by_value.entry(value.into()).or_default().push(v);
                }
            }
        }
        self.by_name.insert(name.clone(), by_value);
    }
}

/// Reference answer without the index: every element under the document
/// node whose attribute `name` equals `value`, in document order. The
/// oracle the index is tested against; not called on any hot path.
pub fn attr_owners_naive(doc: &Document, name: &QName, value: &str) -> Vec<NodeId> {
    doc.descendants_or_self(doc.root())
        .into_iter()
        .filter(|&v| doc.get_attribute(v, name.ns.as_deref(), &name.local) == Some(value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::stats;

    /// `<r><a id="k1"><b id="k2"/></a><c id="k1"/></r>`
    fn sample() -> (Document, [NodeId; 4]) {
        let mut d = Document::new();
        let r = d.create_element(QName::local("r"));
        d.append_child(d.root(), r).unwrap();
        let a = d.create_element(QName::local("a"));
        let b = d.create_element(QName::local("b"));
        let c = d.create_element(QName::local("c"));
        d.append_child(r, a).unwrap();
        d.append_child(a, b).unwrap();
        d.append_child(r, c).unwrap();
        d.set_attribute(a, QName::local("id"), "k1").unwrap();
        d.set_attribute(b, QName::local("id"), "k2").unwrap();
        d.set_attribute(c, QName::local("id"), "k1").unwrap();
        (d, [r, a, b, c])
    }

    const NAMES: [&str; 3] = ["id", "class", "x"];
    const VALUES: [&str; 4] = ["k1", "k2", "k3", "v"];

    /// Every (name, value) lookup equals the scan — probing twice, so the
    /// second probe answers from an index built at the current version —
    /// and a third probe is served without another build.
    fn assert_index_matches_scan(d: &Document) {
        for name in NAMES.map(QName::local) {
            for value in VALUES {
                let scan = attr_owners_naive(d, &name, value);
                if let Some(hit) = d.attr_owners(&name, value) {
                    assert_eq!(&*hit, scan.as_slice(), "@{name} = {value}");
                }
                let hit = d
                    .attr_owners(&name, value)
                    .expect("second probe is indexed");
                assert_eq!(&*hit, scan.as_slice(), "@{name} = {value}");
            }
        }
        let builds = stats::snapshot().attr_index_builds;
        assert!(d.attr_owners(&QName::local("id"), "k1").is_some());
        assert_eq!(stats::snapshot().attr_index_builds, builds, "no rebuild");
    }

    #[test]
    fn second_probe_at_an_epoch_builds_and_later_probes_hit() {
        let (d, [_, a, _, c]) = sample();
        let id = QName::local("id");
        let before = stats::snapshot();
        assert!(d.attr_owners(&id, "k1").is_none(), "first probe scans");
        assert_eq!(&*d.attr_owners(&id, "k1").unwrap(), &[a, c]);
        assert_eq!(&*d.attr_owners(&id, "nope").unwrap(), &[] as &[NodeId]);
        let delta = stats::snapshot().since(before);
        assert_eq!((delta.attr_index_builds, delta.attr_index_hits), (1, 2));
    }

    #[test]
    fn structural_writers_keep_the_index_equal_to_a_scan() {
        let (mut d, [r, a, b, _]) = sample();
        assert_index_matches_scan(&d);
        // insert: a new owner in the middle of document order
        let e = d.create_element(QName::local("e"));
        d.set_attribute(e, QName::local("id"), "k1").unwrap();
        assert_index_matches_scan(&d); // detached owners are not answers
        d.insert_child_at(r, 1, e).unwrap();
        assert_index_matches_scan(&d);
        // detach: a subtree and its owners leave the tree
        d.detach(a).unwrap();
        assert_index_matches_scan(&d);
        assert!(attr_owners_naive(&d, &QName::local("id"), "k2").is_empty());
        // set_attribute on a new attribute
        d.set_attribute(r, QName::local("class"), "v").unwrap();
        assert_index_matches_scan(&d);
        // restore_children / restore_attributes: the rollback writers
        d.restore_children(r, &[a]).unwrap();
        assert_index_matches_scan(&d);
        d.restore_attributes(r, &[]).unwrap();
        assert_index_matches_scan(&d);
        d.restore_attributes(b, &[]).unwrap();
        assert_index_matches_scan(&d);
    }

    #[test]
    fn value_writers_keep_the_index_equal_to_a_scan() {
        let (mut d, [r, a, b, c]) = sample();
        let structural = d.epoch();
        assert_index_matches_scan(&d);
        // set_attribute on an existing attribute
        d.set_attribute(a, QName::local("id"), "k3").unwrap();
        assert_index_matches_scan(&d);
        // rename of an attribute: `@id` becomes `@x`
        let attr = d.attribute_node(b, None, "id").unwrap();
        d.rename(attr, QName::local("x")).unwrap();
        assert_index_matches_scan(&d);
        // rename of an element: the index keys on attributes only
        d.rename(c, QName::local("z")).unwrap();
        assert_index_matches_scan(&d);
        // set_simple_value on an attribute, and on a text node
        let attr = d.attribute_node(c, None, "id").unwrap();
        d.set_simple_value(attr, "k2").unwrap();
        assert_index_matches_scan(&d);
        let t = d.create_text("t");
        d.append_child(r, t).unwrap();
        d.set_simple_value(t, "u").unwrap();
        assert_index_matches_scan(&d);
        // rollback restores a value through the same writers
        d.set_simple_value(attr, "k1").unwrap();
        assert_index_matches_scan(&d);
        assert_eq!(
            d.epoch(),
            structural + 2,
            "value writes left the order index alone (only the text insert touched it)"
        );
    }

    #[test]
    fn a_renamed_attribute_can_shadow_a_later_one() {
        // two attributes with one name: the first answers, as in a scan
        let (mut d, [_, a, _, _]) = sample();
        let x = d.set_attribute(a, QName::local("x"), "v").unwrap();
        d.rename(x, QName::local("id")).unwrap();
        assert_eq!(d.get_attribute(a, None, "id"), Some("k1"));
        assert_index_matches_scan(&d);
    }
}
