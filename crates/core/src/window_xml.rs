//! Materialisation of the Browser Object Model as XML window nodes (§4.2).
//!
//! `browser:top()` / `browser:self()` return XML elements shaped exactly as
//! the paper's example:
//!
//! ```xml
//! <window name="top_window">
//!   <status>Welcome</status>
//!   <location><href>http://…</href>…</location>
//!   <frames> <window name="child1">…</window> … </frames>
//! </window>
//! ```
//!
//! Every view is built **at call time** ("pull") with a same-origin check
//! per window: a window the actor may not access materialises as a bare
//! `<window/>` carrying no name, no status and no location — "it is
//! impossible to learn anything about the new location of this window"
//! (§4.2.1). Views are *writable*: the plug-in records which view nodes
//! mirror which BOM fields and propagates `replace value of node …` updates
//! back into the browser after each query/listener (`sync` write-back),
//! including navigation when `location/href` changes.

use xqib_browser::bom::Browser;
use xqib_browser::security::{AccessPolicy, SameOriginPolicy};
use xqib_browser::WindowId;
use xqib_dom::{DocId, NodeId, NodeRef, QName, Store};

/// A BOM field mirrored by a view node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowField {
    Status,
    Href,
    Name,
}

/// One write-back binding: this view node's string value mirrors the field
/// of the window.
#[derive(Debug, Clone)]
pub struct ViewBinding {
    pub node: NodeRef,
    pub window: WindowId,
    pub field: WindowField,
    /// The node's value when the view was built or last synced: only a
    /// change since then is written back.
    pub synced: String,
}

/// Mapping from a materialised `<window>` element to its window (used by
/// `browser:document($w)` and the event functions).
#[derive(Debug, Clone, Copy)]
pub struct WindowElem {
    pub node: NodeRef,
    pub window: WindowId,
    /// whether the actor passed the security check for this window
    pub accessible: bool,
}

/// The output of one materialisation.
#[derive(Debug, Default)]
pub struct WindowView {
    pub bindings: Vec<ViewBinding>,
    pub window_elems: Vec<WindowElem>,
}

/// Materialises the window subtree rooted at `root` into a fresh document
/// in `store`, as seen by code running in window `actor`. Returns the root
/// `<window>` element and the view metadata.
pub fn materialize_window(
    store: &mut Store,
    browser: &Browser,
    actor: WindowId,
    root: WindowId,
) -> (NodeRef, WindowView) {
    let doc_id = store.new_document(None);
    let mut view = WindowView::default();
    let actor_origin = browser.origin_of(actor);
    let root_elem = build_window_elem(store, doc_id, browser, &actor_origin, root, &mut view);
    let root_node = NodeRef::new(doc_id, root_elem);
    let d = store.doc_mut(doc_id);
    let r = d.root();
    d.append_child(r, root_elem)
        .expect("fresh doc accepts a root element");
    (root_node, view)
}

fn build_window_elem(
    store: &mut Store,
    doc_id: DocId,
    browser: &Browser,
    actor_origin: &xqib_browser::Origin,
    win: WindowId,
    view: &mut WindowView,
) -> NodeId {
    let policy = SameOriginPolicy;
    let data = browser.window(win);
    let accessible = policy.allows(actor_origin, &data.location.origin());
    let doc = store.doc_mut(doc_id);
    let elem = doc.create_element(QName::local("window"));
    view.window_elems.push(WindowElem {
        node: NodeRef::new(doc_id, elem),
        window: win,
        accessible,
    });
    if !accessible {
        // the check failed: the window node exposes nothing (§4.2.1)
        return elem;
    }
    doc.set_attribute(elem, QName::local("name"), data.name.clone())
        .expect("fresh element accepts attributes");
    view.bindings.push(ViewBinding {
        node: NodeRef::new(
            doc_id,
            doc.attribute_node(elem, None, "name").expect("just set"),
        ),
        window: win,
        field: WindowField::Name,
        synced: data.name.clone(),
    });

    // <status>
    let status = doc.create_element(QName::local("status"));
    doc.append_child(elem, status).expect("append status");
    if !data.status.is_empty() {
        let t = doc.create_text(data.status.clone());
        doc.append_child(status, t).expect("append status text");
    }
    view.bindings.push(ViewBinding {
        node: NodeRef::new(doc_id, status),
        window: win,
        field: WindowField::Status,
        synced: data.status.clone(),
    });

    // <location><href/><protocol/><host/><port/><pathname/><search/></location>
    let location = doc.create_element(QName::local("location"));
    doc.append_child(elem, location).expect("append location");
    let fields: [(&str, String); 6] = [
        ("href", data.location.href.clone()),
        ("protocol", data.location.protocol()),
        ("host", data.location.host()),
        ("port", data.location.port().to_string()),
        ("pathname", data.location.pathname()),
        ("search", data.location.search()),
    ];
    for (name, value) in fields {
        let f = doc.create_element(QName::local(name));
        doc.append_child(location, f)
            .expect("append location field");
        if !value.is_empty() {
            let t = doc.create_text(value);
            doc.append_child(f, t).expect("append location text");
        }
        if name == "href" {
            view.bindings.push(ViewBinding {
                node: NodeRef::new(doc_id, f),
                window: win,
                field: WindowField::Href,
                synced: data.location.href.clone(),
            });
        }
    }

    // <lastModified>
    let lm = doc.create_element(QName::local("lastModified"));
    doc.append_child(elem, lm).expect("append lastModified");
    let t = doc.create_text(data.last_modified.clone());
    doc.append_child(lm, t).expect("append lastModified text");

    // <frames> <window/>* </frames>
    let frames = doc.create_element(QName::local("frames"));
    doc.append_child(elem, frames).expect("append frames");
    let child_ids: Vec<WindowId> = data.frames.clone();
    for child in child_ids {
        let child_elem = build_window_elem(store, doc_id, browser, actor_origin, child, view);
        store
            .doc_mut(doc_id)
            .append_child(frames, child_elem)
            .expect("append child window");
    }
    elem
}

/// Materialises the `screen` object (§4.2.2).
pub fn materialize_screen(store: &mut Store, browser: &Browser) -> NodeRef {
    let doc_id = store.new_document(None);
    let doc = store.doc_mut(doc_id);
    let elem = doc.create_element(QName::local("screen"));
    let root = doc.root();
    doc.append_child(root, elem).expect("append screen");
    let s = &browser.screen;
    let fields: [(&str, String); 5] = [
        ("width", s.width.to_string()),
        ("height", s.height.to_string()),
        ("availWidth", s.avail_width.to_string()),
        ("availHeight", s.avail_height.to_string()),
        ("colorDepth", s.color_depth.to_string()),
    ];
    for (name, value) in fields {
        let f = doc.create_element(QName::local(name));
        doc.append_child(elem, f).expect("append screen field");
        let t = doc.create_text(value);
        doc.append_child(f, t).expect("append screen text");
    }
    NodeRef::new(doc_id, elem)
}

/// Materialises the `navigator` object (§4.2.2).
pub fn materialize_navigator(store: &mut Store, browser: &Browser) -> NodeRef {
    let doc_id = store.new_document(None);
    let doc = store.doc_mut(doc_id);
    let elem = doc.create_element(QName::local("navigator"));
    let root = doc.root();
    doc.append_child(root, elem).expect("append navigator");
    let n = &browser.navigator;
    let fields: [(&str, &str); 5] = [
        ("appName", &n.app_name),
        ("appVersion", &n.app_version),
        ("userAgent", &n.user_agent),
        ("platform", &n.platform),
        ("language", &n.language),
    ];
    for (name, value) in fields {
        let f = doc.create_element(QName::local(name));
        doc.append_child(elem, f).expect("append navigator field");
        let t = doc.create_text(value.to_string());
        doc.append_child(f, t).expect("append navigator text");
    }
    NodeRef::new(doc_id, elem)
}

/// Write-back: propagates changes made to view nodes since the view was
/// built (or last synced) back into the BOM. An unchanged node writes
/// nothing, so a view built before a navigation does not undo it. Returns
/// the list of windows that were *navigated* (href changed), so the plug-in
/// can reload them.
pub fn sync_view(
    store: &Store,
    browser: &mut Browser,
    view: &mut WindowView,
) -> Vec<(WindowId, String)> {
    let mut navigations = Vec::new();
    for b in &mut view.bindings {
        let current = store.doc(b.node.doc).string_value(b.node.node);
        if current == b.synced {
            continue;
        }
        b.synced.clone_from(&current);
        match b.field {
            WindowField::Status => {
                if browser.window(b.window).status != current {
                    browser.window_mut(b.window).status = current;
                }
            }
            WindowField::Href => {
                if browser.window(b.window).location.href != current && !current.is_empty() {
                    navigations.push((b.window, current.clone()));
                    browser.navigate(b.window, &current);
                }
            }
            WindowField::Name => {
                if browser.window(b.window).name != current && !current.is_empty() {
                    browser.window_mut(b.window).name = current;
                }
            }
        }
    }
    navigations
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqib_dom::serialize::serialize_node;

    fn setup() -> (Store, Browser, WindowId, WindowId, WindowId) {
        let mut b = Browser::new("top_window", "http://www.dbis.ethz.ch/");
        let top = b.top();
        let left = b.create_frame(top, "leftframe", "http://www.dbis.ethz.ch/left");
        let evil = b.create_frame(top, "evilframe", "http://evil.example/");
        b.window_mut(top).status = "Welcome".to_string();
        (Store::new(), b, top, left, evil)
    }

    #[test]
    fn view_shape_matches_paper_example() {
        let (mut store, browser, top, _, _) = setup();
        let (root, _view) = materialize_window(&mut store, &browser, top, top);
        let xml = serialize_node(store.doc(root.doc), root.node);
        assert!(xml.starts_with("<window name=\"top_window\">"));
        assert!(xml.contains("<status>Welcome</status>"));
        assert!(xml.contains("<href>http://www.dbis.ethz.ch/</href>"));
        assert!(xml.contains("<frames><window name=\"leftframe\">"));
        assert!(xml.contains("<lastModified>"));
    }

    #[test]
    fn cross_origin_window_is_opaque() {
        let (mut store, browser, top, _, evil) = setup();
        let (_root, view) = materialize_window(&mut store, &browser, top, top);
        let evil_elem = view
            .window_elems
            .iter()
            .find(|w| w.window == evil)
            .expect("evil frame materialised");
        assert!(!evil_elem.accessible);
        let doc = store.doc(evil_elem.node.doc);
        assert!(doc.children(evil_elem.node.node).is_empty(), "no children");
        assert!(doc.attributes(evil_elem.node.node).is_empty(), "no name");
    }

    #[test]
    fn same_origin_frame_is_open_to_sibling() {
        let (mut store, browser, _top, left, _evil) = setup();
        // code in the left frame reads the top tree: same origin → open
        let (root, view) = materialize_window(&mut store, &browser, left, browser.top());
        let xml = serialize_node(store.doc(root.doc), root.node);
        assert!(xml.contains("leftframe"));
        assert!(view.window_elems.iter().filter(|w| w.accessible).count() >= 2);
    }

    #[test]
    fn status_write_back() {
        let (mut store, mut browser, top, _, _) = setup();
        let (_root, mut view) = materialize_window(&mut store, &browser, top, top);
        let status_binding = view
            .bindings
            .iter()
            .find(|b| b.field == WindowField::Status && b.window == top)
            .expect("status binding");
        store
            .doc_mut(status_binding.node.doc)
            .replace_element_value(status_binding.node.node, "Changed!")
            .unwrap();
        let navs = sync_view(&store, &mut browser, &mut view);
        assert!(navs.is_empty());
        assert_eq!(browser.window(top).status, "Changed!");
    }

    #[test]
    fn href_write_back_navigates() {
        let (mut store, mut browser, top, left, _) = setup();
        let (_root, mut view) = materialize_window(&mut store, &browser, top, top);
        let href = view
            .bindings
            .iter()
            .find(|b| b.field == WindowField::Href && b.window == left)
            .expect("href binding");
        store
            .doc_mut(href.node.doc)
            .replace_element_value(href.node.node, "http://www.dbis.ethz.ch/new")
            .unwrap();
        let navs = sync_view(&store, &mut browser, &mut view);
        assert_eq!(
            navs,
            vec![(left, "http://www.dbis.ethz.ch/new".to_string())]
        );
        assert_eq!(
            browser.window(left).location.href,
            "http://www.dbis.ethz.ch/new"
        );
        assert_eq!(browser.window(left).history.len(), 2);
    }

    #[test]
    fn screen_and_navigator_views() {
        let (mut store, browser, _, _, _) = setup();
        let s = materialize_screen(&mut store, &browser);
        let xml = serialize_node(store.doc(s.doc), s.node);
        assert!(xml.contains("<width>1280</width>"));
        assert!(xml.contains("<height>1024</height>"));
        let n = materialize_navigator(&mut store, &browser);
        let xml = serialize_node(store.doc(n.doc), n.node);
        assert!(xml.contains("<appName>Microsoft Internet Explorer</appName>"));
    }

    #[test]
    fn stale_views_are_not_refreshed() {
        // a view is a pull snapshot: after navigation to another origin a
        // NEW materialisation hides the window, while the old snapshot keeps
        // only the stale (now useless) data
        let (mut store, mut browser, top, left, _) = setup();
        let (_r1, _v1) = materialize_window(&mut store, &browser, top, top);
        browser.navigate(left, "http://elsewhere.example/");
        let (_r2, v2) = materialize_window(&mut store, &browser, top, top);
        let left_elem = v2
            .window_elems
            .iter()
            .find(|w| w.window == left)
            .expect("left frame in new view");
        assert!(!left_elem.accessible, "new view hides the navigated frame");
    }
}
