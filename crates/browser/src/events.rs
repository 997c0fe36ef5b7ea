//! DOM Level 3 event dispatch (§4.3): listener registration and the
//! capture → target → bubble propagation path.
//!
//! Listeners are opaque handles (`ListenerId` → host callback key): the
//! event system is host-agnostic, so the XQIB plug-in registers XQuery
//! listener QNames and the minijs baseline registers JS functions against
//! the *same* dispatch machinery — the co-existence claim of §6.2.

use std::collections::HashMap;

use xqib_dom::{NodeRef, Store};

/// An opaque listener handle. The host maps it to executable code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ListenerId(pub u64);

/// Dispatch phases, per DOM Level 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    Capture,
    Target,
    Bubble,
}

/// An event instance travelling the propagation path.
#[derive(Debug, Clone)]
pub struct DomEvent {
    /// The event type, e.g. `"onclick"` (the paper keeps IE's `on…` names).
    pub event_type: String,
    pub target: NodeRef,
    /// Modifier/button state, exposed to listeners as the event node's
    /// children (§4.3.2: `$evt/altKey`, `$evt/button`, …).
    pub alt_key: bool,
    pub ctrl_key: bool,
    pub shift_key: bool,
    /// 0 = none, 1 = left, 2 = right (the §4.3.2 listener example).
    pub button: u8,
    /// Free-form payload (readyState notifications, custom events).
    pub detail: String,
    /// Optional document payload: for synthetic events that carry data
    /// (e.g. a stale-cache response), the host deep-copies this subtree
    /// into the event node as a `<payload>` child, so XQuery listeners can
    /// read it as `$evt/payload/*`.
    pub payload: Option<NodeRef>,
}

impl DomEvent {
    pub fn new(event_type: &str, target: NodeRef) -> Self {
        DomEvent {
            event_type: event_type.to_string(),
            target,
            alt_key: false,
            ctrl_key: false,
            shift_key: false,
            button: 1,
            detail: String::new(),
            payload: None,
        }
    }

    pub fn with_button(mut self, button: u8) -> Self {
        self.button = button;
        self
    }

    pub fn with_detail(mut self, detail: &str) -> Self {
        self.detail = detail.to_string();
        self
    }
}

/// One registration.
#[derive(Debug)]
struct Registration {
    listener: ListenerId,
    capture: bool,
}

/// A single dispatch step handed to the host: run `listener` with the event
/// at `current_target` in `phase`.
#[derive(Debug, Clone)]
pub struct DispatchStep {
    pub listener: ListenerId,
    pub current_target: NodeRef,
    pub phase: EventPhase,
}

/// The listener registry + propagation-path computation.
#[derive(Debug, Default)]
pub struct EventSystem {
    /// event type → node → registrations, in registration order. Keyed by
    /// type first so a dispatch looks its type up once, by borrowed key.
    listeners: HashMap<String, HashMap<NodeRef, Vec<Registration>>>,
    next_id: u64,
}

impl EventSystem {
    pub fn new() -> Self {
        EventSystem::default()
    }

    /// Allocates a listener handle for the host to map to real code.
    pub fn fresh_listener_id(&mut self) -> ListenerId {
        self.next_id += 1;
        ListenerId(self.next_id)
    }

    /// `addEventListener(type, listener, capture)`.
    pub fn add_listener(
        &mut self,
        target: NodeRef,
        event_type: &str,
        listener: ListenerId,
        capture: bool,
    ) {
        let regs = self
            .listeners
            .entry(event_type.to_string())
            .or_default()
            .entry(target)
            .or_default();
        // duplicate registration of the same listener/phase is a no-op
        if !regs
            .iter()
            .any(|r| r.listener == listener && r.capture == capture)
        {
            regs.push(Registration { listener, capture });
        }
    }

    /// `removeEventListener`.
    pub fn remove_listener(&mut self, target: NodeRef, event_type: &str, listener: ListenerId) {
        let by_node = self.listeners.get_mut(event_type);
        if let Some(regs) = by_node.and_then(|m| m.get_mut(&target)) {
            regs.retain(|r| r.listener != listener);
        }
    }

    /// Count of live registrations (tests/experiments).
    pub fn listener_count(&self) -> usize {
        self.listeners
            .values()
            .flat_map(HashMap::values)
            .map(Vec::len)
            .sum()
    }

    pub fn listeners_at(&self, target: NodeRef, event_type: &str) -> Vec<ListenerId> {
        self.listeners
            .get(event_type)
            .and_then(|by_node| by_node.get(&target))
            .map(|regs| regs.iter().map(|r| r.listener).collect())
            .unwrap_or_default()
    }

    /// Computes the full dispatch plan for an event: the ordered list of
    /// listener invocations along capture → target → bubble, which the
    /// host runs in order.
    pub fn dispatch_plan(&self, store: &Store, event: &DomEvent) -> Vec<DispatchStep> {
        let Some(by_node) = self.listeners.get(&event.event_type) else {
            return Vec::new();
        };
        let regs = |node| by_node.get(&node).map_or(&[][..], Vec::as_slice);
        // propagation path: ancestors from root down to target's parent
        let mut ancestors: Vec<NodeRef> = Vec::new();
        {
            let doc = store.doc(event.target.doc);
            let mut cur = doc.parent(event.target.node);
            while let Some(p) = cur {
                ancestors.push(NodeRef::new(event.target.doc, p));
                cur = doc.parent(p);
            }
        }
        ancestors.reverse(); // root first

        let mut plan = Vec::new();
        // capture phase: root → parent, capture listeners only
        for &a in &ancestors {
            for r in regs(a) {
                if r.capture {
                    plan.push(DispatchStep {
                        listener: r.listener,
                        current_target: a,
                        phase: EventPhase::Capture,
                    });
                }
            }
        }
        // target phase: all listeners at the target, registration order
        for r in regs(event.target) {
            plan.push(DispatchStep {
                listener: r.listener,
                current_target: event.target,
                phase: EventPhase::Target,
            });
        }
        // bubble phase: parent → root, non-capture listeners
        for &a in ancestors.iter().rev() {
            for r in regs(a) {
                if !r.capture {
                    plan.push(DispatchStep {
                        listener: r.listener,
                        current_target: a,
                        phase: EventPhase::Bubble,
                    });
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqib_dom::{QName, Store};

    /// <html><body><div><button/></div></body></html>
    fn tree() -> (Store, NodeRef, NodeRef, NodeRef, NodeRef) {
        let mut s = Store::new();
        let d = s.new_document(None);
        let doc = s.doc_mut(d);
        let html = doc.create_element(QName::local("html"));
        doc.append_child(doc.root(), html).unwrap();
        let body = doc.create_element(QName::local("body"));
        doc.append_child(html, body).unwrap();
        let div = doc.create_element(QName::local("div"));
        doc.append_child(body, div).unwrap();
        let button = doc.create_element(QName::local("button"));
        doc.append_child(div, button).unwrap();
        (
            s,
            NodeRef::new(d, html),
            NodeRef::new(d, body),
            NodeRef::new(d, div),
            NodeRef::new(d, button),
        )
    }

    #[test]
    fn capture_target_bubble_order() {
        let (s, html, body, div, button) = tree();
        let mut ev = EventSystem::new();
        let l_html_cap = ev.fresh_listener_id();
        let l_div = ev.fresh_listener_id();
        let l_btn = ev.fresh_listener_id();
        let l_body = ev.fresh_listener_id();
        ev.add_listener(html, "onclick", l_html_cap, true);
        ev.add_listener(div, "onclick", l_div, false);
        ev.add_listener(button, "onclick", l_btn, false);
        ev.add_listener(body, "onclick", l_body, false);
        let plan = ev.dispatch_plan(&s, &DomEvent::new("onclick", button));
        let seq: Vec<(ListenerId, EventPhase)> =
            plan.iter().map(|p| (p.listener, p.phase)).collect();
        assert_eq!(
            seq,
            vec![
                (l_html_cap, EventPhase::Capture),
                (l_btn, EventPhase::Target),
                (l_div, EventPhase::Bubble),
                (l_body, EventPhase::Bubble),
            ]
        );
    }

    #[test]
    fn multiple_listeners_fire_in_registration_order() {
        let (s, _, _, _, button) = tree();
        let mut ev = EventSystem::new();
        let a = ev.fresh_listener_id();
        let b = ev.fresh_listener_id();
        ev.add_listener(button, "onclick", a, false);
        ev.add_listener(button, "onclick", b, false);
        let plan = ev.dispatch_plan(&s, &DomEvent::new("onclick", button));
        assert_eq!(
            plan.iter().map(|p| p.listener).collect::<Vec<_>>(),
            vec![a, b]
        );
    }

    #[test]
    fn event_types_are_independent() {
        let (s, _, _, _, button) = tree();
        let mut ev = EventSystem::new();
        let a = ev.fresh_listener_id();
        ev.add_listener(button, "onclick", a, false);
        let plan = ev.dispatch_plan(&s, &DomEvent::new("onkeyup", button));
        assert!(plan.is_empty());
    }

    #[test]
    fn remove_listener_detaches() {
        let (s, _, _, _, button) = tree();
        let mut ev = EventSystem::new();
        let a = ev.fresh_listener_id();
        ev.add_listener(button, "onclick", a, false);
        assert_eq!(ev.listener_count(), 1);
        ev.remove_listener(button, "onclick", a);
        assert_eq!(ev.listener_count(), 0);
        assert!(ev
            .dispatch_plan(&s, &DomEvent::new("onclick", button))
            .is_empty());
    }

    #[test]
    fn duplicate_registration_ignored() {
        let (_s, _, _, _, button) = tree();
        let mut ev = EventSystem::new();
        let a = ev.fresh_listener_id();
        ev.add_listener(button, "onclick", a, false);
        ev.add_listener(button, "onclick", a, false);
        assert_eq!(ev.listener_count(), 1);
    }
}
