//! The `browser:` function library (§4.2): the browser-specific extension
//! of the XQuery context, registered as native functions in the engine.
//!
//! Implemented functions (paper names):
//! `top`, `self`, `parent`, `document`, `screen`, `navigator`,
//! `alert`, `confirm`, `prompt`,
//! `windowOpen`, `windowClose`, `windowMoveBy`, `windowMoveTo`,
//! `historyBack`, `historyForward`, `historyGo`,
//! `write`, `writeln`,
//! REST: `httpGet` (synchronous GET, §5.1 "synchronous REST calls are
//! possible"),
//! plus the §5.1 high-order-function workarounds `addEventListener`,
//! `removeEventListener`, `triggerEvent`, `setStyle`, `getStyle`.

use std::cell::RefCell;
use std::rc::Rc;

use xqib_browser::events::DomEvent;
use xqib_browser::{BreakerState, NetOutcome, Origin, QuarantineState, Request};
use xqib_dom::{name::BROWSER_NS, NodeRef, QName};
use xqib_xdm::{Item, Sequence, XdmError, XdmResult};
use xqib_xquery::context::DynamicContext;
use xqib_xquery::functions::native;

use crate::plugin::{dispatch_event_inner, parse_listener_name, HostState};
use crate::window_xml;

/// Installs the whole `browser:` library into a dynamic context.
pub fn install(ctx: &mut DynamicContext, host: Rc<RefCell<HostState>>) {
    let reg = |ctx: &mut DynamicContext, name: &str, arity: usize, f| {
        ctx.register_native(QName::ns(BROWSER_NS, name), arity, f);
    };

    // ----- UI ---------------------------------------------------------------
    {
        let h = host.clone();
        reg(
            ctx,
            "alert",
            1,
            native(move |ctx, args| {
                let msg = seq_string(ctx, &args[0]);
                h.borrow_mut().browser.alert(&msg);
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "confirm",
            1,
            native(move |ctx, args| {
                let msg = seq_string(ctx, &args[0]);
                let answer = h.borrow_mut().browser.confirm(&msg);
                Ok(vec![Item::boolean(answer)])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "prompt",
            1,
            native(move |ctx, args| {
                let msg = seq_string(ctx, &args[0]);
                let answer = h.borrow_mut().browser.prompt(&msg);
                Ok(vec![Item::string(answer)])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "write",
            1,
            native(move |ctx, args| {
                let text = seq_string(ctx, &args[0]);
                h.borrow_mut().browser.writeln(&text);
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "writeln",
            1,
            native(move |ctx, args| {
                let text = seq_string(ctx, &args[0]);
                h.borrow_mut().browser.writeln(&text);
                Ok(vec![])
            }),
        );
    }

    // ----- window tree (§4.2.1) ----------------------------------------------
    {
        let h = host.clone();
        reg(
            ctx,
            "top",
            0,
            native(move |ctx, _args| {
                let (root, view) = {
                    let host = h.borrow();
                    let mut store = ctx.store.borrow_mut();
                    let top = host.browser.top();
                    window_xml::materialize_window(&mut store, &host.browser, host.page_window, top)
                };
                h.borrow_mut().adopt_view(view);
                Ok(vec![Item::Node(root)])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "self",
            0,
            native(move |ctx, _args| {
                // §4.2.1: self() is a descendant of the top() tree
                let (elem, view) = {
                    let host = h.borrow();
                    let mut store = ctx.store.borrow_mut();
                    let top = host.browser.top();
                    let (_root, view) = window_xml::materialize_window(
                        &mut store,
                        &host.browser,
                        host.page_window,
                        top,
                    );
                    let elem = view
                        .window_elems
                        .iter()
                        .find(|w| w.window == host.page_window)
                        .map(|w| w.node);
                    (elem, view)
                };
                h.borrow_mut().adopt_view(view);
                Ok(match elem {
                    Some(n) => vec![Item::Node(n)],
                    None => vec![],
                })
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "parent",
            0,
            native(move |ctx, _args| {
                let parent = {
                    let host = h.borrow();
                    host.browser.window(host.page_window).parent
                };
                let Some(parent) = parent else {
                    return Ok(vec![]);
                };
                let (elem, view) = {
                    let host = h.borrow();
                    let mut store = ctx.store.borrow_mut();
                    let top = host.browser.top();
                    let (_root, view) = window_xml::materialize_window(
                        &mut store,
                        &host.browser,
                        host.page_window,
                        top,
                    );
                    let elem = view
                        .window_elems
                        .iter()
                        .find(|w| w.window == parent && w.accessible)
                        .map(|w| w.node);
                    (elem, view)
                };
                h.borrow_mut().adopt_view(view);
                Ok(match elem {
                    Some(n) => vec![Item::Node(n)],
                    None => vec![],
                })
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "document",
            1,
            native(move |ctx, args| {
                // §4.2.3: the document of a window node, with a security check
                // that yields () on failure
                let Some(Item::Node(n)) = args[0].first() else {
                    return Ok(vec![]);
                };
                let host = h.borrow();
                let Some(&(win, accessible)) = host.window_index.get(n) else {
                    return Ok(vec![]);
                };
                if !accessible {
                    return Ok(vec![]);
                }
                let Some(doc) = host.browser.window(win).document else {
                    return Ok(vec![]);
                };
                let store = ctx.store.borrow();
                Ok(vec![Item::Node(store.root(doc))])
            }),
        );
    }

    // ----- screen & navigator (§4.2.2) ----------------------------------------
    {
        let h = host.clone();
        reg(
            ctx,
            "screen",
            0,
            native(move |ctx, _args| {
                let host = h.borrow();
                let mut store = ctx.store.borrow_mut();
                let n = window_xml::materialize_screen(&mut store, &host.browser);
                Ok(vec![Item::Node(n)])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "navigator",
            0,
            native(move |ctx, _args| {
                let host = h.borrow();
                let mut store = ctx.store.borrow_mut();
                let n = window_xml::materialize_navigator(&mut store, &host.browser);
                Ok(vec![Item::Node(n)])
            }),
        );
    }

    // ----- window management (§4.2.4) ------------------------------------------
    {
        let h = host.clone();
        reg(
            ctx,
            "windowOpen",
            2,
            native(move |ctx, args| {
                let name = seq_string(ctx, &args[0]);
                let url = seq_string(ctx, &args[1]);
                let (elem, view) = {
                    let mut host = h.borrow_mut();
                    let w = host.browser.window_open(&name, &url);
                    let mut store = ctx.store.borrow_mut();
                    let actor = host.page_window;
                    let (root, view) =
                        window_xml::materialize_window(&mut store, &host.browser, actor, w);
                    (root, view)
                };
                h.borrow_mut().adopt_view(view);
                Ok(vec![Item::Node(elem)])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "windowClose",
            1,
            native(move |_ctx, args| {
                let Some(Item::Node(n)) = args[0].first() else {
                    return Ok(vec![]);
                };
                let n = *n;
                let mut host = h.borrow_mut();
                if let Some(&(win, true)) = host.window_index.get(&n) {
                    host.browser.window_close(win);
                }
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "windowMoveBy",
            3,
            native(move |ctx, args| move_window(ctx, &h, &args, false)),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "windowMoveTo",
            3,
            native(move |ctx, args| move_window(ctx, &h, &args, true)),
        );
    }

    // ----- history (§4.2.4) ------------------------------------------------------
    {
        let h = host.clone();
        reg(
            ctx,
            "historyBack",
            0,
            native(move |_ctx, _args| {
                let mut host = h.borrow_mut();
                let w = host.page_window;
                host.browser.history_go(w, -1);
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "historyForward",
            0,
            native(move |_ctx, _args| {
                let mut host = h.borrow_mut();
                let w = host.page_window;
                host.browser.history_go(w, 1);
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "historyGo",
            1,
            native(move |ctx, args| {
                let delta = seq_integer(ctx, &args[0])?;
                let mut host = h.borrow_mut();
                let w = host.page_window;
                host.browser.history_go(w, delta);
                Ok(vec![])
            }),
        );
    }

    // ----- REST (§3.4/§5.1) -------------------------------------------------------
    {
        let h = host.clone();
        reg(
            ctx,
            "httpGet",
            1,
            native(move |ctx, args| http_get(ctx, &h, &seq_string(ctx, &args[0]))),
        );
    }
    {
        // alias matching common Zorba naming
        let h = host.clone();
        reg(
            ctx,
            "get",
            1,
            native(move |ctx, args| http_get(ctx, &h, &seq_string(ctx, &args[0]))),
        );
    }
    {
        // fetch-path introspection: one element with the recovery counters
        // as attributes and a <host> child per circuit breaker
        let h = host.clone();
        reg(
            ctx,
            "fetchStatus",
            0,
            native(move |ctx, _args| {
                let host = h.borrow();
                let s = host.recovery.stats.clone();
                let breakers = host.recovery.breaker_states();
                drop(host);
                let doc_id = ctx.construction_doc;
                let mut store = ctx.store.borrow_mut();
                let doc = store.doc_mut(doc_id);
                let elem = doc.create_element(QName::local("fetch-status"));
                let counters: [(&str, u64); 12] = [
                    ("attempts", s.attempts),
                    ("retries", s.retries),
                    ("timeouts", s.timeouts),
                    ("fetch-errors", s.fetch_errors),
                    ("breaker-opens", s.breaker_opens),
                    ("breaker-half-opens", s.breaker_half_opens),
                    ("breaker-closes", s.breaker_closes),
                    ("breaker-fast-fails", s.breaker_fast_fails),
                    ("stale-served", s.stale_served),
                    ("completions", s.completions),
                    ("stale-events", s.stale_events),
                    ("error-events", s.error_events),
                ];
                for (name, v) in counters {
                    doc.set_attribute(elem, QName::local(name), v.to_string())
                        .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                }
                for (hname, state) in breakers {
                    let hel = doc.create_element(QName::local("host"));
                    doc.set_attribute(hel, QName::local("name"), hname)
                        .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                    doc.set_attribute(hel, QName::local("breaker"), breaker_label(state))
                        .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                    if let BreakerState::Open { until } = state {
                        doc.set_attribute(hel, QName::local("until"), until.to_string())
                            .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                    }
                    doc.append_child(elem, hel)
                        .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                }
                Ok(vec![Item::Node(NodeRef::new(doc_id, elem))])
            }),
        );
    }
    {
        // breakerState("api.example") → "closed" | "open" | "half-open"
        let h = host.clone();
        reg(
            ctx,
            "breakerState",
            1,
            native(move |ctx, args| {
                let hostname = seq_string(ctx, &args[0]);
                let state = h.borrow().recovery.breaker_state(&hostname);
                Ok(vec![Item::string(breaker_label(state))])
            }),
        );
    }
    {
        // listener-isolation introspection: one element with the quarantine
        // counters as attributes and a <listener> child per tracked guard
        let h = host.clone();
        reg(
            ctx,
            "listenerStatus",
            0,
            native(move |ctx, _args| {
                let host = h.borrow();
                let s = host.quarantine.stats.clone();
                let guards: Vec<(u64, String, u32, u64, u64, Option<u64>)> = host
                    .quarantine
                    .guards()
                    .into_iter()
                    .map(|(id, g)| {
                        let until = match g.state() {
                            QuarantineState::Quarantined { until } => Some(until),
                            _ => None,
                        };
                        (
                            id.0,
                            g.state().label().to_string(),
                            g.consecutive_failures(),
                            g.failures,
                            g.invocations,
                            until,
                        )
                    })
                    .collect();
                drop(host);
                let doc_id = ctx.construction_doc;
                let mut store = ctx.store.borrow_mut();
                let doc = store.doc_mut(doc_id);
                let elem = doc.create_element(QName::local("listener-status"));
                let counters: [(&str, u64); 7] = [
                    ("listener-errors", s.listener_errors),
                    ("listener-panics", s.listener_panics),
                    ("fuel-exhausted", s.fuel_exhausted),
                    ("trips", s.trips),
                    ("probes", s.probes),
                    ("recoveries", s.recoveries),
                    ("skipped", s.skipped),
                ];
                for (name, v) in counters {
                    doc.set_attribute(elem, QName::local(name), v.to_string())
                        .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                }
                for (id, state, streak, failures, invocations, until) in guards {
                    let lel = doc.create_element(QName::local("listener"));
                    let attrs: [(&str, String); 5] = [
                        ("id", id.to_string()),
                        ("state", state),
                        ("consecutive-failures", streak.to_string()),
                        ("failures", failures.to_string()),
                        ("invocations", invocations.to_string()),
                    ];
                    for (name, v) in attrs {
                        doc.set_attribute(lel, QName::local(name), v)
                            .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                    }
                    if let Some(until) = until {
                        doc.set_attribute(lel, QName::local("until"), until.to_string())
                            .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                    }
                    doc.append_child(elem, lel)
                        .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
                }
                Ok(vec![Item::Node(NodeRef::new(doc_id, elem))])
            }),
        );
    }

    // ----- HOF event/style registration (the §5.1 Zorba workaround) -------------
    {
        let h = host.clone();
        reg(
            ctx,
            "addEventListener",
            3,
            native(move |ctx, args| {
                let event = seq_string(ctx, &args[1]);
                let lname = parse_listener_name(&seq_string(ctx, &args[2]));
                let mut host = h.borrow_mut();
                let id = host.xq_listener_id(&lname);
                for item in &args[0] {
                    if let Item::Node(n) = item {
                        host.events.add_listener(*n, &event, id, false);
                    }
                }
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "removeEventListener",
            3,
            native(move |ctx, args| {
                let event = seq_string(ctx, &args[1]);
                let lname = parse_listener_name(&seq_string(ctx, &args[2]));
                let mut host = h.borrow_mut();
                let id = host.xq_listener_id(&lname);
                for item in &args[0] {
                    if let Item::Node(n) = item {
                        host.events.remove_listener(*n, &event, id);
                    }
                }
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "triggerEvent",
            2,
            native(move |ctx, args| {
                let event = seq_string(ctx, &args[0]);
                let targets: Vec<NodeRef> = args[1].iter().filter_map(|i| i.as_node()).collect();
                for t in targets {
                    let ev = DomEvent::new(&event, t);
                    dispatch_event_inner(ctx, &h, &ev)?;
                }
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "setStyle",
            3,
            native(move |ctx, args| {
                let prop = seq_string(ctx, &args[1]);
                let value = seq_string(ctx, &args[2]);
                let mut host = h.borrow_mut();
                for item in &args[0] {
                    if let Item::Node(n) = item {
                        host.css.set(*n, &prop, &value);
                    }
                }
                Ok(vec![])
            }),
        );
    }
    {
        let h = host.clone();
        reg(
            ctx,
            "getStyle",
            2,
            native(move |ctx, args| {
                let prop = seq_string(ctx, &args[1]);
                let host = h.borrow();
                Ok(match args[0].first().and_then(|i| i.as_node()) {
                    Some(n) => match host.css.get(n, &prop) {
                        Some(v) => vec![Item::string(v)],
                        None => vec![],
                    },
                    None => vec![],
                })
            }),
        );
    }
}

/// Synchronous REST GET: routes through the virtual network, parses XML
/// responses into the store (registered under the URL, so they are cached
/// and `fn:doc(url)` finds them — the Elsevier §6.1 caching model), returns
/// the document root (or the body text for non-XML).
///
/// The fetch is fault- and recovery-aware: the per-host circuit breaker is
/// consulted first (an open breaker fast-fails with `XQIB0010` without
/// touching the network), lost requests cost the policy's request deadline
/// in virtual time and fail with `XQIB0009`, and every failure outcome may
/// fall back to the stale cache when the host is in degraded mode
/// (`RecoveryState::serve_stale` — set by the plug-in's last-chance pass).
pub fn http_get(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    url: &str,
) -> XdmResult<Sequence> {
    // cache hit?
    {
        let store = ctx.store.borrow();
        if let Some(doc) = store.doc_by_uri(url) {
            return Ok(vec![Item::Node(store.root(doc))]);
        }
    }
    let hostname = Origin::from_url(url).host;
    let allowed = {
        let mut h = host.borrow_mut();
        let now = h.tasks.now();
        h.recovery.breaker_allow(&hostname, now)
    };
    if !allowed {
        return degraded_fallback(
            ctx,
            host,
            url,
            &hostname,
            XdmError::new("XQIB0010", format!("circuit breaker open for {hostname}")),
        );
    }
    let outcome = {
        let mut h = host.borrow_mut();
        let now = h.tasks.now();
        h.net.fetch_at(&Request::get(url), now)
    };
    match outcome {
        NetOutcome::Lost => {
            let deadline = {
                let mut h = host.borrow_mut();
                let deadline = h.recovery.policy.timeout_ms;
                h.tasks.advance(deadline);
                h.total_latency_ms += deadline;
                h.recovery.stats.timeouts += 1;
                let now = h.tasks.now();
                h.recovery.breaker_failure(&hostname, now);
                deadline
            };
            degraded_fallback(
                ctx,
                host,
                url,
                &hostname,
                XdmError::new(
                    "XQIB0009",
                    format!("GET {url} timed out after {deadline}ms"),
                ),
            )
        }
        NetOutcome::Reply { resp, latency_ms } => {
            {
                let mut h = host.borrow_mut();
                h.tasks.advance(latency_ms);
                h.total_latency_ms += latency_ms;
            }
            if resp.status != 200 {
                record_fetch_error(host, &hostname);
                return degraded_fallback(
                    ctx,
                    host,
                    url,
                    &hostname,
                    XdmError::new(
                        "XQIB0007",
                        format!("GET {url} failed with status {}", resp.status),
                    ),
                );
            }
            if resp.content_type.contains("xml") {
                match xqib_dom::parse_document(&resp.body) {
                    Ok(doc) => {
                        {
                            let mut h = host.borrow_mut();
                            h.recovery.breaker_success(&hostname);
                            let now = h.tasks.now();
                            h.recovery.store_stale(url, &hostname, &resp, now);
                        }
                        let mut store = ctx.store.borrow_mut();
                        let id = store.add_document(doc, Some(url));
                        Ok(vec![Item::Node(store.root(id))])
                    }
                    Err(e) => {
                        // truncated/garbled payloads count as fetch errors
                        record_fetch_error(host, &hostname);
                        degraded_fallback(
                            ctx,
                            host,
                            url,
                            &hostname,
                            XdmError::new("XQIB0007", e.to_string()),
                        )
                    }
                }
            } else {
                {
                    let mut h = host.borrow_mut();
                    h.recovery.breaker_success(&hostname);
                    let now = h.tasks.now();
                    h.recovery.store_stale(url, &hostname, &resp, now);
                }
                Ok(vec![Item::string(resp.body)])
            }
        }
    }
}

fn record_fetch_error(host: &Rc<RefCell<HostState>>, hostname: &str) {
    let mut h = host.borrow_mut();
    h.recovery.stats.fetch_errors += 1;
    let now = h.tasks.now();
    h.recovery.breaker_failure(hostname, now);
}

/// In degraded mode a failed fetch falls back to the last-good response for
/// the URL (or host); otherwise the error propagates. Stale documents are
/// added to the store *without* a URI: registering them under the URL would
/// poison the permanent document cache and a later fetch of the same URL
/// must go back to the network once the host heals.
fn degraded_fallback(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    url: &str,
    hostname: &str,
    err: XdmError,
) -> XdmResult<Sequence> {
    let stale = {
        let mut h = host.borrow_mut();
        if h.recovery.serve_stale {
            let now = h.tasks.now();
            let rec = &mut h.recovery;
            rec.stale.lookup(url, hostname, now).cloned()
        } else {
            None
        }
    };
    let Some(resp) = stale else { return Err(err) };
    {
        let mut h = host.borrow_mut();
        h.recovery.stats.stale_served += 1;
        h.recovery.stale_url = Some(url.to_string());
    }
    if resp.content_type.contains("xml") {
        let doc = xqib_dom::parse_document(&resp.body)
            .map_err(|e| XdmError::new("XQIB0007", e.to_string()))?;
        let mut store = ctx.store.borrow_mut();
        let id = store.add_document(doc, None);
        Ok(vec![Item::Node(store.root(id))])
    } else {
        Ok(vec![Item::string(resp.body)])
    }
}

fn breaker_label(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open { .. } => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

fn move_window(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    args: &[Sequence],
    absolute: bool,
) -> XdmResult<Sequence> {
    let Some(Item::Node(n)) = args[0].first() else {
        return Ok(vec![]);
    };
    let n = *n;
    let x = seq_integer(ctx, &args[1])? as i32;
    let y = seq_integer(ctx, &args[2])? as i32;
    let mut host = host.borrow_mut();
    if let Some(&(win, true)) = host.window_index.get(&n) {
        if absolute {
            host.browser.window_move_to(win, x, y);
        } else {
            host.browser.window_move_by(win, x, y);
        }
    }
    Ok(vec![])
}

fn seq_string(ctx: &DynamicContext, seq: &Sequence) -> String {
    match seq.first() {
        Some(i) => i.string_value(&ctx.store.borrow()),
        None => String::new(),
    }
}

fn seq_integer(ctx: &DynamicContext, seq: &Sequence) -> XdmResult<i64> {
    match seq.first() {
        Some(i) => {
            let a = xqib_xdm::atomize(&ctx.store.borrow(), i);
            Ok(a.as_double()? as i64)
        }
        None => Err(XdmError::type_error("expected a number, got ()")),
    }
}
