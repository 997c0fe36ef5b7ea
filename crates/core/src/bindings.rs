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
//! `removeEventListener`, `triggerEvent`, `setStyle`, `getStyle` (they call
//! the host routines the grammar extensions call), and the status
//! functions `fetchStatus`, `breakerState`, `listenerStatus`, `planCache`.

use std::cell::RefCell;
use std::rc::Rc;

use xqib_browser::{
    BreakerState, NetOutcome, Origin, QuarantineState, Request, Response, WindowId,
};
use xqib_dom::{name::BROWSER_NS, NodeRef, QName};
use xqib_xdm::{Item, Sequence, XdmError, XdmResult};
use xqib_xquery::context::DynamicContext;
use xqib_xquery::functions::native;

use crate::plugin::{parse_listener_name, trigger, Fetch, HostState};
use crate::window_xml;

/// A `browser:` function body, handed the host state its native closes over.
type HostFn = fn(&mut DynamicContext, &Rc<RefCell<HostState>>, &[Sequence]) -> XdmResult<Sequence>;

/// Attributes of a status element, in serving order.
type Attrs = Vec<(&'static str, String)>;

/// Installs the whole `browser:` library into a dynamic context.
pub fn install(ctx: &mut DynamicContext, host: &Rc<RefCell<HostState>>) {
    let library: [(&str, usize, HostFn); 29] = [
        // ----- UI
        ("alert", 1, |ctx, h, args| {
            let msg = seq_string(ctx, &args[0]);
            h.borrow_mut().browser.alert(&msg);
            Ok(vec![])
        }),
        ("confirm", 1, |ctx, h, args| {
            let msg = seq_string(ctx, &args[0]);
            Ok(vec![Item::boolean(h.borrow_mut().browser.confirm(&msg))])
        }),
        ("prompt", 1, |ctx, h, args| {
            let msg = seq_string(ctx, &args[0]);
            Ok(vec![Item::string(h.borrow_mut().browser.prompt(&msg))])
        }),
        ("write", 1, write),
        ("writeln", 1, write),
        // ----- window tree (§4.2.1): self() and parent() are descendants of
        // the top() tree
        ("top", 0, |ctx, h, _| {
            let top = h.borrow().browser.top();
            Ok(window_node(ctx, h, top, None))
        }),
        ("self", 0, |ctx, h, _| {
            let (top, page) = (h.borrow().browser.top(), h.borrow().page_window);
            Ok(window_node(ctx, h, top, Some(page)))
        }),
        ("parent", 0, |ctx, h, _| {
            let top = h.borrow().browser.top();
            let parent = h.borrow().browser.window(h.borrow().page_window).parent;
            Ok(parent.map_or(vec![], |p| window_node(ctx, h, top, Some(p))))
        }),
        ("document", 1, |ctx, h, args| {
            // §4.2.3: the document of a window node; () when the security
            // check fails
            let host = h.borrow();
            let doc =
                accessible_window(&host, &args[0]).and_then(|w| host.browser.window(w).document);
            Ok(doc
                .map(|d| Item::Node(ctx.store.borrow().root(d)))
                .into_iter()
                .collect())
        }),
        // ----- screen & navigator (§4.2.2)
        ("screen", 0, |ctx, h, _| {
            let n =
                window_xml::materialize_screen(&mut ctx.store.borrow_mut(), &h.borrow().browser);
            Ok(vec![Item::Node(n)])
        }),
        ("navigator", 0, |ctx, h, _| {
            let n =
                window_xml::materialize_navigator(&mut ctx.store.borrow_mut(), &h.borrow().browser);
            Ok(vec![Item::Node(n)])
        }),
        // ----- window management and history (§4.2.4)
        ("windowOpen", 2, |ctx, h, args| {
            let (name, url) = (seq_string(ctx, &args[0]), seq_string(ctx, &args[1]));
            let w = h.borrow_mut().browser.window_open(&name, &url);
            Ok(window_node(ctx, h, w, None))
        }),
        ("windowClose", 1, |_, h, args| {
            let mut host = h.borrow_mut();
            if let Some(w) = accessible_window(&host, &args[0]) {
                host.browser.window_close(w);
            }
            Ok(vec![])
        }),
        ("windowMoveBy", 3, |ctx, h, args| {
            move_window(ctx, h, args, false)
        }),
        ("windowMoveTo", 3, |ctx, h, args| {
            move_window(ctx, h, args, true)
        }),
        ("historyBack", 0, |_, h, _| history_go(h, -1)),
        ("historyForward", 0, |_, h, _| history_go(h, 1)),
        ("historyGo", 1, |ctx, h, args| {
            history_go(h, seq_integer(ctx, &args[0])?)
        }),
        // ----- REST (§3.4/§5.1); `get` matches common Zorba naming
        ("httpGet", 1, get),
        ("get", 1, get),
        // ----- status: counters as attributes, one child per tracked item
        ("fetchStatus", 0, |ctx, h, _| {
            let host = h.borrow();
            let rows = host
                .recovery
                .breaker_states()
                .into_iter()
                .map(|(name, state)| {
                    let mut row = vec![
                        ("name", name),
                        ("breaker", breaker_label(state).to_string()),
                    ];
                    if let BreakerState::Open { until } = state {
                        row.push(("until", until.to_string()));
                    }
                    row
                });
            let counters = counters(|f| host.recovery.stats.visit(f));
            status(ctx, "fetch-status", counters, "host", rows.collect())
        }),
        ("breakerState", 1, |ctx, h, args| {
            // "closed" | "open" | "half-open"
            let state = h
                .borrow()
                .recovery
                .breaker_state(&seq_string(ctx, &args[0]));
            Ok(vec![Item::string(breaker_label(state))])
        }),
        ("listenerStatus", 0, |ctx, h, _| {
            let host = h.borrow();
            let rows = host.quarantine.guards().into_iter().map(|(id, g)| {
                let mut row = vec![
                    ("id", id.0.to_string()),
                    ("state", g.state().label().to_string()),
                    ("consecutive-failures", g.consecutive_failures().to_string()),
                    ("failures", g.failures.to_string()),
                    ("invocations", g.invocations.to_string()),
                ];
                if let QuarantineState::Quarantined { until } = g.state() {
                    row.push(("until", until.to_string()));
                }
                row
            });
            let counters = counters(|f| host.quarantine.stats.visit(f));
            status(ctx, "listener-status", counters, "listener", rows.collect())
        }),
        ("planCache", 0, |ctx, h, _| {
            let host = h.borrow();
            let plans = &host.plans;
            let mut counters = counters(|f| {
                plans
                    .stats()
                    .visit(&mut |name, v| f(name.trim_start_matches("plan-cache-"), v))
            });
            for (name, v) in [
                ("size", plans.len() as u64),
                ("capacity", plans.capacity() as u64),
                ("epoch", plans.epoch()),
                ("script-version", host.script_version),
            ] {
                counters.push((name, v.to_string()));
            }
            status(ctx, "plan-cache", counters, "", vec![])
        }),
        // ----- the §5.1 high-order functions: the grammar's host routines
        ("addEventListener", 3, |ctx, h, args| {
            let (event, name) = (seq_string(ctx, &args[1]), seq_string(ctx, &args[2]));
            let listener = parse_listener_name(&ctx.sctx, &name)?;
            let mut host = h.borrow_mut();
            let id = host.xq_listener_id(&listener);
            host.attach(&event, &args[0], id).map(|()| vec![])
        }),
        ("removeEventListener", 3, |ctx, h, args| {
            let (event, name) = (seq_string(ctx, &args[1]), seq_string(ctx, &args[2]));
            let listener = parse_listener_name(&ctx.sctx, &name)?;
            let mut host = h.borrow_mut();
            let id = host.xq_listener_id(&listener);
            host.detach(&event, &args[0], id).map(|()| vec![])
        }),
        ("triggerEvent", 2, |ctx, h, args| {
            let event = seq_string(ctx, &args[0]);
            trigger(ctx, h, &event, &args[1]).map(|()| vec![])
        }),
        ("setStyle", 3, |ctx, h, args| {
            let (prop, value) = (seq_string(ctx, &args[1]), seq_string(ctx, &args[2]));
            h.borrow_mut()
                .set_style(&args[0], &prop, &value)
                .map(|()| vec![])
        }),
        ("getStyle", 2, |ctx, h, args| {
            let prop = seq_string(ctx, &args[1]);
            Ok(h.borrow()
                .get_style(&args[0], &prop)
                .map(Item::string)
                .into_iter()
                .collect())
        }),
    ];
    for (name, arity, f) in library {
        let h = host.clone();
        let f = native(move |ctx, args| f(ctx, &h, &args));
        ctx.register_native(QName::ns(BROWSER_NS, name), arity, f);
    }
}

/// `write` and `writeln`: the page's output log takes whole lines.
fn write(
    ctx: &mut DynamicContext,
    h: &Rc<RefCell<HostState>>,
    args: &[Sequence],
) -> XdmResult<Sequence> {
    let text = seq_string(ctx, &args[0]);
    h.borrow_mut().browser.writeln(&text);
    Ok(vec![])
}

/// `httpGet` and `get`.
fn get(
    ctx: &mut DynamicContext,
    h: &Rc<RefCell<HostState>>,
    args: &[Sequence],
) -> XdmResult<Sequence> {
    let url = seq_string(ctx, &args[0]);
    http_get(ctx, h, &url)
}

/// Materialises the window tree under `root` as the page window sees it,
/// adopts the view for write-back, and returns the `<window>` element of
/// `pick` (of `root` when `None`): () when `pick` is not accessible.
fn window_node(
    ctx: &mut DynamicContext,
    h: &Rc<RefCell<HostState>>,
    root: WindowId,
    pick: Option<WindowId>,
) -> Sequence {
    let (node, view) = {
        let host = h.borrow();
        let mut store = ctx.store.borrow_mut();
        let (root, view) =
            window_xml::materialize_window(&mut store, &host.browser, host.page_window, root);
        let node = match pick {
            None => Some(root),
            Some(w) => view
                .window_elems
                .iter()
                .find(|e| e.window == w && e.accessible)
                .map(|e| e.node),
        };
        (node, view)
    };
    h.borrow_mut().adopt_view(view);
    node.map(Item::Node).into_iter().collect()
}

/// The window behind the first item of `arg`, when that is the node of a
/// window the page may access.
fn accessible_window(host: &HostState, arg: &Sequence) -> Option<WindowId> {
    let Some(Item::Node(n)) = arg.first() else {
        return None;
    };
    match host.window_index.get(n) {
        Some(&(w, true)) => Some(w),
        _ => None,
    }
}

fn move_window(
    ctx: &mut DynamicContext,
    h: &Rc<RefCell<HostState>>,
    args: &[Sequence],
    absolute: bool,
) -> XdmResult<Sequence> {
    let Some(win) = accessible_window(&h.borrow(), &args[0]) else {
        return Ok(vec![]);
    };
    let (x, y) = (
        seq_integer(ctx, &args[1])? as i32,
        seq_integer(ctx, &args[2])? as i32,
    );
    let mut host = h.borrow_mut();
    if absolute {
        host.browser.window_move_to(win, x, y);
    } else {
        host.browser.window_move_by(win, x, y);
    }
    Ok(vec![])
}

fn history_go(h: &Rc<RefCell<HostState>>, delta: i64) -> XdmResult<Sequence> {
    let mut host = h.borrow_mut();
    let w = host.page_window;
    host.browser.history_go(w, delta);
    Ok(vec![])
}

/// Collects counters, in the order `visit` serves them, as attributes.
fn counters(visit: impl FnOnce(&mut dyn FnMut(&'static str, u64))) -> Attrs {
    let mut attrs = Vec::new();
    visit(&mut |name, v| attrs.push((name, v.to_string())));
    attrs
}

/// Builds a status element: `attrs` on it, then one `child` element per
/// row, carrying the row as attributes.
fn status(
    ctx: &mut DynamicContext,
    name: &str,
    attrs: Attrs,
    child: &str,
    rows: Vec<Attrs>,
) -> XdmResult<Sequence> {
    let doc_id = ctx.construction_doc;
    let mut store = ctx.store.borrow_mut();
    let doc = store.doc_mut(doc_id);
    let dom_err = |e: xqib_dom::DomError| XdmError::new("XQIB0006", e.to_string());
    let elem = doc.create_element(QName::local(name));
    let mut nodes = vec![(elem, attrs)];
    for row in rows {
        let c = doc.create_element(QName::local(child));
        doc.append_child(elem, c).map_err(dom_err)?;
        nodes.push((c, row));
    }
    for (node, attrs) in nodes {
        for (attr, v) in attrs {
            doc.set_attribute(node, QName::local(attr), v)
                .map_err(dom_err)?;
        }
    }
    Ok(vec![Item::Node(NodeRef::new(doc_id, elem))])
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
/// Inside a `behind` attempt, a GET to a deferred host parks the attempt
/// (see [`crate::plugin`]); outside one it fails with `XQIB0020`.
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
    get_fresh(ctx, host, url, &hostname)
        .or_else(|err| degraded_fallback(ctx, host, url, &hostname, err))
}

/// The GET itself, without the stale fallback.
fn get_fresh(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    url: &str,
    hostname: &str,
) -> XdmResult<Sequence> {
    let resp = match take_reply(host, url) {
        Some(resp) => resp,
        None => fetch(host, url, hostname)?,
    };
    let Some(resp) = resp else {
        let mut h = host.borrow_mut();
        h.recovery.stats.timeouts += 1;
        let now = h.tasks.now();
        h.recovery.breaker_failure(hostname, now);
        let deadline = h.recovery.policy.timeout_ms;
        let msg = format!("GET {url} timed out after {deadline}ms");
        return Err(XdmError::new("XQIB0009", msg));
    };
    if resp.status != 200 {
        record_fetch_error(host, hostname);
        let msg = format!("GET {url} failed with status {}", resp.status);
        return Err(XdmError::new("XQIB0007", msg));
    }
    let doc = if resp.content_type.contains("xml") {
        // truncated/garbled payloads count as fetch errors
        let doc = xqib_dom::parse_document(&resp.body).map_err(|e| {
            record_fetch_error(host, hostname);
            XdmError::new("XQIB0007", e.to_string())
        })?;
        Some(doc)
    } else {
        None
    };
    {
        let mut h = host.borrow_mut();
        h.recovery.breaker_success(hostname);
        let now = h.tasks.now();
        h.recovery.store_stale(url, hostname, &resp, now);
    }
    Ok(match doc {
        Some(doc) => {
            let mut store = ctx.store.borrow_mut();
            let id = store.add_document(doc, Some(url));
            vec![Item::Node(store.root(id))]
        }
        None => vec![Item::string(resp.body)],
    })
}

/// The reply a resumed `behind` attempt parked for, when `url` is the URL
/// it was sent to: the response, or `None` when it was lost.
fn take_reply(host: &Rc<RefCell<HostState>>, url: &str) -> Option<Option<Response>> {
    let mut h = host.borrow_mut();
    match std::mem::take(&mut h.fetch) {
        Fetch::Resumed(u, resp) if u == url => {
            h.fetch = Fetch::Parkable;
            Some(resp)
        }
        other => {
            h.fetch = other;
            None
        }
    }
}

/// Sends a GET past the breaker: the response, or `None` when it is lost.
/// An immediate host's round trip (or the request deadline of a lost
/// request) passes inside the running task. A deferred host parks the
/// `behind` attempt instead, for its driver's reply or for the network's
/// own answer (a loss, an injected error) at the time it lands.
fn fetch(host: &Rc<RefCell<HostState>>, url: &str, hostname: &str) -> XdmResult<Option<Response>> {
    let mut h = host.borrow_mut();
    let deferred = h.net.defers(url);
    if deferred && !matches!(h.fetch, Fetch::Parkable) {
        let msg = format!("GET {url}: {hostname} replies later, to a behind call only");
        return Err(XdmError::new("XQIB0020", msg));
    }
    let now = h.tasks.now();
    if !h.recovery.breaker_allow(hostname, now) {
        let msg = format!("circuit breaker open for {hostname}");
        return Err(XdmError::new("XQIB0010", msg));
    }
    let timeout = h.recovery.policy.timeout_ms;
    h.fetch = match h.net.fetch_at(&Request::get(url), now) {
        NetOutcome::Pending(ticket) => Fetch::Waiting(ticket, url.to_string()),
        NetOutcome::Lost if deferred => Fetch::Settled(url.to_string(), None, timeout),
        NetOutcome::Reply { resp, latency_ms } if deferred => {
            Fetch::Settled(url.to_string(), Some(resp), latency_ms)
        }
        NetOutcome::Lost => {
            h.tasks.advance(timeout);
            return Ok(None);
        }
        NetOutcome::Reply { resp, latency_ms } => {
            h.tasks.advance(latency_ms);
            return Ok(Some(resp));
        }
    };
    // the plug-in reads from `fetch` that the attempt parked, not from this
    Err(XdmError::new(
        "XQIB0021",
        "behind attempt parked for its reply",
    ))
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
