//! The plug-in proper: page lifecycle, event dispatch loop and the
//! asynchronous `behind` bridge (Figure 1 of the paper).
//!
//! Listener invocations are *fault-isolated*: a panicking or erroring
//! listener is caught at the dispatch boundary, surfaces as a synthetic
//! `error` DOM event, and repeated failures quarantine the listener
//! (see [`xqib_browser::quarantine`]) — one bad handler cannot wedge the
//! single event loop of Figure 1.
//!
//! A `behind` attempt whose `httpGet` reaches a deferred host
//! ([`VirtualNetwork::register_deferred`]) *parks* instead of blocking the
//! loop: its pending updates are discarded, as a failed attempt's are.
//! [`Plugin::deliver`] runs the same attempt again when the reply arrives,
//! and that `httpGet` takes the reply; a lost request or reply resumes it
//! as a timeout at issue + `timeout_ms`. So retries, breaker, stale
//! fallback and the exactly-one outcome stay those of the one `behind` path.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use xqib_browser::bom::Browser;
use xqib_browser::events::{DispatchStep, DomEvent, EventSystem, ListenerId};
use xqib_browser::{
    CssStore, EventLoop, IsolationConfig, ListenerQuarantine, RecoveryConfig, RecoveryState,
    Response, VirtualNetwork, WindowId,
};
use xqib_dom::{name::LOCAL_NS, DocId, NodeKind, NodeRef, QName, SharedStore};
use xqib_xdm::{Item, Sequence, XdmError, XdmResult};
use xqib_xquery::ast::MainModule;
use xqib_xquery::context::{DynamicContext, EngineHooks, StaticContext};
use xqib_xquery::exec;
use xqib_xquery::plan::{lower, lower_functions, ExprPlan};
use xqib_xquery::plancache::{self, PlanCache};
use xqib_xquery::runtime::{self, ModuleRegistry};

use crate::bindings;
use crate::window_xml::{self, WindowView};

/// A host-language (JavaScript) listener callback.
pub type ExternalListener = Rc<RefCell<dyn FnMut(&DomEvent)>>;

/// What a listener handle resolves to.
#[derive(Clone)]
pub enum ListenerKind {
    /// An XQuery function registered via `attach listener` or
    /// `browser:addEventListener` — invoked as `f($evt, $obj)` (§4.3.1).
    XQuery(QName),
    /// Inline XQuery from an `onclick="…"`-style attribute, lowered once
    /// by `load_page`; evaluated with the target as context item, `$event`
    /// and `$value` bound.
    XQueryInline(Rc<ExprPlan>),
    /// A host-language listener (the minijs baseline of §6.2): shares the
    /// DOM and dispatch machinery with XQuery listeners.
    External(ExternalListener),
}

/// Tasks on the plug-in's event loop.
pub enum PluginTask {
    /// Dispatch a DOM event through capture/target/bubble.
    Dispatch(DomEvent),
    /// One attempt of an asynchronous `behind` call.
    Behind(BehindCall),
}

/// An asynchronous `behind` call (§4.4): evaluate `call` in `env`, then
/// invoke `listener($readyState, $result)`. `call` is the plan lowered once
/// with the statement that attached it, shared by every attach and retry.
/// Failed attempts are rescheduled with exponential backoff up to the retry
/// policy's `max_attempts`; `call_id` keys the deterministic backoff jitter.
pub struct BehindCall {
    pub call: Rc<ExprPlan>,
    pub env: Vec<(QName, Sequence)>,
    pub listener: QName,
    pub attempt: u32,
    pub call_id: u64,
    /// Set when the attempt resumes after parking: the URL it fetched and
    /// the reply (`None` when the request or its reply was lost).
    pub reply: Option<(String, Option<Response>)>,
}

/// Where `httpGet` stands with the `behind` attempt it runs in.
#[derive(Default)]
pub(crate) enum Fetch {
    /// No `behind` attempt runs: a GET must be answered at once.
    #[default]
    Sync,
    /// A `behind` attempt runs: a GET to a deferred host parks it.
    Parkable,
    /// A resumed attempt runs: the GET of the URL takes the reply.
    Resumed(String, Option<Response>),
    /// The attempt parked until the driver answers this ticket for the URL…
    Waiting(u64, String),
    /// … or until the network's own answer lands after this many ms.
    Settled(String, Option<Response>, u64),
}

/// Mutable host state shared between the plug-in, its hooks and the
/// `browser:` native functions.
pub struct HostState {
    pub browser: Browser,
    pub events: EventSystem,
    pub css: CssStore,
    pub net: VirtualNetwork,
    pub listeners: HashMap<ListenerId, ListenerKind>,
    /// stable handle per XQuery listener name (so detach finds attach's id)
    xq_ids: HashMap<QName, ListenerId>,
    /// all window views materialised so far (write-back set)
    pub views: Vec<WindowView>,
    /// window-element node → (window, accessible)
    pub window_index: HashMap<NodeRef, (WindowId, bool)>,
    pub tasks: EventLoop<PluginTask>,
    pub page_window: WindowId,
    /// retry policy, circuit breakers, stale cache and recovery counters
    pub recovery: RecoveryState,
    /// per-listener fault containment state and counters
    pub quarantine: ListenerQuarantine,
    /// isolation knobs (quarantine thresholds, listener fuel budget)
    pub isolation: IsolationConfig,
    /// monotonically increasing id handed to each `behind` call (jitter key)
    next_behind_id: u64,
    /// The running `behind` attempt's network state, read by `httpGet`.
    pub(crate) fetch: Fetch,
    /// Parked `behind` attempts, by the ticket their reply answers.
    waiting: HashMap<u64, (String, BehindCall)>,
    /// Compiled plans for [`Plugin::eval`] snippets, served by
    /// `browser:planCache()`.
    pub plans: PlanCache,
    /// Bumped whenever the page scripts are (re)compiled: eval snippets
    /// merge the page's function library into their static context, so a
    /// cached snippet plan must not survive a script reload.
    pub script_version: u64,
}

impl HostState {
    /// Resolves (or creates) the stable listener handle for an XQuery
    /// listener function name.
    pub fn xq_listener_id(&mut self, name: &QName) -> ListenerId {
        if let Some(&id) = self.xq_ids.get(name) {
            return id;
        }
        let id = self.events.fresh_listener_id();
        self.xq_ids.insert(name.clone(), id);
        self.listeners
            .insert(id, ListenerKind::XQuery(name.clone()));
        id
    }

    // The browser operations. Each has one routine here, shared by the
    // grammar extension (through [`EngineHooks`]) and the `browser:`
    // high-order function of §5.1; both raise a type error for an atomic
    // target.

    /// Attaches listener `id` for `event` to every target.
    pub fn attach(&mut self, event: &str, targets: &[Item], id: ListenerId) -> XdmResult<()> {
        for t in targets {
            self.events.add_listener(expect_node(t)?, event, id, false);
        }
        Ok(())
    }

    /// Detaches listener `id` for `event` from every target.
    pub fn detach(&mut self, event: &str, targets: &[Item], id: ListenerId) -> XdmResult<()> {
        for t in targets {
            self.events.remove_listener(expect_node(t)?, event, id);
        }
        Ok(())
    }

    /// Sets a CSS property of every target in the CSS store (§4.5).
    pub fn set_style(&mut self, targets: &[Item], prop: &str, value: &str) -> XdmResult<()> {
        for t in targets {
            self.css.set(expect_node(t)?, prop, value);
        }
        Ok(())
    }

    /// A CSS property of the first target, when it is a node with one set.
    pub fn get_style(&self, targets: &[Item], prop: &str) -> Option<String> {
        let node = targets.first()?.as_node()?;
        self.css.get(node, prop).map(str::to_string)
    }

    /// Registers a view for write-back and indexes its window elements.
    pub fn adopt_view(&mut self, view: WindowView) {
        for w in &view.window_elems {
            self.window_index.insert(w.node, (w.window, w.accessible));
        }
        self.views.push(view);
    }
}

/// Plug-in configuration.
pub struct PluginConfig {
    /// URL of the page window.
    pub url: String,
    /// Window name.
    pub window_name: String,
    /// Library modules available to `import module` (§3.4).
    pub modules: ModuleRegistry,
    /// Retry/timeout/backoff policy and circuit-breaker settings for the
    /// asynchronous network path.
    pub recovery: RecoveryConfig,
    /// Listener fault-isolation settings: quarantine threshold/window and
    /// the per-invocation evaluation fuel budget.
    pub isolation: IsolationConfig,
}

impl Default for PluginConfig {
    fn default() -> Self {
        PluginConfig {
            url: "http://www.xqib.org/index.html".to_string(),
            window_name: "top_window".to_string(),
            modules: ModuleRegistry::new(),
            recovery: RecoveryConfig::default(),
            isolation: IsolationConfig::default(),
        }
    }
}

/// Eval-snippet plans kept per plug-in (REPL-ish traffic: small).
const EVAL_PLAN_CAPACITY: usize = 32;

/// The XQIB plug-in instance for one page.
pub struct Plugin {
    pub store: SharedStore,
    pub host: Rc<RefCell<HostState>>,
    pub ctx: DynamicContext,
    /// compiled page scripts, in document order
    pub scripts: Vec<MainModule>,
    pub page_doc: Option<DocId>,
    modules: ModuleRegistry,
}

/// The [`EngineHooks`] bridge: routes the paper's grammar extensions into
/// the host state.
struct Hooks {
    host: Rc<RefCell<HostState>>,
}

impl EngineHooks for Hooks {
    fn attach_listener(&self, event: &str, targets: &[Item], listener: &QName) -> XdmResult<()> {
        let mut host = self.host.borrow_mut();
        let id = host.xq_listener_id(listener);
        host.attach(event, targets, id)
    }

    fn detach_listener(&self, event: &str, targets: &[Item], listener: &QName) -> XdmResult<()> {
        let mut host = self.host.borrow_mut();
        let id = host.xq_listener_id(listener);
        host.detach(event, targets, id)
    }

    fn trigger_event(
        &self,
        ctx: &mut DynamicContext,
        event: &str,
        targets: &[Item],
    ) -> XdmResult<()> {
        trigger(ctx, &self.host, event, targets)
    }

    fn attach_behind(
        &self,
        ctx: &mut DynamicContext,
        _event: &str,
        call: Rc<ExprPlan>,
        listener: &QName,
    ) -> XdmResult<()> {
        let env = ctx.snapshot_visible_vars();
        let mut host = self.host.borrow_mut();
        host.next_behind_id += 1;
        let call_id = host.next_behind_id;
        host.tasks.schedule(
            0,
            PluginTask::Behind(BehindCall {
                call,
                env,
                listener: listener.clone(),
                attempt: 1,
                call_id,
                reply: None,
            }),
        );
        Ok(())
    }

    fn set_style(&self, targets: &[Item], prop: &str, value: &str) -> XdmResult<()> {
        self.host.borrow_mut().set_style(targets, prop, value)
    }

    fn get_style(&self, targets: &[Item], prop: &str) -> XdmResult<Option<String>> {
        Ok(self.host.borrow().get_style(targets, prop))
    }
}

fn expect_node(item: &Item) -> XdmResult<NodeRef> {
    match item {
        Item::Node(n) => Ok(*n),
        Item::Atomic(a) => Err(XdmError::type_error(format!(
            "target must be a node, got {}",
            a.type_name()
        ))),
    }
}

impl Plugin {
    /// Creates a plug-in with a fresh store and a single browser window.
    pub fn new(config: PluginConfig) -> Self {
        let store = xqib_dom::store::shared_store();
        let browser = Browser::new(&config.window_name, &config.url);
        let page_window = browser.top();
        let host = Rc::new(RefCell::new(HostState {
            browser,
            events: EventSystem::new(),
            css: CssStore::new(),
            net: VirtualNetwork::new(),
            listeners: HashMap::new(),
            xq_ids: HashMap::new(),
            views: Vec::new(),
            window_index: HashMap::new(),
            tasks: EventLoop::new(),
            page_window,
            recovery: RecoveryState::new(config.recovery),
            quarantine: ListenerQuarantine::new(&config.isolation),
            isolation: config.isolation,
            next_behind_id: 0,
            fetch: Fetch::Sync,
            waiting: HashMap::new(),
            plans: PlanCache::new(EVAL_PLAN_CAPACITY),
            script_version: 0,
        }));
        let sctx = Rc::new(StaticContext {
            browser_profile: true,
            ..Default::default()
        });
        let mut ctx = DynamicContext::new(store.clone(), sctx);
        ctx.hooks = Some(Rc::new(Hooks { host: host.clone() }));
        bindings::install(&mut ctx, &host);
        Plugin {
            store,
            host,
            ctx,
            scripts: Vec::new(),
            page_doc: None,
            modules: config.modules,
        }
    }

    /// Loads an XHTML page: parses it into the live DOM, extracts and runs
    /// the XQuery scripts, registers attribute listeners. Returns the list
    /// of JavaScript script bodies found (for an external JS host, §6.2).
    pub fn load_page(&mut self, html: &str) -> XdmResult<Vec<String>> {
        let doc =
            xqib_dom::parse_document(html).map_err(|e| XdmError::new("XQIB0004", e.to_string()))?;
        let page_window = self.page_window();
        let url = {
            let host = self.host.borrow();
            host.browser.window(page_window).location.href.clone()
        };
        let doc_id = self.store.borrow_mut().add_document(doc, Some(&url));
        self.page_doc = Some(doc_id);
        self.host
            .borrow_mut()
            .browser
            .set_document(page_window, doc_id);

        // context item = the page document (§4.2.3: "it is the context item")
        let root = self.store.borrow().root(doc_id);
        self.ctx.focus = Some(xqib_xquery::context::Focus {
            item: Item::Node(root),
            position: 1,
            size: 1,
        });

        // collect scripts and attribute listeners
        let mut xq_sources: Vec<String> = Vec::new();
        let mut js_sources: Vec<String> = Vec::new();
        let mut attr_listeners: Vec<(NodeRef, String, String)> = Vec::new();
        {
            let store = self.store.borrow();
            let doc = store.doc(doc_id);
            for node in doc.descendants_or_self(doc.root()) {
                let NodeKind::Element { name, .. } = doc.kind(node) else {
                    continue;
                };
                if &*name.local == "script" {
                    let ty = doc
                        .get_attribute(node, None, "type")
                        .unwrap_or("text/javascript");
                    let body = doc.string_value(node);
                    if ty.contains("xquery") {
                        xq_sources.push(body);
                    } else if ty.contains("javascript") {
                        js_sources.push(body);
                    }
                    continue;
                }
                for &attr in doc.attributes(node) {
                    if let NodeKind::Attribute { name, value } = doc.kind(attr) {
                        if name.local.starts_with("on") && !value.trim().is_empty() {
                            attr_listeners.push((
                                NodeRef::new(doc_id, node),
                                name.local.to_string(),
                                value.clone(),
                            ));
                        }
                    }
                }
            }
        }

        // compile every script, merge their static contexts
        let mut merged = StaticContext {
            browser_profile: true,
            ..Default::default()
        };
        let mut modules_compiled = Vec::new();
        for src in &xq_sources {
            let q = runtime::compile_with(src, &self.modules, true)?;
            for f in q.sctx.functions.values() {
                merged.declare_function((**f).clone());
            }
            merged.namespaces.extend(q.sctx.namespaces.iter().cloned());
            modules_compiled.push(q.module.clone());
        }
        // every listener body is lowered once, here, against the page's
        // merged function library
        let merged = lower_functions(&Rc::new(merged));
        self.ctx.sctx = merged.clone();

        // inline attribute listeners (lowered against the merged context)
        for (target, event_attr, code) in attr_listeners {
            // `onclick` attribute → `onclick` event type
            match xqib_xquery::parser::parse_expr_str(&code) {
                Ok(expr) => {
                    let plan = Rc::new(ExprPlan::lower(&merged, &expr));
                    let mut host = self.host.borrow_mut();
                    let id = host.events.fresh_listener_id();
                    host.listeners.insert(id, ListenerKind::XQueryInline(plan));
                    host.attach(&event_attr, &[Item::Node(target)], id)?;
                }
                Err(_) => {
                    // not XQuery — presumably a JavaScript handler for the
                    // co-existing JS engine; leave it to the external host
                }
            }
        }

        // run the scripts (prolog globals + body program)
        for module in &modules_compiled {
            let q = runtime::CompiledQuery {
                module: module.clone(),
                sctx: merged.clone(),
            };
            lower(&q).execute(&mut self.ctx)?;
            self.sync_views()?;
        }
        self.scripts = modules_compiled;
        // eval-snippet plans baked the old page functions in; stop
        // matching them
        self.host.borrow_mut().script_version += 1;
        Ok(js_sources)
    }

    pub fn page_window(&self) -> WindowId {
        self.host.borrow().page_window
    }

    pub fn page_doc(&self) -> DocId {
        match self.page_doc {
            Some(d) => d,
            None => panic!("no page loaded"),
        }
    }

    /// Registers an external (JavaScript) listener on a node — the §6.2
    /// co-existence path. Returns the handle.
    pub fn register_external_listener(
        &mut self,
        target: NodeRef,
        event_type: &str,
        f: impl FnMut(&DomEvent) + 'static,
    ) -> ListenerId {
        let mut host = self.host.borrow_mut();
        let id = host.events.fresh_listener_id();
        host.listeners
            .insert(id, ListenerKind::External(Rc::new(RefCell::new(f))));
        let _ = host.attach(event_type, &[Item::Node(target)], id); // a node: cannot fail
        id
    }

    /// Dispatches one DOM event synchronously (the Figure 1 loop body).
    pub fn dispatch(&mut self, event: &DomEvent) -> XdmResult<()> {
        self.ctx.reset_stack_base();
        dispatch_event_inner(&mut self.ctx, &self.host, event)
    }

    /// Convenience: a left-button click on a node.
    pub fn click(&mut self, target: NodeRef) -> XdmResult<()> {
        self.dispatch(&DomEvent::new("onclick", target))
    }

    /// Convenience: a key-up on a node (after the host has updated the
    /// node's `value` attribute).
    pub fn keyup(&mut self, target: NodeRef) -> XdmResult<()> {
        self.dispatch(&DomEvent::new("onkeyup", target))
    }

    /// Current virtual time of this plug-in's event loop, in milliseconds.
    pub fn now(&self) -> u64 {
        self.host.borrow().tasks.now()
    }

    /// Advances this plug-in's virtual clock without running tasks — a fleet
    /// driver uses it to keep many plug-ins on one shared timeline.
    pub fn advance_clock(&mut self, ms: u64) {
        self.host.borrow_mut().tasks.advance(ms);
    }

    /// Clicks the element with the given `id`, erroring if absent.
    pub fn click_id(&mut self, id: &str) -> XdmResult<()> {
        let target = self
            .element_by_id(id)
            .ok_or_else(|| XdmError::new("XQIB0006", format!("no element with id '{id}'")))?;
        self.click(target)
    }

    /// Host-side form input: sets an attribute on the element with the given
    /// `id` (e.g. a search box's `value` before dispatching `onkeyup`).
    pub fn set_attr_by_id(&mut self, id: &str, attr: &str, value: &str) -> XdmResult<()> {
        let target = self
            .element_by_id(id)
            .ok_or_else(|| XdmError::new("XQIB0006", format!("no element with id '{id}'")))?;
        let mut store = self.store.borrow_mut();
        store
            .doc_mut(target.doc)
            .set_attribute(target.node, QName::local(attr), value)
            .map_err(|e| XdmError::new("XQIB0006", format!("set_attr_by_id({id}): {e:?}")))?;
        Ok(())
    }

    /// Runs every task due by virtual time `limit`, in due order: queued
    /// events, `behind` attempts and the replies parked attempts waited
    /// for. Returns the number of tasks processed.
    pub fn run_until(&mut self, limit: u64) -> XdmResult<u64> {
        let mut n = 0;
        loop {
            let task = self.host.borrow_mut().tasks.pop(limit);
            let Some(task) = task else { break };
            n += 1;
            match task {
                PluginTask::Dispatch(ev) => self.dispatch(&ev)?,
                PluginTask::Behind(b) => self.run_behind(b)?,
            }
            if n > 1_000_000 {
                return Err(XdmError::new("XQIB0005", "event loop runaway"));
            }
        }
        Ok(n)
    }

    /// Drains the event loop: [`run_until`](Self::run_until)`(u64::MAX)`.
    pub fn run_until_idle(&mut self) -> XdmResult<u64> {
        self.run_until(u64::MAX)
    }

    /// A deferred host's driver answers request `ticket` with `resp`,
    /// arriving at virtual time `at`: the `behind` attempt parked on it
    /// runs again then. A reply the fault plan loses, or one for a ticket
    /// nobody waits on, is dropped.
    pub fn deliver(&mut self, ticket: u64, resp: Response, at: u64) {
        let host = &mut *self.host.borrow_mut();
        let resp = host.net.complete(ticket, resp);
        let (Some(resp), Some((url, mut b))) = (resp, host.waiting.remove(&ticket)) else {
            return;
        };
        b.reply = Some((url, Some(resp)));
        let delay = at.saturating_sub(host.tasks.now());
        host.tasks.schedule(delay, PluginTask::Behind(b));
    }

    /// Executes one attempt of a `behind` call: readyState 1 (loading)
    /// notification on the first attempt, the call itself, then readyState 4
    /// with the result (§4.4's AJAX model). An attempt whose `httpGet`
    /// reaches a deferred host parks until the reply arrives, then runs
    /// again (a resumed attempt counts and notifies nothing twice). A
    /// failed attempt discards its pending updates and is rescheduled with
    /// exponential backoff; once the retry policy is exhausted the call
    /// degrades (stale cache, synthetic `stale`/`error` DOM events) instead
    /// of erroring the event loop.
    fn run_behind(&mut self, mut b: BehindCall) -> XdmResult<()> {
        self.ctx.reset_stack_base();
        let fetch = match b.reply.take() {
            Some((url, resp)) => Fetch::Resumed(url, resp),
            None => {
                self.host.borrow_mut().recovery.stats.attempts += 1;
                if b.attempt == 1 {
                    // readyState 1: request started, no result yet
                    self.invoke_ready_state(&b.listener, 1, vec![]);
                }
                Fetch::Parkable
            }
        };
        self.host.borrow_mut().fetch = fetch;
        let result = self.eval_behind_call(&b.call, &b.env);
        let fetch = std::mem::take(&mut self.host.borrow_mut().fetch);
        match (fetch, result) {
            (Fetch::Waiting(ticket, url), _) => {
                // parked like a failed attempt: its updates go
                self.ctx.pul.take();
                self.host.borrow_mut().waiting.insert(ticket, (url, b));
                Ok(())
            }
            (Fetch::Settled(url, resp, delay), _) => {
                self.ctx.pul.take();
                b.reply = Some((url, resp));
                let mut host = self.host.borrow_mut();
                host.tasks.schedule(delay, PluginTask::Behind(b));
                Ok(())
            }
            (_, Ok(result)) => {
                xqib_xquery::eval::apply_pending(&mut self.ctx)?;
                self.host.borrow_mut().recovery.stats.completions += 1;
                // readyState 4: done
                self.invoke_ready_state(&b.listener, 4, result);
                Ok(())
            }
            (_, Err(_)) => {
                // a failed attempt must not leak half-built page updates
                self.ctx.pul.take();
                let (max_attempts, delay) = {
                    let host = self.host.borrow();
                    (
                        host.recovery.policy.max_attempts,
                        host.recovery.policy.backoff_delay(b.attempt, b.call_id),
                    )
                };
                if b.attempt < max_attempts {
                    let mut host = self.host.borrow_mut();
                    host.recovery.stats.retries += 1;
                    b.attempt += 1;
                    host.tasks.schedule(delay, PluginTask::Behind(b));
                    Ok(())
                } else {
                    self.degrade_behind(&b.call, &b.env, &b.listener)
                }
            }
        }
    }

    /// Invokes a `behind` listener as `listener($readyState, $result)`,
    /// contained like a DOM event listener (see [`run_guarded`]): a failure
    /// discards its pending updates and becomes a synthetic `error` event
    /// instead of an error out of the event loop.
    fn invoke_ready_state(&mut self, listener: &QName, state: i64, result: Sequence) {
        let host = self.host.clone();
        let id = host.borrow_mut().xq_listener_id(listener);
        run_guarded(&mut self.ctx, &host, id, self.page_doc, |ctx| {
            exec::invoke(ctx, listener, vec![vec![Item::integer(state)], result])?;
            sync_views_static(ctx, &host)
        });
    }

    /// Evaluates the `behind` call in its captured environment.
    fn eval_behind_call(
        &mut self,
        call: &ExprPlan,
        env: &[(QName, Sequence)],
    ) -> XdmResult<Sequence> {
        self.ctx.push_scope();
        for (name, value) in env {
            self.ctx.bind_var(name.clone(), value.clone());
        }
        let result = call.eval(&mut self.ctx);
        self.ctx.pop_scope();
        result
    }

    /// Retries exhausted: one stale-enabled pass over the call. A fresh
    /// success (e.g. the host healed between the last retry and now) still
    /// completes normally; a stale-cache hit becomes a single `stale` DOM
    /// event carrying the served payload; anything else becomes a single
    /// `error` DOM event. Exactly one of the three outcomes is delivered.
    fn degrade_behind(
        &mut self,
        call: &ExprPlan,
        env: &[(QName, Sequence)],
        listener: &QName,
    ) -> XdmResult<()> {
        {
            let mut host = self.host.borrow_mut();
            host.recovery.serve_stale = true;
            host.recovery.stale_url = None;
        }
        let result = self.eval_behind_call(call, env);
        let stale_url = {
            let mut host = self.host.borrow_mut();
            host.recovery.serve_stale = false;
            host.recovery.stale_url.take()
        };
        match (result, stale_url) {
            (Ok(result), None) => {
                xqib_xquery::eval::apply_pending(&mut self.ctx)?;
                self.host.borrow_mut().recovery.stats.completions += 1;
                self.invoke_ready_state(listener, 4, result);
                Ok(())
            }
            (Ok(result), Some(url)) => {
                // the stale pass's own updates are applied (the call ran to
                // completion); the listener is told via the event instead of
                // a readyState-4 completion
                xqib_xquery::eval::apply_pending(&mut self.ctx)?;
                // document nodes are normalised to their root element: the
                // payload is deep-copied *under* the event node, where a
                // document node would be ill-formed
                let payload = result.iter().find_map(|i| i.as_node()).map(|n| {
                    let store = self.store.borrow();
                    let doc = store.doc(n.doc);
                    if matches!(doc.kind(n.node), NodeKind::Document { .. }) {
                        doc.children(n.node)
                            .iter()
                            .copied()
                            .find(|&c| matches!(doc.kind(c), NodeKind::Element { .. }))
                            .map(|c| NodeRef::new(n.doc, c))
                            .unwrap_or(n)
                    } else {
                        n
                    }
                });
                self.host.borrow_mut().recovery.stats.stale_events += 1;
                self.dispatch_degradation_event("stale", &url, payload)
            }
            (Err(err), _) => {
                self.ctx.pul.take();
                self.host.borrow_mut().recovery.stats.error_events += 1;
                let detail = format!("{} {}", err.code, err.message);
                self.dispatch_degradation_event("error", &detail, None)
            }
        }
    }

    /// Dispatches a synthetic degradation event at the page `<body>` (or the
    /// document root when there is no body). Listeners attached via
    /// `on event "stale"`/`"error"` observe it like any DOM event.
    fn dispatch_degradation_event(
        &mut self,
        event_type: &str,
        detail: &str,
        payload: Option<NodeRef>,
    ) -> XdmResult<()> {
        let target = self.first_element_named("body").or_else(|| {
            self.page_doc.map(|d| {
                let store = self.store.borrow();
                store.root(d)
            })
        });
        let Some(target) = target else {
            return Ok(()); // no page loaded: nothing to notify
        };
        let mut event = DomEvent::new(event_type, target);
        event.detail = detail.to_string();
        event.payload = payload;
        self.dispatch(&event)
    }

    /// Applies window-view write-backs to the BOM (status/name changes,
    /// `location/href` navigation).
    pub fn sync_views(&mut self) -> XdmResult<()> {
        sync_views_static(&self.ctx, &self.host)
    }

    /// All alert messages shown so far.
    pub fn alerts(&self) -> Vec<String> {
        self.host
            .borrow()
            .browser
            .alerts()
            .into_iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Finds an element in the page by `id` attribute.
    pub fn element_by_id(&self, id: &str) -> Option<NodeRef> {
        let store = self.store.borrow();
        let doc_id = self.page_doc?;
        let doc = store.doc(doc_id);
        doc.find_descendant(doc.root(), |n| doc.get_attribute(n, None, "id") == Some(id))
            .map(|n| NodeRef::new(doc_id, n))
    }

    /// Finds the first element with the given local name.
    pub fn first_element_named(&self, local: &str) -> Option<NodeRef> {
        let doc_id = self.page_doc?;
        Some(NodeRef::new(
            doc_id,
            element_named(&self.store.borrow(), doc_id, local)?,
        ))
    }

    /// Serialises the current page DOM.
    pub fn serialize_page(&self) -> String {
        let store = self.store.borrow();
        xqib_dom::serialize::serialize_document(store.doc(self.page_doc()))
    }

    /// Runs an ad-hoc XQuery snippet against the live page (the context
    /// item is the page document). Useful in tests and examples.
    pub fn eval(&mut self, src: &str) -> XdmResult<Sequence> {
        self.ctx.reset_stack_base();
        // the fingerprint covers everything the snippet compilation reads
        // besides its text: the module registry and (via the version
        // counter) the page functions merged in below
        let mut host = self.host.borrow_mut();
        let fp = plancache::mix(
            plancache::static_fingerprint(&self.modules, true),
            host.script_version,
        );
        let plan = {
            let modules = &self.modules;
            let page_sctx = self.ctx.sctx.clone();
            host.plans.get_or_compile(src, fp, || {
                let q = runtime::compile_with(src, modules, true)?;
                // merge page functions so snippets can call local: listeners
                let mut merged = StaticContext {
                    browser_profile: true,
                    ..Default::default()
                };
                for sctx in [&page_sctx, &q.sctx] {
                    for f in sctx.functions.values() {
                        merged.declare_function((**f).clone());
                    }
                    merged.namespaces.extend(sctx.namespaces.iter().cloned());
                }
                Ok(lower(&runtime::CompiledQuery {
                    module: q.module,
                    sctx: Rc::new(merged),
                }))
            })?
        };
        drop(host);
        let out = plan.execute(&mut self.ctx)?;
        self.sync_views()?;
        Ok(out)
    }

    /// Renders a result sequence as text (nodes serialise to markup).
    pub fn render(&self, seq: &Sequence) -> String {
        runtime::render_sequence(&self.ctx, seq)
    }
}

/// How one isolated listener invocation ended.
#[derive(Debug)]
pub enum ListenerRun {
    /// Returned normally; its pending updates were applied.
    Completed,
    /// Raised a dynamic error; context repaired, pending updates discarded.
    Failed(XdmError),
    /// Panicked; the unwind was caught at the dispatch boundary.
    Panicked(String),
}

/// Core of the dispatch loop: plan the propagation path, invoke listeners.
///
/// Every listener runs isolated: a dynamic error or panic never unwinds
/// through the loop. Failures are recorded against the listener's
/// quarantine guard and surface as a synthetic `error` DOM event queued on
/// the event loop (observable after the next drain); the remaining
/// listeners of the plan still fire. Quarantined listeners are skipped.
pub fn dispatch_event_inner(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    event: &DomEvent,
) -> XdmResult<()> {
    let plan: Vec<DispatchStep> = host
        .borrow()
        .events
        .dispatch_plan(&ctx.store.borrow(), event);
    for step in plan {
        let kind = host.borrow().listeners.get(&step.listener).cloned();
        let Some(kind) = kind else { continue };
        run_guarded(ctx, host, step.listener, Some(event.target.doc), |ctx| {
            invoke_listener(ctx, host, &kind, event, step.current_target)
        });
    }
    Ok(())
}

/// Dispatches `event` at every target: the one routine behind `trigger
/// event` and `browser:triggerEvent`. An atomic target is a type error.
pub fn trigger(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    event: &str,
    targets: &[Item],
) -> XdmResult<()> {
    for t in targets {
        dispatch_event_inner(ctx, host, &DomEvent::new(event, expect_node(t)?))?;
    }
    Ok(())
}

/// One contained listener invocation, for DOM event listeners and `behind`
/// listeners alike: quarantined listeners are skipped, the rest run under
/// the listener fuel budget and [`run_listener_isolated`], and a failure is
/// booked against the listener's quarantine guard and queued as a synthetic
/// `error` event in `error_doc`.
fn run_guarded(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    listener: ListenerId,
    error_doc: Option<DocId>,
    invoke: impl FnOnce(&mut DynamicContext) -> XdmResult<()>,
) {
    let admitted = {
        let mut h = host.borrow_mut();
        let now = h.tasks.now();
        h.quarantine.allow(listener, now)
    };
    if !admitted {
        return; // quarantined: contained out of the dispatch plan
    }
    let budget = host.borrow().isolation.listener_fuel;
    ctx.set_fuel(budget);
    let outcome = run_listener_isolated(ctx, invoke);
    ctx.set_fuel(None);
    let detail = match outcome {
        ListenerRun::Completed => {
            host.borrow_mut().quarantine.on_success(listener);
            return;
        }
        ListenerRun::Failed(err) => {
            record_listener_failure(host, listener, false, err.code == "XQIB0011");
            format!("{} {}", err.code, err.message)
        }
        ListenerRun::Panicked(msg) => {
            record_listener_failure(host, listener, true, false);
            format!("panic {msg}")
        }
    };
    if let Some(doc) = error_doc {
        raise_error_event(ctx, host, doc, detail);
    }
}

/// Invokes one listener behind `catch_unwind`, repairing the dynamic
/// context (scope/barrier stacks, focus, call depth) and discarding the
/// half-built pending update list when the listener does not return
/// normally. The context checkpoint plus the transactional PUL apply make
/// a failed listener invisible to engine state and DOM alike.
fn run_listener_isolated(
    ctx: &mut DynamicContext,
    invoke: impl FnOnce(&mut DynamicContext) -> XdmResult<()>,
) -> ListenerRun {
    let checkpoint = ctx.checkpoint();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| invoke(&mut *ctx)));
    match result {
        Ok(Ok(())) => ListenerRun::Completed,
        Ok(Err(err)) => {
            ctx.restore(&checkpoint);
            ctx.pul.take();
            ListenerRun::Failed(err)
        }
        Err(payload) => {
            ctx.restore(&checkpoint);
            ctx.pul.take();
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "listener panicked".to_string()
            };
            ListenerRun::Panicked(msg)
        }
    }
}

/// Books a failed invocation against the listener's quarantine guard.
fn record_listener_failure(
    host: &Rc<RefCell<HostState>>,
    listener: ListenerId,
    panicked: bool,
    fuel_exhausted: bool,
) {
    let mut h = host.borrow_mut();
    let now = h.tasks.now();
    if panicked {
        h.quarantine.stats.listener_panics += 1;
    } else {
        h.quarantine.stats.listener_errors += 1;
    }
    if fuel_exhausted {
        h.quarantine.stats.fuel_exhausted += 1;
    }
    h.quarantine.on_failure(listener, now);
}

/// Queues a synthetic `error` DOM event for a failed listener, delivered at
/// the `<body>` (or document root) of the failed event's document — the
/// same shape as the network degradation events. Queuing on the event loop
/// (rather than dispatching synchronously) bounds error-listener recursion:
/// an error listener that itself keeps failing is quarantined after the
/// usual threshold, at which point no further events are generated.
fn raise_error_event(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    doc_id: DocId,
    detail: String,
) {
    let target = {
        let store = ctx.store.borrow();
        let node = element_named(&store, doc_id, "body").unwrap_or_else(|| store.root(doc_id).node);
        NodeRef::new(doc_id, node)
    };
    let mut ev = DomEvent::new("error", target);
    ev.detail = detail;
    host.borrow_mut()
        .tasks
        .schedule(0, PluginTask::Dispatch(ev));
}

/// The first element of `doc_id`, in document order, with the given local
/// name.
fn element_named(store: &xqib_dom::Store, doc_id: DocId, local: &str) -> Option<xqib_dom::NodeId> {
    let doc = store.doc(doc_id);
    doc.find_descendant(doc.root(), |n| {
        doc.element_name(n).is_some_and(|q| &*q.local == local)
    })
}

/// Invokes a single listener of whatever kind, on the plan tier.
fn invoke_listener(
    ctx: &mut DynamicContext,
    host: &Rc<RefCell<HostState>>,
    kind: &ListenerKind,
    event: &DomEvent,
    current_target: NodeRef,
) -> XdmResult<()> {
    match kind {
        ListenerKind::XQuery(name) => {
            let evt_node = build_event_node(ctx, event)?;
            exec::invoke(
                ctx,
                name,
                vec![vec![Item::Node(evt_node)], vec![Item::Node(current_target)]],
            )?;
            sync_views_static(ctx, host)?;
            Ok(())
        }
        ListenerKind::XQueryInline(plan) => {
            let evt_node = build_event_node(ctx, event)?;
            ctx.push_scope();
            ctx.bind_var(QName::local("event"), vec![Item::Node(evt_node)]);
            // $value = the target's `value` attribute (form input model)
            let value = {
                let store = ctx.store.borrow();
                store
                    .doc(current_target.doc)
                    .get_attribute(current_target.node, None, "value")
                    .unwrap_or("")
                    .to_string()
            };
            ctx.bind_var(QName::local("value"), vec![Item::string(value)]);
            let r = ctx.with_focus(Item::Node(current_target), 1, 1, |ctx| plan.eval(ctx));
            ctx.pop_scope();
            r?;
            xqib_xquery::eval::apply_pending(ctx)?;
            sync_views_static(ctx, host)?;
            Ok(())
        }
        ListenerKind::External(f) => {
            (f.borrow_mut())(event);
            Ok(())
        }
    }
}

/// Window-view write-back after a listener. A loop over the bound views: a
/// page that never materialised a window view (the §6a click page) pays
/// only the two borrows. A binding writes back only what changed since it
/// was built or last synced, so an older view cannot undo a navigation.
fn sync_views_static(ctx: &DynamicContext, host: &Rc<RefCell<HostState>>) -> XdmResult<()> {
    let mut host = host.borrow_mut();
    let host = &mut *host;
    let store = ctx.store.borrow();
    for view in &mut host.views {
        let _ = window_xml::sync_view(&store, &mut host.browser, view);
    }
    Ok(())
}

/// Builds the `$evt` event node (§4.3.2): an XML element carrying the same
/// information as a DOM Event object.
pub fn build_event_node(ctx: &mut DynamicContext, event: &DomEvent) -> XdmResult<NodeRef> {
    let doc_id = ctx.construction_doc;
    let mut store = ctx.store.borrow_mut();
    let doc = store.doc_mut(doc_id);
    let elem = doc.create_element(QName::local("event"));
    let fields: [(&str, String); 6] = [
        ("type", event.event_type.clone()),
        ("altKey", event.alt_key.to_string()),
        ("ctrlKey", event.ctrl_key.to_string()),
        ("shiftKey", event.shift_key.to_string()),
        ("button", event.button.to_string()),
        ("detail", event.detail.clone()),
    ];
    for (name, value) in fields {
        let f = doc.create_element(QName::local(name));
        doc.append_child(elem, f)
            .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
        if !value.is_empty() {
            let t = doc.create_text(value);
            doc.append_child(f, t)
                .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
        }
    }
    // events may carry a document payload (stale-cache responses): deep-copy
    // it under a <payload> child so listeners read it as $evt/payload/*
    if let Some(p) = event.payload {
        let wrapper = doc.create_element(QName::local("payload"));
        doc.append_child(elem, wrapper)
            .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
        let copy = store.copy_node_between(p, doc_id);
        store
            .doc_mut(doc_id)
            .append_child(wrapper, copy)
            .map_err(|e| XdmError::new("XQIB0006", e.to_string()))?;
    }
    Ok(NodeRef::new(doc_id, elem))
}

/// Resolves a listener name string like `"my:listener"` (the high-order
/// registration path of §5.1) against the calling module's namespaces, as
/// the grammar resolves `attach listener my:listener`; an unbound prefix
/// raises `XPST0081`. The string always names a user listener, so an
/// unprefixed name is in `local:`.
pub fn parse_listener_name(sctx: &StaticContext, name: &str) -> XdmResult<QName> {
    Ok(match name.split_once(':') {
        Some((p, l)) => QName::full(Some(p), Some(sctx.resolve_prefix(p)?), l),
        None => QName::ns(LOCAL_NS, name),
    })
}
