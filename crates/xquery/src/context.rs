//! Static and dynamic evaluation contexts.
//!
//! Per §3.1 of the paper: "an XQuery expression is evaluated in a context.
//! The context contains functions, namespaces, schemas, and variable
//! bindings. … Extending the context with new browser-specific namespace,
//! schema, and function definitions is an important part of integrating
//! XQuery into the Web browser." The [`DynamicContext::natives`] registry
//! and the [`EngineHooks`] trait are exactly that extension point: the XQIB
//! plug-in (crate `xqib-core`) registers the `browser:` function library and
//! the event/CSS bridges there.

use std::collections::HashMap;
use std::rc::Rc;

use xqib_dom::name::{BROWSER_NS, FN_NS, LOCAL_NS, XML_NS, XS_NS};
use xqib_dom::{DocId, QName, SharedStore, Store};
use xqib_xdm::{Item, Sequence, XdmError, XdmResult};

use crate::ast::FunctionDecl;
use crate::plan::ExprPlan;
use crate::pul::Pul;

/// Signature of a native (host-provided) function.
pub type NativeFn = Rc<dyn Fn(&mut DynamicContext, Vec<Sequence>) -> XdmResult<Sequence>>;

/// Host bridge for the browser grammar extensions. Implemented by the XQIB
/// plug-in; when absent, event expressions raise `XQIB0002` and style
/// expressions fall back to the element's `style` attribute. Targets are
/// passed as evaluated: the host raises the type error for an atomic one.
pub trait EngineHooks {
    /// `on event E at T attach listener Q` (§4.3.1).
    fn attach_listener(&self, event: &str, targets: &[Item], listener: &QName) -> XdmResult<()>;

    /// `on event E at T detach listener Q`.
    fn detach_listener(&self, event: &str, targets: &[Item], listener: &QName) -> XdmResult<()>;

    /// `trigger event E at T` — simulates the user action.
    fn trigger_event(
        &self,
        ctx: &mut DynamicContext,
        event: &str,
        targets: &[Item],
    ) -> XdmResult<()>;

    /// `on event E behind Call attach listener Q` (§4.4): bind the event to
    /// the asynchronous evaluation of `call`, lowered once with the
    /// statement.
    fn attach_behind(
        &self,
        ctx: &mut DynamicContext,
        event: &str,
        call: Rc<ExprPlan>,
        listener: &QName,
    ) -> XdmResult<()>;

    /// `set style P of T to V` (§4.5).
    fn set_style(&self, targets: &[Item], prop: &str, value: &str) -> XdmResult<()>;

    /// `get style P of T`: the property of the first target, if set.
    fn get_style(&self, targets: &[Item], prop: &str) -> XdmResult<Option<String>>;
}

/// The prefixes every module starts with: XQuery's predeclared namespaces
/// plus the browser namespace.
pub const PREDECLARED_NAMESPACES: [(&str, &str); 5] = [
    ("xs", XS_NS),
    ("fn", FN_NS),
    ("local", LOCAL_NS),
    ("browser", BROWSER_NS),
    ("xml", XML_NS),
];

/// The static context: user-declared functions, namespace bindings and
/// compile-time options.
#[derive(Default)]
pub struct StaticContext {
    pub functions: HashMap<(QName, usize), Rc<FunctionDecl>>,
    /// The prolog's namespace bindings (`declare namespace`, `import module
    /// namespace`) in declaration order; see [`Self::resolve_prefix`].
    pub namespaces: Vec<(String, String)>,
    pub options: Vec<(QName, String)>,
    /// The browser security profile (§4.2.1): `fn:doc` resolves only against
    /// documents the plug-in has made available (the page, frames, cached or
    /// REST-fetched XML) — never arbitrary URLs; `fn:put` is blocked.
    pub browser_profile: bool,
}

impl StaticContext {
    /// Declares a function. Any plan the declaration carries is dropped: it
    /// was lowered against another context, whose declarations may shadow
    /// `fn:` names differently (see `plan::lower_functions`).
    pub fn declare_function(&mut self, mut decl: FunctionDecl) {
        decl.plan = None;
        self.functions
            .insert((decl.name.clone(), decl.params.len()), Rc::new(decl));
    }

    pub fn lookup_function(&self, name: &QName, arity: usize) -> Option<Rc<FunctionDecl>> {
        self.functions.get(&(name.clone(), arity)).cloned()
    }

    /// Resolves a prefix as the module's parser did: the last binding in
    /// [`Self::namespaces`], else [`PREDECLARED_NAMESPACES`]. An unbound
    /// prefix raises `XPST0081`.
    pub fn resolve_prefix(&self, prefix: &str) -> XdmResult<&str> {
        let bound = self.namespaces.iter().rev().map(|(p, u)| (&**p, &**u));
        bound
            .chain(PREDECLARED_NAMESPACES)
            .find(|&(p, _)| p == prefix)
            .map(|(_, uri)| uri)
            .ok_or_else(|| {
                XdmError::new(
                    "XPST0081",
                    format!("undeclared namespace prefix `{prefix}`"),
                )
            })
    }
}

/// The focus: context item, position and size.
#[derive(Debug, Clone)]
pub struct Focus {
    pub item: Item,
    pub position: usize,
    pub size: usize,
}

/// The dynamic context threaded through evaluation.
pub struct DynamicContext {
    pub store: SharedStore,
    pub sctx: Rc<StaticContext>,
    /// Global variables: the prolog's, and those bound while no local scope
    /// is open.
    globals: HashMap<QName, Sequence>,
    /// Local bindings of every open scope, innermost last. A scope is a
    /// suffix of this list, so opening and closing one allocates nothing.
    locals: Vec<(QName, Sequence)>,
    /// Start of each open scope in `locals`.
    scopes: Vec<usize>,
    /// Function-call barriers: a lookup never reaches a local below the
    /// last barrier (globals stay visible).
    barriers: Vec<usize>,
    pub focus: Option<Focus>,
    /// The virtual clock (epoch millis) — `fn:current-dateTime` et al. read
    /// this, keeping whole-system runs deterministic.
    pub now_millis: i64,
    /// Pending updates accumulated during evaluation.
    pub pul: Pul,
    /// Browser bridge (events, async, CSS).
    pub hooks: Option<Rc<dyn EngineHooks>>,
    /// Native functions registered by the host (`browser:` library, tests).
    pub natives: HashMap<(QName, usize), NativeFn>,
    /// Where constructed nodes live.
    pub construction_doc: DocId,
    /// Set by `exit with`; consumed by the enclosing function/block.
    pub exit_value: Option<Sequence>,
    /// Recursion guard (call count).
    pub call_depth: usize,
    /// `while` iteration guard (XQSE0001 beyond this many iterations).
    pub loop_guard: u64,
    /// Stack address recorded at context creation; used to bound actual
    /// stack consumption of deep recursion (debug frames are large).
    pub stack_base: usize,
    /// Remaining evaluation fuel. Every expression step charges one unit;
    /// reaching zero raises [`Self::fuel_code`]. `None` disables preemption
    /// (ad-hoc queries, page load). Hosts set a budget per listener
    /// invocation; the server tier sets one per request deadline.
    pub fuel: Option<u64>,
    /// Units charged since the fuel budget was last (re)set.
    pub fuel_used: u64,
    /// Error code raised on fuel exhaustion: `XQIB0011` for a host's
    /// listener budget (the default), `XQIB0014` when the budget encodes a
    /// request deadline (see [`Self::set_deadline_fuel`]).
    pub fuel_code: &'static str,
    /// When set, committing a pending update list is a point of no return:
    /// `apply_pending` clears the fuel budget before the first non-empty
    /// apply, so a deadline can only kill a request that has not mutated
    /// anything yet — a deadline-killed request has exactly zero applied
    /// (and zero journaled) effects.
    pub fuel_commit_exempt: bool,
    /// Redo-log sink: when set, every successfully applied PUL is wire-
    /// encoded (against the pre-apply store) and pushed here, in apply
    /// order. The durable `XmlDb` drains this into its write-ahead log.
    pub pul_journal: Option<Rc<std::cell::RefCell<Vec<Vec<u8>>>>>,
}

/// A restore point for the parts of the dynamic context a panicking or
/// erroring listener can leave inconsistent (scope/barrier stacks, call
/// depth, focus). Captured before each isolated listener invocation and
/// replayed by the host when the listener does not return normally.
#[derive(Debug, Clone)]
pub struct CtxCheckpoint {
    locals_len: usize,
    scopes_len: usize,
    barriers_len: usize,
    call_depth: usize,
    focus: Option<Focus>,
}

/// Approximate current stack pointer (stacks grow downward on all supported
/// targets).
#[inline(never)]
pub fn approx_stack_ptr() -> usize {
    let probe = 0u8;
    &probe as *const u8 as usize
}

impl DynamicContext {
    /// A context that constructs into a new document of its own.
    pub fn new(store: SharedStore, sctx: Rc<StaticContext>) -> Self {
        let construction_doc = store.borrow_mut().new_document(None);
        Self::constructing_into(store, sctx, construction_doc)
    }

    /// A context that constructs into `construction_doc`, a document the
    /// host owns and outlives the context with: a server request's
    /// scratch document, an interpreter's one document for its lifetime.
    pub fn constructing_into(
        store: SharedStore,
        sctx: Rc<StaticContext>,
        construction_doc: DocId,
    ) -> Self {
        DynamicContext {
            store,
            sctx,
            globals: HashMap::new(),
            locals: Vec::new(),
            scopes: Vec::new(),
            barriers: Vec::new(),
            focus: None,
            now_millis: 1_240_214_400_000, // 2009-04-20T08:00:00, WWW'09 week
            pul: Pul::new(),
            hooks: None,
            natives: HashMap::new(),
            construction_doc,
            exit_value: None,
            call_depth: 0,
            loop_guard: 10_000_000,
            stack_base: approx_stack_ptr(),
            fuel: None,
            fuel_used: 0,
            fuel_code: "XQIB0011",
            fuel_commit_exempt: false,
            pul_journal: None,
        }
    }

    /// Installs (or clears) the preemption budget and resets the usage
    /// counter. Called by the host once per listener invocation.
    pub fn set_fuel(&mut self, budget: Option<u64>) {
        self.fuel = budget;
        self.fuel_used = 0;
        self.fuel_code = "XQIB0011";
    }

    /// Installs a *deadline* budget: the same preemption mechanism as
    /// [`Self::set_fuel`], but exhaustion raises `XQIB0014` ("deadline
    /// exceeded") so hosts can distinguish a request that ran out of its
    /// per-request deadline from a listener that ran out of its fuel
    /// allowance. The server tier converts the milliseconds remaining until
    /// a request's deadline into fuel units before evaluation.
    pub fn set_deadline_fuel(&mut self, budget: u64) {
        self.fuel = Some(budget);
        self.fuel_used = 0;
        self.fuel_code = "XQIB0014";
    }

    /// Charges `n` fuel units, raising [`Self::fuel_code`] once the budget
    /// is spent. Free when no budget is installed.
    #[inline]
    pub fn charge_fuel(&mut self, n: u64) -> XdmResult<()> {
        self.fuel_used += n;
        if let Some(fuel) = self.fuel.as_mut() {
            if *fuel < n {
                self.fuel = Some(0);
                let what = if self.fuel_code == "XQIB0014" {
                    "request deadline exceeded"
                } else {
                    "evaluation fuel exhausted"
                };
                return Err(XdmError::new(
                    self.fuel_code,
                    format!("{what} after {} steps", self.fuel_used),
                ));
            }
            *fuel -= n;
        }
        Ok(())
    }

    /// Charges `n` units exactly as `n` single-unit charges would: on
    /// exhaustion `fuel_used` stops one unit past the budget, where the
    /// single charges would have stopped. For a skipped walk standing in
    /// for the visits it no longer makes.
    pub fn charge_fuel_each(&mut self, n: u64) -> XdmResult<()> {
        match self.fuel {
            Some(left) if left < n => self.charge_fuel(left + 1),
            _ => self.charge_fuel(n),
        }
    }

    /// Captures the scope/barrier/focus state for later [`Self::restore`].
    pub fn checkpoint(&self) -> CtxCheckpoint {
        CtxCheckpoint {
            locals_len: self.locals.len(),
            scopes_len: self.scopes.len(),
            barriers_len: self.barriers.len(),
            call_depth: self.call_depth,
            focus: self.focus.clone(),
        }
    }

    /// Rewinds the context to a checkpoint taken earlier on the same
    /// context: scopes and barriers pushed since are dropped, call depth and
    /// focus are restored. Used to repair state after a listener panicked or
    /// errored mid-evaluation.
    pub fn restore(&mut self, cp: &CtxCheckpoint) {
        self.locals.truncate(cp.locals_len);
        self.scopes.truncate(cp.scopes_len);
        self.barriers.truncate(cp.barriers_len);
        self.call_depth = cp.call_depth;
        self.focus = cp.focus.clone();
        self.exit_value = None;
    }

    /// Re-anchors the stack guard to the current thread position. Hosts that
    /// re-enter the engine from deep native frames (event dispatch) call this
    /// before invoking listeners.
    pub fn reset_stack_base(&mut self) {
        self.stack_base = approx_stack_ptr();
    }

    /// Immutable access to the store for the duration of a closure.
    pub fn with_store<R>(&self, f: impl FnOnce(&Store) -> R) -> R {
        f(&self.store.borrow())
    }

    // ----- variables --------------------------------------------------------

    /// Binds a variable in the innermost scope (the globals when no local
    /// scope is open), replacing a binding of the same name there.
    pub fn bind_var(&mut self, name: QName, value: Sequence) {
        let Some(&start) = self.scopes.last() else {
            self.globals.insert(name, value);
            return;
        };
        match self.locals[start..].iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => slot.1 = value,
            None => self.locals.push((name, value)),
        }
    }

    /// Binds a global variable.
    pub fn bind_global(&mut self, name: QName, value: Sequence) {
        self.globals.insert(name, value);
    }

    /// The locals visible from here: everything above the last barrier.
    fn visible_locals(&self) -> &[(QName, Sequence)] {
        &self.locals[self.barriers.last().copied().unwrap_or(0)..]
    }

    /// Looks a variable up, respecting function-call barriers.
    pub fn lookup_var(&self, name: &QName) -> Option<&Sequence> {
        match self.visible_locals().iter().rev().find(|(k, _)| k == name) {
            Some((_, v)) => Some(v),
            // barrier frames still see globals
            None => self.globals.get(name),
        }
    }

    /// Re-assigns an existing variable (scripting `set $x := …`); searches
    /// visible scopes, erroring if the variable was never declared.
    pub fn assign_var(&mut self, name: &QName, value: Sequence) -> XdmResult<()> {
        let floor = self.barriers.last().copied().unwrap_or(0);
        let slot = match self.locals[floor..]
            .iter_mut()
            .rev()
            .find(|(k, _)| k == name)
        {
            Some((_, v)) => v,
            None => self.globals.get_mut(name).ok_or_else(|| {
                XdmError::undefined(format!("cannot assign to undeclared variable ${name}"))
            })?,
        };
        *slot = value;
        Ok(())
    }

    /// Snapshot of every variable binding currently visible — used by the
    /// `behind` construct (§4.4) to capture the environment of an
    /// asynchronous call before queuing it on the event loop.
    pub fn snapshot_visible_vars(&self) -> Vec<(QName, Sequence)> {
        let mut out: Vec<(QName, Sequence)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let locals = self.visible_locals().iter().rev().map(|(k, v)| (k, v));
        for (k, v) in locals.chain(&self.globals) {
            if seen.insert(k.clone()) {
                out.push((k.clone(), v.clone()));
            }
        }
        out
    }

    pub fn push_scope(&mut self) {
        self.scopes.push(self.locals.len());
    }

    pub fn pop_scope(&mut self) {
        let start = self.scopes.pop().expect("cannot pop the global scope");
        self.locals.truncate(start);
    }

    /// Enters a function body: fresh scope invisible to caller locals.
    pub fn push_function_frame(&mut self) {
        self.push_scope();
        self.barriers.push(self.locals.len());
    }

    pub fn pop_function_frame(&mut self) {
        self.barriers.pop();
        self.pop_scope();
    }

    // ----- focus ------------------------------------------------------------

    /// Runs `f` with the given focus, restoring the previous one after.
    pub fn with_focus<R>(
        &mut self,
        item: Item,
        position: usize,
        size: usize,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let saved = self.focus.take();
        self.focus = Some(Focus {
            item,
            position,
            size,
        });
        let r = f(self);
        self.focus = saved;
        r
    }

    pub fn context_item(&self) -> XdmResult<Item> {
        self.focus
            .as_ref()
            .map(|f| f.item.clone())
            .ok_or_else(|| XdmError::undefined("the context item is undefined"))
    }

    // ----- natives ----------------------------------------------------------

    /// Registers a native function (the plug-in's `browser:` library).
    /// The `fn:` namespace is reserved for built-ins: the plan tier
    /// resolves unshadowed `fn:` calls at lowering, past any native.
    pub fn register_native(&mut self, name: QName, arity: usize, f: NativeFn) {
        debug_assert_ne!(
            name.ns.as_deref(),
            Some(xqib_dom::name::FN_NS),
            "natives may not register under fn:"
        );
        self.natives.insert((name, arity), f);
    }

    pub fn lookup_native(&self, name: &QName, arity: usize) -> Option<NativeFn> {
        self.natives.get(&(name.clone(), arity)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqib_dom::store::shared_store;

    fn ctx() -> DynamicContext {
        DynamicContext::new(shared_store(), Rc::new(StaticContext::default()))
    }

    #[test]
    fn scoped_binding_and_shadowing() {
        let mut c = ctx();
        let x = QName::local("x");
        c.bind_global(x.clone(), vec![Item::integer(1)]);
        c.push_scope();
        c.bind_var(x.clone(), vec![Item::integer(2)]);
        assert_eq!(c.lookup_var(&x).unwrap().len(), 1);
        assert_eq!(
            c.lookup_var(&x).unwrap()[0]
                .as_atomic()
                .unwrap()
                .string_value(),
            "2"
        );
        c.pop_scope();
        assert_eq!(
            c.lookup_var(&x).unwrap()[0]
                .as_atomic()
                .unwrap()
                .string_value(),
            "1"
        );
    }

    #[test]
    fn function_frames_hide_caller_locals_but_see_globals() {
        let mut c = ctx();
        let g = QName::local("g");
        let l = QName::local("l");
        c.bind_global(g.clone(), vec![Item::integer(42)]);
        c.push_scope();
        c.bind_var(l.clone(), vec![Item::integer(7)]);
        c.push_function_frame();
        assert!(c.lookup_var(&l).is_none(), "caller locals are hidden");
        assert!(c.lookup_var(&g).is_some(), "globals remain visible");
        c.pop_function_frame();
        assert!(c.lookup_var(&l).is_some());
        c.pop_scope();
    }

    #[test]
    fn assign_updates_existing_binding() {
        let mut c = ctx();
        let x = QName::local("x");
        c.push_scope();
        c.bind_var(x.clone(), vec![]);
        c.assign_var(&x, vec![Item::integer(9)]).unwrap();
        assert_eq!(
            c.lookup_var(&x).unwrap()[0]
                .as_atomic()
                .unwrap()
                .string_value(),
            "9"
        );
        let y = QName::local("y");
        assert!(c.assign_var(&y, vec![]).is_err());
    }

    #[test]
    fn focus_save_restore() {
        let mut c = ctx();
        assert!(c.context_item().is_err());
        let r = c.with_focus(Item::integer(5), 2, 10, |c| {
            let f = c.focus.as_ref().unwrap();
            (f.position, f.size)
        });
        assert_eq!(r, (2, 10));
        assert!(c.focus.is_none());
    }
}
