//! Top-level compile & execute API.
//!
//! Mirrors the plug-in's processing model (§4.1/Figure 1): compile the
//! script (prolog + body program) and lower it (`plan::lower`); executing
//! the plan runs the prolog's declarations and the body statements
//! (registering listeners, updating the page) and applies the pending
//! updates; the browser later re-enters through `exec::invoke` when it
//! dispatches an event to a registered listener. With the dev-only
//! `oracle` feature, `CompiledQuery::execute` and `invoke` run the same
//! program on the AST oracle.

use std::collections::HashMap;
use std::rc::Rc;

use xqib_xdm::{Item, Sequence, XdmResult};

use crate::ast::{LibraryModule, MainModule};
use crate::context::{DynamicContext, StaticContext};
use crate::parser;
use crate::plan::lower;

/// A registry of library modules (paper §3.4: modules double as web-service
/// endpoints; the app server and the plug-in both register modules here).
#[derive(Default, Clone)]
pub struct ModuleRegistry {
    modules: HashMap<String, Rc<LibraryModule>>,
    /// FNV hash of each module's source, for the plan-cache fingerprint.
    source_hashes: std::collections::BTreeMap<String, u64>,
}

impl ModuleRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and registers a library module; returns its namespace URI.
    pub fn register_source(&mut self, src: &str) -> XdmResult<String> {
        let module = parser::parse_library(src)?;
        let uri = module.uri.clone();
        self.source_hashes
            .insert(uri.clone(), crate::plancache::hash_bytes(src.as_bytes()));
        self.modules.insert(uri.clone(), Rc::new(module));
        Ok(uri)
    }

    pub fn get(&self, uri: &str) -> Option<Rc<LibraryModule>> {
        self.modules.get(uri).cloned()
    }

    /// Deterministic digest of the registry's contents — every URI and
    /// the hash of the source registered under it, in URI order. Part of
    /// the plan-cache key: a compiled plan bakes in the imported function
    /// declarations, so it must not outlive them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::plancache::hash_bytes(b"modules");
        for (uri, src_hash) in &self.source_hashes {
            h = crate::plancache::mix(h, crate::plancache::hash_bytes(uri.as_bytes()));
            h = crate::plancache::mix(h, *src_hash);
        }
        h
    }
}

/// A compiled query: parsed module plus resolved static context.
pub struct CompiledQuery {
    pub module: MainModule,
    pub sctx: Rc<StaticContext>,
}

/// Compiles a main module with no imports.
pub fn compile(src: &str) -> XdmResult<CompiledQuery> {
    compile_with(src, &ModuleRegistry::new(), false)
}

/// Compiles a main module, resolving `import module` against the registry.
/// `browser_profile` enables the §4.2.1 security restrictions.
pub fn compile_with(
    src: &str,
    registry: &ModuleRegistry,
    browser_profile: bool,
) -> XdmResult<CompiledQuery> {
    let module = parser::parse_main(src)?;
    let mut sctx = StaticContext {
        browser_profile,
        ..Default::default()
    };
    // import modules (transitively flat: imported modules may not import)
    for import in &module.prolog.module_imports {
        if let Some(lib) = registry.get(&import.uri) {
            for f in &lib.prolog.functions {
                sctx.declare_function(f.clone());
            }
        }
        // unresolvable imports are allowed if every call resolves to a
        // native function at runtime (web-service stubs) — XPST0017 is
        // raised lazily otherwise.
    }
    for f in &module.prolog.functions {
        sctx.declare_function(f.clone());
    }
    sctx.namespaces = module.prolog.namespaces.clone();
    sctx.options = module.prolog.options.clone();
    Ok(CompiledQuery {
        module,
        sctx: Rc::new(sctx),
    })
}

/// The AST oracle's entry points.
#[cfg(any(test, feature = "oracle"))]
impl CompiledQuery {
    /// Runs the prolog's global variable declarations.
    pub fn init_globals(&self, ctx: &mut DynamicContext) -> XdmResult<()> {
        for var in &self.module.prolog.variables {
            if let Some(init) = &var.init {
                let v = crate::eval::eval_expr(ctx, init)?;
                ctx.bind_global(var.name.clone(), v);
            } else if ctx.lookup_var(&var.name).is_none() {
                return Err(xqib_xdm::XdmError::undefined(format!(
                    "external variable ${} was not provided",
                    var.name
                )));
            }
        }
        Ok(())
    }

    /// Executes the whole program: globals, body statements (with scripting
    /// visibility between statements), final update application. Returns the
    /// value of the last statement.
    pub fn execute(&self, ctx: &mut DynamicContext) -> XdmResult<Sequence> {
        use crate::eval;
        self.init_globals(ctx)?;
        let result = eval::eval_statements(ctx, &self.module.body);
        let result = match result {
            Err(e) if e.code == eval::EXIT_CODE => Ok(ctx.exit_value.take().unwrap_or_default()),
            other => other,
        }?;
        eval::apply_pending(ctx)?;
        Ok(result)
    }
}

/// Convenience: compile, lower and execute against a fresh context built on
/// `store`.
pub fn run_query(src: &str, store: xqib_dom::SharedStore) -> XdmResult<(Sequence, DynamicContext)> {
    let plan = lower(&compile(src)?);
    let mut ctx = DynamicContext::new(store, plan.static_context().clone());
    let r = plan.execute(&mut ctx)?;
    Ok((r, ctx))
}

/// Convenience for tests: run a query and render the result sequence as a
/// whitespace-joined string (nodes serialise to markup).
pub fn run_to_string(src: &str, store: xqib_dom::SharedStore) -> XdmResult<String> {
    let (seq, ctx) = run_query(src, store)?;
    Ok(render_sequence(&ctx, &seq))
}

/// Renders a sequence for display: atomics via their lexical form, nodes as
/// serialised markup.
pub fn render_sequence(ctx: &DynamicContext, seq: &Sequence) -> String {
    render_sequence_with(ctx, seq, |s| s)
}

/// [`render_sequence`] with each atomic's lexical form passed through
/// `atomic` first (an escape, where the rendering is embedded in markup).
pub fn render_sequence_with(
    ctx: &DynamicContext,
    seq: &Sequence,
    atomic: impl Fn(String) -> String,
) -> String {
    let store = ctx.store.borrow();
    seq.iter()
        .map(|i| match i {
            Item::Atomic(a) => atomic(a.string_value()),
            Item::Node(n) => xqib_dom::serialize::serialize_node(store.doc(n.doc), n.node),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Invokes a (listener) function by name on the AST oracle — the reference
/// for the plug-in's [`crate::exec::invoke`]. Pending updates raised by the
/// listener are applied before returning.
#[cfg(any(test, feature = "oracle"))]
pub fn invoke(
    ctx: &mut DynamicContext,
    name: &xqib_dom::QName,
    args: Vec<Sequence>,
) -> XdmResult<Sequence> {
    crate::eval::invoke_with(ctx, name, args, crate::eval::interpret_body)
}
