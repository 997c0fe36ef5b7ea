//! Compiled-pipeline benchmarks: what the plan IR, streaming evaluator,
//! and plan cache buy over the tree-walking AST oracle (the `interpreted`
//! rows, built with the dev-only `oracle` feature).
//!
//! Five groups:
//!
//! * `plan_render_route` — the §6.1 server's render route end to end:
//!   interpreted (compile + oracle walk per request over the server's
//!   store) vs compiled-cold (cache invalidated every request) vs
//!   compiled-cached. Both compiled rows execute the lowered page on the
//!   streaming executor; the cached row is the headline number — it also
//!   elides the per-request parse + lowering.
//! * `plan_paths` — §7-style path/FLWOR/exists workloads, interpreted vs
//!   compiled, over a 1000-book library.
//! * `plan_early_exit` — `exists(//…)` and fused positional predicates
//!   over 1k- vs 12k-node documents: the streamed cursor should be close
//!   to size-independent while the interpreter scales with the document.
//! * `plan_governed` — the render route under a governor-style deadline
//!   budget, interpreted vs cached-compiled: the capacity delta a governed
//!   server gains from the cache.
//! * `construct` — constructor-heavy plans: the `/page` body and 5×5 and
//!   20×20 nested tables. Each row also prints the nodes its construction
//!   document held when the result was rendered, the nodes built per op.

use std::rc::Rc;

use criterion::{BenchmarkId, Criterion};

use xqib_appserver::corpus::{generate_corpus, CorpusSpec};
use xqib_appserver::{render, AppServer};
use xqib_bench::criterion as crit;
use xqib_dom::store::shared_store;
use xqib_dom::{QName, SharedStore};
use xqib_xdm::{Item, Sequence, XdmResult};
use xqib_xquery::plan::lower;
use xqib_xquery::runtime::{self, render_sequence};
use xqib_xquery::{DynamicContext, StaticContext};

fn library_xml(books: usize) -> String {
    let mut out = String::from("<books>");
    for i in 0..books {
        out.push_str(&format!(
            "<book year=\"{}\"><title>Title {i}</title>\
             <author>Author{}</author><price>{}</price></book>",
            2000 + (i % 10),
            i % 7,
            10 + (i % 90)
        ));
    }
    out.push_str("</books>");
    out
}

fn deep_xml(width: usize, depth: usize, paras: usize) -> String {
    fn rec(out: &mut String, width: usize, depth: usize, paras: usize) {
        if depth == 0 {
            for i in 0..paras {
                out.push_str(&format!("<p>para {i}</p>"));
            }
            return;
        }
        for _ in 0..width {
            out.push_str("<section>");
            rec(out, width, depth - 1, paras);
            out.push_str("</section>");
        }
    }
    let mut out = String::from("<doc>");
    rec(&mut out, width, depth, paras);
    out.push_str("</doc>");
    out
}

fn store_with(uri: &str, xml: &str) -> SharedStore {
    let store = shared_store();
    let doc = xqib_dom::parse_document(xml).unwrap();
    store.borrow_mut().add_document(doc, Some(uri));
    store
}

/// Evaluates `eval` in a context that constructs into a scratch region of
/// `store` and renders its result, then releases the region, as the server
/// releases a request's: every arm runs over a store that does not grow.
/// Returns the rendering and the nodes the construction document held.
fn in_scratch(
    store: &SharedStore,
    sctx: &Rc<StaticContext>,
    eval: impl FnOnce(&mut DynamicContext) -> XdmResult<Sequence>,
) -> (String, usize) {
    let (mark, construction) = store.borrow_mut().open_scratch();
    let mut ctx = DynamicContext::constructing_into(store.clone(), sctx.clone(), construction);
    let out = eval(&mut ctx).unwrap();
    let rendered = render_sequence(&ctx, &out);
    drop(ctx);
    // the document node aside
    let built = store.borrow().doc(construction).len() - 1;
    store.borrow_mut().release_scratch(mark);
    (rendered, built)
}

/// One interpreter evaluation: compile + execute (what the server did per
/// request before the cache).
fn run_interp(src: &str, store: &SharedStore) -> (String, usize) {
    let q = runtime::compile(src).unwrap();
    in_scratch(store, &q.sctx, |ctx| q.execute(ctx))
}

/// One `/page` render on the oracle over the server's store, the way a
/// server answered before the plan cache and the executor: compile and
/// walk the AST per request, under an optional deadline budget.
fn oracle_route(server: &AppServer, article: &str, budget: Option<u64>) -> (String, usize) {
    let q = runtime::compile(render::article_page_prepared()).unwrap();
    in_scratch(&server.db.store, &q.sctx, |ctx| {
        ctx.bind_global(
            QName::local(render::ARTICLE_VAR),
            vec![Item::string(article)],
        );
        if let Some(budget) = budget {
            ctx.set_deadline_fuel(budget);
            ctx.fuel_commit_exempt = true;
        }
        q.execute(ctx)
    })
}

/// One cached-plan evaluation: execute a pre-lowered plan.
fn run_plan(plan: &xqib_xquery::plan::CompiledPlan, store: &SharedStore) -> (String, usize) {
    in_scratch(store, plan.static_context(), |ctx| plan.execute(ctx))
}

/// A `rows`×`cols` table of nested direct constructors.
fn table_query(rows: usize, cols: usize) -> String {
    format!(
        "<table>{{for $i in 1 to {rows} return \
         <tr>{{for $j in 1 to {cols} return <td>{{$i * $j}}</td>}}</tr>}}</table>"
    )
}

fn bench(c: &mut Criterion) {
    let spec = CorpusSpec::default();
    let corpus = generate_corpus(&spec);
    let article = "j0-v0-i0-a1";
    let route = format!("/page?article={article}");

    // ----- the render route, three ways -------------------------------------
    let mut group = c.benchmark_group("plan_render_route");
    {
        let server = AppServer::new(&corpus).expect("server");
        group.bench_function("interpreted", |b| {
            b.iter(|| oracle_route(&server, article, None))
        });
    }
    {
        let mut server = AppServer::new(&corpus).expect("server");
        group.bench_function("compiled_cold", |b| {
            b.iter(|| {
                // a fresh epoch per request: compile + lower every time
                server.db.invalidate_plans();
                let r = server.handle(&route);
                assert_eq!(r.status, 200);
            })
        });
    }
    {
        let mut server = AppServer::new(&corpus).expect("server");
        server.handle(&route); // warm the cache
        group.bench_function("compiled_cached", |b| {
            b.iter(|| {
                let r = server.handle(&route);
                assert_eq!(r.status, 200);
            })
        });
    }
    group.finish();

    // ----- §7-style workloads, interpreted vs compiled ----------------------
    let mut group = c.benchmark_group("plan_paths");
    let store = store_with("lib.xml", &library_xml(1000));
    for (name, q) in [
        ("descendant", "count(doc('lib.xml')//book)"),
        ("attr_eq", "count(doc('lib.xml')//book[@year = '2005'])"),
        (
            "flwor",
            "for $b in doc('lib.xml')//book where $b/@year = '2007' return $b/title",
        ),
        ("exists", "exists(doc('lib.xml')//book[@year = '2003'])"),
    ] {
        group.bench_with_input(BenchmarkId::new("interpreted", name), &name, |b, _| {
            b.iter(|| run_interp(q, &store))
        });
        let plan = lower(&runtime::compile(q).unwrap());
        group.bench_with_input(BenchmarkId::new("compiled", name), &name, |b, _| {
            b.iter(|| run_plan(&plan, &store))
        });
    }
    group.finish();

    // ----- early exits: 1k vs 12k nodes -------------------------------------
    let mut group = c.benchmark_group("plan_early_exit");
    for (label, width, depth, paras) in [("1k", 4usize, 3usize, 8usize), ("12k", 6, 4, 8)] {
        let store = store_with("deep.xml", &deep_xml(width, depth, paras));
        for (name, q) in [
            ("exists", "exists(doc('deep.xml')//p)"),
            ("first", "string((doc('deep.xml')//section/p)[1])"),
            (
                "positional",
                "string(doc('deep.xml')/doc/section[1]/section[1]//p[1])",
            ),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("interpreted_{name}"), label),
                &label,
                |b, _| b.iter(|| run_interp(q, &store)),
            );
            let plan = lower(&runtime::compile(q).unwrap());
            group.bench_with_input(
                BenchmarkId::new(format!("compiled_{name}"), label),
                &label,
                |b, _| b.iter(|| run_plan(&plan, &store)),
            );
        }
    }
    group.finish();

    // ----- governed capacity: the render route under a deadline budget ------
    let mut group = c.benchmark_group("plan_governed");
    let budget = 200_000u64;
    {
        let server = AppServer::new(&corpus).expect("server");
        group.bench_function("interpreted", |b| {
            b.iter(|| oracle_route(&server, article, Some(budget)))
        });
    }
    {
        let mut server = AppServer::new(&corpus).expect("server");
        server.handle(&route);
        group.bench_function("compiled_cached", |b| {
            b.iter(|| {
                let (r, _fuel) = server.handle_budgeted(&route, Some(budget));
                assert_eq!(r.status, 200);
            })
        });
    }
    group.finish();

    // ----- construction: time and nodes built per op -----------------------
    let mut group = c.benchmark_group("construct");
    {
        let server = AppServer::new(&corpus).expect("server");
        let store = &server.db.store;
        let plan = lower(&runtime::compile(render::article_page_prepared()).unwrap());
        let page = || {
            in_scratch(store, plan.static_context(), |ctx| {
                ctx.bind_global(
                    QName::local(render::ARTICLE_VAR),
                    vec![Item::string(article)],
                );
                plan.execute(ctx)
            })
        };
        group.bench_function("page", |b| b.iter(page));
        println!(
            "{:<64} {:>14} nodes built per op",
            "construct/page",
            page().1
        );
        for (rows, cols) in [(5, 5), (20, 20)] {
            let plan = lower(&runtime::compile(&table_query(rows, cols)).unwrap());
            let id = format!("table_{rows}x{cols}");
            group.bench_function(id.as_str(), |b| b.iter(|| run_plan(&plan, store)));
            let built = run_plan(&plan, store).1;
            println!(
                "{:<64} {built:>14} nodes built per op",
                format!("construct/{id}")
            );
        }
    }
    group.finish();
}

fn main() {
    let mut c = crit();
    bench(&mut c);
    c.final_summary();
}
