//! Experiment E2 (Figure 2): Elsevier Reference 2.0 — server-rendered vs
//! migrated-to-client deployment.
//!
//! Regenerates the figure's claim as a table: server requests, server
//! XQuery evaluations and bytes over the wire per browse session, for
//! session lengths K ∈ {5, 20, 50}, with and without the client-side
//! whole-document cache.

use criterion::{BenchmarkId, Criterion};

use xqib_appserver::corpus::{article_ids, generate_corpus, CorpusSpec};
use xqib_appserver::{migrate, AppServer};
use xqib_bench::{criterion as crit, migrated_plugin, row};

fn spec() -> CorpusSpec {
    CorpusSpec::default()
}

fn session(k: usize) -> Vec<String> {
    let ids = article_ids(&spec());
    (0..k).map(|i| ids[i % ids.len()].clone()).collect()
}

fn print_table() {
    println!("\n== E2 / Figure 2: server-to-client migration ==");
    row(&[
        "deployment",
        "session K",
        "server requests",
        "server XQuery evals",
        "bytes over wire",
    ]);
    let xml = generate_corpus(&spec());
    for k in [5usize, 20, 50] {
        // deployment A: server-rendered
        let mut server = AppServer::new(&xml).expect("server");
        server.handle("/index");
        for id in session(k) {
            server.handle(&format!("/page?article={id}"));
        }
        row(&[
            "server-rendered",
            &k.to_string(),
            &server.metrics.requests.to_string(),
            &server.db.evals.to_string(),
            &server.metrics.bytes_out.to_string(),
        ]);

        // deployment B: migrated with the cache (the paper's design)
        let (mut plugin, server) = migrated_plugin(&spec());
        plugin.eval("local:showIndex()").expect("index");
        for id in session(k) {
            plugin.eval(&migrate::interaction(&id)).expect("article");
        }
        row(&[
            "migrated+cache",
            &k.to_string(),
            &server.borrow().metrics.requests.to_string(),
            &server.borrow().db.evals.to_string(),
            &server.borrow().metrics.bytes_out.to_string(),
        ]);

        // deployment B': migrated but cache disabled (ablation) — every
        // interaction re-fetches the document
        let (mut plugin, server) = migrated_plugin(&spec());
        plugin.eval("local:showIndex()").expect("index");
        for id in session(k) {
            // evict the cached corpus document before each interaction
            let uri = format!("{}/doc?uri=corpus.xml", migrate::SERVER_BASE);
            plugin.store.borrow_mut().unregister_uri(&uri);
            plugin.eval(&migrate::interaction(&id)).expect("article");
        }
        row(&[
            "migrated-nocache",
            &k.to_string(),
            &server.borrow().metrics.requests.to_string(),
            &server.borrow().db.evals.to_string(),
            &server.borrow().metrics.bytes_out.to_string(),
        ]);
    }
    println!(
        "(shape check: migrated+cache needs 1 server request per session; \
         server-rendered needs K+1 and K+1 XQuery evaluations)"
    );
}

fn bench(c: &mut Criterion) {
    let xml = generate_corpus(&spec());
    let ids = article_ids(&spec());

    let mut group = c.benchmark_group("fig2_interaction_cost");
    // server-side render of one article page
    let mut server = AppServer::new(&xml).expect("server");
    group.bench_function("server_rendered_page", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let id = &ids[i % ids.len()];
            i += 1;
            server.handle(&format!("/page?article={id}"));
        })
    });
    // client-side render of one article (cache warm — the common case)
    let (mut plugin, _server) = migrated_plugin(&spec());
    plugin
        .eval(&migrate::interaction(&ids[0]))
        .expect("warm the cache");
    group.bench_function("migrated_client_page_cached", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let id = &ids[i % ids.len()];
            i += 1;
            plugin.eval(&migrate::interaction(id)).expect("render");
        })
    });
    group.finish();

    // scaling with corpus size
    let mut group = c.benchmark_group("fig2_corpus_scaling");
    for journals in [1usize, 2, 4] {
        let spec = CorpusSpec {
            journals,
            ..CorpusSpec::default()
        };
        let (mut plugin, _server) = migrated_plugin(&spec);
        let ids = article_ids(&spec);
        plugin.eval(&migrate::interaction(&ids[0])).expect("warm");
        group.bench_with_input(
            BenchmarkId::new("client_render", journals),
            &journals,
            |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    let id = &ids[i % ids.len()];
                    i += 1;
                    plugin.eval(&migrate::interaction(id)).expect("render");
                })
            },
        );
    }
    group.finish();
}

fn main() {
    print_table();
    let mut c = crit();
    bench(&mut c);
    c.final_summary();
}
