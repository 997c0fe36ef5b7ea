//! §6.1 / Figure 2 — Elsevier Reference 2.0: server-to-client migration.
//!
//! Runs the same browse session against both deployments and prints the
//! server-side cost of each — the off-loading the migration was for.
//!
//! Run with: `cargo run --example elsevier`

use std::cell::RefCell;
use std::rc::Rc;

use xqib::appserver::corpus::{article_ids, generate_corpus, CorpusSpec};
use xqib::appserver::{migrate, AppServer};
use xqib::browser::net::Response;
use xqib::core::plugin::{Plugin, PluginConfig};

fn main() {
    let spec = CorpusSpec::default();
    let xml = generate_corpus(&spec);
    let ids = article_ids(&spec);
    let session: Vec<&str> = ids.iter().take(12).map(|s| s.as_str()).collect();

    // ----- deployment A: server-rendered ------------------------------------
    let mut server = AppServer::new(&xml).expect("server builds");
    server.handle("/index");
    for id in &session {
        let r = server.handle(&format!("/page?article={id}"));
        assert_eq!(r.status, 200);
    }
    println!(
        "=== server-rendered deployment ({} interactions) ===",
        session.len() + 1
    );
    println!("server requests:      {}", server.metrics.requests);
    println!("server XQuery evals:  {}", server.db.evals);
    println!("bytes over the wire:  {}", server.metrics.bytes_out);

    // ----- deployment B: migrated to the client ------------------------------
    let server = Rc::new(RefCell::new(AppServer::new(&xml).expect("server builds")));
    let mut plugin = Plugin::new(PluginConfig {
        url: format!("{}/app", migrate::SERVER_BASE),
        ..Default::default()
    });
    {
        let server = server.clone();
        plugin
            .host
            .borrow_mut()
            .net
            .register(migrate::SERVER_BASE, 40, move |req| {
                let r = server.borrow_mut().handle(&req.url);
                Response {
                    status: r.status,
                    body: r.body,
                    content_type: "application/xml".into(),
                }
            });
    }
    plugin
        .load_page(&migrate::migrated_page())
        .expect("page loads");
    plugin.eval("local:showIndex()").expect("index renders");
    for id in &session {
        plugin
            .eval(&migrate::interaction(id))
            .expect("article renders");
    }
    println!("\n=== migrated deployment (same session) ===");
    println!("server requests:      {}", server.borrow().metrics.requests);
    println!("server XQuery evals:  {}", server.borrow().db.evals);
    println!(
        "bytes over the wire:  {}",
        server.borrow().metrics.bytes_out
    );
    println!(
        "client cache:         {} documents",
        plugin.store.borrow().doc_count()
    );

    println!("\nlast article rendered client-side:");
    let page = plugin.serialize_page();
    let start = page.find("<div id=\"content\">").unwrap_or(0);
    println!(
        "{}",
        &page[start..start.saturating_add(400).min(page.len())]
    );
}
