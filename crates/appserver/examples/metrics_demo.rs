//! Serves a few requests against a generated corpus and prints the
//! per-server `/metrics` counters, including the document-order engine
//! counters.
//!
//!     cargo run -p xqib-appserver --example metrics_demo [-- <url>...]

use xqib_appserver::{generate_corpus, AppServer, CorpusSpec};

fn main() {
    let corpus = generate_corpus(&CorpusSpec::default());
    let mut server = AppServer::new(&corpus).expect("corpus should parse");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let urls: Vec<&str> = if args.is_empty() {
        vec!["/index", "/page?article=j0-v0-i0-a0", "/search?q=protocol"]
    } else {
        args.iter().map(String::as_str).collect()
    };

    for url in urls {
        let resp = server.handle(url);
        if resp.body.len() <= 120 {
            println!("{} {} -> {}", resp.status, url, resp.body);
        } else {
            println!("{} {} ({} bytes)", resp.status, url, resp.body.len());
        }
    }

    server.metrics_snapshot().visit(&mut |name, value| {
        if value > 0 {
            println!("{name:<22}{value}");
        }
    });
}
