//! End-to-end Figure 2 scenario: Elsevier Reference 2.0, server-rendered
//! vs migrated-to-client deployments, with the caching effect the paper
//! claims ("most user requests can be processed without any interaction
//! with the Elsevier server").

use std::cell::RefCell;
use std::rc::Rc;

use xqib::appserver::corpus::{article_ids, generate_corpus, CorpusSpec};
use xqib::appserver::{migrate, AppServer};
use xqib::browser::net::Response;
use xqib::core::plugin::{Plugin, PluginConfig};

fn corpus_spec() -> CorpusSpec {
    CorpusSpec::default()
}

/// A browse session: the index plus K article views.
fn session_articles(k: usize) -> Vec<String> {
    let ids = article_ids(&corpus_spec());
    (0..k).map(|i| ids[i % ids.len()].clone()).collect()
}

#[test]
fn server_rendered_deployment_costs_one_eval_per_interaction() {
    let xml = generate_corpus(&corpus_spec());
    let mut server = AppServer::new(&xml).unwrap();
    let k = 10;
    let r = server.handle("/index");
    assert_eq!(r.status, 200);
    for id in session_articles(k) {
        let r = server.handle(&format!("/page?article={id}"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("<table id=\"refs\">"));
    }
    assert_eq!(server.metrics.requests as usize, k + 1);
    assert_eq!(server.db.evals as usize, k + 1);
    assert!(server.metrics.bytes_out > 0);
}

/// Wires the app server into a plug-in's virtual network.
fn plugin_with_server() -> (Plugin, Rc<RefCell<AppServer>>) {
    let xml = generate_corpus(&corpus_spec());
    let server = Rc::new(RefCell::new(AppServer::new(&xml).unwrap()));
    let plugin = Plugin::new(PluginConfig {
        url: format!("{}/app", migrate::SERVER_BASE),
        ..Default::default()
    });
    {
        let server = server.clone();
        plugin.host.borrow_mut().net.register(
            migrate::SERVER_BASE,
            40, // simulated WAN round trip
            move |req| {
                let r = server.borrow_mut().handle(&req.url);
                Response {
                    status: r.status,
                    body: r.body,
                    content_type: "application/xml".into(),
                }
            },
        );
    }
    (plugin, server)
}

#[test]
fn migrated_deployment_renders_in_the_browser() {
    let (mut plugin, server) = plugin_with_server();
    plugin.load_page(&migrate::migrated_page()).unwrap();
    plugin.eval(&migrate::interaction("j0-v0-i0-a0")).unwrap();
    let page = plugin.serialize_page();
    assert!(page.contains("<table id=\"refs\">"), "{page}");
    assert!(page.contains("(j0-v0-i0-a0)"));
    assert!(page.contains("<span id=\"refcount\">5</span>"));
    // the server only served the document — it evaluated no XQuery
    assert_eq!(server.borrow().db.evals, 0);
}

#[test]
fn client_cache_eliminates_repeat_round_trips() {
    let (mut plugin, server) = plugin_with_server();
    plugin.load_page(&migrate::migrated_page()).unwrap();
    let k = 10;
    for id in session_articles(k) {
        plugin.eval(&migrate::interaction(&id)).unwrap();
    }
    // one /doc fetch for the whole session; everything else came from the
    // browser-side document cache
    assert_eq!(server.borrow().metrics.requests, 1);
    assert_eq!(server.borrow().db.evals, 0);
    let migrated_bytes = server.borrow().metrics.bytes_out;

    // compare with the server-rendered deployment on the same session
    let xml = generate_corpus(&corpus_spec());
    let mut baseline = AppServer::new(&xml).unwrap();
    baseline.handle("/index");
    for id in session_articles(k) {
        baseline.handle(&format!("/page?article={id}"));
    }
    assert!(
        baseline.metrics.requests > server.borrow().metrics.requests,
        "migration reduces request count ({} vs {})",
        baseline.metrics.requests,
        server.borrow().metrics.requests
    );
    // for long sessions the one-time whole-document transfer amortises:
    // the server-rendered deployment keeps paying per interaction
    let per_interaction = baseline.metrics.bytes_out / (k as u64 + 1);
    assert!(per_interaction > 0);
    // sanity: a whole corpus is bigger than one page, so short sessions
    // favour server rendering on bytes — the crossover the E2 bench plots
    assert!(migrated_bytes > per_interaction);
}

#[test]
fn migrated_page_content_matches_server_rendering() {
    // behavioural equivalence: the client-side render produces the same
    // article content the server-side render did
    let (mut plugin, _server) = plugin_with_server();
    plugin.load_page(&migrate::migrated_page()).unwrap();
    plugin.eval(&migrate::interaction("j1-v2-i1-a3")).unwrap();
    let client_page = plugin.serialize_page();

    let xml = generate_corpus(&corpus_spec());
    let mut server = AppServer::new(&xml).unwrap();
    let server_page = server.handle("/page?article=j1-v2-i1-a3").body;

    // both contain the identical reference table
    let extract_table = |s: &str| -> String {
        let start = s.find("<table id=\"refs\">").expect("table present");
        let end = s[start..].find("</table>").expect("table closed") + start;
        s[start..end + 8].to_string()
    };
    assert_eq!(extract_table(&client_page), extract_table(&server_page));
}

#[test]
fn index_view_works_client_side_too() {
    let (mut plugin, _server) = plugin_with_server();
    plugin.load_page(&migrate::migrated_page()).unwrap();
    plugin.eval("local:showIndex()").unwrap();
    let page = plugin.serialize_page();
    assert!(page.contains("<ul id=\"journals\">"));
    assert_eq!(page.matches("<li ").count(), 2);
}
