//! Listeners on the compiled tier, with the AST interpreter as the oracle:
//! the §6a click page (a click listener records the article, a `behind`
//! fetch's readyState-4 listener rebuilds the reference table) is lowered
//! once by `load_page`, and a run of seeded clicks through the plug-in's
//! own dispatch must leave the page byte-identical to a twin whose
//! listeners are invoked on the interpreter.
//!
//! Deterministic CI matrix hook: `XQIB_PLAN_SEED` is mixed into the click
//! and corpus seed, like the plan differential suite it runs beside.

use xqib_browser::events::DomEvent;
use xqib_browser::net::Response;
use xqib_core::plugin::{build_event_node, Plugin, PluginConfig};
use xqib_dom::{name::LOCAL_NS, QName};
use xqib_xdm::Item;
use xqib_xquery::runtime;

fn env_seed() -> u64 {
    std::env::var("XQIB_PLAN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64, as in the other seeded suites.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

const CORPUS_URL: &str = "http://corpus.test/corpus.xml";
const CLICKS: usize = 300;

/// Articles with a seeded number of references each (some none).
fn corpus(rng: &mut Rng, ids: &[String]) -> String {
    let mut xml = String::from("<corpus><journal>");
    for id in ids {
        xml.push_str(&format!(
            r#"<article id="{id}"><title>{id}</title><references>"#
        ));
        for r in 0..rng.below(5) {
            xml.push_str(&format!(
                "<reference><cited>{id}-c{r}</cited><year>{}</year></reference>",
                1990 + rng.below(30)
            ));
        }
        xml.push_str("</references></article>");
    }
    xml.push_str("</journal></corpus>");
    xml
}

/// The §6a client page of the plug-in benchmark: one link per article.
fn click_page(ids: &[String]) -> String {
    let links: String = ids
        .iter()
        .map(|id| {
            format!(r#"<li><a class="article" id="a-{id}" data-article="{id}">{id}</a></li>"#)
        })
        .collect();
    format!(
        r#"<html><head><title>Reference 2.0 (plug-in)</title>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onClick($evt, $obj) {{
  replace value of node //span[@id="target"] with string($obj/@data-article)
}};
declare updating function local:onDoc($readyState, $result) {{
  if ($readyState eq 4)
  then
    let $id := string(//span[@id="target"])
    let $a := $result//article[@id = $id]
    return {{
      delete node //table[@id="refs"],
      insert node <table id="refs" data-article="{{data($a/@id)}}">{{
        for $r in $a/references/reference
        order by number($r/year)
        return <tr><td>{{data($r/cited)}}</td><td>{{data($r/year)}}</td></tr>
      }}</table> into //div[@id="content"],
      replace value of node //span[@id="refcount"]
        with string(count($a/references/reference))
    }}
  else ()
}};
on event "onclick" at //a[@class="article"] attach listener local:onClick
]]></script></head>
<body><ul id="articles">{links}</ul>
<div id="content"><span id="target"/><span id="refcount"/><table id="refs"/></div></body></html>"#
    )
}

fn plugin(corpus: &str, links: &[String]) -> Plugin {
    let mut p = Plugin::new(PluginConfig::default());
    let body = corpus.to_string();
    p.host
        .borrow_mut()
        .net
        .register("http://corpus.test/", 5, move |_req| {
            Response::ok(body.clone())
        });
    p.load_page(&click_page(links)).expect("click page loads");
    p
}

/// Article ids: the corpus holds all but the last two links, whose
/// readyState-4 listener finds no article.
fn fixture() -> (String, Vec<String>) {
    let mut rng = Rng(0xC11C_4A6E ^ env_seed());
    let links: Vec<String> = (0..26).map(|i| format!("art-{i}")).collect();
    (corpus(&mut rng, &links[..24]), links)
}

#[test]
fn click_page_listeners_lower_without_fallbacks() {
    let (corpus, links) = fixture();
    let p = plugin(&corpus, &links);
    let functions = &p.ctx.sctx.functions;
    assert_eq!(functions.len(), 2);
    for decl in functions.values() {
        assert!(decl.plan.is_some(), "{} is lowered by load_page", decl.name);
    }
}

#[test]
fn compiled_clicks_match_an_interpreter_dispatched_twin() {
    let (corpus, links) = fixture();
    let mut rng = Rng(0x7A1E_5EED ^ env_seed());
    let mut compiled = plugin(&corpus, &links);
    let mut twin = plugin(&corpus, &links);
    let on_click = QName::ns(LOCAL_NS, "onClick");
    let on_doc = QName::ns(LOCAL_NS, "onDoc");
    let behind = format!(
        r#"on event "stateChanged" behind browser:httpGet("{CORPUS_URL}") attach listener local:onDoc"#
    );
    for i in 0..CLICKS {
        let id = &links[rng.below(links.len() as u64) as usize];
        let link = format!("a-{id}");

        // the plug-in's own path: dispatch, `behind` task, readyState 1 and 4
        compiled.click_id(&link).expect("click");
        compiled.eval(&behind).expect("behind");
        compiled.run_until_idle().expect("drain");

        // the twin: the same listeners, invoked on the interpreter
        twin.ctx.reset_stack_base();
        let target = twin.element_by_id(&link).expect("link exists");
        let evt =
            build_event_node(&mut twin.ctx, &DomEvent::new("onclick", target)).expect("event node");
        let args = vec![vec![Item::Node(evt)], vec![Item::Node(target)]];
        runtime::invoke(&mut twin.ctx, &on_click, args).expect("onClick");
        let loading = vec![vec![Item::integer(1)], vec![]];
        runtime::invoke(&mut twin.ctx, &on_doc, loading).expect("onDoc(1)");
        let result = twin
            .eval(&format!("browser:httpGet('{CORPUS_URL}')"))
            .expect("fetch");
        let done = vec![vec![Item::integer(4)], result];
        runtime::invoke(&mut twin.ctx, &on_doc, done).expect("onDoc(4)");

        assert_eq!(
            compiled.serialize_page(),
            twin.serialize_page(),
            "click {i} on {id}"
        );
    }
    assert!(
        compiled
            .serialize_page()
            .contains(r#"<table id="refs" data-article="#),
        "the readyState-4 listener rebuilt the table"
    );
    let stats = compiled.host.borrow().quarantine.stats.clone();
    assert_eq!(stats.listener_errors + stats.listener_panics, 0);
}
