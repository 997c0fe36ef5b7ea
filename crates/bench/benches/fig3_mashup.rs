//! Experiment E3 (Figure 3): the mash-up — one click event handled by both
//! JavaScript and XQuery, with XQuery fanning out to S weather services.

use std::cell::RefCell;
use std::rc::Rc;

use criterion::{BenchmarkId, Criterion};

use xqib_bench::{criterion as crit, row};
use xqib_browser::net::Response;
use xqib_core::plugin::{Plugin, PluginConfig};
use xqib_minijs::JsEngine;

fn mashup_page(services: usize) -> String {
    let urls: Vec<String> = (0..services)
        .map(|i| format!("\"http://weather-{i}.example\""))
        .collect();
    format!(
        r#"<html><head>
<script type="text/javascript">
function onSearch(e) {{
    var map = document.createElement("div");
    map.setAttribute("class", "map");
    document.getElementById("mappanel").appendChild(map);
}}
document.getElementById("searchbutton").addEventListener("onclick", onSearch, false);
</script>
<script type="text/xqueryp"><![CDATA[
declare variable $services := ({services_list});
declare updating function local:onSearch($evt, $obj) {{
  let $loc := string(//input[@id="searchbox"]/@value)
  return {{
    delete node //div[@id="weatherpanel"]/*;
    for $s in $services
    return
      insert node <div class="forecast">{{
        data(browser:httpGet(concat($s, "/api?q=", $loc))//summary)
      }}</div>
      into //div[@id="weatherpanel"];
  }}
}};
on event "onclick" at //input[@id="searchbutton"] attach listener local:onSearch
]]></script>
</head><body>
<input id="searchbox" type="text" value="Madrid"/>
<input id="searchbutton" type="button" value="Search"/>
<div id="mappanel"/>
<div id="weatherpanel"/>
</body></html>"#,
        services_list = urls.join(", ")
    )
}

fn build(services: usize) -> (Plugin, Rc<RefCell<JsEngine>>) {
    let mut plugin = Plugin::new(PluginConfig::default());
    {
        let mut host = plugin.host.borrow_mut();
        for i in 0..services {
            host.net
                .register(&format!("http://weather-{i}.example"), 20, move |req| {
                    let loc = req.query_param("q").unwrap_or_default();
                    Response::ok(format!(
                        "<weather><summary>forecast-{i} for {loc}</summary></weather>"
                    ))
                });
        }
    }
    let js_sources = plugin.load_page(&mashup_page(services)).expect("page");
    let engine = Rc::new(RefCell::new(JsEngine::new(
        plugin.store.clone(),
        plugin.page_doc(),
    )));
    engine.borrow_mut().run(&js_sources[0]).expect("JS runs");
    for (target, event_type, f) in engine.borrow_mut().take_registrations() {
        let engine = engine.clone();
        plugin.register_external_listener(target, &event_type, move |ev| {
            engine
                .borrow_mut()
                .dispatch_to(&f, &ev.event_type, ev.target, ev.button)
                .expect("JS listener");
        });
    }
    (plugin, engine)
}

fn print_table() {
    println!("\n== E3 / Figure 3: mash-up fan-out ==");
    row(&[
        "services S",
        "requests per click",
        "forecasts shown",
        "JS maps drawn",
    ]);
    for services in [1usize, 2, 3, 4] {
        let (mut plugin, _engine) = build(services);
        let button = plugin.element_by_id("searchbutton").expect("button");
        plugin.host.borrow_mut().net.stats = Default::default();
        plugin.click(button).expect("dispatch");
        let page = plugin.serialize_page();
        // count only rendered results (the script source also contains the
        // literal markup)
        let panel_start = page.find("<div id=\"weatherpanel\">").unwrap_or(0);
        let panel = &page[panel_start..];
        let forecasts = panel.matches("class=\"forecast\"").count();
        let maps =
            page.matches("class=\"map\"/>").count() + page.matches("class=\"map\"></div>").count();
        let requests = plugin.host.borrow().net.stats.requests;
        row(&[
            &services.to_string(),
            &requests.to_string(),
            &forecasts.to_string(),
            &maps.to_string(),
        ]);
        assert_eq!(forecasts, services);
        assert_eq!(maps, 1);
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_search_click");
    for services in [1usize, 2, 4] {
        let (mut plugin, _engine) = build(services);
        let button = plugin.element_by_id("searchbutton").expect("button");
        group.bench_with_input(
            BenchmarkId::new("click_both_languages", services),
            &services,
            |b, _| {
                b.iter(|| {
                    plugin.click(button).expect("dispatch");
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
