//! # xqib-bench
//!
//! Shared helpers for the benchmark harness. Each bench target regenerates
//! one figure/table of the paper (see DESIGN.md's experiment index) — it
//! first prints the table the paper-shaped experiment produces, then runs
//! Criterion timings for the same workload.

use std::cell::RefCell;
use std::fmt::Display;
use std::rc::Rc;

use xqib_appserver::corpus::{generate_corpus, CorpusSpec};
use xqib_appserver::{migrate, AppServer};
use xqib_browser::net::Response;
use xqib_core::plugin::{Plugin, PluginConfig};

/// A plug-in with `n` buttons, each covered by one XQuery click listener,
/// used by the Figure 1 (event loop) experiment.
pub fn plugin_with_listeners(n: usize) -> Plugin {
    let mut buttons = String::new();
    for i in 0..n {
        buttons.push_str(&format!("<input id=\"b{i}\" type=\"button\"/>"));
    }
    let page = format!(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:onclick($evt, $obj) {{
            replace value of node //span[@id="n"]
            with (number(//span[@id="n"]) + 1)
        }};
        on event "onclick" at //input attach listener local:onclick
        ]]></script></head>
        <body>{buttons}<span id="n">0</span></body></html>"#
    );
    let mut p = Plugin::new(PluginConfig::default());
    p.load_page(&page).expect("bench page loads");
    p
}

/// Criterion defaults tuned so the whole suite stays minutes, not hours.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
        .configure_from_args()
}

/// Builds the migrated-deployment plug-in wired to an app server over the
/// virtual network (Figure 2 experiment fixture).
pub fn migrated_plugin(spec: &CorpusSpec) -> (Plugin, Rc<RefCell<AppServer>>) {
    let xml = generate_corpus(spec);
    let server = Rc::new(RefCell::new(AppServer::new(&xml).expect("server")));
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
        .expect("migrated page loads");
    (plugin, server)
}

/// Prints a Markdown-ish table row (the harness output format).
pub fn row(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
}

/// Writes a virtual-time experiment's report to `file` at the repo root
/// and prints it. The shape is
/// `{ "<group>": { "<arm>": { "<key>": <value>, … }, … } }`, keys and arms
/// in the order given; each value is written as it displays, so it must
/// be a JSON number or boolean.
pub fn write_report<V: Display>(file: &str, group: &str, arms: &[(&str, Vec<(&str, V)>)]) {
    let arms: Vec<String> = arms
        .iter()
        .map(|(arm, fields)| {
            let fields: Vec<String> = fields
                .iter()
                .map(|(key, value)| format!("      \"{key}\": {value}"))
                .collect();
            format!("    \"{arm}\": {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    let json = format!("{{\n  \"{group}\": {{\n{}\n  }}\n}}\n", arms.join(",\n"));
    // cargo runs benches with the package as CWD; the report belongs at
    // the repo root next to the harvested BENCH_*.json files
    let out = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {file}:\n{json}");
}
