//! Experiment E8 (ablation): the paper's grammar extension
//! (`on event … attach listener`) vs the high-order-function registration
//! (`browser:addEventListener`) that the real Zorba-based plug-in had to
//! ship (§5.1). Also `set style` syntax vs `browser:setStyle`, and the
//! `style`-attribute fallback an engine without plug-in hooks takes.

use std::rc::Rc;

use criterion::{BenchmarkId, Criterion};

use xqib_bench::{criterion as crit, row};
use xqib_core::plugin::{Plugin, PluginConfig};
use xqib_xdm::Item;
use xqib_xquery::context::{DynamicContext, Focus, StaticContext};
use xqib_xquery::plan::lower;
use xqib_xquery::runtime;

fn page_with_buttons(n: usize) -> String {
    let mut buttons = String::new();
    for i in 0..n {
        buttons.push_str(&format!("<input id=\"b{i}\"/>"));
    }
    format!(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:l($evt, $obj) {{ () }};
        1
        ]]></script></head><body>{buttons}</body></html>"#
    )
}

fn print_table() {
    println!("\n== E8 ablation: grammar extension vs high-order functions (§5.1) ==");
    row(&["registrations", "path", "listeners registered"]);
    for n in [100usize, 1000] {
        let mut p = Plugin::new(PluginConfig::default());
        p.load_page(&page_with_buttons(n)).expect("page");
        p.eval("on event \"onclick\" at //input attach listener local:l")
            .expect("syntax attach");
        let syntax_count = p.host.borrow().events.listener_count();
        row(&[&n.to_string(), "syntax", &syntax_count.to_string()]);

        let mut p = Plugin::new(PluginConfig::default());
        p.load_page(&page_with_buttons(n)).expect("page");
        p.eval("browser:addEventListener(//input, \"onclick\", \"local:l\")")
            .expect("hof attach");
        let hof_count = p.host.borrow().events.listener_count();
        row(&[&n.to_string(), "high-order fn", &hof_count.to_string()]);
        assert_eq!(syntax_count, hof_count, "both paths register identically");
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_event_registration");
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("syntax", n), &n, |b, &n| {
            let mut p = Plugin::new(PluginConfig::default());
            p.load_page(&page_with_buttons(n)).expect("page");
            b.iter(|| {
                p.eval("on event \"onclick\" at //input attach listener local:l")
                    .expect("attach");
                p.eval("on event \"onclick\" at //input detach listener local:l")
                    .expect("detach");
            })
        });
        group.bench_with_input(BenchmarkId::new("hof", n), &n, |b, &n| {
            let mut p = Plugin::new(PluginConfig::default());
            p.load_page(&page_with_buttons(n)).expect("page");
            b.iter(|| {
                p.eval("browser:addEventListener(//input, \"onclick\", \"local:l\")")
                    .expect("attach");
                p.eval("browser:removeEventListener(//input, \"onclick\", \"local:l\")")
                    .expect("detach");
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("abl_style_path");
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("set_style_syntax", n), &n, |b, &n| {
            let mut p = Plugin::new(PluginConfig::default());
            p.load_page(&page_with_buttons(n)).expect("page");
            b.iter(|| {
                p.eval("set style \"color\" of //input to \"red\"")
                    .expect("style");
            })
        });
        group.bench_with_input(BenchmarkId::new("setStyle_hof", n), &n, |b, &n| {
            let mut p = Plugin::new(PluginConfig::default());
            p.load_page(&page_with_buttons(n)).expect("page");
            b.iter(|| {
                p.eval("browser:setStyle(//input, \"color\", \"red\")")
                    .expect("style");
            })
        });
        // the style-attribute fallback of a hook-less engine (no plug-in,
        // no CSS store): DOM-write cost
        group.bench_with_input(
            BenchmarkId::new("style_attribute_fallback", n),
            &n,
            |b, &n| {
                let store = xqib_dom::store::shared_store();
                let page = xqib_dom::parse_document(&page_with_buttons(n)).expect("page");
                let doc = store.borrow_mut().add_document(page, None);
                let root = store.borrow().root(doc);
                let mut ctx = DynamicContext::new(store, Rc::new(StaticContext::default()));
                ctx.focus = Some(Focus {
                    item: Item::Node(root),
                    position: 1,
                    size: 1,
                });
                let q = runtime::compile("set style \"color\" of //input to \"red\"");
                let plan = lower(&q.expect("compiles"));
                b.iter(|| {
                    plan.execute(&mut ctx).expect("style");
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
