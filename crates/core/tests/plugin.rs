//! Plug-in integration tests: whole pages loaded and driven through the
//! Figure 1 lifecycle.

use xqib_browser::events::DomEvent;
use xqib_browser::net::Response;
use xqib_core::plugin::{Plugin, PluginConfig};
use xqib_core::samples;
use xqib_dom::QName;
use xqib_xdm::Item;
use xqib_xquery::functions::native;
use xqib_xquery::runtime;

fn plugin() -> Plugin {
    Plugin::new(PluginConfig::default())
}

#[test]
fn hello_world_alerts_on_load() {
    let mut p = plugin();
    p.load_page(samples::HELLO_WORLD).unwrap();
    assert_eq!(p.alerts(), vec!["Hello, World!".to_string()]);
}

#[test]
fn script_extraction_ignores_javascript() {
    let mut p = plugin();
    let js = p
        .load_page(
            r#"<html><head>
            <script type="text/javascript">var x = 1;</script>
            <script type="text/xquery">browser:alert("xq ran")</script>
            </head><body/></html>"#,
        )
        .unwrap();
    assert_eq!(js, vec!["var x = 1;".to_string()]);
    assert_eq!(p.alerts().len(), 1);
}

#[test]
fn page_updates_apply_to_live_dom() {
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery">
        insert node <p id="new">inserted</p> into //body[1]
        </script></head><body/></html>"#,
    )
    .unwrap();
    assert!(p.serialize_page().contains("<p id=\"new\">inserted</p>"));
    assert!(p.element_by_id("new").is_some());
}

#[test]
fn click_event_runs_xquery_listener() {
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:onclick($evt, $obj) {
            insert node <li>clicked: {data($evt/type)} button {data($evt/button)}</li>
            into //ul[@id="log"]
        };
        on event "onclick" at //input[@id="b"] attach listener local:onclick
        ]]></script></head>
        <body><input id="b" type="button"/><ul id="log"/></body></html>"#,
    )
    .unwrap();
    let button = p.element_by_id("b").unwrap();
    p.click(button).unwrap();
    p.click(button).unwrap();
    let page = p.serialize_page();
    assert_eq!(page.matches("clicked: onclick button 1").count(), 2);
}

#[test]
fn listener_receives_button_info() {
    // §4.3.2: left vs right mouse button
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:l($evt, $obj) {
            if ($evt/button = 1)
            then insert node <p>left</p> into //body[1]
            else insert node <p>right</p> into //body[1]
        };
        on event "onclick" at //input attach listener local:l
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    p.dispatch(&DomEvent::new("onclick", b).with_button(1))
        .unwrap();
    p.dispatch(&DomEvent::new("onclick", b).with_button(2))
        .unwrap();
    let page = p.serialize_page();
    assert!(page.contains("<p>left</p>"));
    assert!(page.contains("<p>right</p>"));
}

#[test]
fn detach_listener_stops_invocations() {
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:l($evt, $obj) {
            insert node <p>hit</p> into //body[1]
        };
        on event "onclick" at //input attach listener local:l
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    p.click(b).unwrap();
    p.eval("on event \"onclick\" at //input detach listener local:l")
        .unwrap();
    p.click(b).unwrap();
    assert_eq!(p.serialize_page().matches("<p>hit</p>").count(), 1);
}

#[test]
fn trigger_event_simulates_click() {
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:l($evt, $obj) {
            insert node <p>triggered</p> into //body[1]
        };
        on event "onclick" at //input[@id="myButton"] attach listener local:l;
        trigger event "onclick" at //input[@id="myButton"]
        ]]></script></head><body><input id="myButton"/></body></html>"#,
    )
    .unwrap();
    assert!(p.serialize_page().contains("<p>triggered</p>"));
}

#[test]
fn attribute_listener_with_value_binding() {
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:echo($v) {
            replace value of node //span[@id="out"] with $v
        };
        1
        ]]></script></head>
        <body><input id="t" value="" onkeyup="local:echo($value)"/>
        <span id="out"/></body></html>"#,
    )
    .unwrap();
    let input = p.element_by_id("t").unwrap();
    // the host (user typing) updates the value attribute, then fires keyup
    {
        let store = p.store.clone();
        let mut s = store.borrow_mut();
        s.doc_mut(input.doc)
            .set_attribute(input.node, QName::local("value"), "Mad")
            .unwrap();
    }
    p.keyup(input).unwrap();
    assert!(p.serialize_page().contains("<span id=\"out\">Mad</span>"));
}

#[test]
fn hof_registration_works_like_syntax() {
    // §5.1: the Zorba-era workaround via browser:addEventListener
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:l($evt, $obj) {
            insert node <p>hof</p> into //body[1]
        };
        browser:addEventListener(//input, "onclick", "local:l")
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    p.click(b).unwrap();
    assert!(p.serialize_page().contains("<p>hof</p>"));
}

#[test]
fn hof_listener_name_resolves_declared_prefix() {
    // the name string resolves against the module's namespaces, as
    // `attach listener my:l` does at parse time
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare namespace my = "urn:my";
        declare updating function my:l($evt, $obj) {
            insert node <p>prefixed</p> into //body[1]
        };
        browser:addEventListener(//input, "onclick", "my:l")
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    p.click(b).unwrap();
    assert!(p.serialize_page().contains("<p>prefixed</p>"));
    assert_eq!(p.host.borrow().quarantine.stats.listener_errors, 0);
    let err = p
        .eval(r#"browser:addEventListener(//input, "onclick", "nope:l")"#)
        .expect_err("an unbound prefix is a static error");
    assert_eq!(err.code, "XPST0081");
}

#[test]
fn window_view_and_status_writeback() {
    // §4.2.1: replace value of node browser:self()/status with "Welcome"
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery">
        replace value of node browser:self()/status with "Welcome"
        </script></head><body/></html>"#,
    )
    .unwrap();
    let host = p.host.borrow();
    let w = host.page_window;
    assert_eq!(host.browser.window(w).status, "Welcome");
}

#[test]
fn href_writeback_navigates() {
    let mut p = plugin();
    p.load_page("<html><body/></html>").unwrap();
    p.eval(
        r#"replace value of node browser:self()/location/href
           with "http://www.dbis.ethz.ch""#,
    )
    .unwrap();
    let host = p.host.borrow();
    let w = host.page_window;
    assert_eq!(
        host.browser.window(w).location.href,
        "http://www.dbis.ethz.ch"
    );
}

fn href(p: &Plugin) -> String {
    let host = p.host.borrow();
    host.browser.window(host.page_window).location.href.clone()
}

#[test]
fn view_built_before_history_back_does_not_undo_it() {
    let mut p = plugin();
    p.load_page(samples::HELLO_WORLD).unwrap();
    {
        let mut host = p.host.borrow_mut();
        let w = host.page_window;
        host.browser.navigate(w, "http://www.xqib.org/page2");
    }
    // the view holds page2; going back must stick after the write-back
    p.eval("browser:self(), browser:historyBack()").unwrap();
    assert_eq!(href(&p), "http://www.xqib.org/index.html");
}

#[test]
fn older_views_do_not_replay_their_href() {
    let mut p = plugin();
    p.load_page("<html><body/></html>").unwrap();
    p.eval("browser:self()").unwrap();
    p.eval(
        r#"replace value of node browser:self()/location/href
           with "http://www.xqib.org/page2""#,
    )
    .unwrap();
    let history_len = |p: &Plugin| {
        let host = p.host.borrow();
        host.browser.window(host.page_window).history.len()
    };
    assert_eq!(history_len(&p), 2);
    for _ in 0..3 {
        p.eval("1").unwrap();
    }
    assert_eq!(history_len(&p), 2, "a no-op eval navigates nowhere");
    assert_eq!(href(&p), "http://www.xqib.org/page2");
    p.eval("browser:historyBack()").unwrap();
    assert_eq!(href(&p), "http://www.xqib.org/index.html");
}

#[test]
fn navigator_and_screen_accessible() {
    let mut p = plugin();
    p.load_page(samples::HELLO_WORLD).unwrap();
    let out = p.eval("string(browser:navigator()/appName)").unwrap();
    assert_eq!(p.render(&out), "Microsoft Internet Explorer");
    let out = p.eval("number(browser:screen()/height)").unwrap();
    assert_eq!(p.render(&out), "1024");
    // §4.2.4 sniffing sample picks the IE branch
    p.eval(samples::NAVIGATOR_SNIFF_SCRIPT).unwrap();
    assert!(p.alerts().contains(&"You are running IE".to_string()));
}

#[test]
fn frames_visible_by_name_same_origin_only() {
    let mut p = plugin();
    {
        let mut host = p.host.borrow_mut();
        let top = host.browser.top();
        host.browser
            .create_frame(top, "leftframe", "http://www.xqib.org/left");
        host.browser
            .create_frame(top, "evilframe", "http://evil.example/");
    }
    p.load_page(samples::HELLO_WORLD).unwrap();
    let out = p
        .eval("count(browser:top()//window[@name=\"leftframe\"])")
        .unwrap();
    assert_eq!(p.render(&out), "1");
    // the cross-origin frame materialises but exposes nothing
    let out = p
        .eval("count(browser:top()//window[@name=\"evilframe\"])")
        .unwrap();
    assert_eq!(p.render(&out), "0", "cross-origin frame has no name");
    // `//window` from the top element finds *descendant* windows only
    let out = p.eval("count(browser:top()//window)").unwrap();
    assert_eq!(
        p.render(&out),
        "2",
        "both frames materialise as window nodes"
    );
}

#[test]
fn cross_origin_document_is_empty() {
    let mut p = plugin();
    let evil_doc = {
        let mut host = p.host.borrow_mut();
        let top = host.browser.top();
        let evil = host
            .browser
            .create_frame(top, "evil", "http://evil.example/");
        drop(host);
        let doc = xqib_dom::parse_document("<html><body>secret</body></html>").unwrap();
        let id = p.store.borrow_mut().add_document(doc, None);
        p.host.borrow_mut().browser.set_document(evil, id);
        id
    };
    let _ = evil_doc;
    p.load_page(samples::HELLO_WORLD).unwrap();
    let out = p
        .eval("count(browser:document(browser:top()//window[2]))")
        .unwrap();
    assert_eq!(p.render(&out), "0");
}

#[test]
fn fn_doc_blocked_for_unfetched_urls() {
    let mut p = plugin();
    p.load_page(samples::HELLO_WORLD).unwrap();
    let err = p.eval("doc('http://anything.example/x.xml')").unwrap_err();
    assert_eq!(err.code, "XQIB0001");
}

#[test]
fn rest_get_fetches_and_caches() {
    let mut p = plugin();
    p.host
        .borrow_mut()
        .net
        .register("http://data.example/", 15, |_req| {
            Response::ok("<items><item>a</item><item>b</item></items>")
        });
    p.load_page(samples::HELLO_WORLD).unwrap();
    let out = p
        .eval("count(browser:httpGet('http://data.example/items.xml')//item)")
        .unwrap();
    assert_eq!(p.render(&out), "2");
    // second call answers from cache: no new network request
    let before = p.host.borrow().net.stats.requests;
    let out = p
        .eval("count(browser:httpGet('http://data.example/items.xml')//item)")
        .unwrap();
    assert_eq!(p.render(&out), "2");
    assert_eq!(p.host.borrow().net.stats.requests, before);
    // and fn:doc now resolves the cached URL (browser profile)
    let out = p
        .eval("count(doc('http://data.example/items.xml')//item)")
        .unwrap();
    assert_eq!(p.render(&out), "2");
}

#[test]
fn behind_async_call_with_ready_states() {
    // §4.4 suggest page
    let mut config = PluginConfig::default();
    config
        .modules
        .register_source(
            r#"module namespace ab = "http://example.com";
               declare function ab:unused() { () };"#,
        )
        .unwrap();
    let mut p = Plugin::new(config);
    // ab:getHint as a native web-service stub backed by the virtual network
    p.host
        .borrow_mut()
        .net
        .register("http://example.com/", 25, |req| {
            let q = req.query_param("q").unwrap_or_default();
            Response::ok(format!("<hints>{q}ison, {q}ilyn</hints>"))
        });
    {
        let host = p.host.clone();
        p.ctx.register_native(
            QName::ns("http://example.com", "getHint"),
            1,
            native(move |ctx, args| {
                let q = match args[0].first() {
                    Some(i) => i.string_value(&ctx.store.borrow()),
                    None => String::new(),
                };
                let url = format!("http://example.com/getHint?q={q}");
                let result = xqib_core::bindings::http_get(ctx, &host, &url)?;
                // return the hint text
                Ok(vec![Item::string(match result.first() {
                    Some(i) => i.string_value(&ctx.store.borrow()),
                    None => String::new(),
                })])
            }),
        );
    }
    p.load_page(samples::SUGGEST_PAGE).unwrap();
    let input = p.element_by_id("text1").unwrap();
    {
        let mut s = p.store.borrow_mut();
        s.doc_mut(input.doc)
            .set_attribute(input.node, QName::local("value"), "Mad")
            .unwrap();
    }
    p.keyup(input).unwrap();
    // the call is asynchronous: nothing yet
    assert!(!p.serialize_page().contains("Madison"));
    let tasks = p.run_until_idle().unwrap();
    assert!(tasks >= 1);
    assert!(p.serialize_page().contains("Madison, Madilyn"));
}

#[test]
fn css_store_vs_attribute_ablation() {
    // with the CSS store (plug-in default), styles stay out of the DOM
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery">
        set style "color" of //div[@id="d"] to "red"
        </script></head><body><div id="d"/></body></html>"#,
    )
    .unwrap();
    assert!(!p.serialize_page().contains("style="));
    let d = p.element_by_id("d").unwrap();
    assert_eq!(p.host.borrow().css.get(d, "color"), Some("red"));
    let out = p.eval("get style \"color\" of //div[@id=\"d\"]").unwrap();
    assert_eq!(p.render(&out), "red");

    // an engine without the plug-in's hooks falls back to the style
    // attribute
    let store = xqib_dom::store::shared_store();
    let page = xqib_dom::parse_document(r#"<html><body><div id="d"/></body></html>"#).unwrap();
    let doc = store.borrow_mut().add_document(page, Some("page.xml"));
    let out = runtime::run_to_string(
        r#"{ set style "color" of doc("page.xml")//div to "red";
             get style "color" of doc("page.xml")//div }"#,
        store.clone(),
    )
    .unwrap();
    assert_eq!(out, "red");
    let page = xqib_dom::serialize::serialize_document(store.borrow().doc(doc));
    assert!(page.contains("style=\"color: red\""), "{page}");
}

/// The page the operation table below runs on: two inputs and a listener
/// that logs each event it sees.
const OP_PAGE: &str = r#"<html><head><script type="text/xquery"><![CDATA[
    declare updating function local:l($evt, $obj) {
        insert node <p>{string($evt/type)}</p> into //body[1]
    };
    1
    ]]></script></head><body><input id="a"/><input id="b"/></body></html>"#;

/// What one operation leaves behind: its result (or error code), the
/// `onclick` listener table and CSS store of both inputs, and the page after
/// a click on `#a`.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<String, String>,
    listeners: [Vec<u64>; 2],
    css: [Vec<(String, String)>; 2],
    page: String,
}

fn observe(setup: &str, op: &str) -> Observed {
    let mut p = plugin();
    p.load_page(OP_PAGE).unwrap();
    p.eval(setup).unwrap();
    let result = p.eval(op).map(|s| p.render(&s)).map_err(|e| e.code);
    let inputs = [p.element_by_id("a").unwrap(), p.element_by_id("b").unwrap()];
    let (listeners, css) = {
        let host = p.host.borrow();
        let ids = |n| {
            host.events
                .listeners_at(n, "onclick")
                .iter()
                .map(|l| l.0)
                .collect()
        };
        (inputs.map(ids), inputs.map(|n| host.css.all(n).to_vec()))
    };
    p.click(inputs[0]).unwrap();
    p.run_until_idle().unwrap();
    Observed {
        result,
        listeners,
        css,
        page: p.serialize_page(),
    }
}

#[test]
fn hof_and_grammar_share_one_routine_per_operation() {
    // §5.1: each grammar extension and its high-order function are one
    // operation. `{T}` is the target: the inputs, then an atomic value.
    let attach = r#"on event "onclick" at //input attach listener local:l"#;
    let ops = [
        (
            "()",
            r#"on event "onclick" at {T} attach listener local:l"#,
            r#"browser:addEventListener({T}, "onclick", "local:l")"#,
        ),
        (
            attach,
            r#"on event "onclick" at {T} detach listener local:l"#,
            r#"browser:removeEventListener({T}, "onclick", "local:l")"#,
        ),
        (
            attach,
            r#"trigger event "onclick" at {T}"#,
            r#"browser:triggerEvent("onclick", {T})"#,
        ),
        (
            "()",
            r#"set style "color" of {T} to "red""#,
            r#"browser:setStyle({T}, "color", "red")"#,
        ),
        (
            r#"set style "color" of //input to "red""#,
            r#"get style "color" of {T}"#,
            r#"browser:getStyle({T}, "color")"#,
        ),
    ];
    for (setup, grammar, hof) in ops {
        let noop = observe(setup, "()");
        for target in ["//input", r#""x""#] {
            let g = observe(setup, &grammar.replace("{T}", target));
            let h = observe(setup, &hof.replace("{T}", target));
            assert_eq!(g, h, "{grammar} ≡ {hof} at {target}");
            if target == "//input" {
                assert_ne!(g, noop, "{grammar} has an effect");
            } else if !grammar.starts_with("get style") {
                // an atomic target is a type error (`get style` reads the
                // first target and finds no node: the empty sequence)
                assert_eq!(g.result, Err("XPTY0004".to_string()), "{grammar}");
            }
        }
    }
}

#[test]
fn status_elements_serve_every_counter() {
    let mut p = plugin();
    p.load_page("<html><body/></html>").unwrap();
    let (mut fetch, mut listener) = (Vec::new(), Vec::new());
    {
        let host = p.host.borrow();
        host.recovery.stats.visit(&mut |name, _| fetch.push(name));
        host.quarantine
            .stats
            .visit(&mut |name, _| listener.push(name));
    }
    for (f, names) in [("fetchStatus", fetch), ("listenerStatus", listener)] {
        let q = format!("string-join(for $a in browser:{f}()/@* return name($a), ',')");
        let out = p.eval(&q).unwrap();
        assert_eq!(p.render(&out), names.join(","), "browser:{f}()");
    }
}

#[test]
fn shopping_cart_xquery_only() {
    // §6.3 end-to-end: catalogue rendered, click adds to cart
    let mut p = plugin();
    p.host
        .borrow_mut()
        .net
        .register("http://shop.example/", 10, |_req| {
            Response::ok(
                "<products><product><name>Laptop</name><price>999</price></product>\
             <product><name>Mouse</name><price>10</price></product></products>",
            )
        });
    p.load_page(samples::SHOPPING_CART_XQUERY).unwrap();
    let page = p.serialize_page();
    assert!(page.contains("Laptop"), "catalogue rendered: {page}");
    assert!(page.contains("Mouse"));
    let button = p.element_by_id("Laptop").unwrap();
    p.click(button).unwrap();
    assert!(p
        .serialize_page()
        .contains("<div id=\"shoppingcart\"><p>Laptop</p></div>"));
    // buying another prepends
    let mouse = p.element_by_id("Mouse").unwrap();
    p.click(mouse).unwrap();
    assert!(p
        .serialize_page()
        .contains("<div id=\"shoppingcart\"><p>Mouse</p><p>Laptop</p></div>"));
}

#[test]
fn multiplication_table_renders_and_highlights() {
    let mut p = plugin();
    p.load_page(samples::MULTIPLICATION_TABLE_XQUERY).unwrap();
    let page = p.serialize_page();
    assert!(page.contains("<td id=\"c3-4\">12</td>"), "{page}");
    assert!(page.contains("<td id=\"c10-10\">100</td>"));
    assert!(page.contains("<caption>Multiplication table</caption>"));
    let cell = p.element_by_id("c3-4").unwrap();
    p.click(cell).unwrap();
    assert_eq!(
        p.host.borrow().css.get(cell, "background-color"),
        Some("yellow")
    );
}

#[test]
fn https_warning_flwor() {
    // §4.2.1: warn on every non-https frame
    let mut p = plugin();
    {
        let mut host = p.host.borrow_mut();
        let top = host.browser.top();
        let frame = host
            .browser
            .create_frame(top, "child", "http://www.xqib.org/child");
        drop(host);
        let doc = xqib_dom::parse_document("<html><body>child</body></html>").unwrap();
        let id = p.store.borrow_mut().add_document(doc, None);
        p.host.borrow_mut().browser.set_document(frame, id);
    }
    p.load_page("<html><body>main</body></html>").unwrap();
    p.eval(samples::HTTPS_WARNING_SCRIPT).unwrap();
    // `browser:top()//window` selects *descendant* windows (XPath `//`
    // excludes the start node), so only the frame is warned — the paper's
    // listing verbatim
    assert!(!p.serialize_page().contains("Warning: this page"));
    let host = p.host.borrow();
    let frame_doc = {
        let w = host.browser.find_by_name("child").unwrap();
        host.browser.window(w).document.unwrap()
    };
    let store = p.store.borrow();
    let frame_xml = xqib_dom::serialize::serialize_document(store.doc(frame_doc));
    assert!(frame_xml.contains("Warning: this page"));
}

#[test]
fn external_js_listener_coexists_on_same_event() {
    // §6.2: JS and XQuery listen to the SAME event on the SAME DOM
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut p = plugin();
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:xq($evt, $obj) {
            insert node <p id="from-xq">xq</p> into //body[1]
        };
        on event "onclick" at //input attach listener local:xq
        ]]></script></head><body><input id="search"/></body></html>"#,
    )
    .unwrap();
    let hits = Rc::new(RefCell::new(0));
    let hits2 = hits.clone();
    let input = p.element_by_id("search").unwrap();
    p.register_external_listener(input, "onclick", move |_ev| {
        *hits2.borrow_mut() += 1;
    });
    p.click(input).unwrap();
    assert_eq!(*hits.borrow(), 1, "the JS listener ran");
    assert!(
        p.serialize_page().contains("from-xq"),
        "the XQuery listener ran"
    );
}

#[test]
fn history_functions() {
    let mut p = plugin();
    p.load_page(samples::HELLO_WORLD).unwrap();
    {
        let mut host = p.host.borrow_mut();
        let w = host.page_window;
        host.browser.navigate(w, "http://www.xqib.org/page2");
    }
    p.eval("browser:historyBack()").unwrap();
    assert_eq!(
        p.host
            .borrow()
            .browser
            .window(p.page_window())
            .location
            .href,
        "http://www.xqib.org/index.html"
    );
    p.eval("browser:historyForward()").unwrap();
    assert_eq!(
        p.host
            .borrow()
            .browser
            .window(p.page_window())
            .location
            .href,
        "http://www.xqib.org/page2"
    );
}

#[test]
fn prompt_and_confirm_roundtrip() {
    let mut p = plugin();
    p.host
        .borrow_mut()
        .browser
        .prompt_answers
        .push("Ghislain".into());
    p.host.borrow_mut().browser.confirm_answers.push(false);
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        browser:alert(concat("Hi ", browser:prompt("name?"))),
        if (browser:confirm("sure?")) then browser:alert("yes") else browser:alert("no")
        ]]></script></head><body/></html>"#,
    )
    .unwrap();
    let alerts = p.alerts();
    assert_eq!(alerts, vec!["Hi Ghislain".to_string(), "no".to_string()]);
}

/// Deeper than any recursion survives on a test thread's stack: the
/// response is parsed, copied into the page, ordered and serialized by
/// walks.
#[test]
fn behind_fetch_of_a_deep_body_inserts_it_once() {
    const DEEP: usize = 100_000;
    let mut p = plugin();
    p.host
        .borrow_mut()
        .net
        .register("http://deep.test/", 25, |_| {
            Response::ok("<a>".repeat(DEEP) + "x" + &"</a>".repeat(DEEP))
        });
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
declare updating function local:onResult($readyState, $result) {
  if ($readyState eq 4) then insert node $result into //div[@id="sink"] else ()
};
on event "stateChanged" behind browser:httpGet("http://deep.test/d.xml")
attach listener local:onResult
]]></script></head><body><div id="sink"/></body></html>"#,
    )
    .unwrap();
    p.run_until_idle().unwrap();
    let s = p.host.borrow().recovery.stats.clone();
    assert_eq!(
        (s.completions, s.stale_events, s.error_events),
        (1, 0, 0),
        "exactly one outcome"
    );
    let out = p.eval("string(//div[@id='sink'])").unwrap();
    assert_eq!(p.render(&out), "x");
    let out = p.eval("count(//div[@id='sink']//a)").unwrap();
    assert_eq!(p.render(&out), DEEP.to_string());
    assert_eq!(p.serialize_page().matches("<a>").count(), DEEP);
}
