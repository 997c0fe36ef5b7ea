//! Listener fault isolation: a panicking or erroring listener is contained
//! at the dispatch boundary (ISSUE 3 tentpole). Other listeners still fire,
//! repeated failures quarantine the listener, a synthetic `error` event is
//! raised, and runaway listeners are preempted by the fuel budget — all
//! observable through `browser:listenerStatus()`.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use xqib_browser::events::ListenerId;
use xqib_browser::net::Response;
use xqib_browser::{IsolationConfig, ListenerQuarantine, QuarantineState};
use xqib_core::plugin::{Plugin, PluginConfig};

fn plugin_with(isolation: IsolationConfig) -> Plugin {
    let mut p = Plugin::new(PluginConfig {
        isolation,
        ..Default::default()
    });
    p.load_page("<html><body><input id=\"b\"/></body></html>")
        .unwrap();
    p
}

fn status_attr(p: &mut Plugin, attr: &str) -> String {
    let out = p
        .eval(&format!("string(browser:listenerStatus()/@{attr})"))
        .unwrap();
    p.render(&out)
}

#[test]
fn panicking_listener_never_unwinds_and_others_still_fire() {
    let mut p = Plugin::new(PluginConfig::default());
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:ok($evt, $obj) {
            insert node <p>survived</p> into //body[1]
        };
        on event "onclick" at //input attach listener local:ok
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    p.register_external_listener(b, "onclick", |_| panic!("listener bomb"));
    // the panic is caught at the dispatch boundary; the click succeeds
    p.click(b).unwrap();
    assert!(
        p.serialize_page().contains("<p>survived</p>"),
        "the healthy listener on the same event still ran"
    );
    let stats = p.host.borrow().quarantine.stats.clone();
    assert_eq!(stats.listener_panics, 1);
    assert_eq!(stats.listener_errors, 0);
    // visible through the introspection function
    assert_eq!(status_attr(&mut p, "listener-panics"), "1");
}

#[test]
fn failed_listener_raises_a_synthetic_error_event() {
    let mut p = Plugin::new(PluginConfig::default());
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:bad($evt, $obj) { 1 div 0 };
        declare updating function local:onerr($evt, $obj) {
            insert node <p class="err">caught</p> into //body[1]
        };
        on event "onclick" at //input attach listener local:bad,
        on event "error" at //body attach listener local:onerr
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    p.click(b).unwrap();
    // the error event is queued, not dispatched re-entrantly
    assert!(!p.serialize_page().contains("<p class=\"err\">caught</p>"));
    p.run_until_idle().unwrap();
    assert!(
        p.serialize_page().contains("<p class=\"err\">caught</p>"),
        "error listener observed the contained failure: {}",
        p.serialize_page()
    );
}

#[test]
fn repeated_failures_quarantine_then_probation_heals() {
    let mut p = plugin_with(IsolationConfig {
        failure_threshold: 2,
        quarantine_ms: 100,
        listener_fuel: None,
    });
    let b = p.element_by_id("b").unwrap();
    let calls = Rc::new(Cell::new(0u32));
    let seen = calls.clone();
    p.register_external_listener(b, "onclick", move |_| {
        let n = seen.get() + 1;
        seen.set(n);
        if n <= 2 {
            panic!("flaky listener, call {n}");
        }
    });
    p.click(b).unwrap();
    p.click(b).unwrap(); // second consecutive failure: trips the quarantine
    assert_eq!(calls.get(), 2);
    assert_eq!(status_attr(&mut p, "trips"), "1");
    assert_eq!(
        p.eval(r#"string(browser:listenerStatus()/listener[1]/@state)"#)
            .map(|out| p.render(&out))
            .unwrap(),
        "quarantined"
    );
    // inside the cool-down window the listener is skipped, not invoked
    p.click(b).unwrap();
    assert_eq!(calls.get(), 2, "quarantined listener was not invoked");
    assert_eq!(status_attr(&mut p, "skipped"), "1");
    // after the (virtual-time) window the next click is the probation probe
    p.host.borrow_mut().tasks.advance(100);
    p.click(b).unwrap();
    assert_eq!(calls.get(), 3, "probe admitted after cool-down");
    assert_eq!(status_attr(&mut p, "probes"), "1");
    assert_eq!(status_attr(&mut p, "recoveries"), "1");
    assert_eq!(
        p.eval(r#"string(browser:listenerStatus()/listener[1]/@state)"#)
            .map(|out| p.render(&out))
            .unwrap(),
        "healthy"
    );
}

#[test]
fn fuel_budget_preempts_runaway_listener() {
    let mut p = Plugin::new(PluginConfig {
        isolation: IsolationConfig {
            listener_fuel: Some(2_000),
            ..Default::default()
        },
        ..Default::default()
    });
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:spin($evt, $obj) {
            for $i in (1 to 1000000) return ()
        };
        on event "onclick" at //input attach listener local:spin
        ]]></script></head><body><input id="b"/></body></html>"#,
    )
    .unwrap();
    let b = p.element_by_id("b").unwrap();
    // preempted with XQIB0011, contained like any other listener error
    p.click(b).unwrap();
    let stats = p.host.borrow().quarantine.stats.clone();
    assert_eq!(stats.fuel_exhausted, 1);
    assert_eq!(stats.listener_errors, 1);
    assert_eq!(status_attr(&mut p, "fuel-exhausted"), "1");
    // the budget applies per listener invocation only: top-level evaluation
    // afterwards is unmetered and the engine is fully usable
    let out = p.eval("count(1 to 100000)").unwrap();
    assert_eq!(p.render(&out), "100000");
}

#[test]
fn failing_behind_listener_is_contained_and_leaks_no_updates() {
    let mut p = Plugin::new(PluginConfig::default());
    p.host
        .borrow_mut()
        .net
        .register("http://api.test/", 25, |_req| Response::ok("<items/>"));
    p.load_page(
        r#"<html><head><script type="text/xquery"><![CDATA[
        declare updating function local:onDoc($readyState, $result) {
            if ($readyState eq 4)
            then (insert node <leak/> into //p, fn:error())
            else ()
        };
        declare updating function local:onerr($evt, $obj) {
            insert node <caught>{data($evt/detail)}</caught> into //body[1]
        };
        on event "error" at //body attach listener local:onerr
        ]]></script></head><body><p/></body></html>"#,
    )
    .unwrap();
    p.eval(
        r#"on event "stateChanged" behind browser:httpGet("http://api.test/a.xml")
           attach listener local:onDoc"#,
    )
    .unwrap();
    // the failing readyState-4 listener does not error the event loop, and
    // the synthetic error event queued behind it is still drained
    p.run_until_idle().unwrap();
    let page = p.serialize_page();
    assert!(
        page.contains("<caught>FOER0000"),
        "the error listener saw the failure: {page}"
    );
    assert!(
        !page.contains("<leak/>"),
        "half-built update applied: {page}"
    );
    // the discarded update does not ride along with the next evaluation
    p.eval("insert node <later/> into //p").unwrap();
    let page = p.serialize_page();
    assert!(page.contains("<p><later/></p>"), "{page}");
    let stats = p.host.borrow().quarantine.stats.clone();
    assert_eq!(stats.listener_errors, 1);
}

proptest! {
    /// The guard trips into quarantine exactly at the configured threshold
    /// (never one failure early), and half-opens exactly when the virtual
    /// clock reaches the end of the cool-down window.
    #[test]
    fn quarantine_trips_exactly_at_threshold_and_half_opens(
        threshold in 1u32..6,
        window in 1u64..1_000,
        probe_fails in proptest::arbitrary::any::<bool>(),
    ) {
        let mut quar = ListenerQuarantine::new(&IsolationConfig {
            failure_threshold: threshold,
            quarantine_ms: window,
            listener_fuel: None,
        });
        let id = ListenerId(42);
        for i in 0..threshold - 1 {
            prop_assert!(quar.allow(id, u64::from(i)));
            quar.on_failure(id, u64::from(i));
            prop_assert_eq!(
                quar.state(id), QuarantineState::Healthy,
                "tripped one failure early at {}", i
            );
        }
        let trip_now = u64::from(threshold);
        quar.on_failure(id, trip_now);
        let until = trip_now + window;
        prop_assert_eq!(quar.state(id), QuarantineState::Quarantined { until });
        prop_assert_eq!(quar.stats.trips, 1);
        // one tick before the window ends: still fully closed
        if window > 0 {
            prop_assert!(!quar.allow(id, until - 1));
        }
        // exactly at the window boundary: half-open probe admitted
        prop_assert!(quar.allow(id, until));
        prop_assert_eq!(quar.state(id), QuarantineState::Probation);
        if probe_fails {
            quar.on_failure(id, until);
            prop_assert_eq!(
                quar.state(id),
                QuarantineState::Quarantined { until: until + window },
                "failed probe re-quarantines immediately"
            );
        } else {
            quar.on_success(id);
            prop_assert_eq!(quar.state(id), QuarantineState::Healthy);
            prop_assert_eq!(quar.stats.recoveries, 1);
        }
    }
}
