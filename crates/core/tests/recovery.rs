//! The fault/recovery path end to end: seeded fault injection on the
//! virtual network, retries with deterministic backoff on the event loop,
//! circuit breakers in virtual time, and stale-cache degradation delivered
//! as synthetic `stale`/`error` DOM events XQuery listeners can observe.

use std::rc::Rc;

use proptest::prelude::*;
use xqib_browser::net::{Fault, FaultPlan, Response};
use xqib_browser::{BreakerState, RecoveryConfig, RecoveryStats, RetryPolicy};
use xqib_core::plugin::{Plugin, PluginConfig, PluginTask};
use xqib_xquery::plan::ExprPlan;

/// Deterministic CI matrix hook: `XQIB_FAULT_SEED` is mixed into every
/// fault-plan seed, so the same suite explores different schedules per job.
fn env_seed() -> u64 {
    std::env::var("XQIB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A page with a completion log and listeners for the degradation events.
const PAGE: &str = r#"<html><head><script type="text/xquery"><![CDATA[
declare updating function local:onResult($readyState, $result) {
  if ($readyState eq 4)
  then insert node <li class="done">done</li> into //ul[@id="log"]
  else ()
};
declare updating function local:onStale($evt, $obj) {
  replace value of node //span[@id="flag"]
  with concat("stale:", data($evt/detail), ":", string-join($evt/payload//item, "+"))
};
declare updating function local:onError($evt, $obj) {
  replace value of node //span[@id="flag"] with concat("error:", data($evt/detail))
};
on event "stale" at //body attach listener local:onStale;
on event "error" at //body attach listener local:onError
]]></script></head>
<body><ul id="log"/><span id="flag"/></body></html>"#;

fn plugin_with(recovery: RecoveryConfig) -> Plugin {
    plugin_on(PAGE, recovery)
}

fn plugin_on(page: &str, recovery: RecoveryConfig) -> Plugin {
    let mut p = Plugin::new(PluginConfig {
        recovery,
        ..Default::default()
    });
    p.host
        .borrow_mut()
        .net
        .register("http://api.test/", 25, |req| {
            let n = req.url.rsplit('/').next().unwrap_or("").to_string();
            Response::ok(format!("<items><item>{n}</item></items>"))
        });
    p.load_page(page).unwrap();
    p
}

fn behind_fetch(p: &mut Plugin, url: &str) {
    p.eval(&format!(
        r#"on event "stateChanged" behind browser:httpGet("{url}")
           attach listener local:onResult"#
    ))
    .unwrap();
}

fn stats(p: &Plugin) -> RecoveryStats {
    p.host.borrow().recovery.stats.clone()
}

#[test]
fn two_failures_then_success_completes_on_the_third_attempt() {
    let policy = RetryPolicy::default();
    let mut p = plugin_with(RecoveryConfig {
        retry: policy.clone(),
        ..Default::default()
    });
    p.host.borrow_mut().net.set_fault_plan(
        "api.test",
        FaultPlan::seeded(42).fail_first(2, Fault::Timeout),
    );
    behind_fetch(&mut p, "http://api.test/a.xml");
    p.run_until_idle().unwrap();

    let s = stats(&p);
    assert_eq!(s.attempts, 3, "exactly three attempts");
    assert_eq!(s.retries, 2);
    assert_eq!(s.timeouts, 2);
    assert_eq!(s.completions, 1);
    assert_eq!(s.stale_events + s.error_events, 0);
    assert_eq!(
        p.serialize_page().matches("<li class=\"done\">").count(),
        1,
        "one readyState-4 delivery"
    );

    // the backoff function is pure, so the final virtual timestamp is
    // predictable to the millisecond: two 1000 ms client deadlines, the two
    // backoff delays for call #1, and the 25 ms latency of the success
    let expected = 1000 + policy.backoff_delay(1, 1) + 1000 + policy.backoff_delay(2, 1) + 25;
    assert_eq!(p.host.borrow().tasks.now(), expected);
}

/// The call plans of the queued `behind` tasks; the queue is left as it was.
fn queued_calls(p: &Plugin) -> Vec<Rc<ExprPlan>> {
    let mut host = p.host.borrow_mut();
    let tasks: Vec<PluginTask> = std::iter::from_fn(|| host.tasks.pop(u64::MAX)).collect();
    let calls = tasks
        .iter()
        .filter_map(|t| match t {
            PluginTask::Behind(b) => Some(b.call.clone()),
            PluginTask::Dispatch(_) => None,
        })
        .collect();
    for t in tasks {
        host.tasks.schedule(0, t);
    }
    calls
}

/// A `behind` call and readyState listener built from a computed element
/// around the fetch and a typeswitch over `$result` with a computed
/// constructor in a branch run on the plan tier through the whole
/// recovery path: against
/// a down host each call is retried and then degrades to one `error`
/// event, after the host heals the call completes, every call delivers
/// exactly one outcome, and every attach of the one cached snippet shares
/// the call plan lowered with it.
#[test]
fn lowered_behind_call_retries_degrades_and_shares_its_plan() {
    let page = PAGE.replace(
        "declare updating function local:onStale",
        r#"declare updating function local:onTyped($readyState, $result) {
  typeswitch ($result)
    case element(fetched) return insert node
      element li { attribute class { "typed" }, count($result//item) } into //ul[@id="log"]
    default return ()
};
declare updating function local:onStale"#,
    );
    let snippet = r#"on event "stateChanged"
        behind element fetched { browser:httpGet("http://api.test/t.xml") }
        attach listener local:onTyped"#;
    let mut p = plugin_on(&page, RecoveryConfig::default());
    p.host
        .borrow_mut()
        .net
        .set_fault_plan("api.test", FaultPlan::always_down(11));
    p.eval(snippet).unwrap();
    p.eval(snippet).unwrap();
    let calls = queued_calls(&p);
    assert_eq!(calls.len(), 2);
    assert!(
        Rc::ptr_eq(&calls[0], &calls[1]),
        "one call plan per snippet"
    );

    p.run_until_idle().unwrap();
    let s = stats(&p);
    assert_eq!(s.attempts, 6, "three attempts per call: {s:?}");
    assert_eq!(s.retries, 4, "{s:?}");
    assert_eq!((s.completions, s.stale_events, s.error_events), (0, 0, 2));
    assert!(p.serialize_page().contains("error:"), "the listener saw it");

    // the host heals: past the breaker's open window the call completes
    // and the readyState-4 branch builds its element
    p.host.borrow_mut().net.clear_fault_plan("api.test");
    p.host.borrow_mut().tasks.advance(10_000);
    p.eval(snippet).unwrap();
    assert!(Rc::ptr_eq(&queued_calls(&p)[0], &calls[0]));
    p.run_until_idle().unwrap();
    let s = stats(&p);
    assert_eq!((s.completions, s.stale_events, s.error_events), (1, 0, 2));
    let page = p.serialize_page();
    assert_eq!(
        page.matches(r#"<li class="typed">1</li>"#).count(),
        1,
        "{page}"
    );
}

/// Runs the permanently-down scenario and returns everything observable.
fn stale_scenario() -> (String, String, u64) {
    let mut p = plugin_with(RecoveryConfig::default());
    // prime the stale cache with one good fetch on the host
    p.eval(r#"browser:httpGet("http://api.test/data.xml")"#)
        .unwrap();
    // then the host goes down for good
    p.host
        .borrow_mut()
        .net
        .set_fault_plan("api.test", FaultPlan::always_down(7));
    behind_fetch(&mut p, "http://api.test/live.xml");
    p.run_until_idle().unwrap();
    let now = p.host.borrow().tasks.now();
    (p.serialize_page(), format!("{:?}", stats(&p)), now)
}

#[test]
fn down_host_serves_stale_and_the_listener_observes_it() {
    let (page, stats_dbg, _now) = stale_scenario();
    // the stale event carried the URL and the cached payload (host-level
    // fallback: data.xml's body answers for live.xml)
    assert!(
        page.contains("stale:http://api.test/live.xml:data.xml"),
        "{page}"
    );
    assert!(
        !page.contains("<li class=\"done\">"),
        "no completion was delivered"
    );
    assert!(stats_dbg.contains("stale_served: 1"), "{stats_dbg}");
    assert!(stats_dbg.contains("stale_events: 1"), "{stats_dbg}");
    assert!(stats_dbg.contains("breaker_opens: 1"), "{stats_dbg}");
}

#[test]
fn failure_schedules_are_reproducible_byte_for_byte() {
    assert_eq!(stale_scenario(), stale_scenario());
}

#[test]
fn breaker_fast_fails_then_half_opens_and_heals() {
    let mut p = plugin_with(RecoveryConfig {
        retry: RetryPolicy {
            timeout_ms: 100,
            max_attempts: 2,
            backoff_base_ms: 10,
            backoff_factor: 2,
            backoff_cap_ms: 100,
            ..Default::default()
        }
        .no_jitter(),
        breaker_failure_threshold: 1,
        breaker_open_ms: 500,
        ..Default::default()
    });
    p.host
        .borrow_mut()
        .net
        .set_fault_plan("api.test", FaultPlan::always_down(3));
    behind_fetch(&mut p, "http://api.test/x.xml");
    p.run_until_idle().unwrap();
    let s = stats(&p);
    assert_eq!(s.timeouts, 1, "only the first attempt touched the network");
    assert!(
        s.breaker_fast_fails >= 1,
        "retry was refused without a fetch: {s:?}"
    );
    assert_eq!(s.error_events, 1, "no stale data: the error event fired");
    assert!(
        p.serialize_page().contains("error:"),
        "listener observed it"
    );
    assert!(matches!(
        p.host.borrow().recovery.breaker_state("api.test"),
        BreakerState::Open { .. }
    ));
    let out = p.eval(r#"browser:breakerState("api.test")"#).unwrap();
    assert_eq!(p.render(&out), "open");

    // the host heals; once the open window expires the next call is the
    // half-open probe, and its success closes the breaker
    p.host.borrow_mut().net.clear_fault_plan("api.test");
    p.host.borrow_mut().tasks.advance(600);
    behind_fetch(&mut p, "http://api.test/y.xml");
    p.run_until_idle().unwrap();
    let s = stats(&p);
    assert_eq!(s.breaker_half_opens, 1);
    assert_eq!(s.breaker_closes, 1);
    assert_eq!(s.completions, 1);
    let out = p.eval(r#"browser:breakerState("api.test")"#).unwrap();
    assert_eq!(p.render(&out), "closed");
}

#[test]
fn fetch_status_exposes_the_counters() {
    let mut p = plugin_with(RecoveryConfig::default());
    p.host.borrow_mut().net.set_fault_plan(
        "api.test",
        FaultPlan::seeded(1).fail_first(1, Fault::Timeout),
    );
    behind_fetch(&mut p, "http://api.test/s.xml");
    p.run_until_idle().unwrap();
    let get = |p: &mut Plugin, attr: &str| {
        let out = p
            .eval(&format!("string(browser:fetchStatus()/@{attr})"))
            .unwrap();
        p.render(&out)
    };
    assert_eq!(get(&mut p, "attempts"), "2");
    assert_eq!(get(&mut p, "retries"), "1");
    assert_eq!(get(&mut p, "timeouts"), "1");
    assert_eq!(get(&mut p, "completions"), "1");
    let out = p
        .eval(r#"string(browser:fetchStatus()/host[@name="api.test"]/@breaker)"#)
        .unwrap();
    assert_eq!(p.render(&out), "closed");
}

proptest! {
    /// Under ANY seeded fault plan, every `behind` call delivers exactly one
    /// outcome — a completion, a stale event or an error event — never both
    /// and never duplicates, and the event-loop drain always terminates.
    #[test]
    fn every_behind_call_delivers_exactly_one_outcome(
        seed in 0u64..1_000_000,
        timeout_permille in 0u16..500,
        error_permille in 0u16..400,
        truncate_permille in 0u16..300,
    ) {
        let mut p = plugin_with(RecoveryConfig {
            retry: RetryPolicy {
                timeout_ms: 50,
                max_attempts: 3,
                backoff_base_ms: 10,
                backoff_factor: 2,
                backoff_cap_ms: 200,
                ..Default::default()
            },
            ..Default::default()
        });
        p.host.borrow_mut().net.set_fault_plan(
            "api.test",
            FaultPlan::seeded(seed ^ env_seed())
                .with_timeout_permille(timeout_permille)
                .with_error_permille(error_permille)
                .with_truncate_permille(truncate_permille),
        );
        for i in 0..5u32 {
            let before = stats(&p);
            // distinct URLs: successful XML fetches are cached forever by
            // URL, and a cache hit would bypass the network entirely
            behind_fetch(&mut p, &format!("http://api.test/r{i}.xml"));
            let drained = p.run_until_idle();
            prop_assert!(drained.is_ok(), "drain failed: {:?}", drained);
            let after = stats(&p);
            let outcomes = (after.completions - before.completions)
                + (after.stale_events - before.stale_events)
                + (after.error_events - before.error_events);
            prop_assert_eq!(
                outcomes, 1,
                "call {} delivered {} outcomes: {:?}",
                i, outcomes, after
            );
        }
    }
}
