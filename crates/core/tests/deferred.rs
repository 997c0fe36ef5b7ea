//! `behind` against a deferred host: the request waits for the host's
//! driver, the attempt parks instead of blocking the event loop, and the
//! driver's reply resumes it through the one `behind` path.

use xqib_browser::net::{Fault, FaultPlan, Response};
use xqib_browser::{RecoveryConfig, RecoveryStats, RetryPolicy};
use xqib_core::plugin::{Plugin, PluginConfig};

/// Logs every readyState the `behind` listener sees, with the result's item.
const PAGE: &str = r#"<html><head><script type="text/xquery"><![CDATA[
declare updating function local:onResult($readyState, $result) {
  insert node <li class="rs{$readyState}">{string($result//item)}</li>
  into //ul[@id="log"]
};
declare updating function local:onError($evt, $obj) {
  insert node <li class="error">{data($evt/detail)}</li> into //ul[@id="log"]
};
on event "error" at //body attach listener local:onError
]]></script></head>
<body><ul id="log"/></body></html>"#;

const URL: &str = "http://srv.test/a.xml";

fn deferred_plugin(retry: RetryPolicy) -> Plugin {
    let mut p = Plugin::new(PluginConfig {
        recovery: RecoveryConfig {
            retry,
            ..Default::default()
        },
        ..Default::default()
    });
    p.host
        .borrow_mut()
        .net
        .register_deferred("http://srv.test/", 10);
    p.load_page(PAGE).unwrap();
    p
}

fn behind_fetch(p: &mut Plugin) {
    p.eval(&format!(
        r#"on event "stateChanged" behind browser:httpGet("{URL}")
           attach listener local:onResult"#
    ))
    .unwrap();
}

/// The tickets of the requests the host was sent by `now`.
fn sent(p: &Plugin, now: u64) -> Vec<u64> {
    let mut host = p.host.borrow_mut();
    host.net.take_sent(now).iter().map(|d| d.ticket).collect()
}

fn count(p: &Plugin, needle: &str) -> usize {
    p.serialize_page().matches(needle).count()
}

fn stats(p: &Plugin) -> RecoveryStats {
    p.host.borrow().recovery.stats.clone()
}

fn reply() -> Response {
    Response::ok("<items><item>x</item></items>")
}

#[test]
fn a_deferred_behind_notifies_each_ready_state_once() {
    let mut p = deferred_plugin(RetryPolicy::default());
    behind_fetch(&mut p);
    p.run_until(0).unwrap();
    assert_eq!(count(&p, r#"class="rs1""#), 1, "readyState 1 at issue");
    assert_eq!(count(&p, r#"class="rs4""#), 0, "nothing has arrived");
    let tickets = sent(&p, 0);
    assert_eq!(tickets.len(), 1, "one request on the wire");

    p.deliver(tickets[0], reply(), 30);
    p.run_until(29).unwrap();
    assert_eq!(count(&p, r#"class="rs4""#), 0, "the reply lands at 30");
    p.run_until(30).unwrap();
    assert_eq!(p.now(), 30);
    assert_eq!(count(&p, r#"class="rs1""#), 1, "not again on resume");
    assert_eq!(count(&p, r#"<li class="rs4">x</li>"#), 1);
    let s = stats(&p);
    assert_eq!((s.attempts, s.completions, s.retries), (1, 1, 0));
    assert!(
        sent(&p, u64::MAX).is_empty(),
        "the resumed attempt sent nothing"
    );

    // a second delivery of the same ticket finds no one waiting
    p.deliver(tickets[0], reply(), 40);
    assert_eq!(p.run_until_idle().unwrap(), 0);
}

#[test]
fn a_lost_reply_times_out_then_the_retry_completes() {
    let policy = RetryPolicy::default().no_jitter();
    let mut p = deferred_plugin(policy.clone());
    p.host.borrow_mut().net.set_fault_plan(
        "srv.test",
        FaultPlan::seeded(3).fail_first(1, Fault::ReplyLost),
    );
    behind_fetch(&mut p);
    p.run_until(0).unwrap();
    // the server saw the request, but its reply is lost on the way back
    let lost = sent(&p, 0);
    assert_eq!(lost.len(), 1);
    p.deliver(lost[0], reply(), 10);
    p.run_until(policy.timeout_ms - 1).unwrap();
    assert_eq!(stats(&p).timeouts, 0, "the deadline has not passed");

    p.run_until(policy.timeout_ms).unwrap();
    let s = stats(&p);
    assert_eq!(
        (s.timeouts, s.retries),
        (1, 1),
        "timed out at issue + timeout"
    );
    let retry_at = policy.timeout_ms + policy.backoff_delay(1, 1);
    p.run_until(retry_at).unwrap();
    let retry = sent(&p, retry_at);
    assert_eq!(retry.len(), 1, "the retry is a new request");
    p.deliver(retry[0], reply(), retry_at + 10);
    p.run_until_idle().unwrap();

    let s = stats(&p);
    assert_eq!((s.attempts, s.completions), (2, 1));
    assert_eq!(s.stale_events + s.error_events, 0, "exactly one outcome");
    assert_eq!(count(&p, r#"<li class="rs4">x</li>"#), 1);
    assert_eq!(p.now(), retry_at + 10);
}

#[test]
fn a_lost_request_with_no_retries_left_degrades_once() {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let mut p = deferred_plugin(policy.clone());
    p.host
        .borrow_mut()
        .net
        .set_fault_plan("srv.test", FaultPlan::always_down(4));
    behind_fetch(&mut p);
    p.run_until_idle().unwrap();

    assert!(sent(&p, u64::MAX).is_empty(), "the lost request never left");
    assert_eq!(p.now(), policy.timeout_ms);
    let s = stats(&p);
    assert_eq!((s.attempts, s.timeouts, s.retries), (1, 1, 0));
    assert_eq!((s.completions, s.stale_events, s.error_events), (0, 0, 1));
    assert_eq!(count(&p, r#"<li class="error">"#), 1);
    assert_eq!(count(&p, r#"class="rs4""#), 0);
}

#[test]
fn a_synchronous_get_to_a_deferred_host_fails_typed() {
    let mut p = deferred_plugin(RetryPolicy::default());
    let err = p.eval(&format!(r#"browser:httpGet("{URL}")"#)).unwrap_err();
    assert_eq!(err.code, "XQIB0020", "{err}");
    assert!(sent(&p, u64::MAX).is_empty(), "nothing was sent");
    assert_eq!(p.now(), 0, "and no time passed");
}
