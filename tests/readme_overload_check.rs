//! Keeps the README "overload" example honest: this is the snippet from
//! README.md, verbatim, as a regression test.

use xqib::appserver::{
    generate_corpus, Cluster, ClusterConfig, CorpusSpec, GovernorConfig, Submitted,
};

#[test]
fn readme_overload_example() {
    // one shard, no followers, its leader behind the request governor
    let mut c = Cluster::new(ClusterConfig {
        shards: 1,
        followers: 0,
        ack_replicas: 0,
        governor: Some(GovernorConfig::default()),
        ..ClusterConfig::default()
    });
    let corpus = generate_corpus(&CorpusSpec::default());
    c.load("corpus.xml", &corpus).unwrap();

    // a flash crowd: 100 page hits in the same virtual millisecond
    let mut shed = 0;
    for _ in 0..100 {
        if let Submitted::Done(d) = c.submit("/page?article=j0-v0-i0-a0", 0) {
            assert_eq!(d.response.status, 503); // honest refusal...
            assert_eq!(d.response.header("Retry-After"), Some("1")); // ...with advice
            shed += 1;
        }
    }
    assert_eq!(shed, 36); // the 64-slot render queue cannot hold 100
    c.quiesce(0); // the backlog is served — fresh or degraded — in virtual time

    // once the burst has passed, the next request sails through untouched
    c.submit("/page?article=j0-v0-i0-a0", 60_000);
    let done = c.advance(60_000);
    assert_eq!(done[0].response.status, 200);
    assert!(done[0].response.header("X-XQIB-Degraded").is_none()); // fresh
}
