//! Keeps the README "online membership & resharding" example honest:
//! this is the snippet from README.md, verbatim, as a regression test.

use xqib::appserver::{Cluster, ClusterConfig, Submitted};

#[test]
fn readme_reshard_example() {
    // a two-shard replicated cluster serving live traffic…
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 2,
        followers: 1,
        ack_replicas: 1,
        ..ClusterConfig::default()
    });
    for i in 0..8 {
        cluster.load(&format!("d{i}.xml"), "<root/>").unwrap();
    }
    let url = r#"/update?xq=insert node <m id="keep"/> into doc("d0.xml")/*"#;
    let id = match cluster.submit(url, 0) {
        Submitted::Pending(id) => id,
        Submitted::Done(_) => unreachable!(),
    };
    let mut now = 0;
    loop {
        now += 1;
        if cluster.advance(now).iter().any(|d| d.id == id) {
            break;
        }
    }

    // …grows online: the joining shard enters the ring at a fresh
    // topology epoch and every document the new ring claims for it is
    // migrated live — snapshot copy while the source keeps serving, the
    // WAL tail of updates accepted during the copy forwarded, then an
    // atomic epoch-fenced cutover once the copy is follower-durable
    let owners_before: Vec<usize> = (0..8)
        .map(|i| cluster.owner(&format!("d{i}.xml")))
        .collect();
    let epoch_before = cluster.epoch();
    cluster.add_shard();
    let (now, _) = cluster.quiesce(now);
    assert!(cluster.epoch() > epoch_before);
    assert_eq!(cluster.migrations_in_flight(), 0);
    assert!(cluster.reshard_stats().docs_moved > 0);

    // a client holding a stale route hits the cutover fence — 421 plus
    // the fresh owner and epoch — re-resolves, and retries
    let moved = (0..8)
        .find(|&i| cluster.owner(&format!("d{i}.xml")) != owners_before[i])
        .unwrap();
    let stale = match cluster.serve_at(owners_before[moved], &format!("/doc?uri=d{moved}.xml"), now)
    {
        Submitted::Done(d) => d,
        Submitted::Pending(_) => unreachable!(),
    };
    assert_eq!(stale.response.status, 421);
    let fresh: usize = stale
        .response
        .header("X-XQIB-Owner")
        .unwrap()
        .parse()
        .unwrap();
    let ok = match cluster.serve_at(fresh, &format!("/doc?uri=d{moved}.xml"), now) {
        Submitted::Done(d) => d,
        Submitted::Pending(_) => unreachable!(),
    };
    assert_eq!(ok.response.status, 200);

    // a hot ring can be reseeded in place (same members, new salt), and
    // a shard can leave: it drains every homed document, then retires
    cluster.rebalance(7);
    assert!(cluster.decommission_shard(0));
    let (_, _) = cluster.quiesce(now);
    assert!(cluster.is_retired(0));
    assert_eq!(cluster.reshard_stats().drains, 1);
    assert!(cluster.contains("d0.xml", "keep")); // acked bytes survived it all
}
