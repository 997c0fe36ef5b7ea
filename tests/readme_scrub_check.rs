//! Keeps the README "end-to-end integrity" example honest: this is the
//! snippet from README.md, verbatim, as a regression test.

use xqib::appserver::{Cluster, ClusterConfig, ClusterOutcome, Submitted};
use xqib::storage::StorageFaultPlan;

#[test]
fn readme_scrub_example() {
    // a replicated shard whose disks suffer silent bit rot: 20‰ of
    // at-rest synced sectors flip per 100ms decay period — corruption
    // appears without any crash, which is what scrubbing exists to catch
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 1,
        followers: 2,
        ack_replicas: 1,
        disk_fault: Some(
            StorageFaultPlan::seeded(9)
                .with_decay_permille(20)
                .with_decay_period_ms(100),
        ),
        ..ClusterConfig::default()
    });
    cluster.load("news.xml", "<root/>").unwrap();

    let url = r#"/update?xq=insert node <m id="scoop"/> into doc("news.xml")/*"#;
    let id = match cluster.submit(url, 0) {
        Submitted::Pending(id) => id,
        Submitted::Done(_) => unreachable!(),
    };
    let mut now = 0;
    loop {
        now += 1;
        if let Some(done) = cluster.advance(now).pop() {
            assert_eq!(done.id, id);
            assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
            break;
        }
    }

    // let the virtual clock run: decay rots sectors while the
    // anti-entropy scrubber (every 250ms) probes each replica's WAL and
    // checkpoint slots, self-checks each follower's memory against the
    // seals it applied, and repairs — re-checkpoint from verified memory,
    // or wipe and resync from a leader snapshot — before readmitting a seat
    for t in now..now + 5_000 {
        let _ = cluster.advance(t);
    }
    let ist = cluster.integrity_stats();
    assert!(ist.decay_sweeps > 0 && ist.sectors_decayed > 0);
    assert!(ist.scrub_cycles >= 19);
    assert!(ist.repairs_started > 0, "this seed rots a replica's log");
    assert!(ist.repairs_verified > 0); // readmitted on a clean self-check

    // the counters surface on /metrics…
    let done = match cluster.submit("/metrics", now + 5_000) {
        Submitted::Done(d) => d,
        Submitted::Pending(_) => unreachable!(),
    };
    assert!(done.response.body.contains("<scrub-cycles>"));

    // …and after all that rot, a failover still loses nothing
    cluster.crash_leader(0, now + 5_000);
    let (_, _) = cluster.quiesce(now + 5_000);
    assert!(cluster.has_leader(0));
    assert!(cluster.contains("news.xml", "scoop"));
}
