//! Smoke test for the durability counters the server reads live for
//! `/metrics`: a load → update → checkpoint → crash → recover cycle must
//! bump `wal_appends`, `fsyncs`, `checkpoints` and `recoveries`, and a
//! torn WAL tail must show up as `torn_tails_dropped`.

use xqib_appserver::server::AppServer;
use xqib_appserver::xmldb::{DurabilityConfig, XmlDb};
use xqib_storage::{VirtualDisk, CKPT_SLOTS};

#[test]
fn durability_counters_flow_through_server_metrics() {
    let disk = VirtualDisk::new();
    let mut server = AppServer::new_durable(
        "<library><article id=\"a1\"><title>T</title></article></library>",
        disk.clone(),
        DurabilityConfig::default(),
    )
    .unwrap();

    let r = server
        .handle("/update?xq=insert node <note>remember</note> into doc('corpus.xml')/library");
    assert_eq!(r.status, 200);
    let stats = server.db.durability_stats();
    assert!(
        stats.wal_appends >= 2,
        "corpus load + update journaled, got {}",
        stats.wal_appends
    );
    assert!(stats.fsyncs >= 2, "each op group-committed");
    assert_eq!(stats.checkpoints, 0, "nothing crossed the threshold");

    // a checkpoint outside any request shows on the next /metrics
    server.db.checkpoint().unwrap();
    let m = server.handle("/metrics").body;
    assert!(m.contains("<checkpoints>1</checkpoints>"), "{m}");
    assert!(m.contains("<recoveries>0</recoveries>"), "{m}");

    drop(server);
    disk.crash();
    let mut server = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
    let stats = server.db.durability_stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.torn_tails_dropped, 0, "nothing was torn");
    let r = server.handle("/query?xq=count(doc('corpus.xml')//note)");
    assert_eq!(r.body, "1", "checkpointed update survived");
}

/// Satellite regression: when *every* checkpoint slot fails verification,
/// recovery must still come up (typed, not a panic), count the loss, and
/// surface it on the `/metrics` route as `<ckpt-slots-lost>`.
#[test]
fn losing_every_checkpoint_slot_is_surfaced_on_metrics() {
    let disk = VirtualDisk::new();
    let mut server = AppServer::new_durable(
        "<library><article id=\"a1\"><title>T</title></article></library>",
        disk.clone(),
        DurabilityConfig::default(),
    )
    .unwrap();
    let r = server
        .handle("/update?xq=insert node <note>remember</note> into doc('corpus.xml')/library");
    assert_eq!(r.status, 200);
    server.db.checkpoint().unwrap();
    drop(server);

    // power loss, then latent rot lands in every written slot
    disk.crash();
    for slot in CKPT_SLOTS {
        if let Some(mut img) = disk.read(slot) {
            if let Some(b) = img.get_mut(12) {
                *b ^= 0xff;
            }
            disk.write_file(slot, &img);
        }
    }

    let mut server = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
    assert_eq!(server.db.durability_stats().recoveries, 1);
    let r = server.handle("/metrics");
    assert_eq!(r.status, 200);
    assert!(
        r.body.contains("<ckpt-slots-lost>1</ckpt-slots-lost>"),
        "the lost-snapshot alarm must reach /metrics: {}",
        r.body
    );
}

/// Reads are verified end to end on the single-node server too: a body
/// that no longer hashes to the digest sealed at journal time is refused
/// with `XQIB0019`, counted, and surfaced on `/metrics` — never served.
#[test]
fn a_digest_mismatched_doc_read_is_refused_with_a_typed_error() {
    let disk = VirtualDisk::new();
    let mut server =
        AppServer::new_durable("<library/>", disk, DurabilityConfig::default()).unwrap();
    let ok = server.handle("/doc?uri=corpus.xml");
    assert_eq!(ok.status, 200);
    assert!(server.metrics.doc_reads_verified >= 1);

    // model memory/media divergence: the sealed digest no longer matches
    assert!(server.db.poison_recorded_digest("corpus.xml"));
    let r = server.handle("/doc?uri=corpus.xml");
    assert_eq!(r.status, 500);
    assert!(r.body.contains("XQIB0019"), "typed refusal: {}", r.body);
    let m = server.handle("/metrics");
    assert!(
        m.body.contains("<doc-reads-refused>1</doc-reads-refused>"),
        "refusal must reach /metrics: {}",
        m.body
    );
}

#[test]
fn torn_tails_are_counted() {
    let disk = VirtualDisk::new();
    // group_commit high enough that nothing ever fsyncs on its own
    let cfg = DurabilityConfig {
        group_commit: 1000,
        checkpoint_threshold: 0,
    };
    let mut db = XmlDb::durable(disk.clone(), cfg);
    db.load("d.xml", "<r><v>keep</v></r>").unwrap();
    db.commit().unwrap();
    // an unsynced update: the crash tears it off the log mid-frame
    db.query("replace value of node (doc('d.xml')/*)[1] with 'gone'")
        .unwrap();
    drop(db);
    // a seed whose torn-prefix draw keeps part (not all) of the tail
    let mut found_partial_tear = false;
    for seed in 0..64u64 {
        let probe = disk.clone_image();
        probe.set_plan(xqib_storage::StorageFaultPlan::seeded(seed));
        probe.crash();
        let recovered = XmlDb::recover(probe, cfg).unwrap();
        let stats = recovered.durability_stats();
        assert_eq!(stats.recoveries, 1);
        // committed prefix (tail torn) or one state further (the whole
        // unsynced frame happened to survive the tear) — never in between
        let got = recovered.serialize("d.xml").unwrap();
        assert!(
            got == "<r><v>keep</v></r>" || got == "<r>gone</r>",
            "seed {seed}: recovered a non-boundary state: {got}"
        );
        if stats.torn_tails_dropped > 0 {
            found_partial_tear = true;
            // the unsynced tail is two frames (record seq 3 + digest seq 4);
            // a tear inside the record must drop the update, while a tear
            // that only clips the digest frame legitimately keeps it
            match recovered.committed_seq() {
                2 => assert_eq!(got, "<r><v>keep</v></r>", "seed {seed}: torn yet applied"),
                3 => assert_eq!(got, "<r>gone</r>", "seed {seed}: record survived the tear"),
                other => panic!("seed {seed}: recovered to impossible seq {other}"),
            }
        }
    }
    assert!(
        found_partial_tear,
        "no seed in 0..64 produced a countable torn tail"
    );
}
