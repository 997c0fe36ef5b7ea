//! Journaling and recovery speed. Two arms:
//!
//! * `durable` — a batch of updating queries with WAL journaling and
//!   per-op group commit (the full price of evaluation, apply,
//!   wire-encoding, digest seals, append and fsync);
//! * `recover` — replaying the resulting image (checkpoint + WAL suffix)
//!   back into a fresh store, i.e. restart latency per journaled op.
//!
//! Plus the byte kernels under shipping and checkpointing, each over one
//! 300 KB document body (`kernels_300k/*`): `crc32` (the WAL frame
//! checksum), `content_digest` (the lane kernel, which checks a
//! checkpoint slot as `lane_checksum`), `utf8` (the slot's other pass
//! over its bytes), `fnv1a` (the byte-serial hash the lane kernel
//! replaced, for the ratio) and `slot_verify` (`Checkpoint::slot_verdicts`
//! over a slot holding the body: the lane checksum, then UTF-8).
//!
//! And the subtree digests behind every seal, frame check and scrub
//! (`tree_digest/*`): `full_300k` hashes the 300 KB body's tree with a
//! cold cache (what a document's first digest and the scrubber's
//! rotating re-hash pay: every byte hashed, a value cached per branch);
//! `append_1k` and `append_10k` re-digest a cart of 1,000 and 10,000
//! items (up to twice that by the end of a run) after one more item is
//! appended — the same work at both sizes.

use criterion::{BenchmarkId, Criterion};

use xqib_appserver::xmldb::{DurabilityConfig, XmlDb};
use xqib_bench::criterion as crit;
use xqib_dom::QName;
use xqib_storage::{content_digest, crc32, fnv1a, Checkpoint, VirtualDisk};

const OPS: usize = 200;

fn corpus() -> String {
    let items: String = (0..50)
        .map(|i| format!("<item id=\"i{i}\"><v>t{i}</v></item>"))
        .collect();
    format!("<db>{items}</db>")
}

fn queries() -> Vec<String> {
    (0..OPS)
        .map(|k| match k % 3 {
            0 => format!("insert node <e{k}>x{k}</e{k}> into (doc('db.xml')/*)[1]"),
            1 => format!(
                "replace value of node (doc('db.xml')//item[@id='i{}']/v)[1] with 'w{k}'",
                k % 50
            ),
            _ => format!("insert node attribute a{k} {{'v{k}'}} into (doc('db.xml')/*)[1]"),
        })
        .collect()
}

fn run_batch(db: &mut XmlDb, queries: &[String]) {
    for q in queries {
        db.query(q).unwrap();
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_apply");
    let corpus = corpus();
    let queries = queries();
    // no auto-checkpoint: the log keeps all 200 ops, so `recover` replays
    // a real suffix rather than reading one snapshot
    let cfg = DurabilityConfig {
        group_commit: 1,
        checkpoint_threshold: 0,
    };

    group.bench_with_input(BenchmarkId::new("200_ops", "durable"), &(), |b, _| {
        b.iter(|| {
            let mut db = XmlDb::durable(VirtualDisk::new(), cfg);
            db.load("db.xml", &corpus).unwrap();
            run_batch(&mut db, &queries);
            db.committed_seq()
        });
    });

    // a fully committed image to recover from, built once
    let disk = VirtualDisk::new();
    let mut db = XmlDb::durable(disk.clone(), cfg);
    db.load("db.xml", &corpus).unwrap();
    run_batch(&mut db, &queries);
    db.commit().unwrap();
    drop(db);
    group.bench_with_input(BenchmarkId::new("200_ops", "recover"), &(), |b, _| {
        b.iter(|| {
            let image = disk.clone_image();
            let recovered = XmlDb::recover(image, cfg).unwrap();
            // each op journals a record frame plus a digest frame
            assert_eq!(recovered.committed_seq(), 2 * (OPS + 1) as u64);
            recovered.committed_seq()
        });
    });

    let mut body = String::from("<db>");
    for i in 0.. {
        if body.len() >= 300 * 1024 {
            break;
        }
        body.push_str(&format!("<item id=\"i{i}\"><v>t{i} &amp; é</v></item>"));
    }
    body.push_str("</db>");
    group.bench_with_input(BenchmarkId::new("kernels_300k", "crc32"), &(), |b, _| {
        b.iter(|| crc32(body.as_bytes()));
    });
    group.bench_with_input(
        BenchmarkId::new("kernels_300k", "content_digest"),
        &(),
        |b, _| b.iter(|| content_digest("db.xml", &body)),
    );
    group.bench_with_input(BenchmarkId::new("kernels_300k", "utf8"), &(), |b, _| {
        b.iter(|| std::str::from_utf8(std::hint::black_box(body.as_bytes())).is_ok());
    });
    group.bench_with_input(BenchmarkId::new("kernels_300k", "fnv1a"), &(), |b, _| {
        b.iter(|| fnv1a(body.as_bytes()));
    });
    let doc = xqib_dom::parse_document(&body).unwrap();
    group.bench_with_input(BenchmarkId::new("tree_digest", "full_300k"), &(), |b, _| {
        b.iter(|| {
            doc.forget_hashes();
            doc.tree_hash()
        })
    });
    for (label, items) in [("append_1k", 1_000), ("append_10k", 10_000)] {
        let xml: String = (0..items)
            .map(|i| format!("<item id=\"{i:05}\"/>"))
            .collect();
        let mut cart = xqib_dom::parse_document(&format!("<cart>{xml}</cart>")).unwrap();
        let top = cart.children(cart.root())[0];
        let base = cart.children(top).to_vec();
        // as many spare items as the cart holds: a run appends them one by
        // one, then restores the cart to its own items in one write (one
        // refold of them all, spread over as many appends)
        let spare: Vec<_> = (0..items)
            .map(|_| cart.create_element(QName::local("item")))
            .collect();
        cart.tree_hash();
        let mut k = 0usize;
        group.bench_with_input(BenchmarkId::new("tree_digest", label), &(), |b, _| {
            b.iter(|| {
                let item = spare[k % items];
                // a fresh id, so the item is hashed anew
                cart.set_attribute(item, QName::local("id"), format!("{:05}", k % 100_000))
                    .unwrap();
                cart.append_child(top, item).unwrap();
                let digest = cart.tree_hash();
                k += 1;
                if k.is_multiple_of(items) {
                    cart.restore_children(top, &base).unwrap();
                }
                digest
            })
        });
    }
    let slot_disk = VirtualDisk::new();
    Checkpoint {
        gen: 1,
        seq: 1,
        docs: vec![("db.xml".to_string(), body.clone())],
    }
    .write(&slot_disk)
    .unwrap();
    group.bench_with_input(
        BenchmarkId::new("kernels_300k", "slot_verify"),
        &(),
        |b, _| {
            b.iter(|| {
                let verdicts = Checkpoint::slot_verdicts(&slot_disk);
                assert!(verdicts.is_empty());
                verdicts.len()
            });
        },
    );
    group.finish();
}

fn main() {
    let mut c = crit();
    bench(&mut c);
    c.final_summary();
}
