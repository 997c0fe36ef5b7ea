//! Crash-restart property tests: random operation sequences × random crash
//! points × random storage fault plans. The contract (prefix durability):
//!
//! 1. recovery never loses an acknowledged operation — the recovered
//!    committed sequence is ≥ the committed sequence at crash time;
//! 2. the recovered store serializes *exactly* as the live store did right
//!    after the operation the recovered sequence names — never a torn or
//!    merged state;
//! 3. recovery is idempotent — recovering the same image again (even after
//!    another crash) yields the same sequence and the same serialization.
//!
//! Deterministic CI matrix hook: `XQIB_STORAGE_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! op-sequence × crash-point × fault space while any single failure stays
//! reproducible.

use proptest::prelude::*;
use xqib_appserver::xmldb::{DurabilityConfig, XmlDb};
use xqib_storage::{StorageFaultPlan, VirtualDisk};

fn env_seed() -> u64 {
    std::env::var("XQIB_STORAGE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64, same idiom as the engine's crash-point suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One journaled operation. Every variant appends exactly one WAL record
/// plus one trailing digest frame, and always succeeds against the URIs
/// the driver has already loaded — so WAL sequences 2k-1 and 2k both name
/// the state right after `ops[k-1]` (the digest frame never mutates
/// content).
#[derive(Debug, Clone)]
enum Op {
    Load { uri: String, xml: String },
    Update { query: String },
}

/// A random plan of `len` operations over up to 3 document URIs. The first
/// operation is always a load, and updates only target loaded URIs. All
/// update targets are expressions that cannot come back empty (the root
/// element), so no operation degenerates into an empty — unjournaled —
/// pending update list.
fn gen_ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    let mut loaded: Vec<String> = Vec::new();
    for k in 0..len {
        let load_new = loaded.is_empty() || (loaded.len() < 3 && rng.below(4) == 0);
        if load_new || rng.below(5) == 0 {
            let uri = if load_new {
                format!("u{}.xml", loaded.len())
            } else {
                loaded[rng.below(loaded.len() as u64) as usize].clone()
            };
            let xml = format!("<r{k}><v>t{k}</v></r{k}>");
            if !loaded.contains(&uri) {
                loaded.push(uri.clone());
            }
            ops.push(Op::Load { uri, xml });
            continue;
        }
        let uri = &loaded[rng.below(loaded.len() as u64) as usize];
        let root = format!("(doc('{uri}')/*)[1]");
        let query = match rng.below(4) {
            0 => format!("insert node <e{k}>x{k}</e{k}> into {root}"),
            1 => format!("rename node {root} as 'n{k}'"),
            2 => format!("replace value of node {root} with 'w{k}'"),
            // attribute names carry the op index, so they never collide
            _ => format!("insert node attribute a{k} {{'v{k}'}} into {root}"),
        };
        ops.push(Op::Update { query });
    }
    ops
}

fn apply_op(db: &mut XmlDb, op: &Op) {
    match op {
        Op::Load { uri, xml } => {
            db.load(uri, xml).expect("generated load is valid");
        }
        Op::Update { query } => {
            db.query(query).expect("generated update is valid");
        }
    }
}

proptest! {
    /// The full cross product: run a random prefix of a random op plan over
    /// a faulty disk, pull the plug, recover, and check the contract.
    #[test]
    fn recovery_restores_exactly_the_last_committed_prefix(
        seed in 0u64..1_000_000,
        len in 1usize..9,
        crash_after in 0usize..9,
        group_commit in 1u64..4,
        threshold_sel in 0usize..3,
        fault_sel in 0usize..4,
    ) {
        let mixed = seed ^ env_seed();
        let mut rng = Rng(mixed);
        let ops = gen_ops(&mut rng, len);
        let crash_after = crash_after.min(ops.len());

        let plan = match fault_sel {
            0 => StorageFaultPlan::seeded(mixed),
            1 => StorageFaultPlan::seeded(mixed).with_sync_fail_permille(250),
            2 => StorageFaultPlan::seeded(mixed).with_corrupt_permille(300),
            _ => StorageFaultPlan::seeded(mixed)
                .with_sync_fail_permille(150)
                .with_corrupt_permille(150),
        };
        let cfg = DurabilityConfig {
            group_commit,
            // 0 = never checkpoint; tiny thresholds force several per run
            checkpoint_threshold: [0, 96, 2048][threshold_sel],
        };

        let disk = VirtualDisk::with_plan(plan);
        let mut db = XmlDb::durable(disk.clone(), cfg);
        // expected[s] = serialization right after WAL sequence s
        let mut expected = vec![db.dump()];
        for op in &ops[..crash_after] {
            apply_op(&mut db, op);
            expected.push(db.dump());
        }
        let committed_at_crash = db.committed_seq();
        drop(db);
        disk.crash();

        let recovered = XmlDb::recover(disk.clone(), cfg).unwrap();
        let seq = recovered.committed_seq() as usize;
        prop_assert!(
            seq >= committed_at_crash as usize,
            "lost acknowledged ops: committed {committed_at_crash}, recovered {seq}"
        );
        // each op journals a record frame + a digest frame, so sequence s
        // names the state after op ceil(s/2); a torn digest frame (odd s)
        // still lands on a whole-op state
        prop_assert!(seq <= 2 * crash_after, "recovered past the last append");
        let op_ix = seq.div_ceil(2);
        prop_assert_eq!(
            &recovered.dump(), &expected[op_ix],
            "recovered state is not the state after sequence {}", seq
        );
        // a torn digest frame leaves its document unsealed, never sealed
        // with the state before its op: every document still serves
        for (uri, _) in recovered.dump() {
            prop_assert!(
                matches!(recovered.verified_serialize(&uri), Ok(Some(_))),
                "{} refused after recovering to sequence {}", uri, seq
            );
        }
        let stats = recovered.durability_stats();
        prop_assert_eq!(stats.recoveries, 1);
        drop(recovered);

        // double recovery (after yet another crash of the now-clean image)
        // is idempotent
        disk.crash();
        let again = XmlDb::recover(disk, cfg).unwrap();
        prop_assert_eq!(again.committed_seq() as usize, seq);
        prop_assert_eq!(&again.dump(), &expected[op_ix]);
    }

    /// Fault-free runs lose nothing: with every op group-committed and no
    /// injected faults, recovery lands on the very last operation.
    #[test]
    fn clean_disks_recover_everything(seed in 0u64..1_000_000, len in 1usize..7) {
        let mixed = seed ^ env_seed();
        let ops = gen_ops(&mut Rng(mixed), len);
        let disk = VirtualDisk::new();
        let cfg = DurabilityConfig { group_commit: 1, checkpoint_threshold: 512 };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        for op in &ops {
            apply_op(&mut db, op);
        }
        let want = db.dump();
        // record frame + digest frame per op
        prop_assert_eq!(db.committed_seq(), 2 * ops.len() as u64);
        drop(db);
        disk.crash();
        let recovered = XmlDb::recover(disk, cfg).unwrap();
        prop_assert_eq!(recovered.committed_seq(), 2 * ops.len() as u64);
        prop_assert_eq!(recovered.dump(), want);
    }
}
