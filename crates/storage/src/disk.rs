//! The virtual storage device: named in-memory files with explicit sync
//! semantics and seeded crash faults.
//!
//! The model mirrors what a journaling store can actually rely on from a
//! POSIX file system:
//!
//! * bytes **synced** by a successful `fsync` survive a crash intact;
//! * bytes written but not yet synced survive only as an arbitrary *torn*
//!   prefix, possibly with flipped bits (in-flight sectors);
//! * `fsync` itself can fail after persisting only part of the outstanding
//!   data (a *partial fsync*) — the caller must not treat the batch as
//!   committed.
//!
//! All fault draws come from one SplitMix64 stream seeded by
//! [`StorageFaultPlan::seed`], so a whole crash-restart schedule is
//! reproducible from a single `u64`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::{fnv1a, mix64};

/// Sector granularity for corruption draws (one draw per sector).
const SECTOR: usize = 64;

/// A storage-layer failure surfaced to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// `fsync` failed; only `persisted` of the outstanding bytes reached
    /// the platter. The batch must not be acknowledged as committed.
    SyncFailed { file: String, persisted: usize },
    /// The named file does not exist.
    NoSuchFile(String),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::SyncFailed { file, persisted } => {
                write!(f, "fsync({file}) failed after persisting {persisted} bytes")
            }
            DiskError::NoSuchFile(name) => write!(f, "no such file: {name}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A deterministic storage-fault schedule, reproducible from `seed`.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultPlan {
    pub seed: u64,
    /// ‰ of `sync` calls that fail after persisting a random prefix of the
    /// outstanding bytes (partial fsync).
    pub sync_fail_permille: u16,
    /// ‰ of *unsynced* surviving sectors that take a bit flip on crash.
    /// Safe with respect to the prefix-durability contract: the WAL CRC
    /// rejects the frame and replay stops there.
    pub corrupt_permille: u16,
    /// ‰ of **synced** sectors corrupted on crash. This violates the fsync
    /// contract (a failing platter), so it is off by default; recovery
    /// degrades to the longest valid prefix instead of crashing.
    pub corrupt_synced_permille: u16,
    /// ‰ of at-rest **synced** sectors that take a latent bit flip per
    /// elapsed decay period (see [`decay_period_ms`](Self::decay_period_ms))
    /// when [`VirtualDisk::decay_at`] is driven on the virtual clock. This
    /// is silent bit rot: corruption appears *without* a crash, which is
    /// what scrubbing exists to catch. Off by default.
    pub decay_permille: u16,
    /// Virtual-time length of one decay period; `0` means the default
    /// (100 ms). Each elapsed period rolls one independent seeded draw per
    /// synced sector, so decay is a pure function of (seed, file layout,
    /// elapsed periods) — independent of the crash/sync draw stream.
    pub decay_period_ms: u64,
}

impl StorageFaultPlan {
    pub fn seeded(seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            ..Default::default()
        }
    }

    pub fn with_sync_fail_permille(mut self, permille: u16) -> Self {
        self.sync_fail_permille = permille;
        self
    }

    pub fn with_corrupt_permille(mut self, permille: u16) -> Self {
        self.corrupt_permille = permille;
        self
    }

    pub fn with_corrupt_synced_permille(mut self, permille: u16) -> Self {
        self.corrupt_synced_permille = permille;
        self
    }

    pub fn with_decay_permille(mut self, permille: u16) -> Self {
        self.decay_permille = permille;
        self
    }

    pub fn with_decay_period_ms(mut self, period_ms: u64) -> Self {
        self.decay_period_ms = period_ms;
        self
    }
}

/// Device counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DiskStats {
    pub writes: u64,
    pub bytes_written: u64,
    pub syncs: u64,
    pub sync_failures: u64,
    pub crashes: u64,
    /// Unsynced bytes lost to tearing across all crashes.
    pub torn_bytes_dropped: u64,
    /// Sectors hit by a corruption draw across all crashes.
    pub sectors_corrupted: u64,
    /// Decay periods swept by [`VirtualDisk::decay_at`].
    pub decay_sweeps: u64,
    /// Synced at-rest sectors hit by a latent decay flip.
    pub sectors_decayed: u64,
}

#[derive(Debug, Default, Clone)]
struct File {
    data: Vec<u8>,
    /// Bytes guaranteed durable (covered by a successful or partial fsync).
    synced_len: usize,
}

#[derive(Debug, Default, Clone)]
struct Inner {
    files: BTreeMap<String, File>,
    plan: StorageFaultPlan,
    /// Monotone fault-draw counter: each decision consumes one draw.
    draws: u64,
    /// Last decay period applied by `decay_at` (periods are cumulative).
    last_decay_bucket: u64,
    stats: DiskStats,
}

impl Inner {
    fn draw(&mut self) -> u64 {
        let x = self.plan.seed ^ self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.draws += 1;
        mix64(x)
    }

    fn permille_hit(&mut self, permille: u16) -> bool {
        permille > 0 && (self.draw() % 1000) < permille as u64
    }
}

/// A cheaply clonable handle to one virtual device (all clones share state,
/// like file descriptors onto one disk).
#[derive(Debug, Clone, Default)]
pub struct VirtualDisk {
    inner: Rc<RefCell<Inner>>,
}

impl VirtualDisk {
    /// A fault-free disk (still crash-able: unsynced tails are torn).
    pub fn new() -> Self {
        VirtualDisk::default()
    }

    pub fn with_plan(plan: StorageFaultPlan) -> Self {
        let disk = VirtualDisk::new();
        disk.inner.borrow_mut().plan = plan;
        disk
    }

    pub fn set_plan(&self, plan: StorageFaultPlan) {
        self.inner.borrow_mut().plan = plan;
    }

    /// A deep copy of the device (independent state, unlike [`Clone`],
    /// which shares it) — probe the same pre-crash image under many fault
    /// seeds.
    pub fn clone_image(&self) -> VirtualDisk {
        VirtualDisk {
            inner: Rc::new(RefCell::new(self.inner.borrow().clone())),
        }
    }

    /// Appends bytes to a file (created on first write). Appended bytes are
    /// *not* durable until [`sync`](Self::sync) succeeds.
    pub fn append(&self, name: &str, bytes: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.writes += 1;
        inner.stats.bytes_written += bytes.len() as u64;
        inner
            .files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(bytes);
    }

    /// Replaces a file's contents entirely. Nothing of the new content is
    /// durable until the next successful [`sync`](Self::sync).
    pub fn write_file(&self, name: &str, bytes: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.writes += 1;
        inner.stats.bytes_written += bytes.len() as u64;
        let file = inner.files.entry(name.to_string()).or_default();
        file.data = bytes.to_vec();
        file.synced_len = 0;
    }

    /// Flushes a file to the platter. On a seeded partial-fsync fault, a
    /// random prefix of the outstanding bytes persists and the call fails —
    /// the caller must not acknowledge the batch.
    pub fn sync(&self, name: &str) -> Result<(), DiskError> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.syncs += 1;
        let sync_fail_permille = inner.plan.sync_fail_permille;
        let fail = inner.permille_hit(sync_fail_permille);
        let partial_draw = inner.draw();
        let Some(file) = inner.files.get_mut(name) else {
            return Err(DiskError::NoSuchFile(name.to_string()));
        };
        let outstanding = file.data.len() - file.synced_len;
        if fail {
            let kept = if outstanding == 0 {
                0
            } else {
                (partial_draw % (outstanding as u64 + 1)) as usize
            };
            file.synced_len += kept;
            let persisted = file.synced_len;
            inner.stats.sync_failures += 1;
            Err(DiskError::SyncFailed {
                file: name.to_string(),
                persisted,
            })
        } else {
            file.synced_len = file.data.len();
            Ok(())
        }
    }

    /// Current contents (what a reader sees *before* any crash).
    pub fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.borrow().files.get(name).map(|f| f.data.clone())
    }

    pub fn len(&self, name: &str) -> usize {
        self.inner
            .borrow()
            .files
            .get(name)
            .map_or(0, |f| f.data.len())
    }

    pub fn is_empty(&self, name: &str) -> bool {
        self.len(name) == 0
    }

    pub fn exists(&self, name: &str) -> bool {
        self.inner.borrow().files.contains_key(name)
    }

    /// Shrinks a file to `len` bytes (dropping a scanned-off torn tail).
    /// Modeled as atomic, like `ftruncate` on a journaling file system.
    pub fn truncate_to(&self, name: &str, len: usize) {
        let mut inner = self.inner.borrow_mut();
        if let Some(file) = inner.files.get_mut(name) {
            file.data.truncate(len);
            file.synced_len = file.synced_len.min(len);
        }
    }

    /// Empties a file (WAL truncation after a checkpoint).
    pub fn truncate(&self, name: &str) {
        self.truncate_to(name, 0);
    }

    pub fn delete(&self, name: &str) {
        self.inner.borrow_mut().files.remove(name);
    }

    /// All file names on the device, sorted.
    pub fn files(&self) -> Vec<String> {
        self.inner.borrow().files.keys().cloned().collect()
    }

    /// Simulates power loss. For every file: the unsynced tail survives
    /// only as a torn prefix of seeded length, surviving unsynced sectors
    /// take seeded bit flips, and (only if `corrupt_synced_permille` is
    /// set) synced sectors may be corrupted too. Afterwards everything on
    /// the device *is* the durable image.
    pub fn crash(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.crashes += 1;
        let names: Vec<String> = inner.files.keys().cloned().collect();
        for name in names {
            let (synced_len, data_len) = {
                let f = &inner.files[&name];
                (f.synced_len, f.data.len())
            };
            // torn write: a random prefix of the unsynced tail survives
            let tail = data_len - synced_len;
            let keep = if tail == 0 {
                0
            } else {
                (inner.draw() % (tail as u64 + 1)) as usize
            };
            let new_len = synced_len + keep;
            inner.stats.torn_bytes_dropped += (tail - keep) as u64;
            // corruption draws, one per surviving sector
            let unsynced_p = inner.plan.corrupt_permille;
            let synced_p = inner.plan.corrupt_synced_permille;
            let mut flips: Vec<(usize, u8)> = Vec::new();
            let mut sector = 0;
            while sector * SECTOR < new_len {
                let start = sector * SECTOR;
                let end = ((sector + 1) * SECTOR).min(new_len);
                // a sector straddling the sync boundary counts as unsynced,
                // but its flip is confined to the unsynced bytes — synced
                // data is sacred unless corrupt_synced_permille says so
                let (permille, flip_from) = if end > synced_len {
                    (unsynced_p, start.max(synced_len))
                } else {
                    (synced_p, start)
                };
                if inner.permille_hit(permille) {
                    let pick = inner.draw();
                    let offset = flip_from + (pick % (end - flip_from) as u64) as usize;
                    let bit = 1u8 << (pick % 8);
                    flips.push((offset, bit));
                    inner.stats.sectors_corrupted += 1;
                }
                sector += 1;
            }
            let file = inner.files.get_mut(&name).unwrap();
            file.data.truncate(new_len);
            for (offset, bit) in flips {
                file.data[offset] ^= bit;
            }
            file.synced_len = new_len;
        }
    }

    /// Advances latent bit rot to virtual time `now`. For every decay
    /// period elapsed since the last call, every **synced** at-rest sector
    /// of every file rolls one seeded draw; a hit flips one bit inside the
    /// sector's synced bytes. Unsynced tails are spared — they are already
    /// covered by the crash model, and decay is strictly an at-rest
    /// phenomenon. Deterministic: the flips are a pure function of
    /// (seed, file name, period index, sector index), independent of the
    /// crash/sync draw stream, so interleaving decay with other faults
    /// never perturbs their schedules.
    pub fn decay_at(&self, now: u64) {
        let mut inner = self.inner.borrow_mut();
        let permille = inner.plan.decay_permille;
        if permille == 0 {
            return;
        }
        let period = match inner.plan.decay_period_ms {
            0 => 100,
            p => p,
        };
        let bucket = now / period;
        let seed = inner.plan.seed;
        while inner.last_decay_bucket < bucket {
            inner.last_decay_bucket += 1;
            let b = inner.last_decay_bucket;
            inner.stats.decay_sweeps += 1;
            let names: Vec<String> = inner.files.keys().cloned().collect();
            for name in names {
                let fh = fnv1a(name.as_bytes());
                let synced_len = inner.files[&name].synced_len;
                let mut flips: Vec<(usize, u8)> = Vec::new();
                let mut sector = 0usize;
                while sector * SECTOR < synced_len {
                    let start = sector * SECTOR;
                    let end = ((sector + 1) * SECTOR).min(synced_len);
                    let draw = mix64(
                        seed ^ 0xDECA
                            ^ fh.rotate_left(17)
                            ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (sector as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                    );
                    if (draw % 1000) < permille as u64 {
                        let offset = start + ((draw >> 10) % (end - start) as u64) as usize;
                        let bit = 1u8 << ((draw >> 32) % 8);
                        flips.push((offset, bit));
                        inner.stats.sectors_decayed += 1;
                    }
                    sector += 1;
                }
                if let Some(file) = inner.files.get_mut(&name) {
                    for (offset, bit) in flips {
                        file.data[offset] ^= bit;
                    }
                }
            }
        }
    }

    pub fn stats(&self) -> DiskStats {
        self.inner.borrow().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_bytes_survive_a_crash_unsynced_tail_is_torn() {
        let disk = VirtualDisk::new();
        disk.append("f", b"committed");
        disk.sync("f").unwrap();
        disk.append("f", b"-unsynced-tail");
        disk.crash();
        let data = disk.read("f").unwrap();
        assert!(data.starts_with(b"committed"), "synced prefix intact");
        assert!(data.len() <= b"committed-unsynced-tail".len());
        assert_eq!(disk.stats().crashes, 1);
    }

    #[test]
    fn crash_outcome_is_reproducible_from_the_seed() {
        let run = |seed: u64| {
            let disk =
                VirtualDisk::with_plan(StorageFaultPlan::seeded(seed).with_corrupt_permille(500));
            disk.append("f", &[0xAA; 4096]);
            disk.sync("f").unwrap();
            disk.append("f", &[0xBB; 4096]);
            disk.crash();
            disk.read("f").unwrap()
        };
        assert_eq!(run(7), run(7), "same seed, same surviving image");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn partial_fsync_fails_and_persists_a_prefix() {
        let disk =
            VirtualDisk::with_plan(StorageFaultPlan::seeded(3).with_sync_fail_permille(1000));
        disk.append("f", b"0123456789");
        let err = disk.sync("f").unwrap_err();
        match err {
            DiskError::SyncFailed { persisted, .. } => assert!(persisted <= 10),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(disk.stats().sync_failures, 1);
        // a later, healthy sync still makes everything durable
        disk.set_plan(StorageFaultPlan::seeded(3));
        disk.sync("f").unwrap();
        disk.crash();
        assert_eq!(disk.read("f").unwrap(), b"0123456789");
    }

    #[test]
    fn write_file_replaces_and_truncate_clears() {
        let disk = VirtualDisk::new();
        disk.append("f", b"old");
        disk.sync("f").unwrap();
        disk.write_file("f", b"new-content");
        assert_eq!(disk.read("f").unwrap(), b"new-content");
        disk.truncate("f");
        assert_eq!(disk.len("f"), 0);
        assert!(disk.exists("f"));
        disk.delete("f");
        assert!(!disk.exists("f"));
        assert!(disk.read("f").is_none());
        assert_eq!(disk.sync("f"), Err(DiskError::NoSuchFile("f".into())));
    }

    #[test]
    fn corruption_hits_only_the_unsynced_region_by_default() {
        // Synced prefix must come back bit-exact even under a heavy
        // unsynced-corruption plan.
        for seed in 0..32u64 {
            let disk =
                VirtualDisk::with_plan(StorageFaultPlan::seeded(seed).with_corrupt_permille(1000));
            let synced: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
            disk.append("f", &synced);
            disk.sync("f").unwrap();
            disk.append("f", &[0xCC; 1024]);
            disk.crash();
            let data = disk.read("f").unwrap();
            assert_eq!(&data[..1024], &synced[..], "seed {seed}");
        }
    }

    #[test]
    fn clones_share_one_device() {
        let a = VirtualDisk::new();
        let b = a.clone();
        a.append("f", b"x");
        assert_eq!(b.read("f").unwrap(), b"x");
    }

    #[test]
    fn decay_corrupts_only_synced_bytes_without_a_crash() {
        let disk = VirtualDisk::with_plan(
            StorageFaultPlan::seeded(5)
                .with_decay_permille(400)
                .with_decay_period_ms(100),
        );
        let synced: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
        disk.append("f", &synced);
        disk.sync("f").unwrap();
        let tail = [0xEE; 512];
        disk.append("f", &tail);
        disk.decay_at(1_000);
        let data = disk.read("f").unwrap();
        assert_ne!(&data[..2048], &synced[..], "synced region decayed");
        assert_eq!(&data[2048..], &tail[..], "unsynced tail untouched");
        assert_eq!(data.len(), 2048 + 512, "decay never tears");
        let stats = disk.stats();
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.decay_sweeps, 10);
        assert!(stats.sectors_decayed > 0);
    }

    #[test]
    fn decay_is_reproducible_and_cumulative_across_calls() {
        let run = |steps: &[u64]| {
            let disk = VirtualDisk::with_plan(
                StorageFaultPlan::seeded(9)
                    .with_decay_permille(200)
                    .with_decay_period_ms(50),
            );
            disk.append("f", &[0x5A; 4096]);
            disk.sync("f").unwrap();
            for &t in steps {
                disk.decay_at(t);
            }
            disk.read("f").unwrap()
        };
        // one jump to t=500 equals many small advances to the same time
        assert_eq!(run(&[500]), run(&[50, 120, 300, 499, 500]));
        // and a different seed diverges
        let other = {
            let disk = VirtualDisk::with_plan(
                StorageFaultPlan::seeded(10)
                    .with_decay_permille(200)
                    .with_decay_period_ms(50),
            );
            disk.append("f", &[0x5A; 4096]);
            disk.sync("f").unwrap();
            disk.decay_at(500);
            disk.read("f").unwrap()
        };
        assert_ne!(run(&[500]), other);
    }

    #[test]
    fn decay_draws_do_not_perturb_the_crash_schedule() {
        // The same crash must tear identically whether or not decay ran
        // in between: decay uses its own draw function, not the shared
        // draw counter.
        let image = |with_decay: bool| {
            let disk = VirtualDisk::with_plan(
                StorageFaultPlan::seeded(21)
                    .with_corrupt_permille(300)
                    .with_decay_permille(0),
            );
            disk.append("f", &[1; 256]);
            disk.sync("f").unwrap();
            disk.append("f", &[2; 256]);
            if with_decay {
                // permille 0: decay_at is a no-op even when driven
                disk.decay_at(10_000);
            }
            disk.crash();
            disk.read("f").unwrap()
        };
        assert_eq!(image(false), image(true));
    }

    #[test]
    fn zero_decay_permille_never_touches_data() {
        let disk = VirtualDisk::new();
        disk.append("f", &[7; 1024]);
        disk.sync("f").unwrap();
        disk.decay_at(1_000_000);
        assert_eq!(disk.read("f").unwrap(), vec![7; 1024]);
        assert_eq!(disk.stats().decay_sweeps, 0);
    }
}
