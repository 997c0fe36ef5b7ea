//! # xqib-storage
//!
//! Crash-consistent persistence for the server tier, in the same
//! deterministic-simulation style as the virtual network (PR 2) and the
//! engine crash points (PR 3): everything here is reproducible from a
//! single `u64` seed.
//!
//! * [`VirtualDisk`] — an in-memory file device that distinguishes written
//!   from *synced* bytes and simulates power loss: on [`VirtualDisk::crash`]
//!   the unsynced tail of every file survives only as a torn prefix, with
//!   seeded bit corruption, per the installed [`StorageFaultPlan`].
//! * [`Wal`] — an append-only redo log of length-prefixed, CRC-checked,
//!   sequence-numbered frames. Replay stops at the first bad frame (torn
//!   tail, CRC mismatch, sequence break): the **prefix-durability
//!   contract** — recovery yields exactly the state of some frame boundary,
//!   never a torn or corrupted state.
//! * [`Checkpoint`] — dual-slot, generation-numbered, CRC-guarded document
//!   snapshots. A checkpoint records the WAL sequence it covers so the log
//!   can be truncated afterwards, and so that replay after a crash between
//!   checkpoint and truncate skips already-absorbed records (idempotent
//!   recovery).

pub mod checkpoint;
pub mod disk;
pub mod wal;

pub use checkpoint::{Checkpoint, CKPT_SLOTS};
pub use disk::{DiskError, DiskStats, StorageFaultPlan, VirtualDisk};
pub use wal::{ShippedFrame, Wal, WalBreak, WalRecord, WalReplay, WAL_FILE};

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `CRC32_TABLE[i]` is the CRC register after shifting byte `i` through the
/// eight bitwise steps, so [`crc32`] does one lookup per byte instead.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) — the frame and snapshot checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a over a byte string — the workspace's standard content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finaliser — the workspace's standard bit mixer.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end content digest of one document binding: FNV-1a over the URI
/// chained with FNV-1a over the canonical serialization, finished with the
/// splitmix64 mixer. Recorded in WAL digest frames and checkpoint entries
/// so replicas can cross-check state without shipping bodies, and so a
/// read path can refuse to serve bytes that no longer hash to what was
/// acknowledged.
pub fn content_digest(uri: &str, xml: &str) -> u64 {
    mix64(fnv1a(uri.as_bytes()) ^ mix64(fnv1a(xml.as_bytes())))
}

/// Typed verdict of an integrity check over a WAL or checkpoint read.
/// Distinguishes the *expected* crash shape (a torn tail, which replay
/// truncates) from silent damage inside the durable prefix (an alarm: no
/// legal crash produces it, so a platter or replication fault did).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// Bytes past the last intact frame that never formed one — the
    /// expected shape after a crash mid-append.
    TornWalTail { at: usize },
    /// Damage strictly inside the durable prefix: a fully-present frame
    /// failed its CRC, re-used a sequence number, or carried a payload
    /// that no longer decodes.
    WalCorruption { at: usize, reason: WalBreak },
    /// A checkpoint slot was present but failed magic/CRC/digest checks.
    CheckpointSlotCorrupt { slot: usize },
    /// Every written checkpoint slot is corrupt — recovery has no snapshot
    /// to stand on and degrades to the WAL alone.
    AllCheckpointSlotsCorrupt,
    /// A document's content digest did not match its recorded value.
    DigestMismatch { uri: String, want: u64, got: u64 },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::TornWalTail { at } => {
                write!(f, "torn WAL tail past byte {at}")
            }
            IntegrityError::WalCorruption { at, reason } => {
                write!(f, "WAL corruption at byte {at}: {reason:?}")
            }
            IntegrityError::CheckpointSlotCorrupt { slot } => {
                write!(f, "checkpoint slot {slot} is corrupt")
            }
            IntegrityError::AllCheckpointSlotsCorrupt => {
                write!(f, "every checkpoint slot is corrupt")
            }
            IntegrityError::DigestMismatch { uri, want, got } => {
                write!(
                    f,
                    "digest mismatch for {uri}: want {want:016x}, got {got:016x}"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Durability counters the server tier surfaces through `ServerMetrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Redo records appended to the WAL.
    pub wal_appends: u64,
    /// Successful WAL fsyncs (group commits).
    pub fsyncs: u64,
    /// Checkpoints written (each truncates the WAL).
    pub checkpoints: u64,
    /// Recoveries performed over the disk image.
    pub recoveries: u64,
    /// Recoveries that dropped a torn/corrupt WAL tail.
    pub torn_tails_dropped: u64,
    /// Recoveries that found every written checkpoint slot corrupt and had
    /// to rebuild from the WAL alone.
    pub ckpt_slots_lost: u64,
    /// Mid-prefix WAL damage (CRC/decode failure on a fully-present frame)
    /// seen during recovery — never a legal crash shape.
    pub wal_corruptions: u64,
    /// Recovered documents whose content digest disagreed with the digest
    /// recorded in the WAL.
    pub recovery_digest_mismatches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise definition the table is derived from; [`crc32`] must
    /// agree with it on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        #[test]
        fn crc32_table_agrees_with_bitwise(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }
}
