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
//! * [`counters!`] — declares a struct of `/metrics` counters with each
//!   served name beside its field, for this crate's [`DurabilityStats`]
//!   and the server tier's stats.

pub mod checkpoint;
pub mod disk;
pub mod wal;

pub use checkpoint::{Checkpoint, CKPT_SLOTS};
pub use disk::{DiskError, DiskStats, StorageFaultPlan, VirtualDisk};
pub use wal::{ShippedFrame, Wal, WalBreak, WalRecord, WalReplay, WAL_FILE};

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables (Kounavis & Berry, ISCC 2005). `CRC32_TABLES[0][i]`
/// is the CRC register after shifting byte `i` through the eight bitwise
/// steps; `CRC32_TABLES[k][i]` is the same byte followed by `k` zero bytes.
/// So eight bytes fold into the register with eight independent lookups
/// and one XOR tree, instead of a chain of eight dependent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) — the frame and snapshot checksum.
/// Slicing-by-8: eight bytes per step, the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a byte string — the workspace's standard content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
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
///
/// The definition is over a stream: [`ContentHasher`] takes the
/// serialization in pieces, as a serializer writes it, and this function
/// is its one-piece case.
pub fn content_digest(uri: &str, xml: &str) -> u64 {
    let mut h = ContentHasher::new(uri);
    h.update(xml);
    h.finish()
}

/// [`content_digest`] of a serialization fed piece by piece: any split of
/// the same bytes gives the same digest.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    uri: u64,
    body: u64,
}

impl ContentHasher {
    /// Starts the digest of the document bound to `uri`.
    pub fn new(uri: &str) -> Self {
        ContentHasher {
            uri: fnv1a(uri.as_bytes()),
            body: FNV_OFFSET,
        }
    }

    /// Hashes the next piece of the serialization.
    pub fn update(&mut self, piece: &str) {
        self.body = fnv1a_extend(self.body, piece.as_bytes());
    }

    /// The digest of the pieces so far.
    pub fn finish(&self) -> u64 {
        mix64(self.uri ^ mix64(self.body))
    }
}

/// Typed verdict of an integrity check over a checkpoint read or a
/// served document. (A WAL scan classifies its own break: see
/// [`WalReplay::mid_prefix_damage`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
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

/// Declares a struct of `u64` counters, each named beside its field by
/// the name `/metrics` serves it under, and its `visit`, which yields every
/// counter under that name in declaration order. One line per counter.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident: $metric:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl $name {
            /// Visits each counter under the name `/metrics` serves it by.
            pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
                $(f($metric, self.$field);)*
            }
        }
    };
}

crate::counters! {
    /// Durability counters; the server tier reads them live for `/metrics`.
    pub struct DurabilityStats {
        /// Redo records appended to the WAL.
        wal_appends: "wal-appends",
        /// Successful WAL fsyncs (group commits).
        fsyncs: "wal-fsyncs",
        /// Checkpoints written (each truncates the WAL).
        checkpoints: "checkpoints",
        /// Recoveries performed over the disk image.
        recoveries: "recoveries",
        /// Recoveries that dropped a torn/corrupt WAL tail.
        torn_tails_dropped: "torn-tails-dropped",
        /// Recoveries that found every written checkpoint slot corrupt and had
        /// to rebuild from the WAL alone.
        ckpt_slots_lost: "ckpt-slots-lost",
        /// Mid-prefix WAL damage (CRC/decode failure on a fully-present frame)
        /// seen during recovery — never a legal crash shape.
        wal_corruptions: "wal-corruptions",
        /// Recovered documents whose content digest disagreed with the digest
        /// recorded in the WAL.
        recovery_digest_mismatches: "recovery-digest-mismatches",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise definition the tables are derived from; [`crc32`] must
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
        /// Whole buffers, then every length from 0 to 17 at every start
        /// offset from 0 to 7: both sides of an 8-byte step, every tail
        /// length, and words that straddle the buffer's alignment.
        #[test]
        fn crc32_table_agrees_with_bitwise(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            if bytes.len() >= 7 + 17 {
                for offset in 0..8 {
                    for len in 0..=17 {
                        let slice = &bytes[offset..offset + len];
                        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
                    }
                }
            }
        }

        #[test]
        fn content_digest_is_split_invariant(
            uri in "[a-z./-]{0,12}",
            xml in "[a-z<>&\"é€😀 ]{0,64}",
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            // cut at char boundaries, in order
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|c| c % (xml.len() + 1))
                .filter(|&c| xml.is_char_boundary(c))
                .collect();
            at.sort_unstable();
            let mut h = ContentHasher::new(&uri);
            let mut from = 0;
            for c in at.into_iter().chain([xml.len()]) {
                h.update(&xml[from..c]);
                from = c;
            }
            prop_assert_eq!(h.finish(), content_digest(&uri, &xml));
            prop_assert_eq!(
                content_digest(&uri, &xml),
                mix64(fnv1a(uri.as_bytes()) ^ mix64(fnv1a(xml.as_bytes())))
            );
        }
    }
}
