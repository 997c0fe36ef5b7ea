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
//! * [`Checkpoint`] — dual-slot, generation-numbered document snapshots,
//!   whose header and per-document sections each carry a
//!   [`lane_checksum`], so a [`SlotCursor`] can check them a bounded
//!   slice at a time. A checkpoint records the
//!   WAL sequence it covers so the log can be truncated afterwards, and so
//!   that replay after a crash between checkpoint and truncate skips
//!   already-absorbed records (idempotent recovery).
//! * [`counters!`] — declares a struct of `/metrics` counters with each
//!   served name beside its field, for this crate's [`DurabilityStats`]
//!   and the server tier's stats.

pub mod checkpoint;
pub mod disk;
pub mod wal;

pub use checkpoint::{
    Checkpoint, SlotCursor, SlotSlice, CKPT_SLOTS, SCRUB_PASS_TICKS, SCRUB_SLICE_FLOOR,
};
pub use disk::{DiskError, DiskStats, StorageFaultPlan, VirtualDisk};
pub use wal::{ShippedFrame, Wal, WalBreak, WalRecord, WalReplay, WAL_FILE};

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables (Kounavis & Berry, ISCC 2005). `CRC32_TABLES[0][i]`
/// is the CRC register after shifting byte `i` through the eight bitwise
/// steps; `CRC32_TABLES[k][i]` is the same byte followed by `k` zero bytes.
/// So sixteen bytes fold into the register with sixteen independent
/// lookups and one XOR tree, instead of a chain of dependent lookups.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
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

/// CRC-32 (IEEE 802.3, reflected) — the WAL frame checksum.
/// Slicing-by-16: sixteen bytes per step, the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for w in &mut blocks {
        let word = |i: usize| u32::from_le_bytes([w[i], w[i + 1], w[i + 2], w[i + 3]]);
        let (a, b, c, d) = (crc ^ word(0), word(4), word(8), word(12));
        let fold = |x: u32, k: usize| {
            t[k + 3][(x & 0xFF) as usize]
                ^ t[k + 2][((x >> 8) & 0xFF) as usize]
                ^ t[k + 1][((x >> 16) & 0xFF) as usize]
                ^ t[k][(x >> 24) as usize]
        };
        crc = fold(a, 12) ^ fold(b, 8) ^ fold(c, 4) ^ fold(d, 0);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string: the hash of short keys (URIs, file names),
/// where one byte per step costs nothing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// SplitMix64 finaliser — the workspace's standard bit mixer.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keyed digest of one document binding: the URI's FNV-1a chained
/// with the [`lane_checksum`] of the serialized bytes through the
/// splitmix64 mixer. No stored format carries it (a checkpoint slot is
/// checked by one [`lane_checksum`]); perfbench's WAL probe seals with
/// it. (The state digests replicas compare are the server tier's cached
/// subtree hashes, which follow a change instead of the document.)
pub fn content_digest(uri: &str, xml: &str) -> u64 {
    mix64(fnv1a(uri.as_bytes()) ^ lane_checksum(xml.as_bytes()))
}

/// The checkpoint slot checksum: a 64-bit hash of `bytes` at memory
/// speed.
///
/// The bytes are read as little-endian 8-byte words, the last one
/// zero-padded. Four independent multiply-rotate lanes take the words in
/// turn, so a 32-byte block feeds each lane once and the four multiply
/// chains overlap instead of chaining byte by byte. The finish folds the
/// lanes and mixes in the byte length, which tells the zero padding from
/// real zero bytes. Each step is a bijection of the lane for a fixed word
/// and of the word for a fixed lane, and the finish is a bijection of
/// each lane for the others fixed, so any change confined to one word —
/// any single flipped bit, any burst within an aligned 8 bytes — always
/// changes the checksum.
pub fn lane_checksum(bytes: &[u8]) -> u64 {
    let [mut a, mut b, mut c, mut d] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        a = lane_round(a, word_at(block, 0));
        b = lane_round(b, word_at(block, 8));
        c = lane_round(c, word_at(block, 16));
        d = lane_round(d, word_at(block, 24));
    }
    // the tail's words continue the turn: a block is one word per lane
    let mut lanes = [a, b, c, d];
    for (k, word) in blocks.remainder().chunks(8).enumerate() {
        lanes[k] = lane_round(lanes[k], load_le(word));
    }
    // the next lane to take a word comes first
    lanes.rotate_left(bytes.len().div_ceil(8) % 4);
    let [a, b, c, d] = lanes;
    let body = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18));
    let len = bytes.len() as u64;
    mix64((body ^ len).wrapping_mul(P3))
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane step: multiply the word in, rotate, multiply. A bijection of
/// the lane for a fixed word and of the word for a fixed lane, so one
/// changed word always changes the lane.
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word_at(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// The little-endian value of at most 8 bytes, zero-padded.
fn load_le(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Typed verdict of an integrity check over a checkpoint read or a
/// served document. (A WAL scan classifies its own break: see
/// [`WalReplay::mid_prefix_damage`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// A checkpoint slot was present but failed its magic, checksum,
    /// length or UTF-8 checks.
    CheckpointSlotCorrupt { slot: usize },
    /// Every written checkpoint slot is corrupt — recovery has no snapshot
    /// to stand on and degrades to the WAL alone.
    AllCheckpointSlotsCorrupt,
    /// A served document's state digest did not match the one recorded
    /// for it when its update was acked.
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

            /// Adds each of `other`'s counters to this one's.
            pub fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
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
        /// Whole buffers, then every length from 0 to 33 at every start
        /// offset from 0 to 15: both sides of one and two 16-byte steps,
        /// every tail length, and words that straddle the buffer's
        /// alignment.
        #[test]
        fn crc32_table_agrees_with_bitwise(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            if bytes.len() >= 15 + 33 {
                for offset in 0..16 {
                    for len in 0..=33 {
                        let slice = &bytes[offset..offset + len];
                        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
                    }
                }
            }
        }

        #[test]
        fn lane_checksum_matches_the_lane_reference(
            uri in "[a-z./-]{0,12}",
            xml in "[a-z<>&\"é€😀 ]{0,4096}",
        ) {
            prop_assert_eq!(lane_checksum(xml.as_bytes()), mix64(lanes_reference(xml.as_bytes())));
            prop_assert_eq!(
                content_digest(&uri, &xml),
                mix64(fnv1a(uri.as_bytes()) ^ mix64(lanes_reference(xml.as_bytes())))
            );
        }
    }

    /// The body hash of [`lane_checksum`], one word at a time into the
    /// lanes by turn: the definition the block loop must reproduce.
    fn lanes_reference(bytes: &[u8]) -> u64 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for (k, word) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            lanes[k % 4] = lane_round(lanes[k % 4], u64::from_le_bytes(w));
        }
        // the queue has turned once per word: lane `words % 4` is first
        lanes.rotate_left(bytes.len().div_ceil(8) % 4);
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        (h ^ bytes.len() as u64).wrapping_mul(P3)
    }

    /// A 1 KB body: 31 whole blocks and a 29-byte tail, so flips land in
    /// block words, in whole tail words and in the zero-padded last word.
    #[test]
    fn every_bit_flip_of_a_body_changes_its_checksum() {
        let body: String = (0..1021u32)
            .map(|i| char::from(b'a' + (i * 7 % 26) as u8))
            .collect();
        let mut bytes = body.into_bytes();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(lane_checksum(&bytes)));
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                seen.insert(lane_checksum(&bytes)),
                "flip of bit {bit} collided"
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn the_byte_length_tells_zero_padding_from_zero_bytes() {
        let digests: std::collections::HashSet<u64> = (0..=40)
            .map(|n| content_digest("d.xml", &"\0".repeat(n)))
            .collect();
        assert_eq!(digests.len(), 41);
    }
}
