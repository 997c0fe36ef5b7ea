//! Dual-slot document snapshots.
//!
//! A checkpoint is a full serialization of every bound document plus the
//! WAL sequence number it covers. Two slots (`ckpt.0` / `ckpt.1`) are
//! written alternately by generation parity, so a crash mid-write can
//! only destroy the slot being replaced — the previous generation stays
//! intact in the other slot. [`Checkpoint::read_latest`] picks the valid
//! slot with the highest generation.
//!
//! Slot layout, format `XQCKPT4` (little-endian):
//!
//! ```text
//! ┌───────────────┬──────────────┬─────────┬─────────┬───────────┬──────────────────────┐
//! │ magic 8 bytes │ checksum u64 │ gen u64 │ seq u64 │ count u32 │ count × (uri, xml)   │
//! └───────────────┴──────────────┴─────────┴─────────┴───────────┴──────────────────────┘
//! ```
//!
//! Strings are u32-length-prefixed UTF-8; `checksum` is the
//! [`lane_checksum`] of everything after itself. Each byte of a slot is
//! checked once, by that one kernel: any change within one 8-byte word
//! always changes it. One verify routine checks the magic, the checksum,
//! every length and every entry's UTF-8 over the slot bytes in place,
//! and refuses the slot on any mismatch.
//! [`Checkpoint::decode`] runs it before it builds the documents;
//! [`Checkpoint::slot_verdicts`] runs it alone, for the scrubber.

use crate::disk::{DiskError, VirtualDisk};
use crate::{lane_checksum, IntegrityError};

const MAGIC: &[u8; 8] = b"XQCKPT4\0";

/// Magic plus checksum: the bytes before the checked body.
const HEADER: usize = 16;

/// The two alternating snapshot slots.
pub const CKPT_SLOTS: [&str; 2] = ["ckpt.0", "ckpt.1"];

/// A document-store snapshot covering WAL records with `seq <=` [`Checkpoint::seq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotone generation; the slot written is `gen % 2`.
    pub gen: u64,
    /// Highest WAL sequence number absorbed by this snapshot.
    pub seq: u64,
    /// `(uri, serialized xml)` for every bound document, sorted by URI.
    pub docs: Vec<(String, String)>,
}

impl Checkpoint {
    /// Encodes this snapshot into the self-checking slot format (magic +
    /// checksum + body). Also the unit of snapshot shipping: a replica
    /// that has fallen off the leader's WAL receives these bytes and
    /// installs them as its own checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let len = self
            .docs
            .iter()
            .map(|(u, x)| 8 + u.len() + x.len())
            .sum::<usize>();
        let mut out = Vec::with_capacity(HEADER + 20 + len);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 8]); // the checksum, once the body is in
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.docs.len() as u32).to_le_bytes());
        for (uri, xml) in &self.docs {
            out.extend_from_slice(&(uri.len() as u32).to_le_bytes());
            out.extend_from_slice(uri.as_bytes());
            out.extend_from_slice(&(xml.len() as u32).to_le_bytes());
            out.extend_from_slice(xml.as_bytes());
        }
        let checksum = lane_checksum(&out[HEADER..]);
        out[8..HEADER].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a snapshot, verifying magic, checksum, lengths and UTF-8
    /// first. `None` means the bytes are torn, corrupt or not a
    /// checkpoint — never a panic.
    pub fn decode(data: &[u8]) -> Option<Checkpoint> {
        let v = verify(data)?;
        Some(Checkpoint {
            gen: v.gen,
            seq: v.seq,
            docs: v
                .docs
                .into_iter()
                .map(|(uri, xml)| (uri.to_string(), xml.to_string()))
                .collect(),
        })
    }

    /// Writes this snapshot to its generation's slot and fsyncs it.
    pub fn write(&self, disk: &VirtualDisk) -> Result<(), DiskError> {
        let out = self.encode();
        let slot = CKPT_SLOTS[(self.gen % 2) as usize];
        disk.write_file(slot, &out);
        disk.sync(slot)
    }

    /// Reads the newest intact snapshot, if any slot holds one.
    pub fn read_latest(disk: &VirtualDisk) -> Option<Checkpoint> {
        Self::read_latest_verified(disk).0
    }

    /// Reads the newest intact snapshot and reports a typed verdict for
    /// every slot that held bytes but failed verification. When *every*
    /// written slot is corrupt the verdicts end with
    /// [`IntegrityError::AllCheckpointSlotsCorrupt`] — the alarm case a
    /// recovery path must surface rather than silently starting empty.
    pub fn read_latest_verified(disk: &VirtualDisk) -> (Option<Checkpoint>, Vec<IntegrityError>) {
        read_slots(disk, |data| Self::decode(data).map(|c| (c.gen, c)))
    }

    /// The verdicts of [`read_latest_verified`](Self::read_latest_verified)
    /// alone: each slot verified over the disk's bytes in place, building
    /// no document. The scrubber's slot probe.
    pub fn slot_verdicts(disk: &VirtualDisk) -> Vec<IntegrityError> {
        read_slots(disk, |data| verify(data).map(|v| (v.gen, ()))).1
    }
}

/// Opens every written slot with `open`, which yields the slot's
/// generation and payload or `None` for a corrupt slot: the newest payload
/// (ties keep the first slot), and a typed verdict per corrupt slot,
/// ending with [`IntegrityError::AllCheckpointSlotsCorrupt`] when no
/// written slot opened.
fn read_slots<T>(
    disk: &VirtualDisk,
    open: impl Fn(&[u8]) -> Option<(u64, T)>,
) -> (Option<T>, Vec<IntegrityError>) {
    let mut best: Option<(u64, T)> = None;
    let mut verdicts = Vec::new();
    let mut written = 0usize;
    for (i, slot) in CKPT_SLOTS.iter().enumerate() {
        let opened = disk.with_file(slot, |data| (!data.is_empty()).then(|| open(data)));
        let Some(Some(opened)) = opened else {
            continue;
        };
        written += 1;
        match opened {
            Some((gen, payload)) => {
                if best.as_ref().is_none_or(|(g, _)| gen > *g) {
                    best = Some((gen, payload));
                }
            }
            None => verdicts.push(IntegrityError::CheckpointSlotCorrupt { slot: i }),
        }
    }
    if best.is_none() && written > 0 && verdicts.len() == written {
        verdicts.push(IntegrityError::AllCheckpointSlotsCorrupt);
    }
    (best.map(|(_, payload)| payload), verdicts)
}

/// A slot image that passed every check, its entries borrowed from it.
struct Verified<'a> {
    gen: u64,
    seq: u64,
    docs: Vec<(&'a str, &'a str)>,
}

/// The one slot check: magic, checksum, every length in bounds, every
/// entry valid UTF-8, and no trailing bytes. Reads the image in place.
fn verify(data: &[u8]) -> Option<Verified<'_>> {
    if data.len() < HEADER || &data[..8] != MAGIC {
        return None;
    }
    let checksum = u64::from_le_bytes(data[8..HEADER].try_into().ok()?);
    let body = &data[HEADER..];
    if lane_checksum(body) != checksum {
        return None;
    }
    let mut pos = 0usize;
    let mut take = |n: usize| {
        let bytes = body.get(pos..pos.checked_add(n)?)?;
        pos += n;
        Some(bytes)
    };
    let gen = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let seq = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let count = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    let mut docs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let ulen = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let uri = std::str::from_utf8(take(ulen)?).ok()?;
        let xlen = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let xml = std::str::from_utf8(take(xlen)?).ok()?;
        docs.push((uri, xml));
    }
    (pos == body.len()).then_some(Verified { gen, seq, docs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(gen: u64, seq: u64, docs: &[(&str, &str)]) -> Checkpoint {
        Checkpoint {
            gen,
            seq,
            docs: docs
                .iter()
                .map(|(u, x)| (u.to_string(), x.to_string()))
                .collect(),
        }
    }

    /// A slot image of `body` with the right magic and checksum.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&lane_checksum(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn write_read_round_trips() {
        let disk = VirtualDisk::new();
        let c = ckpt(1, 7, &[("a.xml", "<a/>"), ("b.xml", "<b>hi</b>")]);
        c.write(&disk).unwrap();
        assert_eq!(Checkpoint::read_latest(&disk), Some(c));
    }

    #[test]
    fn empty_disk_has_no_checkpoint() {
        assert_eq!(Checkpoint::read_latest(&VirtualDisk::new()), None);
    }

    #[test]
    fn newer_generation_wins_across_slots() {
        let disk = VirtualDisk::new();
        ckpt(1, 3, &[("a.xml", "<a/>")]).write(&disk).unwrap(); // slot 1
        ckpt(2, 9, &[("a.xml", "<a2/>")]).write(&disk).unwrap(); // slot 0
        let latest = Checkpoint::read_latest(&disk).unwrap();
        assert_eq!((latest.gen, latest.seq), (2, 9));
        assert_eq!(latest.docs[0].1, "<a2/>");
    }

    #[test]
    fn corrupt_newer_slot_falls_back_to_the_older_one() {
        let disk = VirtualDisk::new();
        ckpt(1, 3, &[("a.xml", "<a/>")]).write(&disk).unwrap();
        ckpt(2, 9, &[("a.xml", "<a2/>")]).write(&disk).unwrap();
        // corrupt gen-2's slot (slot 0) mid-body
        let slot = CKPT_SLOTS[0];
        let mut data = disk.read(slot).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        disk.write_file(slot, &data);
        let latest = Checkpoint::read_latest(&disk).unwrap();
        assert_eq!((latest.gen, latest.seq), (1, 3), "falls back to gen 1");
    }

    #[test]
    fn both_slots_corrupt_is_a_clean_none_never_a_panic() {
        let disk = VirtualDisk::new();
        ckpt(1, 3, &[("a.xml", "<a/>")]).write(&disk).unwrap();
        ckpt(2, 9, &[("a.xml", "<a2/>")]).write(&disk).unwrap();
        for slot in CKPT_SLOTS {
            let mut data = disk.read(slot).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0xff;
            disk.write_file(slot, &data);
        }
        assert_eq!(
            Checkpoint::read_latest(&disk),
            None,
            "two corrupt slots recover to an empty store, not a panic"
        );
    }

    #[test]
    fn garbage_slots_of_every_shape_decode_to_none() {
        // torn magic, short file, truncated body, bogus interior lengths:
        // none of these may panic or return a checkpoint
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"XQ".to_vec(),
            b"XQCKPT4\0".to_vec(),
            b"XQCKPT4\0\x01\x02\x03".to_vec(),
            b"NOTMAGIC________________".to_vec(),
            {
                // valid frame truncated mid-body
                let full = ckpt(4, 2, &[("a.xml", "<a/>")]).encode();
                full[..full.len() - 3].to_vec()
            },
            {
                // checksum fixed up over a body whose doc length points
                // past the end: decode must refuse the lengths, not
                // overread
                let mut body = Vec::new();
                body.extend_from_slice(&7u64.to_le_bytes());
                body.extend_from_slice(&7u64.to_le_bytes());
                body.extend_from_slice(&1u32.to_le_bytes());
                body.extend_from_slice(&999u32.to_le_bytes());
                body.extend_from_slice(b"short");
                sealed(&body)
            },
            // checksum fixed up over a body that is not UTF-8
            sealed(&{
                let mut body = ckpt(1, 2, &[("a.xml", "<a/>")]).encode()[HEADER..].to_vec();
                let at = body.len() - 2;
                body[at] = 0xff;
                body
            }),
            // and over one with a byte past its last entry
            sealed(&{
                let mut body = ckpt(1, 2, &[("a.xml", "<a/>")]).encode()[HEADER..].to_vec();
                body.push(0);
                body
            }),
        ];
        for (i, data) in cases.iter().enumerate() {
            assert_eq!(Checkpoint::decode(data), None, "case {i} must be None");
            let disk = VirtualDisk::new();
            disk.write_file(CKPT_SLOTS[0], data);
            assert_eq!(Checkpoint::read_latest(&disk), None, "case {i} via slot");
        }
    }

    #[test]
    fn generation_tie_picks_slot_zero_deterministically() {
        // Two slots claiming the same generation cannot arise from the
        // alternating writer (gen parity picks the slot), but a byte-copied
        // disk image can produce one. The reader must stay deterministic:
        // strict `>` keeps the first intact slot scanned, i.e. slot 0.
        let disk = VirtualDisk::new();
        let in_slot0 = ckpt(2, 9, &[("a.xml", "<from-slot-0/>")]);
        let in_slot1 = ckpt(2, 9, &[("a.xml", "<from-slot-1/>")]);
        in_slot0.write(&disk).unwrap(); // gen 2 -> slot 0
                                        // forge the same generation into slot 1
        disk.write_file(CKPT_SLOTS[1], &in_slot1.encode());
        disk.sync(CKPT_SLOTS[1]).unwrap();
        let picked = Checkpoint::read_latest(&disk).unwrap();
        assert_eq!(picked.docs[0].1, "<from-slot-0/>", "ties keep slot 0");
        // and the tie-break is stable across repeated reads
        assert_eq!(Checkpoint::read_latest(&disk).unwrap(), picked);
    }

    #[test]
    fn encode_decode_round_trips_for_snapshot_shipping() {
        let c = ckpt(5, 42, &[("a.xml", "<a/>"), ("b.xml", "<b>x</b>")]);
        assert_eq!(Checkpoint::decode(&c.encode()), Some(c));
    }

    /// Every single flipped bit and every 2-byte burst of a small slot —
    /// in the magic, the checksum, a length, a name or a body — is
    /// refused by the decoder and reported by the scrubber's probe.
    #[test]
    fn every_bit_flip_and_two_byte_burst_is_refused() {
        let slot = ckpt(3, 8, &[("a.xml", "<a>x</a>"), ("bb.xml", "<b é='1'/>")]).encode();
        let refused = |data: &[u8]| {
            let disk = VirtualDisk::new();
            disk.write_file(CKPT_SLOTS[0], data);
            Checkpoint::decode(data).is_none()
                && Checkpoint::slot_verdicts(&disk)
                    == vec![
                        IntegrityError::CheckpointSlotCorrupt { slot: 0 },
                        IntegrityError::AllCheckpointSlotsCorrupt,
                    ]
        };
        assert!(!refused(&slot), "the intact slot opens");
        let mut data = slot.clone();
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert!(refused(&data), "flip of bit {bit} accepted");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        for at in 0..data.len() - 1 {
            for pattern in [[0xff, 0xff], [0x01, 0x80], [0x80, 0x01], [0x5a, 0xa5]] {
                data[at] ^= pattern[0];
                data[at + 1] ^= pattern[1];
                assert!(refused(&data), "burst {pattern:02x?} at byte {at} accepted");
                data[at] ^= pattern[0];
                data[at + 1] ^= pattern[1];
            }
        }
    }

    #[test]
    fn verified_read_reports_slot_verdicts() {
        let disk = VirtualDisk::new();
        // nothing written: no checkpoint, no verdicts
        let (none, verdicts) = Checkpoint::read_latest_verified(&disk);
        assert_eq!(none, None);
        assert!(verdicts.is_empty());
        // one good slot, one corrupt: the good one wins, the bad one is named
        ckpt(1, 3, &[("a.xml", "<a/>")]).write(&disk).unwrap(); // slot 1
        ckpt(2, 9, &[("a.xml", "<a2/>")]).write(&disk).unwrap(); // slot 0
        let mut data = disk.read(CKPT_SLOTS[0]).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        disk.write_file(CKPT_SLOTS[0], &data);
        let (best, verdicts) = Checkpoint::read_latest_verified(&disk);
        assert_eq!(best.unwrap().gen, 1);
        assert_eq!(
            verdicts,
            vec![IntegrityError::CheckpointSlotCorrupt { slot: 0 }]
        );
        // both corrupt: the verdicts end with the alarm
        let mut data = disk.read(CKPT_SLOTS[1]).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        disk.write_file(CKPT_SLOTS[1], &data);
        let (best, verdicts) = Checkpoint::read_latest_verified(&disk);
        assert_eq!(best, None);
        assert_eq!(
            verdicts,
            vec![
                IntegrityError::CheckpointSlotCorrupt { slot: 0 },
                IntegrityError::CheckpointSlotCorrupt { slot: 1 },
                IntegrityError::AllCheckpointSlotsCorrupt,
            ]
        );
    }

    #[test]
    fn torn_snapshot_write_keeps_the_previous_generation() {
        let disk = VirtualDisk::new();
        // gen 2 lands in slot 0; then simulate a crash mid-write of gen 3
        // into slot 1: write without sync
        ckpt(2, 5, &[("a.xml", "<a/>")]).write(&disk).unwrap();
        let c3 = ckpt(3, 11, &[("a.xml", "<a3/>"), ("b.xml", "<b/>")]);
        let slot = CKPT_SLOTS[1];
        disk.write_file(slot, b"XQCKPT1\0garbage-that-never-synced");
        disk.crash();
        let _ = c3; // never durably written
        let latest = Checkpoint::read_latest(&disk).unwrap();
        assert_eq!(latest.gen, 2, "prior generation survives the torn write");
    }
}
