//! Dual-slot document snapshots.
//!
//! A checkpoint is a full serialization of every bound document plus the
//! WAL sequence number it covers. Two slots (`ckpt.0` / `ckpt.1`) are
//! written alternately by generation parity, so a crash mid-write can
//! only destroy the slot being replaced — the previous generation stays
//! intact in the other slot. [`Checkpoint::read_latest`] picks the valid
//! slot with the highest generation.
//!
//! Slot layout, format `XQCKPT5` (little-endian):
//!
//! ```text
//! header:  ┌───────────────┬──────────────┬─────────┬─────────┬───────────┐
//!          │ magic 8 bytes │ checksum u64 │ gen u64 │ seq u64 │ count u32 │
//!          └───────────────┴──────────────┴─────────┴─────────┴───────────┘
//! count ×  ┌──────────────┬──────────┬─────┬──────────┬─────┐
//! section: │ checksum u64 │ ulen u32 │ uri │ xlen u32 │ xml │
//!          └──────────────┴──────────┴─────┴──────────┴─────┘
//! ```
//!
//! URI and XML are UTF-8. The header's `checksum` is the [`lane_checksum`]
//! of `gen ‖ seq ‖ count`; a section's is the [`lane_checksum`] of the
//! rest of the section. Each byte of a slot is checked once, by that one
//! kernel: any change within one 8-byte word always changes it.
//!
//! One verifier checks a slot unit by unit — the header (magic and
//! checksum), then each section (checksum, lengths in bounds, UTF-8), and
//! after the last one that no bytes trail — and refuses the slot at the
//! first unit that fails. A [`SlotCursor`] runs it over both slots in
//! turn and can stop between units and resume there: the scrubber's
//! [`SlotCursor::scrub_slice`] checks a bounded slice per tick, so a
//! pass over both slots takes at most [`SCRUB_PASS_TICKS`] ticks whatever
//! the store's size. [`Checkpoint::decode`], [`Checkpoint::slot_verdicts`]
//! and [`Checkpoint::read_latest_verified`] run the same verifier with no
//! budget.

use crate::disk::{DiskError, VirtualDisk};
use crate::{lane_checksum, IntegrityError};

const MAGIC: &[u8; 8] = b"XQCKPT5\0";

/// Magic, checksum, generation, sequence and section count.
const HEADER: usize = 8 + 8 + 8 + 8 + 4;

/// The two alternating snapshot slots.
pub const CKPT_SLOTS: [&str; 2] = ["ckpt.0", "ckpt.1"];

/// The least a scrub slice checks, in bytes, whatever the store's size:
/// a store this small is checked whole on every tick.
pub const SCRUB_SLICE_FLOOR: usize = 128 * 1024;

/// The most scrub ticks one pass over both slots takes: a slice checks at
/// least this fraction of the two slots' bytes.
pub const SCRUB_PASS_TICKS: usize = 8;

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
    /// Encodes this snapshot into the self-checking slot format (a sealed
    /// header, then one sealed section per document). Also the unit of
    /// snapshot shipping: a replica that has fallen off the leader's WAL
    /// receives these bytes and installs them as its own checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let len = self
            .docs
            .iter()
            .map(|(u, x)| 16 + u.len() + x.len())
            .sum::<usize>();
        let mut out = Vec::with_capacity(HEADER + len);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 8]); // the checksum, once the rest is in
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.docs.len() as u32).to_le_bytes());
        seal(&mut out[8..]);
        for (uri, xml) in &self.docs {
            let start = out.len();
            out.extend_from_slice(&[0; 8]);
            out.extend_from_slice(&(uri.len() as u32).to_le_bytes());
            out.extend_from_slice(uri.as_bytes());
            out.extend_from_slice(&(xml.len() as u32).to_le_bytes());
            out.extend_from_slice(xml.as_bytes());
            seal(&mut out[start..]);
        }
        out
    }

    /// Decodes a snapshot, verifying every unit first. `None` means the
    /// bytes are torn, corrupt or not a checkpoint — never a panic.
    pub fn decode(data: &[u8]) -> Option<Checkpoint> {
        let mut docs = Vec::new();
        let mut scan = SlotScan::default();
        let (verdict, _) = scan.step(data, usize::MAX, &mut |uri, xml| {
            docs.push((uri.to_string(), xml.to_string()))
        });
        (verdict == Scanned::Intact).then_some(Checkpoint {
            gen: scan.gen,
            seq: scan.seq,
            docs,
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
    /// Generation ties keep the first slot.
    pub fn read_latest_verified(disk: &VirtualDisk) -> (Option<Checkpoint>, Vec<IntegrityError>) {
        let mut best: Option<Checkpoint> = None;
        let mut docs = Vec::new();
        let slice = SlotCursor::default().walk(disk, usize::MAX, &mut |seen| match seen {
            Seen::Section(uri, xml) => docs.push((uri.to_string(), xml.to_string())),
            Seen::End(Some((gen, seq))) => {
                let docs = std::mem::take(&mut docs);
                if best.as_ref().is_none_or(|b| gen > b.gen) {
                    best = Some(Checkpoint { gen, seq, docs });
                }
            }
            Seen::End(None) => docs.clear(),
        });
        (best, slice.verdicts)
    }

    /// The verdicts of [`read_latest_verified`](Self::read_latest_verified)
    /// alone: one whole pass of a [`SlotCursor`], checking both slots over
    /// the disk's bytes in place and building no document. What promotion,
    /// cutover and migration probe.
    pub fn slot_verdicts(disk: &VirtualDisk) -> Vec<IntegrityError> {
        SlotCursor::default().step(disk, usize::MAX).verdicts
    }
}

/// Writes the [`lane_checksum`] of `unit[8..]` into `unit[..8]`.
fn seal(unit: &mut [u8]) {
    let checksum = lane_checksum(&unit[8..]);
    unit[..8].copy_from_slice(&checksum.to_le_bytes());
}

/// The little-endian `u64` at `at`, if `data` holds it.
fn u64_at(data: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        data.get(at..at.checked_add(8)?)?.try_into().ok()?,
    ))
}

/// The little-endian `u32` at `at` as a length, if `data` holds it.
fn len_at(data: &[u8], at: usize) -> Option<usize> {
    Some(u32::from_le_bytes(data.get(at..at.checked_add(4)?)?.try_into().ok()?) as usize)
}

/// The section at `at`, if it is intact: its URI, its XML and its end.
fn section_at(data: &[u8], at: usize) -> Option<(&str, &str, usize)> {
    let checksum = u64_at(data, at)?;
    let ulen = len_at(data, at + 8)?;
    let uri_at = at + 12;
    let xlen_at = uri_at.checked_add(ulen)?;
    let xlen = len_at(data, xlen_at)?;
    let end = (xlen_at + 4).checked_add(xlen)?;
    let body = data.get(at + 8..end)?;
    if lane_checksum(body) != checksum {
        return None;
    }
    let uri = std::str::from_utf8(&data[uri_at..xlen_at]).ok()?;
    let xml = std::str::from_utf8(&data[xlen_at + 4..end]).ok()?;
    Some((uri, xml, end))
}

/// Where the check of one slot image has got.
#[derive(Debug, Clone, Default)]
struct SlotScan {
    /// Offset of the next unit to check: 0 before the header.
    next: usize,
    /// Sections not checked yet.
    left: u32,
    gen: u64,
    seq: u64,
}

/// The verdict on a slot image so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scanned {
    /// Every unit checked so far is intact; some are left.
    Partial,
    Intact,
    Corrupt,
}

impl SlotScan {
    /// Checks the units of `data` from where this scan stopped, one whole
    /// unit at a time, while fewer than `budget` bytes are checked (at
    /// least one unit, so a scan always moves). `section` sees each intact
    /// section's URI and XML. Returns the verdict so far and the bytes
    /// checked.
    fn step<'a>(
        &mut self,
        data: &'a [u8],
        budget: usize,
        section: &mut dyn FnMut(&'a str, &'a str),
    ) -> (Scanned, usize) {
        let mut bytes = 0;
        if self.next == 0 {
            let head = data.get(..HEADER).filter(|h| &h[..8] == MAGIC);
            let Some(head) = head.filter(|h| u64_at(h, 8) == Some(lane_checksum(&h[16..]))) else {
                return (Scanned::Corrupt, 0);
            };
            bytes = HEADER;
            self.gen = u64_at(head, 16).unwrap_or_default();
            self.seq = u64_at(head, 24).unwrap_or_default();
            self.left = len_at(head, 32).unwrap_or_default() as u32;
            self.next = HEADER;
        }
        while self.left > 0 && bytes < budget {
            let Some((uri, xml, end)) = section_at(data, self.next) else {
                return (Scanned::Corrupt, bytes);
            };
            bytes += end - self.next;
            self.next = end;
            self.left -= 1;
            section(uri, xml);
        }
        let verdict = match (self.left, self.next == data.len()) {
            (0, true) => Scanned::Intact,
            (0, false) => Scanned::Corrupt,
            _ => Scanned::Partial,
        };
        (verdict, bytes)
    }
}

/// What a pass reports as it goes, to a reader that builds documents.
enum Seen<'a> {
    /// An intact section of the slot under check.
    Section(&'a str, &'a str),
    /// The slot under check ended: its generation and sequence if intact.
    End(Option<(u64, u64)>),
}

/// What one [`SlotCursor`] step found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSlice {
    /// A verdict per slot found corrupt in this step, and
    /// [`IntegrityError::AllCheckpointSlotsCorrupt`] when the pass ended
    /// in it with every written slot corrupt.
    pub verdicts: Vec<IntegrityError>,
    /// Bytes of the units that passed their check.
    pub bytes: usize,
    /// Whether a pass over both slots ended in this step.
    pub pass_done: bool,
}

/// A resumable pass over both checkpoint slots: slot 0, then slot 1, unit
/// by unit. A step stops once its budget is spent, between two units, and
/// the next step resumes there; a step ends at the end of a pass, so a
/// store smaller than the budget is checked exactly once per step. A slot
/// that is empty or absent counts as not written.
#[derive(Debug, Clone, Default)]
pub struct SlotCursor {
    /// The slot under check.
    slot: usize,
    scan: SlotScan,
    /// Per slot, this pass's finding so far: `None` while unchecked or
    /// not written, else whether it is corrupt.
    corrupt: [Option<bool>; 2],
}

impl SlotCursor {
    /// One step of the pass, checking whole units while fewer than
    /// `budget` bytes are checked (at least one unit).
    pub fn step(&mut self, disk: &VirtualDisk, budget: usize) -> SlotSlice {
        self.walk(disk, budget, &mut |_| {})
    }

    /// The scrubber's step: a budget of [`SCRUB_SLICE_FLOOR`] bytes or
    /// one [`SCRUB_PASS_TICKS`]th of both slots' bytes, whichever is more.
    pub fn scrub_slice(&mut self, disk: &VirtualDisk) -> SlotSlice {
        let slots: usize = CKPT_SLOTS.iter().map(|s| disk.len(s)).sum();
        let budget = SCRUB_SLICE_FLOOR.max(slots.div_ceil(SCRUB_PASS_TICKS));
        self.step(disk, budget)
    }

    /// Tells the cursor its node rewrote `slot`: a slot under check is
    /// checked again from its start, and one already passed counts as
    /// intact for the rest of the pass (it was just written and synced).
    pub fn rewrote(&mut self, slot: usize) {
        if slot == self.slot {
            self.scan = SlotScan::default();
        } else if slot < self.slot {
            self.corrupt[slot] = Some(false);
        }
    }

    /// The pass itself, shared by every reader: `seen` sees each intact
    /// section and the end of each written slot.
    fn walk(
        &mut self,
        disk: &VirtualDisk,
        budget: usize,
        seen: &mut dyn FnMut(Seen<'_>),
    ) -> SlotSlice {
        let budget = budget.max(1);
        let mut out = SlotSlice::default();
        while out.bytes < budget {
            let slot = self.slot;
            let scan = &mut self.scan;
            let left = budget - out.bytes;
            let checked = disk
                .with_file(CKPT_SLOTS[slot], |data| {
                    (!data.is_empty()).then(|| {
                        scan.step(data, left, &mut |uri, xml| seen(Seen::Section(uri, xml)))
                    })
                })
                .flatten();
            self.corrupt[slot] = match checked {
                None => None, // not written
                Some((verdict, bytes)) => {
                    out.bytes += bytes;
                    match verdict {
                        Scanned::Partial => continue, // the budget is spent
                        Scanned::Intact => {
                            seen(Seen::End(Some((scan.gen, scan.seq))));
                            Some(false)
                        }
                        Scanned::Corrupt => {
                            seen(Seen::End(None));
                            out.verdicts
                                .push(IntegrityError::CheckpointSlotCorrupt { slot });
                            Some(true)
                        }
                    }
                }
            };
            self.scan = SlotScan::default();
            self.slot += 1;
            if self.slot == CKPT_SLOTS.len() {
                // some slot written, and none of them intact
                if self.corrupt.contains(&Some(true)) && !self.corrupt.contains(&Some(false)) {
                    out.verdicts.push(IntegrityError::AllCheckpointSlotsCorrupt);
                }
                *self = SlotCursor::default();
                out.pass_done = true;
                break;
            }
        }
        out
    }
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

    /// A sealed header claiming `count` sections.
    fn header(gen: u64, seq: u64, count: u32) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&gen.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        seal(&mut out[8..]);
        out
    }

    /// A section of raw `uri` and `xml` bytes with a right checksum.
    fn section(uri: &[u8], xml: &[u8]) -> Vec<u8> {
        let mut out = vec![0; 8];
        out.extend_from_slice(&(uri.len() as u32).to_le_bytes());
        out.extend_from_slice(uri);
        out.extend_from_slice(&(xml.len() as u32).to_le_bytes());
        out.extend_from_slice(xml);
        seal(&mut out);
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
            b"XQCKPT5\0".to_vec(),
            b"XQCKPT5\0\x01\x02\x03".to_vec(),
            b"NOTMAGIC________________".to_vec(),
            {
                // valid slot truncated mid-section
                let full = ckpt(4, 2, &[("a.xml", "<a/>")]).encode();
                full[..full.len() - 3].to_vec()
            },
            // a sealed header, then a section whose length points past the
            // end: decode must refuse the lengths, not overread
            [header(7, 7, 1), {
                let mut s = vec![0; 8];
                s.extend_from_slice(&999u32.to_le_bytes());
                s.extend_from_slice(b"short");
                s
            }]
            .concat(),
            // a sealed header claiming one section more than the slot holds
            [header(7, 7, 2), section(b"a.xml", b"<a/>")].concat(),
            // a sealed section that is not UTF-8
            [header(1, 2, 1), section(b"a.xml", b"<a\xff/>")].concat(),
            // and a byte past the last section
            [header(1, 2, 1), section(b"a.xml", b"<a/>"), vec![0]].concat(),
            // an `XQCKPT4` slot: magic, one checksum, then the body
            {
                let mut body = 1u64.to_le_bytes().to_vec();
                body.extend_from_slice(&2u64.to_le_bytes());
                body.extend_from_slice(&0u32.to_le_bytes());
                let mut out = b"XQCKPT4\0".to_vec();
                out.extend_from_slice(&lane_checksum(&body).to_le_bytes());
                out.extend_from_slice(&body);
                out
            },
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

    /// Runs `cursor` one unit per step to the end of its pass.
    fn finish_pass(cursor: &mut SlotCursor, disk: &VirtualDisk) -> Vec<IntegrityError> {
        let mut verdicts = Vec::new();
        loop {
            let slice = cursor.step(disk, 1);
            verdicts.extend(slice.verdicts);
            if slice.pass_done {
                return verdicts;
            }
        }
    }

    /// Flips the last byte of `slot`: its last section fails.
    fn rot_last_byte(disk: &VirtualDisk, slot: &str) {
        let mut data = disk.read(slot).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x10;
        disk.write_file(slot, &data);
    }

    /// The node rewrites the slot under check: the cursor checks the new
    /// image from its start, not from the old image's offsets.
    #[test]
    fn a_slot_rewritten_under_the_cursor_is_checked_from_its_start() {
        let disk = VirtualDisk::new();
        let docs = [("a.xml", "<a>1</a>"), ("b.xml", "<b>2</b>")];
        ckpt(1, 1, &docs).write(&disk).unwrap(); // slot 1
        ckpt(2, 2, &docs).write(&disk).unwrap(); // slot 0
        let mut cursor = SlotCursor::default();
        // slot 0 (a header and two sections), then slot 1's header and
        // first section
        for _ in 0..5 {
            let slice = cursor.step(&disk, 1);
            assert!(slice.verdicts.is_empty() && !slice.pass_done);
        }
        // gen 3 replaces slot 1 with a longer first section
        ckpt(3, 3, &[("a.xml", "<a>three</a>"), ("b.xml", "<b>2</b>")])
            .write(&disk)
            .unwrap();
        cursor.rewrote(1);
        let after: usize = (0..3).map(|_| cursor.step(&disk, 1).bytes).sum();
        assert_eq!(after, disk.len(CKPT_SLOTS[1]), "slot 1 checked whole");
        assert_eq!(finish_pass(&mut cursor, &disk), vec![]);
    }

    /// A slot found corrupt and then replaced by the node counts as intact
    /// for the rest of the pass: the pass names the other corrupt slot but
    /// does not report every slot lost.
    #[test]
    fn a_corrupt_slot_replaced_mid_pass_is_not_counted_lost() {
        let disk = VirtualDisk::new();
        let docs = [("a.xml", "<a>1</a>"), ("b.xml", "<b>2</b>")];
        ckpt(1, 1, &docs).write(&disk).unwrap();
        ckpt(2, 2, &docs).write(&disk).unwrap();
        for slot in CKPT_SLOTS {
            rot_last_byte(&disk, slot);
        }
        let whole = Checkpoint::slot_verdicts(&disk);
        assert_eq!(
            whole.last(),
            Some(&IntegrityError::AllCheckpointSlotsCorrupt)
        );
        let mut cursor = SlotCursor::default();
        let mut found = Vec::new();
        while found.is_empty() {
            found = cursor.step(&disk, 1).verdicts;
        }
        assert_eq!(
            found,
            vec![IntegrityError::CheckpointSlotCorrupt { slot: 0 }]
        );
        // the repair: gen 4 lands in slot 0
        ckpt(4, 4, &docs).write(&disk).unwrap();
        cursor.rewrote(0);
        assert_eq!(
            finish_pass(&mut cursor, &disk),
            vec![IntegrityError::CheckpointSlotCorrupt { slot: 1 }]
        );
        // the next pass sees slot 0 intact and slot 1 still corrupt
        assert_eq!(
            finish_pass(&mut cursor, &disk),
            vec![IntegrityError::CheckpointSlotCorrupt { slot: 1 }]
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
