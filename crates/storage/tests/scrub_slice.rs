//! The scrubber's sliced pass against the whole-disk pass.
//!
//! Each case builds one seat disk: a random checkpoint history (zero to
//! three generations written into the alternating slots, each holding a
//! random number of documents of random sizes, some larger than the slice
//! floor), a WAL of random frames that may end in a torn tail, and random
//! bit flips anywhere in it — a slot header, a section, a WAL frame. Then:
//!
//! - one full pass of budgeted slices, with no writes in between, reports
//!   exactly the slot verdicts the unbounded pass
//!   ([`Checkpoint::slot_verdicts`]) reports, whatever the budget, and so
//!   does the next pass of the same cursor;
//! - no slice checks more than its budget plus one unit;
//! - both give the verdicts that decoding each slot image alone gives,
//!   and so does the reader that builds documents;
//! - the WAL probe reports the break the whole-log scan finds, so its
//!   `wal_rot` verdict is `Wal::scan(..).mid_prefix_damage()`, torn tails
//!   included.
//!
//! `XQIB_STORAGE_SEED` is mixed into every case, so the CI matrix explores
//! disjoint regions reproducibly.

use proptest::prelude::*;
use xqib_storage::{
    mix64, Checkpoint, IntegrityError, SlotCursor, VirtualDisk, Wal, WalBreak, WalRecord,
    CKPT_SLOTS, SCRUB_PASS_TICKS, SCRUB_SLICE_FLOOR, WAL_FILE,
};

fn env_seed() -> u64 {
    std::env::var("XQIB_STORAGE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0) % n.max(1)
    }
}

/// A document body of about `len` bytes, now and then with a multibyte
/// character.
fn body(rng: &mut Rng, len: usize) -> String {
    let fill = if rng.below(4) == 0 { "é" } else { "x" };
    format!("<d>{}</d>", fill.repeat(len / fill.len()))
}

/// Writes a random checkpoint history; returns the largest unit written.
fn write_history(rng: &mut Rng, disk: &VirtualDisk) -> usize {
    let mut largest = 36; // a header
    for gen in 1..=rng.below(4) {
        let docs: Vec<(String, String)> = (0..rng.below(5))
            .map(|k| {
                let len = match rng.below(8) {
                    0 => SCRUB_SLICE_FLOOR / 2 + rng.below(SCRUB_SLICE_FLOOR as u64) as usize,
                    1 | 2 => rng.below(8_192) as usize,
                    _ => rng.below(200) as usize,
                };
                (format!("d{k}.xml"), body(rng, len))
            })
            .collect();
        for (uri, xml) in &docs {
            largest = largest.max(16 + uri.len() + xml.len());
        }
        let seq = gen * 10;
        Checkpoint { gen, seq, docs }.write(disk).unwrap();
    }
    largest
}

/// Appends random synced frames, then maybe an unsynced torn tail.
fn write_wal(rng: &mut Rng, disk: &VirtualDisk) {
    let mut wal = Wal::create(disk.clone(), WAL_FILE);
    for k in 0..rng.below(12) {
        let uri = format!("d{k}.xml");
        let record = match rng.below(3) {
            0 => WalRecord::Pul(vec![k as u8; rng.below(64) as usize]),
            1 => WalRecord::Digest {
                uri,
                digest: mix64(k),
            },
            _ => {
                let len = rng.below(300) as usize;
                WalRecord::Load {
                    uri,
                    xml: body(rng, len),
                }
            }
        };
        wal.append(&record);
    }
    wal.sync().unwrap();
    if rng.below(3) == 0 {
        // a torn tail: part of one more frame
        let before = disk.len(WAL_FILE);
        wal.append(&WalRecord::Pul(vec![7; 40]));
        let cut = before + 1 + rng.below((disk.len(WAL_FILE) - before - 1) as u64) as usize;
        disk.truncate_to(WAL_FILE, cut);
    }
}

/// Flips one to three random bits across the slots and the log.
fn flip_bits(rng: &mut Rng, disk: &VirtualDisk) {
    for _ in 0..rng.below(4) {
        let files = [CKPT_SLOTS[0], CKPT_SLOTS[1], WAL_FILE];
        let file = files[rng.below(3) as usize];
        let Some(mut data) = disk.read(file).filter(|d| !d.is_empty()) else {
            continue;
        };
        let at = rng.below(data.len() as u64) as usize;
        data[at] ^= 1 << rng.below(8);
        disk.write_file(file, &data);
    }
}

/// One whole pass of `cursor` in steps of `budget` bytes: the verdicts of
/// every step in order, checking that no step overruns its budget by more
/// than `largest` (one unit).
fn sliced_pass(
    cursor: &mut SlotCursor,
    disk: &VirtualDisk,
    budget: usize,
    largest: usize,
) -> Vec<IntegrityError> {
    let mut verdicts = Vec::new();
    for _ in 0..1_000_000 {
        let slice = cursor.step(disk, budget);
        assert!(
            slice.bytes < budget.max(1) + largest,
            "{} bytes in a slice of {budget}",
            slice.bytes
        );
        verdicts.extend(slice.verdicts);
        if slice.pass_done {
            return verdicts;
        }
    }
    panic!("a pass in slices of {budget} bytes never ended");
}

/// The verdicts a pass must give, from decoding each slot image alone.
fn decoded_verdicts(disk: &VirtualDisk) -> Vec<IntegrityError> {
    let written: Vec<(usize, bool)> = CKPT_SLOTS
        .iter()
        .enumerate()
        .filter_map(|(slot, name)| {
            let data = disk.read(name).filter(|d| !d.is_empty())?;
            Some((slot, Checkpoint::decode(&data).is_none()))
        })
        .collect();
    let mut verdicts: Vec<IntegrityError> = written
        .iter()
        .filter(|(_, corrupt)| *corrupt)
        .map(|&(slot, _)| IntegrityError::CheckpointSlotCorrupt { slot })
        .collect();
    if !written.is_empty() && verdicts.len() == written.len() {
        verdicts.push(IntegrityError::AllCheckpointSlotsCorrupt);
    }
    verdicts
}

proptest! {
    #[test]
    fn a_sliced_pass_reports_what_the_whole_pass_reports(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let disk = VirtualDisk::new();
        let largest = write_history(&mut rng, &disk);
        write_wal(&mut rng, &disk);
        flip_bits(&mut rng, &disk);

        let whole = Checkpoint::slot_verdicts(&disk);
        prop_assert_eq!(&whole, &decoded_verdicts(&disk));
        prop_assert_eq!(&Checkpoint::read_latest_verified(&disk).1, &whole);
        for budget in [
            1,
            1 + rng.below(64) as usize,
            1 + rng.below(16_384) as usize,
            SCRUB_SLICE_FLOOR,
        ] {
            let mut cursor = SlotCursor::default();
            prop_assert_eq!(&sliced_pass(&mut cursor, &disk, budget, largest), &whole);
            prop_assert_eq!(&sliced_pass(&mut cursor, &disk, budget, largest), &whole);
        }
        // the scrubber's own budget ends a pass within SCRUB_PASS_TICKS
        let mut cursor = SlotCursor::default();
        let mut scrubbed = Vec::new();
        let mut ticks = 0;
        loop {
            let slice = cursor.scrub_slice(&disk);
            scrubbed.extend(slice.verdicts);
            ticks += 1;
            if slice.pass_done {
                break;
            }
        }
        prop_assert!(ticks <= SCRUB_PASS_TICKS);
        prop_assert_eq!(&scrubbed, &whole);

        let scan = Wal::scan(&disk, WAL_FILE);
        let probe = Wal::probe(&disk, WAL_FILE);
        prop_assert_eq!(probe, scan.break_reason);
        prop_assert_eq!(probe.is_some_and(WalBreak::mid_prefix), scan.mid_prefix_damage());
    }
}
