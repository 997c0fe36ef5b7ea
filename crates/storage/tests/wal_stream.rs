//! WAL streaming property tests: the replication receiver's accept rule.
//!
//! A follower receives batches of shipped frames over a faulty network
//! (`xqib_browser::net`): payloads can arrive truncated mid-frame, with
//! duplicated frames (leader resend after a lost ack) or with reordered
//! frames (stream built from a reordered send queue). The shared helper
//! `Wal::scan_bytes` must accept **exactly the longest intact monotone
//! prefix**: every frame before the first torn/corrupt/duplicate/reordered
//! unit, and nothing after it.
//!
//! The reference model walks the generated unit list (each unit = one
//! frame image, possibly mutated) and predicts the accepted records,
//! `valid_bytes`, and the torn-tail flag; the scanner must agree
//! byte-for-byte. `XQIB_CLUSTER_SEED` is mixed into every generated case
//! so the CI matrix explores disjoint regions reproducibly.

use proptest::prelude::*;
use xqib_storage::wal::ShippedFrame;
use xqib_storage::{StorageFaultPlan, VirtualDisk, Wal, WalBreak, WalRecord, WAL_FILE};

fn env_seed() -> u64 {
    std::env::var("XQIB_CLUSTER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64, the workspace's standard seeded generator.
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
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// Builds `n` intact frames (seqs 1..=n) and returns each frame's exact
/// byte image alongside its decoded record.
fn build_frames(rng: &mut Rng, n: usize) -> Vec<(u64, WalRecord, Vec<u8>)> {
    let disk = VirtualDisk::new();
    let mut wal = Wal::create(disk.clone(), WAL_FILE);
    for k in 0..n {
        let pad = "x".repeat(rng.below(40) as usize);
        let record = if rng.below(3) == 0 {
            WalRecord::Pul(format!("pul-{k}-{pad}").into_bytes())
        } else {
            WalRecord::Load {
                uri: format!("d{k}.xml"),
                xml: format!("<r{k}>{pad}</r{k}>"),
            }
        };
        wal.append(&record);
    }
    wal.sync().expect("fault-free disk");
    let data = disk.read(WAL_FILE).unwrap_or_default();
    Wal::frames_in(&data, 0, u64::MAX)
        .into_iter()
        .map(|f| (f.seq, f.record, f.bytes))
        .collect()
}

/// One unit of the shipped stream and whether the scanner can accept it.
struct Unit {
    seq: u64,
    record: WalRecord,
    bytes: Vec<u8>,
    intact: bool,
}

/// Assembles a stream of frame units with seeded mutations: duplicates,
/// swaps (reordering), truncation, bit flips, and optional trailing
/// garbage.
fn build_stream(rng: &mut Rng, frames: &[(u64, WalRecord, Vec<u8>)]) -> Vec<Unit> {
    // start from the in-order frame list, then mutate the *unit list*
    let mut units: Vec<Unit> = frames
        .iter()
        .map(|(seq, rec, bytes)| Unit {
            seq: *seq,
            record: rec.clone(),
            bytes: bytes.clone(),
            intact: true,
        })
        .collect();
    // duplicate some frames in place (a resend landing mid-stream)
    for _ in 0..rng.below(3) {
        if units.is_empty() {
            break;
        }
        let i = rng.below(units.len() as u64) as usize;
        let dup = Unit {
            seq: units[i].seq,
            record: units[i].record.clone(),
            bytes: units[i].bytes.clone(),
            intact: true,
        };
        let at = rng.below(units.len() as u64 + 1) as usize;
        units.insert(at, dup);
    }
    // swap adjacent units (reordering)
    for _ in 0..rng.below(3) {
        if units.len() >= 2 {
            let i = rng.below(units.len() as u64 - 1) as usize;
            units.swap(i, i + 1);
        }
    }
    // corrupt some units: truncate or flip a bit
    for _ in 0..rng.below(3) {
        if units.is_empty() {
            break;
        }
        let i = rng.below(units.len() as u64) as usize;
        let u = &mut units[i];
        if !u.intact {
            continue; // corrupt each unit at most once: a second bit flip
                      // could cancel the first and desync the model
        }
        if rng.below(2) == 0 {
            let cut = rng.below(u.bytes.len() as u64) as usize;
            u.bytes.truncate(cut.max(1));
        } else {
            let pos = rng.below(u.bytes.len() as u64) as usize;
            u.bytes[pos] ^= 1 << rng.below(8);
        }
        u.intact = false;
    }
    // trailing garbage after everything (a torn tail that is not even a
    // frame header)
    if rng.below(2) == 0 {
        units.push(Unit {
            seq: 0,
            record: WalRecord::Pul(vec![]),
            bytes: (0..rng.below(12)).map(|i| (i * 37 + 5) as u8).collect(),
            intact: false,
        });
    }
    units
}

/// The reference model: accept units while intact and strictly monotone.
fn expected_prefix(units: &[Unit]) -> (Vec<(u64, WalRecord)>, usize) {
    let mut accepted = Vec::new();
    let mut valid_bytes = 0usize;
    let mut prev_seq = 0u64;
    for u in units {
        if !u.intact || u.seq <= prev_seq {
            break;
        }
        accepted.push((u.seq, u.record.clone()));
        prev_seq = u.seq;
        valid_bytes += u.bytes.len();
    }
    (accepted, valid_bytes)
}

proptest! {
    /// `scan_bytes` over a mutated stream accepts exactly the model's
    /// longest intact monotone prefix — same records, same byte count,
    /// torn-tail flag iff bytes remain past the prefix.
    #[test]
    fn scan_accepts_exactly_the_longest_intact_monotone_prefix(
        seed in 0u64..1u64 << 48,
        n_frames in 1usize..12,
    ) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let frames = build_frames(&mut rng, n_frames);
        let units = build_stream(&mut rng, &frames);
        let stream: Vec<u8> = units.iter().flat_map(|u| u.bytes.clone()).collect();

        let (want, want_bytes) = expected_prefix(&units);
        let replay = Wal::scan_bytes(&stream);

        let got: Vec<(u64, WalRecord)> = replay
            .records
            .iter()
            .map(|(seq, rec, _)| (*seq, rec.clone()))
            .collect();
        prop_assert_eq!(&got, &want, "accepted records differ from model");
        prop_assert_eq!(replay.valid_bytes, want_bytes);
        prop_assert_eq!(
            replay.torn_tail_dropped,
            want_bytes < stream.len(),
            "torn-tail flag must reflect bytes past the prefix"
        );

        // receiver-side reuse: frames_in over the same stream yields frames
        // whose concatenated bytes rescan to the identical record list
        let shipped = Wal::frames_in(&stream, 0, u64::MAX);
        let reship: Vec<u8> = shipped.iter().flat_map(|f| f.bytes.clone()).collect();
        let rescanned = Wal::scan_bytes(&reship);
        let again: Vec<(u64, WalRecord)> = rescanned
            .records
            .iter()
            .map(|(seq, rec, _)| (*seq, rec.clone()))
            .collect();
        prop_assert_eq!(again, want, "shipped frames must rescan identically");
        prop_assert!(!rescanned.torn_tail_dropped);
    }

    /// Filtering: `frames_in(data, after, upto)` returns exactly the
    /// accepted frames with `after < seq <= upto` — the leader's batch cut.
    #[test]
    fn frames_in_cuts_the_requested_window(
        seed in 0u64..1u64 << 48,
        n_frames in 1usize..10,
    ) {
        let mut rng = Rng(seed.wrapping_add(env_seed()));
        let frames = build_frames(&mut rng, n_frames);
        let stream: Vec<u8> = frames.iter().flat_map(|(_, _, b)| b.clone()).collect();
        let after = rng.below(n_frames as u64 + 1);
        let upto = after + rng.below(n_frames as u64 + 1);
        let got = Wal::frames_in(&stream, after, upto);
        let want_seqs: Vec<u64> = frames
            .iter()
            .map(|(s, _, _)| *s)
            .filter(|s| *s > after && *s <= upto)
            .collect();
        prop_assert_eq!(
            got.iter().map(|f| f.seq).collect::<Vec<_>>(),
            want_seqs
        );
        for f in &got {
            let single = Wal::scan_bytes(&f.bytes);
            prop_assert_eq!(single.records.len(), 1, "each frame stands alone");
            prop_assert_eq!(&single.records[0].1, &f.record);
        }
    }
}

/// The whole-log shipping cut the frame index replaces: read the entire
/// file, scan every frame, keep `after < seq <= upto`, and call it a gap
/// unless the first kept frame is `after + 1`.
fn whole_log_frames_after(disk: &VirtualDisk, after: u64, upto: u64) -> Option<Vec<ShippedFrame>> {
    if after >= upto {
        return Some(Vec::new());
    }
    let data = disk.read(WAL_FILE).unwrap_or_default();
    let frames = Wal::frames_in(&data, after, upto);
    match frames.first() {
        Some(f) if f.seq == after + 1 => Some(frames),
        _ => None,
    }
}

proptest! {
    /// Shipping by offset equals shipping by whole-log scan: over random
    /// append / sync / checkpoint-truncate / torn-tail / reopen sequences
    /// on a disk whose fsyncs may fail part-way, `frames_after(after,
    /// committed)` returns exactly the oracle's frames — or its `None` —
    /// for every `after`.
    #[test]
    fn indexed_shipping_equals_the_whole_log_oracle(
        seed in 0u64..1u64 << 48,
        n_ops in 1usize..40,
    ) {
        let seed = seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng(seed);
        let disk = VirtualDisk::with_plan(StorageFaultPlan::seeded(seed).with_sync_fail_permille(150));
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        // highest seq appended, known durable, and absorbed by a checkpoint
        let (mut appended, mut committed, mut ckpt_seq) = (0u64, 0u64, 0u64);
        for k in 0..n_ops {
            match rng.below(10) {
                0..=4 => {
                    let pad = "y".repeat(rng.below(60) as usize);
                    appended = wal.append(&WalRecord::Pul(format!("op-{k}-{pad}").into_bytes()));
                }
                5 | 6 => {
                    if wal.sync().is_ok() {
                        committed = appended;
                    }
                }
                7 => {
                    if wal.sync().is_ok() {
                        (committed, ckpt_seq) = (appended, appended);
                        wal.truncate();
                    }
                }
                kind => {
                    if kind == 8 {
                        disk.crash(); // tears the unsynced tail
                    }
                    let replay = Wal::scan(&disk, WAL_FILE);
                    wal = Wal::open_after(disk.clone(), WAL_FILE, &replay);
                    wal.fast_forward(ckpt_seq);
                    // recovery: every frame the scan kept is durable now
                    let last = replay.records.last().map_or(0, |(seq, _, _)| *seq);
                    committed = last.max(ckpt_seq);
                    appended = committed;
                }
            }
            for after in 0..=appended + 1 {
                prop_assert_eq!(
                    wal.frames_after(after, committed),
                    whole_log_frames_after(&disk, after, committed),
                    "after {}, committed {}, op {}", after, committed, k
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoder fuzz-hardening: arbitrary damage must yield typed errors,
// never a panic, an abort, or a silently mis-accepted record.
// ---------------------------------------------------------------------

/// A small store plus a valid encoded PUL touching `db.xml`, covering
/// targets, strings and qnames — the fuzz corpus the mutation tests chew
/// on.
fn sample_wire_encoding() -> (xqib_dom::Store, Vec<u8>) {
    let mut s = xqib_dom::Store::new();
    let doc = xqib_dom::parse_document("<r a=\"1\"><c>t</c><c2/></r>").expect("static xml");
    let d = s.add_document(doc, Some("db.xml"));
    let doc_root = s.doc(d).root();
    let root = s.doc(d).children(doc_root)[0];
    let c = s.doc(d).children(root)[0];
    let c2 = s.doc(d).children(root)[1];
    let mut pul = xqib_xquery::pul::Pul::new();
    pul.push(xqib_xquery::pul::UpdatePrimitive::ReplaceValue {
        target: xqib_dom::NodeRef::new(d, c),
        value: "vv".to_string(),
    });
    pul.push(xqib_xquery::pul::UpdatePrimitive::Rename {
        target: xqib_dom::NodeRef::new(d, root),
        name: xqib_dom::QName::full(None, None, "rn"),
    });
    pul.push(xqib_xquery::pul::UpdatePrimitive::Delete {
        target: xqib_dom::NodeRef::new(d, c2),
    });
    let bytes = xqib_xquery::wire::encode_pul(&s, &pul).expect("attached targets encode");
    (s, bytes)
}

proptest! {
    /// Any single bit flip inside a valid WAL image stops the scan exactly
    /// at the damaged frame: everything before it is accepted verbatim,
    /// nothing after it, and the break is typed as either a CRC mismatch
    /// or (for a length-field flip that runs past the end) a torn tail.
    #[test]
    fn scan_classifies_any_single_bit_flip_without_misaccepting(
        seed in 0u64..1u64 << 48,
        n_frames in 1usize..10,
        flip_sel in 0u64..1u64 << 32,
    ) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let frames = build_frames(&mut rng, n_frames);
        let mut stream: Vec<u8> = frames.iter().flat_map(|(_, _, b)| b.clone()).collect();
        let bit = (flip_sel % (stream.len() as u64 * 8)) as usize;
        stream[bit / 8] ^= 1 << (bit % 8);

        // which frame holds the flipped byte?
        let mut k = 0usize;
        let mut off = 0usize;
        while off + frames[k].2.len() <= bit / 8 {
            off += frames[k].2.len();
            k += 1;
        }

        let replay = Wal::scan_bytes(&stream);
        let got: Vec<(u64, WalRecord)> = replay
            .records
            .iter()
            .map(|(seq, rec, _)| (*seq, rec.clone()))
            .collect();
        let want: Vec<(u64, WalRecord)> = frames[..k]
            .iter()
            .map(|(seq, rec, _)| (*seq, rec.clone()))
            .collect();
        prop_assert_eq!(&got, &want, "flip in frame {} must stop the scan there", k + 1);
        prop_assert_eq!(replay.valid_bytes, off);
        prop_assert!(replay.torn_tail_dropped);
        let reason = replay.break_reason.expect("damage must be classified");
        prop_assert!(
            matches!(reason, WalBreak::CrcMismatch | WalBreak::TornTail),
            "unexpected break class {reason:?}"
        );
        // a flip strictly inside the prefix that still CRC-fails is the
        // alarm shape; only a length-field flip can masquerade as a tear
        if replay.mid_prefix_damage() {
            prop_assert!(matches!(reason, WalBreak::CrcMismatch));
        }
    }

    /// Truncating a valid WAL image at any point is always the *expected*
    /// crash shape: the scan accepts every frame wholly inside the cut and
    /// classifies the remainder as a torn tail — never as mid-prefix
    /// damage, so a scrubber never alarms on an ordinary crash.
    #[test]
    fn truncation_is_a_torn_tail_never_an_alarm(
        seed in 0u64..1u64 << 48,
        n_frames in 1usize..10,
        cut_sel in 0u64..1u64 << 32,
    ) {
        let mut rng = Rng(seed.wrapping_add(env_seed()) ^ 0xfeed);
        let frames = build_frames(&mut rng, n_frames);
        let stream: Vec<u8> = frames.iter().flat_map(|(_, _, b)| b.clone()).collect();
        let cut = (cut_sel % stream.len() as u64) as usize; // strictly short
        let replay = Wal::scan_bytes(&stream[..cut]);

        let mut whole = 0usize;
        let mut boundary = 0usize;
        for (_, _, b) in &frames {
            if boundary + b.len() > cut {
                break;
            }
            boundary += b.len();
            whole += 1;
        }
        prop_assert_eq!(replay.records.len(), whole);
        prop_assert_eq!(replay.valid_bytes, boundary);
        prop_assert!(!replay.mid_prefix_damage(), "a tear is not an alarm");
        if cut > boundary {
            prop_assert!(replay.torn_tail_dropped);
            prop_assert!(matches!(replay.break_reason, Some(WalBreak::TornTail)));
        } else {
            prop_assert!(!replay.torn_tail_dropped);
            prop_assert!(replay.break_reason.is_none());
        }
    }

    /// Every strict truncation of a valid wire-encoded PUL is refused with
    /// the typed wire error — by the full decoder and the URI skimmer
    /// alike. Nothing panics, nothing half-applies.
    #[test]
    fn wire_decode_refuses_any_truncation_with_a_typed_error(cut_sel in 0u64..1u64 << 32) {
        let (mut store, bytes) = sample_wire_encoding();
        let cut = (cut_sel % bytes.len() as u64) as usize;
        let err = xqib_xquery::wire::decode_pul(&mut store, &bytes[..cut])
            .expect_err("strict truncation must not decode");
        prop_assert_eq!(err.code.as_str(), xqib_xquery::wire::WIRE_ERR);
        let err = xqib_xquery::wire::pul_doc_uris(&bytes[..cut])
            .expect_err("strict truncation must not skim");
        prop_assert_eq!(err.code.as_str(), xqib_xquery::wire::WIRE_ERR);
    }

    /// Arbitrary byte mutations of a valid wire-encoded PUL either decode
    /// cleanly (the flip landed in free payload text) or fail with the
    /// typed wire error — never a panic or an unbounded allocation.
    #[test]
    fn wire_decode_survives_arbitrary_mutations(
        seed in 0u64..1u64 << 48,
        n_mutations in 1usize..6,
    ) {
        let (mut store, mut bytes) = sample_wire_encoding();
        let mut rng = Rng(seed ^ env_seed().rotate_left(17));
        for _ in 0..n_mutations {
            let pos = rng.below(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << rng.below(8);
        }
        if let Err(e) = xqib_xquery::wire::decode_pul(&mut store, &bytes) {
            prop_assert_eq!(e.code.as_str(), xqib_xquery::wire::WIRE_ERR);
        }
        if let Err(e) = xqib_xquery::wire::pul_doc_uris(&bytes) {
            prop_assert_eq!(e.code.as_str(), xqib_xquery::wire::WIRE_ERR);
        }
    }
}

/// Regression for the length-bomb: a corrupt count field claiming four
/// billion path steps must produce the typed truncation error, not an
/// out-of-memory abort from a pre-allocation the buffer cannot back.
#[test]
fn wire_decode_rejects_a_length_bomb_without_allocating() {
    let (mut store, mut bytes) = sample_wire_encoding();
    // layout: prim count u32 | tag u8 | uri len u32 | "db.xml" | path len u32
    let path_len_at = 4 + 1 + 4 + "db.xml".len();
    bytes[path_len_at..path_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = xqib_xquery::wire::decode_pul(&mut store, &bytes)
        .expect_err("a length bomb must not decode");
    assert_eq!(err.code.as_str(), xqib_xquery::wire::WIRE_ERR);
    let err = xqib_xquery::wire::pul_doc_uris(&bytes).expect_err("nor skim");
    assert_eq!(err.code.as_str(), xqib_xquery::wire::WIRE_ERR);
}

/// A resent batch appended after the live log (duplicate seqs) must not
/// extend the accepted prefix — the duplicate stops the scan at the
/// resend boundary.
#[test]
fn duplicate_resend_does_not_extend_the_prefix() {
    let mut rng = Rng(7);
    let frames = build_frames(&mut rng, 5);
    let mut stream: Vec<u8> = frames.iter().flat_map(|(_, _, b)| b.clone()).collect();
    let live_len = stream.len();
    for (_, _, b) in &frames[2..] {
        stream.extend_from_slice(b); // resend of seqs 3..=5
    }
    let replay = Wal::scan_bytes(&stream);
    assert_eq!(replay.records.len(), 5);
    assert_eq!(replay.valid_bytes, live_len);
    assert!(replay.torn_tail_dropped);
}

/// `ShippedFrame` byte images survive a round trip through a follower-side
/// append: concatenating received frames after an existing prefix scans as
/// one contiguous log.
#[test]
fn shipped_frames_append_onto_an_existing_prefix() {
    let mut rng = Rng(13);
    let frames = build_frames(&mut rng, 6);
    let follower: Vec<u8> = frames[..2].iter().flat_map(|(_, _, b)| b.clone()).collect();
    let all: Vec<u8> = frames.iter().flat_map(|(_, _, b)| b.clone()).collect();
    let batch = Wal::frames_in(&all, 2, u64::MAX);
    assert_eq!(batch.len(), 4);
    assert_eq!(batch[0].seq, 3);
    let _ = ShippedFrame {
        seq: batch[0].seq,
        record: batch[0].record.clone(),
        bytes: batch[0].bytes.clone(),
    };
    let mut joined = follower;
    for f in &batch {
        joined.extend_from_slice(&f.bytes);
    }
    let replay = Wal::scan_bytes(&joined);
    assert_eq!(replay.records.len(), 6);
    assert!(!replay.torn_tail_dropped);
}
