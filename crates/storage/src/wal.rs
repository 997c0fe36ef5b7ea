//! The write-ahead log: an append-only redo stream over a [`VirtualDisk`]
//! file.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬───────┬──────────────┐
//! │ len u32 │ crc u32 │ seq u64 │ tag u8│ payload[len] │
//! └─────────┴─────────┴─────────┴───────┴──────────────┘
//! ```
//!
//! `crc` covers `seq ‖ tag ‖ payload`. [`Wal::scan`] accepts the longest
//! prefix of intact frames with strictly increasing sequence numbers and
//! stops at the first bad frame — a torn tail (partial write lost in a
//! crash), a CRC mismatch (bit rot in an in-flight sector), an unknown tag
//! or a sequence break all end replay at the previous frame boundary.
//! Appended frames become durable only when [`Wal::sync`] succeeds; callers
//! batch appends per group commit.
//!
//! An open [`Wal`] indexes its frames by `(seq, end offset)`, so shipping
//! the frames after a follower's position ([`Wal::frames_after`]) reads and
//! checks only those frames' bytes, never the whole log.
//!
//! One frame iterator applies the accept rule to frames borrowed from the
//! bytes: [`Wal::scan_bytes`] copies each accepted record out of it, and
//! the scrubber's probe, [`Wal::probe`], only asks where and why it
//! stopped, building no [`WalRecord`]. The probe reads the whole log on
//! every scrub tick; the checkpoint threshold bounds the log's length.

use crate::crc32;
use crate::disk::{DiskError, VirtualDisk};

/// Default WAL file name on the device.
pub const WAL_FILE: &str = "wal.log";

const HEADER: usize = 4 + 4 + 8 + 1;

const TAG_LOAD: u8 = 1;
const TAG_PUL: u8 = 2;
const TAG_DIGEST: u8 = 3;

/// One redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A document (re)load: on replay, bind `xml` under `uri`, replacing
    /// any existing binding.
    Load { uri: String, xml: String },
    /// A wire-encoded pending update list (see `xqib_xquery::wire`),
    /// opaque to the storage layer.
    Pul(Vec<u8>),
    /// An end-to-end integrity assertion: after applying every record up
    /// to this point, the document bound at `uri` must hash to `digest`
    /// (the server tier's state digest, a function of the document's
    /// serialization and its URI). Replayers verify and stop at the
    /// record if the recovered state disagrees; replicas use it to detect
    /// divergence at apply time.
    Digest { uri: String, digest: u64 },
}

/// Why a WAL scan stopped before the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalBreak {
    /// The stream ended mid-frame — a torn write, the expected crash shape.
    TornTail,
    /// A fully-present frame failed its CRC: bit rot inside the prefix.
    CrcMismatch,
    /// A frame re-used an old sequence number (stale bytes or a resend).
    StaleSeq,
    /// The CRC held but the tag/payload did not decode.
    Malformed,
}

/// One raw WAL frame as shipped to a replica: the sequence number, the
/// decoded record, and the exact frame bytes (header included, CRC
/// intact), so a follower can append what it received verbatim and its
/// log stays a byte-prefix of the leader's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedFrame {
    pub seq: u64,
    pub record: WalRecord,
    pub bytes: Vec<u8>,
}

/// Result of scanning a WAL file.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Intact frames, in order: `(seq, record, end_offset_in_file)`.
    pub records: Vec<(u64, WalRecord, usize)>,
    /// Bytes covered by intact frames; anything beyond is a torn/corrupt
    /// tail.
    pub valid_bytes: usize,
    /// True when the file held bytes past the last intact frame.
    pub torn_tail_dropped: bool,
    /// Why the scan stopped, when it stopped before the end of the stream.
    pub break_reason: Option<WalBreak>,
}

impl WalBreak {
    /// True for damage *inside* the durable prefix — the alarm case a
    /// scrubber must repair or escalate (no legal crash produces it). A
    /// torn tail, the expected crash shape, is not.
    pub fn mid_prefix(self) -> bool {
        self != WalBreak::TornTail
    }
}

impl WalReplay {
    /// True when the scan hit damage inside the durable prefix (see
    /// [`WalBreak::mid_prefix`]).
    pub fn mid_prefix_damage(&self) -> bool {
        self.break_reason.is_some_and(WalBreak::mid_prefix)
    }
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    disk: VirtualDisk,
    file: String,
    next_seq: u64,
    /// `(seq, end offset)` of every frame in the file, in file order; a
    /// frame starts where the one before it ends (the first at 0). Kept by
    /// every append, read from the scan on open, cleared on truncate.
    index: Vec<(u64, usize)>,
}

impl Wal {
    /// Creates a fresh, empty log (truncating any leftover file).
    pub fn create(disk: VirtualDisk, file: &str) -> Wal {
        disk.write_file(file, &[]);
        Wal {
            disk,
            file: file.to_string(),
            next_seq: 1,
            index: Vec::new(),
        }
    }

    /// Opens an existing log after [`scan`](Self::scan): physically drops
    /// the torn tail (so new appends start at a frame boundary) and
    /// continues the sequence after the last intact frame.
    pub fn open_after(disk: VirtualDisk, file: &str, replay: &WalReplay) -> Wal {
        disk.truncate_to(file, replay.valid_bytes);
        let last_seq = replay.records.last().map_or(0, |(seq, _, _)| *seq);
        Wal {
            disk,
            file: file.to_string(),
            next_seq: last_seq + 1,
            index: replay
                .records
                .iter()
                .map(|(seq, _, end)| (*seq, *end))
                .collect(),
        }
    }

    /// Scans a WAL file, in place, into the longest intact frame prefix.
    pub fn scan(disk: &VirtualDisk, file: &str) -> WalReplay {
        disk.with_file(file, Self::scan_bytes).unwrap_or_default()
    }

    /// Scans an in-memory frame stream — the same accept rule as
    /// [`scan`](Self::scan), shared with the replication receiver: the
    /// longest prefix of intact frames with strictly increasing sequence
    /// numbers, stopping at the first torn, corrupt, unknown-tag or
    /// sequence-breaking frame.
    pub fn scan_bytes(data: &[u8]) -> WalReplay {
        let mut frames = Frames::new(data);
        let records = frames
            .by_ref()
            .map(|f| (f.seq, f.record.to_record(), f.end))
            .collect();
        WalReplay {
            records,
            valid_bytes: frames.pos,
            torn_tail_dropped: frames.pos < data.len(),
            break_reason: frames.break_reason(),
        }
    }

    /// Why a [`scan`](Self::scan) of `file` would stop before its end, if
    /// it would: the same accept rule over the frames in place, building
    /// no record. The scrubber's WAL probe.
    pub fn probe(disk: &VirtualDisk, file: &str) -> Option<WalBreak> {
        disk.with_file(file, |data| {
            let mut frames = Frames::new(data);
            frames.by_ref().for_each(drop);
            frames.break_reason()
        })
        .flatten()
    }

    /// Extracts shippable frames from a raw WAL image: the intact prefix
    /// per [`scan_bytes`](Self::scan_bytes), filtered to
    /// `after < seq <= upto`. Each [`ShippedFrame`] carries the exact
    /// on-disk bytes. The whole-log reference cut that
    /// [`frames_after`](Self::frames_after) is checked against.
    pub fn frames_in(data: &[u8], after: u64, upto: u64) -> Vec<ShippedFrame> {
        let replay = Self::scan_bytes(data);
        let mut start = 0usize;
        let mut out = Vec::new();
        for (seq, record, end) in replay.records {
            if seq > after && seq <= upto {
                out.push(ShippedFrame {
                    seq,
                    record,
                    bytes: data[start..end].to_vec(),
                });
            }
            start = end;
        }
        out
    }

    /// The frames with `after < seq <= upto`, for shipping to a follower
    /// at `after`: found by the index and read from the disk by offset,
    /// so only their bytes are copied, CRC-checked and decoded. A frame
    /// that fails its check, or whose bytes are gone, ends the batch
    /// there, as in a scan. `Some(empty)` when `after >= upto`; `None`
    /// when the log no longer holds frame `after + 1` (a checkpoint
    /// truncated it) or it fails its check — the follower needs a
    /// snapshot. Frames at or below `after` are not read, so damage in
    /// them does not stop shipping (the scrubber's scan finds it).
    pub fn frames_after(&self, after: u64, upto: u64) -> Option<Vec<ShippedFrame>> {
        if after >= upto {
            return Some(Vec::new());
        }
        let first = self.index.partition_point(|&(seq, _)| seq <= after);
        if self.index.get(first)?.0 != after + 1 {
            return None; // gap: the needed suffix was absorbed by a checkpoint
        }
        let last = self.index.partition_point(|&(seq, _)| seq <= upto);
        let mut start = first.checked_sub(1).map_or(0, |i| self.index[i].1);
        let frames = self.disk.with_file(&self.file, |data| {
            let mut out = Vec::with_capacity(last - first);
            for &(want, end) in &self.index[first..last] {
                let Some(bytes) = data.get(start..end) else {
                    break;
                };
                match decode_frame(bytes, want - 1) {
                    Ok((seq, record, len)) if seq == want && len == bytes.len() => {
                        out.push(ShippedFrame {
                            seq,
                            record: record.to_record(),
                            bytes: bytes.to_vec(),
                        });
                    }
                    _ => break,
                }
                start = end;
            }
            out
        })?;
        (!frames.is_empty()).then_some(frames)
    }

    /// Appends a record, returning its sequence number. Not durable until
    /// [`sync`](Self::sync) succeeds.
    pub fn append(&mut self, record: &WalRecord) -> u64 {
        let seq = self.next_seq;
        let payload = encode_record(record);
        let mut body = Vec::with_capacity(9 + payload.len());
        body.extend_from_slice(&seq.to_le_bytes());
        body.push(match record {
            WalRecord::Load { .. } => TAG_LOAD,
            WalRecord::Pul(_) => TAG_PUL,
            WalRecord::Digest { .. } => TAG_DIGEST,
        });
        body.extend_from_slice(&payload);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.append_frame(seq, &frame);
        seq
    }

    /// Appends one already-encoded frame with sequence number `seq` — the
    /// exact bytes a leader shipped, so a follower's log stays a byte-prefix
    /// of the leader's — and continues the sequence after it. Not durable
    /// until [`sync`](Self::sync) succeeds.
    pub fn append_frame(&mut self, seq: u64, frame: &[u8]) {
        self.disk.append(&self.file, frame);
        self.next_seq = seq + 1;
        self.index.push((seq, self.disk.len(&self.file)));
    }

    /// Group commit: fsync the log. On success every appended frame is
    /// durable; on failure the caller must keep the batch unacknowledged.
    pub fn sync(&mut self) -> Result<(), DiskError> {
        self.disk.sync(&self.file)
    }

    /// Truncates the log after a checkpoint. Sequence numbers keep
    /// counting — replay uses them to skip records a checkpoint absorbed.
    pub fn truncate(&mut self) {
        self.disk.truncate(&self.file);
        self.index.clear();
    }

    pub fn size_bytes(&self) -> usize {
        self.disk.len(&self.file)
    }

    /// Continues the sequence from a checkpoint that is ahead of the log
    /// (an empty WAL right after truncation).
    pub fn fast_forward(&mut self, seq: u64) {
        if self.next_seq <= seq {
            self.next_seq = seq + 1;
        }
    }
}

fn encode_record(record: &WalRecord) -> Vec<u8> {
    match record {
        WalRecord::Load { uri, xml } => {
            let mut out = Vec::with_capacity(8 + uri.len() + xml.len());
            out.extend_from_slice(&(uri.len() as u32).to_le_bytes());
            out.extend_from_slice(uri.as_bytes());
            out.extend_from_slice(&(xml.len() as u32).to_le_bytes());
            out.extend_from_slice(xml.as_bytes());
            out
        }
        WalRecord::Pul(bytes) => bytes.clone(),
        WalRecord::Digest { uri, digest } => {
            let mut out = Vec::with_capacity(12 + uri.len());
            out.extend_from_slice(&(uri.len() as u32).to_le_bytes());
            out.extend_from_slice(uri.as_bytes());
            out.extend_from_slice(&digest.to_le_bytes());
            out
        }
    }
}

/// A record as it sits in its frame: checked, borrowed, not copied.
#[derive(Debug, Clone, Copy)]
enum RecordRef<'a> {
    Load { uri: &'a str, xml: &'a str },
    Pul(&'a [u8]),
    Digest { uri: &'a str, digest: u64 },
}

impl RecordRef<'_> {
    fn to_record(self) -> WalRecord {
        match self {
            RecordRef::Load { uri, xml } => WalRecord::Load {
                uri: uri.to_string(),
                xml: xml.to_string(),
            },
            RecordRef::Pul(bytes) => WalRecord::Pul(bytes.to_vec()),
            RecordRef::Digest { uri, digest } => WalRecord::Digest {
                uri: uri.to_string(),
                digest,
            },
        }
    }
}

/// One accepted frame: its sequence number, its record and the offset
/// just past it in the stream.
struct Frame<'a> {
    seq: u64,
    record: RecordRef<'a>,
    end: usize,
}

/// The accept rule as an iterator: the frames of a stream in order, each
/// intact and numbered above the one before it, ending at the first frame
/// that is not (or at the end of the stream).
struct Frames<'a> {
    data: &'a [u8],
    /// Offset of the next frame: the bytes before it were accepted.
    pos: usize,
    prev_seq: u64,
    broke: Option<WalBreak>,
}

impl<'a> Frames<'a> {
    fn new(data: &'a [u8]) -> Self {
        Frames {
            data,
            pos: 0,
            prev_seq: 0,
            broke: None,
        }
    }

    /// Once the walk has ended: why it stopped before the end of the
    /// stream, if it did. Leftover bytes too short to form a header are a
    /// torn tail.
    fn break_reason(&self) -> Option<WalBreak> {
        self.broke
            .or((self.pos < self.data.len()).then_some(WalBreak::TornTail))
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        if self.broke.is_some() || self.pos + HEADER > self.data.len() {
            return None;
        }
        match decode_frame(&self.data[self.pos..], self.prev_seq) {
            Ok((seq, record, len)) => {
                self.pos += len;
                self.prev_seq = seq;
                Some(Frame {
                    seq,
                    record,
                    end: self.pos,
                })
            }
            Err(broke) => {
                self.broke = Some(broke);
                None
            }
        }
    }
}

/// Checks the frame at the start of `data`, which must follow a frame
/// numbered `prev_seq`: its sequence number, record and byte length, or
/// why it is not an intact next frame.
fn decode_frame(data: &[u8], prev_seq: u64) -> Result<(u64, RecordRef<'_>, usize), WalBreak> {
    let word = |at: usize| [data[at], data[at + 1], data[at + 2], data[at + 3]];
    if data.len() < HEADER {
        return Err(WalBreak::TornTail);
    }
    let len = u32::from_le_bytes(word(0)) as usize;
    let end = HEADER + len;
    if end > data.len() {
        return Err(WalBreak::TornTail);
    }
    let body = &data[8..end];
    if crc32(body) != u32::from_le_bytes(word(4)) {
        return Err(WalBreak::CrcMismatch);
    }
    let seq = u64::from_le_bytes(body[..8].try_into().map_err(|_| WalBreak::Malformed)?);
    if seq <= prev_seq {
        return Err(WalBreak::StaleSeq);
    }
    let record = decode_record(body[8], &body[9..]).ok_or(WalBreak::Malformed)?;
    Ok((seq, record, end))
}

/// A `u32`-length-prefixed UTF-8 string at `at`, and the offset after it.
fn str_at(payload: &[u8], at: usize) -> Option<(&str, usize)> {
    let len = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
    let end = (at + 4).checked_add(len)?;
    Some((std::str::from_utf8(payload.get(at + 4..end)?).ok()?, end))
}

fn decode_record(tag: u8, payload: &[u8]) -> Option<RecordRef<'_>> {
    match tag {
        TAG_LOAD => {
            let (uri, at) = str_at(payload, 0)?;
            let (xml, end) = str_at(payload, at)?;
            (end == payload.len()).then_some(RecordRef::Load { uri, xml })
        }
        TAG_PUL => Some(RecordRef::Pul(payload)),
        TAG_DIGEST => {
            let (uri, at) = str_at(payload, 0)?;
            let digest = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
            (at + 8 == payload.len()).then_some(RecordRef::Digest { uri, digest })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::StorageFaultPlan;

    fn load(uri: &str, xml: &str) -> WalRecord {
        WalRecord::Load {
            uri: uri.to_string(),
            xml: xml.to_string(),
        }
    }

    #[test]
    fn append_sync_scan_round_trips() {
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        assert_eq!(wal.append(&load("a.xml", "<a/>")), 1);
        assert_eq!(wal.append(&WalRecord::Pul(vec![1, 2, 3])), 2);
        wal.sync().unwrap();
        let replay = Wal::scan(&disk, WAL_FILE);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].0, 1);
        assert_eq!(replay.records[0].1, load("a.xml", "<a/>"));
        assert_eq!(replay.records[1].1, WalRecord::Pul(vec![1, 2, 3]));
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.valid_bytes, disk.len(WAL_FILE));
    }

    #[test]
    fn unsynced_tail_is_dropped_after_a_crash() {
        let disk = VirtualDisk::with_plan(StorageFaultPlan::seeded(11));
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("a.xml", "<a/>"));
        wal.sync().unwrap();
        // a large unsynced record: the crash tears it
        wal.append(&load("b.xml", &format!("<b>{}</b>", "x".repeat(500))));
        disk.crash();
        let replay = Wal::scan(&disk, WAL_FILE);
        assert_eq!(replay.records.len(), 1, "only the synced frame survives");
        assert_eq!(replay.records[0].1, load("a.xml", "<a/>"));
    }

    #[test]
    fn corrupt_frame_stops_replay_at_the_previous_boundary() {
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("a.xml", "<a/>"));
        wal.append(&load("b.xml", "<b/>"));
        wal.sync().unwrap();
        // flip a bit inside the second frame's payload
        let mut data = disk.read(WAL_FILE).unwrap();
        let first_end = Wal::scan(&disk, WAL_FILE).records[0].2;
        data[first_end + HEADER] ^= 0x40;
        disk.write_file(WAL_FILE, &data);
        let replay = Wal::scan(&disk, WAL_FILE);
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.valid_bytes, first_end);
    }

    #[test]
    fn open_after_drops_the_tail_and_continues_the_sequence() {
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("a.xml", "<a/>"));
        wal.sync().unwrap();
        wal.append(&load("b.xml", "<b/>"));
        disk.crash(); // tears the unsynced second frame
        let replay = Wal::scan(&disk, WAL_FILE);
        let mut wal = Wal::open_after(disk.clone(), WAL_FILE, &replay);
        assert_eq!(disk.len(WAL_FILE), replay.valid_bytes, "tail dropped");
        let seq = wal.append(&load("c.xml", "<c/>"));
        assert_eq!(seq, replay.records.last().unwrap().0 + 1);
        wal.sync().unwrap();
        let again = Wal::scan(&disk, WAL_FILE);
        assert_eq!(again.records.len(), replay.records.len() + 1);
    }

    #[test]
    fn truncate_then_fast_forward_keeps_seq_monotone() {
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("a.xml", "<a/>"));
        wal.append(&load("b.xml", "<b/>"));
        wal.sync().unwrap();
        wal.truncate();
        assert_eq!(wal.size_bytes(), 0);
        let seq = wal.append(&load("c.xml", "<c/>"));
        assert_eq!(seq, 3, "sequence survives truncation");

        let mut fresh = Wal::create(VirtualDisk::new(), WAL_FILE);
        fresh.fast_forward(9);
        assert_eq!(fresh.append(&load("d.xml", "<d/>")), 10);
    }

    #[test]
    fn digest_records_round_trip() {
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        let rec = WalRecord::Digest {
            uri: "a.xml".to_string(),
            digest: 0xDEAD_BEEF_0123_4567,
        };
        wal.append(&load("a.xml", "<a/>"));
        wal.append(&rec);
        wal.sync().unwrap();
        let replay = Wal::scan(&disk, WAL_FILE);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].1, rec);
        assert_eq!(replay.break_reason, None);
    }

    #[test]
    fn torn_tail_classifies_as_expected_not_alarm() {
        let disk = VirtualDisk::with_plan(StorageFaultPlan::seeded(11));
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("a.xml", "<a/>"));
        wal.sync().unwrap();
        wal.append(&load("b.xml", &format!("<b>{}</b>", "x".repeat(500))));
        disk.crash();
        let replay = Wal::scan(&disk, WAL_FILE);
        if replay.torn_tail_dropped {
            assert_eq!(replay.break_reason, Some(WalBreak::TornTail));
            assert!(!replay.mid_prefix_damage());
        }
    }

    #[test]
    fn mid_prefix_bit_flip_classifies_as_corruption_alarm() {
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("a.xml", "<a/>"));
        wal.append(&load("b.xml", "<b/>"));
        wal.append(&load("c.xml", "<c/>"));
        wal.sync().unwrap();
        // flip one bit inside the *second* frame: frames exist beyond it
        let mut data = disk.read(WAL_FILE).unwrap();
        let first_end = Wal::scan(&disk, WAL_FILE).records[0].2;
        data[first_end + HEADER] ^= 0x40;
        disk.write_file(WAL_FILE, &data);
        let replay = Wal::scan(&disk, WAL_FILE);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.break_reason, Some(WalBreak::CrcMismatch));
        assert!(replay.mid_prefix_damage());
        assert_eq!(replay.valid_bytes, first_end);
    }

    #[test]
    fn decay_on_a_synced_wal_is_caught_by_the_crc() {
        // Latent decay flips a bit somewhere in the synced log with no
        // crash at all: the scan must stop at (or before) the flipped
        // frame and classify the damage, never return flipped bytes.
        let disk = VirtualDisk::with_plan(
            StorageFaultPlan::seeded(3)
                .with_decay_permille(60)
                .with_decay_period_ms(100),
        );
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        for k in 0..40 {
            wal.append(&load(
                &format!("d{k}.xml"),
                &format!("<d>{}</d>", "y".repeat(50)),
            ));
        }
        wal.sync().unwrap();
        let clean = Wal::scan(&disk, WAL_FILE);
        assert_eq!(clean.records.len(), 40);
        disk.decay_at(2_000);
        assert!(disk.stats().sectors_decayed > 0, "decay must have struck");
        let replay = Wal::scan(&disk, WAL_FILE);
        assert!(replay.records.len() < 40, "damage truncates the scan");
        assert!(replay.mid_prefix_damage());
        for (seq, rec, _) in &replay.records {
            // every record the scan *does* accept is bit-exact
            assert_eq!((rec, *seq), (&clean.records[*seq as usize - 1].1, *seq));
        }
    }

    #[test]
    fn stale_bytes_with_old_seq_do_not_replay() {
        // a truncate that "came back" with stale frames: the sequence
        // check refuses to replay them after newer frames
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&load("new.xml", "<new/>")); // seq 1
        wal.sync().unwrap();
        let newer = disk.read(WAL_FILE).unwrap();
        let mut stale = Wal::create(disk.clone(), WAL_FILE);
        stale.append(&load("old.xml", "<old/>")); // seq 1 again
        disk.sync(WAL_FILE).unwrap();
        let mut combined = disk.read(WAL_FILE).unwrap();
        combined.extend_from_slice(&newer); // stale frame followed by seq 1
        disk.write_file(WAL_FILE, &combined);
        let replay = Wal::scan(&disk, WAL_FILE);
        assert_eq!(replay.records.len(), 1, "duplicate seq stops the scan");
    }
}
