//! SETL v3 — the binary trace codec: the one format `tracetool record`
//! writes, every reader reads and the persistent run store keeps.
//!
//! A 60 s trace is dominated by `CSwitch` records whose fields are tiny
//! deltas, so the codec spends bytes only on what changes (the CLI tests
//! hold a `tracetool record` trace to at most 9 bytes per event) while
//! staying dependency-free and bit-exact:
//!
//! * **varints everywhere** — LEB128 unsigned integers for counts, ids and
//!   keys;
//! * **delta-encoded timestamps, per CPU** — `CSwitch` records store the
//!   gap since the previous switch *on the same CPU*; every other record
//!   stores the gap since the previous record in the stream. Both deltas
//!   are non-negative because the trace log is time-ordered;
//! * **interned strings** — process/thread names and marker labels are
//!   collected into a front-loaded string table (first-appearance order)
//!   and referenced by index;
//! * **checksums** — every block carries a 64-bit [`checksum`], the block
//!   index carries `meta_hash` over the header and index, and the whole
//!   file ends in a 64-bit checksum chained over every segment the writer
//!   emits, so a flipped byte or truncation is always an `InvalidData`
//!   error, never a silently wrong trace. [`checksum`] hashes a word at a
//!   time in four lanes of odd-prime multiplies and rotations, and every
//!   step is injective, so a change to one byte, or inside one aligned
//!   8-byte word, always changes it: the trailer alone catches every
//!   one-byte corruption, and the block hashes localize it. Records carry
//!   no check bytes of their own; the block hash covers them.
//! * **blocked record area** — records are grouped into fixed-size blocks
//!   ([`BLOCK_RECORDS`] each) and a trailing block index records, per
//!   block: record count, byte length, the block's checksum, and the
//!   delta-decoder clock snapshot at the block boundary. Any block can
//!   therefore decode on its own — no seek-from-start — and verify without
//!   touching the rest of the file.
//!
//! There is one parser, one record decoder and one block walk.
//! [`Index::parse`] checks the header, string table and block index over
//! the slice holding the whole stream, with every bound a crafted file
//! could abuse; [`crate::shard::BlockCursor`] decodes one block's records
//! in place; [`crate::shard::ShardedTrace::fold_events`] walks the blocks
//! in order. Readers that want every event — [`read_setl3`],
//! [`crate::etl::read_etl`], [`crate::timeline::read_timeline`],
//! [`crate::etl::trace_info`] — fold the caller's slice through it at
//! width 1, and the sharded analyzers at any width, so every reader
//! checks every hash, the file trailer included. Every reader takes the
//! whole stream as a slice, since the block index sits at its tail, and a
//! stream cut short anywhere is `InvalidData`.
//!
//! The stream starts with the 5-byte magic `SETL3` and a revision byte;
//! only revision 3 (the blocked layout with word-at-a-time checksums and
//! no per-record check byte) is read. [`Index::parse`] alone decides which
//! streams are read, so every reader refuses a revision-2 stream with a
//! message of its own (re-record the trace), and a legacy flat SETL v1/v2
//! file (magic `SETL` + version byte 1 or 2) with another: `tracetool
//! pack` from an older build converts one to v3.

use crate::event::{EtlTrace, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use crate::shard::{SerialShards, ShardedTrace};
use simcore::SimTime;
use std::io::{self, Write};

/// The 5-byte stream magic.
pub const MAGIC: &[u8; 5] = b"SETL3";
/// Codec revision within the v3 family (bump for incompatible changes).
/// Revision 3 has the trailing block index, word-at-a-time checksums and
/// no per-record check byte; no other revision is read.
pub const VERSION: u8 = 3;
/// Records per block (the last block may be short).
pub const BLOCK_RECORDS: u64 = 4096;

/// Upper bound on string-table entries and string length, to keep malformed
/// input from asking for absurd allocations.
const MAX_STRINGS: u64 = 1 << 22;
const MAX_STRING_LEN: u64 = 1 << 20;
/// Upper bound on a header's logical CPU count. Readers and analyzers size
/// per-CPU state from it, so it caps what a crafted header can make them
/// allocate.
const MAX_LOGICAL_CPUS: u64 = 1 << 20;

/// The seed of every checksum chain: the 64-bit FNV-1a offset basis.
pub const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime, for the bytes after the last whole word.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd multipliers of a lane step (xxHash64's first two primes): one for
/// the word before it enters the lane, one for the lane after it rotates.
const WORD_PRIME: u64 = 0xc2b2_ae3d_27d4_eb4f;
const LANE_PRIME: u64 = 0x9e37_79b1_85eb_ca87;
/// Seeds of lanes 1–3; lane 0 carries the chaining value.
const LANE_1_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_2_SEED: u64 = 0x85eb_ca77_c2b2_ae63;
const LANE_3_SEED: u64 = 0x1656_67b1_9e37_79f9;

/// The one checksum of the codec and of the run store: a word-at-a-time
/// hash chained through `seed`.
///
/// Four lanes each take every fourth little-endian `u64` word of `bytes`
/// (the remainder's whole words included) in a [`lane_step`]. Lane 0
/// starts from `seed`, the others from fixed constants. The lanes fold
/// into one value by XOR of rotations, and the last `len % 8` bytes are
/// hashed into it byte by byte, as FNV-1a does. Every step is a bijection
/// of the state it changes, so a change inside one aligned 8-byte word, or
/// to any one byte, always changes the result.
pub fn checksum(seed: u64, bytes: &[u8]) -> u64 {
    let mut lanes = [seed, LANE_1_SEED, LANE_2_SEED, LANE_3_SEED];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *lane = lane_step(*lane, le_word(word));
        }
    }
    let mut words = chunks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = lane_step(*lane, le_word(word));
    }
    let folded = lanes
        .iter()
        .zip([0, 16, 32, 48])
        .fold(0, |h, (lane, r)| h ^ lane.rotate_left(r));
    words
        .remainder()
        .iter()
        .fold(folded, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// One lane step, in the shape of xxHash64's round: XOR in the word times
/// an odd prime, rotate, multiply by another odd prime. A multiply never
/// carries a difference in the top bit anywhere else, so with one multiply
/// per step that difference would reach the next word of the lane intact
/// and a second flip there could cancel it. Multiplying the word first and
/// the lane after the rotation leaves every difference spread over the
/// lane before the next word arrives.
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word.wrapping_mul(WORD_PRIME))
        .rotate_left(31)
        .wrapping_mul(LANE_PRIME)
}

/// The little-endian value of an 8-byte slice.
fn le_word(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().unwrap_or([0; 8]))
}

/// Encodes `trace` as a SETL v3 stream into `w`, through [`V3Writer`]:
/// each block goes to the writer as it fills, so nothing proportional to
/// the trace is buffered on the way.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_setl3<W: Write>(trace: &EtlTrace, w: W) -> io::Result<()> {
    let mut sp = simobs::span::span("codec", "encode_setl3");
    sp.add_events(trace.events().len() as u64);

    // String table, first-appearance order (deterministic).
    let mut strings: Vec<&str> = Vec::new();
    for ev in trace.events() {
        if let Some(s) = event_string(ev) {
            if !strings.contains(&s) {
                strings.push(s);
            }
        }
    }

    let mut w = V3Writer::new(
        Counted { w, bytes: 0 },
        trace.n_logical_cpus(),
        trace.start(),
        trace.end(),
        &strings,
        trace.events().len() as u64,
    )?;
    for ev in trace.events() {
        w.push(ev)?;
    }
    sp.add_bytes(w.finish()?.bytes);
    Ok(())
}

/// Encodes `trace` into an in-memory SETL v3 stream whose buffer is
/// exactly the stream's length. The block index sits at the tail, so a
/// container embedding the stream must let the reader find its end (the
/// run store puts it last).
pub fn encode(trace: &EtlTrace) -> Vec<u8> {
    // Records average about 8.2 bytes, so the reservation usually holds
    // the whole stream; the trim hands back what it did not use.
    let mut out = Vec::with_capacity(trace.events().len() * 10 + 64);
    // lint:allow(analyzer-panic): writing into a Vec cannot fail
    write_setl3(trace, &mut out).expect("Vec write cannot fail");
    out.shrink_to_fit();
    out
}

/// A writer that counts the bytes it passes on, for the encode span.
struct Counted<W> {
    w: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.w.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// The interned-string lookup table of a [`V3Writer`]: index by
/// first-appearance order, O(log n) lookup.
struct StringIds {
    ordered: Vec<String>,
    ids: std::collections::BTreeMap<String, u64>,
}

impl StringIds {
    fn new(strings: &[&str]) -> StringIds {
        StringIds {
            ordered: strings.iter().map(|s| (*s).to_string()).collect(),
            ids: strings
                .iter()
                .enumerate()
                .map(|(i, s)| ((*s).to_string(), i as u64))
                .collect(),
        }
    }

    /// Looks up `s` in the interned table (the caller interns every string
    /// before encoding events).
    fn index(&self, s: &str) -> u64 {
        self.ids
            .get(s)
            .copied()
            // lint:allow(analyzer-panic): the encoder interns every string before encoding events
            .expect("encoder interns every event string")
    }
}

/// Per-block bookkeeping the writer accumulates for the trailing index.
struct BlockMetaOut {
    records: u64,
    bytes: u64,
    hash: u64,
    /// Delta-decoder clock state at the block boundary (before its first
    /// record), as offsets from the window start.
    global: u64,
    per_cpu: Vec<u64>,
}

/// A streaming revision-3 encoder: declare the dimensions, string table and
/// record count up front, push events one at a time, and `finish` to emit
/// the block index and checksums. Nothing proportional to the trace is ever
/// buffered — only the current block — so multi-million-event traces stream
/// straight to disk.
pub struct V3Writer<W: Write> {
    w: W,
    file_hash: u64,
    strings: StringIds,
    clocks: Clocks,
    start: SimTime,
    count: u64,
    pushed: u64,
    /// File hash state covering magic..record-area-start (the header), the
    /// seed for the index `meta_hash`.
    header_hash: u64,
    /// Encoded records of the block being filled.
    block: Vec<u8>,
    block_records: u64,
    /// Clock snapshot taken when the current block opened.
    block_clocks: Clocks,
    metas: Vec<BlockMetaOut>,
}

impl<W: Write> V3Writer<W> {
    /// Starts a revision-3 stream: writes the magic, header and string
    /// table. `strings` must contain every name/label the pushed events
    /// will carry (first-appearance order is conventional but not
    /// required); `count` must equal the number of `push` calls.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    pub fn new(
        w: W,
        n_logical: usize,
        start: SimTime,
        end: SimTime,
        strings: &[&str],
        count: u64,
    ) -> io::Result<Self> {
        let clocks = Clocks::new(n_logical, start);
        let mut this = V3Writer {
            w,
            file_hash: CHECKSUM_SEED,
            strings: StringIds::new(strings),
            block_clocks: clocks.clone(),
            clocks,
            start,
            count,
            pushed: 0,
            header_hash: 0,
            block: Vec::new(),
            block_records: 0,
            metas: Vec::new(),
        };
        let mut header = Vec::with_capacity(64);
        header.extend_from_slice(MAGIC);
        header.push(VERSION);
        put_uv(&mut header, n_logical as u64);
        put_uv(&mut header, start.as_nanos());
        put_uv(&mut header, end.as_nanos().saturating_sub(start.as_nanos()));
        put_uv(&mut header, this.strings.ordered.len() as u64);
        for s in &this.strings.ordered {
            put_uv(&mut header, s.len() as u64);
            header.extend_from_slice(s.as_bytes());
        }
        put_uv(&mut header, count);
        this.emit(&header)?;
        this.header_hash = this.file_hash;
        Ok(this)
    }

    fn emit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.w.write_all(bytes)?;
        self.file_hash = checksum(self.file_hash, bytes);
        Ok(())
    }

    /// Encodes one event. Events must arrive in trace (time) order, exactly
    /// `count` of them.
    ///
    /// # Errors
    /// `InvalidData` on a push past the declared count; I/O errors from the
    /// writer when a full block flushes.
    pub fn push(&mut self, ev: &TraceEvent) -> io::Result<()> {
        if self.pushed == self.count {
            return Err(bad("more events pushed than declared"));
        }
        if self.block_records == 0 {
            self.block_clocks = self.clocks.clone();
        }
        encode_event(&mut self.block, ev, &self.strings, &mut self.clocks);
        self.block_records += 1;
        self.pushed += 1;
        if self.block_records == BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        let start = self.start.as_nanos();
        self.metas.push(BlockMetaOut {
            records: self.block_records,
            bytes: self.block.len() as u64,
            hash: checksum(CHECKSUM_SEED, &self.block),
            global: self.block_clocks.global - start,
            per_cpu: self
                .block_clocks
                .per_cpu
                .iter()
                .map(|c| c - start)
                .collect(),
        });
        let block = std::mem::take(&mut self.block);
        self.emit(&block)?;
        self.block = block;
        self.block.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Flushes the last block and writes the block index, `meta_hash`,
    /// index length and file trailer.
    ///
    /// # Errors
    /// `InvalidData` if fewer events than declared were pushed; I/O errors
    /// from the writer.
    pub fn finish(mut self) -> io::Result<W> {
        if self.pushed != self.count {
            return Err(bad("fewer events pushed than declared"));
        }
        self.flush_block()?;
        let mut index = Vec::with_capacity(self.metas.len() * 24 + 16);
        put_uv(&mut index, self.metas.len() as u64);
        for m in &self.metas {
            put_uv(&mut index, m.records);
            put_uv(&mut index, m.bytes);
            index.extend_from_slice(&m.hash.to_le_bytes());
            put_uv(&mut index, m.global);
            for c in &m.per_cpu {
                put_uv(&mut index, *c);
            }
        }
        // meta_hash covers the header bytes plus the index bytes so far —
        // everything a sharded reader needs to trust without a full-file
        // sequential hash.
        let meta_hash = checksum(self.header_hash, &index);
        index.extend_from_slice(&meta_hash.to_le_bytes());
        let index_len = index.len() as u64;
        index.extend_from_slice(&index_len.to_le_bytes());
        self.emit(&index)?;
        let trailer = self.file_hash;
        self.w.write_all(&trailer.to_le_bytes())?;
        Ok(self.w)
    }
}

/// Decodes a SETL v3 stream; `bytes` must be exactly one stream, magic to
/// trailer.
///
/// The decoded trace holds exactly its events: its vector is sized from
/// the block index's record count before the first record decodes, and
/// never grows. The count is untrusted, so the reservation is clamped to
/// what the stream's bytes can hold; a stream whose blocks hold fewer
/// records than the index claims fails in the fold, a width-1
/// [`ShardedTrace::fold_events`] over `bytes` in place.
///
/// # Errors
/// Returns `InvalidData` for a bad magic/revision, a stream cut short,
/// malformed or out-of-order records, or any checksum mismatch.
pub fn read_setl3(bytes: &[u8]) -> io::Result<EtlTrace> {
    let mut sp = simobs::span::span("codec", "read_setl3");
    let trace = ShardedTrace::from_slice(bytes)?;
    // A record takes at least 2 bytes.
    let capacity = (bytes.len() / 2).min(usize::try_from(trace.count()).unwrap_or(usize::MAX));
    let mut builder = TraceBuilder::with_capacity(trace.n_logical_cpus(), capacity);
    trace.fold_events(&SerialShards, 1, |ev| builder.push_decoded(ev))?;
    sp.add_events(trace.count());
    sp.add_bytes(bytes.len() as u64);
    Ok(builder.finish(trace.start(), trace.end()))
}

/// One entry of the trailing block index: where the block's bytes live and
/// the delta-decoder state at its boundary.
#[derive(Debug)]
pub(crate) struct BlockMeta {
    /// Absolute byte offset of the block in the stream.
    pub(crate) offset: usize,
    /// Encoded length in bytes.
    pub(crate) len: usize,
    /// Records in the block.
    pub(crate) records: u64,
    /// [`checksum`] of the block's bytes from [`CHECKSUM_SEED`].
    pub(crate) hash: u64,
    /// Clock snapshot before the block's first record (absolute ns).
    pub(crate) clocks: Clocks,
}

/// A stream's header, string table and block index, checked without
/// decoding a record.
#[derive(Debug)]
pub(crate) struct Index {
    pub(crate) n_logical: usize,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) strings: Vec<String>,
    /// Records in the stream; the block record counts sum to it.
    pub(crate) count: u64,
    /// Contiguous blocks that tile the record area exactly.
    pub(crate) blocks: Vec<BlockMeta>,
    /// [`checksum`] of the header bytes: the whole-file hash where the
    /// record area starts.
    pub(crate) header_hash: u64,
    /// Offset of the block index, i.e. the end of the record area.
    index_start: usize,
}

impl Index {
    /// Parses the header forward and the block index from the fixed-size
    /// tail, checks `meta_hash` (which covers header and index), and
    /// cross-checks the block extents against the record area.
    ///
    /// # Errors
    /// `InvalidData` with a distinct message for legacy flat v1/v2 traces,
    /// for revision-2 streams and for other revisions, for a stream cut
    /// short (a proper prefix of the magic included), for any structural
    /// inconsistency or exceeded bound, and for a `meta_hash` mismatch.
    pub(crate) fn parse(bytes: &[u8]) -> io::Result<Index> {
        let Some(rest) = bytes.strip_prefix(MAGIC.as_slice()) else {
            return Err(match bytes {
                _ if MAGIC.starts_with(bytes) => truncated(),
                // A flat file's version is a little-endian u32.
                [b'S', b'E', b'T', b'L', 1 | 2, ..] => bad("legacy flat SETL v1/v2 trace is no longer read; convert it to v3 with `tracetool pack` from an older build"),
                _ => bad("not a SETL3 trace stream"),
            });
        };
        let (&revision, mut r) = rest.split_first().ok_or_else(truncated)?;
        if revision == 2 {
            return Err(bad(
                "SETL3 revision 2 is no longer read; re-record the trace",
            ));
        }
        if revision != VERSION {
            return Err(bad("unsupported SETL3 revision"));
        }
        let n_logical = get_uv(&mut r)?;
        if n_logical > MAX_LOGICAL_CPUS {
            return Err(bad("implausible logical CPU count"));
        }
        let n_logical = n_logical as usize;
        let start = get_uv(&mut r)?;
        let end = start.checked_add(get_uv(&mut r)?).ok_or_else(overflow)?;
        let n_strings = get_uv(&mut r)?;
        if n_strings > MAX_STRINGS {
            return Err(bad("string table too large"));
        }
        // Every entry takes at least its length byte.
        let mut strings = Vec::with_capacity(n_strings.min(r.len() as u64) as usize);
        for _ in 0..n_strings {
            let len = get_uv(&mut r)?;
            if len > MAX_STRING_LEN {
                return Err(bad("string too long"));
            }
            let s = take(&mut r, len as usize)?;
            let s = std::str::from_utf8(s).map_err(|_| bad("invalid utf-8 string"))?;
            strings.push(s.to_owned());
        }
        let count = get_uv(&mut r)?;
        let record_start = bytes.len() - r.len();
        let header_hash = checksum(CHECKSUM_SEED, bytes.get(..record_start).unwrap_or_default());

        // Tail: [index entries | meta_hash 8B] [index_len 8B] [trailer 8B].
        let meta_at = bytes
            .len()
            .checked_sub(24)
            .filter(|&at| at >= record_start)
            .ok_or_else(truncated)?;
        let meta_hash = le_u64(bytes, meta_at)?;
        let index_start = usize::try_from(le_u64(bytes, meta_at + 8)?)
            .ok()
            .and_then(|index_len| (meta_at + 8).checked_sub(index_len))
            .filter(|&at| at >= record_start && at <= meta_at)
            .ok_or_else(|| bad("block index length out of range"))?;
        let mut entries = bytes.get(index_start..meta_at).unwrap_or_default();
        if checksum(header_hash, entries) != meta_hash {
            return Err(bad("block index checksum mismatch"));
        }

        // Index entries, now trusted byte for byte; the bounds still hold
        // against a crafted file that recomputed `meta_hash`.
        let n_blocks = get_uv(&mut entries)?;
        if n_blocks > count {
            return Err(bad("block index larger than record count"));
        }
        // Every entry takes at least 11 bytes.
        let mut blocks = Vec::with_capacity(n_blocks.min(entries.len() as u64 / 11) as usize);
        let mut offset = record_start;
        let mut total_records = 0u64;
        let abs = |off: u64| {
            start
                .checked_add(off)
                .ok_or_else(|| bad("clock snapshot overflows u64 nanoseconds"))
        };
        for _ in 0..n_blocks {
            let records = get_uv(&mut entries)?;
            let len = usize::try_from(get_uv(&mut entries)?)
                .map_err(|_| bad("block extent past the record area"))?;
            let hash = u64::from_le_bytes(take_array(&mut entries)?);
            let global = abs(get_uv(&mut entries)?)?;
            let mut per_cpu = Vec::with_capacity(n_logical.max(1).min(entries.len()));
            for _ in 0..n_logical.max(1) {
                per_cpu.push(abs(get_uv(&mut entries)?)?);
            }
            blocks.push(BlockMeta {
                offset,
                len,
                records,
                hash,
                clocks: Clocks { per_cpu, global },
            });
            offset = offset
                .checked_add(len)
                .filter(|&o| o <= index_start)
                .ok_or_else(|| bad("block extent past the record area"))?;
            total_records = total_records
                .checked_add(records)
                .ok_or_else(|| bad("block record counts overflow"))?;
        }
        if !entries.is_empty() {
            return Err(bad("trailing bytes in block index"));
        }
        if offset != index_start {
            return Err(bad("block extents do not cover the record area"));
        }
        if total_records != count {
            return Err(bad("block record counts do not sum to the stream count"));
        }
        Ok(Index {
            n_logical,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            strings,
            count,
            blocks,
            header_hash,
            index_start,
        })
    }

    /// Checks the file trailer of `bytes`, chaining the index tail onto
    /// `file_hash`, the whole-file hash over the header and every block.
    pub(crate) fn check_trailer(&self, bytes: &[u8], file_hash: u64) -> io::Result<()> {
        let trailer_at = bytes.len().saturating_sub(8);
        let tail = bytes
            .get(self.index_start..trailer_at)
            .ok_or_else(truncated)?;
        if checksum(file_hash, tail) != le_u64(bytes, trailer_at)? {
            return Err(bad("file checksum mismatch"));
        }
        Ok(())
    }
}

/// Splits the first `n` bytes off `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if n > r.len() {
        return Err(truncated());
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

fn take_array<const N: usize>(r: &mut &[u8]) -> io::Result<[u8; N]> {
    take(r, N)?.try_into().map_err(|_| truncated())
}

/// The little-endian `u64` at byte `at`.
fn le_u64(bytes: &[u8], at: usize) -> io::Result<u64> {
    let mut r = bytes.get(at..).unwrap_or_default();
    take_array(&mut r).map(u64::from_le_bytes)
}

/// The interned string carried by an event, if any.
fn event_string(ev: &TraceEvent) -> Option<&str> {
    match ev {
        TraceEvent::ProcessStart { name, .. } | TraceEvent::ThreadStart { name, .. } => Some(name),
        TraceEvent::Marker { label, .. } => Some(label),
        _ => None,
    }
}

/// Timestamp reference clocks: one per CPU for `CSwitch`, one global for
/// everything else. Encoder and decoder advance them identically, so the
/// deltas round-trip bit-exactly. A block-index snapshot is exactly this
/// struct at a block boundary, which is what lets every block decode on
/// its own.
#[derive(Clone, Debug)]
pub(crate) struct Clocks {
    pub(crate) per_cpu: Vec<u64>,
    pub(crate) global: u64,
}

impl Clocks {
    pub(crate) fn new(n_logical: usize, start: SimTime) -> Clocks {
        Clocks {
            per_cpu: vec![start.as_nanos(); n_logical.max(1)],
            global: start.as_nanos(),
        }
    }

    /// The reference clock an event's delta is taken against.
    fn reference(&mut self, cpu: Option<usize>) -> &mut u64 {
        match cpu.and_then(|c| self.per_cpu.get_mut(c)) {
            Some(clock) => clock,
            None => &mut self.global,
        }
    }
}

fn encode_at(out: &mut Vec<u8>, at: SimTime, cpu: Option<usize>, clocks: &mut Clocks) {
    let clock = clocks.reference(cpu);
    // The builder guarantees global time order, so per-CPU references (which
    // only ever lag the global clock) can't produce a negative delta either.
    let delta = at.as_nanos().saturating_sub(*clock);
    *clock = at.as_nanos();
    put_uv(out, delta);
}

/// Decodes a record's time against its reference clock. Records use
/// different reference clocks, so a well-formed delta can still land
/// before `last_at`, the time of the record before it: that is refused.
fn decode_at(
    r: &mut &[u8],
    cpu: Option<usize>,
    clocks: &mut Clocks,
    last_at: &mut u64,
) -> io::Result<SimTime> {
    let delta = get_uv(r)?;
    let clock = clocks.reference(cpu);
    let at = clock.checked_add(delta).ok_or_else(overflow)?;
    if at < *last_at {
        return Err(bad(OUT_OF_ORDER));
    }
    *clock = at;
    *last_at = at;
    Ok(SimTime::from_nanos(at))
}

fn encode_event(out: &mut Vec<u8>, ev: &TraceEvent, strings: &StringIds, clocks: &mut Clocks) {
    match ev {
        TraceEvent::ProcessStart { at, pid, name } => {
            out.push(0);
            encode_at(out, *at, None, clocks);
            put_uv(out, *pid);
            put_uv(out, strings.index(name));
        }
        TraceEvent::ThreadStart { at, key, name } => {
            out.push(1);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_uv(out, strings.index(name));
        }
        TraceEvent::ThreadEnd { at, key } => {
            out.push(2);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
        }
        TraceEvent::CSwitch {
            at,
            cpu,
            old,
            new,
            ready_since,
        } => {
            out.push(3);
            put_uv(out, *cpu as u64);
            encode_at(out, *at, Some(*cpu), clocks);
            put_opt_key(out, *old);
            put_opt_key(out, *new);
            // `ready_since` precedes the switch-in, so it's a backwards
            // delta from `at`; 0 marks `None`, `d+1` marks `at - d`.
            match ready_since {
                None => put_uv(out, 0),
                Some(t) => put_uv(out, at.as_nanos().saturating_sub(t.as_nanos()) + 1),
            }
        }
        TraceEvent::GpuStart {
            at,
            gpu,
            engine,
            packet,
            pid,
        } => {
            out.push(4);
            encode_at(out, *at, None, clocks);
            put_uv(out, *gpu as u64);
            put_uv(out, *engine as u64);
            put_uv(out, *packet);
            put_uv(out, *pid);
        }
        TraceEvent::GpuEnd {
            at,
            gpu,
            engine,
            packet,
            pid,
        } => {
            out.push(5);
            encode_at(out, *at, None, clocks);
            put_uv(out, *gpu as u64);
            put_uv(out, *engine as u64);
            put_uv(out, *packet);
            put_uv(out, *pid);
        }
        TraceEvent::Frame { at, pid } => {
            out.push(6);
            encode_at(out, *at, None, clocks);
            put_uv(out, *pid);
        }
        TraceEvent::Marker { at, label } => {
            out.push(7);
            encode_at(out, *at, None, clocks);
            put_uv(out, strings.index(label));
        }
        TraceEvent::WaitBegin { at, key, reason } => {
            out.push(8);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_reason(out, *reason);
        }
        TraceEvent::WaitEnd {
            at,
            key,
            reason,
            waker,
        } => {
            out.push(9);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_reason(out, *reason);
            put_opt_key(out, *waker);
        }
        TraceEvent::GpuSubmit {
            at,
            key,
            gpu,
            packet,
        } => {
            out.push(10);
            encode_at(out, *at, None, clocks);
            put_key(out, *key);
            put_uv(out, *gpu as u64);
            put_uv(out, *packet);
        }
    }
}

/// Decodes one record. A context switch must name a CPU below
/// `n_logical`: analyzers size their per-CPU state from the header. The
/// record's time may not precede `last_at`, the time of the record before
/// it, and becomes the new `last_at`.
pub(crate) fn decode_event(
    r: &mut &[u8],
    strings: &[String],
    n_logical: usize,
    clocks: &mut Clocks,
    last_at: &mut u64,
) -> io::Result<TraceEvent> {
    Ok(match get_u8(r)? {
        0 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::ProcessStart {
                at,
                pid: get_uv(r)?,
                name: get_interned(r, strings)?,
            }
        }
        1 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::ThreadStart {
                at,
                key: get_key(r)?,
                name: get_interned(r, strings)?,
            }
        }
        2 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::ThreadEnd {
                at,
                key: get_key(r)?,
            }
        }
        3 => {
            let cpu = usize::try_from(get_uv(r)?)
                .ok()
                .filter(|&cpu| cpu < n_logical)
                .ok_or_else(|| bad("context switch on a CPU past the header's count"))?;
            let at = decode_at(r, Some(cpu), clocks, last_at)?;
            let old = get_opt_key(r)?;
            let new = get_opt_key(r)?;
            let ready = get_uv(r)?;
            let ready_since = if ready == 0 {
                None
            } else {
                Some(SimTime::from_nanos(
                    at.as_nanos()
                        .checked_sub(ready - 1)
                        .ok_or_else(|| bad("ready_since before time zero"))?,
                ))
            };
            TraceEvent::CSwitch {
                at,
                cpu,
                old,
                new,
                ready_since,
            }
        }
        4 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::GpuStart {
                at,
                gpu: get_uv(r)? as usize,
                engine: get_u32v(r)?,
                packet: get_uv(r)?,
                pid: get_uv(r)?,
            }
        }
        5 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::GpuEnd {
                at,
                gpu: get_uv(r)? as usize,
                engine: get_u32v(r)?,
                packet: get_uv(r)?,
                pid: get_uv(r)?,
            }
        }
        6 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::Frame {
                at,
                pid: get_uv(r)?,
            }
        }
        7 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::Marker {
                at,
                label: get_interned(r, strings)?,
            }
        }
        8 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::WaitBegin {
                at,
                key: get_key(r)?,
                reason: get_reason(r)?,
            }
        }
        9 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::WaitEnd {
                at,
                key: get_key(r)?,
                reason: get_reason(r)?,
                waker: get_opt_key(r)?,
            }
        }
        10 => {
            let at = decode_at(r, None, clocks, last_at)?;
            TraceEvent::GpuSubmit {
                at,
                key: get_key(r)?,
                gpu: get_uv(r)? as usize,
                packet: get_uv(r)?,
            }
        }
        _ => return Err(bad("unknown event tag")),
    })
}

fn put_reason(out: &mut Vec<u8>, reason: WaitReason) {
    match reason {
        WaitReason::Preempted => out.push(0),
        WaitReason::Yield => out.push(1),
        WaitReason::Sleep => out.push(2),
        WaitReason::Event { id } => {
            out.push(3);
            put_uv(out, id);
        }
        WaitReason::Gpu { gpu, packet } => {
            out.push(4);
            put_uv(out, gpu as u64);
            put_uv(out, packet);
        }
    }
}

fn get_reason(r: &mut &[u8]) -> io::Result<WaitReason> {
    Ok(match get_u8(r)? {
        0 => WaitReason::Preempted,
        1 => WaitReason::Yield,
        2 => WaitReason::Sleep,
        3 => WaitReason::Event { id: get_uv(r)? },
        4 => WaitReason::Gpu {
            gpu: get_u32v(r)?,
            packet: get_uv(r)?,
        },
        _ => return Err(bad("unknown wait reason tag")),
    })
}

fn get_interned(r: &mut &[u8], strings: &[String]) -> io::Result<String> {
    let idx = get_uv(r)? as usize;
    strings
        .get(idx)
        .cloned()
        .ok_or_else(|| bad("string index out of range"))
}

fn put_key(out: &mut Vec<u8>, key: ThreadKey) {
    put_uv(out, key.pid);
    put_uv(out, key.tid);
}

fn get_key(r: &mut &[u8]) -> io::Result<ThreadKey> {
    Ok(ThreadKey {
        pid: get_uv(r)?,
        tid: get_uv(r)?,
    })
}

/// `None` → `0`; `Some(key)` → `pid + 1`, then `tid`.
fn put_opt_key(out: &mut Vec<u8>, key: Option<ThreadKey>) {
    match key {
        None => put_uv(out, 0),
        Some(k) => {
            // lint:allow(analyzer-panic): simulator thread keys never reach pid u64::MAX
            put_uv(out, k.pid.checked_add(1).expect("pid < u64::MAX"));
            put_uv(out, k.tid);
        }
    }
}

fn get_opt_key(r: &mut &[u8]) -> io::Result<Option<ThreadKey>> {
    let tag = get_uv(r)?;
    if tag == 0 {
        return Ok(None);
    }
    Ok(Some(ThreadKey {
        pid: tag - 1,
        tid: get_uv(r)?,
    }))
}

/// LEB128 unsigned varint encode.
fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 unsigned varint decode (at most 10 bytes).
fn get_uv(r: &mut &[u8]) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = get_u8(r)?;
        if shift >= 63 && b > 1 {
            return Err(bad("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad("varint too long"));
        }
    }
}

fn get_u8(r: &mut &[u8]) -> io::Result<u8> {
    let (&byte, rest) = r.split_first().ok_or_else(truncated)?;
    *r = rest;
    Ok(byte)
}

fn get_u32v(r: &mut &[u8]) -> io::Result<u32> {
    u32::try_from(get_uv(r)?).map_err(|_| bad("value exceeds u32"))
}

/// The error every reader returns for a record that precedes the one
/// before it.
pub(crate) const OUT_OF_ORDER: &str = "trace records out of time order";

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// What the error of a read past the end of the bytes carries. Its type
/// tells it apart, so a block cursor can say which bytes ran out.
#[derive(Debug)]
pub(crate) struct Truncated;

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("truncated SETL3 stream")
    }
}

impl std::error::Error for Truncated {}

/// The `InvalidData` error of every read past the end of the bytes.
fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, Truncated)
}

fn overflow() -> io::Error {
    bad("timestamp overflows u64 nanoseconds")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simcore::SimDuration;

    /// One event of every kind, on CPU 2 of 4, with an interned marker label.
    pub(crate) fn demo_trace() -> EtlTrace {
        let key = ThreadKey { pid: 1, tid: 10 };
        let mut b = TraceBuilder::new(4);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::ThreadStart {
            at: SimTime::ZERO,
            key,
            name: "main".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: SimTime::ZERO + SimDuration::from_millis(1),
            cpu: 2,
            old: None,
            new: Some(key),
            ready_since: Some(SimTime::ZERO),
        });
        b.push(TraceEvent::GpuSubmit {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            key,
            gpu: 0,
            packet: 9,
        });
        b.push(TraceEvent::GpuStart {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            gpu: 0,
            engine: u32::MAX,
            packet: 9,
            pid: 1,
        });
        b.push(TraceEvent::WaitBegin {
            at: SimTime::ZERO + SimDuration::from_millis(2),
            key,
            reason: WaitReason::Gpu { gpu: 0, packet: 9 },
        });
        b.push(TraceEvent::GpuEnd {
            at: SimTime::ZERO + SimDuration::from_millis(3),
            gpu: 0,
            engine: u32::MAX,
            packet: 9,
            pid: 1,
        });
        b.push(TraceEvent::WaitEnd {
            at: SimTime::ZERO + SimDuration::from_millis(3),
            key,
            reason: WaitReason::Gpu { gpu: 0, packet: 9 },
            waker: None,
        });
        b.push(TraceEvent::Frame {
            at: SimTime::ZERO + SimDuration::from_millis(4),
            pid: 1,
        });
        b.push(TraceEvent::WaitBegin {
            at: SimTime::ZERO + SimDuration::from_millis(4),
            key,
            reason: WaitReason::Event { id: 5 },
        });
        b.push(TraceEvent::WaitEnd {
            at: SimTime::ZERO + SimDuration::from_millis(5),
            key,
            reason: WaitReason::Event { id: 5 },
            waker: Some(ThreadKey { pid: 1, tid: 11 }),
        });
        b.push(TraceEvent::Marker {
            at: SimTime::ZERO + SimDuration::from_millis(5),
            label: "phase: export 🚀".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: SimTime::ZERO + SimDuration::from_millis(6),
            cpu: 2,
            old: Some(key),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::ThreadEnd {
            at: SimTime::ZERO + SimDuration::from_millis(6),
            key,
        });
        b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10))
    }

    /// [`demo_trace`], with its string table, as a stream of two blocks:
    /// the writer closes the first after 7 records, not after
    /// [`BLOCK_RECORDS`], so every mutation of the stream is cheap to try.
    pub(crate) fn two_block_stream() -> Vec<u8> {
        let trace = demo_trace();
        let mut strings: Vec<&str> = Vec::new();
        for s in trace.events().iter().filter_map(event_string) {
            if !strings.contains(&s) {
                strings.push(s);
            }
        }
        let mut w = V3Writer::new(
            Vec::new(),
            trace.n_logical_cpus(),
            trace.start(),
            trace.end(),
            &strings,
            trace.events().len() as u64,
        )
        .unwrap();
        let (first, second) = trace.events().split_at(7);
        for ev in first {
            w.push(ev).unwrap();
        }
        w.flush_block().unwrap();
        for ev in second {
            w.push(ev).unwrap();
        }
        let buf = w.finish().unwrap();
        assert_eq!(read_setl3(&buf).unwrap(), trace);
        buf
    }

    /// `n` context switches alternating between two CPUs: more than
    /// [`BLOCK_RECORDS`] of them make a multi-block stream.
    fn cswitch_trace(n: usize) -> EtlTrace {
        let mut b = TraceBuilder::new(2);
        let key = ThreadKey { pid: 7, tid: 70 };
        for i in 0..n {
            b.push(TraceEvent::CSwitch {
                at: SimTime::from_nanos(i as u64 * 1000),
                cpu: i % 2,
                old: if i % 2 == 0 { None } else { Some(key) },
                new: if i % 2 == 0 { Some(key) } else { None },
                ready_since: None,
            });
        }
        b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 1000))
    }

    #[test]
    fn checksum_matches_its_known_answers() {
        // Inputs are the bytes 0, 1, 2, …: no whole word, exactly one
        // 32-byte round, a round plus a 5-byte tail, and a round plus one
        // word in the remainder plus a 5-byte tail.
        let bytes: Vec<u8> = (0..45).collect();
        let vectors: [(u64, usize, u64); 6] = [
            (CHECKSUM_SEED, 0, 0x0900_5b9b_1a6d_e952),
            (CHECKSUM_SEED, 7, 0x2feb_138c_5876_9bc9),
            (CHECKSUM_SEED, 32, 0xb199_ccfa_d8d7_9f25),
            (CHECKSUM_SEED, 37, 0x6c10_6eb8_e36d_bb4f),
            (CHECKSUM_SEED, 45, 0xa8f6_8714_d5f3_da17),
            (0x0123_4567_89ab_cdef, 37, 0xa4e1_f30e_25fd_c2ea),
        ];
        for (seed, len, want) in vectors {
            let got = checksum(seed, &bytes[..len]);
            assert_eq!(got, want, "seed {seed:#x}, {len} bytes: {got:#018x}");
        }
    }

    #[test]
    fn every_two_bit_flip_changes_the_checksum() {
        // Two 32-byte rounds, a word in the remainder and a 5-byte tail, so
        // the pairs cover two words of one lane, words of different lanes,
        // and words with tail bytes. A lane step with one multiply fails
        // here, rotation or not: the multiply hands a flip of the top bit
        // to the lane unchanged, so a flip of the matching bit of the
        // lane's next word cancels it (without a rotation, bit 7 of bytes 7
        // and 39, or of bytes 15 and 47).
        let base: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(151) ^ 0x5a).collect();
        let want = checksum(CHECKSUM_SEED, &base);
        let bits = base.len() * 8;
        let mut buf = base.clone();
        for i in 0..bits {
            buf[i / 8] ^= 1 << (i % 8);
            for j in i + 1..bits {
                buf[j / 8] ^= 1 << (j % 8);
                assert_ne!(checksum(CHECKSUM_SEED, &buf), want, "bits {i} and {j}");
                buf[j / 8] ^= 1 << (j % 8);
            }
            buf[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn overwriting_any_aligned_word_is_detected() {
        let buf = encode(&cswitch_trace(BLOCK_RECORDS as usize + 37));
        let trailer_at = buf.len() - 8;
        for at in (0..buf.len()).step_by(8) {
            let mut mutated = buf.clone();
            for b in mutated.iter_mut().skip(at).take(8) {
                *b = !*b;
            }
            assert!(read_setl3(&mutated).is_err(), "word at byte {at}: decode");
            if at >= trailer_at {
                // Only a full fold checks the trailer; a cursor checks its
                // own block.
                continue;
            }
            let indexed = Index::parse(&mutated).is_err()
                || crate::shard::ShardedTrace::from_bytes(mutated)
                    .map(|s| (0..s.n_blocks()).any(|b| s.cursor(b).is_err()))
                    .unwrap_or(true);
            assert!(indexed, "word at byte {at}: index and block hashes");
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let trace = demo_trace();
        let buf = encode(&trace);
        let back = read_setl3(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let trace = demo_trace();
        let buf = encode(&trace);
        for i in 0..buf.len() {
            let mut mutated = buf.clone();
            mutated[i] ^= 0x40;
            let result = read_setl3(mutated.as_slice());
            // Either the decode errors (checksum / structure) — never a
            // silently different trace. Byte flips that happen to decode to
            // the same trace are impossible: every checksum step is
            // injective.
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        // A one-block stream with a string table, and a two-block one.
        let streams = [
            encode(&demo_trace()),
            encode(&cswitch_trace(BLOCK_RECORDS as usize + 1)),
        ];
        for buf in &streams {
            for len in 0..buf.len() {
                let cut = &buf[..len];
                let results = [
                    ("read_setl3", read_setl3(cut).map(drop)),
                    ("read_etl", crate::etl::read_etl(cut).map(drop)),
                    ("trace_info", crate::etl::trace_info(cut).map(drop)),
                    (
                        "read_timeline",
                        crate::timeline::read_timeline(cut, 4).map(drop),
                    ),
                    (
                        "ShardedTrace",
                        crate::shard::ShardedTrace::from_bytes(cut.to_vec()).map(drop),
                    ),
                ];
                for (reader, result) in results {
                    let err = result.expect_err(reader);
                    assert_eq!(
                        err.kind(),
                        io::ErrorKind::InvalidData,
                        "{reader} at {len}: {err}"
                    );
                    // The codec's own message, never std's I/O one, and
                    // never the legacy flat file's, not even for a stream
                    // cut to its first 4 bytes (`SETL`).
                    let msg = err.to_string();
                    assert!(
                        msg.contains("SETL") || msg.contains("block index"),
                        "{reader} at {len}: {msg}"
                    );
                    assert!(!msg.contains("v1/v2"), "{reader} at {len}: {msg}");
                    if len <= MAGIC.len() + 1 {
                        assert_eq!(msg, "truncated SETL3 stream", "{reader} at {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_revision_is_rejected() {
        let trace = demo_trace();
        // Revisions 1 (no block index) and 2 (byte-serial checksums and a
        // check byte per record) are no longer read either; revision 2
        // names the remedy.
        for revision in [1, 2, 99] {
            let mut buf = encode(&trace);
            buf[5] = revision; // revision byte after the 5-byte magic
            let err = read_setl3(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("revision"), "{err}");
            assert_eq!(
                err.to_string().contains("re-record the trace"),
                revision == 2,
                "{err}"
            );
        }
    }

    /// A 22-byte stream whose header declares 2^40 logical CPUs: readers
    /// that sized per-CPU state from it aborted on the allocation.
    fn huge_cpu_count_stream() -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        put_uv(&mut buf, 1 << 40);
        // start, window, string count, record count
        buf.extend_from_slice(&[0, 0, 0, 0]);
        buf.resize(22, 0);
        buf
    }

    #[test]
    fn a_huge_cpu_count_is_invalid_data_for_every_reader() {
        let buf = huge_cpu_count_stream();
        assert_eq!(buf.len(), 22);
        let kinds = [
            read_setl3(buf.as_slice()).map(drop),
            crate::etl::read_etl(buf.as_slice()).map(drop),
            crate::timeline::read_timeline(buf.as_slice(), 4).map(drop),
            crate::etl::trace_info(buf.as_slice()).map(drop),
            crate::shard::ShardedTrace::from_bytes(buf.clone()).map(drop),
        ];
        for (i, result) in kinds.into_iter().enumerate() {
            let err = result.expect_err("crafted header must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "reader {i}: {err}");
        }
    }

    /// A hash-valid stream of one block, on one CPU, holding a single
    /// `Frame` record, whose header and block index both claim `count`
    /// records.
    fn inflated_count_stream(count: u64) -> Vec<u8> {
        let mut header = MAGIC.to_vec();
        header.push(VERSION);
        // CPUs, start, window, string count, record count.
        for v in [1, 0, 10, 0, count] {
            put_uv(&mut header, v);
        }
        let block = [6, 0, 1]; // Frame at +0 ns, pid 1
        let mut index = Vec::new();
        // One block: records, bytes, hash, then the global and CPU 0 clocks.
        put_uv(&mut index, 1);
        put_uv(&mut index, count);
        put_uv(&mut index, block.len() as u64);
        index.extend_from_slice(&checksum(CHECKSUM_SEED, &block).to_le_bytes());
        put_uv(&mut index, 0);
        put_uv(&mut index, 0);
        let header_hash = checksum(CHECKSUM_SEED, &header);
        index.extend_from_slice(&checksum(header_hash, &index).to_le_bytes());
        let index_len = index.len() as u64;
        index.extend_from_slice(&index_len.to_le_bytes());
        let trailer = checksum(checksum(header_hash, &block), &index);
        let mut buf = header;
        buf.extend_from_slice(&block);
        buf.extend_from_slice(&index);
        buf.extend_from_slice(&trailer.to_le_bytes());
        buf
    }

    #[test]
    fn an_inflated_record_count_is_invalid_data_not_an_abort() {
        // Told the truth, the crafted stream decodes.
        let honest = read_setl3(&inflated_count_stream(1)).unwrap();
        assert_eq!(honest.events().len(), 1);
        // 2^40 records would ask `read_setl3` for 80 TiB of events; the
        // reservation is clamped to what the bytes can hold.
        let buf = inflated_count_stream(1 << 40);
        let sharded = crate::shard::ShardedTrace::from_bytes(buf.clone()).unwrap();
        let results = [
            ("read_setl3", read_setl3(buf.as_slice()).map(drop)),
            ("read_etl", crate::etl::read_etl(buf.as_slice()).map(drop)),
            (
                "trace_info",
                crate::etl::trace_info(buf.as_slice()).map(drop),
            ),
            (
                "read_timeline",
                crate::timeline::read_timeline(buf.as_slice(), 4).map(drop),
            ),
            ("decode_block", sharded.decode_block(0).map(drop)),
        ];
        for (reader, result) in results {
            let err = result.expect_err(reader);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reader}: {err}");
            assert_eq!(
                err.to_string(),
                "block bytes end before its records",
                "{reader}"
            );
        }
    }

    #[test]
    fn encoded_and_decoded_buffers_are_exactly_their_size() {
        let trace = cswitch_trace(BLOCK_RECORDS as usize + 37);
        let buf = encode(&trace);
        assert_eq!(buf.capacity(), buf.len());
        let back = read_setl3(&buf).unwrap();
        assert_eq!(back.events().len(), BLOCK_RECORDS as usize + 37);
        assert_eq!(back.capacity(), back.events().len());
    }

    #[test]
    fn records_out_of_time_order_are_invalid_data_not_a_panic() {
        // A hash-valid stream whose CSwitch delta, taken against its CPU's
        // clock, lands before the preceding marker.
        let strings = ["late"];
        let mut w = V3Writer::new(
            Vec::new(),
            1,
            SimTime::ZERO,
            SimTime::from_nanos(20),
            &strings,
            2,
        )
        .unwrap();
        w.push(&TraceEvent::Marker {
            at: SimTime::from_nanos(10),
            label: "late".into(),
        })
        .unwrap();
        w.push(&TraceEvent::CSwitch {
            at: SimTime::from_nanos(5),
            cpu: 0,
            old: None,
            new: None,
            ready_since: None,
        })
        .unwrap();
        let buf = w.finish().unwrap();
        let err = read_setl3(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn writer_rejects_count_mismatch() {
        let trace = demo_trace();
        let events = trace.events();
        // Fewer pushes than declared: finish() must fail.
        let strings = vec!["app.exe", "main", "phase: export 🚀"];
        let w = V3Writer::new(
            Vec::new(),
            trace.n_logical_cpus(),
            trace.start(),
            trace.end(),
            &strings,
            events.len() as u64 + 1,
        )
        .unwrap();
        assert!(w.finish().is_err(), "short stream must not finish");
        // More pushes than declared: push() must fail.
        let mut w = V3Writer::new(
            Vec::new(),
            trace.n_logical_cpus(),
            trace.start(),
            trace.end(),
            &strings,
            1,
        )
        .unwrap();
        w.push(&events[0]).unwrap();
        assert!(w.push(&events[1]).is_err(), "overlong stream must not push");
    }

    #[test]
    fn multi_block_stream_roundtrips() {
        // More than two full blocks plus a short tail.
        let trace = cswitch_trace((BLOCK_RECORDS * 2 + 37) as usize);
        let buf = encode(&trace);
        let back = read_setl3(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn varints_roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uv(&mut buf, v);
            assert_eq!(get_uv(&mut buf.as_slice()).unwrap(), v, "value {v}");
        }
        // A 10-byte varint with excess high bits must not wrap silently.
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(get_uv(&mut too_big.as_slice()).is_err());
    }
}
