//! SETL v3 — the binary trace codec: the one format `tracetool record`
//! writes, every reader reads and the persistent run store keeps.
//!
//! A 60 s trace is dominated by `CSwitch` records whose fields are tiny
//! deltas, so the codec spends bytes only on what changes (the CLI tests
//! hold a `tracetool record` trace to at most 12 bytes per event) while
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
//! * **checksums** — every record carries one FNV-1a check byte, every
//!   block a 64-bit FNV-1a hash, and the whole file ends in a 64-bit
//!   FNV-1a checksum, so a flipped byte or truncation is always an
//!   `InvalidData` error, never a silently wrong trace. (A single-byte
//!   change is guaranteed to change FNV-1a — XOR-then-multiply-by-an-odd-
//!   prime is injective — so the trailer alone catches every one-byte
//!   corruption; the block hashes localize it.)
//! * **blocked record area** — records are grouped into fixed-size blocks
//!   ([`BLOCK_RECORDS`] each) and a trailing block index records, per
//!   block: record count, byte length, a 64-bit FNV-1a block hash, and the
//!   delta-decoder clock snapshot at the block boundary. Any block can
//!   therefore decode on its own — no seek-from-start — and verify without
//!   touching the rest of the file.
//!
//! There is one parser and one record decoder. [`Index::parse`] checks the
//! header, string table and block index over the slice holding the whole
//! stream, with every bound a crafted file could abuse;
//! [`crate::shard::BlockCursor`] decodes one block's records in place.
//! Readers that want every event — [`decode`], [`read_setl3`],
//! [`crate::etl::read_etl`], [`crate::timeline::read_timeline`],
//! [`crate::etl::trace_info`] — [`walk`] the blocks in order;
//! [`crate::shard::ShardedTrace`] hands blocks to workers instead.
//!
//! The stream starts with the 5-byte magic `SETL3` and a revision byte;
//! only revision 2 (the blocked layout) is read. [`Index::parse`] alone
//! decides which streams are read, so every reader refuses a legacy flat
//! SETL v1/v2 file (magic `SETL` + a binary version) with the same message:
//! `tracetool pack` from an older build converts one to v3.

use crate::event::{EtlTrace, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use crate::shard::BlockCursor;
use simcore::SimTime;
use std::io::{self, Read, Write};

/// The 5-byte stream magic.
pub const MAGIC: &[u8; 5] = b"SETL3";
/// Codec revision within the v3 family (bump for incompatible changes).
/// Revision 2 has the trailing block index; no other revision is read.
pub const VERSION: u8 = 2;
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

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Encodes `trace` as a SETL v3 stream.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_setl3<W: Write>(trace: &EtlTrace, mut w: W) -> io::Result<()> {
    let buf = encode(trace);
    w.write_all(&buf)
}

/// Encodes `trace` into an in-memory SETL v3 stream. The block index sits
/// at the tail, so a container embedding the stream must let the reader
/// find its end (the run store puts it last).
pub fn encode(trace: &EtlTrace) -> Vec<u8> {
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

    let out = Vec::with_capacity(trace.events().len() * 10 + 64);
    let mut w = V3Writer::new(
        out,
        trace.n_logical_cpus(),
        trace.start(),
        trace.end(),
        &strings,
        trace.events().len() as u64,
    )
    // lint:allow(analyzer-panic): writing into a Vec cannot fail
    .expect("Vec write cannot fail");
    for ev in trace.events() {
        // lint:allow(analyzer-panic): writing into a Vec cannot fail
        w.push(ev).expect("Vec write cannot fail");
    }
    // lint:allow(analyzer-panic): the declared count matches the loop above
    let out = w.finish().expect("Vec write cannot fail");
    sp.add_bytes(out.len() as u64);
    out
}

/// Interned-string lookup table shared by the in-memory encoder and the
/// streaming [`V3Writer`]: index by first-appearance order, O(log n) lookup.
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

/// A streaming revision-2 encoder: declare the dimensions, string table and
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
    /// Encoded records (with check bytes) of the block being filled.
    block: Vec<u8>,
    block_records: u64,
    /// Clock snapshot taken when the current block opened.
    block_clocks: Clocks,
    metas: Vec<BlockMetaOut>,
    record: Vec<u8>,
}

impl<W: Write> V3Writer<W> {
    /// Starts a revision-2 stream: writes the magic, header and string
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
            file_hash: FNV_OFFSET,
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
            record: Vec::with_capacity(32),
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
        self.file_hash = fnv1a(self.file_hash, bytes);
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
        self.record.clear();
        let mut record = std::mem::take(&mut self.record);
        encode_event(&mut record, ev, &self.strings, &mut self.clocks);
        self.block.extend_from_slice(&record);
        self.block.push(fnv1a(FNV_OFFSET, &record) as u8);
        self.record = record;
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
            hash: fnv1a(FNV_OFFSET, &self.block),
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
        let meta_hash = fnv1a(self.header_hash, &index);
        index.extend_from_slice(&meta_hash.to_le_bytes());
        let index_len = index.len() as u64;
        self.emit(&index)?;
        self.emit(&index_len.to_le_bytes())?;
        let trailer = self.file_hash;
        self.w.write_all(&trailer.to_le_bytes())?;
        Ok(self.w)
    }
}

/// Decodes a SETL v3 stream, including the 5-byte magic. The reader is
/// drained: the stream must run to its end.
///
/// # Errors
/// Returns `InvalidData` for a bad magic/revision, malformed records or any
/// checksum mismatch, and propagates I/O errors from the reader.
pub fn read_setl3<R: Read>(mut r: R) -> io::Result<EtlTrace> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Decodes a SETL v3 stream held in memory; `bytes` must be exactly one
/// stream, magic to trailer.
///
/// # Errors
/// Same conditions as [`read_setl3`], plus `InvalidData` for records out
/// of time order.
pub fn decode(bytes: &[u8]) -> io::Result<EtlTrace> {
    let mut sp = simobs::span::span("codec", "read_setl3");
    let index = Index::parse(bytes)?;
    let mut builder = TraceBuilder::new(index.n_logical);
    walk(bytes, &index, |ev| builder.push_decoded(ev))?;
    sp.add_events(index.count);
    sp.add_bytes(bytes.len() as u64);
    Ok(builder.finish(index.start, index.end))
}

/// One entry of the trailing block index: where the block's bytes live and
/// the delta-decoder state at its boundary.
#[derive(Debug)]
pub(crate) struct BlockMeta {
    /// Absolute byte offset of the block in the stream.
    pub(crate) offset: usize,
    /// Encoded length in bytes (records plus check bytes).
    pub(crate) len: usize,
    /// Records in the block.
    pub(crate) records: u64,
    /// 64-bit FNV-1a over the block's bytes.
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
    /// FNV-1a over the header bytes: the whole-file hash where the record
    /// area starts.
    header_hash: u64,
    /// Offset of the block index, i.e. the end of the record area.
    index_start: usize,
}

impl Index {
    /// Parses the header forward and the block index from the fixed-size
    /// tail, checks `meta_hash` (which covers header and index), and
    /// cross-checks the block extents against the record area.
    ///
    /// # Errors
    /// `InvalidData` with a distinct message for legacy flat v1/v2 traces
    /// and for other revisions, for any structural inconsistency or
    /// exceeded bound, and for a `meta_hash` mismatch.
    pub(crate) fn parse(bytes: &[u8]) -> io::Result<Index> {
        let Some(rest) = bytes.strip_prefix(MAGIC.as_slice()) else {
            return Err(if bytes.starts_with(b"SETL") {
                bad("legacy flat SETL v1/v2 trace is no longer read; convert it to v3 with `tracetool pack` from an older build")
            } else {
                bad("not a SETL3 trace stream")
            });
        };
        let (&revision, mut r) = rest
            .split_first()
            .ok_or_else(|| bad("truncated SETL3 stream"))?;
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
        let header_hash = fnv1a(FNV_OFFSET, bytes.get(..record_start).unwrap_or_default());

        // Tail: [index entries | meta_hash 8B] [index_len 8B] [trailer 8B].
        let meta_at = bytes
            .len()
            .checked_sub(24)
            .filter(|&at| at >= record_start)
            .ok_or_else(|| bad("truncated SETL3 stream"))?;
        let meta_hash = le_u64(bytes, meta_at)?;
        let index_start = usize::try_from(le_u64(bytes, meta_at + 8)?)
            .ok()
            .and_then(|index_len| (meta_at + 8).checked_sub(index_len))
            .filter(|&at| at >= record_start && at <= meta_at)
            .ok_or_else(|| bad("block index length out of range"))?;
        let mut entries = bytes.get(index_start..meta_at).unwrap_or_default();
        if fnv1a(header_hash, entries) != meta_hash {
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
}

/// Decodes every record of `bytes`, indexed by `index`, in trace order and
/// hands each event to `f`. One fused FNV-1a loop over each block checks
/// its hash before it decodes and carries the whole-file hash, which is
/// checked against the trailer after the last block.
///
/// # Errors
/// `InvalidData` for a block or file checksum mismatch or a malformed
/// record, and the first error `f` returns.
pub(crate) fn walk<F>(bytes: &[u8], index: &Index, mut f: F) -> io::Result<()>
where
    F: FnMut(TraceEvent) -> io::Result<()>,
{
    let mut file_hash = index.header_hash;
    for m in &index.blocks {
        let block = bytes
            .get(m.offset..m.offset + m.len)
            .ok_or_else(|| bad("block extent past the record area"))?;
        let mut block_hash = FNV_OFFSET;
        for &b in block {
            file_hash = (file_hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            block_hash = (block_hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        if block_hash != m.hash {
            return Err(bad("block checksum mismatch"));
        }
        let mut cursor = BlockCursor::new(
            block,
            &index.strings,
            index.n_logical,
            m.clocks.clone(),
            m.records,
        );
        while let Some(ev) = cursor.next_event()? {
            f(ev)?;
        }
    }
    let trailer_at = bytes.len().saturating_sub(8);
    let tail = bytes
        .get(index.index_start..trailer_at)
        .ok_or_else(|| bad("truncated SETL3 stream"))?;
    if fnv1a(file_hash, tail) != le_u64(bytes, trailer_at)? {
        return Err(bad("file checksum mismatch"));
    }
    Ok(())
}

/// Splits the first `n` bytes off `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if n > r.len() {
        return Err(bad("truncated SETL3 stream"));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

fn take_array<const N: usize>(r: &mut &[u8]) -> io::Result<[u8; N]> {
    take(r, N)?
        .try_into()
        .map_err(|_| bad("truncated SETL3 stream"))
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
        match cpu {
            Some(c) if c < self.per_cpu.len() => &mut self.per_cpu[c],
            _ => &mut self.global,
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

fn decode_at<R: Read>(r: &mut R, cpu: Option<usize>, clocks: &mut Clocks) -> io::Result<SimTime> {
    let delta = get_uv(r)?;
    let clock = clocks.reference(cpu);
    let at = clock.checked_add(delta).ok_or_else(overflow)?;
    *clock = at;
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
/// `n_logical`: analyzers size their per-CPU state from the header.
pub(crate) fn decode_event<R: Read>(
    r: &mut R,
    strings: &[String],
    n_logical: usize,
    clocks: &mut Clocks,
) -> io::Result<TraceEvent> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::ProcessStart {
                at,
                pid: get_uv(r)?,
                name: get_interned(r, strings)?,
            }
        }
        1 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::ThreadStart {
                at,
                key: get_key(r)?,
                name: get_interned(r, strings)?,
            }
        }
        2 => {
            let at = decode_at(r, None, clocks)?;
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
            let at = decode_at(r, Some(cpu), clocks)?;
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
            let at = decode_at(r, None, clocks)?;
            TraceEvent::GpuStart {
                at,
                gpu: get_uv(r)? as usize,
                engine: get_u32v(r)?,
                packet: get_uv(r)?,
                pid: get_uv(r)?,
            }
        }
        5 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::GpuEnd {
                at,
                gpu: get_uv(r)? as usize,
                engine: get_u32v(r)?,
                packet: get_uv(r)?,
                pid: get_uv(r)?,
            }
        }
        6 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::Frame {
                at,
                pid: get_uv(r)?,
            }
        }
        7 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::Marker {
                at,
                label: get_interned(r, strings)?,
            }
        }
        8 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::WaitBegin {
                at,
                key: get_key(r)?,
                reason: get_reason(r)?,
            }
        }
        9 => {
            let at = decode_at(r, None, clocks)?;
            TraceEvent::WaitEnd {
                at,
                key: get_key(r)?,
                reason: get_reason(r)?,
                waker: get_opt_key(r)?,
            }
        }
        10 => {
            let at = decode_at(r, None, clocks)?;
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

fn get_reason<R: Read>(r: &mut R) -> io::Result<WaitReason> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
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

fn get_interned<R: Read>(r: &mut R, strings: &[String]) -> io::Result<String> {
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

fn get_key<R: Read>(r: &mut R) -> io::Result<ThreadKey> {
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

fn get_opt_key<R: Read>(r: &mut R) -> io::Result<Option<ThreadKey>> {
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
fn get_uv<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
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

fn get_u32v<R: Read>(r: &mut R) -> io::Result<u32> {
    u32::try_from(get_uv(r)?).map_err(|_| bad("value exceeds u32"))
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
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
            // the same trace are impossible: FNV-1a is injective per byte.
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let trace = demo_trace();
        let buf = encode(&trace);
        for len in 0..buf.len() {
            assert!(
                read_setl3(&buf[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn unknown_revision_is_rejected() {
        let trace = demo_trace();
        // Revision 1 (no block index) is no longer read either.
        for revision in [1, 99] {
            let mut buf = encode(&trace);
            buf[5] = revision; // revision byte after the 5-byte magic
            let err = read_setl3(buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("revision"), "{err}");
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
        let n = (BLOCK_RECORDS * 2 + 37) as usize;
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
        let trace = b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 1000));
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
