//! Sharded zero-copy access to SETL v3 streams, and the one block walk.
//!
//! [`BlockCursor`] is the one v3 record decoder: it decodes one 4096-record
//! block **in place** from a shared byte buffer, starting from the block's
//! clock snapshot in the index. [`ShardedTrace`] holds the stream's bytes,
//! owned or borrowed, with the parsed index, and hands cursors out.
//! [`ShardedTrace::fold_events`] is the one walk over every block: the
//! analyzers' `_sharded` entry points use it, and every in-order reader is
//! a width-1 fold on [`SerialShards`]. No seek-from-start, no whole-trace
//! materialization.
//!
//! Parallelism is injected, not owned: analyzers drive shards through the
//! [`ShardRunner`] trait so this crate never spawns a thread. `parastat`'s
//! `ThreadPoolRunner` implements it over scoped workers; [`SerialShards`]
//! is the width-1 fallback and the determinism reference.
//!
//! Determinism rules (see DESIGN.md §14): block decode order is free, but
//! every fold over events happens **in block order on one thread**, so the
//! bytes an analyzer report renders to are identical at any shard count.
//!
//! Integrity: `meta_hash` covers the header and the block index, each
//! block's 64-bit [`setl3::checksum`] covers its records, and a fold checks
//! the whole-file trailer after the last block. So every fold, at any
//! width, rejects a corrupt byte anywhere in the file; a single
//! [`ShardedTrace::cursor`] checks only its own block.

use crate::event::{PidSet, TraceEvent};
use crate::setl3::{self, BlockMeta, Clocks, Index};
use simcore::SimTime;
use simobs::span::Span;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Executes `f(0..shards)` on some set of workers. Implemented by
/// `parastat::runner::ThreadPoolRunner` (scoped threads) and by
/// [`SerialShards`] (the calling thread). `f` must be safe to call
/// concurrently from multiple threads.
pub trait ShardRunner: Sync {
    /// Calls `f(i)` exactly once for every `i in 0..shards`, possibly
    /// concurrently, returning after all calls complete.
    fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync));
}

/// Runs every shard on the calling thread, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialShards;

impl ShardRunner for SerialShards {
    fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..shards {
            f(i);
        }
    }
}

/// A SETL v3 stream held fully in memory, owned or borrowed, indexed for
/// independent per-block decoding.
///
/// `from_bytes` and `from_slice` check the header and block index without
/// touching a single record byte. Records are only decoded when a
/// [`BlockCursor`] walks them, and each cursor verifies its block's 64-bit
/// hash first.
#[derive(Debug)]
pub struct ShardedTrace<'a> {
    bytes: Cow<'a, [u8]>,
    index: Index,
}

impl<'a> ShardedTrace<'a> {
    /// Indexes a v3 stream it takes ownership of.
    ///
    /// # Errors
    /// `InvalidData` with a distinct message for legacy flat v1/v2 traces
    /// and for other v3 revisions, for a stream cut short, for any
    /// structural inconsistency, and for a `meta_hash` mismatch.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        let index = Index::parse(&bytes)?;
        Ok(ShardedTrace {
            bytes: Cow::Owned(bytes),
            index,
        })
    }

    /// Indexes a v3 stream in place: the trace borrows `bytes` and copies
    /// none of them.
    ///
    /// # Errors
    /// Same conditions as [`ShardedTrace::from_bytes`].
    pub fn from_slice(bytes: &'a [u8]) -> io::Result<Self> {
        Ok(ShardedTrace {
            index: Index::parse(bytes)?,
            bytes: Cow::Borrowed(bytes),
        })
    }

    /// Number of logical CPUs the trace was recorded on.
    pub fn n_logical_cpus(&self) -> usize {
        self.index.n_logical
    }

    /// Start of the observation window.
    pub fn start(&self) -> SimTime {
        self.index.start
    }

    /// End of the observation window.
    pub fn end(&self) -> SimTime {
        self.index.end
    }

    /// Wall-clock length of the observation window.
    pub fn window(&self) -> simcore::SimDuration {
        self.end() - self.start()
    }

    /// Total records in the stream.
    pub fn count(&self) -> u64 {
        self.index.count
    }

    /// Number of record blocks.
    pub fn n_blocks(&self) -> usize {
        self.index.blocks.len()
    }

    /// Size of the underlying byte buffer.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The interned string table.
    pub(crate) fn strings(&self) -> &[String] {
        &self.index.strings
    }

    /// A cursor over block `block`, after verifying the block's 64-bit
    /// [`setl3::checksum`] against the index. The hash covers every record
    /// byte, so a cursor that is handed out decodes trusted bytes.
    ///
    /// # Errors
    /// `InvalidData` for an out-of-range block or a hash mismatch.
    pub fn cursor(&self, block: usize) -> io::Result<BlockCursor<'_>> {
        // The block decodes on its own, so its order check starts afresh;
        // `fold_events` checks the seam to the block before.
        self.seeded_cursor(block, 0)
    }

    /// [`ShardedTrace::cursor`] whose first record may not precede
    /// `last_at` (ns).
    fn seeded_cursor(&self, block: usize, last_at: u64) -> io::Result<BlockCursor<'_>> {
        let (m, buf) = self.block(block)?;
        if setl3::checksum(setl3::CHECKSUM_SEED, buf) != m.hash {
            return Err(setl3::bad("block checksum mismatch"));
        }
        Ok(BlockCursor {
            buf,
            strings: &self.index.strings,
            n_logical: self.index.n_logical,
            clocks: m.clocks.clone(),
            last_at,
            remaining: m.records,
        })
    }

    /// Block `block`'s index entry and bytes.
    fn block(&self, block: usize) -> io::Result<(&BlockMeta, &[u8])> {
        let m = self
            .index
            .blocks
            .get(block)
            .ok_or_else(|| setl3::bad("block index out of range"))?;
        let buf = self
            .bytes
            .get(m.offset..m.offset + m.len)
            .ok_or_else(|| setl3::bad("block extent past the record area"))?;
        Ok((m, buf))
    }

    /// Decodes block `block` into a `Vec` (hash-verified).
    ///
    /// # Errors
    /// Same conditions as [`ShardedTrace::cursor`].
    pub fn decode_block(&self, block: usize) -> io::Result<Vec<TraceEvent>> {
        let mut c = self.cursor(block)?;
        // The record count is untrusted; a record takes at least 2 bytes.
        let mut out = Vec::with_capacity((c.remaining as usize).min(c.buf.len() / 2));
        while let Some(ev) = c.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    /// The contiguous range of blocks whose events can overlap the closed
    /// time window `[lo, hi]` — the seek step the blocked container buys.
    ///
    /// Each index entry carries the delta clocks snapshotted at its block
    /// boundary, and the builder emits events in global time order, so a
    /// snapshot's largest clock is a tight lower bound on its block's first
    /// event and the *next* snapshot's largest clock bounds its last. Both
    /// bounds are nondecreasing in block order, so the overlap test binary
    /// searches the index and never touches a record byte: a windowed
    /// analyzer decodes only the returned blocks, while a materializing
    /// reader has to decode the whole stream to reach the same window.
    pub fn blocks_in_window(&self, lo: SimTime, hi: SimTime) -> Range<usize> {
        let n = self.index.blocks.len();
        // Block `i`'s lower bound; past the last block, the window end.
        let first_at = |i: usize| -> u64 {
            self.index.blocks.get(i).map_or(self.end().as_nanos(), |m| {
                let c = &m.clocks;
                c.per_cpu.iter().copied().fold(c.global, u64::max)
            })
        };
        let last_at = |i: usize| first_at(i + 1);
        // Index of the first i in 0..n with !pred(i); pred is monotone.
        let lower_bound = |pred: &dyn Fn(usize) -> bool| -> usize {
            let (mut a, mut b) = (0, n);
            while a < b {
                let mid = (a + b) / 2;
                if pred(mid) {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            a
        };
        let start = lower_bound(&|i| last_at(i) < lo.as_nanos());
        let stop = lower_bound(&|i| first_at(i) <= hi.as_nanos());
        start..stop.max(start)
    }

    /// Streams every event through `f`, by value and **in trace order**,
    /// while blocks decode in parallel on `runner`, inside one runner scope
    /// of `min(shards, blocks)` tasks (DESIGN.md §14.2). The first task to
    /// start takes `f` and folds blocks `0..n` in order; every other task
    /// decodes blocks ahead of it, block hash first, at most `2 × shards`
    /// ahead. The folder folds a block no task has claimed straight from
    /// its cursor, as it does every block at width 1, and decodes ahead
    /// itself while its next block is still decoding. It chains the
    /// whole-file hash over every block and checks the trailer at the end.
    ///
    /// Memory stays bounded by the window (≈ `2 × shards × 4096` events),
    /// and `f` sees the exact event sequence at any width, so an analyzer
    /// fold driven through here is byte-identical to its materialized twin
    /// by construction. `f` must be `Send`: it runs on whichever task
    /// starts first.
    ///
    /// # Errors
    /// The first decode error in block order, where a block whose first
    /// record precedes the last record of the block before it fails too,
    /// then a file checksum mismatch. `f` has seen the events before the
    /// failing record.
    ///
    /// # Panics
    /// A panic in `f` or in a decode halts every other task at its next
    /// claim or wait, and the runner re-raises it.
    pub fn fold_events<F>(&self, runner: &dyn ShardRunner, shards: usize, f: F) -> io::Result<()>
    where
        F: FnMut(TraceEvent) + Send,
    {
        let blocks = self.index.blocks.len();
        // A window wider than the trace would admit no more claims.
        let window = shards.max(1).saturating_mul(2).min(blocks.max(1));
        let pipe = Pipeline::new(blocks, window);
        let fold = Mutex::new(Some(f));
        let outcome = Mutex::new(None);
        runner.run_shards(shards.clamp(1, blocks.max(1)), &|_task| {
            let mut worker = simobs::span::span("shard", "worker");
            let _halt = HaltOnUnwind(&pipe);
            let folder = fold.lock().unwrap_or_else(PoisonError::into_inner).take();
            match folder {
                Some(f) => {
                    let res = self.fold_in_order(&pipe, &mut worker, f);
                    pipe.halt();
                    *outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(res);
                }
                None => self.decode_ahead(&pipe, &mut worker),
            }
        });
        outcome
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            // lint:allow(analyzer-panic): run_shards runs at least one task,
            // and the first task to start folds
            .expect("the first task to start folds")
    }

    /// The folder's side of [`ShardedTrace::fold_events`]: folds blocks in
    /// order, chaining the file hash, and checks the trailer at the end.
    fn fold_in_order<F>(&self, pipe: &Pipeline, worker: &mut Span, mut f: F) -> io::Result<()>
    where
        F: FnMut(TraceEvent),
    {
        let mut file_hash = self.index.header_hash;
        // Time of the last record folded (ns).
        let mut last_at = 0;
        for block in 0..pipe.blocks {
            file_hash = setl3::checksum(file_hash, self.block(block)?.1);
            match self.next_block(pipe, worker, block) {
                // The cursor's order check, seeded with the block before,
                // covers the seam.
                None => {
                    let _sp = decode_span(&self.index, worker, block);
                    let mut cursor = self.seeded_cursor(block, last_at)?;
                    while let Some(ev) = cursor.next_event()? {
                        f(ev);
                    }
                    last_at = cursor.last_at;
                }
                // Another task decoded the block on its own; the seam to
                // the block before is checked here.
                Some(events) => {
                    let events = events?;
                    if events
                        .first()
                        .is_some_and(|ev| ev.at().as_nanos() < last_at)
                    {
                        return Err(setl3::bad(setl3::OUT_OF_ORDER));
                    }
                    if let Some(ev) = events.last() {
                        last_at = ev.at().as_nanos();
                    }
                    events.into_iter().for_each(&mut f);
                }
            }
            pipe.advance();
        }
        self.index.check_trailer(&self.bytes, file_hash)
    }

    /// Waits for the folder's next block, `block`: what another task
    /// decoded, or `None` once the folder has claimed the block itself.
    /// While another task still decodes `block`, the folder decodes the
    /// next unclaimed block and lands it.
    fn next_block(&self, pipe: &Pipeline, worker: &mut Span, block: usize) -> Option<Decoded> {
        loop {
            let mut claims = pipe.lock();
            if let Some(decoded) = claims.ready.remove(&block) {
                return Some(decoded);
            }
            if claims.halted {
                return Some(Err(io::Error::other("a block decoder panicked")));
            }
            match pipe.claim(&mut claims) {
                Some(next) if next == block => return None,
                Some(next) => {
                    drop(claims);
                    let decoded = self.decode_claimed(worker, next);
                    pipe.land(next, decoded);
                }
                // `block` is claimed and still decoding: its task lands it
                // (or unwinds and halts) without waiting on anyone.
                None => drop(pipe.wait(claims)),
            }
        }
    }

    /// A decoding task's side of [`ShardedTrace::fold_events`]: claims
    /// blocks inside the window and lands them for the folder until every
    /// block is claimed or the pipeline halts.
    fn decode_ahead(&self, pipe: &Pipeline, worker: &mut Span) {
        loop {
            let block = {
                let mut claims = pipe.lock();
                loop {
                    if claims.halted || claims.next == pipe.blocks {
                        return;
                    }
                    if let Some(block) = pipe.claim(&mut claims) {
                        break block;
                    }
                    // The window is full: the folder, which started before
                    // this task, frees a slot when it finishes a block.
                    claims = pipe.wait(claims);
                }
            };
            let decoded = self.decode_claimed(worker, block);
            pipe.land(block, decoded);
        }
    }

    /// Decodes one claimed block for the folder to take.
    fn decode_claimed(&self, worker: &mut Span, block: usize) -> Decoded {
        let _sp = decode_span(&self.index, worker, block);
        self.decode_block(block)
    }

    /// The pids whose image name starts with `prefix` (case-insensitive) —
    /// the sharded twin of `EtlTrace::pids_by_name`, folding the
    /// `ProcessStart` records in trace order.
    ///
    /// # Errors
    /// Any block decode error.
    pub fn pids_by_name(
        &self,
        runner: &dyn ShardRunner,
        shards: usize,
        prefix: &str,
    ) -> io::Result<PidSet> {
        let prefix = prefix.to_ascii_lowercase();
        let mut pids = PidSet::new();
        self.fold_events(runner, shards, |ev| {
            if let TraceEvent::ProcessStart { pid, name, .. } = ev {
                if name.to_ascii_lowercase().starts_with(&prefix) {
                    pids.insert(pid);
                }
            }
        })?;
        Ok(pids)
    }
}

/// Opens the `shard/decode` span of one block and counts the block on its
/// task's `shard/worker` span. A block the folder folds from its cursor
/// spans its fold too.
fn decode_span(index: &Index, worker: &mut Span, block: usize) -> Span {
    worker.add_events(1);
    let mut sp = simobs::span::span("shard", "decode");
    if let Some(m) = index.blocks.get(block) {
        sp.add_events(m.records);
        sp.add_bytes(m.len as u64);
    }
    sp
}

/// One decoded block, or why it failed.
type Decoded = io::Result<Vec<TraceEvent>>;

/// The state the tasks of one [`ShardedTrace::fold_events`] scope share.
struct Pipeline {
    /// Blocks in the trace.
    blocks: usize,
    /// How many blocks, counted from the one being folded, may be claimed
    /// at once: `2 × shards`, capped at the block count.
    window: usize,
    claims: Mutex<Claims>,
    /// Signalled when a block lands, the fold advances or the pipeline
    /// halts.
    changed: Condvar,
}

struct Claims {
    /// The next block no task has claimed.
    next: usize,
    /// Blocks folded so far; block `b` may be claimed once
    /// `b < folded + window`.
    folded: usize,
    /// Decoded blocks waiting for the fold, by block: never more than
    /// `window` of them.
    ready: BTreeMap<usize, Decoded>,
    /// The fold is over or a task unwound: no task claims or waits again.
    halted: bool,
}

impl Pipeline {
    fn new(blocks: usize, window: usize) -> Pipeline {
        Pipeline {
            blocks,
            window,
            claims: Mutex::new(Claims {
                next: 0,
                folded: 0,
                ready: BTreeMap::new(),
                halted: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Locks the shared state. Every critical section is a few field
    /// writes that cannot leave it inconsistent, so a task that unwound
    /// elsewhere poisons nothing and halting still works.
    fn lock(&self) -> MutexGuard<'_, Claims> {
        self.claims.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, claims: MutexGuard<'a, Claims>) -> MutexGuard<'a, Claims> {
        self.changed
            .wait(claims)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next block, if there is one and it lies inside the
    /// window.
    fn claim(&self, claims: &mut Claims) -> Option<usize> {
        let block = claims.next;
        let free = block < self.blocks && block < claims.folded + self.window;
        free.then(|| {
            claims.next += 1;
            block
        })
    }

    /// Parks a decoded block for the folder.
    fn land(&self, block: usize, decoded: Decoded) {
        self.lock().ready.insert(block, decoded);
        self.changed.notify_all();
    }

    /// Counts one more folded block, which frees a window slot.
    fn advance(&self) {
        self.lock().folded += 1;
        self.changed.notify_all();
    }

    fn halt(&self) {
        self.lock().halted = true;
        self.changed.notify_all();
    }
}

/// Halts the pipeline if its task unwinds, so a panic in the fold or in a
/// decode never leaves another task waiting for a block or a free slot.
struct HaltOnUnwind<'a>(&'a Pipeline);

impl Drop for HaltOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

/// In-place decoder over one block's bytes: borrows the shared buffer and
/// carries a private clock state seeded from the index snapshot.
/// [`ShardedTrace`] verifies the block's 64-bit [`setl3::checksum`] before
/// it hands a cursor out. That hash covers every record byte, so records
/// carry no check bytes and the cursor decodes them back to back.
///
/// The cursor also carries the time of the record before the next one, and
/// refuses a record that goes back in time. A cursor from
/// [`ShardedTrace::cursor`] starts at 0; the fold seeds the cursor of the
/// block it folds next with the previous block's last time.
pub struct BlockCursor<'a> {
    buf: &'a [u8],
    strings: &'a [String],
    /// The header's logical CPU count; a `CSwitch` must name a CPU below it.
    n_logical: usize,
    clocks: Clocks,
    /// Time of the last record decoded, or the seed before the first (ns);
    /// the next may not precede it.
    last_at: u64,
    remaining: u64,
}

impl BlockCursor<'_> {
    /// The next event in the block, or `None` after the last record.
    ///
    /// # Errors
    /// `InvalidData` for malformed records, a context switch on a CPU past
    /// the header's count, a record that precedes the one before it, or
    /// block bytes that end before or run on after the declared record
    /// count. Bit rot never reaches this point: the block hash check at
    /// cursor creation rejects it wholesale.
    pub fn next_event(&mut self) -> io::Result<Option<TraceEvent>> {
        if self.remaining == 0 {
            if !self.buf.is_empty() {
                return Err(setl3::bad("trailing bytes after block records"));
            }
            return Ok(None);
        }
        let ev = setl3::decode_event(
            &mut self.buf,
            self.strings,
            self.n_logical,
            &mut self.clocks,
            &mut self.last_at,
        )
        .map_err(|e| match e.get_ref() {
            Some(inner) if inner.is::<setl3::Truncated>() => {
                setl3::bad("block bytes end before its records")
            }
            _ => e,
        })?;
        self.remaining -= 1;
        Ok(Some(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ThreadKey, TraceBuilder};
    use crate::setl3::{encode, BLOCK_RECORDS};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn big_trace(n: usize) -> crate::event::EtlTrace {
        let mut b = TraceBuilder::new(4);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "app.exe".into(),
        });
        let key = ThreadKey { pid: 1, tid: 10 };
        for i in 0..n {
            b.push(TraceEvent::CSwitch {
                at: SimTime::from_nanos(i as u64 * 500 + 1),
                cpu: i % 4,
                old: if i % 2 == 0 { None } else { Some(key) },
                new: if i % 2 == 0 { Some(key) } else { None },
                ready_since: None,
            });
        }
        b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 500 + 1000))
    }

    #[test]
    fn sharded_blocks_reassemble_the_exact_event_sequence() {
        let n = (BLOCK_RECORDS * 2 + 100) as usize;
        let trace = big_trace(n);
        let buf = encode(&trace);
        let sharded = ShardedTrace::from_bytes(buf).unwrap();
        assert_eq!(sharded.count(), trace.events().len() as u64);
        assert_eq!(sharded.n_blocks(), 3);
        let mut rebuilt = Vec::new();
        for b in 0..sharded.n_blocks() {
            rebuilt.extend(sharded.decode_block(b).unwrap());
        }
        assert_eq!(&rebuilt, trace.events());
        // And the streaming fold sees the same order.
        let mut folded = Vec::new();
        sharded
            .fold_events(&SerialShards, 4, |ev| folded.push(ev))
            .unwrap();
        assert_eq!(&folded, trace.events());
    }

    #[test]
    fn rev1_and_flat_streams_are_rejected_with_distinct_errors() {
        let mut rev1 = encode(&big_trace(8));
        rev1[5] = 1;
        let err = ShardedTrace::from_bytes(rev1).unwrap_err();
        assert!(err.to_string().contains("revision"), "{err}");

        // A legacy flat v2 header: `SETL`, u32 version, u32 CPU count, then
        // u64 start, end and event count.
        let mut flat = b"SETL".to_vec();
        flat.extend_from_slice(&2u32.to_le_bytes());
        flat.extend_from_slice(&4u32.to_le_bytes());
        flat.resize(36, 0);
        let err = ShardedTrace::from_bytes(flat).unwrap_err();
        assert!(err.to_string().contains("v1/v2"), "{err}");
        assert!(err.to_string().contains("tracetool pack"), "{err}");
    }

    #[test]
    fn every_flip_outside_the_trailer_is_detected_by_some_shard() {
        let trace = big_trace((BLOCK_RECORDS + 50) as usize);
        let buf = encode(&trace);
        let trailer_at = buf.len() - 8;
        // Any flip in header, records or index must fail indexing or
        // decoding a block.
        for i in 0..trailer_at {
            let mut mutated = buf.clone();
            mutated[i] ^= 0x40;
            let failed = match ShardedTrace::from_bytes(mutated) {
                Err(_) => true,
                Ok(s) => (0..s.n_blocks()).any(|b| s.decode_block(b).is_err()),
            };
            assert!(
                failed,
                "flip at byte {i} went undetected on the sharded path"
            );
        }
        // A block cursor checks only its own block, so a flip in the
        // trailer decodes every block; a full fold checks the trailer at
        // every width.
        for i in trailer_at..buf.len() {
            let mut mutated = buf.clone();
            mutated[i] ^= 0x40;
            let s = ShardedTrace::from_bytes(mutated).unwrap();
            assert!((0..s.n_blocks()).all(|b| s.decode_block(b).is_ok()));
            for (name, runner) in runners() {
                for shards in [1usize, 2, 4] {
                    let err = s.fold_events(runner, shards, drop).unwrap_err();
                    assert_eq!(
                        err.to_string(),
                        "file checksum mismatch",
                        "flip at byte {i}, {name} runner at {shards} shards"
                    );
                }
            }
        }
    }

    /// Whether each reader of the whole stream accepts `bytes`, by name:
    /// the in-order readers and the fold at widths 1 and 2.
    fn every_reader(bytes: &[u8]) -> [(&'static str, io::Result<()>); 5] {
        let fold = |runner: &dyn ShardRunner, shards| {
            ShardedTrace::from_slice(bytes)?.fold_events(runner, shards, drop)
        };
        [
            ("read_setl3", setl3::read_setl3(bytes).map(drop)),
            ("trace_info", crate::etl::trace_info(bytes).map(drop)),
            (
                "read_timeline",
                crate::timeline::read_timeline(bytes, 4).map(drop),
            ),
            ("fold_events at 1", fold(&SerialShards, 1)),
            ("fold_events at 2", fold(&ScopedThreads(2), 2)),
        ]
    }

    #[test]
    fn every_reader_gives_one_verdict_on_every_mutation() {
        let clean = setl3::tests::two_block_stream();
        for (reader, verdict) in every_reader(&clean) {
            assert!(verdict.is_ok(), "{reader} refused the clean stream");
        }
        let index = Index::parse(&clean).unwrap();
        let [first, second] = &index.blocks[..] else {
            panic!("{} blocks", index.blocks.len());
        };
        assert!(!index.strings.is_empty());
        let mut mutations = Vec::new();
        for bit in 0..clean.len() * 8 {
            let mut flipped = clean.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            mutations.push((format!("bit {bit} flipped"), flipped));
        }
        for len in 0..clean.len() {
            mutations.push((format!("cut to {len} bytes"), clean[..len].to_vec()));
        }
        let bytes = |m: &BlockMeta| &clean[m.offset..m.offset + m.len];
        let mut swapped = clean.clone();
        swapped.splice(
            first.offset..second.offset + second.len,
            [bytes(second), bytes(first)].concat(),
        );
        assert_ne!(swapped, clean);
        mutations.push(("blocks swapped".to_string(), swapped));

        for (mutation, bytes) in &mutations {
            let verdicts = every_reader(bytes);
            let want = verdicts[0].1.as_ref().map_err(ToString::to_string);
            for (reader, verdict) in &verdicts {
                let err = verdict
                    .as_ref()
                    .expect_err(&format!("{reader} took the stream with its {mutation}"));
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{mutation}: {err}");
                assert_eq!(
                    want,
                    Err(err.to_string()),
                    "{reader} disagrees with read_setl3 on the {mutation}"
                );
            }
        }
    }

    #[test]
    fn window_seek_finds_exactly_the_overlapping_blocks() {
        let n = (BLOCK_RECORDS * 4 + 200) as usize;
        let trace = big_trace(n);
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        assert_eq!(
            sharded.blocks_in_window(sharded.start(), sharded.end()),
            0..sharded.n_blocks()
        );
        let beyond = SimTime::from_nanos(sharded.end().as_nanos() + 1);
        assert!(sharded.blocks_in_window(beyond, beyond).is_empty());
        // A window over the middle of the trace: every in-window event must
        // live in a returned block, and no other block may contain one.
        let lo = SimTime::from_nanos(n as u64 * 500 / 2);
        let hi = SimTime::from_nanos(n as u64 * 500 * 3 / 4);
        let range = sharded.blocks_in_window(lo, hi);
        assert!(!range.is_empty() && range.len() < sharded.n_blocks());
        let mut in_window = 0usize;
        for b in 0..sharded.n_blocks() {
            let hits = sharded
                .decode_block(b)
                .unwrap()
                .iter()
                .filter(|ev| (lo..=hi).contains(&ev.at()))
                .count();
            if range.contains(&b) {
                in_window += hits;
            } else {
                assert_eq!(
                    hits, 0,
                    "block {b} outside {range:?} holds in-window events"
                );
            }
        }
        let expected = trace
            .events()
            .iter()
            .filter(|ev| (lo..=hi).contains(&ev.at()))
            .count();
        assert_eq!(in_window, expected);
    }

    #[test]
    fn pids_by_name_matches_the_materialized_filter() {
        // A second matching process starts in block 2, past the first block
        // every schedule decodes.
        let second = (BLOCK_RECORDS * 2 + 10) as usize;
        let mut b = TraceBuilder::new(4);
        for i in 0..(BLOCK_RECORDS * 3) as usize {
            let at = SimTime::from_nanos(i as u64 * 500);
            b.push(match i {
                0 => TraceEvent::ProcessStart {
                    at,
                    pid: 1,
                    name: "app.exe".into(),
                },
                i if i == second => TraceEvent::ProcessStart {
                    at,
                    pid: 2,
                    name: "App-helper.exe".into(),
                },
                _ => TraceEvent::Frame { at, pid: 1 },
            });
        }
        let trace = b.finish(SimTime::ZERO, SimTime::from_nanos(BLOCK_RECORDS * 1500));
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        assert_eq!(sharded.n_blocks(), 3);
        assert_eq!(trace.pids_by_name("APP").len(), 2);
        for (name, runner) in runners() {
            for shards in [1usize, 2, 3, 4, 7] {
                for prefix in ["APP", "app-h", "other"] {
                    assert_eq!(
                        sharded.pids_by_name(runner, shards, prefix).unwrap(),
                        trace.pids_by_name(prefix),
                        "`{prefix}` on the {name} runner at {shards} shards"
                    );
                }
            }
        }
    }

    /// A trace of `blocks` full blocks plus a partial one, exercising every
    /// analyzer at once: context switches, blocking waits of all reasons,
    /// GPU packet lifecycles, frames, and thread churn across two
    /// processes.
    fn rich_trace(blocks: u64) -> crate::event::EtlTrace {
        use crate::event::WaitReason;
        let mut b = TraceBuilder::new(4);
        for (pid, name) in [(1u64, "app.exe"), (2, "other.exe")] {
            b.push(TraceEvent::ProcessStart {
                at: SimTime::ZERO,
                pid,
                name: name.into(),
            });
        }
        let key = |i: usize| ThreadKey {
            pid: 1 + (i % 2) as u64,
            tid: 10 + (i % 6) as u64,
        };
        for i in 0..6 {
            b.push(TraceEvent::ThreadStart {
                at: SimTime::ZERO,
                key: key(i),
                name: format!("t{i}"),
            });
        }
        let n = (BLOCK_RECORDS * blocks + 333) as usize;
        for i in 0..n {
            let at = SimTime::from_nanos(i as u64 * 700 + 1);
            let ev = match i % 11 {
                0 => TraceEvent::CSwitch {
                    at,
                    cpu: i % 4,
                    old: None,
                    new: Some(key(i)),
                    ready_since: Some(SimTime::from_nanos(i as u64 * 700)),
                },
                1 => TraceEvent::WaitBegin {
                    at,
                    key: key(i + 1),
                    reason: WaitReason::Event { id: (i % 5) as u64 },
                },
                2 => TraceEvent::WaitEnd {
                    at,
                    key: key(i + 1),
                    reason: WaitReason::Event { id: (i % 5) as u64 },
                    waker: Some(key(i)),
                },
                3 => TraceEvent::GpuSubmit {
                    at,
                    key: key(i),
                    gpu: 0,
                    packet: i as u64,
                },
                4 => TraceEvent::GpuStart {
                    at,
                    gpu: 0,
                    engine: (i % 3) as u32,
                    packet: (i - 1) as u64,
                    pid: 1,
                },
                5 => TraceEvent::GpuEnd {
                    at,
                    gpu: 0,
                    engine: (i % 3) as u32,
                    packet: (i - 1) as u64,
                    pid: 1,
                },
                6 => TraceEvent::CSwitch {
                    at,
                    cpu: i % 4,
                    old: Some(key(i)),
                    new: None,
                    ready_since: None,
                },
                7 => TraceEvent::WaitBegin {
                    at,
                    key: key(i + 2),
                    reason: WaitReason::Sleep,
                },
                8 => TraceEvent::WaitBegin {
                    at,
                    key: key(i + 3),
                    reason: WaitReason::Gpu {
                        gpu: 0,
                        packet: (i / 11 * 11 + 3) as u64,
                    },
                },
                9 => TraceEvent::WaitEnd {
                    at,
                    key: key(i + 3),
                    reason: WaitReason::Gpu {
                        gpu: 0,
                        packet: (i / 11 * 11 + 3) as u64,
                    },
                    waker: None,
                },
                _ => TraceEvent::Frame { at, pid: 1 },
            };
            b.push(ev);
        }
        b.finish(SimTime::ZERO, SimTime::from_nanos(n as u64 * 700 + 1000))
    }

    /// Runs tasks on up to `.0` scoped threads claiming indices in order —
    /// a real pool's schedule — and re-raises the first task panic with
    /// its own payload.
    struct ScopedThreads(usize);

    impl ShardRunner for ScopedThreads {
        fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..self.0.min(shards))
                    .map(|_| {
                        s.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= shards {
                                break;
                            }
                            f(i);
                        })
                    })
                    .collect();
                for w in workers {
                    if let Err(panic) = w.join() {
                        std::panic::resume_unwind(panic);
                    }
                }
            });
        }
    }

    /// Runs tasks one at a time in reverse index order: no task may count
    /// on another running beside it, or on task 0 going first.
    struct OneAtATimeReversed;

    impl ShardRunner for OneAtATimeReversed {
        fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
            for i in (0..shards).rev() {
                f(i);
            }
        }
    }

    fn runners() -> [(&'static str, &'static dyn ShardRunner); 4] {
        [
            ("serial", &SerialShards),
            ("scoped2", &ScopedThreads(2)),
            ("scoped4", &ScopedThreads(4)),
            ("reversed", &OneAtATimeReversed),
        ]
    }

    #[test]
    fn every_sharded_analyzer_matches_its_materialized_twin() {
        // At least three fold windows at the widest shard count (2 × 7).
        let trace = rich_trace(3 * 2 * 7);
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        assert!(sharded.n_blocks() >= 3 * 2 * 7);
        let filter = trace.pids_by_name("app");
        let opts = crate::hb::HbOptions::default();
        let verified = crate::verify::verify_trace(&trace);
        let causal = crate::hb::analyze(&trace, &opts);
        let blamed = crate::blame::blame(&trace, &filter);
        let cp = crate::critical::critical_path(&trace, &filter);
        let tl = crate::timeline::fold_trace(&trace, 48);
        // The width-1 reference, a real pool's schedule, and one that runs
        // the tasks one by one starting from the last.
        let schedules: [(&str, &dyn ShardRunner, &[usize]); 3] = [
            ("serial", &SerialShards, &[1]),
            ("scoped4", &ScopedThreads(4), &[2, 3, 4, 7]),
            ("reversed", &OneAtATimeReversed, &[2, 3, 4, 7]),
        ];
        for (name, runner, shard_counts) in schedules {
            for &shards in shard_counts {
                let at = format!("{name} runner at {shards} shards");
                assert_eq!(
                    crate::verify::verify_sharded(&sharded, runner, shards).unwrap(),
                    verified,
                    "verify diverged on the {at}"
                );
                assert_eq!(
                    crate::hb::analyze_sharded(&sharded, &opts, runner, shards).unwrap(),
                    causal,
                    "hb diverged on the {at}"
                );
                assert_eq!(
                    crate::blame::blame_sharded(&sharded, &filter, runner, shards).unwrap(),
                    blamed,
                    "blame diverged on the {at}"
                );
                let cp_sharded =
                    crate::critical::critical_path_sharded(&sharded, &filter, runner, shards)
                        .unwrap();
                assert_eq!(cp_sharded, cp, "critical path diverged on the {at}");
                assert_eq!(
                    cp_sharded.measured_tlp.to_bits(),
                    cp.measured_tlp.to_bits(),
                    "measured TLP diverged on the {at}"
                );
                assert_eq!(
                    crate::timeline::timeline_sharded(&sharded, 48, runner, shards).unwrap(),
                    tl,
                    "timeline diverged on the {at}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fold gave up mid-trace")]
    fn a_panicking_fold_panics_through_a_threaded_runner_instead_of_hanging() {
        let trace = big_trace((BLOCK_RECORDS * 12) as usize);
        let sharded = ShardedTrace::from_bytes(encode(&trace)).unwrap();
        let middle = (BLOCK_RECORDS * 6 + 5) as usize;
        let mut seen = 0usize;
        let _ = sharded.fold_events(&ScopedThreads(2), 2, |_| {
            seen += 1;
            if seen == middle {
                panic!("fold gave up mid-trace");
            }
        });
    }

    #[test]
    fn a_flipped_block_fails_the_fold_after_exactly_the_blocks_before_it() {
        let trace = big_trace((BLOCK_RECORDS * 12 + 7) as usize);
        let clean = encode(&trace);
        // Block 9 lies past the first window at 2, 3 and 4 shards.
        let k = 9;
        let m = &ShardedTrace::from_bytes(clean.clone())
            .unwrap()
            .index
            .blocks[k];
        let mut bytes = clean;
        bytes[m.offset + m.len / 2] ^= 0x40;
        let sharded = ShardedTrace::from_bytes(bytes).unwrap();
        let before: usize = sharded.index.blocks[..k]
            .iter()
            .map(|m| m.records as usize)
            .sum();
        for (name, runner) in runners() {
            for shards in [1usize, 2, 3, 4, 7] {
                let mut seen = Vec::new();
                let err = sharded
                    .fold_events(runner, shards, |ev| seen.push(ev))
                    .unwrap_err();
                assert!(
                    err.to_string().contains("block checksum mismatch"),
                    "{name} runner at {shards} shards: {err}"
                );
                assert!(
                    seen[..] == trace.events()[..before],
                    "{name} runner at {shards} shards folded {} events, not the {before} \
                     of blocks 0..{k}",
                    seen.len()
                );
            }
        }
    }
}
