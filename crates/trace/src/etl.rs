//! Trace files — the simulated equivalent of the paper's `.etl` logs: load
//! a recorded [`EtlTrace`] from disk for offline analysis, bit-exactly.
//!
//! [`read_etl`] is the reader every consumer calls. It dispatches on the
//! magic: the compact v3 format ([`crate::setl3`], magic `SETL3`) that
//! `tracetool record` writes, or the legacy flat format defined here — a
//! little-endian tagged stream of `b"SETL"`, format version, CPU count,
//! window, event count, then one tagged record per event. Flat v1/v2
//! decoding lives only in [`read_etl`]; `tracetool pack` uses it to import
//! legacy files and [`write_etl`] (`tracetool unpack`) still writes v2.
//!
//! Generic functions take `R: Read` / `W: Write` by value; pass `&mut r`
//! for a reader you want to keep using.

use crate::event::{EtlTrace, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use crate::setl3;
use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"SETL";
/// Version 2 added the wait-state records (`WaitBegin`/`WaitEnd`/
/// `GpuSubmit`, tags 8–10). Version-1 files are still readable — their tag
/// set is a strict subset.
const VERSION: u32 = 2;

/// Writes a trace in the binary `.etl`-style format.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_etl<W: Write>(trace: &EtlTrace, mut w: W) -> io::Result<()> {
    let mut sp = simobs::span::span("codec", "write_etl");
    sp.add_events(trace.events().len() as u64);
    w.write_all(MAGIC)?;
    put_u32(&mut w, VERSION)?;
    put_u32(&mut w, trace.n_logical_cpus() as u32)?;
    put_u64(&mut w, trace.start().as_nanos())?;
    put_u64(&mut w, trace.end().as_nanos())?;
    put_u64(&mut w, trace.events().len() as u64)?;
    for ev in trace.events() {
        write_event(&mut w, ev)?;
    }
    Ok(())
}

/// Reads a trace file of either format: a v3 stream written by
/// [`crate::setl3::write_setl3`], or a legacy flat file written by
/// [`write_etl`]. The magic tells them apart (`SETL3` vs `SETL` + binary
/// version). A v3 stream is read to the end of `r`.
///
/// # Errors
/// Returns `InvalidData` for a bad magic/version, an implausible CPU count,
/// malformed or out-of-order records, a context switch on a CPU past the
/// header's count or a v3 checksum mismatch, and propagates I/O errors from
/// the reader.
pub fn read_etl<R: Read>(mut r: R) -> io::Result<EtlTrace> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic == setl3::MAGIC {
        let mut bytes = magic.to_vec();
        r.read_to_end(&mut bytes)?;
        return setl3::decode(&bytes);
    }
    let [s, e, t, l, low] = magic;
    if [s, e, t, l] != *MAGIC {
        return Err(bad("not a SETL trace file"));
    }
    let mut sp = simobs::span::span("codec", "read_etl");
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    let [b1, b2, b3] = rest;
    let version = u32::from_le_bytes([low, b1, b2, b3]);
    if version == 0 || version > VERSION {
        return Err(bad("unsupported SETL version"));
    }
    let n_logical = get_u32(&mut r)?;
    if u64::from(n_logical) > setl3::MAX_LOGICAL_CPUS {
        return Err(bad("implausible logical CPU count"));
    }
    let start = SimTime::from_nanos(get_u64(&mut r)?);
    let end = SimTime::from_nanos(get_u64(&mut r)?);
    if end < start {
        return Err(bad("inverted trace window"));
    }
    let count = get_u64(&mut r)?;
    sp.add_events(count);
    let mut builder = TraceBuilder::new(n_logical as usize);
    for _ in 0..count {
        builder.push_decoded(read_event(&mut r)?)?;
    }
    Ok(builder.finish(start, end))
}

/// Stream-level facts about a trace file, computed from a v3 stream without
/// materializing the event vector — `tracetool info`'s triage summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceInfo {
    /// Container generation and revision, e.g. `"SETL v2 (flat)"`.
    pub container: &'static str,
    /// Logical CPU count the trace was recorded with.
    pub n_logical: usize,
    /// Trace window start (nanoseconds of virtual time).
    pub start_ns: u64,
    /// Trace window end.
    pub end_ns: u64,
    /// Total records in the stream.
    pub events: u64,
    /// `(entries, payload bytes)` of the interned string table — v3 only.
    pub string_table: Option<(u64, u64)>,
    /// Record count per type name, alphabetical.
    pub records_by_kind: BTreeMap<&'static str, u64>,
    /// Context switches per CPU — the per-CPU event histogram.
    pub cswitch_per_cpu: Vec<u64>,
    /// Wait episodes (`WaitBegin` records) per wait-reason label.
    pub waits_by_reason: BTreeMap<&'static str, u64>,
}

impl TraceInfo {
    /// Counts one record. `cswitch_per_cpu` is sized from the header's
    /// (bounded) CPU count, and a record's own `cpu` field is untrusted.
    fn fold(&mut self, ev: &TraceEvent) -> io::Result<()> {
        *self.records_by_kind.entry(ev.kind_name()).or_insert(0) += 1;
        if let TraceEvent::CSwitch { cpu, .. } = ev {
            *self
                .cswitch_per_cpu
                .get_mut(*cpu)
                .ok_or_else(|| bad("context switch on a CPU past the header's count"))? += 1;
        }
        if let TraceEvent::WaitBegin { reason, .. } = ev {
            *self.waits_by_reason.entry(reason.label()).or_insert(0) += 1;
        }
        Ok(())
    }

    /// Trace window length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Renders the summary as aligned `key : value` text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "container     : {}", self.container);
        let _ = writeln!(out, "events        : {}", self.events);
        let _ = writeln!(out, "logical CPUs  : {}", self.n_logical);
        let _ = writeln!(
            out,
            "window        : {} ns .. {} ns ({:.3} s)",
            self.start_ns,
            self.end_ns,
            self.duration_ns() as f64 / 1e9
        );
        match self.string_table {
            Some((entries, bytes)) => {
                let _ = writeln!(out, "string table  : {entries} entries, {bytes} bytes");
            }
            None => {
                let _ = writeln!(out, "string table  : none (flat container)");
            }
        }
        let _ = writeln!(out, "records by type:");
        for (kind, n) in &self.records_by_kind {
            let _ = writeln!(out, "  {kind:<14} {n}");
        }
        let _ = writeln!(out, "CSwitches per CPU:");
        for (cpu, n) in self.cswitch_per_cpu.iter().enumerate() {
            let _ = writeln!(out, "  cpu{cpu:<3} {n}");
        }
        let _ = writeln!(out, "waits by reason:");
        if self.waits_by_reason.is_empty() {
            let _ = writeln!(out, "  none");
        }
        for (reason, n) in &self.waits_by_reason {
            let _ = writeln!(out, "  {reason:<14} {n}");
        }
        out
    }
}

/// Summarizes a trace file — either format, full checksum verification on
/// v3 — folding counts instead of building an [`EtlTrace`]. A v3 stream is
/// walked block by block; a legacy flat file goes through [`read_etl`].
///
/// # Errors
/// Same conditions as [`read_etl`].
pub fn trace_info<R: Read>(mut r: R) -> io::Result<TraceInfo> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut sp = simobs::span::span("codec", "trace_info");
    sp.add_bytes(bytes.len() as u64);
    let header = |container, n_logical, start: SimTime, end: SimTime, events| TraceInfo {
        container,
        n_logical,
        start_ns: start.as_nanos(),
        end_ns: end.as_nanos(),
        events,
        cswitch_per_cpu: vec![0; n_logical],
        ..TraceInfo::default()
    };
    let info = if bytes.starts_with(setl3::MAGIC) {
        let index = setl3::Index::parse(&bytes)?;
        let mut info = header(
            "SETL3 r2 (compact, blocked)",
            index.n_logical,
            index.start,
            index.end,
            index.count,
        );
        let string_bytes = index.strings.iter().map(|s| s.len() as u64).sum();
        info.string_table = Some((index.strings.len() as u64, string_bytes));
        setl3::walk(&bytes, &index, |ev| info.fold(&ev))?;
        info
    } else {
        let trace = read_etl(bytes.as_slice())?;
        let container = match bytes.get(4) {
            Some(1) => "SETL v1 (flat)",
            _ => "SETL v2 (flat)",
        };
        let mut info = header(
            container,
            trace.n_logical_cpus(),
            trace.start(),
            trace.end(),
            trace.events().len() as u64,
        );
        trace.events().iter().try_for_each(|ev| info.fold(ev))?;
        info
    };
    sp.add_events(info.events);
    Ok(info)
}

fn write_event<W: Write>(w: &mut W, ev: &TraceEvent) -> io::Result<()> {
    match ev {
        TraceEvent::ProcessStart { at, pid, name } => {
            w.write_all(&[0])?;
            put_u64(w, at.as_nanos())?;
            put_u64(w, *pid)?;
            put_str(w, name)?;
        }
        TraceEvent::ThreadStart { at, key, name } => {
            w.write_all(&[1])?;
            put_u64(w, at.as_nanos())?;
            put_key(w, *key)?;
            put_str(w, name)?;
        }
        TraceEvent::ThreadEnd { at, key } => {
            w.write_all(&[2])?;
            put_u64(w, at.as_nanos())?;
            put_key(w, *key)?;
        }
        TraceEvent::CSwitch {
            at,
            cpu,
            old,
            new,
            ready_since,
        } => {
            w.write_all(&[3])?;
            put_u64(w, at.as_nanos())?;
            put_u32(w, *cpu as u32)?;
            put_opt_key(w, *old)?;
            put_opt_key(w, *new)?;
            match ready_since {
                Some(t) => {
                    w.write_all(&[1])?;
                    put_u64(w, t.as_nanos())?;
                }
                None => w.write_all(&[0])?,
            }
        }
        TraceEvent::GpuStart {
            at,
            gpu,
            engine,
            packet,
            pid,
        } => {
            w.write_all(&[4])?;
            put_u64(w, at.as_nanos())?;
            put_u32(w, *gpu as u32)?;
            put_u32(w, *engine)?;
            put_u64(w, *packet)?;
            put_u64(w, *pid)?;
        }
        TraceEvent::GpuEnd {
            at,
            gpu,
            engine,
            packet,
            pid,
        } => {
            w.write_all(&[5])?;
            put_u64(w, at.as_nanos())?;
            put_u32(w, *gpu as u32)?;
            put_u32(w, *engine)?;
            put_u64(w, *packet)?;
            put_u64(w, *pid)?;
        }
        TraceEvent::Frame { at, pid } => {
            w.write_all(&[6])?;
            put_u64(w, at.as_nanos())?;
            put_u64(w, *pid)?;
        }
        TraceEvent::Marker { at, label } => {
            w.write_all(&[7])?;
            put_u64(w, at.as_nanos())?;
            put_str(w, label)?;
        }
        TraceEvent::WaitBegin { at, key, reason } => {
            w.write_all(&[8])?;
            put_u64(w, at.as_nanos())?;
            put_key(w, *key)?;
            put_reason(w, *reason)?;
        }
        TraceEvent::WaitEnd {
            at,
            key,
            reason,
            waker,
        } => {
            w.write_all(&[9])?;
            put_u64(w, at.as_nanos())?;
            put_key(w, *key)?;
            put_reason(w, *reason)?;
            put_opt_key(w, *waker)?;
        }
        TraceEvent::GpuSubmit {
            at,
            key,
            gpu,
            packet,
        } => {
            w.write_all(&[10])?;
            put_u64(w, at.as_nanos())?;
            put_key(w, *key)?;
            put_u32(w, *gpu as u32)?;
            put_u64(w, *packet)?;
        }
    }
    Ok(())
}

fn read_event<R: Read>(r: &mut R) -> io::Result<TraceEvent> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let at = SimTime::from_nanos(get_u64(r)?);
    Ok(match tag[0] {
        0 => TraceEvent::ProcessStart {
            at,
            pid: get_u64(r)?,
            name: get_str(r)?,
        },
        1 => TraceEvent::ThreadStart {
            at,
            key: get_key(r)?,
            name: get_str(r)?,
        },
        2 => TraceEvent::ThreadEnd {
            at,
            key: get_key(r)?,
        },
        3 => TraceEvent::CSwitch {
            at,
            cpu: get_u32(r)? as usize,
            old: get_opt_key(r)?,
            new: get_opt_key(r)?,
            ready_since: {
                let mut flag = [0u8; 1];
                r.read_exact(&mut flag)?;
                match flag[0] {
                    0 => None,
                    1 => Some(SimTime::from_nanos(get_u64(r)?)),
                    _ => return Err(bad("bad option tag")),
                }
            },
        },
        4 => TraceEvent::GpuStart {
            at,
            gpu: get_u32(r)? as usize,
            engine: get_u32(r)?,
            packet: get_u64(r)?,
            pid: get_u64(r)?,
        },
        5 => TraceEvent::GpuEnd {
            at,
            gpu: get_u32(r)? as usize,
            engine: get_u32(r)?,
            packet: get_u64(r)?,
            pid: get_u64(r)?,
        },
        6 => TraceEvent::Frame {
            at,
            pid: get_u64(r)?,
        },
        7 => TraceEvent::Marker {
            at,
            label: get_str(r)?,
        },
        8 => TraceEvent::WaitBegin {
            at,
            key: get_key(r)?,
            reason: get_reason(r)?,
        },
        9 => TraceEvent::WaitEnd {
            at,
            key: get_key(r)?,
            reason: get_reason(r)?,
            waker: get_opt_key(r)?,
        },
        10 => TraceEvent::GpuSubmit {
            at,
            key: get_key(r)?,
            gpu: get_u32(r)? as usize,
            packet: get_u64(r)?,
        },
        _ => return Err(bad("unknown event tag")),
    })
}

fn put_reason<W: Write>(w: &mut W, reason: WaitReason) -> io::Result<()> {
    match reason {
        WaitReason::Preempted => w.write_all(&[0]),
        WaitReason::Yield => w.write_all(&[1]),
        WaitReason::Sleep => w.write_all(&[2]),
        WaitReason::Event { id } => {
            w.write_all(&[3])?;
            put_u64(w, id)
        }
        WaitReason::Gpu { gpu, packet } => {
            w.write_all(&[4])?;
            put_u32(w, gpu)?;
            put_u64(w, packet)
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
        3 => WaitReason::Event { id: get_u64(r)? },
        4 => WaitReason::Gpu {
            gpu: get_u32(r)?,
            packet: get_u64(r)?,
        },
        _ => return Err(bad("unknown wait reason tag")),
    })
}

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn put_key<W: Write>(w: &mut W, key: ThreadKey) -> io::Result<()> {
    put_u64(w, key.pid)?;
    put_u64(w, key.tid)
}

fn put_opt_key<W: Write>(w: &mut W, key: Option<ThreadKey>) -> io::Result<()> {
    match key {
        Some(k) => {
            w.write_all(&[1])?;
            put_key(w, k)
        }
        None => w.write_all(&[0]),
    }
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn get_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = get_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(bad("string too long"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("invalid utf-8 string"))
}

fn get_key<R: Read>(r: &mut R) -> io::Result<ThreadKey> {
    Ok(ThreadKey {
        pid: get_u64(r)?,
        tid: get_u64(r)?,
    })
}

fn get_opt_key<R: Read>(r: &mut R) -> io::Result<Option<ThreadKey>> {
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    match flag[0] {
        0 => Ok(None),
        1 => Ok(Some(get_key(r)?)),
        _ => Err(bad("bad option tag")),
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setl3::tests::demo_trace;

    #[test]
    fn roundtrip_is_bit_exact() {
        let trace = demo_trace();
        let mut buf = Vec::new();
        write_etl(&trace, &mut buf).unwrap();
        let back = read_etl(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_etl(&b"NOPE"[..]).is_err());
        let mut buf = Vec::new();
        write_etl(&demo_trace(), &mut buf).unwrap();
        buf[4] = 99; // corrupt the version
        assert!(read_etl(buf.as_slice()).is_err());
        // Truncation is an error, not a partial trace.
        let mut buf2 = Vec::new();
        write_etl(&demo_trace(), &mut buf2).unwrap();
        buf2.truncate(buf2.len() - 3);
        assert!(read_etl(buf2.as_slice()).is_err());
    }

    #[test]
    fn read_etl_dispatches_on_the_v3_magic() {
        let trace = demo_trace();
        let v3 = crate::setl3::encode(&trace);
        let back = read_etl(v3.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn trace_info_summarizes_both_generations() {
        let trace = demo_trace();
        let mut v2 = Vec::new();
        write_etl(&trace, &mut v2).unwrap();
        let info = trace_info(v2.as_slice()).unwrap();
        assert_eq!(info.container, "SETL v2 (flat)");
        assert_eq!(info.events, trace.events().len() as u64);
        assert_eq!(info.n_logical, 4);
        assert_eq!(info.records_by_kind["CSwitch"], 2);
        assert_eq!(info.cswitch_per_cpu, vec![0, 0, 2, 0]);
        assert_eq!(info.waits_by_reason["gpu"], 1);
        assert_eq!(info.waits_by_reason["event"], 1);
        assert_eq!(info.string_table, None);
        assert_eq!(info.duration_ns(), 10_000_000);

        let v3 = crate::setl3::encode(&trace);
        let info3 = trace_info(v3.as_slice()).unwrap();
        assert_eq!(info3.container, "SETL3 r2 (compact, blocked)");
        assert_eq!(info3.events, info.events);
        assert_eq!(info3.records_by_kind, info.records_by_kind);
        assert_eq!(info3.cswitch_per_cpu, info.cswitch_per_cpu);
        assert_eq!(info3.waits_by_reason, info.waits_by_reason);
        // app.exe, main, and the marker label are interned.
        let (entries, bytes) = info3.string_table.unwrap();
        assert_eq!(entries, 3);
        assert!(bytes > 0);
        let rendered = info3.render();
        assert!(rendered.contains("SETL3"), "{rendered}");
        assert!(rendered.contains("CSwitch"), "{rendered}");
        assert!(rendered.contains("cpu2"), "{rendered}");
        assert!(rendered.contains("waits by reason:"), "{rendered}");

        // The streaming info pass still enforces v3 checksums.
        let mut corrupt = v3.clone();
        let at = corrupt.len() - 12;
        corrupt[at] ^= 0x40;
        assert!(trace_info(corrupt.as_slice()).is_err());
        // And rejects garbage like the full reader does.
        assert!(trace_info(&b"NOPE"[..]).is_err());
    }

    #[test]
    fn a_huge_flat_cpu_count_is_invalid_data() {
        let mut v2 = Vec::new();
        write_etl(&demo_trace(), &mut v2).unwrap();
        v2[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // CPU count
        for result in [
            read_etl(v2.as_slice()).map(drop),
            trace_info(v2.as_slice()).map(drop),
        ] {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn a_context_switch_past_the_cpu_count_is_invalid_data() {
        // Hash-valid traces of a 4-CPU machine whose one CSwitch names a CPU
        // past the header's count: `TraceBuilder::push` takes it and both
        // encoders write it, so only the readers can refuse it.
        let crafted = |cpu| {
            let mut b = TraceBuilder::new(4);
            b.push(TraceEvent::CSwitch {
                at: SimTime::ZERO,
                cpu,
                old: None,
                new: Some(ThreadKey { pid: 1, tid: 10 }),
                ready_since: None,
            });
            b.finish(SimTime::ZERO, SimTime::from_nanos(1))
        };
        let runner = crate::shard::SerialShards;
        let filter: crate::PidSet = [1u64].into_iter().collect();
        for cpu in [4, 1 << 40] {
            let v3 = crate::setl3::encode(&crafted(cpu));
            let sharded = crate::ShardedTrace::from_bytes(v3.clone()).unwrap();
            let mut results = vec![
                ("read_etl", read_etl(v3.as_slice()).map(drop)),
                ("trace_info", trace_info(v3.as_slice()).map(drop)),
                (
                    "read_timeline",
                    crate::timeline::read_timeline(v3.as_slice(), 8).map(drop),
                ),
                (
                    "timeline_sharded",
                    crate::timeline::timeline_sharded(&sharded, 8, &runner, 2).map(drop),
                ),
                (
                    "concurrency_sharded",
                    crate::analysis::concurrency_sharded(&sharded, &filter, &runner, 2).map(drop),
                ),
            ];
            // The flat format stores the CPU as a u32.
            if cpu == 4 {
                let mut v2 = Vec::new();
                write_etl(&crafted(cpu), &mut v2).unwrap();
                results.push(("flat read_etl", read_etl(v2.as_slice()).map(drop)));
                results.push((
                    "flat read_timeline",
                    crate::timeline::read_timeline(v2.as_slice(), 8).map(drop),
                ));
            }
            for (reader, result) in results {
                let err = result.expect_err(reader);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reader}: {err}");
            }
        }
    }

    #[test]
    fn analysis_survives_the_roundtrip() {
        let trace = demo_trace();
        let mut buf = Vec::new();
        write_etl(&trace, &mut buf).unwrap();
        let back = read_etl(buf.as_slice()).unwrap();
        let filter: crate::PidSet = [1u64].into_iter().collect();
        let a = crate::analysis::concurrency(&trace, &filter);
        let b = crate::analysis::concurrency(&back, &filter);
        assert_eq!(a.fractions(), b.fractions());
        let ua = crate::analysis::gpu_utilization(&trace, &filter, None);
        let ub = crate::analysis::gpu_utilization(&back, &filter, None);
        assert_eq!(ua, ub);
    }
}
