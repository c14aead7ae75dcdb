//! Trace files — the simulated equivalent of the paper's `.etl` logs: load
//! a recorded [`EtlTrace`] from disk for offline analysis, bit-exactly.
//!
//! A trace file is one SETL v3 stream ([`crate::setl3`]), the format
//! `tracetool record` writes and the run store keeps. [`read_etl`] is the
//! reader every consumer calls; [`trace_info`] summarizes a file without
//! materializing its events.
//!
//! Both take the file's bytes as one slice: the block index sits at the
//! stream's tail, so no reader can start before the whole file is read.
//! Both fold it in place through the one block walk,
//! [`crate::ShardedTrace::fold_events`] at width 1, which checks every
//! block hash and the file trailer.

use crate::event::{EtlTrace, TraceEvent};
use crate::setl3;
use crate::shard::{SerialShards, ShardedTrace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Reads a trace file: `bytes` is one SETL v3 stream, magic to trailer.
///
/// # Errors
/// Returns `InvalidData` for a bad magic or revision (a legacy flat v1/v2
/// file gets a message of its own), a stream cut short, an implausible CPU
/// count, malformed or out-of-order records, a context switch on a CPU
/// past the header's count or a checksum mismatch.
pub fn read_etl(bytes: &[u8]) -> io::Result<EtlTrace> {
    setl3::read_setl3(bytes)
}

/// Stream-level facts about a trace file, computed from a v3 stream without
/// materializing the event vector — `tracetool info`'s triage summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceInfo {
    /// Container generation and revision, e.g. `"SETL3 r3 (compact, blocked)"`.
    pub container: String,
    /// Logical CPU count the trace was recorded with.
    pub n_logical: usize,
    /// Trace window start (nanoseconds of virtual time).
    pub start_ns: u64,
    /// Trace window end.
    pub end_ns: u64,
    /// Total records in the stream.
    pub events: u64,
    /// `(entries, payload bytes)` of the interned string table.
    pub string_table: (u64, u64),
    /// Record count per type name, alphabetical.
    pub records_by_kind: BTreeMap<&'static str, u64>,
    /// Context switches per CPU — the per-CPU event histogram.
    pub cswitch_per_cpu: Vec<u64>,
    /// Wait episodes (`WaitBegin` records) per wait-reason label.
    pub waits_by_reason: BTreeMap<&'static str, u64>,
}

impl TraceInfo {
    /// Counts one record. `cswitch_per_cpu` is sized from the header's
    /// (bounded) CPU count, and the decoder refuses a context switch on a
    /// CPU past it.
    fn fold(&mut self, ev: &TraceEvent) {
        *self.records_by_kind.entry(ev.kind_name()).or_insert(0) += 1;
        if let TraceEvent::CSwitch { cpu, .. } = ev {
            if let Some(n) = self.cswitch_per_cpu.get_mut(*cpu) {
                *n += 1;
            }
        }
        if let TraceEvent::WaitBegin { reason, .. } = ev {
            *self.waits_by_reason.entry(reason.label()).or_insert(0) += 1;
        }
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
        let (entries, bytes) = self.string_table;
        let _ = writeln!(out, "string table  : {entries} entries, {bytes} bytes");
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

/// Summarizes a trace file with full checksum verification, folding counts
/// block by block instead of building an [`EtlTrace`].
///
/// # Errors
/// Same conditions as [`read_etl`].
pub fn trace_info(bytes: &[u8]) -> io::Result<TraceInfo> {
    let mut sp = simobs::span::span("codec", "trace_info");
    sp.add_bytes(bytes.len() as u64);
    let trace = ShardedTrace::from_slice(bytes)?;
    let strings = trace.strings();
    let string_bytes = strings.iter().map(|s| s.len() as u64).sum();
    let mut info = TraceInfo {
        container: format!("SETL3 r{} (compact, blocked)", setl3::VERSION),
        n_logical: trace.n_logical_cpus(),
        start_ns: trace.start().as_nanos(),
        end_ns: trace.end().as_nanos(),
        events: trace.count(),
        string_table: (strings.len() as u64, string_bytes),
        cswitch_per_cpu: vec![0; trace.n_logical_cpus()],
        ..TraceInfo::default()
    };
    trace.fold_events(&SerialShards, 1, |ev| info.fold(&ev))?;
    sp.add_events(info.events);
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ThreadKey, TraceBuilder};
    use crate::setl3::tests::demo_trace;
    use simcore::SimTime;

    #[test]
    fn roundtrip_is_bit_exact() {
        let trace = demo_trace();
        let back = read_etl(setl3::encode(&trace).as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_etl(&b"NOPE"[..]).is_err());
        let mut buf = setl3::encode(&demo_trace());
        buf[5] = 99; // corrupt the revision
        assert!(read_etl(buf.as_slice()).is_err());
        // Truncation is an error, not a partial trace.
        let mut buf2 = setl3::encode(&demo_trace());
        buf2.truncate(buf2.len() - 3);
        assert!(read_etl(buf2.as_slice()).is_err());
    }

    #[test]
    fn trace_info_summarizes_the_stream() {
        let trace = demo_trace();
        let v3 = setl3::encode(&trace);
        let info = trace_info(v3.as_slice()).unwrap();
        assert_eq!(info.container, "SETL3 r3 (compact, blocked)");
        assert_eq!(info.events, trace.events().len() as u64);
        assert_eq!(info.n_logical, 4);
        assert_eq!(info.records_by_kind["CSwitch"], 2);
        assert_eq!(info.cswitch_per_cpu, vec![0, 0, 2, 0]);
        assert_eq!(info.waits_by_reason["gpu"], 1);
        assert_eq!(info.waits_by_reason["event"], 1);
        assert_eq!(info.duration_ns(), 10_000_000);
        // app.exe, main, and the marker label are interned.
        let (entries, bytes) = info.string_table;
        assert_eq!(entries, 3);
        assert!(bytes > 0);
        let rendered = info.render();
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
    fn a_context_switch_past_the_cpu_count_is_invalid_data() {
        // Hash-valid traces of a 4-CPU machine whose one CSwitch names a CPU
        // past the header's count: `TraceBuilder::push` takes it and the
        // encoder writes it, so only the readers can refuse it.
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
            let v3 = setl3::encode(&crafted(cpu));
            let sharded = crate::ShardedTrace::from_bytes(v3.clone()).unwrap();
            let results = [
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
            for (reader, result) in results {
                let err = result.expect_err(reader);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reader}: {err}");
            }
        }
    }

    #[test]
    fn analysis_survives_the_roundtrip() {
        let trace = demo_trace();
        let back = read_etl(setl3::encode(&trace).as_slice()).unwrap();
        let filter: crate::PidSet = [1u64].into_iter().collect();
        let a = crate::analysis::concurrency(&trace, &filter);
        let b = crate::analysis::concurrency(&back, &filter);
        assert_eq!(a.fractions(), b.fractions());
        let ua = crate::analysis::gpu_utilization(&trace, &filter, None);
        let ub = crate::analysis::gpu_utilization(&back, &filter, None);
        assert_eq!(ua, ub);
    }
}
