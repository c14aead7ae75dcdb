//! # etwtrace — ETW-style trace collection and analysis
//!
//! The paper's measurement pipeline (§III-C, Fig. 1) is:
//! UIforETW collects an **Event Trace Log** → Windows Performance Analyzer
//! exposes the `CPU Usage (Precise)` and `GPU Utilization (FM)` tables →
//! `wpaexporter` dumps the relevant columns → custom scripts compute TLP
//! (Equation 1) and GPU utilization.
//!
//! This crate is that pipeline for the simulated machine:
//!
//! * [`EtlTrace`] — the event log: context switches with ready/switch-in
//!   times, GPU packet start/finish records, frame-present markers, process
//!   and thread lifecycle events.
//! * [`analysis`] — replay analyzers: the concurrency profile (`c_0..c_n`
//!   heat-map row), TLP per Equation 1, instantaneous-TLP time series, GPU
//!   utilization (union of packet busy intervals + mean outstanding packets)
//!   and FPS series.
//! * [`export`] — `wpaexporter`-style CSV dumps with the same columns the
//!   paper extracts.
//! * [`chrome`] — Chrome trace-event JSON export, loadable in Perfetto or
//!   `chrome://tracing` for interactive timeline inspection.
//! * [`etl`] — trace files (the `.etl` of the paper's Fig. 1): `read_etl`
//!   reloads a recorded trace bit-exactly for offline analysis and
//!   `trace_info` summarizes one without materializing it.
//! * [`setl3`] — the one trace format, SETL v3 (varint deltas, interned
//!   strings, block index, checksums), that `tracetool record` and the
//!   persistent run store write, with the one header/index parser every
//!   reader shares.
//! * [`verify`] — streaming invariant checker over the raw event stream
//!   (timestamp order, CPU occupancy, wait balance, GPU packet lifecycle)
//!   with machine-readable diagnostics.
//! * [`hb`] — vector-clock happens-before analysis over wake and GPU
//!   submission edges: end-of-trace deadlocks, lost wakeups, yield storms.
//! * [`timeline`] — time-resolved observability: one streaming pass folds
//!   a trace into N interval buckets (TLP min/mean/max, per-wait-reason
//!   blocked time, per-CPU busy, GPU engine busy, ready-queue depth) with
//!   exact integer-nanosecond conservation.
//! * [`diff`] — run-diff regression reports over two runs' Prometheus
//!   registries and timeline summaries, with configurable thresholds.
//! * [`shard`] — the one v3 record decoder, [`BlockCursor`], which decodes
//!   a block in place; zero-copy sharded access over it (time-window seek
//!   over the index clock snapshots, and one ordered fold,
//!   [`ShardedTrace::fold_events`], that decodes blocks on the injected
//!   [`ShardRunner`] and drives every analyzer's byte-identical sharded
//!   twin). The fold is the one block walk: every reader of a whole trace
//!   file is that fold at width 1.
//!
//! TLP here is **application-level**: analyzers take a [`PidSet`] filter and
//! only count threads of those processes, exactly as the paper distinguishes
//! its methodology from the system-wide TLP of the 2000/2010 studies.

pub mod analysis;
pub mod blame;
pub mod chrome;
pub mod critical;
pub mod diff;
pub mod etl;
pub mod event;
pub mod export;
pub mod hb;
pub mod setl3;
pub mod shard;
pub mod timeline;
pub mod verify;

pub use analysis::{ConcurrencyProfile, GpuUtil, LatencyStats, ProcessSummary, ScheduleStats};
pub use blame::{BlameReport, Blocker, BlockerStat, ThreadTimeBreakdown};
pub use critical::{critical_path, CriticalPath};
pub use diff::{diff_metrics, parse_prometheus, DiffConfig, DiffReport};
pub use event::{EtlTrace, PidSet, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
pub use hb::{analyze, HbOptions, HbReport};
pub use shard::{BlockCursor, SerialShards, ShardRunner, ShardedTrace};
pub use timeline::{fold_trace, read_timeline, Timeline};
pub use verify::{verify_trace, DiagCode, Diagnostic, Severity, VerifyReport};
