//! # parastat — the desktop-parallelism study harness
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! methodology that turns "run application X on rig Y under scripted input"
//! into the TLP / GPU-utilization numbers, tables and figures of
//! *Parallelism Analysis of Prominent Desktop Applications: An 18-Year
//! Perspective* (ISPASS 2019).
//!
//! * [`Experiment`] — one application on one machine configuration, run
//!   for N iterations with derived seeds; yields a [`Measurement`] with
//!   mean/σ exactly like the paper's Table II columns.
//! * [`runner`] — the run-execution layer: canonical [`RunRequest`]s, a
//!   memoizing cache, and a [`ThreadPoolRunner`] behind a
//!   [`RunContext`]. Suite and figure builders submit batches here, so the
//!   embarrassingly parallel protocol scales with host cores while staying
//!   byte-identical to the serial run.
//! * [`store`] — the persistent content-addressed run store (simstore):
//!   a second memo tier under `target/simstore/` that survives the
//!   process, so a warm `repro` sweep replays with zero simulations and
//!   byte-identical artifacts. Entries are integrity-checked on load and
//!   quarantined on any mismatch.
//! * [`suite`] — the full 30-application Table II sweep.
//! * [`bottleneck`] — the "why is TLP low" report: blocked-time blame and
//!   critical-path what-if bounds over the same iterations as Table II.
//! * [`figures`] — one builder per table and figure (Table I–III,
//!   Figures 2–13, and the §III-D automation validation); each returns
//!   structured data plus a rendered text/markdown report.
//! * [`paper`] — the paper's published numbers, embedded for side-by-side
//!   comparison in `EXPERIMENTS.md`-style reports.
//! * [`report`] — table / heat-map / sparkline rendering helpers.
//!
//! # Quickstart
//!
//! ```
//! use parastat::{Budget, Experiment};
//! use workloads::AppId;
//!
//! let m = Experiment::new(AppId::Handbrake)
//!     .budget(Budget::quick())
//!     .run();
//! assert!(m.tlp.mean() > 7.0); // HandBrake saturates the 6C/12T rig
//! ```

pub mod bottleneck;
pub mod doctor;
pub mod energy;
pub mod experiment;
pub mod figures;
pub mod paper;
pub mod report;
pub mod runner;
pub mod store;
pub mod suite;

pub use bottleneck::{render_blame, run_blame, AppBlame};
pub use experiment::{Budget, Experiment, Measurement, RunMetrics, SingleRun};
pub use runner::{RunContext, RunRequest, ThreadPoolRunner};
pub use store::{LoadOutcome, SimStore};
pub use suite::{run_table2, AppMeasurement};
