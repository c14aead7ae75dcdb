//! # machine — the simulated desktop system
//!
//! Composes [`simcpu`], [`simgpu`] and [`etwtrace`] into a runnable machine:
//! a preemptive, SMT-aware OS scheduler driving user-defined *thread
//! programs* over virtual time, with every context switch and GPU packet
//! recorded in an ETW-style trace.
//!
//! ## Programming model
//!
//! Application behaviour is expressed as state machines implementing
//! [`ThreadProgram`]: each time the thread is runnable and its previous
//! action finished, the scheduler asks for the next [`Action`] —
//! compute for a while, sleep, wait on an event, wait for a GPU packet,
//! yield, or exit. Side effects (spawning threads/processes, signalling
//! events, submitting GPU packets, presenting frames) go through the
//! [`ThreadCtx`] handed to the program.
//!
//! ```
//! use machine::{Action, Machine, MachineConfig, ThreadCtx, ThreadProgram, Work};
//! use simcore::SimDuration;
//!
//! /// Computes 5 ms of work, sleeps 5 ms, twice; then exits.
//! struct Blinker(u32);
//! impl ThreadProgram for Blinker {
//!     fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
//!         if self.0 >= 4 {
//!             return Action::Exit;
//!         }
//!         self.0 += 1;
//!         if self.0 % 2 == 1 {
//!             Action::Compute(Work::busy_ms(5.0))
//!         } else {
//!             Action::Sleep(SimDuration::from_millis(5))
//!         }
//!     }
//! }
//!
//! let mut m = Machine::new(MachineConfig::study_rig(12, true));
//! let pid = m.add_process("blinker.exe");
//! m.spawn(pid, "main", Box::new(Blinker(0)));
//! m.run_for(SimDuration::from_millis(100));
//! let trace = m.into_trace();
//! assert!(trace.events().len() > 4);
//! ```
//!
//! ## Scheduling model
//!
//! * Global FIFO ready queue, quantum preemption (default 5 ms).
//! * SMT-aware placement: idle physical cores are preferred over the free
//!   sibling of a busy core, as Windows does.
//! * Compute progress integrates `ops/sec` from [`simcpu::FreqModel`] —
//!   turbo depends on active physical cores, per-thread throughput on the
//!   SMT sibling's work — re-priced on every scheduling change.
//! * GPU devices run their own command queues; packet completions wake
//!   waiting threads.

mod config;
mod ids;
mod metrics;
mod program;
mod sched;
mod work;

pub use config::MachineConfig;
pub use ids::{EventId, Pid, SubmissionId, Tid};
pub use metrics::SchedMetrics;
pub use program::{Action, ThreadCtx, ThreadProgram};
#[cfg(debug_assertions)]
pub use sched::CpuTruth;
pub use sched::{Machine, Priority};
pub use work::Work;
