//! # repro-bench — the reproduction harness
//!
//! Two entry points:
//!
//! * the **`repro` binary** (`cargo run --release -p repro-bench --bin repro
//!   -- <artefact>`) regenerates every table and figure of the paper's
//!   evaluation and writes reports under `results/`;
//! * the **criterion benches** (`cargo bench -p repro-bench`) measure the
//!   real hash kernels, the simulator's event throughput and one
//!   representative experiment per evaluation axis.
//!
//! [`Handoff`] generates the synthetic trace the analyzer benches time and
//! `tracetool synth` writes.

use etwtrace::{EtlTrace, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use parastat::Budget;
use simcore::{SimDuration, SimTime};

/// Budget selection by name: `None` for any name but the three below.
///
/// `paper` matches the paper's protocol (3 × 60 s); `quick` is a smoke-run
/// budget; `standard` balances fidelity and runtime for CI.
pub fn budget(name: &str) -> Option<Budget> {
    match name {
        "paper" => Some(Budget::paper()),
        "quick" => Some(Budget::quick()),
        "standard" => Some(Budget {
            duration: SimDuration::from_secs(30),
            iterations: 2,
        }),
        _ => None,
    }
}

/// The synthetic hand-off workload: one process, `app.exe`, whose
/// [`Handoff::THREADS`] threads take turns on [`Handoff::CPUS`] CPUs in
/// 1 ms rounds. Each round one thread runs and hands off to the next
/// through an event wait, and every 16th round it also submits a GPU
/// packet. That covers every event family the analyzers walk, and the
/// trace verifies clean.
///
/// Events come a round at a time, so a writer streams any number of them
/// in flat memory.
#[derive(Clone, Copy, Debug)]
pub struct Handoff {
    /// Hand-off rounds; the window is one round longer.
    pub rounds: u64,
}

impl Handoff {
    /// Threads taking turns.
    pub const THREADS: u64 = 24;
    /// Logical CPUs of the traced machine.
    pub const CPUS: usize = 12;
    /// The analyzer benches' workload: 203,150 events.
    pub const BENCH: Handoff = Handoff { rounds: 50_000 };

    /// Enough rounds for at least `events` events, counting four per round
    /// past the thread starts (the GPU submits come on top), and at least
    /// one round.
    pub fn at_least(events: u64) -> Handoff {
        let prologue = 1 + Self::THREADS;
        Handoff {
            rounds: events.saturating_sub(prologue).div_ceil(4).max(1),
        }
    }

    /// Events in the trace: the process and thread starts, four per round,
    /// and a GPU submit every 16th round.
    pub fn event_count(self) -> u64 {
        1 + Self::THREADS + self.rounds * 4 + self.rounds.div_ceil(16)
    }

    /// Start of round `r`, and of the window at round 0.
    pub fn round_start(r: u64) -> SimTime {
        SimTime::from_nanos(r * 1_000_000)
    }

    /// End of the window: the end of the last round.
    pub fn end(self) -> SimTime {
        Self::round_start(self.rounds + 1)
    }

    /// The interned strings in first-appearance order: the process name,
    /// then the thread names.
    pub fn strings(self) -> Vec<String> {
        let threads = (0..Self::THREADS).map(|tid| format!("t{tid}"));
        std::iter::once("app.exe".to_string())
            .chain(threads)
            .collect()
    }

    /// Every event in trace order, generated a round at a time.
    pub fn events(self) -> impl Iterator<Item = TraceEvent> {
        let starts = self.strings().into_iter().enumerate().map(|(i, name)| {
            let at = SimTime::ZERO;
            match i.checked_sub(1) {
                None => TraceEvent::ProcessStart { at, pid: 1, name },
                Some(tid) => TraceEvent::ThreadStart {
                    at,
                    key: thread(tid as u64),
                    name,
                },
            }
        });
        starts.chain((0..self.rounds).flat_map(round))
    }

    /// The whole trace in memory.
    pub fn trace(self) -> EtlTrace {
        let mut b = TraceBuilder::new(Self::CPUS);
        for ev in self.events() {
            b.push(ev);
        }
        b.finish(SimTime::ZERO, self.end())
    }
}

fn thread(tid: u64) -> ThreadKey {
    ThreadKey { pid: 1, tid }
}

/// Round `r`'s events: its thread switches in, the next thread starts
/// waiting, a GPU submit every 16th round, and at the round's end the wait
/// ends with the running thread as its waker and the thread switches out.
fn round(r: u64) -> impl Iterator<Item = TraceEvent> {
    let runner = r % Handoff::THREADS;
    let next = (r + 1) % Handoff::THREADS;
    let cpu = (runner % Handoff::CPUS as u64) as usize;
    let (at, end) = (Handoff::round_start(r), Handoff::round_start(r + 1));
    let reason = WaitReason::Event { id: next };
    let submit = (r % 16 == 0).then(|| TraceEvent::GpuSubmit {
        at,
        key: thread(runner),
        gpu: 0,
        packet: r,
    });
    [
        Some(TraceEvent::CSwitch {
            at,
            cpu,
            old: None,
            new: Some(thread(runner)),
            ready_since: Some(at),
        }),
        Some(TraceEvent::WaitBegin {
            at,
            key: thread(next),
            reason,
        }),
        submit,
        Some(TraceEvent::WaitEnd {
            at: end,
            key: thread(next),
            reason,
            waker: Some(thread(runner)),
        }),
        Some(TraceEvent::CSwitch {
            at: end,
            cpu,
            old: Some(thread(runner)),
            new: None,
            ready_since: None,
        }),
    ]
    .into_iter()
    .flatten()
}

/// The artefact names the `repro` binary accepts, in paper order.
pub const ARTEFACTS: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "validation",
    "discussion",
    "ablation",
    "power",
    "stability",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_parse() {
        assert_eq!(budget("paper").unwrap().iterations, 3);
        assert_eq!(budget("quick").unwrap().iterations, 1);
        assert_eq!(budget("standard").unwrap().iterations, 2);
        assert_eq!(budget("quik"), None);
        assert_eq!(ARTEFACTS.len(), 20);
    }

    #[test]
    fn the_handoff_generator_counts_what_it_emits() {
        let trace = Handoff::BENCH.trace();
        assert_eq!(trace.events().len(), 203_150);
        assert_eq!(Handoff::BENCH.event_count(), 203_150);
        assert_eq!(trace.n_logical_cpus(), Handoff::CPUS);
        assert!(etwtrace::verify_trace(&trace).is_clean());
        for events in [0, 1, 25, 26, 29, 30, 100_000] {
            let gen = Handoff::at_least(events);
            assert!(gen.event_count() >= events, "{events}");
            let short = 1 + Handoff::THREADS + (gen.rounds - 1) * 4;
            assert!(gen.rounds == 1 || short < events, "{events}");
            assert_eq!(gen.events().count() as u64, gen.event_count());
        }
    }
}
