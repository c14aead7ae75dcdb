//! The one scheduling replay: CPU occupancy and each thread's scheduling
//! state, rebuilt once from the `ThreadStart`, `CSwitch`, `WaitBegin`,
//! `WaitEnd` and `ThreadEnd` records for `blame`, `timeline`, `critical`
//! and the schedule stats. A thread is running on a CPU, ready, waiting on
//! a [`WaitReason`], or gone (not yet mentioned, or exited), each since a
//! time. The tie-break rules live here alone: a `ThreadStart`, a
//! switch-out or a `WaitEnd` makes a thread ready (so a started thread is
//! ready until it first runs or waits); a switch readies the CPU's
//! occupant, whoever the record names, and one naming nobody is a no-op,
//! as in the checker; leaving the running state frees the CPU, on a
//! `ThreadEnd` too, so a thread that a `WaitBegin` parked on the CPU stays
//! waiting through a switch-out at the same instant; and a thread with no
//! `ThreadStart` is adopted at its first mention.
//!
//! A consumer is a [`Sink`]: before each event it is handed the elapsed
//! window time with the [`Levels`] that held over it, then each tracked
//! thread's transition. A filtered replay tests its [`PidSet`] once per
//! `ThreadTable` slot; CPU occupancy covers every thread. Consumers index
//! their own accounting by slot and walk [`Replay::in_key_order`] last.
//! DESIGN.md §8 says why the Eq. 1 fold and the checker keep their own.

use crate::event::{PidSet, ThreadKey, ThreadTable, TraceEvent, WaitReason};

/// A thread's scheduling state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum State {
    /// On this logical CPU.
    Running(usize),
    /// Runnable but not on a CPU: started, woken, or switched out.
    Ready,
    /// Off the CPU for this reason (preempted and yield are runnable).
    Waiting(WaitReason),
    /// Not yet mentioned, or exited.
    #[default]
    Gone,
}

/// Per state, in this order: running, ready, then waiting as preempted,
/// yield, sleep, event and gpu. The replay counts tracked threads in
/// each ([`Replay::levels`]) and each thread's time in each.
pub(crate) type Levels<T> = [T; 7];

/// `state`'s index in [`Levels`]; none for [`State::Gone`].
fn index(state: State) -> Option<usize> {
    Some(match state {
        State::Running(_) => 0,
        State::Ready => 1,
        State::Waiting(WaitReason::Preempted) => 2,
        State::Waiting(WaitReason::Yield) => 3,
        State::Waiting(WaitReason::Sleep) => 4,
        State::Waiting(WaitReason::Event { .. }) => 5,
        State::Waiting(WaitReason::Gpu { .. }) => 6,
        State::Gone => return None,
    })
}

/// A consumer of the replay; both hooks default to doing nothing.
pub(crate) trait Sink {
    /// `[from, to)` of the window passed (`to > from`) with `replay`'s
    /// levels and CPU occupancy.
    fn elapse(&mut self, _replay: &Replay<'_>, _from: u64, _to: u64) {}

    /// Tracked thread `slot` left `from`, held since `since`, for `to` at
    /// `at` (`from` may equal `to`).
    fn transition(&mut self, _slot: usize, _from: State, _since: u64, _to: State, _at: u64) {}
}

/// The sink of a consumer that reads the replay's own state only.
impl Sink for () {}

#[derive(Clone, Copy, Debug, Default)]
struct Thread {
    state: State,
    since: u64,
    tracked: bool,
    /// Time in each state left so far.
    spent: Levels<u64>,
}

/// The replay. Feed events in stream order with [`Replay::push`].
#[derive(Debug)]
pub(crate) struct Replay<'a> {
    /// Threads to track; `None` tracks every thread.
    filter: Option<&'a PidSet>,
    table: ThreadTable,
    threads: Vec<Thread>,
    /// The slot on each logical CPU.
    cpus: Vec<Option<usize>>,
    start: u64,
    end: u64,
    /// How far into the window the sinks have been handed time.
    cursor: u64,
    levels: Levels<u32>,
}

impl<'a> Replay<'a> {
    /// A replay over the window `[start, end]` of `n_logical` CPUs,
    /// tracking the threads of `filter` (`None`: all).
    pub(crate) fn new(filter: Option<&'a PidSet>, n_logical: usize, start: u64, end: u64) -> Self {
        Replay {
            filter,
            table: ThreadTable::default(),
            threads: Vec::new(),
            cpus: vec![None; n_logical],
            start,
            end: end.max(start),
            cursor: start,
            levels: Levels::default(),
        }
    }

    /// How many tracked threads are in each state.
    pub(crate) fn levels(&self) -> &Levels<u32> {
        &self.levels
    }

    /// The slot on each logical CPU, tracked or not.
    pub(crate) fn cpus(&self) -> &[Option<usize>] {
        &self.cpus
    }

    /// Tracked thread `slot`'s time in each state up to `at`.
    pub(crate) fn spent(&self, slot: usize, at: u64) -> Levels<u64> {
        let Some(th) = self.threads.get(slot) else {
            return Levels::default();
        };
        let mut spent = th.spent;
        if let Some(t) = index(th.state).and_then(|i| spent.get_mut(i)) {
            *t += at.saturating_sub(th.since);
        }
        spent
    }

    /// `key`'s slot, taken gone on first sight: also for a thread a
    /// consumer names without a scheduling record (a waker, a submitter).
    pub(crate) fn slot(&mut self, key: ThreadKey) -> usize {
        if let Some(slot) = self.table.get(key) {
            return slot;
        }
        let tracked = self.filter.map_or(true, |f| f.contains(key.pid));
        self.threads.push(Thread {
            tracked,
            ..Thread::default()
        });
        self.table.slot(key)
    }

    /// Every tracked thread's key and slot, in ascending key order.
    pub(crate) fn in_key_order(&self) -> Vec<(ThreadKey, usize)> {
        let mut order = self.table.in_key_order();
        order.retain(|&(_, slot)| self.threads.get(slot).is_some_and(|th| th.tracked));
        order
    }

    /// Hands `sink` the window time up to `at`, clamped to the window.
    pub(crate) fn advance(&mut self, at: u64, sink: &mut impl Sink) {
        let to = at.clamp(self.start, self.end);
        if to > self.cursor {
            sink.elapse(self, self.cursor, to);
            self.cursor = to;
        }
    }

    /// Hands `sink` the window time up to `ev`, then applies it; only the
    /// scheduling records change state.
    pub(crate) fn push(&mut self, ev: &TraceEvent, sink: &mut impl Sink) {
        let at = ev.at().as_nanos();
        self.advance(at, sink);
        let (key, to) = match *ev {
            TraceEvent::ThreadStart { key, .. } | TraceEvent::WaitEnd { key, .. } => {
                (key, State::Ready)
            }
            TraceEvent::ThreadEnd { key, .. } => (key, State::Gone),
            TraceEvent::WaitBegin { key, reason, .. } => (key, State::Waiting(reason)),
            TraceEvent::CSwitch { cpu, old, new, .. } => {
                let named = old.or(new).is_some();
                if let Some(out) = self.cpus.get(cpu).copied().flatten().filter(|_| named) {
                    self.set(out, State::Ready, at, sink);
                }
                match new {
                    Some(key) => (key, State::Running(cpu)),
                    None => return,
                }
            }
            _ => return,
        };
        let slot = self.slot(key);
        self.set(slot, to, at, sink);
    }

    /// Moves `slot` to `to` at `at`; a tracked thread's sink sees it.
    fn set(&mut self, slot: usize, to: State, at: u64, sink: &mut impl Sink) {
        let Some(th) = self.threads.get(slot).copied() else {
            return;
        };
        let (state, since, tracked) = (th.state, th.since, th.tracked);
        let spent = self.spent(slot, at);
        if let Some(th) = self.threads.get_mut(slot) {
            (th.state, th.since, th.spent) = (to, at, spent);
        }
        // A running thread is its CPU's occupant, and only a running one.
        for (state, occupant) in [(state, None), (to, Some(slot))] {
            if let State::Running(cpu) = state {
                if let Some(c) = self.cpus.get_mut(cpu) {
                    *c = occupant;
                }
            }
        }
        if tracked {
            if let Some(n) = index(state).and_then(|i| self.levels.get_mut(i)) {
                *n -= 1;
            }
            if let Some(n) = index(to).and_then(|i| self.levels.get_mut(i)) {
                *n += 1;
            }
            sink.transition(slot, state, since, to, at);
        }
    }
}

/// `v[slot]`, growing `v` with defaults to reach it.
pub(crate) fn slot_mut<T: Default>(v: &mut Vec<T>, slot: usize) -> &mut T {
    if v.len() <= slot {
        v.resize_with(slot + 1, T::default);
    }
    // lint:allow(analyzer-panic): `v` was just grown past `slot`
    &mut v[slot]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn key(tid: u64) -> ThreadKey {
        ThreadKey { pid: 1, tid }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[derive(Default)]
    struct Log {
        elapsed: Vec<(u64, u64, u32)>,
        moves: Vec<(usize, State, u64, State, u64)>,
    }

    impl Sink for Log {
        fn elapse(&mut self, replay: &Replay<'_>, from: u64, to: u64) {
            let [running, ..] = *replay.levels();
            self.elapsed.push((from, to, running));
        }

        fn transition(&mut self, slot: usize, from: State, since: u64, to: State, at: u64) {
            self.moves.push((slot, from, since, to, at));
        }
    }

    fn switch(t: u64, cpu: usize, old: Option<u64>, new: Option<u64>) -> TraceEvent {
        TraceEvent::CSwitch {
            at: at(t),
            cpu,
            old: old.map(key),
            new: new.map(key),
            ready_since: None,
        }
    }

    #[test]
    fn a_started_thread_is_ready_until_it_first_runs() {
        let mut r = Replay::new(None, 1, 0, 10);
        let mut log = Log::default();
        r.push(
            &TraceEvent::ThreadStart {
                at: at(1),
                key: key(7),
                name: "t".into(),
            },
            &mut log,
        );
        r.push(&switch(4, 0, None, Some(7)), &mut log);
        r.advance(10, &mut log);
        assert_eq!(
            log.moves,
            [
                (0, State::Gone, 0, State::Ready, 1),
                (0, State::Ready, 1, State::Running(0), 4)
            ]
        );
        assert_eq!(log.elapsed, [(0, 1, 0), (1, 4, 0), (4, 10, 1)]);
        assert_eq!(r.cpus(), [Some(0)]);
        assert_eq!(r.spent(0, 10), [6, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn a_wait_begun_on_the_cpu_survives_the_switch_out() {
        let mut r = Replay::new(None, 1, 0, 10);
        let mut log = Log::default();
        r.push(&switch(1, 0, None, Some(3)), &mut log);
        let wait = WaitReason::Event { id: 9 };
        r.push(
            &TraceEvent::WaitBegin {
                at: at(2),
                key: key(3),
                reason: wait,
            },
            &mut log,
        );
        assert_eq!(r.cpus(), [None], "leaving the CPU frees it");
        r.push(&switch(2, 0, Some(3), None), &mut log);
        assert_eq!(r.levels(), &[0, 0, 0, 0, 0, 1, 0]);
        assert_eq!(
            log.moves.last(),
            Some(&(0, State::Running(0), 1, State::Waiting(wait), 2))
        );
        assert_eq!(r.spent(0, 7), [1, 0, 0, 0, 0, 5, 0]);
    }

    #[test]
    fn thread_end_frees_the_cpu_and_filters_track_by_pid() {
        let only: PidSet = [2u64].into_iter().collect();
        let mut r = Replay::new(Some(&only), 2, 0, 10);
        let mut log = Log::default();
        let other = ThreadKey { pid: 2, tid: 1 };
        r.push(&switch(1, 0, None, Some(5)), &mut log);
        r.push(
            &TraceEvent::CSwitch {
                at: at(1),
                cpu: 1,
                old: None,
                new: Some(other),
                ready_since: None,
            },
            &mut log,
        );
        r.push(
            &TraceEvent::ThreadEnd {
                at: at(3),
                key: key(5),
            },
            &mut log,
        );
        assert_eq!(r.cpus(), [None, Some(1)]);
        // pid 1 is untracked: its moves and levels are not reported.
        assert_eq!(log.moves, [(1, State::Gone, 0, State::Running(1), 1)]);
        assert_eq!(r.levels(), &[1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.in_key_order(), [(other, 1)]);
    }
}
