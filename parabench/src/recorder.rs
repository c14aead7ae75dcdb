//! The traced run's span recorder. Spans are opened and closed from the
//! benchmark's own code around calls into each layer — nothing inside the
//! program is instrumented, and `simobs::span` stays off — kept in memory,
//! and written out once as Chrome trace-event JSON that Perfetto opens.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open span; inert when the recorder is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `module.step` (`machine.run`, `store.load`, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (one simulation and everything done with its trace) the
    /// span belongs to; `None` for sweep-wide steps.
    pub request: Option<usize>,
    /// Counts taken at the span's boundary: events, bytes, blocks, ….
    pub counts: Vec<(&'static str, u64)>,
}

/// Records spans when on; every call is a no-op without a clock read when
/// off, so a walk run with an off recorder is the untraced reference.
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            epoch: on.then(stats::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_nanos() as u64)
    }

    pub fn begin(&mut self, name: &'static str, request: Option<usize>) -> SpanId {
        let Some(start) = self.now() else {
            return SpanId(None);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`. Spans nest: the most recently opened one closes first.
    pub fn end(&mut self, span: SpanId) {
        let (Some(id), Some(t)) = (span.0, self.now()) else {
            return;
        };
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end = t;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Attaches a count to the most recently closed span named `name`: the
    /// counts (events, bytes, blocks) are known once its call returns.
    pub fn count_last(&mut self, name: &'static str, key: &'static str, n: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            s.counts.push((key, n));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time and total count per span name.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = t.by_name.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += s.end - s.start;
            e.2 += 1;
            for &(key, n) in &s.counts {
                *t.counts.entry((s.name, key)).or_default() += n;
            }
        }
        t
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events on
    /// one track), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let mut args = format!("\"span\":{i}");
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(r) = s.request {
                args.push_str(&format!(",\"request\":{r}"));
            }
            for (key, n) in &s.counts {
                args.push_str(&format!(",\"{key}\":{n}"));
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name sums over a recording.
#[derive(Default)]
pub struct Totals {
    /// name → (self ns, total ns, span count)
    by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Totals {
    /// Summed self time of spans named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64)
    }

    /// Summed duration of spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64)
    }

    /// Summed count `key` over spans named `name`.
    pub fn count(&self, name: &str, key: &str) -> f64 {
        self.counts
            .iter()
            .filter(|((n, k), _)| *n == name && *k == key)
            .map(|(_, v)| *v as f64)
            .sum()
    }

    /// Self time summed over every span whose name is not in `except`.
    pub fn self_ns_except(&self, except: &[&str]) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| !except.contains(n))
            .map(|(_, e)| e.0 as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: None,
            counts: Vec::new(),
        };
        // Parent 0..100 with children 10..40 and 30..50 (overlapping) and
        // 60..70: the union covers 50 ns, so the parent's self time is 50.
        r.spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
        ];
        assert_eq!(r.self_times(), vec![50, 30, 20, 10]);
        let t = r.totals();
        assert_eq!(t.self_ns("p"), 50.0);
        assert_eq!(t.self_ns_except(&["p"]), 60.0);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.begin("x", Some(1));
        r.end(s);
        r.count_last("x", "events", 3);
        assert_eq!(r.time("y", None, || 7), 7);
        assert!(r.spans().is_empty());
        assert!(r.chrome_json().contains("traceEvents"));
    }
}
