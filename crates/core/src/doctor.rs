//! `parastat doctor` — a one-shot health report over the whole pipeline.
//!
//! The span tracer ([`simobs::span`]) already watches every layer of the
//! toolchain: pool workers, the three memo tiers, the store codec, the
//! SETL codecs and every analyzer pass. This module folds one
//! [`FlightRecord`](simobs::span::FlightRecord) snapshot plus the
//! [`RunContext`](crate::runner::RunContext) session counters into a
//! human-readable report: pool occupancy, cache hit rates, tier
//! latencies, codec throughput, the slowest recorded spans and the
//! on-disk store footprint.
//!
//! Everything here is diagnostic-only. The report reads wall-clock
//! derived numbers and directory sizes, so it is *never* part of any
//! deterministic artifact — `repro --doctor` prints it to stderr-adjacent
//! output next to, not inside, the tables.

use crate::runner::RunContext;
use simobs::span::{FlightRecord, SpanStat};
use std::fmt::Write as _;
use std::path::Path;

/// On-disk footprint of a [`SimStore`](crate::store::SimStore) root:
/// entry count/bytes and quarantined count/bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Live `.run` entries under the store root (quarantine excluded).
    pub entries: u64,
    /// Total size of live entries, in bytes.
    pub entry_bytes: u64,
    /// Files sitting in the quarantine directory.
    pub quarantined: u64,
    /// Total size of quarantined files, in bytes.
    pub quarantined_bytes: u64,
}

/// Walks a store root and tallies its footprint. Missing directories
/// count as empty — a cold store is a healthy store.
pub fn store_footprint(root: &Path) -> StoreFootprint {
    fn walk(dir: &Path, quarantine: &Path, out: &mut StoreFootprint) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, quarantine, out);
            } else if let Ok(meta) = e.metadata() {
                if dir.starts_with(quarantine) {
                    out.quarantined += 1;
                    out.quarantined_bytes += meta.len();
                } else if p.extension().is_some_and(|x| x == "run") {
                    out.entries += 1;
                    out.entry_bytes += meta.len();
                }
            }
        }
    }
    let mut out = StoreFootprint::default();
    walk(root, &root.join("quarantine"), &mut out);
    out
}

fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{:.1} {}", value, UNITS[unit])
    }
}

fn human_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn rate(n: u64, d: u64) -> String {
    if n + d == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * n as f64 / (n + d) as f64)
    }
}

fn per_sec(amount: u64, ns: u64) -> String {
    if ns == 0 {
        "n/a".to_string()
    } else {
        let v = amount as f64 / (ns as f64 / 1e9);
        if v >= 1e9 {
            format!("{:.2}G/s", v / 1e9)
        } else if v >= 1e6 {
            format!("{:.2}M/s", v / 1e6)
        } else if v >= 1e3 {
            format!("{:.1}k/s", v / 1e3)
        } else {
            format!("{v:.0}/s")
        }
    }
}

fn stat_line(name: &str, s: &SpanStat) -> String {
    let mut line = format!(
        "    {name:<12} {:>6}x  total {:>10}  mean {:>10}  max {:>10}",
        s.count,
        human_ns(s.total_ns),
        human_ns(s.mean_ns()),
        human_ns(s.max_ns),
    );
    if s.bytes > 0 {
        let _ = write!(line, "  {:>10}", per_sec(s.bytes, s.total_ns));
    }
    if s.events > 0 {
        let _ = write!(line, "  {:>10} ev", per_sec(s.events, s.total_ns));
    }
    line
}

/// Renders the time-resolved section for one named workload timeline: the
/// whole-window TLP plus the lowest-TLP intervals and the wait reason that
/// dominated each — the "where did the parallelism go" view.
pub fn timeline_section(name: &str, tl: &etwtrace::Timeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {name}: {} buckets over {}, TLP {:.2}, {} events",
        tl.buckets.len(),
        human_ns(tl.duration_ns()),
        tl.tlp_mean(),
        tl.events
    );
    let mut ranked: Vec<&etwtrace::timeline::Bucket> =
        tl.buckets.iter().filter(|b| b.width_ns() > 0).collect();
    ranked.sort_by(|a, b| {
        a.tlp_mean()
            .total_cmp(&b.tlp_mean())
            .then(a.start_ns.cmp(&b.start_ns))
    });
    for b in ranked.iter().take(3) {
        let wait = b
            .dominant_wait()
            .map(|(reason, ns)| format!("dominant wait: {reason} {}", human_ns(ns)))
            .unwrap_or_else(|| "no recorded waits".to_string());
        let _ = writeln!(
            out,
            "    low-TLP {:>9} .. {:>9}  tlp {:.2}  busy {:.1}%  {}",
            human_ns(b.start_ns),
            human_ns(b.end_ns),
            b.tlp_mean(),
            b.busy_percent(tl.n_logical),
            wait
        );
    }
    out
}

/// Renders the full doctor report from a flight-record snapshot plus the
/// context's session counters. Pure over its inputs except for the store
/// directory walk.
pub fn doctor_report(ctx: &RunContext, record: &FlightRecord) -> String {
    doctor_report_with_timelines(ctx, record, &[])
}

/// [`doctor_report`] plus a `timelines` section naming each workload's
/// lowest-TLP intervals. `repro --doctor --timeline` feeds this the
/// per-app folds it just computed.
pub fn doctor_report_with_timelines(
    ctx: &RunContext,
    record: &FlightRecord,
    timelines: &[(String, etwtrace::Timeline)],
) -> String {
    let mut out = String::new();
    out.push_str("parastat doctor\n===============\n");

    // Pool occupancy: worker lifetime vs time inside work spans. The
    // difference is claim/steal overhead plus end-of-batch idling.
    out.push_str("\npool\n");
    let pool: Vec<_> = record.stats_for("pool");
    let worker = pool.iter().find(|(n, _)| *n == "worker").map(|(_, s)| *s);
    let work = pool.iter().find(|(n, _)| *n == "work").map(|(_, s)| *s);
    let _ = writeln!(out, "  configured jobs: {}", ctx.jobs());
    match (worker, work) {
        (Some(worker), Some(work)) if worker.total_ns > 0 => {
            let occupancy = 100.0 * work.total_ns as f64 / worker.total_ns as f64;
            let _ = writeln!(
                out,
                "  workers: {} spans, {} wall; work: {} spans, {} wall",
                worker.count,
                human_ns(worker.total_ns),
                work.count,
                human_ns(work.total_ns),
            );
            let _ = writeln!(out, "  occupancy: {occupancy:.1}% (rest is claim/idle)");
        }
        _ => out.push_str("  no pool activity recorded\n"),
    }

    // Cache tiers: hit rates from the context, latencies from the spans.
    out.push_str("\ncache tiers\n");
    let (hits, misses) = ctx.cache_stats();
    let (dhits, dmisses, quarantined) = ctx.store_stats();
    let _ = writeln!(
        out,
        "  memory: {hits} hits / {misses} misses ({} hit rate)",
        rate(hits, misses)
    );
    let _ = writeln!(
        out,
        "  disk:   {dhits} hits / {dmisses} misses ({} hit rate), {quarantined} quarantined",
        rate(dhits, dmisses)
    );
    for (name, s) in record.stats_for("tier") {
        let _ = writeln!(out, "{}", stat_line(name, &s));
    }

    // Store I/O and the SETL codecs, with byte/event throughput.
    out.push_str("\nstore + codec\n");
    let mut any = false;
    for cat in ["store", "codec"] {
        for (name, s) in record.stats_for(cat) {
            any = true;
            let _ = writeln!(out, "{}", stat_line(name, &s));
        }
    }
    if !any {
        out.push_str("    no store/codec activity recorded\n");
    }

    // On-disk footprint of the attached store, if any.
    if let Some(store) = ctx.store() {
        let fp = store_footprint(store.root());
        let _ = writeln!(
            out,
            "  store at {}: {} entries ({}), {} quarantined ({})",
            store.root().display(),
            fp.entries,
            human_bytes(fp.entry_bytes),
            fp.quarantined,
            human_bytes(fp.quarantined_bytes),
        );
    }

    // Analyzer passes.
    out.push_str("\nanalyzers\n");
    let analyzers = record.stats_for("analyzer");
    if analyzers.is_empty() {
        out.push_str("    no analyzer activity recorded\n");
    }
    for (name, s) in analyzers {
        let _ = writeln!(out, "{}", stat_line(name, &s));
    }

    // The DES event loop's aggregate-only phase timers, with each phase's
    // share of the loop's time.
    out.push_str("\nsimulator\n");
    let phases = record.stats_for("machine");
    if phases.is_empty() {
        out.push_str("    no simulation recorded\n");
    }
    let loop_ns: u64 = phases.iter().map(|(_, s)| s.total_ns).sum();
    for (name, s) in phases {
        let share = 100.0 * s.total_ns as f64 / loop_ns.max(1) as f64;
        let _ = writeln!(out, "{}  share {share:>5.1}%", stat_line(name, &s));
    }

    // Time-resolved view: where the workloads lost their parallelism.
    if !timelines.is_empty() {
        out.push_str("\ntimelines\n");
        for (name, tl) in timelines {
            out.push_str(&timeline_section(name, tl));
        }
    }

    // The tail: slowest individual spans still in the rings.
    out.push_str("\nslowest spans\n");
    let slowest = record.slowest(8);
    if slowest.is_empty() {
        out.push_str("    none recorded (is tracing enabled?)\n");
    }
    for r in slowest {
        let _ = writeln!(
            out,
            "    {:>10}  {}/{} (thread {})",
            human_ns(r.dur_ns),
            r.cat,
            r.name,
            r.thread
        );
    }

    // Diagnostic counters + ring health.
    if !record.counters.is_empty() {
        out.push_str("\ncounters\n");
        for (name, v) in &record.counters {
            let _ = writeln!(out, "    {name:<20} {v}");
        }
    }
    let _ = writeln!(
        out,
        "\n{} spans across {} threads ({} dropped to ring wraparound)",
        record.spans.len(),
        record.threads,
        record.dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Budget, Experiment};
    use simcore::SimDuration;
    use simobs::span;
    use workloads::AppId;

    #[test]
    fn timeline_section_names_the_lowest_tlp_interval() {
        let ctx = RunContext::serial();
        let exp = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
            duration: SimDuration::from_secs(2),
            iterations: 1,
        });
        let runs = ctx.run_singles(vec![crate::runner::RunRequest::new(&exp, exp.base_seed)]);
        let tl = etwtrace::fold_trace(&runs[0].trace, 8);
        let section = timeline_section("vlc", &tl);
        assert!(section.contains("vlc: 8 buckets"), "{section}");
        assert!(section.contains("low-TLP"), "{section}");
        assert!(section.contains("dominant wait:"), "{section}");

        let report =
            doctor_report_with_timelines(&ctx, &span::snapshot(), &[("vlc".to_string(), tl)]);
        assert!(report.contains("\ntimelines\n"), "{report}");
        assert!(report.contains("vlc: 8 buckets"), "{report}");
        // The plain report stays timeline-free.
        assert!(!doctor_report(&ctx, &span::snapshot()).contains("\ntimelines\n"));
    }

    #[test]
    fn footprint_of_missing_root_is_empty() {
        let fp = store_footprint(Path::new("target/definitely-not-a-store"));
        assert_eq!(fp, StoreFootprint::default());
    }
}
