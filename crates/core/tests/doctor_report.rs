//! The doctor report over one pooled session: pool occupancy, cache tiers,
//! store footprint, the DES phase split and the slowest spans; plus the
//! shard pipeline's span contract, read from the same snapshot.
//!
//! This is its own test binary because the span recorder is process-wide:
//! spans from other tests in the same process would land in this report's
//! slowest-span list and shard counters.

use etwtrace::{setl3, verify, ShardedTrace};
use parastat::doctor::{doctor_report, store_footprint};
use parastat::{Budget, Experiment, RunContext, RunRequest, SimStore, ThreadPoolRunner};
use simcore::SimDuration;
use simobs::span;
use workloads::AppId;

/// The lines of the report section that starts with the line `name`.
fn section<'a>(report: &'a str, name: &str) -> &'a str {
    let start = report
        .find(&format!("\n{name}\n"))
        .unwrap_or_else(|| panic!("no {name} section:\n{report}"));
    report[start + 1..].split("\n\n").next().unwrap_or("")
}

/// The line of `section` whose first word is `key`.
fn line<'a>(section: &'a str, key: &str) -> &'a str {
    section
        .lines()
        .find(|l| l.trim_start().starts_with(key))
        .unwrap_or_else(|| panic!("no {key} line:\n{section}"))
}

#[test]
fn report_covers_pool_tiers_store_and_shards() {
    let mut root = std::env::temp_dir();
    root.push(format!("doctor-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    span::reset();
    span::set_enabled(true);
    let mut ctx = RunContext::pooled(2);
    ctx.set_store(SimStore::open(&root));
    let exp = Experiment::new(AppId::ProjectCars2).budget(Budget {
        duration: SimDuration::from_secs(2),
        iterations: 2,
    });
    let requests = (0..2)
        .map(|i| RunRequest::new(&exp, exp.base_seed + i))
        .collect();
    let runs = ctx.run_singles(requests);
    // One ordered fold over the session's own first run, at 2 shards on a
    // 2-worker pool.
    let trace = &runs[0].trace;
    let sharded =
        ShardedTrace::from_bytes(setl3::encode(trace)).expect("fresh v3 encode is indexable");
    assert!(
        sharded.n_blocks() >= 2,
        "the fold needs a second block to hand out"
    );
    let verified = verify::verify_sharded(&sharded, &ThreadPoolRunner::new(2), 2)
        .expect("in-memory shards cannot fail I/O");
    let record = span::snapshot();
    let report = doctor_report(&ctx, &record);
    span::set_enabled(false);
    span::reset();
    assert_eq!(verified, verify::verify_trace(trace));

    assert!(report.contains("parastat doctor"), "{report}");
    assert!(
        line(section(&report, "pool"), "occupancy:").contains('%'),
        "{report}"
    );
    assert!(report.contains("memory: 0 hits / 2 misses"), "{report}");
    assert!(report.contains("run_once"), "{report}");
    assert!(report.contains("2 entries"), "{report}");
    // The simulator section follows the analyzers and lists every DES
    // phase with its share of the event loop.
    let analyzers = report.find("\nanalyzers\n").expect("analyzers section");
    let simulator = report.find("\nsimulator\n").expect("simulator section");
    assert!(analyzers < simulator, "{report}");
    let phases = section(&report, "simulator");
    for phase in ["sync", "handle", "dispatch", "reprice"] {
        assert!(line(phases, phase).contains("share"), "{phases}");
    }

    // Only `tracetool` folds trace files in shards, so the report has no
    // shard section.
    assert!(!report.contains("\nshards\n"), "{report}");

    // The fold ran two tasks, each with one worker span, and recorded one
    // decode span per block whichever task decoded it. Decode spans nest
    // inside worker spans, so decode time cannot pass worker time.
    let shard = record.stats_for("shard");
    let stat = |name: &str| {
        shard
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("no shard/{name} spans: {shard:?}"))
    };
    let (worker, decode) = (stat("worker"), stat("decode"));
    assert_eq!(worker.count, 2, "{shard:?}");
    assert_eq!(decode.count, sharded.n_blocks() as u64, "{shard:?}");
    assert_eq!(decode.events, sharded.count(), "{shard:?}");
    assert!(decode.total_ns <= worker.total_ns, "{shard:?}");

    let fp = store_footprint(&root);
    assert_eq!(fp.entries, 2);
    assert!(fp.entry_bytes > 0);
    assert_eq!(fp.quarantined, 0);
    let _ = std::fs::remove_dir_all(&root);
}
