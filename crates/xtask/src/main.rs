//! `xtask` — workspace automation, in the cargo-xtask pattern.
//!
//! ```text
//! cargo run -p xtask -- lint [--json]
//! cargo run -p xtask -- bench-gate [--update] [--runs N] [--threshold PCT]
//!                                  [--sample-size N] [--bench NAME]...
//! ```
//!
//! `bench-gate` is the perf-regression gate: it runs the selected criterion
//! benches (default: the fast kernel/analysis ones) `--runs` times, takes
//! the per-bench median `ns/iter`, and compares against the committed
//! baseline `BENCH_repro.json` at the workspace root. Any bench more than
//! `--threshold` percent (default 25) slower than its baseline fails the
//! gate. `--update` rewrites the baseline instead; `--sample-size` forwards
//! `CRITERION_SAMPLE_SIZE` to the bench processes (CI quick mode).
//!
//! Benches named `self_trace/on/<x>` additionally gate against their
//! `self_trace/off/<x>` twin from the *same* run: the span tracer enabled
//! may cost at most 5% over disabled. Same-run pairing makes the overhead
//! rule immune to machine-to-machine baseline drift.
//!
//! `lint` is the workspace determinism & concurrency gate. The engine
//! lives in the `simlint` crate: a hand-rolled Rust lexer plus a
//! scope-aware ten-rule catalog (wall-clock, env-read, unordered-iter,
//! fs-write, thread-sleep, raw-spawn, lock-order, float-merge,
//! narrowing-cast, analyzer-panic — see `simlint::rules` for the table).
//! The only suppression is a reasoned inline annotation
//! (`// lint:allow(rule): why`); every other finding gates. `--json`
//! prints the machine-readable report to stdout instead of the human
//! rendering (CI uploads it as an artifact).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage — shared with `bench-gate`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("bench-gate") => bench_gate(&args[1..]),
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("xtask: {msg}");
    eprintln!("usage: cargo run -p xtask -- lint [--json]");
    eprintln!("       cargo run -p xtask -- bench-gate [--update] [--runs N] [--threshold PCT]");
    eprintln!("                                        [--sample-size N] [--bench NAME]...");
    std::process::exit(2);
}

fn lint(args: &[String]) {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => usage(&format!("unknown lint flag `{other}`")),
        }
    }
    let report = simlint::lint_workspace(&workspace_root()).unwrap_or_else(|e| {
        eprintln!("xtask lint: {e}");
        std::process::exit(1);
    });
    if json {
        println!("{}", report.to_json());
    } else {
        for d in &report.findings {
            println!("{d}");
            println!("    context: {}", d.context);
            println!("    help: {}", d.suggestion);
        }
    }
    if report.is_clean() {
        eprintln!(
            "xtask lint: clean — {} files, {} allowed",
            report.files, report.allowed
        );
    } else {
        eprintln!(
            "xtask lint: {} finding(s) across {} files ({} allowed)",
            report.findings.len(),
            report.files,
            report.allowed
        );
        std::process::exit(1);
    }
}

/// Benches the gate runs by default: the pure-CPU kernel and trace-analysis
/// benches, plus `simulator` (one simulated second of four workloads and
/// three analyzers over its trace), the DES hot loop every table runs
/// through. All run in seconds, fast enough for a CI smoke signal. The
/// simulation-sweep benches (`experiments`, `runner`) take minutes and are
/// left to explicit `--bench` selection.
const GATE_BENCHES: [&str; 7] = [
    "hash_kernels",
    "profiler",
    "verify",
    "self_trace",
    "timeline",
    "shard",
    "simulator",
];

/// Maximum cost of the enabled span tracer over its disabled twin, as a
/// percentage, for `self_trace/on/<x>` vs `self_trace/off/<x>` pairs.
const SELF_TRACE_MAX_PCT: f64 = 5.0;

/// Minimum speedups the sharded streaming analyzers must hold over their
/// reference twins, pinned from same-run pairs of the `shard` bench (immune
/// to baseline drift across machines). The streaming pair is a
/// conservative floor: the ordered fold keeps only its window of decoded
/// blocks alive, never the whole trace, and decodes them on four workers
/// while it folds. The seek pair is the headline: decoding only the
/// index-selected tail blocks beats decoding the whole stream by well
/// over 5× (~35× measured single-core). The fold
/// pair holds `fold_events` to a parallel gain: at width 2 one worker
/// folds while the other decodes ahead, where a fold that overlaps nothing
/// runs at about 1.0× its width-1 time.
const SHARD_MIN_SPEEDUP: [(&str, &str, f64); 3] = [
    (
        "shard/materialized/tlp_250k_events",
        "shard/streaming4/tlp_250k_events",
        1.3,
    ),
    (
        "shard/materialized/window_tail_250k_events",
        "shard/seek/window_tail_250k_events",
        5.0,
    ),
    (
        "shard/fold1/verify_hb_250k_events",
        "shard/fold2/verify_hb_250k_events",
        1.2,
    ),
];

/// The committed baseline file, relative to the workspace root.
const BASELINE_FILE: &str = "BENCH_repro.json";

fn bench_gate(args: &[String]) {
    let mut update = false;
    let mut runs = 3usize;
    let mut threshold_pct = 25.0f64;
    let mut sample_size: Option<u64> = None;
    let mut benches: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--update" => update = true,
            "--runs" => {
                runs = value("--runs")
                    .parse()
                    .unwrap_or_else(|_| usage("invalid --runs"));
            }
            "--threshold" => {
                threshold_pct = value("--threshold")
                    .parse()
                    .unwrap_or_else(|_| usage("invalid --threshold"));
            }
            "--sample-size" => {
                sample_size = Some(
                    value("--sample-size")
                        .parse()
                        .unwrap_or_else(|_| usage("invalid --sample-size")),
                );
            }
            "--bench" => benches.push(value("--bench")),
            other => usage(&format!("unknown bench-gate flag `{other}`")),
        }
    }
    if runs == 0 {
        usage("--runs must be at least 1");
    }
    if benches.is_empty() {
        benches = GATE_BENCHES.iter().map(|s| s.to_string()).collect();
    }
    let root = workspace_root();
    let baseline_path = root.join(BASELINE_FILE);

    let mut samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for run in 0..runs {
        for bench in &benches {
            eprintln!("bench-gate: run {}/{runs} of `{bench}`…", run + 1);
            let mut cmd = std::process::Command::new("cargo");
            cmd.current_dir(&root)
                .args(["bench", "-q", "-p", "repro-bench", "--features", "bench"])
                .args(["--bench", bench]);
            if let Some(n) = sample_size {
                cmd.env("CRITERION_SAMPLE_SIZE", n.to_string());
            }
            let out = cmd.output().unwrap_or_else(|e| {
                eprintln!("bench-gate: failed to spawn cargo: {e}");
                std::process::exit(1);
            });
            if !out.status.success() {
                eprintln!("bench-gate: `cargo bench --bench {bench}` failed:");
                eprintln!("{}", String::from_utf8_lossy(&out.stderr));
                std::process::exit(1);
            }
            for (name, ns) in parse_bench_lines(&String::from_utf8_lossy(&out.stdout)) {
                samples.entry(name).or_default().push(ns);
            }
        }
    }
    let current: BTreeMap<String, u64> = samples
        .into_iter()
        .map(|(name, mut ns)| {
            ns.sort_unstable();
            (name, median(&ns))
        })
        .collect();
    if current.is_empty() {
        eprintln!("bench-gate: no `bench:` lines parsed — did the benches run?");
        std::process::exit(1);
    }

    if update {
        // lint:allow(fs-write): the bench baseline is a whole-file dev
        // artifact rewritten by an explicit human-invoked --update.
        std::fs::write(&baseline_path, render_baseline(&current)).unwrap_or_else(|e| {
            eprintln!("bench-gate: cannot write {}: {e}", baseline_path.display());
            std::process::exit(1);
        });
        eprintln!(
            "bench-gate: wrote {} entries to {}",
            current.len(),
            baseline_path.display()
        );
        return;
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!(
            "bench-gate: cannot read {} ({e}); run with --update to create it",
            baseline_path.display()
        );
        std::process::exit(1);
    });
    let baseline = parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("bench-gate: {}: {e}", baseline_path.display());
        std::process::exit(1);
    });
    let (mut regressions, notes) = compare_baseline(&baseline, &current, threshold_pct);
    regressions.extend(compare_self_trace_pairs(&current, SELF_TRACE_MAX_PCT));
    regressions.extend(compare_shard_pairs(&current, &SHARD_MIN_SPEEDUP));
    for note in &notes {
        eprintln!("bench-gate: note: {note}");
    }
    for (name, ns) in &current {
        match baseline.get(name) {
            Some(base) => eprintln!(
                "bench-gate: {name}: {ns} ns/iter (baseline {base}, {:+.1}%)",
                delta_pct(*base, *ns)
            ),
            None => eprintln!("bench-gate: {name}: {ns} ns/iter (no baseline)"),
        }
    }
    if regressions.is_empty() {
        eprintln!(
            "bench-gate: ok — {} benches within {threshold_pct}% of baseline",
            current.len()
        );
    } else {
        for r in &regressions {
            eprintln!("bench-gate: REGRESSION: {r}");
        }
        eprintln!(
            "bench-gate: {} regression(s) beyond {threshold_pct}%; if intentional, re-run with --update",
            regressions.len()
        );
        std::process::exit(1);
    }
}

/// Extracts `(name, ns_per_iter)` pairs from the criterion stub's
/// `bench: <name> <ns> ns/iter (<n> iters)` stdout lines.
fn parse_bench_lines(stdout: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in stdout.lines() {
        let Some(rest) = line.trim().strip_prefix("bench: ") else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let (Some(name), Some(ns), Some("ns/iter")) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if let Ok(ns) = ns.parse::<u64>() {
            out.push((name.to_string(), ns));
        }
    }
    out
}

/// Median of a sorted, non-empty slice (mean of the middle pair when even).
fn median(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

fn delta_pct(base: u64, now: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (now as f64 - base as f64) / base as f64 * 100.0
}

/// Renders the baseline map as one-entry-per-line JSON, sorted by name, so
/// diffs of the committed file stay reviewable.
fn render_baseline(medians: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{\n");
    for (i, (name, ns)) in medians.iter().enumerate() {
        let comma = if i + 1 == medians.len() { "" } else { "," };
        out.push_str(&format!("  \"{name}\": {ns}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat `{"name": ns, …}` baseline JSON. Only the exact shape
/// `render_baseline` produces (string keys, unsigned integer values) is
/// accepted — this is a checked-in artifact, not arbitrary input.
fn parse_baseline(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("baseline is not a JSON object")?;
    let mut map = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry `{entry}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("malformed key in `{entry}`"))?;
        let ns: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("malformed value in `{entry}`"))?;
        if map.insert(key.to_string(), ns).is_some() {
            return Err(format!("duplicate bench `{key}`"));
        }
    }
    Ok(map)
}

/// Compares current medians against the baseline. Returns `(regressions,
/// notes)`: a regression is a shared bench more than `threshold_pct`
/// slower; benches present on only one side are notes (the gate compares
/// the intersection, so `--bench` subsets work).
fn compare_baseline(
    baseline: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
    threshold_pct: f64,
) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut notes = Vec::new();
    for (name, &now) in current {
        match baseline.get(name) {
            Some(&base) => {
                let limit = base as f64 * (1.0 + threshold_pct / 100.0);
                if now as f64 > limit {
                    regressions.push(format!(
                        "{name}: {now} ns/iter vs baseline {base} ({:+.1}%)",
                        delta_pct(base, now)
                    ));
                }
            }
            None => notes.push(format!(
                "`{name}` has no baseline entry (new bench? --update to record it)"
            )),
        }
    }
    for name in baseline.keys() {
        if !current.contains_key(name) {
            notes.push(format!("baseline entry `{name}` was not measured this run"));
        }
    }
    (regressions, notes)
}

/// Enforces the self-trace overhead rule on `self_trace/on/<x>` /
/// `self_trace/off/<x>` pairs measured in the same invocation: enabled may
/// be at most `max_pct` slower than disabled. An `on` entry without its
/// `off` twin is itself a failure — the rule cannot be silently skipped by
/// renaming one side.
fn compare_self_trace_pairs(current: &BTreeMap<String, u64>, max_pct: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for (name, &on) in current {
        let Some(suffix) = name.strip_prefix("self_trace/on/") else {
            continue;
        };
        let off_name = format!("self_trace/off/{suffix}");
        match current.get(&off_name) {
            Some(&off) if off > 0 => {
                let limit = off as f64 * (1.0 + max_pct / 100.0);
                if on as f64 > limit {
                    regressions.push(format!(
                        "self-trace overhead on `{suffix}`: {on} ns/iter enabled vs {off} disabled ({:+.1}%, limit +{max_pct}%)",
                        delta_pct(off, on)
                    ));
                }
            }
            _ => regressions.push(format!(
                "`{name}` was measured without its `{off_name}` twin; cannot check overhead"
            )),
        }
    }
    regressions
}

/// Holds each sharded analyzer to its pinned speedup over its reference
/// twin (the materialized pipeline, or the same fold at width 1), from
/// same-run pairs. A pair only fires when its reference side was measured
/// this run, so `--bench` selections that skip the shard bench stay quiet;
/// a measured reference side with a missing twin is an error.
fn compare_shard_pairs(
    current: &BTreeMap<String, u64>,
    pairs: &[(&str, &str, f64)],
) -> Vec<String> {
    let mut regressions = Vec::new();
    for &(reference, sharded, min_speedup) in pairs {
        let Some(&base) = current.get(reference) else {
            continue;
        };
        match current.get(sharded) {
            Some(&shard) if shard > 0 => {
                let speedup = base as f64 / shard as f64;
                if speedup < min_speedup {
                    regressions.push(format!(
                        "sharded speedup on `{sharded}`: {shard} ns/iter vs {base} on \
                         `{reference}` ({speedup:.2}x, pinned minimum {min_speedup}x)"
                    ));
                }
            }
            _ => regressions.push(format!(
                "`{reference}` was measured without its `{sharded}` twin; cannot pin speedup"
            )),
        }
    }
    regressions
}

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/xtask` → two levels up).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_lines_parse_and_medians_are_stable() {
        let stdout = "\
warming up\n\
bench: sha256/compress_64B                                     123 ns/iter (20 iters)\n\
bench: verify_invariants_250k_events                       4567890 ns/iter (10 iters)\n\
not a bench line\n";
        let parsed = parse_bench_lines(stdout);
        assert_eq!(
            parsed,
            vec![
                ("sha256/compress_64B".to_string(), 123),
                ("verify_invariants_250k_events".to_string(), 4_567_890),
            ]
        );
        assert_eq!(median(&[5]), 5);
        assert_eq!(median(&[1, 3, 9]), 3);
        assert_eq!(median(&[2, 4]), 3);
    }

    #[test]
    fn baseline_json_round_trips() {
        let mut m = BTreeMap::new();
        m.insert("b/one".to_string(), 150u64);
        m.insert("a_two".to_string(), 9u64);
        let text = render_baseline(&m);
        assert_eq!(parse_baseline(&text).unwrap(), m);
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_baseline("{\"a\": -1}").is_err());
        assert_eq!(parse_baseline("{}").unwrap().len(), 0);
    }

    #[test]
    fn gate_flags_only_regressions_beyond_threshold() {
        let base: BTreeMap<String, u64> = [("fast", 100u64), ("slow", 1000), ("gone", 5)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let now: BTreeMap<String, u64> = [("fast", 124u64), ("slow", 1300), ("new", 7)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let (regressions, notes) = compare_baseline(&base, &now, 25.0);
        // fast: +24% passes; slow: +30% fails; new/gone are notes only.
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("slow:"), "{regressions:?}");
        assert_eq!(notes.len(), 2, "{notes:?}");
    }

    #[test]
    fn self_trace_pairs_gate_on_same_run_overhead() {
        let current: BTreeMap<String, u64> = [
            ("self_trace/off/fast", 1000u64),
            ("self_trace/on/fast", 1049),
            ("self_trace/off/slow", 1000),
            ("self_trace/on/slow", 1051),
            ("self_trace/on/orphan", 10),
            ("unrelated_bench", 5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let regressions = compare_self_trace_pairs(&current, 5.0);
        // fast: +4.9% passes; slow: +5.1% fails; orphan has no twin.
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions.iter().any(|r| r.contains("`slow`")));
        assert!(regressions.iter().any(|r| r.contains("orphan")));
    }

    #[test]
    fn shard_pairs_pin_same_run_speedups() {
        let pairs: [(&str, &str, f64); 3] = [
            ("shard/materialized/a", "shard/streaming4/a", 1.3),
            ("shard/materialized/b", "shard/seek/b", 5.0),
            (
                "shard/materialized/unmeasured",
                "shard/seek/unmeasured",
                5.0,
            ),
        ];
        let current: BTreeMap<String, u64> = [
            ("shard/materialized/a", 2000u64), // 2.0x over its twin: passes
            ("shard/streaming4/a", 1000),
            ("shard/materialized/b", 4000), // 4.0x, pinned at 5.0x: fails
            ("shard/seek/b", 1000),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let regressions = compare_shard_pairs(&current, &pairs);
        // b misses its pin; the unmeasured pair stays quiet (selected-bench
        // runs that skip the shard bench must not trip it).
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("`shard/seek/b`"), "{regressions:?}");

        let mut orphan = current.clone();
        orphan.remove("shard/seek/b");
        let regressions = compare_shard_pairs(&orphan, &pairs);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("cannot pin"), "{regressions:?}");
    }
}
