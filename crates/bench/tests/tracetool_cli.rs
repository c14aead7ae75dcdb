//! End-to-end CLI tests for `tracetool`: record → verify round trip, the
//! usage listing, the analysers' golden outputs at two fold widths, the
//! diff exit-code contract (0 clean / 1 regression / 2 corrupt-or-usage),
//! the refusal of legacy flat traces, of revision-2 v3 streams, of streams
//! cut inside their header, of a flipped file trailer and of records out of
//! time order, out-of-range arguments, the `synth` generator, and exit
//! codes for help / unknown subcommands.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("spawn tracetool")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tracetool-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn record_then_verify_exits_zero_on_a_clean_trace() {
    let etl = tmp("clean.etl");
    let rec = tracetool(&["record", "vlc", "1", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    let ver = tracetool(&["verify", etl.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&ver.stdout);
    assert!(ver.status.success(), "verify failed: {ver:?}");
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
    assert!(stdout.contains("happens-before:"), "{stdout}");
    assert!(stdout.contains("0 findings"), "{stdout}");
    let _ = std::fs::remove_file(&etl);
}

#[test]
fn help_lists_every_subcommand_on_stdout() {
    let out = tracetool(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "record",
        "info",
        "summary",
        "tlp",
        "latency",
        "bottlenecks",
        "critical-path",
        "verify",
        "timeline",
        "diff",
        "export-cpu",
        "export-gpu",
        "export-chrome",
        "synth",
        "--analyzer-shards",
    ] {
        assert!(stdout.contains(sub), "usage is missing `{sub}`:\n{stdout}");
    }
    // The trace-conversion subcommands went with the legacy format.
    assert!(!stdout.contains("pack <trace.etl>"), "{stdout}");
    // The exit-code contract is part of the help text.
    assert!(
        stdout.contains("exit codes: 0 clean, 1 findings"),
        "{stdout}"
    );
}

/// Records `secs` of VLC into `out`.
fn record(secs: &str, out: &Path) {
    let rec = tracetool(&["record", "vlc", secs, out.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");
}

#[test]
fn a_huge_header_cpu_count_exits_2_from_info_and_timeline() {
    // A 22-byte v3 stream of the current revision whose header declares
    // 2^40 logical CPUs.
    let mut bytes = b"SETL3".to_vec();
    bytes.push(etwtrace::setl3::VERSION);
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
    bytes.resize(22, 0);
    let path = tmp("huge-cpus.etl");
    // lint:allow(fs-write): deliberately planting a crafted temp trace.
    std::fs::write(&path, &bytes).unwrap();
    for sub in ["info", "timeline"] {
        let out = tracetool(&[sub, path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("CPU count"), "{sub}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_context_switch_past_the_cpu_count_exits_2() {
    // A hash-valid v3 trace of a 4-CPU machine whose CSwitch names cpu 4.
    let mut b = etwtrace::TraceBuilder::new(4);
    b.push(etwtrace::TraceEvent::CSwitch {
        at: simcore::SimTime::ZERO,
        cpu: 4,
        old: None,
        new: Some(etwtrace::ThreadKey { pid: 1, tid: 10 }),
        ready_since: None,
    });
    let trace = b.finish(simcore::SimTime::ZERO, simcore::SimTime::from_nanos(1));
    let path = tmp("cpu-past-count.etl");
    parastat::store::atomic_write(&path, &etwtrace::setl3::encode(&trace)).unwrap();
    let file = path.to_str().unwrap();
    for argv in [
        vec!["tlp", file, "app"],
        vec!["timeline", file],
        vec!["--analyzer-shards", "2", "timeline", file],
    ] {
        let out = tracetool(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("past the header's count"),
            "{argv:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn info_summarizes_a_recording_of_at_most_9_bytes_per_event() {
    let etl = tmp("info.etl");
    record("2", &etl);

    let info = tracetool(&["info", etl.to_str().unwrap()]);
    assert!(info.status.success(), "info failed: {info:?}");
    let out = String::from_utf8_lossy(&info.stdout);
    assert!(out.contains("SETL3 r3 (compact, blocked)"), "{out}");
    assert!(out.contains("string table  :"), "{out}");
    assert!(out.contains("records by type:"), "{out}");
    assert!(out.contains("CSwitches per CPU:"), "{out}");

    // Size ceiling: 9 bytes per event is a quarter of what the retired flat
    // v2 container took (36 bytes per event on this recording).
    let events: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("events        : "))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("info must print the event count: {out}"));
    let bytes = std::fs::metadata(&etl).unwrap().len();
    assert!(
        bytes <= events * 9,
        "{bytes} bytes for {events} events is over 9 bytes per event"
    );

    // A corrupt trace is rejected, not summarized: checksums are enforced
    // on the streaming path too.
    let mut bytes = std::fs::read(&etl).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    // lint:allow(fs-write): deliberately planting a corrupt temp trace.
    std::fs::write(&etl, &bytes).unwrap();
    let bad = tracetool(&["info", etl.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(2), "corrupt trace must be rejected");

    let _ = std::fs::remove_file(&etl);
}

#[test]
fn a_trace_cut_inside_its_header_exits_2_with_a_setl_message() {
    let etl = tmp("cut.etl");
    record("2", &etl);
    let bytes = std::fs::read(&etl).unwrap();
    let file = etl.to_str().unwrap();
    // 4 bytes stop inside the magic (`SETL`, not a legacy flat file), 7
    // before the window start, 9 inside the window length.
    for len in [4, 7, 9] {
        parastat::store::atomic_write(&etl, &bytes[..len]).unwrap();
        for argv in [
            vec!["info", file],
            vec!["verify", file],
            vec!["--analyzer-shards", "2", "tlp", file, "vlc"],
        ] {
            let out = tracetool(&argv);
            assert_eq!(out.status.code(), Some(2), "{len} {argv:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("truncated SETL3 stream"),
                "{len} {argv:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(&etl);
}

#[test]
fn a_flipped_file_trailer_exits_2_on_the_default_and_the_sharded_path() {
    let etl = tmp("trailer.etl");
    record("2", &etl);
    let mut bytes = std::fs::read(&etl).unwrap();
    // The last byte belongs to the whole-file checksum, which no block
    // hash covers.
    *bytes.last_mut().unwrap() ^= 0x40;
    parastat::store::atomic_write(&etl, &bytes).unwrap();
    let file = etl.to_str().unwrap();
    let first_stderr_line = |argv: &[&str]| -> String {
        let out = tracetool(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        stderr.lines().next().unwrap_or_default().to_string()
    };
    let want = format!("tracetool: {file}: file checksum mismatch");
    assert_eq!(first_stderr_line(&["info", file]), want);
    // Every analyser names the file in the same line at every width.
    for (sub, prefix) in [
        ("verify", None),
        ("tlp", Some("vlc")),
        ("latency", Some("vlc")),
        ("bottlenecks", Some("vlc")),
        ("critical-path", Some("vlc")),
        ("timeline", None),
    ] {
        let mut argv = vec![sub, file];
        argv.extend(prefix);
        assert_eq!(first_stderr_line(&argv), want, "{sub}");
        let mut sharded = vec!["--analyzer-shards", "2"];
        sharded.extend(&argv);
        assert_eq!(first_stderr_line(&sharded), want, "sharded {sub}");
    }
    let _ = std::fs::remove_file(&etl);
}

#[test]
fn a_legacy_flat_trace_exits_2_from_every_reader() {
    // A flat v2 header with no records: `SETL`, u32 version, u32 CPU
    // count, then u64 start, end and event count.
    let mut flat = b"SETL".to_vec();
    flat.extend_from_slice(&2u32.to_le_bytes());
    flat.extend_from_slice(&12u32.to_le_bytes());
    for field in [0u64, 1_000_000, 0] {
        flat.extend_from_slice(&field.to_le_bytes());
    }
    assert_eq!(flat.len(), 36);
    // A v3 stream of revision 2: the parser refuses it right after the
    // revision byte, with a message of its own.
    let mut revision_2 = b"SETL3\x02".to_vec();
    revision_2.resize(22, 0);
    let path = tmp("legacy-flat.etl");
    let json = tmp("legacy-flat.json");
    let (file, json) = (path.to_str().unwrap(), json.to_str().unwrap());
    for (bytes, needles) in [
        (flat, &["v1/v2", "tracetool pack"][..]),
        (
            revision_2,
            &["SETL3 revision 2 is no longer read; re-record the trace"][..],
        ),
    ] {
        parastat::store::atomic_write(&path, &bytes).unwrap();
        for argv in [
            vec!["info", file],
            vec!["summary", file],
            vec!["verify", file],
            vec!["tlp", file, "vlc"],
            vec!["latency", file, "vlc"],
            vec!["bottlenecks", file, "vlc"],
            vec!["critical-path", file, "vlc"],
            vec!["timeline", file],
            vec!["export-cpu", file],
            vec!["export-gpu", file],
            vec!["export-chrome", file, json],
            vec!["diff", file, file],
            vec!["--analyzer-shards", "4", "verify", file],
            vec!["--analyzer-shards", "4", "timeline", file],
        ] {
            let out = tracetool(&argv);
            assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                needles.iter().all(|needle| stderr.contains(needle)),
                "{argv:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_trace_write_exits_2_without_a_panic() {
    for argv in [
        vec!["record", "vlc", "1", "/dev/full"],
        vec!["synth", "1", "/dev/full"],
    ] {
        let out = tracetool(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(stderr.contains("/dev/full"), "{argv:?}: {stderr}");
    }
}

#[test]
fn a_record_window_past_the_nanosecond_clock_exits_2() {
    // 18446744074 s is the first whole second past u64::MAX nanoseconds.
    let etl = tmp("too-long.etl");
    let _ = std::fs::remove_file(&etl);
    let out = tracetool(&["record", "vlc", "18446744074", etl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("maximum of 18446744073"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!etl.exists(), "a rejected record must not write {etl:?}");
}

#[test]
fn an_oversized_bucket_count_exits_2_on_both_paths() {
    let etl = tmp("buckets.etl");
    record("1", &etl);
    let file = etl.to_str().unwrap();
    // One past the cap, and a count whose buckets would need 144 TB.
    for n in ["1048577", "1000000000000"] {
        for argv in [
            vec!["timeline", file, "--buckets", n],
            vec!["--analyzer-shards", "2", "timeline", file, "--buckets", n],
        ] {
            let out = tracetool(&argv);
            assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("--buckets {n}")),
                "{argv:?}: {stderr}"
            );
            assert!(!stderr.contains("memory allocation"), "{argv:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&etl);
}

#[test]
fn timeline_matches_the_committed_golden_output() {
    let etl = tmp("timeline.etl");
    let rec = tracetool(&["record", "vlc", "2", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    // Default bucket count, text renderer: must reproduce the committed
    // golden byte for byte (the simulation is seeded and deterministic).
    let out = tracetool(&["timeline", etl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/timeline_vlc.txt");
    assert_eq!(stdout, golden, "timeline output drifted from the golden");

    // CSV and JSON renderers agree on the headline numbers.
    let csv = tracetool(&["timeline", etl.to_str().unwrap(), "--csv"]);
    assert!(csv.status.success());
    let csv_out = String::from_utf8_lossy(&csv.stdout);
    assert!(csv_out.starts_with("bucket,start_ns,end_ns"), "{csv_out}");
    assert_eq!(csv_out.lines().count(), 25, "header + 24 buckets");

    // Bad arguments are usage errors.
    let bad = tracetool(&["timeline", etl.to_str().unwrap(), "--buckets", "0"]);
    assert_eq!(bad.status.code(), Some(2));

    // A corrupt trace is rejected with exit 2: the fold enforces checksums
    // like every other reader.
    let mut bytes = std::fs::read(&etl).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    // lint:allow(fs-write): deliberately planting a corrupt temp trace.
    std::fs::write(&etl, &bytes).unwrap();
    let corrupt = tracetool(&["timeline", etl.to_str().unwrap()]);
    assert_eq!(corrupt.status.code(), Some(2), "corrupt trace must exit 2");

    let _ = std::fs::remove_file(&etl);
}

/// The committed output of each analyser on `record vlc 2`, at the default
/// width and at width 2, of `verify` on two wider recordings:
/// `record excel 30` (91 threads) and `record "project cars" 5` (5,400
/// wake edges, 2 GPU edges), and of `summary` on `record chrome 10` (three
/// processes, one with GPU packets). The bottlenecks and timeline goldens
/// are also pinned elsewhere (the library path and the default width).
#[test]
fn analysers_match_their_committed_goldens_at_widths_1_and_2() {
    let vlc = tmp("goldens.etl");
    record("2", &vlc);
    let excel = tmp("goldens-excel.etl");
    let cars = tmp("goldens-cars.etl");
    let chrome = tmp("goldens-chrome.etl");
    for (app, secs, etl) in [
        ("excel", "30", &excel),
        ("project cars", "5", &cars),
        ("chrome", "10", &chrome),
    ] {
        let rec = tracetool(&["record", app, secs, etl.to_str().unwrap()]);
        assert!(rec.status.success(), "record failed: {rec:?}");
    }
    for (etl, sub, prefix, golden) in [
        (&vlc, "tlp", Some("vlc"), include_str!("golden/tlp_vlc.txt")),
        (
            &vlc,
            "latency",
            Some("vlc"),
            include_str!("golden/latency_vlc.txt"),
        ),
        (
            &vlc,
            "critical-path",
            Some("vlc"),
            include_str!("golden/critical_path_vlc.txt"),
        ),
        (&vlc, "verify", None, include_str!("golden/verify_vlc.txt")),
        (
            &vlc,
            "bottlenecks",
            Some("vlc"),
            include_str!("golden/bottlenecks.txt"),
        ),
        (
            &vlc,
            "timeline",
            None,
            include_str!("golden/timeline_vlc.txt"),
        ),
        (
            &excel,
            "verify",
            None,
            include_str!("golden/verify_excel.txt"),
        ),
        (
            &cars,
            "verify",
            None,
            include_str!("golden/verify_project_cars.txt"),
        ),
        (
            &chrome,
            "summary",
            None,
            include_str!("golden/summary_chrome.txt"),
        ),
    ] {
        let file = etl.to_str().unwrap();
        for width in [None, Some("2")] {
            let mut argv = Vec::new();
            if let Some(n) = width {
                argv.extend(["--analyzer-shards", n]);
            }
            argv.extend([sub, file]);
            argv.extend(prefix);
            let out = tracetool(&argv);
            assert_eq!(out.status.code(), Some(0), "{argv:?}: {out:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                golden,
                "{argv:?} drifted from its golden"
            );
        }
    }
    for etl in [vlc, excel, cars, chrome] {
        let _ = std::fs::remove_file(etl);
    }
}

#[test]
fn diff_exit_codes_pin_the_regression_contract() {
    let etl = tmp("diff.etl");
    let rec = tracetool(&["record", "vlc", "1", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    // Identical inputs: exit 0, verdict ok.
    let same = tracetool(&["diff", etl.to_str().unwrap(), etl.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0), "{same:?}");
    let stdout = String::from_utf8_lossy(&same.stdout);
    assert!(stdout.contains("verdict       : ok"), "{stdout}");

    // Inject a synthetic regression into a registry snapshot: the drifted
    // metric must be named and the exit code must be 1.
    let base = tmp("diff-base.prom");
    let cur = tmp("diff-cur.prom");
    // lint:allow(fs-write): temp fixture files for the subprocess under test.
    std::fs::write(&base, "timeline_tlp_mean 2.0\nsched_switches_total 100\n").unwrap();
    // lint:allow(fs-write): temp fixture files for the subprocess under test.
    std::fs::write(&cur, "timeline_tlp_mean 1.2\nsched_switches_total 100\n").unwrap();
    let reg = tracetool(&["diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    assert_eq!(reg.status.code(), Some(1), "{reg:?}");
    let stdout = String::from_utf8_lossy(&reg.stdout);
    assert!(stdout.contains("REGRESSED     : 1"), "{stdout}");
    assert!(stdout.contains("timeline_tlp_mean"), "{stdout}");
    assert!(stdout.contains("verdict       : REGRESSION"), "{stdout}");

    // A wider threshold lets the same drift pass.
    let ok = tracetool(&[
        "diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--threshold",
        "50",
    ]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    // Trace vs its own registry-equivalent: a trace operand folds through
    // the timeline, so diffing a trace against itself is clean too.
    // Missing files are usage errors (exit 2).
    let gone = tracetool(&["diff", etl.to_str().unwrap(), "/no/such/file.prom"]);
    assert_eq!(gone.status.code(), Some(2), "{gone:?}");

    for p in [&etl, &base, &cur] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn analyzer_shards_match_serial_output_byte_for_byte() {
    let etl = tmp("shards.etl");
    record("15", &etl);
    // Enough blocks that a fold at 4 shards decodes ahead and crosses
    // block boundaries.
    let blocks = etwtrace::ShardedTrace::from_bytes(std::fs::read(&etl).unwrap())
        .unwrap()
        .n_blocks();
    assert!(blocks >= 3, "recorded only {blocks} blocks");

    // Every analyzer subcommand must render the same bytes whether it
    // folds on the calling thread (the default width, 1) or decodes the v3
    // blocks ahead on a pool.
    for (sub, prefix) in [
        ("verify", None),
        ("tlp", Some("vlc")),
        ("latency", Some("vlc")),
        ("bottlenecks", Some("vlc")),
        ("critical-path", Some("vlc")),
        ("timeline", None),
    ] {
        let mut argv = vec![sub, etl.to_str().unwrap()];
        argv.extend(prefix);
        let serial = tracetool(&argv);
        assert!(serial.status.success(), "{sub} serial failed: {serial:?}");
        for shards in ["2", "4"] {
            let mut sharded_argv = vec!["--analyzer-shards", shards];
            sharded_argv.extend(argv.iter().copied());
            let sharded = tracetool(&sharded_argv);
            assert!(
                sharded.status.success(),
                "{sub} at {shards} shards failed: {sharded:?}"
            );
            assert_eq!(
                serial.stdout, sharded.stdout,
                "`{sub}` output diverged at {shards} shards"
            );
        }
    }

    // Bad flag values are usage errors too.
    let bad = tracetool(&[
        "--analyzer-shards",
        "zebra",
        "verify",
        etl.to_str().unwrap(),
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");

    let _ = std::fs::remove_file(&etl);
}

#[test]
fn an_analyzer_shard_count_above_the_maximum_exits_2() {
    // Refused while parsing, before the (missing) trace is opened.
    let missing = tmp("missing.etl");
    let over = tracetool(&[
        "--analyzer-shards",
        "257",
        "verify",
        missing.to_str().unwrap(),
    ]);
    assert_eq!(over.status.code(), Some(2), "{over:?}");
    let stderr = String::from_utf8_lossy(&over.stderr);
    assert!(
        stderr.contains("--analyzer-shards 257 is above the maximum of 256"),
        "{stderr}"
    );

    // The maximum itself runs. A one-block trace folds in one task, inline,
    // so no thread starts at any width.
    let etl = tmp("max-shards.etl");
    record("1", &etl);
    let blocks = etwtrace::ShardedTrace::from_bytes(std::fs::read(&etl).unwrap())
        .unwrap()
        .n_blocks();
    assert_eq!(blocks, 1);
    let max = tracetool(&["--analyzer-shards", "256", "verify", etl.to_str().unwrap()]);
    assert_eq!(max.status.code(), Some(0), "{max:?}");
    let _ = std::fs::remove_file(&etl);
}

#[test]
fn synth_writes_a_verify_clean_v3_stream_of_the_exact_size() {
    let out = tmp("synth.etl");
    let gen = tracetool(&["synth", "100000", out.to_str().unwrap()]);
    assert!(gen.status.success(), "synth failed: {gen:?}");
    // The generator rounds the request up to whole handoff rounds and
    // reports the exact count it wrote (status goes to stderr, like
    // `record`).
    let status_line = String::from_utf8_lossy(&gen.stderr);
    let written: u64 = status_line
        .split(" events")
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("synth must report its event count: {status_line}"));
    assert!(written >= 100_000, "{status_line}");

    let info = tracetool(&["info", out.to_str().unwrap()]);
    assert!(info.status.success(), "{info:?}");
    let info_out = String::from_utf8_lossy(&info.stdout);
    assert!(
        info_out.contains("SETL3 r3 (compact, blocked)"),
        "synth must emit the blocked container: {info_out}"
    );
    assert!(info_out.contains(&written.to_string()), "{info_out}");

    // The generated trace is clean under full verification, at the default
    // width and at 4.
    let ver = tracetool(&["verify", out.to_str().unwrap()]);
    assert_eq!(ver.status.code(), Some(0), "{ver:?}");
    let sharded = tracetool(&["--analyzer-shards", "4", "verify", out.to_str().unwrap()]);
    assert_eq!(sharded.status.code(), Some(0), "{sharded:?}");
    assert_eq!(ver.stdout, sharded.stdout);

    // Zero or garbage counts are usage errors.
    let zero = tracetool(&["synth", "0", out.to_str().unwrap()]);
    assert_eq!(zero.status.code(), Some(2), "{zero:?}");

    let _ = std::fs::remove_file(&out);
}

#[test]
fn synth_streams_the_encoded_handoff_trace() {
    let out = tmp("synth-handoff.etl");
    let gen = tracetool(&["synth", "10000", out.to_str().unwrap()]);
    assert!(gen.status.success(), "synth failed: {gen:?}");
    let handoff = repro_bench::Handoff::at_least(10_000);
    assert!(handoff.rounds > 1);
    let encoded = etwtrace::setl3::encode(&handoff.trace());
    assert!(
        std::fs::read(&out).unwrap() == encoded,
        "synth wrote other bytes than `setl3::encode` of {handoff:?}"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn a_corrupt_block_past_the_first_window_exits_2_from_every_analyzer() {
    let path = tmp("corrupt-block.etl");
    let file = path.to_str().unwrap();
    let gen = tracetool(&["synth", "170000", file]);
    assert!(gen.status.success(), "synth failed: {gen:?}");
    let mut bytes = std::fs::read(&path).unwrap();
    let blocks = etwtrace::ShardedTrace::from_bytes(bytes.clone())
        .unwrap()
        .n_blocks();
    assert!(blocks >= 40, "synth wrote only {blocks} blocks");

    // The middle byte lies in the record area, which the index does not
    // cover: the trace still indexes, and exactly one block fails its
    // hash. That block lies past the first fold window (2 × 4 blocks).
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let flipped = etwtrace::ShardedTrace::from_bytes(bytes.clone()).unwrap();
    let bad: Vec<usize> = (0..blocks)
        .filter(|&b| flipped.decode_block(b).is_err())
        .collect();
    assert!(bad.len() == 1 && bad[0] >= 8, "corrupt blocks: {bad:?}");
    parastat::store::atomic_write(&path, &bytes).unwrap();

    for shards in [None, Some("2"), Some("4")] {
        for (sub, prefix) in [
            ("verify", None),
            ("tlp", Some("app")),
            ("latency", Some("app")),
            ("bottlenecks", Some("app")),
            ("critical-path", Some("app")),
            ("timeline", None),
        ] {
            let mut argv = Vec::new();
            if let Some(n) = shards {
                argv.extend(["--analyzer-shards", n]);
            }
            argv.extend([sub, file]);
            argv.extend(prefix);
            let out = tracetool(&argv);
            assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("block checksum mismatch"),
                "{argv:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A hash-valid v3 stream of `records` records: app.exe's thread t10 is
/// switched in on CPU 0 at 100 ns by the second-to-last record, and the
/// last, a `WaitBegin` at 50 ns, goes back in time. The two records take
/// their deltas against different reference clocks (CPU 0's and the
/// global one), so the writer encodes the disorder cleanly. Records in
/// between are frames at 10 ns.
fn out_of_order_stream(records: u64) -> Vec<u8> {
    use etwtrace::{ThreadKey, TraceEvent, WaitReason};
    use simcore::SimTime;
    let key = ThreadKey { pid: 1, tid: 10 };
    let at = SimTime::from_nanos;
    let mut events = vec![
        TraceEvent::ProcessStart {
            at: at(0),
            pid: 1,
            name: "app.exe".into(),
        },
        TraceEvent::ThreadStart {
            at: at(0),
            key,
            name: "main".into(),
        },
    ];
    while (events.len() as u64) < records - 2 {
        events.push(TraceEvent::Frame { at: at(10), pid: 1 });
    }
    events.push(TraceEvent::CSwitch {
        at: at(100),
        cpu: 0,
        old: None,
        new: Some(key),
        ready_since: None,
    });
    events.push(TraceEvent::WaitBegin {
        at: at(50),
        key,
        reason: WaitReason::Event { id: 3 },
    });
    let mut w = etwtrace::setl3::V3Writer::new(
        Vec::new(),
        2,
        at(0),
        at(1000),
        &["app.exe", "main"],
        records,
    )
    .unwrap();
    for ev in &events {
        w.push(ev).unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn records_out_of_time_order_exit_2_from_every_reader() {
    use etwtrace::setl3::BLOCK_RECORDS;
    // The disorder inside the one block, and exactly at the first block
    // seam: the last record of block 0 and the only record of block 1.
    for (name, records, blocks) in [("in-block", 5, 1), ("at-seam", BLOCK_RECORDS + 1, 2)] {
        let bytes = out_of_order_stream(records);
        let sharded = etwtrace::ShardedTrace::from_bytes(bytes.clone()).unwrap();
        assert_eq!(sharded.n_blocks(), blocks, "{name}");
        let path = tmp(&format!("out-of-order-{name}.etl"));
        parastat::store::atomic_write(&path, &bytes).unwrap();
        let file = path.to_str().unwrap();
        for shards in [None, Some("1"), Some("2")] {
            for (sub, prefix) in [
                ("info", None),
                ("verify", None),
                ("tlp", Some("app")),
                ("latency", Some("app")),
                ("bottlenecks", Some("app")),
                ("critical-path", Some("app")),
                ("timeline", None),
            ] {
                let mut argv = Vec::new();
                if let Some(n) = shards {
                    argv.extend(["--analyzer-shards", n]);
                }
                argv.extend([sub, file]);
                argv.extend(prefix);
                let out = tracetool(&argv);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{name} {argv:?}: {out:?}");
                assert!(
                    stderr.contains("trace records out of time order"),
                    "{name} {argv:?}: {stderr}"
                );
                assert!(!stderr.contains("panicked"), "{name} {argv:?}: {stderr}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A verify-clean trace whose one wait is a yield that another thread
/// ends. A yield blocks nothing, so `bottlenecks` reports it at every width
/// instead of panicking.
#[test]
fn bottlenecks_exits_0_on_a_yield_ended_by_a_waker() {
    use etwtrace::{ThreadKey, TraceEvent, WaitReason};
    use simcore::SimTime;
    let at = SimTime::from_nanos;
    let (a, b) = (ThreadKey { pid: 1, tid: 10 }, ThreadKey { pid: 1, tid: 11 });
    let mut t = etwtrace::TraceBuilder::new(2);
    t.push(TraceEvent::ProcessStart {
        at: at(0),
        pid: 1,
        name: "app.exe".into(),
    });
    for (key, name) in [(a, "a"), (b, "b")] {
        t.push(TraceEvent::ThreadStart {
            at: at(0),
            key,
            name: name.into(),
        });
    }
    t.push(TraceEvent::CSwitch {
        at: at(0),
        cpu: 0,
        old: None,
        new: Some(a),
        ready_since: None,
    });
    t.push(TraceEvent::WaitBegin {
        at: at(100),
        key: b,
        reason: WaitReason::Yield,
    });
    t.push(TraceEvent::WaitEnd {
        at: at(200),
        key: b,
        reason: WaitReason::Yield,
        waker: Some(a),
    });
    let trace = t.finish(at(0), at(1000));
    let path = tmp("yield-waker.etl");
    parastat::store::atomic_write(&path, &etwtrace::setl3::encode(&trace)).unwrap();
    let file = path.to_str().unwrap();
    for argv in [
        vec!["verify", file],
        vec!["bottlenecks", file, "app"],
        vec!["--analyzer-shards", "2", "bottlenecks", file, "app"],
    ] {
        let out = tracetool(&argv);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {out:?}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = tracetool(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: tracetool"), "{stderr}");
}

#[test]
fn missing_subcommand_exits_nonzero() {
    let out = tracetool(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing subcommand"), "{stderr}");
}
