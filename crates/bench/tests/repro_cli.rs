//! End-to-end CLI tests for `repro`'s argument parsing: a request for help
//! prints the usage and exits 0, and a budget name other than quick,
//! standard or paper is a usage error (exit 2) before any work starts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("repro-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h", "help"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: repro"), "{flag}: {stdout}");
        assert!(stdout.contains("artefacts: table1"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: {out:?}");
    }
}

#[test]
fn an_unknown_budget_exits_2_and_the_three_known_ones_run() {
    let dir = tmp("budget");
    let out_dir = dir.to_str().unwrap();
    let out = repro(&["--budget", "quik", "table1", "--out", out_dir]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown budget `quik`"), "{stderr}");
    assert!(!stderr.contains("# budget"), "{stderr}");
    assert!(!dir.exists(), "a refused budget must not write anything");
    // Table I needs no simulation, so each budget runs it at once.
    for name in ["quick", "standard", "paper"] {
        let out = repro(&["--budget", name, "table1", "--out", out_dir]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("# budget: {name} (")), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
