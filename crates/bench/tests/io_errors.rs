//! The bins with a usage of their own print it for a command line they
//! cannot run, and only then: an I/O error exits 2 with its own message and
//! no usage, so it does not read as a mistyped command.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A path under a directory that does not exist.
fn missing(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("colorbars-no-such-dir-{}", std::process::id()))
        .join(name)
}

fn assert_exit_2(out: &Output, what: &str, usage: bool) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert_eq!(
        stderr.lines().any(|l| l.trim_start().starts_with("usage:")),
        usage,
        "{what} printed usage: {}; stderr:\n{stderr}",
        !usage
    );
}

#[test]
fn io_errors_exit_2_without_the_usage() {
    let live = missing("live.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_gateway"))
        .arg("--smoke")
        .env("COLORBARS_OBS_LIVE", &live)
        .env("COLORBARS_RESULTS_DIR", missing("results"))
        .output()
        .expect("gateway runs");
    assert_exit_2(&out, "gateway --smoke with an uncreatable live file", false);
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot create live snapshot file"));

    for (name, exe) in [
        ("doctor", env!("CARGO_BIN_EXE_doctor")),
        ("postmortem", env!("CARGO_BIN_EXE_postmortem")),
    ] {
        let out = Command::new(exe)
            .arg(missing("report.json"))
            .output()
            .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
        assert_exit_2(&out, &format!("{name} on a missing file"), false);
        assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    }
}

#[test]
fn an_unknown_flag_still_prints_the_usage() {
    for (name, exe) in [
        ("gateway", env!("CARGO_BIN_EXE_gateway")),
        ("doctor", env!("CARGO_BIN_EXE_doctor")),
        ("postmortem", env!("CARGO_BIN_EXE_postmortem")),
    ] {
        let out = Command::new(exe)
            .arg("--no-such-flag")
            .env("COLORBARS_RESULTS_DIR", missing("results"))
            .output()
            .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
        assert_exit_2(&out, &format!("{name} --no-such-flag"), true);
    }
}
