//! The experiment binaries answer `--help` with their usage (exit 0)
//! and reject bad command lines with one line on stderr and exit
//! status 2 — never a panic and a backtrace. None of these cases runs
//! any experiment work.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn experiment binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn grid_help_prints_the_usage() {
    let out = run(env!("CARGO_BIN_EXE_grid"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: grid"));
}

#[test]
fn unknown_flags_exit_two_with_the_usage() {
    for bin in [env!("CARGO_BIN_EXE_grid"), env!("CARGO_BIN_EXE_faults")] {
        let out = run(bin, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let err = stderr(&out);
        assert!(err.contains("unknown argument \"--bogus\"") && err.contains("usage:"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
    // A missing or unparsable value is a usage error too.
    assert_eq!(run(env!("CARGO_BIN_EXE_grid"), &["--seeds"]).status.code(), Some(2));
    assert_eq!(run(env!("CARGO_BIN_EXE_grid"), &["--seeds", "many"]).status.code(), Some(2));
}

#[test]
fn duplicate_grid_axis_values_exit_two_with_one_line() {
    let args: Vec<&str> =
        "--algos luby,luby --families er --sizes 32 --seeds 1 --no-large".split(' ').collect();
    let out = run(env!("CARGO_BIN_EXE_grid"), &args);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "grid: algorithm \"luby\" is listed twice\n");
}

#[test]
fn unknown_experiment_ids_exit_two_listing_the_valid_ones() {
    let out = run(env!("CARGO_BIN_EXE_experiments"), &["e99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("valid: e1, e2, e3"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run before the IDs are checked");
}
