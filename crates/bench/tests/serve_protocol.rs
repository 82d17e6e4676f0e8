//! The `serve --stdin` line protocol accepts well-formed batches and
//! rejects every command that carries a trailing token with exit
//! status 2, instead of silently ignoring the extra token.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `serve --stdin` on a small instance with `input` on stdin and
/// returns its exit code.
fn serve(input: &str) -> i32 {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdin", "--n", "200", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // The service may exit before reading everything; a broken pipe is
    // then expected and the exit status tells the story.
    let _ = child.stdin.take().expect("piped stdin").write_all(input.as_bytes());
    child.wait().expect("wait for serve").code().expect("exit code")
}

#[test]
fn well_formed_batch_exits_zero() {
    assert_eq!(serve("+e 0 5\n-e 0 1\n+n 2\n-n 7\n.\nstats\n+e 3 4\nflush\nquit\n"), 0);
}

#[test]
fn trailing_tokens_exit_two() {
    for line in ["+e 1 2 3", "-e 1 2 3", "+n 1 2", "-n 4 5", ". x", "flush x", "stats x", "quit x"]
    {
        assert_eq!(serve(&format!("{line}\n")), 2, "{line:?} must be rejected");
    }
}
