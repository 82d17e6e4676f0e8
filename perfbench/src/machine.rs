//! What a result was measured on: the machine fingerprint and the
//! process's peak resident memory.

use std::path::Path;
use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), in MB (2^20
/// bytes); 0 when `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `unknown`. `output()`
/// waits for the child, so nothing is left running.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace sources the benchmark builds (every file
/// under `crates/` and `perfbench/src/`, in path order). Identifies the
/// code when the checkout is not a git repository.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One `# machine …` report line: hardware threads, CPU model, compiler,
/// git revision (or `none` outside a repository), and a source hash.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = first_line("rustc", &["--version"]);
    let in_repo = Path::new(".git").exists();
    let rev = if in_repo {
        first_line("git", &["rev-parse", "HEAD"])
    } else {
        "none".to_string()
    };
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" git_rev={rev} source_fnv={:016x}",
        source_hash(Path::new("."))
    )
}
