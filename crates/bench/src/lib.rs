//! Shared helpers for the experiment binaries and the Criterion benches.
//!
//! The workload families moved down into [`graphgen::families`] so that
//! experiment grids can iterate generators at the graphs layer; `Family`
//! is re-exported here for the binaries and for backward compatibility.
//! [`json`] is the registry-free JSON reader behind the `bench-diff`
//! regression tool.
//!
//! The bench-trajectory pipeline lives here too: [`artifact`] is the
//! one reader for all four committed `BENCH_*.json` schemas (shared by
//! `bench-diff` and `bench-report`), [`history`] walks every committed
//! revision of an artifact out of git, [`trend`] builds per-cell
//! [`trend::TrendSeries`] with drift statistics and the multi-PR drift
//! gate, and [`report`] renders the series as CSV, ASCII sparklines,
//! and gnuplot scripts.
//!
//! [`Args`] and [`with_profile`] are the command-line plumbing every
//! experiment binary shares.

pub mod artifact;
pub mod history;
pub mod json;
pub mod report;
pub mod trend;

pub use graphgen::families::GraphFamily as Family;

use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

/// Command-line reading shared by the experiment binaries.
///
/// `--help` (or `-h`) prints the binary's usage and exits 0. An unknown
/// flag, a missing value or an unparsable value prints one line naming
/// the problem plus the usage and exits 2; [`Args::fail`] reports
/// invalid input found after parsing (a bad spec, a duplicate axis
/// value) as one line with the same exit status.
pub struct Args {
    bin: &'static str,
    usage: &'static str,
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// The process arguments of binary `bin`, whose `--help` text is
    /// `usage`.
    pub fn from_env(bin: &'static str, usage: &'static str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args { bin, usage, args: args.into_iter(), flag: String::new() }
    }

    /// The next flag, or `None` once the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        if self.flag == "--help" || self.flag == "-h" {
            println!("{}", self.usage);
            exit(0);
        }
        Some(self.flag.clone())
    }

    /// The current flag's value.
    pub fn value(&mut self) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.usage_error(&format!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr>(&mut self) -> T {
        let v = self.value();
        v.parse().unwrap_or_else(|_| self.usage_error(&format!("{}: bad value {v:?}", self.flag)))
    }

    /// The current flag's comma-separated value, each non-empty element
    /// parsed by `parse`.
    pub fn list<T>(&mut self, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
        let v = self.value();
        v.split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                let bad = || self.usage_error(&format!("{}: bad value {s:?}", self.flag));
                parse(s).unwrap_or_else(bad)
            })
            .collect()
    }

    /// Rejects the current flag as unknown.
    pub fn unknown(&self) -> ! {
        self.usage_error(&format!("unknown argument {:?}", self.flag))
    }

    /// Prints `msg` plus the usage to stderr and exits 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n\n{}", self.bin, self.usage);
        exit(2)
    }

    /// Prints `msg` as one line to stderr and exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.bin);
        exit(2)
    }
}

/// Appends the execution-only `trace=profile` param to every spec in a
/// comma-separated list (no-op when `profile` is off).
pub fn with_profile(specs: &str, profile: bool) -> String {
    if !profile {
        return specs.to_string();
    }
    specs
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| format!("{s}{}trace=profile", if s.contains('?') { '&' } else { '?' }))
        .collect::<Vec<_>>()
        .join(",")
}
