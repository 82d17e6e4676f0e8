//! Robustness-surface runner: sweeps fault-model knobs (`loss`,
//! `crash`, `jitter` — parameters every builtin accepts) over
//! `{fault level × family × n × seed}`, aggregates per-cell failure
//! rates and awake inflation against the clean baseline, and writes the
//! machine-readable `BENCH_faults.json` (schema
//! `awake-mis/bench-faults/v1`) plus a human-readable robustness table.
//!
//! Run with `--help` for the flags. Each `--spec` takes ONE sweep spec
//! (repeat the flag to add more); `--specs` takes a `;`-separated list
//! — `,` belongs to the level grammar (`loss=0,0.02,0.08`). Quote
//! `?`/`&` for your shell. Run with no arguments to reproduce the
//! committed `BENCH_faults.json`. The JSON payload (everything except
//! `meta` and `timing`) is byte-identical for any thread count, and the
//! `loss=0` levels are byte-identical to the fault-free grid's points.
//!
//! Unlike `grid` and `sweep`, incorrect runs do NOT exit nonzero here:
//! lossy levels are *supposed* to fail sometimes — that failure rate is
//! the measurement. Regressions are gated by `bench-diff` against the
//! committed surface instead.

use analysis::faults::{run_faults, FaultSweepSpec};
use analysis::sweep::expand;
use analysis::{default_registry, GridMeta, Table};
use bench::{Args, Family};
use sleeping_congest::batch::resolve_threads;
use std::time::Instant;

const USAGE: &str = "\
usage: faults [--spec SPEC]... [--specs 'SPEC;SPEC;…']
              [--families er,tree] [--sizes 256,1024] [--seeds 8]
              [--threads 0] [--out BENCH_faults.json]";

/// The default surface the committed `BENCH_faults.json` pins: three
/// loss levels (including the clean anchor) for the two headline
/// algorithms, plus a crash level, an adversarial-ID level, and a
/// delivery-jitter level, on a sparse and a dense family.
const DEFAULT_SPECS: [&str; 5] = [
    "awake?loss=0,0.02,0.08",
    "luby?loss=0,0.02,0.08",
    "luby?crash=0.002&crash_until=8",
    "vt?adv_ids=worst",
    "awake?jitter=16",
];

fn main() {
    let mut specs: Vec<String> = Vec::new();
    let mut families = vec![Family::Er, Family::Dense];
    let mut sizes = vec![256usize, 1024];
    let mut seed_count = 8u64;
    let mut threads = 0usize;
    let mut out_path = String::from("BENCH_faults.json");

    let mut args = Args::from_env("faults", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--spec" => specs.push(args.value()),
            "--specs" => specs.extend(
                args.value().split(';').filter(|s| !s.trim().is_empty()).map(str::to_string),
            ),
            "--families" => families = args.list(Family::parse),
            "--sizes" => sizes = args.list(|s| s.parse().ok()),
            "--seeds" => seed_count = args.parse(),
            "--threads" => threads = args.parse(),
            "--out" => out_path = args.value(),
            _ => args.unknown(),
        }
    }
    if specs.is_empty() {
        specs = DEFAULT_SPECS.iter().map(|s| s.to_string()).collect();
    }

    // Expand up front so a bad spec fails before any work runs.
    let registry = default_registry();
    let mut expanded_total = 0;
    for raw in &specs {
        let group = expand(registry, raw);
        let group = group.unwrap_or_else(|e| args.fail(format_args!("--spec {raw:?}: {e}")));
        expanded_total += group.runners.len();
    }

    let spec = FaultSweepSpec {
        specs,
        families,
        sizes,
        seeds: (1..=seed_count).collect(),
        threads,
    };
    let jobs = expanded_total * spec.families.len() * spec.sizes.len() * spec.seeds.len();
    let threads_used = resolve_threads(spec.threads);
    println!(
        "running {jobs} fault jobs ({expanded_total} fault levels) over {threads_used} threads…"
    );

    let start = Instant::now();
    let result = run_faults(&spec).unwrap_or_else(|e| args.fail(e));
    let wall = start.elapsed();

    let mut t = Table::new(vec![
        "fault level", "family", "n", "fail rate", "crashed", "dropped", "awake max",
        "awake infl", "rounds (mean)",
    ]);
    for c in &result.cells {
        t.row(vec![
            c.algorithm.key().to_string(),
            c.family.name().to_string(),
            c.n.to_string(),
            format!("{:.3}", c.failure_rate),
            c.crashed.to_string(),
            c.faulted.to_string(),
            format!("{:.1}", c.awake_max.mean),
            c.awake_inflation.map_or_else(|| "-".to_string(), |i| format!("{i:.2}×")),
            format!("{:.3e}", c.rounds.mean),
        ]);
    }
    print!("{}", t.render());

    let meta = GridMeta { threads: threads_used, wall_ms: wall.as_millis() };
    std::fs::write(&out_path, result.to_json(&meta)).expect("write faults JSON");
    let bad = result.points.iter().filter(|p| !p.correct).count();
    println!(
        "\nwrote {out_path}: {} points, {} cells, {} incorrect runs (expected under loss), {:.1}s wall",
        result.points.len(),
        result.cells.len(),
        bad,
        wall.as_secs_f64()
    );
}
