//! Batched seed-grid experiment runner: fans a cartesian grid of
//! `{algorithm × graph family × n × seed}` across OS threads and writes
//! the machine-readable `BENCH_grid.json` (schema
//! `awake-mis/bench-grid/v3`) plus a human-readable summary table.
//!
//! Run with `--help` for the flags. The `--algos` list takes registry
//! specs, so parameterized variants run without any code change:
//! `--algos 'awake?round_efficient=true'`, `--algos
//! 'ldt?strategy=round,vt?id_upper=1000000'` (quote the `?` for your
//! shell). `--list-algos` prints every registered key with its accepted
//! parameters. `--seeds K` runs seeds `1..=K`; `--threads 0` (default)
//! uses every hardware thread. The JSON payload (everything except the
//! `meta` object and the `timing` section) is byte-identical for any
//! thread count.
//!
//! The default invocation (no axis flags) additionally appends the
//! `large` tier: `luby` and `awake` on million-node ER graphs, run with
//! intra-run sharding (`--shards`, 0 = one shard per hardware thread).
//! Shards are an execution knob — the runner key and the payload are
//! byte-identical for any shard count. Pass `--no-large` to skip the
//! tier, or `--large` to force it alongside explicit axis flags. Tier
//! points also print their throughput (rounds/sec and node·rounds/sec).
//!
//! `--profile` attaches the engine's phase profiler to every runner
//! (equivalent to appending the execution-only `trace=profile` spec
//! param) and prints a per-algorithm phase breakdown — send/merge/
//! receive/bookkeeping wall-clock with p50/p95/max round times — after
//! the run. Tracing is observational: the JSON payload is byte-
//! identical with or without `--profile`.

use analysis::grid::{run_grid, GridMeta, GridSpec, GridTier};
use analysis::spec::default_registry;
use analysis::Table;
use bench::{with_profile, Args, Family};
use sleeping_congest::batch::resolve_threads;
use std::time::Instant;

const USAGE: &str = "\
usage: grid [--algos awake,luby,na,gp-avg] [--families er,rgg,ba,grid,tree]
            [--sizes 1000,10000,100000] [--seeds 8] [--threads 0]
            [--shards 0] [--large | --no-large] [--profile]
            [--out BENCH_grid.json] [--list-algos]";

fn main() {
    let registry = default_registry();
    // The default grid spans both awake measures: worst-case (awake,
    // luby) and node-averaged (na, gp-avg). Specs stay as strings until
    // after the arg loop so --profile can append its trace param.
    let mut algos_spec = String::from("awake,luby,na,gp-avg");
    let mut families = vec![Family::Er, Family::Rgg, Family::Ba, Family::Grid, Family::Tree];
    let mut sizes = vec![1_000usize, 10_000, 100_000];
    let mut seed_count = 8u64;
    let mut threads = 0usize;
    let mut shards = 0usize;
    let mut out_path = String::from("BENCH_grid.json");
    let mut explicit_axes = false;
    let mut large: Option<bool> = None;
    let mut profile = false;

    let mut args = Args::from_env("grid", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--algos" => {
                algos_spec = args.value();
                explicit_axes = true;
            }
            "--families" => {
                families = args.list(Family::parse);
                explicit_axes = true;
            }
            "--sizes" => {
                sizes = args.list(|s| s.parse().ok());
                explicit_axes = true;
            }
            "--seeds" => {
                seed_count = args.parse();
                explicit_axes = true;
            }
            "--threads" => threads = args.parse(),
            "--shards" => shards = args.parse(),
            "--large" => large = Some(true),
            "--no-large" => large = Some(false),
            "--profile" => profile = true,
            "--out" => out_path = args.value(),
            "--list-algos" => {
                println!("registered algorithm specs (grammar: key?param=value&…):\n");
                for (key, about) in registry.entries() {
                    println!("  {key:<12} {about}");
                }
                return;
            }
            _ => args.unknown(),
        }
    }

    let algorithms = registry
        .resolve_list(&with_profile(&algos_spec, profile))
        .unwrap_or_else(|e| args.fail(format_args!("--algos: {e}")));

    // The `large` tier rides along whenever the base axes are the
    // defaults (so the checked-in BENCH_grid.json carries it), and on
    // demand via --large. The `shards=` parameter never enters the
    // runner key, so the tier payload is byte-identical for any shard
    // count — sharding only decides how fast the points arrive.
    let tiers = if large.unwrap_or(!explicit_axes) {
        vec![GridTier {
            name: "large".to_string(),
            algorithms: registry
                .resolve_list(&with_profile(
                    &format!("luby?shards={shards},awake?shards={shards}"),
                    profile,
                ))
                .expect("large-tier specs"),
            families: vec![Family::Er],
            sizes: vec![1_000_000],
            seeds: vec![1, 2],
        }]
    } else {
        Vec::new()
    };
    let spec = GridSpec {
        algorithms,
        families,
        sizes,
        seeds: (1..=seed_count).collect(),
        tiers,
        threads,
    };
    if let Err(e) = spec.check_axes() {
        args.fail(e);
    }
    let jobs = spec.jobs().len();
    let threads_used = resolve_threads(spec.threads);
    println!("running {jobs} grid jobs over {threads_used} threads…");

    let start = Instant::now();
    let result = run_grid(&spec);
    let wall = start.elapsed();

    let mut t = Table::new(vec![
        "algorithm", "family", "n", "awake max (mean±std)", "awake avg", "awake p95", "gini",
        "rounds (mean)", "max bits", "ok",
    ]);
    for c in &result.cells {
        t.row(vec![
            c.algorithm.name().to_string(),
            c.family.name().to_string(),
            c.n.to_string(),
            format!("{:.1} ± {:.1}", c.awake_max.mean, c.awake_max.std),
            format!("{:.2}", c.awake_avg.mean),
            format!("{:.1}", c.awake_p95.mean),
            format!("{:.2}", c.awake_gini.mean),
            format!("{:.3e}", c.rounds.mean),
            c.max_message_bits.to_string(),
            if c.all_correct { "yes".into() } else { "NO".to_string() },
        ]);
    }
    print!("{}", t.render());

    // Tier points carry the engine-throughput story: how fast the
    // sharded round loop turns million-node rounds over.
    let base_points = spec.algorithms.len()
        * spec.families.len()
        * spec.sizes.len()
        * spec.seeds.len();
    let mut rest = &result.points[base_points.min(result.points.len())..];
    for tier in &spec.tiers {
        let count = tier.algorithms.len() * tier.families.len() * tier.sizes.len()
            * tier.seeds.len();
        let (segment, r) = rest.split_at(count.min(rest.len()));
        rest = r;
        for p in segment {
            let secs = p.elapsed_ns as f64 / 1e9;
            let rps = p.active_rounds as f64 / secs;
            println!(
                "[{}] {} {} n={} seed={}: {} active rounds in {:.2}s → {:.0} rounds/s, {:.3e} node·rounds/s",
                tier.name,
                p.job.algorithm.name(),
                p.job.family.name(),
                p.nodes,
                p.job.seed,
                p.active_rounds,
                secs,
                rps,
                p.nodes as f64 * rps,
            );
        }
    }

    // One aggregated phase breakdown per runner: the handle observed
    // every run of that runner across the grid.
    if profile {
        for runner in spec.algorithms.iter().chain(spec.tiers.iter().flat_map(|t| t.algorithms.iter())) {
            if let Some(report) = runner.trace().and_then(|h| h.report()) {
                println!("\n[profile] {}\n{}", runner.key(), report.trim_end());
            }
        }
    }

    let meta = GridMeta { threads: threads_used, wall_ms: wall.as_millis() };
    std::fs::write(&out_path, result.to_json(&meta)).expect("write grid JSON");
    let bad = result.points.iter().filter(|p| !p.correct).count();
    println!(
        "\nwrote {out_path}: {} points, {} cells, {} incorrect, {:.1}s wall",
        result.points.len(),
        result.cells.len(),
        bad,
        wall.as_secs_f64()
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
