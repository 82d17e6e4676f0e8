//! The three workloads, each measured untraced (end-to-end metrics) or
//! traced (per-layer metrics).
//!
//! Inputs come from a pool of [`SLOTS`] seeded instances per workload:
//! `--seed` picks slot `seed % SLOTS`, and `fingerprints.txt` pins the
//! simulated counts of every slot. All inputs are generated outside the
//! timed windows; the program only ever receives them.
//!
//! Layer timings are taken around calls into each crate's public
//! functions: `graphgen` (generation, `DynGraph::apply`),
//! `sleeping-congest` (engine phases, through the registry's
//! `trace=profile` sink), `awake-mis-core` (`check_mis_survivors`, the
//! repair's own timers) and `analysis` (runners, `run_grid`,
//! `MisService`).

use crate::fingerprint::{Counts, Fingerprint};
use crate::machine::peak_rss_mb;
use crate::profile::PhaseTotals;
use crate::stats::{median, mix, tail, Verdict};
use analysis::churn::{random_batch, MisService};
use analysis::grid::{run_grid, GridMeta, GridPoint, GridResult, GridSpec};
use analysis::spec::default_registry;
use analysis::{AlgoResult, RunnerHandle};
use awake_mis_core::{check_mis_survivors, MisState};
use graphgen::{DynGraph, Graph, GraphFamily};
use sleeping_congest::{run_batch, ScratchArena};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["grid-mixed", "oneshot-1m", "serve-trickle"];

/// Size of each workload's input pool.
pub const SLOTS: u64 = 10;

/// End-to-end metrics (untraced run): name and unit. Every workload
/// reports every one. The timed operation is a grid run on
/// `grid-mixed`, a luby + awake pair on `oneshot-1m`, and a delta batch
/// on `serve-trickle`; `ops_per_s` counts grid runs, pairs, and effective
/// deltas.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics (traced run): name and unit. A layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("graphgen.generate_ms", "ms"),
    ("graphgen.apply_ms", "ms"),
    ("graphgen.effective_ops", "count"),
    ("sim.send_ms", "ms"),
    ("sim.merge_ms", "ms"),
    ("sim.receive_ms", "ms"),
    ("sim.bookkeeping_ms", "ms"),
    ("sim.setup_ms", "ms"),
    ("sim.active_rounds", "count"),
    ("sim.awake_node_rounds", "count"),
    ("sim.messages", "count"),
    ("sim.delivered_ratio", "ratio"),
    ("sim.arena_peak_mib", "MiB"),
    ("sim.batch_idle_frac", "ratio"),
    ("core.verify_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("core.repair_verify_ms", "ms"),
    ("core.repair_solve_ms", "ms"),
    ("core.frontier", "count"),
    ("core.woken", "count"),
    ("core.woken_ratio", "ratio"),
    ("core.retries", "count"),
    ("analysis.bootstrap_ms", "ms"),
    ("analysis.apply_ms", "ms"),
    ("analysis.diff_ms", "ms"),
    ("analysis.runner_ms.awake", "ms"),
    ("analysis.runner_ms.awake-round", "ms"),
    ("analysis.runner_ms.luby", "ms"),
    ("analysis.runner_ms.na", "ms"),
    ("analysis.runner_ms.gp-avg", "ms"),
    ("analysis.runner_ms.le", "ms"),
    ("analysis.grid_json_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics computed from other measurements rather than timed
/// directly.
pub const DERIVED: [&str; 4] = [
    "sim.setup_ms",
    "core.repair_solve_ms",
    "analysis.diff_ms",
    "trace.overhead_pct",
];

/// Algorithms of the `grid-mixed` grid, as registry specs.
const GRID_ALGOS: [&str; 6] = ["awake", "awake-round", "luby", "na", "gp-avg", "le"];

/// Graph families of the `grid-mixed` grid.
const GRID_FAMILIES: [&str; 3] = ["er", "rgg", "ba"];

/// `run_grid` worker threads. One-shot and serve runners use the serial
/// engine (`shards=1`): on a 2-core machine shared with other load,
/// barrier-synchronized sharded rounds were both slower and twice as
/// noisy.
const GRID_THREADS: usize = 2;

/// Edge insertions among a serve batch's edge operations.
const INSERT_FRAC: f64 = 0.5;

/// Share of serve operations that add or remove nodes: none.
const NODE_CHURN: f64 = 0.0;

/// The shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A batch job: `analysis::grid::run_grid` over every protocol
    /// family and three graph families, two seeds each.
    Grid,
    /// One `luby` and one `awake` run on one `er` graph.
    Oneshot,
    /// A closed loop with one client: `MisService` bootstrapped with
    /// `luby` on `er`, then batches of `ops` edge operations without node
    /// churn, the next sent only after the MIS delta returns.
    Serve {
        /// Operations per batch.
        ops: usize,
    },
}

/// A workload: its shape and sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, one of [`NAMES`].
    pub name: &'static str,
    /// What it runs.
    pub shape: Shape,
    /// Node count.
    pub n: usize,
    /// Serve batches covered by the fingerprint.
    pub fp_batches: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Nominal seconds of one timed unit (a grid, a luby + awake pair, a
    /// batch) on a 2-core machine; the grid's lies between the 3.8 s and
    /// 7.6 s a grid took on one shared host at different times.
    pub unit_s: f64,
    /// Fewest timed units in a run.
    pub min_units: usize,
}

impl Workload {
    /// The workload named `name`, at full size.
    pub fn by_name(name: &str) -> Option<Workload> {
        // Enough set-ups that about 4 s or more of them accumulate (six
        // n=1e5 graphs take ~0.5 s, an n=1e6 graph ~0.5-0.8 s, a serve
        // generation + bootstrap ~3.3 s), so their median is not one
        // short, noisy sample.
        let (shape, n, setup_reps, unit_s, min_units) = match name {
            "grid-mixed" => (Shape::Grid, 100_000, 9, 6.0, 1),
            "oneshot-1m" => (Shape::Oneshot, 1_000_000, 9, 12.0, 2),
            "serve-trickle" => (Shape::Serve { ops: 2_000 }, 1_000_000, 2, 0.2, FP_BATCHES),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|&w| w == name)?;
        Some(Workload {
            name,
            shape,
            n,
            fp_batches: FP_BATCHES,
            setup_reps,
            unit_s,
            min_units,
        })
    }

    /// Timed units of a run measuring `seconds`: `seconds / unit_s`
    /// rounded, at least `min_units`. The count does not depend on the
    /// machine's speed, so every run of a workload times the same work
    /// and takes its tail at the same percentile; a slow machine runs
    /// longer.
    pub fn units(&self, seconds: f64) -> usize {
        ((seconds / self.unit_s).round() as usize).max(self.min_units)
    }
}

/// Serve batches covered by the fingerprint; a serve run does at least
/// these.
const FP_BATCHES: usize = 20;

/// Instance seed of input `slot`.
fn instance_seed(slot: u64) -> u64 {
    1_000 + slot
}

/// How a run is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Measuring time of the run, seconds: it fixes the count of timed
    /// units ([`Workload::units`]).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Take one set-up only, whatever the workload's `setup_reps`.
    pub single_setup: bool,
}

impl Settings {
    fn setup_reps(&self, w: &Workload) -> usize {
        if self.single_setup || self.trace {
            1
        } else {
            w.setup_reps
        }
    }
}

/// Set-ups taken before timed unit `i` of `units` (`i == units`: after
/// the last): `reps` of them spread evenly over the run, so that their
/// median spans the same stretch of the machine's drift as the timed
/// units do rather than its first seconds only.
fn setups_before(i: usize, units: usize, reps: usize) -> usize {
    let slots = units + 1;
    reps * (i + 1) / slots - reps * i / slots
}

/// What the fingerprint is checked against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pin {
    /// The committed pin of this input.
    Expect(Fingerprint),
    /// No pin is committed for this input: the check fails.
    Missing,
    /// Not checked (pin generation and tests at other sizes).
    Unchecked,
}

impl Pin {
    fn admits(&self, fp: &Fingerprint) -> bool {
        match self {
            Pin::Expect(e) => e == fp,
            Pin::Missing => false,
            Pin::Unchecked => true,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Operations attempted and failed.
    pub verdict: Verdict,
    /// Fingerprint of the simulated counts (of the untraced pass).
    pub fingerprint: Fingerprint,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// Runs `w` on input `slot`.
pub fn run(w: &Workload, slot: u64, s: &Settings, pin: Pin) -> Run {
    match w.shape {
        Shape::Grid => grid(w, slot, s, pin),
        Shape::Oneshot => oneshot(w, slot, s, pin),
        Shape::Serve { ops } => serve(w, slot, s, pin, ops),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

fn family(key: &str) -> GraphFamily {
    GraphFamily::parse(key).expect("built-in graph family")
}

fn resolve(spec: &str) -> RunnerHandle {
    default_registry()
        .resolve(spec)
        .expect("built-in algorithm spec")
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Counts of a one-shot run.
fn run_counts(r: &AlgoResult) -> Counts {
    Counts {
        awake_max: r.awake_max,
        awake_total: r.metrics.awake_total(),
        rounds: r.rounds,
        messages: r.messages,
        mis_size: r.mis_size as u64,
        ..Counts::default()
    }
}

/// Whether a one-shot run's MIS verifies, re-checked from outside.
fn run_ok(g: &Graph, r: &AlgoResult) -> bool {
    r.correct && check_mis_survivors(g, &r.states, &r.metrics.alive()).is_ok()
}

/// Per-layer values, reported in [`PER_LAYER`] order, 0 where unset.
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, v);
    }

    fn engine(&mut self, p: &PhaseTotals, messages: u64) {
        self.set("sim.send_ms", p.send_ns / 1e6);
        self.set("sim.merge_ms", p.merge_ns / 1e6);
        self.set("sim.receive_ms", p.receive_ns / 1e6);
        self.set("sim.bookkeeping_ms", p.bookkeeping_ns / 1e6);
        self.set("sim.active_rounds", p.active_rounds as f64);
        self.set("sim.awake_node_rounds", p.awake_total as f64);
        self.set("sim.messages", messages as f64);
        self.set("sim.delivered_ratio", p.delivered_ratio());
        self.set("sim.arena_peak_mib", p.arena_peak_bytes / (1024.0 * 1024.0));
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// End-to-end metrics in [`END_TO_END`] order, plus the set-up and tail
/// notes.
fn end_to_end(
    setup_s: &[f64],
    ops_per_s: f64,
    op_ms: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    notes.push(format!(
        "setup_s is the median of {} set-ups, in run order: {} s",
        setup_s.len(),
        each.join(" ")
    ));
    let t = tail(op_ms);
    notes.push(format!(
        "op_tail_ms is the {} operation latencies",
        t.label()
    ));
    let values = [
        median(setup_s),
        peak_rss_mb(),
        ops_per_s,
        median(op_ms),
        t.value,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Assembles a run: the fingerprint must match the pin in every pass.
fn finish(
    attempted: u64,
    failed: u64,
    passes: &[Fingerprint],
    pin: Pin,
    metrics: Vec<Metric>,
    mut notes: Vec<String>,
) -> Run {
    let fingerprint = passes[0];
    let fingerprint_ok = passes.iter().all(|fp| *fp == fingerprint && pin.admits(fp));
    let verdict = Verdict::new(attempted, failed, fingerprint_ok);
    notes.push(format!("fingerprint {fingerprint} match={fingerprint_ok}"));
    notes.push(format!(
        "error_rate = {} ratio ({} failed of {} attempted)",
        verdict.error_rate(),
        verdict.failed,
        verdict.attempted
    ));
    Run {
        verdict,
        fingerprint,
        metrics,
        notes,
    }
}

// ---------------------------------------------------------------------------
// grid-mixed
// ---------------------------------------------------------------------------

fn grid_spec(w: &Workload, slot: u64) -> GridSpec {
    let base = instance_seed(slot) * 2;
    GridSpec {
        algorithms: GRID_ALGOS.iter().map(|a| resolve(a)).collect(),
        families: GRID_FAMILIES.iter().map(|f| family(f)).collect(),
        sizes: vec![w.n],
        seeds: vec![base, base + 1],
        tiers: Vec::new(),
        threads: GRID_THREADS,
    }
}

fn point_counts(p: &GridPoint) -> Counts {
    Counts {
        awake_max: p.awake_max,
        awake_total: (p.awake_avg * p.nodes as f64).round() as u64,
        rounds: p.rounds,
        messages: p.messages,
        mis_size: p.mis_size as u64,
        ..Counts::default()
    }
}

/// Generates every distinct instance of the grid once; returns seconds.
fn grid_generation(spec: &GridSpec) -> f64 {
    let t = Instant::now();
    for f in &spec.families {
        for &seed in &spec.seeds {
            std::hint::black_box(f.generate(spec.sizes[0], seed));
        }
    }
    secs(t)
}

/// One untraced grid: the result, its wall seconds, and its fingerprint.
fn grid_once(spec: &GridSpec) -> (GridResult, f64, Fingerprint) {
    let t = Instant::now();
    let result = run_grid(spec);
    let wall = secs(t);
    let mut fp = Fingerprint::default();
    for p in &result.points {
        fp.add(&point_counts(p));
    }
    (result, wall, fp)
}

fn grid_failures(r: &GridResult) -> u64 {
    r.points
        .iter()
        .filter(|p| !p.correct || p.sim_error.is_some())
        .count() as u64
}

fn grid(w: &Workload, slot: u64, s: &Settings, pin: Pin) -> Run {
    let spec = grid_spec(w, slot);
    let mut notes = Vec::new();
    if s.trace {
        return grid_traced(&spec, pin);
    }
    let (units, reps) = (w.units(s.seconds), s.setup_reps(w));
    let mut setup = Vec::new();
    let (mut walls, mut point_ms, mut passes, mut failed, mut busy) =
        (Vec::new(), Vec::new(), Vec::new(), 0, 0.0);
    for i in 0..units {
        setup.extend((0..setups_before(i, units, reps)).map(|_| grid_generation(&spec)));
        let (result, wall, fp) = grid_once(&spec);
        failed += grid_failures(&result);
        point_ms.extend(result.points.iter().map(|p| p.elapsed_ns as f64 / 1e6));
        busy += grid_busy(&result);
        walls.push(wall);
        passes.push(fp);
    }
    setup.extend((0..setups_before(units, units, reps)).map(|_| grid_generation(&spec)));
    let wall: f64 = walls.iter().sum();
    let runs_per_s = point_ms.len() as f64 / wall;
    notes.push(format!(
        "grid_runs_per_s = {runs_per_s:.4} 1/s ({} grids)",
        walls.len()
    ));
    notes.push(format!(
        "batch_idle_frac = {:.4} ratio",
        1.0 - busy / (GRID_THREADS as f64 * wall)
    ));
    let metrics = end_to_end(&setup, runs_per_s, &point_ms, &mut notes);
    finish(point_ms.len() as u64, failed, &passes, pin, metrics, notes)
}

/// What one traced grid job measured.
struct JobTrace {
    algo: usize,
    generate_s: f64,
    run_s: f64,
    verify_s: f64,
    ok: bool,
    counts: Counts,
    profile: PhaseTotals,
}

/// Runs `spec`'s jobs like `run_grid` does (same fan-out, per-worker
/// scratch) but calls generation and the runner separately, each job
/// with its own `trace=profile` runner so no two runs share a sink.
fn grid_traced_pass(spec: &GridSpec) -> Vec<JobTrace> {
    let jobs = spec.jobs();
    run_batch(
        &jobs,
        spec.threads,
        |_| ScratchArena::new(),
        |scratch, _, job| {
            let algo = GRID_ALGOS
                .iter()
                .position(|&a| a == job.algorithm.key())
                .expect("grid algorithm");
            let t = Instant::now();
            let g = job.family.generate(job.n, job.seed);
            let generate_s = secs(t);
            let runner = resolve(&format!("{}?trace=profile", GRID_ALGOS[algo]));
            let t = Instant::now();
            let res = runner.run_with_scratch(&g, job.seed, scratch);
            let run_s = secs(t);
            let t = Instant::now();
            let ok = res.as_ref().is_ok_and(|r| run_ok(&g, r));
            let verify_s = secs(t);
            let profile = runner
                .trace()
                .and_then(|h| h.report())
                .and_then(|r| PhaseTotals::parse(&r))
                .unwrap_or_default();
            let counts = res.as_ref().map(run_counts).unwrap_or_default();
            JobTrace {
                algo,
                generate_s,
                run_s,
                verify_s,
                ok,
                counts,
                profile,
            }
        },
    )
}

/// Seconds of point time (generation + run) summed over a grid.
fn grid_busy(r: &GridResult) -> f64 {
    r.points.iter().map(|p| p.elapsed_ns as f64 / 1e9).sum()
}

/// The traced unit runs between two untraced grids: the first warms the
/// process up (first-touch allocation, caches), and the overhead compares
/// the traced grid with the second, which runs as warm.
fn grid_traced(spec: &GridSpec, pin: Pin) -> Run {
    let mut layers = Layers::default();
    let (before, wall, before_fp) = grid_once(spec);
    let meta = GridMeta {
        threads: GRID_THREADS,
        wall_ms: (wall * 1e3) as u128,
    };
    let t = Instant::now();
    std::hint::black_box(before.to_json(&meta));
    layers.set("analysis.grid_json_ms", secs(t) * 1e3);

    let traces = grid_traced_pass(spec);
    let (after, after_wall, after_fp) = grid_once(spec);
    let busy = grid_busy(&before) + grid_busy(&after);
    layers.set(
        "sim.batch_idle_frac",
        1.0 - busy / (GRID_THREADS as f64 * (wall + after_wall)),
    );
    let mut fp = Fingerprint::default();
    let mut profile = PhaseTotals::default();
    let mut runner_s = [0.0; GRID_ALGOS.len()];
    let (mut generate_s, mut run_s, mut verify_s, mut messages, mut failed) = (0.0, 0.0, 0.0, 0, 0);
    for t in &traces {
        fp.add(&t.counts);
        profile.absorb(&t.profile);
        runner_s[t.algo] += t.run_s;
        generate_s += t.generate_s;
        run_s += t.run_s;
        verify_s += t.verify_s;
        messages += t.counts.messages;
        failed += u64::from(!t.ok);
    }
    layers.engine(&profile, messages);
    layers.set("graphgen.generate_ms", generate_s * 1e3);
    layers.set("core.verify_ms", verify_s * 1e3);
    layers.set(
        "sim.setup_ms",
        (run_s * 1e9 - profile.phases_ns() - verify_s * 1e9) / 1e6,
    );
    for (i, name) in [
        "analysis.runner_ms.awake",
        "analysis.runner_ms.awake-round",
        "analysis.runner_ms.luby",
        "analysis.runner_ms.na",
        "analysis.runner_ms.gp-avg",
        "analysis.runner_ms.le",
    ]
    .into_iter()
    .enumerate()
    {
        layers.set(name, runner_s[i] * 1e3);
    }
    layers.set(
        "trace.overhead_pct",
        ((generate_s + run_s) / grid_busy(&after) - 1.0) * 100.0,
    );
    let attempted = (before.points.len() + traces.len() + after.points.len()) as u64;
    let failed = failed + grid_failures(&before) + grid_failures(&after);
    let notes = vec![format!(
        "traced grid of {} runs between two untraced ones",
        traces.len()
    )];
    finish(
        attempted,
        failed,
        &[before_fp, fp, after_fp],
        pin,
        layers.metrics(),
        notes,
    )
}

// ---------------------------------------------------------------------------
// oneshot-1m
// ---------------------------------------------------------------------------

const ONESHOT_ALGOS: [&str; 2] = ["luby", "awake"];

/// One luby + awake pair on `g`: per-run seconds, counts, failures, and
/// (traced) external verify seconds and engine totals.
struct Pair {
    run_s: [f64; 2],
    verify_s: f64,
    fp: Fingerprint,
    failed: u64,
    profile: PhaseTotals,
    messages: u64,
}

fn oneshot_pair(g: &Graph, seed: u64, trace: bool, scratch: &mut ScratchArena) -> Pair {
    let mut pair = Pair {
        run_s: [0.0; 2],
        verify_s: 0.0,
        fp: Fingerprint::default(),
        failed: 0,
        profile: PhaseTotals::default(),
        messages: 0,
    };
    for (i, algo) in ONESHOT_ALGOS.iter().enumerate() {
        let traced = if trace { "?trace=profile" } else { "" };
        let runner = resolve(&format!("{algo}{traced}"));
        let t = Instant::now();
        let res = runner.run_with_scratch(g, seed, scratch);
        pair.run_s[i] = secs(t);
        let t = Instant::now();
        let ok = res.as_ref().is_ok_and(|r| run_ok(g, r));
        pair.verify_s += secs(t);
        pair.failed += u64::from(!ok);
        let counts = res.as_ref().map(run_counts).unwrap_or_default();
        pair.messages += counts.messages;
        pair.fp.add(&counts);
        if let Some(p) = runner
            .trace()
            .and_then(|h| h.report())
            .and_then(|r| PhaseTotals::parse(&r))
        {
            pair.profile.absorb(&p);
        }
    }
    pair
}

fn oneshot(w: &Workload, slot: u64, s: &Settings, pin: Pin) -> Run {
    let er = family("er");
    let seed = instance_seed(slot);
    let mut scratch = ScratchArena::new();
    let mut notes = Vec::new();
    let mut setup = Vec::new();
    let mut g = None;
    // Regenerates the graph `k` times in place, never two at once.
    let mut regenerate = |g: &mut Option<Graph>, k: usize| {
        for _ in 0..k {
            drop(g.take());
            let t = Instant::now();
            *g = Some(er.generate(w.n, seed));
            setup.push(secs(t));
        }
    };
    if s.trace {
        regenerate(&mut g, 1);
        let g = g.expect("generated");
        // Traced between two untraced pairs: the first warms the process
        // up (it ran seconds slower than the others), and the overhead
        // compares the traced pair with the second, which runs as warm.
        let before = oneshot_pair(&g, seed, false, &mut scratch);
        let traced = oneshot_pair(&g, seed, true, &mut scratch);
        let after = oneshot_pair(&g, seed, false, &mut scratch);
        let plain_s: f64 = after.run_s.iter().sum();
        let mut layers = Layers::default();
        layers.engine(&traced.profile, traced.messages);
        let run_s: f64 = traced.run_s.iter().sum();
        layers.set("graphgen.generate_ms", setup[0] * 1e3);
        layers.set("core.verify_ms", traced.verify_s * 1e3);
        layers.set(
            "sim.setup_ms",
            (run_s * 1e9 - traced.profile.phases_ns() - traced.verify_s * 1e9) / 1e6,
        );
        layers.set("analysis.runner_ms.luby", traced.run_s[0] * 1e3);
        layers.set("analysis.runner_ms.awake", traced.run_s[1] * 1e3);
        layers.set("trace.overhead_pct", (run_s / plain_s - 1.0) * 100.0);
        notes.push(format!(
            "traced luby + awake pair {:.3} s between untraced ones of {:.3} s and {:.3} s",
            run_s,
            before.run_s.iter().sum::<f64>(),
            after.run_s.iter().sum::<f64>()
        ));
        return finish(
            6,
            before.failed + traced.failed + after.failed,
            &[before.fp, traced.fp, after.fp],
            pin,
            layers.metrics(),
            notes,
        );
    }
    // An untimed pair first, as in the traced run: the first pair of a
    // process pays first-touch allocation and scratch growth, and would
    // otherwise be the tail of every run.
    let (pairs, reps) = (w.units(s.seconds) + 1, s.setup_reps(w));
    let (mut runs, mut passes, mut failed) = ([Vec::new(), Vec::new()], Vec::new(), 0);
    let mut warm_s = 0.0;
    for i in 0..pairs {
        let k = setups_before(i, pairs, reps).max(usize::from(g.is_none()));
        regenerate(&mut g, k);
        let pair = oneshot_pair(g.as_ref().expect("generated"), seed, false, &mut scratch);
        failed += pair.failed;
        passes.push(pair.fp);
        if i == 0 {
            warm_s = pair.run_s.iter().sum();
            continue;
        }
        for (run, secs) in runs.iter_mut().zip(pair.run_s) {
            run.push(secs);
        }
    }
    regenerate(&mut g, setups_before(pairs, pairs, reps));
    // The timed operation is the pair: a single awake run is too long
    // and too noisy to take a tail over alone.
    let op_ms: Vec<f64> = runs[0]
        .iter()
        .zip(&runs[1])
        .map(|(l, a)| (l + a) * 1e3)
        .collect();
    let measured: f64 = op_ms.iter().sum::<f64>() / 1e3;
    notes.push(format!(
        "untimed warm-up pair {warm_s:.3} s, then {} timed pairs",
        op_ms.len()
    ));
    notes.push(format!(
        "luby_run_s = {:.4} s (median of {})",
        median(&runs[0]),
        runs[0].len()
    ));
    notes.push(format!(
        "awake_run_s = {:.4} s (median of {})",
        median(&runs[1]),
        runs[1].len()
    ));
    let metrics = end_to_end(&setup, op_ms.len() as f64 / measured, &op_ms, &mut notes);
    finish(
        2 * passes.len() as u64,
        failed,
        &passes,
        pin,
        metrics,
        notes,
    )
}

// ---------------------------------------------------------------------------
// serve-trickle
// ---------------------------------------------------------------------------

/// The client's view of the MIS, kept only from the MIS deltas the
/// service returns.
struct Client {
    in_mis: Vec<bool>,
}

impl Client {
    fn new(states: &[MisState]) -> Client {
        Client {
            in_mis: states.iter().map(|&s| s == MisState::InMis).collect(),
        }
    }

    /// Applies one MIS delta; false if it joins a member or drops a
    /// non-member.
    fn apply(&mut self, n: usize, joined: &[u32], left: &[u32]) -> bool {
        self.in_mis.resize(n, false);
        let mut ok = true;
        for &v in joined {
            ok &= !std::mem::replace(&mut self.in_mis[v as usize], true);
        }
        for &v in left {
            ok &= std::mem::replace(&mut self.in_mis[v as usize], false);
        }
        ok
    }

    /// Whether the client's MIS equals the service's.
    fn agrees(&self, svc: &MisService) -> bool {
        let d = svc.graph();
        self.in_mis.len() == d.n()
            && svc
                .states()
                .iter()
                .enumerate()
                .all(|(v, &s)| (s == MisState::InMis && d.is_active(v as u32)) == self.in_mis[v])
    }
}

/// Per-batch measurements of one serve pass.
#[derive(Default)]
struct ServePass {
    setup_s: Vec<f64>,
    generate_s: f64,
    bootstrap_s: f64,
    batch_s: Vec<f64>,
    deltas: u64,
    fp: Fingerprint,
    attempted: u64,
    failed: u64,
    check_s: Vec<f64>,
    replica_s: Vec<f64>,
    effective_ops: Vec<f64>,
    repair_s: Vec<f64>,
    repair_verify_s: Vec<f64>,
    diff_s: Vec<f64>,
    frontier: Vec<f64>,
    woken: u64,
    active: u64,
    retries: u64,
    messages: u64,
    profile: PhaseTotals,
}

struct ServeRun<'a> {
    w: &'a Workload,
    seed: u64,
    ops: usize,
}

impl ServeRun<'_> {
    /// Boots `reps` services in turn (keeping the last), then serves
    /// `batches` batches.
    fn pass(&self, reps: usize, batches: usize, trace: bool) -> ServePass {
        let mut p = ServePass::default();
        let mut scratch = ScratchArena::new();
        let spec = if trace { "luby?trace=profile" } else { "luby" };
        let mut booted = None;
        for _ in 0..reps.max(1) {
            drop(booted.take());
            let t = Instant::now();
            let g = family("er").generate(self.w.n, self.seed);
            p.generate_s = secs(t);
            let replica = trace.then(|| DynGraph::new(g.clone()));
            let runner = resolve(spec);
            let t0 = Instant::now();
            let boot = MisService::bootstrap(runner.clone(), g, self.seed, &mut scratch);
            p.bootstrap_s = secs(t0);
            p.setup_s.push(secs(t));
            booted = Some((boot, replica, runner));
        }
        let (boot, mut replica, runner) = booted.expect("at least one set-up");
        let (mut svc, r) = match boot {
            Ok(ok) => ok,
            Err(_) => {
                p.attempted = 1;
                p.failed = 1;
                return p;
            }
        };
        p.attempted += 1;
        let boot_ok = run_ok(svc.graph().graph(), &r);
        p.failed += u64::from(!boot_ok);
        p.fp.add(&run_counts(&r));
        p.messages += r.messages;
        let mut client = Client::new(svc.states());
        for i in 0..batches {
            let batch = random_batch(
                svc.graph(),
                self.ops,
                INSERT_FRAC,
                NODE_CHURN,
                mix(self.seed, i as u64),
            );
            if let Some(rep) = replica.as_mut() {
                let t = Instant::now();
                let applied = rep.apply(&batch);
                p.replica_s.push(secs(t));
                p.effective_ops.push(applied.map_or(0, |a| a.ops()) as f64);
            }
            let t = Instant::now();
            let res = svc.apply(&batch, &mut scratch);
            let batch_s = secs(t);
            p.batch_s.push(batch_s);
            p.attempted += 1;
            let Ok(report) = res else {
                p.failed += 1;
                continue;
            };
            let t = Instant::now();
            let d = svc.graph();
            let checked = check_mis_survivors(d.graph(), svc.states(), d.active()).is_ok();
            p.check_s.push(secs(t));
            let replayed = client.apply(d.n(), &report.joined, &report.left);
            p.failed += u64::from(!(report.correct && checked && replayed));
            p.deltas += report.deltas;
            p.active += d.active_count() as u64;
            p.woken += report.woken;
            p.retries += report.retries;
            p.messages += report.messages;
            p.frontier.push(report.frontier as f64);
            p.repair_s.push(report.repair_ns as f64 / 1e9);
            p.repair_verify_s.push(report.verify_ns as f64 / 1e9);
            if let Some(&rep_s) = p.replica_s.last() {
                p.diff_s
                    .push(batch_s - rep_s - report.repair_ns as f64 / 1e9);
            }
            if i < self.w.fp_batches {
                p.fp.add(&Counts {
                    awake_max: report.awake_max,
                    awake_total: report.awake_total,
                    rounds: report.repair_rounds,
                    messages: report.messages,
                    mis_size: svc.mis_size() as u64,
                    woken: report.woken,
                    frontier: report.frontier,
                });
            }
        }
        if !client.agrees(&svc) {
            p.failed += 1;
        }
        if let Some(totals) = runner
            .trace()
            .and_then(|h| h.report())
            .and_then(|r| PhaseTotals::parse(&r))
        {
            p.profile = totals;
        }
        p
    }
}

fn ms_median(xs: &[f64]) -> f64 {
    median(xs) * 1e3
}

fn serve(w: &Workload, slot: u64, s: &Settings, pin: Pin, ops: usize) -> Run {
    let sr = ServeRun {
        w,
        seed: instance_seed(slot),
        ops,
    };
    let mut notes = Vec::new();
    if s.trace {
        // The run's batches split between an untraced and a traced
        // service, so a traced run is as long as an untraced one.
        let batches = w.units(s.seconds / 2.0);
        let plain = sr.pass(1, batches, false);
        let t = sr.pass(1, batches, true);
        let mut layers = Layers::default();
        layers.engine(&t.profile, t.messages);
        layers.set("graphgen.generate_ms", t.generate_s * 1e3);
        layers.set("graphgen.apply_ms", ms_median(&t.replica_s));
        layers.set("graphgen.effective_ops", median(&t.effective_ops));
        layers.set("core.verify_ms", ms_median(&t.check_s));
        layers.set("core.repair_ms", ms_median(&t.repair_s));
        layers.set("core.repair_verify_ms", ms_median(&t.repair_verify_s));
        let solve: Vec<f64> = t
            .repair_s
            .iter()
            .zip(&t.repair_verify_s)
            .map(|(r, v)| r - v)
            .collect();
        layers.set("core.repair_solve_ms", ms_median(&solve));
        layers.set("core.frontier", median(&t.frontier));
        layers.set("core.woken", t.woken as f64 / t.batch_s.len().max(1) as f64);
        layers.set("core.woken_ratio", t.woken as f64 / t.active.max(1) as f64);
        layers.set("core.retries", t.retries as f64);
        layers.set("analysis.bootstrap_ms", t.bootstrap_s * 1e3);
        layers.set("analysis.apply_ms", ms_median(&t.batch_s));
        layers.set("analysis.diff_ms", ms_median(&t.diff_s));
        layers.set(
            "trace.overhead_pct",
            (median(&t.batch_s) / median(&plain.batch_s) - 1.0) * 100.0,
        );
        notes.push(format!(
            "traced serve of {} batches beside an untraced one",
            t.batch_s.len()
        ));
        let attempted = plain.attempted + t.attempted;
        return finish(
            attempted,
            plain.failed + t.failed,
            &[plain.fp, t.fp],
            pin,
            layers.metrics(),
            notes,
        );
    }
    let p = sr.pass(s.setup_reps(w), w.units(s.seconds), false);
    let op_ms: Vec<f64> = p.batch_s.iter().map(|s| s * 1e3).collect();
    let measured: f64 = p.batch_s.iter().sum();
    let deltas_per_s = p.deltas as f64 / measured;
    notes.push(format!(
        "deltas_per_s = {deltas_per_s:.1} 1/s ({} deltas, {} batches)",
        p.deltas,
        op_ms.len()
    ));
    notes.push(format!("batch_p50_ms = {:.3} ms", median(&op_ms)));
    notes.push(format!(
        "batch_tail_ms = {:.3} ms ({})",
        tail(&op_ms).value,
        tail(&op_ms).label()
    ));
    let metrics = end_to_end(&p.setup_s, deltas_per_s, &op_ms, &mut notes);
    finish(p.attempted, p.failed, &[p.fp], pin, metrics, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Workload {
        let mut w = Workload::by_name(name).expect("known workload");
        w.n = match w.shape {
            Shape::Grid => 400,
            _ => 3_000,
        };
        if let Shape::Serve { ops } = w.shape {
            w.shape = Shape::Serve { ops: ops / 100 };
        }
        w.fp_batches = 4;
        w.min_units = match w.shape {
            Shape::Serve { .. } => w.fp_batches,
            _ => w.min_units,
        };
        w
    }

    fn settings(trace: bool) -> Settings {
        Settings {
            seconds: 0.01,
            trace,
            single_setup: false,
        }
    }

    /// Every workload runs at a tiny size, verifies, reports every
    /// metric, and the traced run reproduces the untraced fingerprint.
    #[test]
    fn smoke_every_workload() {
        for name in NAMES {
            let w = tiny(name);
            let plain = run(&w, 3, &settings(false), Pin::Unchecked);
            assert!(plain.verdict.correct(), "{name}: {:?}", plain.notes);
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|(n, _)| n), "{name}");
            assert!(
                plain
                    .metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{name}: {:?}",
                plain.metrics
            );
            let traced = run(&w, 3, &settings(true), Pin::Expect(plain.fingerprint));
            assert!(traced.verdict.correct(), "{name}: {:?}", traced.notes);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        }
    }

    #[test]
    fn wrong_pin_fails_every_operation() {
        let w = tiny("oneshot-1m");
        let wrong = Fingerprint {
            hash: 1,
            ..Fingerprint::default()
        };
        let r = run(&w, 0, &settings(false), Pin::Expect(wrong));
        assert_eq!(r.verdict.failed, r.verdict.attempted);
        assert!(!r.verdict.correct());
        let missing = run(&w, 0, &settings(false), Pin::Missing);
        assert!(!missing.verdict.correct());
    }

    #[test]
    fn inputs_depend_on_the_slot_only() {
        let w = tiny("serve-trickle");
        let s = Settings {
            seconds: 0.0,
            trace: false,
            single_setup: true,
        };
        let a = run(&w, 5, &s, Pin::Unchecked).fingerprint;
        assert_eq!(a, run(&w, 5, &s, Pin::Unchecked).fingerprint);
        assert_ne!(a, run(&w, 6, &s, Pin::Unchecked).fingerprint);
    }

    #[test]
    fn client_rejects_inconsistent_deltas() {
        let mut c = Client::new(&[MisState::InMis, MisState::NotInMis]);
        assert!(c.apply(3, &[1], &[0]));
        assert!(!c.apply(3, &[1], &[]));
        assert!(!c.apply(3, &[], &[2]));
    }

    #[test]
    fn unit_counts_are_fixed_by_the_seconds() {
        let counts =
            |name: &str, seconds: f64| Workload::by_name(name).expect("known").units(seconds);
        assert_eq!(counts("grid-mixed", 24.0), 4);
        assert_eq!(counts("grid-mixed", 1.0), 1);
        assert_eq!(counts("oneshot-1m", 24.0), 2);
        assert_eq!(counts("oneshot-1m", 36.0), 3);
        assert_eq!(counts("serve-trickle", 24.0), 120);
        assert_eq!(counts("serve-trickle", 0.0), FP_BATCHES);
    }

    #[test]
    fn set_ups_spread_over_the_run() {
        assert_eq!(
            (0..=2).map(|i| setups_before(i, 2, 7)).collect::<Vec<_>>(),
            [2, 2, 3]
        );
        assert_eq!(
            (0..=3).map(|i| setups_before(i, 3, 5)).collect::<Vec<_>>(),
            [1, 1, 1, 2]
        );
        assert_eq!((0..=2).map(|i| setups_before(i, 2, 1)).sum::<usize>(), 1);
    }

    #[test]
    fn derived_metrics_are_layer_metrics() {
        for d in DERIVED {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == d), "{d}");
        }
    }
}
