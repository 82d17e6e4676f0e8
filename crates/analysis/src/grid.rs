//! Batched seed-grid experiments: the per-cell summary view.
//!
//! A [`GridSpec`] describes a cartesian grid of
//! `{algorithm × graph family × n × seed}` where the algorithm axis is a
//! list of registry-resolved [`RunnerHandle`]s. [`run_grid`] runs it on
//! the crate's one experiment core — the same job builder, thread
//! fan-out (one reused [`ScratchArena`] per worker) and document writer
//! as the sweep, fault and churn harnesses — so this module holds only
//! what is the grid's own: the normalized per-run [`GridPoint`] (shared
//! by every view), its aggregation into per-`{algorithm × family × n}`
//! [`GridCell`]s with summary statistics over seeds, and the
//! `BENCH_grid.json` cell and point JSON.
//!
//! Determinism contract: every run is a pure function of
//! `(family, n, seed, algorithm spec)`, so [`GridResult::payload_json`]
//! is byte-identical across thread counts. Wall-clock and thread-count
//! metadata live only in the separate [`GridMeta`] object and the
//! per-point `timing` section appended by [`GridResult::to_json`] —
//! never in the payload.

use crate::experiment::{
    dist_json, distinct, document, fan_out, json_escape, meta_lines, summary, summary_json, Axes,
};
use crate::runners::AlgoResult;
use crate::spec::{RunnerHandle, SpecError};
use crate::stats::Summary;
use graphgen::GraphFamily;
use sleeping_congest::{AwakeDistribution, ScratchArena, SimError};
use std::time::Instant;

/// A cartesian experiment grid.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Algorithms to run (outermost grid axis), as registry-resolved
    /// runner handles — any spec the registry accepts, including
    /// parameterized variants like `awake?round_efficient=true`.
    pub algorithms: Vec<RunnerHandle>,
    /// Graph families.
    pub families: Vec<GraphFamily>,
    /// Node counts.
    pub sizes: Vec<usize>,
    /// Seeds (innermost axis). Each seed drives both the instance
    /// generation and the run randomness, so any point is reproducible
    /// from its coordinates alone.
    pub seeds: Vec<u64>,
    /// Extra coordinate blocks appended after the base grid, each with
    /// its own axes (see [`GridTier`]). Empty for a plain cartesian
    /// grid; the payload spec echoes a `tiers` array only when this is
    /// non-empty, so pre-tier documents are byte-unchanged.
    pub tiers: Vec<GridTier>,
    /// Worker threads; `0` means all available hardware threads. Does
    /// not affect results.
    pub threads: usize,
}

/// A named block of grid coordinates with its own axes, appended after
/// the base cartesian product.
///
/// This is how `BENCH_grid.json` carries the `large` tier: million-node
/// points for the fast algorithms (`luby`, `awake`) on one family with
/// few seeds, without multiplying the full base grid by a size nobody
/// wants to run the slow baselines at. Tier points obey the same
/// determinism contract as base points — their coordinates fully
/// reproduce them.
#[derive(Debug, Clone)]
pub struct GridTier {
    /// Tier name, echoed in the payload spec (e.g. `"large"`).
    pub name: String,
    /// Algorithms of this tier.
    pub algorithms: Vec<RunnerHandle>,
    /// Graph families of this tier.
    pub families: Vec<GraphFamily>,
    /// Node counts of this tier.
    pub sizes: Vec<usize>,
    /// Seeds of this tier.
    pub seeds: Vec<u64>,
}

impl GridSpec {
    /// The base grid's axes, then each tier's.
    fn blocks(&self) -> Vec<Axes<'_>> {
        let base = Axes::new(&self.algorithms, &self.families, &self.sizes, &self.seeds);
        let tiers =
            self.tiers.iter().map(|t| Axes::new(&t.algorithms, &t.families, &t.sizes, &t.seeds));
        std::iter::once(base).chain(tiers).collect()
    }

    /// The grid flattened to jobs, in deterministic grid order
    /// (algorithm-major, seed-minor): the base cartesian product first,
    /// then each tier's, in declaration order.
    pub fn jobs(&self) -> Vec<GridJob> {
        self.blocks().iter().flat_map(Axes::grid_jobs).collect()
    }

    /// Rejects a value listed twice on an axis of the base grid or a
    /// tier, and a cell key shared by two blocks: every reader of the
    /// payload keys cells by it.
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateKey`] naming the repeated value or cell.
    pub fn check_axes(&self) -> Result<(), SpecError> {
        let blocks = self.blocks();
        blocks.iter().try_for_each(Axes::check)?;
        distinct("cell", blocks.iter().flat_map(Axes::cell_keys))
    }
}

/// One coordinate of the grid: a single `(algorithm, family, n, seed)`
/// run. The algorithm is a shared handle, so cloning a job is cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct GridJob {
    /// Algorithm to run.
    pub algorithm: RunnerHandle,
    /// Graph family generating the instance.
    pub family: GraphFamily,
    /// Node count.
    pub n: usize,
    /// Seed for both instance generation and run randomness.
    pub seed: u64,
}

/// Normalized measurements of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// The coordinates this point was measured at.
    pub job: GridJob,
    /// Actual node count of the generated instance. Families that round
    /// to a lattice (`grid`) or clamp (`cycle`) can deviate from the
    /// requested `job.n`; fits against instance size must use this.
    pub nodes: usize,
    /// Worst-case awake complexity (`max_v A_v`).
    pub awake_max: u64,
    /// Node-averaged awake complexity.
    pub awake_avg: f64,
    /// Full distribution statistics over the per-node awake counts
    /// (mean = `awake_avg`, max = `awake_max`, plus median, p95, Gini,
    /// skew). This is what makes worst-case and node-averaged
    /// algorithms comparable cell by cell.
    pub awake_dist: AwakeDistribution,
    /// Round complexity (sleeping + awake).
    pub rounds: u64,
    /// Rounds the engine actually simulated (≥ 1 node awake).
    pub active_rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Largest message in bits.
    pub max_message_bits: usize,
    /// Size of the computed MIS.
    pub mis_size: usize,
    /// Whether the output verified as a correct MIS — of the survivor
    /// subgraph when the run's fault model crashed nodes.
    pub correct: bool,
    /// Number of nodes reporting a Monte Carlo failure.
    pub failures: usize,
    /// Number of nodes crashed by the fault model (0 on clean runs).
    pub crashed: usize,
    /// Deliverable message copies dropped by the fault model's lossy
    /// links (0 on clean runs).
    pub faulted: u64,
    /// Engine-level error, if the run aborted (correct is false then).
    pub sim_error: Option<String>,
    /// Wall-clock time of this point (generation + run), in
    /// nanoseconds. Machine-dependent, so it is serialized in the
    /// `timing` sibling section, **never** in the deterministic payload.
    pub elapsed_ns: u64,
}

/// Aggregates over the seed axis for one `{algorithm × family × n}`.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Algorithm of this cell.
    pub algorithm: RunnerHandle,
    /// Graph family of this cell.
    pub family: GraphFamily,
    /// Node count of this cell.
    pub n: usize,
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Summary of worst-case awake complexity over seeds.
    pub awake_max: Summary,
    /// Summary of node-averaged awake complexity over seeds.
    pub awake_avg: Summary,
    /// Summary of the per-run 95th-percentile awake rounds over seeds.
    pub awake_p95: Summary,
    /// Summary of the per-run awake-load Gini coefficient over seeds.
    pub awake_gini: Summary,
    /// Summary of round complexity over seeds.
    pub rounds: Summary,
    /// Largest message observed across seeds, in bits.
    pub max_message_bits: usize,
    /// Whether every seed verified correct with zero failures.
    pub all_correct: bool,
    /// Fraction of seeds that did **not** verify correct — the
    /// robustness headline under a fault model (0.0 on clean cells).
    pub failure_rate: f64,
    /// Total nodes crashed across seeds (0 on clean cells).
    pub crashed: u64,
    /// Total deliverable message copies dropped across seeds (0 on
    /// clean cells).
    pub faulted: u64,
}

/// The outcome of [`run_grid`]: the spec, every point, every cell.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// The grid that was run.
    pub spec: GridSpec,
    /// Per-run measurements, in grid order.
    pub points: Vec<GridPoint>,
    /// Per-`{algorithm × family × n}` aggregates, in grid order.
    pub cells: Vec<GridCell>,
}

/// Non-deterministic run metadata, kept out of the payload so payloads
/// compare byte-identical across machines and thread counts.
#[derive(Debug, Clone)]
pub struct GridMeta {
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock duration of the grid in milliseconds.
    pub wall_ms: u128,
}

/// Runs one grid job on a caller-provided scratch: generates the
/// instance, runs the algorithm, and normalizes the outcome into a
/// [`GridPoint`] timed over generation and run. The full
/// [`AlgoResult`] comes back alongside on success (`None` when the
/// engine aborted), so richer views — the energy pricing of
/// [`crate::sweep`] — can read per-node measurements the point does not
/// carry.
pub fn run_point(job: &GridJob, scratch: &mut ScratchArena) -> (GridPoint, Option<AlgoResult>) {
    let start = Instant::now();
    let g = job.family.generate(job.n, job.seed);
    let res = job.algorithm.run_with_scratch(&g, job.seed, scratch);
    let (point, result) = point_from_run(job, g.n(), res);
    (GridPoint { elapsed_ns: start.elapsed().as_nanos() as u64, ..point }, result)
}

/// Normalizes a finished (or aborted) run into a [`GridPoint`],
/// returning the full [`AlgoResult`] alongside on success. Shared by
/// [`run_point`] and the churn harness's bootstrap run
/// ([`crate::churn`]), so a zero-delta churn point is byte-identical to
/// the corresponding one-shot grid point. `elapsed_ns` is left at 0 —
/// timing is the caller's concern.
pub(crate) fn point_from_run(
    job: &GridJob,
    nodes: usize,
    res: Result<AlgoResult, SimError>,
) -> (GridPoint, Option<AlgoResult>) {
    let point = GridPoint {
        job: job.clone(),
        nodes,
        awake_max: 0,
        awake_avg: 0.0,
        awake_dist: AwakeDistribution::default(),
        rounds: 0,
        active_rounds: 0,
        messages: 0,
        max_message_bits: 0,
        mis_size: 0,
        correct: false,
        failures: 0,
        crashed: 0,
        faulted: 0,
        sim_error: None,
        elapsed_ns: 0,
    };
    match res {
        Ok(r) => (
            GridPoint {
                awake_max: r.awake_max,
                awake_avg: r.awake_avg,
                awake_dist: r.metrics.awake_distribution(),
                rounds: r.rounds,
                active_rounds: r.metrics.active_rounds,
                messages: r.messages,
                max_message_bits: r.max_message_bits,
                mis_size: r.mis_size,
                correct: r.correct,
                failures: r.failures,
                crashed: r.crashed,
                faulted: r.faulted,
                ..point
            },
            Some(r),
        ),
        Err(e) => (GridPoint { sim_error: Some(e.to_string()), ..point }, None),
    }
}

/// Runs the whole grid, fanning jobs over `spec.threads` workers with
/// per-worker scratch reuse. The returned points and cells are in grid
/// order and — apart from the wall-clock `elapsed_ns` field — bit-
/// identical for every thread count.
pub fn run_grid(spec: &GridSpec) -> GridResult {
    let points = fan_out(&spec.jobs(), spec.threads, |scratch, job| run_point(job, scratch).0);
    // Points arrive in job order: the base grid's segment first, then
    // one segment per tier — each chunked into cells by its own seeds.
    let mut cells = Vec::new();
    let mut rest = points.as_slice();
    for block in spec.blocks() {
        let (segment, r) = rest.split_at((block.cells() * block.seeds.len()).min(rest.len()));
        rest = r;
        if !block.seeds.is_empty() {
            cells.extend(segment.chunks(block.seeds.len()).map(GridCell::of));
        }
    }
    GridResult { spec: spec.clone(), points, cells }
}

impl GridPoint {
    /// The point's deterministic JSON object — one line of the
    /// `points` section of `BENCH_grid.json` (and of the fault
    /// document, which reuses the format so clean fault levels are
    /// byte-comparable against the grid).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"n\":{},\"seed\":{},\"nodes\":{},\
             \"awake_max\":{},\"awake_avg\":{},\"awake_dist\":{},\"rounds\":{},\
             \"active_rounds\":{},\"messages\":{},\"max_message_bits\":{},\"mis_size\":{},\
             \"correct\":{},\"failures\":{},\"crashed\":{},\"faulted\":{}",
            json_escape(self.job.algorithm.key()),
            self.job.family.key(),
            self.job.n,
            self.job.seed,
            self.nodes,
            self.awake_max,
            self.awake_avg,
            dist_json(&self.awake_dist),
            self.rounds,
            self.active_rounds,
            self.messages,
            self.max_message_bits,
            self.mis_size,
            self.correct,
            self.failures,
            self.crashed,
            self.faulted,
        );
        if let Some(e) = &self.sim_error {
            out.push_str(&format!(",\"sim_error\":\"{}\"", json_escape(e)));
        }
        out.push('}');
        out
    }
}

impl GridCell {
    /// The payload fields that identify one grid cell, in key order —
    /// the single source of truth `bench-diff`/`bench-report` use when
    /// grouping `points` into cells.
    pub const KEY_FIELDS: [&'static str; 3] = ["algorithm", "family", "n"];

    /// This cell's identity as textual key components matching
    /// [`Self::KEY_FIELDS`] and the artifact JSON spelling.
    pub fn cell_key(&self) -> Vec<String> {
        vec![self.algorithm.key().to_string(), self.family.key(), self.n.to_string()]
    }

    /// Aggregates one cell's points (its seeds, in seed order).
    fn of(chunk: &[GridPoint]) -> GridCell {
        let head = &chunk[0].job;
        let runs = chunk.len();
        GridCell {
            algorithm: head.algorithm.clone(),
            family: head.family,
            n: head.n,
            runs,
            awake_max: summary(chunk, |p| p.awake_max as f64),
            awake_avg: summary(chunk, |p| p.awake_avg),
            awake_p95: summary(chunk, |p| p.awake_dist.p95),
            awake_gini: summary(chunk, |p| p.awake_dist.gini),
            rounds: summary(chunk, |p| p.rounds as f64),
            max_message_bits: chunk.iter().map(|p| p.max_message_bits).max().unwrap_or(0),
            all_correct: chunk.iter().all(|p| p.correct),
            failure_rate: chunk.iter().filter(|p| !p.correct).count() as f64 / runs as f64,
            crashed: chunk.iter().map(|p| p.crashed as u64).sum(),
            faulted: chunk.iter().map(|p| p.faulted).sum(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"n\":{},\"runs\":{},\
             \"awake_max\":{},\"awake_avg\":{},\"awake_p95\":{},\"awake_gini\":{},\
             \"rounds\":{},\"max_message_bits\":{},\"all_correct\":{},\
             \"failure_rate\":{},\"crashed\":{},\"faulted\":{}}}",
            json_escape(self.algorithm.key()),
            self.family.key(),
            self.n,
            self.runs,
            summary_json(&self.awake_max),
            summary_json(&self.awake_avg),
            summary_json(&self.awake_p95),
            summary_json(&self.awake_gini),
            summary_json(&self.rounds),
            self.max_message_bits,
            self.all_correct,
            self.failure_rate,
            self.crashed,
            self.faulted,
        )
    }
}

impl GridResult {
    /// The deterministic JSON payload: schema id, spec echo, cells,
    /// points. Byte-identical across thread counts and repeat runs.
    pub fn payload_json(&self) -> String {
        self.json_with_meta(None)
    }

    /// The full JSON document: the payload plus a `meta` object and a
    /// per-point `timing` section carrying wall-clock fields (both
    /// excluded from determinism comparisons).
    pub fn to_json(&self, meta: &GridMeta) -> String {
        self.json_with_meta(Some(meta))
    }

    fn json_with_meta(&self, meta: Option<&GridMeta>) -> String {
        let blocks = self.spec.blocks();
        let tiers = self.spec.tiers.iter().zip(&blocks[1..]);
        let tiers: Vec<String> = tiers
            .map(|(t, axes)| format!("{{\"name\": \"{}\", {}}}", json_escape(&t.name), axes.json()))
            .collect();
        let mut spec = blocks[0].json();
        // `tiers` is echoed only when present, so pre-tier documents
        // (and every small explicit-axes grid) stay byte-unchanged.
        if !tiers.is_empty() {
            spec.push_str(&format!(", \"tiers\": [{}]", tiers.join(", ")));
        }
        document(
            "awake-mis/bench-grid/v3",
            meta.map(|m| meta_lines(m, self.points.iter().map(|p| p.elapsed_ns))),
            &spec,
            self.cells.iter().map(GridCell::json),
            self.points.iter().map(GridPoint::json),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_registry;

    fn tiny_spec(threads: usize) -> GridSpec {
        GridSpec {
            algorithms: default_registry().resolve_list("luby,vt").unwrap(),
            families: vec![GraphFamily::Er, GraphFamily::Cycle],
            sizes: vec![32, 64],
            seeds: vec![1, 2, 3],
            tiers: Vec::new(),
            threads,
        }
    }

    #[test]
    fn grid_shape_and_order() {
        let spec = tiny_spec(1);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 3);
        // Seed-minor ordering.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[3].n, 64);
        assert_eq!(jobs[3].seed, 1);
        let result = run_grid(&spec);
        assert_eq!(result.points.len(), jobs.len());
        assert_eq!(result.cells.len(), 2 * 2 * 2);
        assert!(result.cells.iter().all(|c| c.all_correct), "all cells must verify");
        for (job, point) in jobs.iter().zip(&result.points) {
            assert_eq!(*job, point.job, "points must come back in grid order");
            assert!(point.elapsed_ns > 0, "every point must be timed");
        }
    }

    #[test]
    fn payload_is_valid_shape_and_deterministic() {
        let spec = tiny_spec(1);
        let a = run_grid(&spec).payload_json();
        let b = run_grid(&spec).payload_json();
        assert_eq!(a, b, "payload must be reproducible");
        assert!(a.contains("\"schema\": \"awake-mis/bench-grid/v3\""));
        assert!(a.contains("\"cells\""));
        assert!(a.contains("\"points\""));
        assert!(a.contains("\"awake_dist\":{\"mean\":"), "points carry the distribution");
        assert!(a.contains("\"awake_p95\":{\"mean\":"), "cells summarize p95");
        assert!(a.contains("\"awake_gini\":{\"mean\":"), "cells summarize gini");
        assert!(a.contains("\"crashed\":0,\"faulted\":0"), "points carry fault counters");
        assert!(a.contains("\"failure_rate\":0,"), "cells carry the failure rate");
        assert!(!a.contains("wall_ms"), "payload must not carry wall-clock fields");
        assert!(!a.contains("elapsed_ns"), "payload must not carry per-point timing");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn meta_and_timing_live_only_in_full_document() {
        let spec = tiny_spec(1);
        let result = run_grid(&spec);
        let full = result.to_json(&GridMeta { threads: 3, wall_ms: 17 });
        assert!(full.contains("\"meta\": {\"threads\": 3, \"wall_ms\": 17}"));
        assert!(full.contains("\"timing\": {\"elapsed_ns\": ["));
        // Stripping the meta and timing lines reproduces the payload
        // exactly.
        let stripped: String = full
            .lines()
            .filter(|l| !l.contains("\"meta\"") && !l.contains("\"timing\""))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert_eq!(stripped, result.payload_json());
    }

    #[test]
    fn node_averaged_algorithms_flow_through_the_grid() {
        // The two average-awake entrants ride the same axes as the
        // worst-case algorithms, with no dispatch edits anywhere.
        let spec = GridSpec {
            algorithms: default_registry().resolve_list("na,gp-avg,luby").unwrap(),
            families: vec![GraphFamily::Er],
            sizes: vec![48],
            seeds: vec![1, 2],
            tiers: Vec::new(),
            threads: 1,
        };
        let result = run_grid(&spec);
        assert!(result.cells.iter().all(|c| c.all_correct));
        for cell in &result.cells {
            assert!(cell.awake_gini.mean >= 0.0 && cell.awake_gini.mean < 1.0);
            assert!(cell.awake_p95.mean <= cell.awake_max.mean + 1e-9);
        }
        // The dropout algorithms concentrate awake load on a few nodes:
        // their Gini must exceed always-awake Luby's.
        let (na, luby) = (&result.cells[0], &result.cells[2]);
        assert_eq!(na.algorithm.key(), "na");
        assert_eq!(luby.algorithm.key(), "luby");
        assert!(
            na.awake_gini.mean > luby.awake_gini.mean,
            "dropout skew: na {} vs luby {}",
            na.awake_gini.mean,
            luby.awake_gini.mean
        );
    }

    #[test]
    fn parameterized_spec_runs_end_to_end() {
        // A spec override must flow through the grid with its canonical
        // key in the payload — no dispatch edits anywhere.
        let spec = GridSpec {
            algorithms: default_registry().resolve_list("vt?id_upper=4096").unwrap(),
            families: vec![GraphFamily::Cycle],
            sizes: vec![24],
            seeds: vec![1, 2],
            tiers: Vec::new(),
            threads: 1,
        };
        let result = run_grid(&spec);
        assert!(result.cells[0].all_correct);
        assert!(result.payload_json().contains("\"vt?id_upper=4096\""));
    }

    #[test]
    fn tiers_append_points_and_cells_after_the_base_grid() {
        let spec = GridSpec {
            algorithms: default_registry().resolve_list("luby").unwrap(),
            families: vec![GraphFamily::Er],
            sizes: vec![32],
            seeds: vec![1, 2],
            tiers: vec![GridTier {
                name: "big".to_string(),
                algorithms: default_registry().resolve_list("vt,luby").unwrap(),
                families: vec![GraphFamily::Cycle],
                sizes: vec![24],
                seeds: vec![9],
            }],
            threads: 1,
        };
        // Jobs: the base product first, then the tier's, in tier order.
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 + 2);
        assert_eq!(jobs[0].family, GraphFamily::Er);
        assert_eq!(jobs[2].family, GraphFamily::Cycle);
        assert_eq!(jobs[2].algorithm.key(), "vt");
        assert_eq!(jobs[3].algorithm.key(), "luby");

        let result = run_grid(&spec);
        assert_eq!(result.points.len(), 4);
        // Aggregation is segment-aware: the base cell averages the base
        // seeds, each tier cell averages only its own tier's seeds.
        assert_eq!(result.cells.len(), 1 + 2);
        assert_eq!(result.cells[0].runs, 2);
        assert_eq!(result.cells[1].runs, 1);
        assert_eq!(result.cells[1].algorithm.key(), "vt");
        assert!(result.cells.iter().all(|c| c.all_correct));

        // The tier is echoed in the payload spec; tier-free specs stay
        // byte-compatible with pre-tier documents.
        let payload = result.payload_json();
        assert!(payload.contains(
            "\"tiers\": [{\"name\": \"big\", \"algorithms\": [\"vt\", \"luby\"], \
             \"families\": [\"cycle\"], \"sizes\": [24], \"seeds\": [9]}]"
        ));
        let plain = GridSpec { tiers: Vec::new(), ..spec };
        assert!(!run_grid(&plain).payload_json().contains("tiers"));
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let dup = |spec: GridSpec| match spec.check_axes() {
            Err(SpecError::DuplicateKey { key }) => key,
            other => panic!("expected a duplicate key, got {other:?}"),
        };
        assert!(tiny_spec(1).check_axes().is_ok());
        let algorithms = default_registry().resolve_list("luby,luby").unwrap();
        assert_eq!(dup(GridSpec { algorithms, ..tiny_spec(1) }), "algorithm=luby");
        let families = vec![GraphFamily::Er, GraphFamily::Er];
        assert_eq!(dup(GridSpec { families, ..tiny_spec(1) }), "family=er");
        assert_eq!(dup(GridSpec { sizes: vec![32, 32], ..tiny_spec(1) }), "n=32");
        assert_eq!(dup(GridSpec { seeds: vec![1, 1], ..tiny_spec(1) }), "seed=1");
        // A tier cell repeating a base cell's key is a duplicate too,
        // even on its own seeds; a tier at a fresh size is not.
        let tier = |sizes: Vec<usize>| GridTier {
            name: "big".to_string(),
            algorithms: default_registry().resolve_list("vt").unwrap(),
            families: vec![GraphFamily::Cycle],
            sizes,
            seeds: vec![9],
        };
        let overlap = GridSpec { tiers: vec![tier(vec![64])], ..tiny_spec(1) };
        assert_eq!(dup(overlap), "cell=vt/cycle/64");
        assert!(GridSpec { tiers: vec![tier(vec![128])], ..tiny_spec(1) }.check_axes().is_ok());
    }
}
