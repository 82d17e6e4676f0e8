//! Churn-epoch experiment harness and the long-running MIS service.
//!
//! A [`ChurnSpec`] describes a grid of
//! `{algorithm × family × n × churn rate × seed}`; each point boots a
//! [`MisService`] (one-shot MIS via the registry runner, normalized into
//! an embedded [`GridPoint`] through the exact code path the grid
//! harness uses, so a zero-delta churn point is byte-identical to the
//! corresponding one-shot grid point), then alternates epochs of random
//! topology deltas ([`random_batch`]) with incremental repair
//! ([`awake_mis_core::incremental::repair`]). The headline measurement
//! is **locality**: `woken_ratio` compares the nodes repair actually
//! woke against what a full recompute would have woken (every active
//! node, every epoch) — the churn-side version of the paper's awake
//! complexity argument.
//!
//! Determinism contract: identical to the grid's. Every point is a pure
//! function of its coordinates plus the spec's churn knobs;
//! [`ChurnResult::payload_json`] is byte-identical across thread
//! counts. Wall-clock (including the optional full-recompute timing
//! comparison) lives only in the `meta`/`timing` lines appended by
//! [`ChurnResult::to_json`].

use crate::experiment::{
    distinct, document, fan_out, json_escape, list, meta_lines, quoted, summary, summary_json,
    Axes,
};
use crate::grid::{point_from_run, GridJob, GridMeta, GridPoint};
use crate::runners::AlgoResult;
use crate::spec::{RunnerHandle, SpecError};
use crate::stats::Summary;
use awake_mis_core::incremental::{repair, RepairConfig, SubSolution};
use awake_mis_core::MisState;
use graphgen::delta::{DeltaBatch, DeltaError, DynGraph};
use graphgen::{Graph, GraphFamily, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleeping_congest::{ScratchArena, SimError};
use std::collections::HashSet;
use std::time::Instant;

/// Deterministic seed mixer (splitmix64 finalizer), used to derive
/// per-epoch batch and repair seeds from the point seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A churn experiment grid.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Algorithms servicing the MIS (bootstrap and frontier repair).
    pub algorithms: Vec<RunnerHandle>,
    /// Graph families generating the initial instance.
    pub families: Vec<GraphFamily>,
    /// Initial node counts.
    pub sizes: Vec<usize>,
    /// Churn rates: effective deltas per epoch as a fraction of `n`
    /// (`rate * n` rounded; 0 is allowed and means delta-free epochs).
    pub rates: Vec<f64>,
    /// Epochs per point (delta batch + repair each).
    pub epochs: usize,
    /// Fraction of edge ops that are inserts (the rest delete).
    pub insert_frac: f64,
    /// Fraction of ops that are node churn (half removals, half
    /// additions) instead of edge ops.
    pub node_churn: f64,
    /// Seeds (innermost axis); drives instance, bootstrap, batches,
    /// and repair.
    pub seeds: Vec<u64>,
    /// Worker threads; `0` = all hardware threads. Never affects
    /// results.
    pub threads: usize,
    /// Also run a from-scratch recompute every epoch and record its
    /// wall clock in the `timing` section (doubles the work; the
    /// deterministic payload is unaffected).
    pub recompute: bool,
}

impl ChurnSpec {
    fn axes(&self) -> Axes<'_> {
        Axes::new(&self.algorithms, &self.families, &self.sizes, &self.seeds)
    }

    /// The grid flattened to jobs (algorithm-major, seed-minor).
    pub fn jobs(&self) -> Vec<ChurnJob> {
        self.axes().jobs(&self.rates, |algorithm, family, n, rate, seed| ChurnJob {
            algorithm: algorithm.clone(),
            family,
            n,
            rate,
            seed,
        })
    }

    /// Rejects an algorithm, family, size, rate or seed listed twice:
    /// two cells would share one key.
    fn check_axes(&self) -> Result<(), SpecError> {
        self.axes().check()?;
        distinct("rate", &self.rates)
    }
}

/// One churn-grid coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnJob {
    /// Algorithm servicing the MIS.
    pub algorithm: RunnerHandle,
    /// Graph family of the initial instance.
    pub family: GraphFamily,
    /// Initial node count.
    pub n: usize,
    /// Deltas per epoch as a fraction of `n`.
    pub rate: f64,
    /// Seed.
    pub seed: u64,
}

/// What one repair epoch did, as reported by [`MisService::apply`].
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Epoch counter (1-based, monotonically increasing per service).
    pub epoch: u64,
    /// Effective deltas applied this epoch.
    pub deltas: u64,
    /// Nodes the repair woke.
    pub woken: u64,
    /// Frontier size (subset of `woken` that was re-solved).
    pub frontier: u64,
    /// MIS nodes evicted by inserted-edge conflicts.
    pub evicted: u64,
    /// Dominated nodes that lost their dominator.
    pub uncovered: u64,
    /// Rounds the frontier solver ran.
    pub repair_rounds: u64,
    /// Maximum per-node awake rounds in the repair.
    pub awake_max: u64,
    /// Total awake node-rounds in the repair.
    pub awake_total: u64,
    /// Messages the repair sent.
    pub messages: u64,
    /// Reseeded solver attempts beyond the first.
    pub retries: u64,
    /// Whether the repaired MIS verified on the mutated graph.
    pub correct: bool,
    /// Verification/solver error when `correct` is false.
    pub error: Option<String>,
    /// Nodes that joined the MIS this epoch (sorted) — the service's
    /// outgoing "MIS delta" stream.
    pub joined: Vec<NodeId>,
    /// Nodes that left the MIS this epoch (sorted).
    pub left: Vec<NodeId>,
    /// Wall-clock nanoseconds the whole repair took (solver, splice,
    /// verification). Observational only: the churn payload never
    /// includes it, so payloads stay byte-identical across machines.
    pub repair_ns: u64,
    /// Wall-clock nanoseconds of the repair spent verifying candidate
    /// states. Observational only, like [`repair_ns`](Self::repair_ns).
    pub verify_ns: u64,
}

/// A long-running MIS service: holds a [`DynGraph`] and a valid MIS,
/// and turns incoming topology deltas into outgoing MIS deltas by
/// incremental frontier repair with a registry-selected algorithm.
#[derive(Debug, Clone)]
pub struct MisService {
    runner: RunnerHandle,
    graph: DynGraph,
    states: Vec<MisState>,
    cfg: RepairConfig,
    seed: u64,
    epoch: u64,
}

impl MisService {
    /// Boots the service: runs `runner` one-shot on `g` and adopts its
    /// MIS. The returned [`AlgoResult`] carries the bootstrap cost;
    /// its `correct` flag should be checked before trusting the
    /// service.
    pub fn bootstrap(
        runner: RunnerHandle,
        g: Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<(MisService, AlgoResult), SimError> {
        let r = runner.run_with_scratch(&g, seed, scratch)?;
        let service = MisService::from_parts(runner, DynGraph::new(g), r.states.clone(), seed);
        Ok((service, r))
    }

    /// Assembles a service from an existing dynamic graph and a MIS
    /// known (by the caller) to be valid on its active subgraph.
    pub fn from_parts(
        runner: RunnerHandle,
        graph: DynGraph,
        states: Vec<MisState>,
        seed: u64,
    ) -> MisService {
        MisService { runner, graph, states, cfg: RepairConfig::default(), seed, epoch: 0 }
    }

    /// The current topology.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current per-node MIS states.
    pub fn states(&self) -> &[MisState] {
        &self.states
    }

    /// Current MIS size (active nodes only).
    pub fn mis_size(&self) -> usize {
        self.states.iter().filter(|&&s| s == MisState::InMis).count()
    }

    /// Applies one delta batch and repairs the MIS, returning the
    /// epoch's metrics and MIS delta (joined/left).
    ///
    /// # Errors
    ///
    /// Propagates [`DeltaError`] from batch validation; the service is
    /// unchanged in that case. Repair-level failures are reported via
    /// [`EpochReport::correct`]/[`EpochReport::error`] instead (the
    /// service keeps running with its best-attempt states).
    pub fn apply(
        &mut self,
        batch: &DeltaBatch,
        scratch: &mut ScratchArena,
    ) -> Result<EpochReport, DeltaError> {
        let old_in: Vec<bool> =
            self.states.iter().map(|&s| s == MisState::InMis).collect();
        let applied = self.graph.apply(batch)?;
        self.epoch += 1;
        let runner = self.runner.clone();
        let repair_t0 = std::time::Instant::now();
        let out = repair(
            self.graph.graph(),
            self.graph.active(),
            &self.states,
            &applied,
            mix(self.seed, self.epoch),
            &self.cfg,
            |sub, s| {
                runner
                    .run_with_scratch(sub, s, scratch)
                    .map(|r| SubSolution {
                        awake_total: r.metrics.awake_total(),
                        states: r.states,
                        rounds: r.rounds,
                        awake_max: r.awake_max,
                        messages: r.messages,
                    })
                    .map_err(|e| e.to_string())
            },
        );
        let repair_ns = repair_t0.elapsed().as_nanos() as u64;
        let mut joined = Vec::new();
        let mut left = Vec::new();
        for (v, &s) in out.states.iter().enumerate() {
            let now_in = s == MisState::InMis && self.graph.is_active(v as NodeId);
            let was_in = v < old_in.len() && old_in[v];
            match (was_in, now_in) {
                (false, true) => joined.push(v as NodeId),
                (true, false) => left.push(v as NodeId),
                _ => {}
            }
        }
        self.states = out.states;
        Ok(EpochReport {
            epoch: self.epoch,
            deltas: applied.ops() as u64,
            woken: out.woken,
            frontier: out.frontier.len() as u64,
            evicted: out.evicted,
            uncovered: out.uncovered,
            repair_rounds: out.repair_rounds,
            awake_max: out.awake_max,
            awake_total: out.awake_total,
            messages: out.messages,
            retries: out.retries,
            correct: out.correct,
            error: out.error,
            joined,
            left,
            repair_ns,
            verify_ns: out.verify_ns,
        })
    }
}

/// Generates a random, conflict-free delta batch against the current
/// dynamic graph: `deltas` operations, `insert_frac` of the edge ops
/// inserting absent edges between active nodes, the rest deleting
/// existing edges (picked by random node + random port, so high-degree
/// nodes shed edges proportionally more often), and `node_churn` of all
/// ops churning nodes (alternating removals and additions; additions
/// are wired to two random active nodes so they are not trivially
/// isolated). Deterministic in `(graph, arguments)`.
pub fn random_batch(
    d: &DynGraph,
    deltas: usize,
    insert_frac: f64,
    node_churn: f64,
    seed: u64,
) -> DeltaBatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch = DeltaBatch::new();
    let g = d.graph();
    let active: Vec<NodeId> = (0..d.n() as NodeId).filter(|&v| d.is_active(v)).collect();
    // Guards: edges touched this batch (insert/delete conflicts), node
    // ids an inserted edge uses (cannot be removed by the same batch),
    // and nodes already removed (no further ops may touch them).
    let mut touched: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut pinned: HashSet<NodeId> = HashSet::new();
    let mut removed: HashSet<NodeId> = HashSet::new();
    let mut remove_next = true;
    for _ in 0..deltas {
        // A few placement attempts per op; skip the op if the random
        // draws keep colliding (dense graph, tiny graph, …).
        for _attempt in 0..8 {
            let roll: f64 = rng.gen();
            if roll < node_churn {
                if remove_next {
                    if active.is_empty() {
                        continue;
                    }
                    let v = active[rng.gen_range(0..active.len())];
                    if removed.contains(&v) || pinned.contains(&v) {
                        continue;
                    }
                    batch.remove_node(v);
                    removed.insert(v);
                    remove_next = false;
                } else {
                    let id = (d.n() + batch.added_count()) as NodeId;
                    batch.add_nodes(1);
                    for _ in 0..2 {
                        let w = active[rng.gen_range(0..active.len())];
                        if !removed.contains(&w) && touched.insert((w.min(id), w.max(id))) {
                            batch.insert_edge(id, w);
                            pinned.insert(w);
                        }
                    }
                    remove_next = true;
                }
                break;
            } else if roll < node_churn + (1.0 - node_churn) * insert_frac {
                if active.len() < 2 {
                    break;
                }
                let a = active[rng.gen_range(0..active.len())];
                let b = active[rng.gen_range(0..active.len())];
                if a == b
                    || g.has_edge(a, b)
                    || removed.contains(&a)
                    || removed.contains(&b)
                    || touched.contains(&(a.min(b), a.max(b)))
                {
                    continue;
                }
                batch.insert_edge(a, b);
                touched.insert((a.min(b), a.max(b)));
                pinned.insert(a);
                pinned.insert(b);
                break;
            } else {
                if active.is_empty() {
                    break;
                }
                let v = active[rng.gen_range(0..active.len())];
                if g.degree(v) == 0 || removed.contains(&v) {
                    continue;
                }
                let u = g.neighbors(v)[rng.gen_range(0..g.degree(v))];
                if removed.contains(&u) || !touched.insert((v.min(u), v.max(u))) {
                    continue;
                }
                batch.delete_edge(v, u);
                break;
            }
        }
    }
    batch
}

/// Normalized measurements of one churn point: a bootstrap plus
/// `epochs` delta/repair cycles.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// The coordinates this point was measured at.
    pub job: ChurnJob,
    /// Actual node count of the generated initial instance.
    pub nodes: usize,
    /// The one-shot bootstrap run, normalized exactly like a grid
    /// point (same code path — a zero-delta churn point embeds a
    /// byte-identical copy of the corresponding grid point).
    pub bootstrap: GridPoint,
    /// Epochs actually run.
    pub epochs: u64,
    /// Total effective deltas applied.
    pub deltas: u64,
    /// Total nodes woken by repairs.
    pub woken: u64,
    /// Nodes a full recompute would have woken: the active node count,
    /// summed over epochs.
    pub woken_full: u64,
    /// `woken / woken_full` — the locality headline (0 when no epochs
    /// ran).
    pub woken_ratio: f64,
    /// Total MIS evictions from inserted-edge conflicts.
    pub evicted: u64,
    /// Total dominated nodes that lost their dominator.
    pub uncovered: u64,
    /// Total frontier-solver rounds.
    pub repair_rounds: u64,
    /// Maximum per-node awake rounds over all repairs.
    pub awake_max: u64,
    /// Total awake node-rounds spent repairing, per effective delta
    /// (0 when no deltas were applied).
    pub awake_per_delta: f64,
    /// Total MIS-delta stream volume (nodes joined + left).
    pub mis_deltas: u64,
    /// Total messages sent by repairs.
    pub messages: u64,
    /// Total reseeded solver retries.
    pub retries: u64,
    /// Final MIS size.
    pub mis_size: usize,
    /// Final active node count.
    pub active_nodes: usize,
    /// Bootstrap and every epoch verified correct.
    pub correct: bool,
    /// Wall clock of the service path (bootstrap + batches + repairs),
    /// nanoseconds; `timing` section only.
    pub elapsed_ns: u64,
    /// Wall clock of per-epoch full recomputes when
    /// [`ChurnSpec::recompute`] is set (0 otherwise); `timing` only.
    pub recompute_ns: u64,
}

/// Aggregates over the seed axis for one `{algorithm × family × n ×
/// rate}`.
#[derive(Debug, Clone)]
pub struct ChurnCell {
    /// Algorithm of this cell.
    pub algorithm: RunnerHandle,
    /// Graph family of this cell.
    pub family: GraphFamily,
    /// Initial node count of this cell.
    pub n: usize,
    /// Churn rate of this cell.
    pub rate: f64,
    /// Seeds aggregated.
    pub runs: usize,
    /// Total effective deltas across seeds.
    pub deltas: u64,
    /// Summary of the per-seed woken ratio (repair vs full recompute).
    pub woken_ratio: Summary,
    /// Summary of awake node-rounds per delta.
    pub awake_per_delta: Summary,
    /// Summary of total repair rounds.
    pub repair_rounds: Summary,
    /// Total reseeded solver retries across seeds.
    pub retries: u64,
    /// Whether every seed's bootstrap and every epoch verified.
    pub all_correct: bool,
}

/// The outcome of [`run_churn`].
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// The spec that ran.
    pub spec: ChurnSpec,
    /// Per-run measurements, in grid order.
    pub points: Vec<ChurnPoint>,
    /// Per-cell aggregates, in grid order.
    pub cells: Vec<ChurnCell>,
}

/// Sustained-throughput figures from a `serve` run, recorded in the
/// meta line (machine-dependent, excluded from the payload).
#[derive(Debug, Clone)]
pub struct ServeThroughput {
    /// Node count of the serve instance.
    pub n: usize,
    /// Algorithm key that serviced it.
    pub algorithm: String,
    /// Delta batches applied.
    pub batches: u64,
    /// Effective deltas applied.
    pub deltas: u64,
    /// Wall clock of the serve loop (excluding bootstrap), ms.
    pub wall_ms: u128,
    /// Sustained effective deltas per second.
    pub deltas_per_sec: f64,
}

/// Non-deterministic churn-run metadata (kept out of the payload).
#[derive(Debug, Clone)]
pub struct ChurnMeta {
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall clock of the whole grid, ms.
    pub wall_ms: u128,
    /// Optional serve-bin throughput measurement.
    pub serve: Option<ServeThroughput>,
}

/// Runs one churn point on a caller-provided scratch.
pub fn run_churn_point(
    job: &ChurnJob,
    spec: &ChurnSpec,
    scratch: &mut ScratchArena,
) -> ChurnPoint {
    let start = Instant::now();
    let g = job.family.generate(job.n, job.seed);
    let nodes = g.n();
    let grid_job = GridJob {
        algorithm: job.algorithm.clone(),
        family: job.family,
        n: job.n,
        seed: job.seed,
    };
    let res = job.algorithm.run_with_scratch(&g, job.seed, scratch);
    let (bootstrap, result) = point_from_run(&grid_job, nodes, res);

    let mut point = ChurnPoint {
        job: job.clone(),
        nodes,
        epochs: 0,
        deltas: 0,
        woken: 0,
        woken_full: 0,
        woken_ratio: 0.0,
        evicted: 0,
        uncovered: 0,
        repair_rounds: 0,
        awake_max: 0,
        awake_per_delta: 0.0,
        mis_deltas: 0,
        messages: 0,
        retries: 0,
        mis_size: bootstrap.mis_size,
        active_nodes: nodes,
        correct: bootstrap.correct,
        elapsed_ns: 0,
        recompute_ns: 0,
        bootstrap,
    };
    // Can't service from an aborted run or an invalid MIS; report the
    // bootstrap and stop.
    let Some(r) = result.filter(|_| point.correct) else {
        point.elapsed_ns = start.elapsed().as_nanos() as u64;
        return point;
    };

    let mut service =
        MisService::from_parts(job.algorithm.clone(), DynGraph::new(g), r.states, job.seed);
    let deltas_per_epoch = (job.rate * nodes as f64).round() as usize;
    let mut awake_total = 0u64;
    let mut recompute_ns = 0u64;
    for epoch in 0..spec.epochs {
        let batch = random_batch(
            service.graph(),
            deltas_per_epoch,
            spec.insert_frac,
            spec.node_churn,
            mix(job.seed, 0x10_0000 + epoch as u64),
        );
        let rep = match service.apply(&batch, scratch) {
            Ok(rep) => rep,
            Err(e) => {
                point.correct = false;
                point.bootstrap.sim_error = Some(format!("epoch {epoch}: {e}"));
                break;
            }
        };
        point.epochs += 1;
        point.deltas += rep.deltas;
        point.woken += rep.woken;
        point.woken_full += service.graph().active_count() as u64;
        point.evicted += rep.evicted;
        point.uncovered += rep.uncovered;
        point.repair_rounds += rep.repair_rounds;
        point.awake_max = point.awake_max.max(rep.awake_max);
        point.mis_deltas += (rep.joined.len() + rep.left.len()) as u64;
        point.messages += rep.messages;
        point.retries += rep.retries;
        awake_total += rep.awake_total;
        point.correct &= rep.correct;

        if spec.recompute {
            // Time what a from-scratch run on the current active graph
            // costs; the result is discarded and the payload unaffected.
            let t = Instant::now();
            let keep: Vec<NodeId> = (0..service.graph().n() as NodeId)
                .filter(|&v| service.graph().is_active(v))
                .collect();
            let (sub, _) = service.graph().graph().induced(&keep);
            let _ = job.algorithm.run_with_scratch(
                &sub,
                mix(job.seed, 0x20_0000 + epoch as u64),
                scratch,
            );
            recompute_ns += t.elapsed().as_nanos() as u64;
        }
    }
    if point.woken_full > 0 {
        point.woken_ratio = point.woken as f64 / point.woken_full as f64;
    }
    if point.deltas > 0 {
        point.awake_per_delta = awake_total as f64 / point.deltas as f64;
    }
    point.mis_size = service.mis_size();
    point.active_nodes = service.graph().active_count();
    point.recompute_ns = recompute_ns;
    point.elapsed_ns = start.elapsed().as_nanos() as u64 - recompute_ns;
    point
}

/// Runs the whole churn grid, fanning jobs over `spec.threads` workers
/// with per-worker scratch reuse. Points and cells come back in grid
/// order and — wall-clock fields apart — bit-identical for every
/// thread count.
///
/// # Errors
///
/// [`SpecError::DuplicateKey`] when an axis lists a value twice.
pub fn run_churn(spec: &ChurnSpec) -> Result<ChurnResult, SpecError> {
    spec.check_axes()?;
    let points = fan_out(&spec.jobs(), spec.threads, |scratch, job| {
        run_churn_point(job, spec, scratch)
    });
    let cells = match spec.seeds.len() {
        0 => Vec::new(),
        runs => points.chunks(runs).map(ChurnCell::of).collect(),
    };
    Ok(ChurnResult { spec: spec.clone(), points, cells })
}

impl ChurnPoint {
    /// The point's deterministic JSON object — one line of the
    /// `points` section of `BENCH_churn.json`. The embedded
    /// `bootstrap` object reuses the grid point format verbatim.
    pub fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"n\":{},\"rate\":{},\"seed\":{},\
             \"nodes\":{},\"bootstrap\":{},\"epochs\":{},\"deltas\":{},\"woken\":{},\
             \"woken_full\":{},\"woken_ratio\":{},\"evicted\":{},\"uncovered\":{},\
             \"repair_rounds\":{},\"awake_max\":{},\"awake_per_delta\":{},\"mis_deltas\":{},\
             \"messages\":{},\"retries\":{},\"mis_size\":{},\"active_nodes\":{},\"correct\":{}}}",
            json_escape(self.job.algorithm.key()),
            self.job.family.key(),
            self.job.n,
            self.job.rate,
            self.job.seed,
            self.nodes,
            self.bootstrap.json(),
            self.epochs,
            self.deltas,
            self.woken,
            self.woken_full,
            self.woken_ratio,
            self.evicted,
            self.uncovered,
            self.repair_rounds,
            self.awake_max,
            self.awake_per_delta,
            self.mis_deltas,
            self.messages,
            self.retries,
            self.mis_size,
            self.active_nodes,
            self.correct,
        )
    }
}

impl ChurnCell {
    /// Aggregates one cell's points (its seeds, in seed order).
    fn of(chunk: &[ChurnPoint]) -> ChurnCell {
        let head = &chunk[0].job;
        ChurnCell {
            algorithm: head.algorithm.clone(),
            family: head.family,
            n: head.n,
            rate: head.rate,
            runs: chunk.len(),
            deltas: chunk.iter().map(|p| p.deltas).sum(),
            woken_ratio: summary(chunk, |p| p.woken_ratio),
            awake_per_delta: summary(chunk, |p| p.awake_per_delta),
            repair_rounds: summary(chunk, |p| p.repair_rounds as f64),
            retries: chunk.iter().map(|p| p.retries).sum(),
            all_correct: chunk.iter().all(|p| p.correct),
        }
    }

    /// The payload fields that identify one churn cell, in key order.
    pub const KEY_FIELDS: [&'static str; 4] = ["algorithm", "family", "n", "rate"];

    /// This cell's identity as textual key components matching
    /// [`Self::KEY_FIELDS`] and the artifact JSON spelling (the rate
    /// renders exactly as the payload writes it).
    pub fn cell_key(&self) -> Vec<String> {
        vec![
            self.algorithm.key().to_string(),
            self.family.key(),
            self.n.to_string(),
            format!("{}", self.rate),
        ]
    }

    fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"n\":{},\"rate\":{},\"runs\":{},\
             \"deltas\":{},\"woken_ratio\":{},\"awake_per_delta\":{},\"repair_rounds\":{},\
             \"retries\":{},\"all_correct\":{}}}",
            json_escape(self.algorithm.key()),
            self.family.key(),
            self.n,
            self.rate,
            self.runs,
            self.deltas,
            summary_json(&self.woken_ratio),
            summary_json(&self.awake_per_delta),
            summary_json(&self.repair_rounds),
            self.retries,
            self.all_correct,
        )
    }
}

impl ChurnResult {
    /// The deterministic JSON payload: schema id, spec echo, cells,
    /// points. Byte-identical across thread counts and repeat runs.
    pub fn payload_json(&self) -> String {
        self.json_with_meta(None)
    }

    /// The full JSON document: payload plus single-line `meta` and
    /// `timing` sections (both excluded from determinism comparisons).
    pub fn to_json(&self, meta: &ChurnMeta) -> String {
        self.json_with_meta(Some(meta))
    }

    fn json_with_meta(&self, meta: Option<&ChurnMeta>) -> String {
        let meta = meta.map(|m| {
            let grid = GridMeta { threads: m.threads, wall_ms: m.wall_ms };
            let elapsed = self.points.iter().map(|p| p.elapsed_ns);
            let [mut meta, mut timing] = meta_lines(&grid, elapsed);
            if let Some(s) = &m.serve {
                meta.push_str(&format!(
                    ", \"serve\": {{\"n\": {}, \"algorithm\": \"{}\", \"batches\": {}, \
                     \"deltas\": {}, \"wall_ms\": {}, \"deltas_per_sec\": {}}}",
                    s.n,
                    json_escape(&s.algorithm),
                    s.batches,
                    s.deltas,
                    s.wall_ms,
                    s.deltas_per_sec,
                ));
            }
            let recompute = list(self.points.iter().map(|p| p.recompute_ns));
            timing.push_str(&format!(", \"recompute_ns\": [{recompute}]"));
            [meta, timing]
        });
        let spec = format!(
            "\"algorithms\": [{}], \"families\": [{}], \"sizes\": [{}], \"rates\": [{}], \
             \"epochs\": {}, \"insert_frac\": {}, \"node_churn\": {}, \"seeds\": [{}]",
            quoted(self.spec.algorithms.iter().map(RunnerHandle::key)),
            quoted(self.spec.families.iter().map(|f| f.key())),
            list(&self.spec.sizes),
            list(&self.spec.rates),
            self.spec.epochs,
            self.spec.insert_frac,
            self.spec.node_churn,
            list(&self.spec.seeds),
        );
        document(
            "awake-mis/bench-churn/v1",
            meta,
            &spec,
            self.cells.iter().map(ChurnCell::json),
            self.points.iter().map(ChurnPoint::json),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_registry;
    use awake_mis_core::check_mis_survivors;

    fn tiny_spec(threads: usize) -> ChurnSpec {
        ChurnSpec {
            algorithms: default_registry().resolve_list("luby,vt").unwrap(),
            families: vec![GraphFamily::Er, GraphFamily::Tree],
            sizes: vec![48],
            rates: vec![0.0, 0.05],
            epochs: 4,
            insert_frac: 0.5,
            node_churn: 0.1,
            seeds: vec![1, 2],
            threads,
            recompute: false,
        }
    }

    #[test]
    fn churn_grid_shape_and_correctness() {
        let spec = tiny_spec(1);
        let result = run_churn(&spec).unwrap();
        // algorithms × families × sizes × rates (× seeds for points).
        let cells = spec.algorithms.len() * spec.families.len() * spec.sizes.len()
            * spec.rates.len();
        assert_eq!(result.points.len(), cells * spec.seeds.len());
        assert_eq!(result.cells.len(), cells);
        assert!(result.cells.iter().all(|c| c.all_correct), "every epoch must verify");
        for p in &result.points {
            assert_eq!(p.epochs, 4);
            if p.job.rate == 0.0 {
                assert_eq!(p.deltas, 0, "zero rate must apply zero deltas");
                assert_eq!(p.woken, 0, "zero deltas must wake nobody");
            } else {
                assert!(p.deltas > 0);
                assert!(
                    p.woken_ratio < 1.0,
                    "repair must beat full recompute at 5% churn: {}",
                    p.woken_ratio
                );
            }
        }
    }

    #[test]
    fn payload_is_deterministic_and_well_formed() {
        let spec = tiny_spec(1);
        let a = run_churn(&spec).unwrap().payload_json();
        let b = run_churn(&spec).unwrap().payload_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"awake-mis/bench-churn/v1\""));
        assert!(a.contains("\"woken_ratio\""));
        assert!(a.contains("\"bootstrap\":{\"algorithm\""));
        assert!(!a.contains("elapsed_ns"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        assert!(tiny_spec(1).check_axes().is_ok());
        let dup = |spec: ChurnSpec| match run_churn(&spec) {
            Err(SpecError::DuplicateKey { key }) => key,
            other => panic!("expected a duplicate key, got {:?}", other.map(|r| r.cells.len())),
        };
        assert_eq!(dup(ChurnSpec { rates: vec![0.0, 0.0], ..tiny_spec(1) }), "rate=0");
        let algorithms = default_registry().resolve_list("vt,vt").unwrap();
        assert_eq!(dup(ChurnSpec { algorithms, ..tiny_spec(1) }), "algorithm=vt");
        assert_eq!(dup(ChurnSpec { sizes: vec![48, 48], ..tiny_spec(1) }), "n=48");
    }

    #[test]
    fn service_emits_mis_deltas() {
        let g = GraphFamily::Er.generate(64, 3);
        let runner = default_registry().resolve("luby").unwrap();
        let mut scratch = ScratchArena::new();
        let (mut service, r) =
            MisService::bootstrap(runner, g, 3, &mut scratch).unwrap();
        assert!(r.correct);
        let before = service.mis_size();
        let batch = random_batch(service.graph(), 12, 0.5, 0.2, 99);
        assert!(!batch.is_empty());
        let rep = service.apply(&batch, &mut scratch).unwrap();
        assert!(rep.correct, "{:?}", rep.error);
        check_mis_survivors(service.graph().graph(), service.states(), service.graph().active())
            .unwrap();
        let after = service.mis_size();
        assert_eq!(
            after as i64 - before as i64,
            rep.joined.len() as i64 - rep.left.len() as i64,
            "joined/left must reconcile the MIS size"
        );
    }

    #[test]
    fn random_batch_is_deterministic() {
        let d = DynGraph::new(GraphFamily::Er.generate(32, 5));
        let a = random_batch(&d, 10, 0.5, 0.1, 42);
        let b = random_batch(&d, 10, 0.5, 0.1, 42);
        assert_eq!(a, b);
        let c = random_batch(&d, 10, 0.5, 0.1, 43);
        assert_ne!(a, c, "different seeds should produce different batches");
    }
}
