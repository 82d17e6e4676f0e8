//! Parameter sweeps and the energy frontier: the Pareto view.
//!
//! The sleeping-model literature is a trade-off *surface*: worst-case
//! awake (the source paper), node-averaged awake (Ghaffari–Portmann,
//! arXiv:2305.06120), and explicit energy/time trade-offs
//! (Ghaffari–Portmann, arXiv:2305.11639). Charting that surface means
//! sweeping the knob that moves along it, so this module makes parameter
//! sweeps first-class:
//!
//! 1. **Range-valued spec params** — [`expand`] extends the
//!    [`AlgorithmSpec`] grammar so a parameter value may be an integer
//!    range (`le?bits=6..14`, optionally stepped with `step=4`) or a
//!    comma list (`gp-avg?balance=0,2,4,8`), expanding one spec string
//!    into an ordered family of concrete [`RunnerHandle`]s. Parsing is
//!    strict: unknown keys/params, empty or inverted ranges, zero steps,
//!    duplicate expansion points, and oversized expansions are all
//!    errors. A single-valued spec expands to exactly itself.
//! 2. **The sweep view** — [`run_sweep`] runs
//!    `{expanded spec × family × n × seed}` on the same experiment core
//!    as [`crate::grid`] (same jobs, same fan-out, byte-identical
//!    payloads for every thread count), and prices every run with the
//!    [`EnergyModel`]: worst-node and mean-node energy in millijoules,
//!    residual sleep draw included.
//! 3. **Pareto analysis** — per `{family × n}` cell, every swept
//!    `(algorithm, param)` point is scored on
//!    `(rounds, max awake, mean awake, worst-node energy)` and the
//!    non-dominated frontier is computed ([`dominators`]); dominated
//!    points are annotated with a dominating spec. The committed
//!    `BENCH_sweep.json` (schema `awake-mis/bench-sweep/v1`) is the
//!    serialized result, and `bench-diff` gates on frontier regressions.
//!
//! # Range grammar
//!
//! ```text
//! value  := scalar | range | list
//! range  := int '..' int            # inclusive on both ends, step 1
//! list   := scalar ( ',' scalar )+  # explicit points, any scalar type
//! step=K                            # applies to every range in the spec
//! ```
//!
//! `le?bits=6..14&step=4` → `le?bits=6`, `le?bits=10`, `le?bits=14`.
//! Multiple swept parameters combine as a cartesian product in spec
//! order (the last parameter varies fastest). `step=` without any range
//! is an error, as is a range whose low end exceeds its high end.
//!
//! ```
//! use analysis::spec::default_registry;
//! use analysis::sweep::expand;
//!
//! let group = expand(default_registry(), "gp-avg?balance=0..8&step=4").unwrap();
//! let keys: Vec<&str> = group.runners.iter().map(|r| r.key()).collect();
//! assert_eq!(keys, ["gp-avg?balance=0", "gp-avg?balance=4", "gp-avg?balance=8"]);
//! // A scalar spec is left exactly as it was.
//! assert_eq!(expand(default_registry(), "luby").unwrap().runners.len(), 1);
//! ```

use crate::energy::EnergyModel;
use crate::experiment::{
    distinct, document, expand_params, expand_specs, fan_out, json_escape, meta_lines, product,
    quoted, summary, summary_json, sweep_spec_json,
};
use crate::grid::{run_point, GridMeta, GridPoint};
use crate::spec::{AlgorithmSpec, Registry, RunnerHandle, SpecError};
use crate::stats::Summary;
use graphgen::GraphFamily;

pub use crate::experiment::MAX_EXPANSION;

/// One spec string's expansion: the raw sweep spec as written plus the
/// ordered family of concrete runners it denotes.
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// The sweep spec as written (`"le?bits=6..14&step=4"`).
    pub raw: String,
    /// The expanded concrete runners, in expansion order.
    pub runners: Vec<RunnerHandle>,
}

/// Expands one (possibly range-valued) spec string into its ordered
/// family of concrete runners, resolving each point through `registry`.
///
/// # Errors
///
/// Everything [`AlgorithmSpec::parse`] and the registry reject, plus the
/// sweep-grammar errors documented in the module docs
/// ([`SpecError::BadValue`] for malformed ranges/steps,
/// [`SpecError::DuplicateKey`] when two expansion points collapse to the
/// same canonical spec).
pub fn expand(registry: &Registry, raw: &str) -> Result<SweepGroup, SpecError> {
    let spec = AlgorithmSpec::parse(raw)?;
    let params: Vec<(&str, &str)> =
        spec.params().iter().map(|(name, value)| (name.as_str(), value.as_str())).collect();
    let runners = expand_params("spec", raw, spec.key(), &params)?
        .iter()
        .map(|point| registry.resolve(point))
        .collect::<Result<Vec<_>, _>>()?;
    distinct("algorithm", runners.iter().map(RunnerHandle::key))?;
    Ok(SweepGroup { raw: raw.trim().to_string(), runners })
}

/// Expands one (possibly range-valued) *family* spec into its ordered
/// list of concrete [`GraphFamily`] values, reusing the algorithm-sweep
/// range grammar: `er?avg_deg=8..16&step=4` → `er`, `er?avg_deg=12`,
/// `er?avg_deg=16` (a parameter at its default canonicalizes to the
/// bare family, exactly as [`GraphFamily::parse`] does). Ranges are
/// integer-valued; non-integer dials such as `rgg?radius=…` sweep via
/// comma lists (`rgg?radius=0.03,0.06`).
///
/// ```
/// use analysis::sweep::expand_families;
///
/// let fams = expand_families("er?avg_deg=8..16&step=4").unwrap();
/// let keys: Vec<String> = fams.iter().map(|f| f.key()).collect();
/// assert_eq!(keys, ["er", "er?avg_deg=12", "er?avg_deg=16"]);
/// ```
///
/// # Errors
///
/// [`SpecError::BadValue`] for unknown families, malformed ranges/steps,
/// parameter points [`GraphFamily::parse`] rejects, and oversized
/// expansions; [`SpecError::Syntax`] for non-`name=value` parameters;
/// [`SpecError::DuplicateKey`] when two expansion points collapse to the
/// same canonical family.
pub fn expand_families(raw: &str) -> Result<Vec<GraphFamily>, SpecError> {
    let trimmed = raw.trim();
    let (base, params) = match trimmed.split_once('?') {
        None => (trimmed, Vec::new()),
        Some((base, params)) => (
            base,
            params
                .split('&')
                .map(|part| {
                    part.split_once('=').ok_or_else(|| SpecError::Syntax {
                        spec: trimmed.to_string(),
                        detail: format!("family parameter {part:?} is not `name=value`"),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    let families = expand_params("family", raw, base, &params)?
        .iter()
        .map(|point| {
            GraphFamily::parse(point).ok_or_else(|| SpecError::BadValue {
                param: "family".to_string(),
                value: point.clone(),
                expected: "a family point GraphFamily::parse accepts".to_string(),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    distinct("family", families.iter().map(|f| f.key()))?;
    Ok(families)
}

/// A sweep: range-valued specs crossed with graph families, sizes, and
/// seeds, plus the energy model pricing every run.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep spec strings (range/list-valued; see the module docs).
    pub specs: Vec<String>,
    /// Graph families.
    pub families: Vec<GraphFamily>,
    /// Node counts.
    pub sizes: Vec<usize>,
    /// Seeds (innermost axis), as in [`crate::grid::GridSpec`].
    pub seeds: Vec<u64>,
    /// Worker threads; `0` means all available. Does not affect results.
    pub threads: usize,
    /// Energy model pricing awake and sleeping rounds.
    pub energy: EnergyModel,
}

/// One sweep run: the normalized grid measurements plus its energy bill.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The underlying grid-point measurements.
    pub point: GridPoint,
    /// Worst-node energy over the run, in millijoules (awake draw plus
    /// residual sleep draw until the node's own termination).
    pub energy_max_mj: f64,
    /// Mean node energy over the run, in millijoules.
    pub energy_mean_mj: f64,
}

/// Per-`{family × n}` aggregates of one swept `(algorithm, param)` point.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// The concrete algorithm point.
    pub algorithm: RunnerHandle,
    /// Index into [`SweepResult::groups`] of the spec this point was
    /// expanded from.
    pub group: usize,
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Summary of worst-case awake complexity over seeds.
    pub awake_max: Summary,
    /// Summary of node-averaged awake complexity over seeds.
    pub awake_avg: Summary,
    /// Summary of round complexity over seeds.
    pub rounds: Summary,
    /// Summary of worst-node energy (mJ) over seeds.
    pub energy_max_mj: Summary,
    /// Summary of mean-node energy (mJ) over seeds.
    pub energy_mean_mj: Summary,
    /// Largest message observed across seeds, in bits.
    pub max_message_bits: usize,
    /// Whether every seed verified correct with zero failures.
    pub all_correct: bool,
    /// True when this entry is on the cell's Pareto frontier over
    /// `(rounds, awake max, awake mean, worst-node energy)`, all
    /// minimized. Incorrect entries never make the frontier.
    pub pareto: bool,
    /// For dominated entries: the key of a frontier entry that weakly
    /// improves on every objective.
    pub dominated_by: Option<String>,
}

/// One `{family × n}` cell: every swept point, frontier-annotated.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Graph family of this cell.
    pub family: GraphFamily,
    /// Node count of this cell.
    pub n: usize,
    /// One entry per swept `(algorithm, param)` point, in sweep order.
    pub entries: Vec<SweepEntry>,
}

impl SweepCell {
    /// The payload fields that identify one sweep cell (entries within
    /// a cell are keyed by their `algorithm` spec point).
    pub const KEY_FIELDS: [&'static str; 2] = ["family", "n"];

    /// This cell's identity as textual key components matching
    /// [`Self::KEY_FIELDS`] and the artifact JSON spelling.
    pub fn cell_key(&self) -> Vec<String> {
        vec![self.family.key(), self.n.to_string()]
    }

    /// Keys of the non-dominated entries, in sweep order.
    pub fn frontier(&self) -> Vec<&str> {
        self.entries.iter().filter(|e| e.pareto).map(|e| e.algorithm.key()).collect()
    }

    /// Marks the Pareto frontier over the seed-mean objectives, all
    /// minimized. Incorrect entries are excluded outright: an aborted
    /// or failing run's zeroed measurements must never "dominate".
    fn annotate_frontier(&mut self) {
        let entries = &mut self.entries;
        let scored: Vec<usize> = (0..entries.len()).filter(|&i| entries[i].all_correct).collect();
        let objectives: Vec<Vec<f64>> = scored
            .iter()
            .map(|&i| {
                let e = &entries[i];
                vec![e.rounds.mean, e.awake_max.mean, e.awake_avg.mean, e.energy_max_mj.mean]
            })
            .collect();
        for (rank, dom) in dominators(&objectives).into_iter().enumerate() {
            let i = scored[rank];
            match dom {
                None => entries[i].pareto = true,
                Some(d) => {
                    entries[i].dominated_by = Some(entries[scored[d]].algorithm.key().to_string());
                }
            }
        }
    }

    fn json(&self) -> String {
        let entries: Vec<String> =
            self.entries.iter().map(|e| format!("      {}", e.json())).collect();
        format!(
            "{{\"family\":\"{}\",\"n\":{},\"frontier\":[{}],\"entries\":[\n{}\n    ]}}",
            self.family.key(),
            self.n,
            quoted(self.frontier().into_iter()),
            entries.join(",\n"),
        )
    }
}

/// The outcome of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The sweep that was run.
    pub spec: SweepSpec,
    /// Each input spec's expansion, in input order.
    pub groups: Vec<SweepGroup>,
    /// Per-run measurements, in sweep order (algorithm-major,
    /// seed-minor, exactly like the grid).
    pub points: Vec<SweepPoint>,
    /// Per-`{family × n}` cells with Pareto annotations.
    pub cells: Vec<SweepCell>,
}

/// For each point (a vector of objectives, all minimized), `None` when
/// the point is non-dominated, or `Some(i)` naming the first point that
/// dominates it.
///
/// `q` dominates `p` when `q` is no worse on every objective and
/// strictly better on at least one. Equal points do not dominate each
/// other — both stay on the frontier. The function is pure and
/// deterministic: ties and dominator choice go by index order.
///
/// # Panics
///
/// Panics if the points do not all have the same number of objectives.
pub fn dominators(objectives: &[Vec<f64>]) -> Vec<Option<usize>> {
    let dim = objectives.first().map_or(0, Vec::len);
    assert!(
        objectives.iter().all(|o| o.len() == dim),
        "all points must score the same objectives"
    );
    (0..objectives.len())
        .map(|pi| {
            let p = &objectives[pi];
            (0..objectives.len()).find(|&qi| {
                let q = &objectives[qi];
                qi != pi
                    && q.iter().zip(p).all(|(a, b)| a <= b)
                    && q.iter().zip(p).any(|(a, b)| a < b)
            })
        })
        .collect()
}

/// Expands every spec and runs the sweep, fanning
/// `{algorithm point × family × n × seed}` over `spec.threads` workers
/// with per-worker scratch reuse. Deterministic like the grid: apart
/// from wall-clock fields, the result is identical for every thread
/// count.
///
/// # Errors
///
/// Expansion errors (see [`expand`]); [`SpecError::DuplicateKey`] when
/// a point, family, size or seed is listed twice; also rejects a sweep
/// with zero expanded points or zero seeds ([`SpecError::Syntax`]).
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResult, SpecError> {
    let (groups, jobs) = expand_specs(&spec.specs, &spec.families, &spec.sizes, &spec.seeds)?;
    let energy = spec.energy;
    let points = fan_out(&jobs, spec.threads, |scratch, job| {
        let (point, result) = run_point(job, scratch);
        let (energy_max_mj, energy_mean_mj) = match &result {
            Some(r) => (
                energy.max_node_energy_mj(&r.metrics.awake_rounds, &r.metrics.terminated_at),
                energy.mean_node_energy_mj(&r.metrics.awake_rounds, &r.metrics.terminated_at),
            ),
            None => (0.0, 0.0),
        };
        SweepPoint { point, energy_max_mj, energy_mean_mj }
    });

    // Chunks of one point's seeds arrive algorithm-major; each
    // `{family × n}` cell gathers its entry from every algorithm point.
    let group_of: Vec<usize> =
        groups.iter().enumerate().flat_map(|(gi, g)| vec![gi; g.runners.len()]).collect();
    let (nf, ns) = (spec.families.len(), spec.sizes.len());
    let entries: Vec<SweepEntry> = points
        .chunks(spec.seeds.len())
        .enumerate()
        .map(|(ci, chunk)| SweepEntry::of(chunk, group_of[ci / (nf * ns)]))
        .collect();
    let cells = product(&[nf, ns])
        .map(|i| {
            let at = |ai: usize| entries[(ai * nf + i[0]) * ns + i[1]].clone();
            let mut cell = SweepCell {
                family: spec.families[i[0]],
                n: spec.sizes[i[1]],
                entries: (0..group_of.len()).map(at).collect(),
            };
            cell.annotate_frontier();
            cell
        })
        .collect();
    Ok(SweepResult { spec: spec.clone(), groups, points, cells })
}

impl SweepPoint {
    fn json(&self) -> String {
        let mut s = self.point.json();
        s.pop(); // strip the closing brace, append the energy fields
        s.push_str(&format!(
            ",\"energy_max_mj\":{},\"energy_mean_mj\":{}}}",
            self.energy_max_mj, self.energy_mean_mj
        ));
        s
    }
}

impl SweepEntry {
    /// Aggregates one algorithm point's seeds in one cell; the frontier
    /// annotation comes later, per cell.
    fn of(chunk: &[SweepPoint], group: usize) -> SweepEntry {
        SweepEntry {
            algorithm: chunk[0].point.job.algorithm.clone(),
            group,
            runs: chunk.len(),
            awake_max: summary(chunk, |p| p.point.awake_max as f64),
            awake_avg: summary(chunk, |p| p.point.awake_avg),
            rounds: summary(chunk, |p| p.point.rounds as f64),
            energy_max_mj: summary(chunk, |p| p.energy_max_mj),
            energy_mean_mj: summary(chunk, |p| p.energy_mean_mj),
            max_message_bits: chunk.iter().map(|p| p.point.max_message_bits).max().unwrap_or(0),
            all_correct: chunk.iter().all(|p| p.point.correct),
            pareto: false,
            dominated_by: None,
        }
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"algorithm\":\"{}\",\"group\":{},\"runs\":{},\"awake_max\":{},\
             \"awake_avg\":{},\"rounds\":{},\"energy_max_mj\":{},\"energy_mean_mj\":{},\
             \"max_message_bits\":{},\"all_correct\":{},\"pareto\":{}",
            json_escape(self.algorithm.key()),
            self.group,
            self.runs,
            summary_json(&self.awake_max),
            summary_json(&self.awake_avg),
            summary_json(&self.rounds),
            summary_json(&self.energy_max_mj),
            summary_json(&self.energy_mean_mj),
            self.max_message_bits,
            self.all_correct,
            self.pareto,
        );
        if let Some(d) = &self.dominated_by {
            s.push_str(&format!(",\"dominated_by\":\"{}\"", json_escape(d)));
        }
        s.push('}');
        s
    }
}

impl SweepResult {
    /// The deterministic JSON payload (schema
    /// `awake-mis/bench-sweep/v1`): spec echo with expansions, cells
    /// with frontier annotations, energy-priced points. Byte-identical
    /// across thread counts and repeat runs.
    pub fn payload_json(&self) -> String {
        self.json_with_meta(None)
    }

    /// The full document: the payload plus `meta` and per-point `timing`
    /// sections (excluded from determinism comparisons, like the grid's).
    pub fn to_json(&self, meta: &GridMeta) -> String {
        self.json_with_meta(Some(meta))
    }

    fn json_with_meta(&self, meta: Option<&GridMeta>) -> String {
        let e = &self.spec.energy;
        let s = &self.spec;
        let spec = format!(
            "{}, \"energy\": {{\"awake_mw\": {}, \"sleep_mw\": {}, \"round_ms\": {}}}",
            sweep_spec_json(&s.specs, &self.groups, &s.families, &s.sizes, &s.seeds),
            e.awake_mw,
            e.sleep_mw,
            e.round_ms,
        );
        document(
            "awake-mis/bench-sweep/v1",
            meta.map(|m| meta_lines(m, self.points.iter().map(|p| p.point.elapsed_ns))),
            &spec,
            self.cells.iter().map(SweepCell::json),
            self.points.iter().map(SweepPoint::json),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_registry;

    #[test]
    fn ranges_lists_and_scalars_expand() {
        let reg = default_registry();
        let keys = |raw: &str| -> Vec<String> {
            expand(reg, raw)
                .unwrap()
                .runners
                .iter()
                .map(|r| r.key().to_string())
                .collect()
        };
        assert_eq!(keys("le?bits=6..8"), ["le?bits=6", "le?bits=7", "le?bits=8"]);
        assert_eq!(
            keys("gp-avg?balance=0..8&step=4"),
            ["gp-avg?balance=0", "gp-avg?balance=4", "gp-avg?balance=8"]
        );
        // A step overshooting the high end keeps the in-range points.
        assert_eq!(keys("le?bits=4..9&step=4"), ["le?bits=4", "le?bits=8"]);
        assert_eq!(keys("gp-avg?balance=0,2,4"), ["gp-avg?balance=0", "gp-avg?balance=2", "gp-avg?balance=4"]);
        // Lists are not restricted to integers.
        assert_eq!(keys("ldt?strategy=awake,round"), ["ldt?strategy=awake", "ldt?strategy=round"]);
        // Scalars pass through untouched.
        assert_eq!(keys("awake"), ["awake"]);
        assert_eq!(keys("vt?id_upper=4096"), ["vt?id_upper=4096"]);
    }

    #[test]
    fn cartesian_product_orders_last_axis_fastest() {
        let g = expand(default_registry(), "awake?delta_factor=1,2&comp_factor=3,4").unwrap();
        let keys: Vec<&str> = g.runners.iter().map(|r| r.key()).collect();
        assert_eq!(
            keys,
            [
                "awake?delta_factor=1&comp_factor=3",
                "awake?delta_factor=1&comp_factor=4",
                "awake?delta_factor=2&comp_factor=3",
                "awake?delta_factor=2&comp_factor=4",
            ]
        );
    }

    #[test]
    fn expansion_is_strict() {
        let reg = default_registry();
        // Inverted and malformed ranges.
        assert!(matches!(expand(reg, "le?bits=9..4"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand(reg, "le?bits=a..4"), Err(SpecError::BadValue { .. })));
        // step without a range, zero step.
        assert!(matches!(expand(reg, "le?bits=5&step=2"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand(reg, "le?bits=4..8&step=0"), Err(SpecError::BadValue { .. })));
        // Unknown algorithm / unknown parameter still error.
        assert!(matches!(expand(reg, "quantum?x=1..3"), Err(SpecError::UnknownAlgorithm { .. })));
        assert!(matches!(expand(reg, "luby?x=1..3"), Err(SpecError::UnknownParam { .. })));
        // Oversized expansions fail loudly.
        assert!(matches!(expand(reg, "vt?id_upper=1..100000"), Err(SpecError::BadValue { .. })));
        // Duplicate expansion points collapse to the same key.
        assert!(matches!(
            expand(reg, "gp-avg?balance=2,2"),
            Err(SpecError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn family_ranges_expand_and_canonicalize() {
        let keys = |raw: &str| -> Vec<String> {
            expand_families(raw).unwrap().iter().map(|f| f.key()).collect()
        };
        // The default point canonicalizes to the bare family key, so the
        // grid/sweep cell keys stay stable across spellings.
        assert_eq!(keys("er?avg_deg=8..16&step=4"), ["er", "er?avg_deg=12", "er?avg_deg=16"]);
        assert_eq!(keys("ba?attach=3"), ["ba"]);
        // Non-integer dials sweep via comma lists.
        assert_eq!(keys("rgg?radius=0.03,0.06"), ["rgg?radius=0.03", "rgg?radius=0.06"]);
        // Bare keys pass through untouched.
        assert_eq!(keys("tree"), ["tree"]);
    }

    #[test]
    fn family_expansion_is_strict() {
        assert!(matches!(expand_families("nope"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand_families("er?avg_deg=9..4"), Err(SpecError::BadValue { .. })));
        // Families without that dial reject the parameter.
        assert!(matches!(expand_families("tree?x=1..3"), Err(SpecError::BadValue { .. })));
        // step without a range; malformed parameter syntax.
        assert!(matches!(expand_families("er?avg_deg=5&step=2"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand_families("er?avg_deg"), Err(SpecError::Syntax { .. })));
        // Two expansion points collapsing to one canonical family.
        assert!(matches!(expand_families("er?avg_deg=8,8"), Err(SpecError::DuplicateKey { .. })));
        // Oversized expansions fail loudly.
        assert!(matches!(expand_families("er?avg_deg=1..10000"), Err(SpecError::BadValue { .. })));
    }

    #[test]
    fn pareto_dominators_on_hand_built_points() {
        // p0 is the unique best on x, p1 on y; p2 is dominated by p0;
        // p3 ties p0 exactly (equal points never dominate each other);
        // p4 is dominated by p1 only.
        let pts = vec![
            vec![1.0, 5.0],
            vec![5.0, 1.0],
            vec![2.0, 6.0],
            vec![1.0, 5.0],
            vec![6.0, 1.0],
        ];
        assert_eq!(
            dominators(&pts),
            vec![None, None, Some(0), None, Some(1)]
        );
        // Single point and empty input are trivially non-dominated.
        assert_eq!(dominators(&[vec![3.0, 3.0]]), vec![None]);
        assert_eq!(dominators(&[]), Vec::<Option<usize>>::new());
        // One objective degenerates to the minimum; the annotation picks
        // the first dominator in index order (2.0 already beats 3.0).
        assert_eq!(
            dominators(&[vec![2.0], vec![1.0], vec![3.0]]),
            vec![Some(1), None, Some(0)]
        );
    }

    #[test]
    #[should_panic(expected = "same objectives")]
    fn pareto_rejects_ragged_input() {
        dominators(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn sweep_runs_and_annotates_a_frontier() {
        let spec = SweepSpec {
            specs: vec!["luby".into(), "na".into(), "le?bits=5..7&step=2".into()],
            families: vec![GraphFamily::Er],
            sizes: vec![48],
            seeds: vec![1, 2],
            threads: 1,
            energy: EnergyModel::default(),
        };
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.groups.len(), 3);
        assert_eq!(result.groups[2].runners.len(), 2);
        assert_eq!(result.points.len(), 4 * 2);
        assert_eq!(result.cells.len(), 1);
        let cell = &result.cells[0];
        assert_eq!(cell.entries.len(), 4);
        assert!(cell.entries.iter().all(|e| e.all_correct), "all entries must verify");
        // Every entry is either on the frontier or annotated with a
        // dominator that is itself on the frontier... or at least
        // present in the cell.
        let keys: Vec<&str> = cell.entries.iter().map(|e| e.algorithm.key()).collect();
        for e in &cell.entries {
            match (&e.pareto, &e.dominated_by) {
                (true, None) => {}
                (false, Some(d)) => assert!(keys.contains(&d.as_str()), "dangling dominator {d}"),
                other => panic!("entry {} in impossible state {other:?}", e.algorithm.key()),
            }
        }
        assert!(!cell.frontier().is_empty(), "a non-empty cell has a frontier");
        // Energy is priced on every point.
        for p in &result.points {
            assert!(p.energy_max_mj > 0.0);
            assert!(p.energy_mean_mj > 0.0);
            assert!(p.energy_mean_mj <= p.energy_max_mj + 1e-12);
        }
    }

    #[test]
    fn sweep_payload_shape() {
        let spec = SweepSpec {
            specs: vec!["luby".into(), "gp-avg?balance=0..2&step=2".into()],
            families: vec![GraphFamily::Cycle],
            sizes: vec![24],
            seeds: vec![1],
            threads: 1,
            energy: EnergyModel::default(),
        };
        let result = run_sweep(&spec).unwrap();
        let payload = result.payload_json();
        assert!(payload.contains("\"schema\": \"awake-mis/bench-sweep/v1\""));
        assert!(payload.contains("\"specs\": [\"luby\", \"gp-avg?balance=0..2&step=2\"]"));
        assert!(payload.contains("\"expanded\": [[\"luby\"], [\"gp-avg?balance=0\", \"gp-avg?balance=2\"]]"));
        assert!(payload.contains("\"frontier\":["));
        assert!(payload.contains("\"energy_max_mj\""));
        assert!(!payload.contains("wall_ms"));
        assert!(!payload.contains("elapsed_ns"));
        assert_eq!(payload.matches('{').count(), payload.matches('}').count());
        assert_eq!(payload.matches('[').count(), payload.matches(']').count());
        // The full document strips back to the payload.
        let full = result.to_json(&GridMeta { threads: 2, wall_ms: 5 });
        let stripped: String = full
            .lines()
            .filter(|l| !l.contains("\"meta\"") && !l.contains("\"timing\""))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert_eq!(stripped, payload);
    }

    #[test]
    fn duplicate_points_across_specs_are_rejected() {
        let spec = SweepSpec {
            specs: vec!["luby".into(), "luby".into()],
            families: vec![GraphFamily::Er],
            sizes: vec![16],
            seeds: vec![1],
            threads: 1,
            energy: EnergyModel::default(),
        };
        assert!(matches!(run_sweep(&spec), Err(SpecError::DuplicateKey { .. })));
        // A family listed twice is an error, not a panic.
        let spec = SweepSpec {
            specs: vec!["luby".into()],
            families: vec![GraphFamily::Er, GraphFamily::Er],
            ..spec
        };
        assert!(matches!(run_sweep(&spec), Err(SpecError::DuplicateKey { .. })));
    }
}
