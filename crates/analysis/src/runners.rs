//! Built-in algorithm runners.
//!
//! The executable form of every algorithm in the comparison table lives
//! here behind one [`DynRunner`] implementation: a single builtin
//! runner type holds the algorithm family (with its configuration), its
//! canonical key and the shared execution knobs, and one registration
//! table puts every family into the [`Registry`] under its CLI key and
//! aliases ([`Registry::builtin`]). Parameterized variants are specs,
//! not new code: `awake?round_efficient=true`, `ldt?strategy=round`,
//! `vt?id_upper=1000000`, `na?stride=8`, `gp-avg?balance=0` all resolve
//! to configured builtins. User algorithms plug into the same registry
//! through their own [`DynRunner`] implementations.
//!
//! Three families of measures are covered: the paper's worst-case awake
//! complexity (`awake`, `awake-round`, `ldt`, `vt`, `naive`, `luby`),
//! the *node-averaged* measure of the related sleeping-model work (`na`,
//! `gp-avg`) — see [`awake_mis_core::na_mis`] and
//! [`awake_mis_core::avg_mis`] — and the explicit time/energy trade-off
//! (`le`, [`awake_mis_core::low_energy_mis`]), whose `bits` parameter is
//! the flagship axis of the [`crate::sweep`] energy-frontier harness.
//!
//! Every builtin additionally accepts the shared **fault-model
//! parameters** `loss=P`, `crash=P`, `crash_from=R`, `crash_until=R`
//! and `jitter=J` (see [`sleeping_congest::FaultModel`]), the
//! **execution parameters** `shards=K` (intra-run engine parallelism,
//! `0` = auto; see [`sleeping_congest::SimConfig::shards`]) and
//! `trace=profile|jsonl`, and the ID-based runners (`vt`, `naive`,
//! `ldt`) accept `adv_ids=random|worst` for adversarial ID assignment.
//! Fault parameters spelling their defaults are dropped from the runner
//! key, so `awake?loss=0` *is* `awake` — clean levels of a fault sweep
//! reuse the fault-free identity and payloads. The `shards` and `trace`
//! parameters never enter the key at all: they cannot change results,
//! so `luby?shards=8` *is* `luby` and its payloads stay byte-comparable
//! across machines.

use crate::spec::{AlgorithmSpec, DynRunner, ParamReader, Registry, RunnerHandle, SpecError};
use awake_mis_core::ldt_mis::{LdtMis, LdtMisOutput, LdtMisParams};
use awake_mis_core::{
    AvgMis, AvgMisConfig, AvgMisOutput, AwakeMis, AwakeMisConfig, AwakeMisOutput, LdtStrategy,
    LeMis, LeMisConfig, LeMisOutput, Luby, MisState, NaMis, NaMisConfig, NaiveGreedy, VtMis,
    LE_MAX_BITS,
};
use graphgen::Graph;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sleeping_congest::{
    FaultModel, JsonlSink, Metrics, Profile, Protocol, ScratchArena, SimConfig, SimError,
    Simulator, Standalone, TraceHandle,
};
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Normalized result of one run.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Display name of the algorithm that ran (paper terminology).
    pub algorithm: String,
    /// Canonical spec key of the algorithm that ran (`"awake"`,
    /// `"ldt?strategy=round"`, …).
    pub key: String,
    /// Worst-case awake complexity (`max_v A_v`).
    pub awake_max: u64,
    /// Node-averaged awake complexity.
    pub awake_avg: f64,
    /// Round complexity (sleeping + awake).
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Largest message in bits.
    pub max_message_bits: usize,
    /// Size of the computed MIS.
    pub mis_size: usize,
    /// Whether the output verified as a correct MIS — on the survivor
    /// subgraph when the run crashed nodes, on the whole graph otherwise
    /// (see [`awake_mis_core::check_mis_survivors`]).
    pub correct: bool,
    /// Number of nodes that reported a Monte Carlo failure. Crashes are
    /// *not* failures; they are counted in [`AlgoResult::crashed`].
    pub failures: usize,
    /// Number of nodes crashed by the fault model (0 on clean runs).
    pub crashed: usize,
    /// Number of deliverable message copies dropped by the fault model's
    /// lossy links (0 on clean runs).
    pub faulted: u64,
    /// Full engine metrics (per-node awake counts live here; see
    /// [`Metrics::awake_distribution`]).
    pub metrics: Metrics,
    /// Per-node final states (for re-verification by callers).
    pub states: Vec<MisState>,
}

impl AlgoResult {
    /// Builds a normalized result from a finished run: verifies the
    /// states against `g`, counts the MIS, and copies the headline
    /// numbers out of `metrics`. This is the constructor custom
    /// [`DynRunner`]s should use.
    ///
    /// Verification is survivor-aware: nodes crashed by the engine's
    /// [`FaultModel`] (per `metrics.crashed_at`) are exempt, and the
    /// remaining states must form an MIS of the subgraph induced by the
    /// survivors. With no crashes this is exactly the classic
    /// [`awake_mis_core::check_mis`].
    pub fn from_states(
        name: impl Into<String>,
        key: impl Into<String>,
        g: &Graph,
        states: Vec<MisState>,
        failures: usize,
        metrics: Metrics,
    ) -> AlgoResult {
        let alive = metrics.alive();
        let correct =
            failures == 0 && awake_mis_core::check_mis_survivors(g, &states, &alive).is_ok();
        let mis_size = states
            .iter()
            .zip(&alive)
            .filter(|&(&s, &a)| a && s == MisState::InMis)
            .count();
        AlgoResult {
            algorithm: name.into(),
            key: key.into(),
            awake_max: metrics.awake_complexity(),
            awake_avg: metrics.awake_average(),
            rounds: metrics.round_complexity(),
            messages: metrics.messages_sent,
            max_message_bits: metrics.max_message_bits,
            mis_size,
            correct,
            failures,
            crashed: metrics.crashed_count(),
            faulted: metrics.messages_faulted,
            metrics,
            states,
        }
    }
}

/// Distinct random IDs in `[1, upper]`.
fn draw_distinct_ids(n: usize, upper: u64, rng: &mut impl Rng) -> Vec<u64> {
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..=upper);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

// ---------------------------------------------------------------------------
// Parameters shared by every builtin
// ---------------------------------------------------------------------------

/// Reads `name`, rejecting a value that does not parse or falls outside
/// `range` with [`SpecError::BadValue`] describing `expected`.
fn bounded<T: FromStr + PartialOrd + Display>(
    p: &mut ParamReader<'_>,
    name: &'static str,
    range: RangeInclusive<T>,
    expected: &str,
) -> Result<Option<T>, SpecError> {
    match p.parse::<T>(name, expected)? {
        Some(v) if !range.contains(&v) => Err(SpecError::BadValue {
            param: name.to_string(),
            value: v.to_string(),
            expected: expected.to_string(),
        }),
        v => Ok(v),
    }
}

/// Reads `name` as one of `options` (case-insensitive), returning the
/// index of the option given.
fn choice(
    p: &mut ParamReader<'_>,
    name: &'static str,
    options: &[&str],
) -> Result<Option<usize>, SpecError> {
    let Some(value) = p.str(name) else { return Ok(None) };
    let value = value.to_ascii_lowercase();
    match options.iter().position(|o| *o == value) {
        Some(i) => Ok(Some(i)),
        None => Err(SpecError::BadValue {
            param: name.to_string(),
            value,
            expected: options.join(" or "),
        }),
    }
}

/// Execution knobs shared by every builtin: the fault model, the
/// engine's intra-run shard count, and an optional trace sink. Parsed
/// after algorithm-specific parameters, see [`read_exec`].
#[derive(Debug, Clone)]
struct ExecParams {
    fault: FaultModel,
    shards: usize,
    trace: Option<TraceHandle>,
}

/// Reads the shared execution parameters. The fault model: `loss=P`
/// (per-copy i.i.d. message loss), `crash=P` (per-node per-round crash
/// probability), `crash_from=R`/`crash_until=R` (inclusive round window
/// for crashes), `jitter=J` (late-wake jitter: node `v` starts up to
/// `J` rounds late, deterministically per seed). Then `shards=K` — the
/// engine's intra-run shard count (`1` = serial, `0` = one shard per
/// hardware thread; results are byte-identical either way) — and
/// `trace=profile|jsonl`, which attaches an observational sink shared
/// by every run of the resolved runner (`profile` aggregates a phase
/// report retrievable through [`DynRunner::trace`]; `jsonl` streams one
/// event per line to stderr). Tracing never changes results.
fn read_exec(p: &mut ParamReader<'_>) -> Result<ExecParams, SpecError> {
    let mut fault = FaultModel::none();
    let probability = "a probability in [0, 1]";
    fault.loss = bounded(p, "loss", 0.0..=1.0, probability)?.unwrap_or(fault.loss);
    fault.crash = bounded(p, "crash", 0.0..=1.0, probability)?.unwrap_or(fault.crash);
    fault.crash_from = p.u64("crash_from")?.unwrap_or(fault.crash_from);
    fault.crash_until = p.u64("crash_until")?.unwrap_or(fault.crash_until);
    if fault.crash_from > fault.crash_until {
        return Err(SpecError::BadValue {
            param: "crash_until".to_string(),
            value: fault.crash_until.to_string(),
            expected: format!("a round >= crash_from ({})", fault.crash_from),
        });
    }
    fault.wake_jitter = p.u64("jitter")?.unwrap_or(fault.wake_jitter);
    let shards = p.u64("shards")?.unwrap_or(1) as usize;
    let trace = choice(p, "trace", &["profile", "jsonl"])?.map(|i| match i {
        0 => TraceHandle::new(Profile::new()),
        _ => TraceHandle::new(JsonlSink::stderr()),
    });
    Ok(ExecParams { fault, shards, trace })
}

/// Canonical runner key for `spec`: the spec as written, minus fault
/// parameters spelling their default values. `awake?loss=0` keys as
/// `awake`, so a fault sweep's clean level is *the same runner
/// identity* as the fault-free builtin and its grid payloads are
/// byte-identical to the clean grid's.
fn runner_key(spec: &AlgorithmSpec) -> String {
    let kept: Vec<String> = spec
        .params()
        .iter()
        .filter(|(name, value)| {
            let is_default = match name.as_str() {
                "loss" | "crash" => value.parse::<f64>().map(|v| v == 0.0).unwrap_or(false),
                "crash_from" | "jitter" => {
                    value.parse::<u64>().map(|v| v == 0).unwrap_or(false)
                }
                "crash_until" => value.parse::<u64>().map(|v| v == u64::MAX).unwrap_or(false),
                "adv_ids" => value.eq_ignore_ascii_case("random"),
                // Sharding and tracing are pure execution: they can
                // never change results, so they never enter the
                // identity.
                "shards" | "trace" => true,
                _ => false,
            };
            !is_default
        })
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if kept.is_empty() {
        spec.key().to_string()
    } else {
        format!("{}?{}", spec.key(), kept.join("&"))
    }
}

/// Reads the ID-based runners' `adv_ids=random|worst`: `true` for the
/// deterministic adversarial worst case, `false` for seeded-random IDs
/// (the default).
fn read_worst_ids(p: &mut ParamReader<'_>) -> Result<bool, SpecError> {
    Ok(choice(p, "adv_ids", &["random", "worst"])? == Some(1))
}

/// Reads an optional `strategy=awake|round` parameter.
fn read_strategy(p: &mut ParamReader<'_>) -> Result<Option<LdtStrategy>, SpecError> {
    let strategy = choice(p, "strategy", &["awake", "round"])?;
    Ok(strategy.map(|i| [LdtStrategy::Awake, LdtStrategy::Round][i]))
}

/// The adversarial ID multiset for `VT-MIS`: the `n` IDs in
/// `[1, upper]` with the *longest* virtual-tree wake schedules,
/// assigned to nodes in ascending order. VT-MIS nodes attend their full
/// schedule (no early exit), so per-node awake cost is exactly the
/// schedule length — an adversary controlling the ID assignment
/// maximizes the worst case by handing out the longest schedules,
/// which random draws from a wide ID space are unlikely to hit.
fn worst_vt_ids(n: usize, upper: u64) -> Vec<u64> {
    let mut ranked: Vec<u64> = (1..=upper).collect();
    ranked.sort_by_key(|&k| (std::cmp::Reverse(vtree::wake_count(k, upper)), k));
    ranked.truncate(n);
    ranked.sort_unstable();
    ranked
}

// ---------------------------------------------------------------------------
// Built-in runners
// ---------------------------------------------------------------------------

/// A builtin algorithm family with its configuration — everything a
/// [`Builtin`] runs that is not a shared execution knob.
#[derive(Debug, Clone, Copy)]
enum Algo {
    /// `Awake-MIS`: Theorem 13, or Corollary 14 with the round strategy.
    Awake(AwakeMisConfig),
    /// Luby's classical algorithm (always awake).
    Luby,
    /// `NA-MIS` (Chatterjee–Gmyr–Pandurangan, arXiv:2006.07449): `O(1)`
    /// node-averaged awake via immediate dropout; `stride` spaces the
    /// phases without changing any awake count.
    Na(NaMisConfig),
    /// `GP-Avg-MIS` (Ghaffari–Portmann, arXiv:2305.06120): dropout
    /// phases, then a capped ranked schedule; `balance` dials between
    /// node-averaged and worst-case awake cost.
    Avg(AvgMisConfig),
    /// `LE-MIS` (Ghaffari–Portmann, arXiv:2305.11639): the time/energy
    /// trade-off over a `2^bits` rank space (see
    /// `awake_mis_core::low_energy_mis`).
    Le(LeMisConfig),
    /// `VT-MIS` over a random ID permutation of `[1, n]`, distinct
    /// random IDs in `[1, max(id_upper, n)]`, or the `n`
    /// longest-schedule IDs ([`worst_vt_ids`]).
    Vt { id_upper: Option<u64>, worst_ids: bool },
    /// Naive distributed greedy; worst-case IDs are `id[v] = v + 1`,
    /// which chains the greedy dependencies on path/grid families.
    Naive { worst_ids: bool },
    /// `LDT-MIS` on the whole graph with the Lemma 6/7 (`awake`) or
    /// Lemma 15 (`round`) construction; worst-case IDs pack `1..=n` into
    /// the bottom of the ID space (maximal shared label prefixes).
    Ldt { strategy: LdtStrategy, worst_ids: bool },
}

impl Algo {
    /// Display name, in the paper's terminology.
    fn name(&self) -> &'static str {
        match self {
            Algo::Awake(cfg) => match cfg.strategy {
                LdtStrategy::Awake => "Awake-MIS",
                LdtStrategy::Round => "Awake-MIS-Round",
            },
            Algo::Luby => "Luby",
            Algo::Na(_) => "NA-MIS",
            Algo::Avg(_) => "GP-Avg-MIS",
            Algo::Le(_) => "LE-MIS",
            Algo::Vt { .. } => "VT-MIS",
            Algo::Naive { .. } => "Naive-Greedy",
            Algo::Ldt { .. } => "LDT-MIS",
        }
    }
}

/// Reads the `Awake-MIS` family's own parameters on top of its default
/// `cfg` (Theorem 13, or Corollary 14 for `awake-round`).
fn read_awake(
    spec: &AlgorithmSpec,
    p: &mut ParamReader<'_>,
    mut cfg: AwakeMisConfig,
) -> Result<Algo, SpecError> {
    // `round_efficient` is sugar for `strategy`; asking for both is
    // ambiguous, so it is rejected rather than resolved by order.
    match (read_strategy(p)?, p.bool("round_efficient")?) {
        (Some(_), Some(_)) => {
            return Err(SpecError::BadValue {
                param: "round_efficient".to_string(),
                value: spec.canonical(),
                expected: "either strategy= or round_efficient=, not both".to_string(),
            })
        }
        (Some(s), None) => cfg.strategy = s,
        (None, Some(b)) => cfg.strategy = if b { LdtStrategy::Round } else { LdtStrategy::Awake },
        (None, None) => {}
    }
    cfg.delta_factor = p.f64("delta_factor")?.unwrap_or(cfg.delta_factor);
    cfg.comp_factor = p.f64("comp_factor")?.unwrap_or(cfg.comp_factor);
    cfg.ell_density = p.f64("ell_density")?.unwrap_or(cfg.ell_density);
    cfg.always_awake_comm = p.bool("always_awake_comm")?.unwrap_or(cfg.always_awake_comm);
    cfg.uniform_batches = p.bool("uniform_batches")?.unwrap_or(cfg.uniform_batches);
    Ok(Algo::Awake(cfg))
}

/// A protocol output carrying an MIS decision and a Monte Carlo
/// failure flag.
trait Decision {
    fn decision(&self) -> (MisState, bool);
}

impl Decision for MisState {
    fn decision(&self) -> (MisState, bool) {
        (*self, false)
    }
}

macro_rules! flagged_decision {
    ($($output:ty),*) => {$(
        impl Decision for $output {
            fn decision(&self) -> (MisState, bool) {
                (self.state, self.failed)
            }
        }
    )*};
}

// Adjacent rank collisions (GP-Avg-MIS), epoch-budget exhaustion
// (LE-MIS) and overflowing LDT stages are Monte Carlo failures, reported
// alike (module docs of the respective `awake_mis_core` protocols).
flagged_decision!(AwakeMisOutput, AvgMisOutput, LeMisOutput, LdtMisOutput);

/// Every builtin runner: one algorithm family, its canonical key, and
/// the shared execution knobs. Built from a spec by the registration
/// table [`BUILTINS`].
struct Builtin {
    name: &'static str,
    key: String,
    exec: ExecParams,
    algo: Algo,
}

impl Builtin {
    /// Simulates `nodes` on `g` under the runner's execution knobs and
    /// normalizes the per-node decisions into an [`AlgoResult`].
    fn simulate<P>(
        &self,
        g: &Graph,
        seed: u64,
        scratch: &mut ScratchArena,
        nodes: Vec<P>,
    ) -> Result<AlgoResult, SimError>
    where
        P: Protocol + Send,
        P::Msg: Send + Sync + 'static,
        P::Output: Decision,
    {
        let cfg = SimConfig {
            fault: self.exec.fault.clone(),
            shards: self.exec.shards,
            trace: self.exec.trace.clone(),
            ..SimConfig::seeded(seed)
        };
        let report = Simulator::new(g.clone(), nodes, cfg).run_in(scratch)?;
        let failures = report.outputs.iter().filter(|o| o.decision().1).count();
        let states = report.outputs.into_iter().map(|o| o.decision().0).collect();
        Ok(AlgoResult::from_states(self.name, &self.key, g, states, failures, report.metrics))
    }
}

impl DynRunner for Builtin {
    fn name(&self) -> &str {
        self.name
    }

    fn key(&self) -> &str {
        &self.key
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.exec.trace.as_ref()
    }

    fn run_on(
        &self,
        g: &Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<AlgoResult, SimError> {
        let n = g.n();
        let id_rng = || SmallRng::seed_from_u64(seed ^ 0x77);
        let shuffled = || {
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            ids.shuffle(&mut id_rng());
            ids
        };
        match self.algo {
            Algo::Awake(cfg) => {
                self.simulate(g, seed, scratch, (0..n).map(|_| AwakeMis::new(cfg)).collect())
            }
            Algo::Luby => self.simulate(g, seed, scratch, (0..n).map(|_| Luby::new()).collect()),
            Algo::Na(cfg) => {
                self.simulate(g, seed, scratch, (0..n).map(|_| NaMis::new(cfg)).collect())
            }
            Algo::Avg(cfg) => {
                self.simulate(g, seed, scratch, (0..n).map(|_| AvgMis::new(cfg)).collect())
            }
            Algo::Le(cfg) => {
                self.simulate(g, seed, scratch, (0..n).map(|_| LeMis::new(cfg)).collect())
            }
            Algo::Vt { id_upper, worst_ids } => {
                let upper = id_upper.map_or(n as u64, |u| u.max(n as u64));
                let ids = match (worst_ids, id_upper) {
                    (true, _) => worst_vt_ids(n, upper),
                    (false, None) => shuffled(),
                    (false, Some(_)) => draw_distinct_ids(n, upper, &mut id_rng()),
                };
                let nodes = ids.iter().map(|&id| Standalone::new(VtMis::new(id, upper, None)));
                self.simulate(g, seed, scratch, nodes.collect())
            }
            Algo::Naive { worst_ids } => {
                let ids = if worst_ids { (1..=n as u64).collect() } else { shuffled() };
                let nodes = ids.iter().map(|&id| NaiveGreedy::new(id, n as u64));
                self.simulate(g, seed, scratch, nodes.collect())
            }
            Algo::Ldt { strategy, worst_ids } => {
                let id_upper = (n.max(4) as u64).pow(3).max(1 << 24);
                let ids = if worst_ids {
                    (1..=n as u64).collect()
                } else {
                    draw_distinct_ids(n, id_upper, &mut id_rng())
                };
                let k = n.max(1) as u32;
                let nodes = ids.iter().map(|&my_id| {
                    Standalone::new(LdtMis::new(LdtMisParams { my_id, id_upper, k, strategy }))
                });
                self.simulate(g, seed, scratch, nodes.collect())
            }
        }
    }
}

/// Reads a builtin family's own parameters into its [`Algo`].
type ReadAlgo = fn(&AlgorithmSpec, &mut ParamReader<'_>) -> Result<Algo, SpecError>;

/// The registration table, in comparison-table order: CLI key plus
/// aliases, the `--list-algos` description, and the family's parameter
/// reader. Every entry also accepts the shared execution parameters
/// ([`read_exec`]).
const BUILTINS: [(&[&str], &str, ReadAlgo); 9] = [
    (
        &["awake", "awake-mis"],
        "Awake-MIS (Theorem 13): O(log log n) awake. Params: strategy=awake|round, \
         round_efficient, delta_factor, comp_factor, ell_density, always_awake_comm, \
         uniform_batches",
        |spec, p| read_awake(spec, p, AwakeMisConfig::default()),
    ),
    (
        &["awake-round", "awake-mis-round"],
        "Awake-MIS with round-efficient LDTs (Corollary 14). Same params as awake",
        |spec, p| read_awake(spec, p, AwakeMisConfig::round_efficient()),
    ),
    (
        &["ldt", "ldt-mis"],
        "LDT-MIS on the whole graph (Lemma 11). Params: strategy=awake|round, \
         adv_ids=random|worst",
        |_, p| {
            let strategy = read_strategy(p)?.unwrap_or(LdtStrategy::Awake);
            Ok(Algo::Ldt { strategy, worst_ids: read_worst_ids(p)? })
        },
    ),
    (
        &["vt", "vt-mis"],
        "VT-MIS (Lemma 10): O(log I) awake. Params: id_upper=U (ID-space sweep), \
         adv_ids=random|worst (adversarial longest-schedule IDs)",
        |_, p| {
            let id_upper = p.u64("id_upper")?;
            Ok(Algo::Vt { id_upper, worst_ids: read_worst_ids(p)? })
        },
    ),
    (
        &["naive", "naive-greedy"],
        "Naive distributed greedy baseline (always awake, Θ(I) rounds). Params: \
         adv_ids=random|worst",
        |_, p| Ok(Algo::Naive { worst_ids: read_worst_ids(p)? }),
    ),
    (&["luby"], "Luby's algorithm (always awake, Θ(log n)). No params", |_, _| Ok(Algo::Luby)),
    (
        &["na", "na-mis"],
        "NA-MIS (CGP 2020): O(1) node-averaged awake via dropout phases. Params: stride=R \
         (rounds between phases, default 2)",
        |_, p| {
            let d = NaMisConfig::default();
            let expected = "an integer ≥ 2 (a phase spans two rounds)";
            let stride = bounded(p, "stride", 2..=u64::MAX, expected)?;
            Ok(Algo::Na(NaMisConfig { stride: stride.unwrap_or(d.stride), ..d }))
        },
    ),
    (
        &["gp-avg", "gp-avg-mis"],
        "GP-Avg-MIS (GP 2023): dropout + capped ranked finish. Params: balance=K \
         (dropout phases before the ranked stage, default 3)",
        |_, p| {
            let balance = p.u64("balance")?.unwrap_or(AvgMisConfig::default().balance);
            Ok(Algo::Avg(AvgMisConfig { balance }))
        },
    ),
    (
        &["le", "le-mis"],
        "LE-MIS (GP 2023 low-energy): epoch-ranked time/energy trade-off. Params: bits=B \
         (rank bits per epoch, default auto = ⌈log₂ n⌉), max_epochs=E (Monte Carlo \
         budget, default 64)",
        |_, p| {
            let d = LeMisConfig::default();
            let range = 1..=u64::from(LE_MAX_BITS);
            let bits = bounded(p, "bits", range, &format!("an integer in [1, {LE_MAX_BITS}]"))?;
            let epochs = bounded(p, "max_epochs", 1..=u64::MAX, "a positive epoch budget")?;
            Ok(Algo::Le(LeMisConfig {
                bits: bits.map_or(d.bits, |b| b as u32),
                max_epochs: epochs.unwrap_or(d.max_epochs),
            }))
        },
    ),
];

/// Registers every built-in algorithm family from [`BUILTINS`]. Called
/// by [`Registry::builtin`].
pub(crate) fn register_builtins(reg: &mut Registry) {
    for (keys, about, read) in BUILTINS {
        reg.register_aliased(keys, about, move |spec| {
            let mut p = spec.reader();
            let algo = read(spec, &mut p)?;
            let exec = read_exec(&mut p)?;
            p.finish()?;
            Ok(RunnerHandle::new(Builtin { name: algo.name(), key: runner_key(spec), exec, algo }))
        })
        .expect("builtin keys are distinct");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_registry;
    use graphgen::generators;

    #[test]
    fn every_builtin_runs_and_verifies() {
        let g = generators::gnp(60, 0.1, &mut SmallRng::seed_from_u64(1));
        let reg = default_registry();
        let keys: Vec<String> = reg.keys().map(str::to_string).collect();
        assert_eq!(
            keys,
            ["awake", "awake-round", "ldt", "vt", "naive", "luby", "na", "gp-avg", "le"],
            "comparison-table order"
        );
        for key in &keys {
            let runner = reg.resolve(key).expect("builtin resolves");
            let r = runner.run(&g, 5).expect("run");
            assert!(r.correct, "{} produced an invalid MIS", runner.name());
            assert!(r.mis_size > 0);
            assert!(r.awake_max > 0);
            assert!(r.awake_avg <= r.awake_max as f64);
            assert_eq!(r.algorithm, runner.name());
            assert_eq!(r.key, *key);
            // The distribution view agrees with the headline numbers.
            let d = r.metrics.awake_distribution();
            assert_eq!(d.max, r.awake_max, "{key}: distribution max");
            assert!((d.mean - r.awake_avg).abs() < 1e-12, "{key}: distribution mean");
            assert!(d.median <= d.p95 && d.p95 <= d.max as f64, "{key}: quantile order");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One dirty scratch reused across all algorithms and two graphs
        // must reproduce the fresh-allocation results exactly.
        let mut scratch = ScratchArena::new();
        let reg = default_registry();
        for (n, p, seed) in [(40usize, 0.15, 3u64), (70, 0.08, 9)] {
            let g = generators::gnp(n, p, &mut SmallRng::seed_from_u64(seed));
            for key in reg.keys() {
                let runner = reg.resolve(key).expect("builtin resolves");
                let fresh = runner.run(&g, seed).expect("fresh");
                let reused =
                    runner.run_with_scratch(&g, seed, &mut scratch).expect("reused");
                assert_eq!(fresh.states, reused.states, "{key} diverged");
                assert_eq!(fresh.awake_max, reused.awake_max);
                assert_eq!(fresh.rounds, reused.rounds);
                assert_eq!(fresh.messages, reused.messages);
                assert_eq!(fresh.metrics.active_rounds, reused.metrics.active_rounds);
            }
        }
    }

    #[test]
    fn display_names_resolve_as_aliases() {
        let reg = default_registry();
        for (key, name) in [
            ("awake", "Awake-MIS"),
            ("awake-round", "Awake-MIS-Round"),
            ("ldt", "LDT-MIS"),
            ("vt", "VT-MIS"),
            ("naive", "Naive-Greedy"),
            ("luby", "Luby"),
            ("na", "NA-MIS"),
            ("gp-avg", "GP-Avg-MIS"),
            ("le", "LE-MIS"),
        ] {
            assert_eq!(reg.resolve(key).unwrap().name(), name);
            assert_eq!(reg.resolve(name).unwrap().name(), name, "display-name alias {name}");
        }
        assert!(reg.resolve("quantum").is_err());
    }

    #[test]
    fn awake_ordering_holds_on_midsize_graph() {
        // The headline ordering at moderate n: VT-MIS ≤ O(log n) <
        // Naive = n awake; Awake-MIS ≪ its own round complexity.
        let g = generators::gnp(128, 0.08, &mut SmallRng::seed_from_u64(2));
        let reg = default_registry();
        let vt = reg.resolve("vt").unwrap().run(&g, 3).unwrap();
        let naive = reg.resolve("naive").unwrap().run(&g, 3).unwrap();
        assert!(vt.awake_max * 4 < naive.awake_max);
        let am = reg.resolve("awake").unwrap().run(&g, 3).unwrap();
        assert!(am.awake_max * 100 < am.rounds);
        // The node-averaged entrant: its *average* beats its own worst
        // case by a wide margin (the whole point of the measure).
        let na = reg.resolve("na").unwrap().run(&g, 3).unwrap();
        assert!(na.awake_avg * 2.0 < na.awake_max as f64);
    }

    #[test]
    fn param_overrides_change_behavior() {
        let g = generators::gnp(64, 0.1, &mut SmallRng::seed_from_u64(4));
        let reg = default_registry();
        // round_efficient=true must reproduce the awake-round builtin.
        let round = reg.resolve("awake?round_efficient=true").unwrap();
        let legacy = reg.resolve("awake-round").unwrap();
        let a = round.run(&g, 9).unwrap();
        let b = legacy.run(&g, 9).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.awake_max, b.awake_max);
        assert_eq!(a.algorithm, "Awake-MIS-Round");
        assert_eq!(a.key, "awake?round_efficient=true");
        // An ID-space sweep changes VT-MIS's awake complexity scale.
        let vt_small = reg.resolve("vt").unwrap().run(&g, 9).unwrap();
        let vt_wide = reg.resolve("vt?id_upper=1048576").unwrap().run(&g, 9).unwrap();
        assert!(vt_wide.correct && vt_small.correct);
        assert!(
            vt_wide.rounds > vt_small.rounds,
            "a 2^20 ID space must stretch VT-MIS's schedule ({} vs {})",
            vt_wide.rounds,
            vt_small.rounds
        );
    }

    #[test]
    fn na_stride_spaces_the_schedule_without_touching_awake() {
        let g = generators::gnp(72, 0.1, &mut SmallRng::seed_from_u64(6));
        let reg = default_registry();
        let dense = reg.resolve("na").unwrap().run(&g, 11).unwrap();
        let spaced = reg.resolve("na?stride=32").unwrap().run(&g, 11).unwrap();
        assert!(dense.correct && spaced.correct);
        assert_eq!(dense.states, spaced.states);
        assert_eq!(dense.awake_max, spaced.awake_max);
        assert_eq!(dense.awake_avg, spaced.awake_avg);
        assert!(spaced.rounds > 8 * dense.rounds, "{} vs {}", spaced.rounds, dense.rounds);
        assert_eq!(spaced.key, "na?stride=32");
        // A one-round stride cannot hold a two-round phase.
        assert!(matches!(
            reg.resolve("na?stride=1"),
            Err(SpecError::BadValue { ref param, .. }) if param == "stride"
        ));
    }

    #[test]
    fn gp_balance_dials_average_against_worst_case() {
        let g = generators::gnp_avg_degree(256, 8.0, &mut SmallRng::seed_from_u64(8));
        let reg = default_registry();
        let mean_over_seeds = |spec: &str| -> (f64, f64) {
            let runner = reg.resolve(spec).unwrap();
            let mut avg = 0.0;
            let mut max = 0.0;
            for seed in 0..6u64 {
                let r = runner.run(&g, seed).unwrap();
                assert!(r.correct, "{spec} seed {seed}");
                avg += r.awake_avg;
                max += r.awake_max as f64;
            }
            (avg / 6.0, max / 6.0)
        };
        let (avg0, _) = mean_over_seeds("gp-avg?balance=0");
        let (avg6, _) = mean_over_seeds("gp-avg?balance=6");
        assert!(
            avg6 < avg0 / 2.0,
            "balance=6 must at least halve the node average: {avg6} vs {avg0}"
        );
    }

    #[test]
    fn contradictory_strategy_params_are_rejected() {
        let reg = default_registry();
        let err = reg.resolve("awake?strategy=awake&round_efficient=true").unwrap_err();
        assert!(matches!(err, SpecError::BadValue { ref param, .. } if param == "round_efficient"));
        // Each spelling alone still works.
        assert!(reg.resolve("awake?strategy=round").is_ok());
        assert!(reg.resolve("awake?round_efficient=false").is_ok());
        assert!(reg.resolve("ldt?strategy=round").is_ok());
        assert!(matches!(
            reg.resolve("ldt?strategy=sideways"),
            Err(SpecError::BadValue { .. })
        ));
        // The new families are strict about their parameters too.
        assert!(matches!(reg.resolve("na?balance=3"), Err(SpecError::UnknownParam { .. })));
        assert!(matches!(reg.resolve("gp-avg?stride=4"), Err(SpecError::UnknownParam { .. })));
        assert!(matches!(reg.resolve("le?balance=3"), Err(SpecError::UnknownParam { .. })));
        assert!(matches!(
            reg.resolve("le?bits=0"),
            Err(SpecError::BadValue { ref param, .. }) if param == "bits"
        ));
        assert!(matches!(
            reg.resolve("le?bits=41"),
            Err(SpecError::BadValue { ref param, .. }) if param == "bits"
        ));
        assert!(matches!(
            reg.resolve("le?max_epochs=0"),
            Err(SpecError::BadValue { ref param, .. }) if param == "max_epochs"
        ));
        assert!(reg.resolve("le?bits=8&max_epochs=16").is_ok());
    }

    #[test]
    fn le_bits_trade_rounds_for_awake_through_the_registry() {
        // The time/energy dial end to end: fewer rank bits finish in
        // far fewer rounds but cost more awake rounds, seed-averaged.
        let g = generators::gnp_avg_degree(256, 8.0, &mut SmallRng::seed_from_u64(15));
        let reg = default_registry();
        let mean = |spec: &str| -> (f64, f64) {
            let runner = reg.resolve(spec).unwrap();
            let mut awake = 0.0;
            let mut rounds = 0.0;
            for seed in 0..6u64 {
                let r = runner.run(&g, seed).unwrap();
                assert!(r.correct, "{spec} seed {seed}");
                awake += r.awake_max as f64 / 6.0;
                rounds += r.rounds as f64 / 6.0;
            }
            (awake, rounds)
        };
        let (awake_fast, rounds_fast) = mean("le?bits=2");
        let (awake_cheap, rounds_cheap) = mean("le?bits=6");
        assert!(rounds_fast * 2.0 < rounds_cheap, "{rounds_fast} vs {rounds_cheap}");
        assert!(awake_cheap < awake_fast, "{awake_cheap} vs {awake_fast}");
    }

    #[test]
    fn default_fault_params_collapse_to_the_clean_key() {
        let reg = default_registry();
        // Spelled-out defaults are the same runner identity as the bare key.
        for (spec, clean) in [
            ("awake?loss=0", "awake"),
            ("awake?loss=0.0&crash=0&jitter=0", "awake"),
            ("luby?crash=0.0&crash_from=0", "luby"),
            ("vt?adv_ids=random", "vt"),
            ("vt?id_upper=4096&loss=0", "vt?id_upper=4096"),
        ] {
            assert_eq!(reg.resolve(spec).unwrap().key(), clean, "{spec}");
        }
        // Non-default fault params stay in the key, as written.
        assert_eq!(reg.resolve("awake?loss=0.05").unwrap().key(), "awake?loss=0.05");
        assert_eq!(
            reg.resolve("vt?id_upper=6144&adv_ids=worst").unwrap().key(),
            "vt?id_upper=6144&adv_ids=worst"
        );
    }

    #[test]
    fn fault_params_are_validated() {
        let reg = default_registry();
        for bad in ["awake?loss=1.5", "awake?loss=-0.1", "luby?crash=2", "vt?loss=nan"] {
            assert!(
                matches!(reg.resolve(bad), Err(SpecError::BadValue { .. })),
                "{bad} must be rejected"
            );
        }
        assert!(matches!(
            reg.resolve("awake?crash=0.1&crash_from=9&crash_until=3"),
            Err(SpecError::BadValue { ref param, .. }) if param == "crash_until"
        ));
        assert!(matches!(
            reg.resolve("vt?adv_ids=sideways"),
            Err(SpecError::BadValue { ref param, .. }) if param == "adv_ids"
        ));
        assert!(matches!(
            reg.resolve("luby?trace=flamegraph"),
            Err(SpecError::BadValue { ref param, .. }) if param == "trace"
        ));
        // Every builtin accepts the shared fault and execution params.
        for key in default_registry().keys() {
            assert!(
                reg.resolve(&format!(
                    "{key}?loss=0.01&crash=0.0001&jitter=2&shards=2&trace=profile"
                ))
                .is_ok(),
                "{key} must accept fault params"
            );
        }
    }

    #[test]
    fn shards_param_is_execution_only() {
        let reg = default_registry();
        // Any shard count collapses to the bare key — including auto (0).
        assert_eq!(reg.resolve("luby?shards=8").unwrap().key(), "luby");
        assert_eq!(reg.resolve("awake?shards=0").unwrap().key(), "awake");
        assert_eq!(reg.resolve("vt?id_upper=4096&shards=2").unwrap().key(), "vt?id_upper=4096");
        // …and runs are byte-identical to the serial engine, faults and all.
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(33));
        for (serial, sharded) in [
            ("luby", "luby?shards=8"),
            ("awake?loss=0.02&jitter=2", "awake?loss=0.02&jitter=2&shards=4"),
        ] {
            let a = reg.resolve(serial).unwrap().run(&g, 7).unwrap();
            let b = reg.resolve(sharded).unwrap().run(&g, 7).unwrap();
            assert_eq!(a.key, b.key, "{sharded}: key must collapse");
            assert_eq!(a.states, b.states, "{sharded}: states diverged");
            assert_eq!(a.metrics, b.metrics, "{sharded}: metrics diverged");
        }
    }

    #[test]
    fn trace_param_is_execution_only() {
        let reg = default_registry();
        // Both sink kinds collapse to the bare key, composing with the
        // other execution-only params.
        assert_eq!(reg.resolve("luby?trace=profile").unwrap().key(), "luby");
        assert_eq!(reg.resolve("awake?trace=jsonl&shards=4").unwrap().key(), "awake");
        assert_eq!(
            reg.resolve("vt?id_upper=4096&trace=profile").unwrap().key(),
            "vt?id_upper=4096"
        );
        // A traced runner exposes its handle; an untraced one does not.
        let traced = reg.resolve("luby?trace=profile").unwrap();
        assert!(traced.trace().is_some());
        assert!(reg.resolve("luby").unwrap().trace().is_none());
        // Runs are byte-identical to the untraced runner — sharded and
        // faulted included — and the profile actually aggregated them.
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(33));
        for (plain, with_trace) in [
            ("luby", "luby?trace=profile"),
            ("awake?loss=0.02&shards=4", "awake?loss=0.02&shards=4&trace=profile"),
        ] {
            let a = reg.resolve(plain).unwrap().run(&g, 7).unwrap();
            let runner = reg.resolve(with_trace).unwrap();
            let b = runner.run(&g, 7).unwrap();
            assert_eq!(a.key, b.key, "{with_trace}: key must collapse");
            assert_eq!(a.states, b.states, "{with_trace}: states diverged");
            assert_eq!(a.metrics, b.metrics, "{with_trace}: metrics diverged");
            let report = runner.trace().unwrap().report().expect("profile report");
            assert!(report.contains("1 run,"), "report should cover the run:\n{report}");
        }
    }

    #[test]
    fn zero_rate_fault_runs_are_byte_identical_to_clean_runs() {
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(21));
        let reg = default_registry();
        for key in ["awake", "luby", "vt", "na"] {
            let clean = reg.resolve(key).unwrap().run(&g, 13).unwrap();
            let zeroed =
                reg.resolve(&format!("{key}?loss=0&crash=0&jitter=0")).unwrap().run(&g, 13).unwrap();
            assert_eq!(clean.key, zeroed.key, "{key}: keys must collapse");
            assert_eq!(clean.states, zeroed.states, "{key}: states diverged");
            assert_eq!(clean.awake_max, zeroed.awake_max);
            assert_eq!(clean.rounds, zeroed.rounds);
            assert_eq!(clean.messages, zeroed.messages);
            assert_eq!(zeroed.crashed, 0);
            assert_eq!(zeroed.faulted, 0);
        }
    }

    #[test]
    fn lossy_links_are_observable_and_runs_stay_reproducible() {
        let g = generators::gnp(96, 0.1, &mut SmallRng::seed_from_u64(30));
        let reg = default_registry();
        let lossy = reg.resolve("luby?loss=0.05").unwrap();
        let a = lossy.run(&g, 3).unwrap();
        let b = lossy.run(&g, 3).unwrap();
        assert!(a.faulted > 0, "5% loss on a dense run must drop something");
        assert_eq!(a.states, b.states, "lossy runs are deterministic per seed");
        assert_eq!(a.faulted, b.faulted);
        // Luby with message loss mis-coordinates: the detection machinery
        // (survivor-aware check with an all-alive mask = classic check)
        // must notice rather than report a clean MIS, at least for some
        // seeds. Loss never crashes nodes.
        assert_eq!(a.crashed, 0);
        let broken = (0..8u64).filter(|&s| !lossy.run(&g, s).unwrap().correct).count();
        assert!(broken > 0, "5% loss must break Luby on some of 8 seeds");
    }

    #[test]
    fn crashes_are_exempted_by_survivor_verification() {
        let g = generators::gnp(120, 0.08, &mut SmallRng::seed_from_u64(31));
        let reg = default_registry();
        // A crash window confined to the early rounds of Luby: crashed
        // nodes abort mid-protocol, survivors still finish an MIS of the
        // induced subgraph.
        let runner = reg.resolve("luby?crash=0.02&crash_until=3").unwrap();
        let mut crashed_total = 0;
        for seed in 0..6u64 {
            let r = runner.run(&g, seed).unwrap();
            crashed_total += r.crashed;
            assert!(
                r.correct,
                "seed {seed}: survivors must verify (crashed {})",
                r.crashed
            );
            let alive = r.metrics.alive();
            assert_eq!(alive.iter().filter(|&&a| !a).count(), r.crashed);
            awake_mis_core::check_mis_survivors(&g, &r.states, &alive).unwrap();
        }
        assert!(crashed_total > 0, "2% x 4 rounds x 120 nodes x 6 seeds must crash someone");
    }

    #[test]
    fn worst_vt_ids_have_the_longest_schedules() {
        let upper = 6144u64;
        let ids = worst_vt_ids(64, upper);
        assert_eq!(ids.len(), 64);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        let floor = ids.iter().map(|&k| vtree::wake_count(k, upper)).min().unwrap();
        // Every ID *not* selected has a schedule no longer than the
        // shortest selected one.
        for k in (1..=upper).step_by(37) {
            if !ids.contains(&k) {
                assert!(vtree::wake_count(k, upper) <= floor, "id {k} beats the selection");
            }
        }
    }
}
