//! Statistics, growth-rate fitting, table rendering, the energy model,
//! and the algorithm registry for the `awake-mis` experiment harness.
//!
//! Every experiment of the `experiments` binary (crate `bench`) is built
//! from these pieces:
//! [`spec`] turns textual algorithm specs (`awake?round_efficient=true`)
//! into executable [`spec::RunnerHandle`]s through an extensible
//! [`spec::Registry`] (built-ins pre-registered, user algorithms
//! addable); [`runners`] holds the built-in runner implementations and
//! the normalized [`runners::AlgoResult`].
//!
//! Every experiment runs on one core (a private module): one range
//! grammar expands spec strings into axes, one axis check rejects a
//! value listed twice, one job builder turns the axes into
//! `{algorithm × family × n × seed}` jobs, one fan-out spreads them over
//! OS threads with per-worker scratch reuse, and one writer emits the
//! schema / `meta` / `timing` / spec / cells / points document. Three
//! aggregation views sit on top of it: [`grid`] summarizes each
//! `{algorithm × family × n}` cell over seeds — the `BENCH_grid.json`
//! payload; [`sweep`] expands *range-valued* specs
//! (`le?bits=6..14&step=4`) into spec families, prices every run with
//! the energy model, and computes per-cell Pareto frontiers over
//! `(rounds, max awake, mean awake, energy)` — the `BENCH_sweep.json`
//! energy-frontier payload; [`faults`] sweeps the fault-model knobs
//! (`loss`, `crash`, `jitter` — parameters every builtin accepts) into
//! robustness surfaces with survivor-aware verification — the
//! `BENCH_faults.json` payload. [`churn`] extends the grid with a churn
//! rate axis and incremental-repair epochs — `BENCH_churn.json`.
//!
//! Around the core, [`stats`] summarizes repeated runs; [`fit`] decides
//! which growth law (`log n` vs `log log n`) a measured curve follows;
//! [`table`] renders the paper-style tables; and [`energy`] converts
//! awake/sleeping rounds into the energy figures that motivate the
//! sleeping model (paper §1.2).

pub mod churn;
pub mod energy;
mod experiment;
pub mod faults;
pub mod fit;
pub mod grid;
pub mod runners;
pub mod shattering;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod timeline;

pub use churn::{
    random_batch, run_churn, ChurnCell, ChurnJob, ChurnMeta, ChurnPoint, ChurnResult, ChurnSpec,
    EpochReport, MisService, ServeThroughput,
};
pub use energy::EnergyModel;
pub use faults::{fault_axis, run_faults, FaultAxis, FaultCell, FaultResult, FaultSweepSpec};
pub use fit::{fit_linear, growth_exponent, Fit};
pub use grid::{run_grid, GridCell, GridJob, GridMeta, GridPoint, GridResult, GridSpec};
pub use runners::AlgoResult;
pub use spec::{default_registry, AlgorithmSpec, DynRunner, Registry, RunnerHandle, SpecError};
pub use stats::Summary;
pub use sweep::{
    expand_families, run_sweep, SweepCell, SweepEntry, SweepGroup, SweepPoint, SweepResult,
    SweepSpec,
};
pub use table::Table;
pub use timeline::{render_timeline, TimelineError};
