//! First-class algorithm specs and the runner registry.
//!
//! The experiment harness treats algorithms as *data*: a textual
//! [`AlgorithmSpec`] (`key?param=value&…`) names an algorithm family and
//! a bag of parameter overrides, a [`Registry`] turns specs into
//! executable [`RunnerHandle`]s, and everything downstream — the grid
//! harness, the experiment binaries, the examples — consumes the
//! object-safe [`DynRunner`] trait instead of matching on a closed enum.
//! Adding an algorithm (or a parameterization of an existing one) means
//! registering one builder; no dispatch site changes.
//!
//! # Spec grammar
//!
//! ```text
//! spec      := key [ '?' param ( '&' param )* ]
//! param     := name [ '=' value ]        (bare name means "=true")
//! key, name := [A-Za-z0-9_-]+            (case-insensitive)
//! ```
//!
//! Examples: `awake`, `awake?round_efficient=true`, `ldt?strategy=round`,
//! `vt?id_upper=1000000`, `awake?delta_factor=9&comp_factor=18`.
//! Unknown keys, unknown parameters, malformed values, and duplicate
//! parameters are all errors — a typo never silently runs the default.
//!
//! # Registering your own algorithm
//!
//! A runner is anything implementing [`DynRunner`]; the registry maps a
//! CLI key to a builder that may inspect the spec's parameters:
//!
//! ```
//! use analysis::runners::AlgoResult;
//! use analysis::spec::{AlgorithmSpec, DynRunner, Registry, RunnerHandle};
//! use awake_mis_core::Luby;
//! use graphgen::{generators, Graph};
//! use sleeping_congest::{ScratchArena, SimConfig, SimError, Simulator};
//!
//! /// Toy entrant: Luby's algorithm under its own comparison-table row.
//! struct CoinFlip;
//!
//! impl DynRunner for CoinFlip {
//!     fn name(&self) -> &str {
//!         "Coin-Flip"
//!     }
//!     fn key(&self) -> &str {
//!         "coin"
//!     }
//!     fn run_on(
//!         &self,
//!         g: &Graph,
//!         seed: u64,
//!         scratch: &mut ScratchArena,
//!     ) -> Result<AlgoResult, SimError> {
//!         let nodes = (0..g.n()).map(|_| Luby::new()).collect();
//!         let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run_in(scratch)?;
//!         Ok(AlgoResult::from_states("Coin-Flip", "coin", g, report.outputs, 0, report.metrics))
//!     }
//! }
//!
//! let mut reg = Registry::builtin();
//! reg.register("coin", "toy Luby clone", |_spec: &AlgorithmSpec| Ok(RunnerHandle::new(CoinFlip)))?;
//! let runner = reg.resolve("coin")?;
//! let result = runner.run(&generators::cycle(16), 1)?;
//! assert!(result.correct);
//! assert_eq!(runner.key(), "coin");
//! // Registering over an existing key is an error, not a shadow:
//! assert!(reg.register("luby", "dup", |_s| unreachable!()).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::runners::AlgoResult;
use graphgen::Graph;
use sleeping_congest::{ScratchArena, SimError, TraceHandle};
use std::fmt;
use std::sync::Arc;

/// Errors from spec parsing, registry lookup, and runner construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string violated the `key?param=value&…` grammar.
    Syntax {
        /// The offending spec string.
        spec: String,
        /// What was wrong with it.
        detail: String,
    },
    /// No registry entry matches the spec's key.
    UnknownAlgorithm {
        /// The key that failed to resolve.
        key: String,
        /// Every key the registry does know.
        known: Vec<String>,
    },
    /// The algorithm family does not accept this parameter.
    UnknownParam {
        /// The algorithm key.
        key: String,
        /// The rejected parameter name.
        param: String,
        /// Parameters the family does accept.
        known: Vec<String>,
    },
    /// A parameter value failed to parse.
    BadValue {
        /// The parameter name.
        param: String,
        /// The unparsable value.
        value: String,
        /// What a valid value looks like.
        expected: String,
    },
    /// The same parameter appeared twice in one spec.
    DuplicateParam {
        /// The repeated parameter name.
        param: String,
    },
    /// [`Registry::register`] was called with a key (or alias) already
    /// registered, or an experiment lists one value twice (two
    /// expansion points, or two values of one axis).
    DuplicateKey {
        /// The contested key (`axis=value` for an experiment axis).
        key: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { spec, detail } => {
                write!(f, "malformed algorithm spec {spec:?}: {detail}")
            }
            SpecError::UnknownAlgorithm { key, known } => {
                write!(f, "unknown algorithm {key:?} (known: {})", known.join(", "))
            }
            SpecError::UnknownParam { key, param, known } => write!(
                f,
                "algorithm {key:?} has no parameter {param:?} (accepted: {})",
                if known.is_empty() { "none".to_string() } else { known.join(", ") }
            ),
            SpecError::BadValue { param, value, expected } => {
                write!(f, "parameter {param:?}: bad value {value:?} (expected {expected})")
            }
            SpecError::DuplicateParam { param } => {
                write!(f, "parameter {param:?} given more than once")
            }
            // Experiment axes key their values `axis=value`; registry
            // keys never contain `=`.
            SpecError::DuplicateKey { key } => match key.split_once('=') {
                Some((axis, value)) => write!(f, "{axis} {value:?} is listed twice"),
                None => write!(f, "an algorithm is already registered under {key:?}"),
            },
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed algorithm spec: a family key plus a parameter bag.
///
/// Parse one with [`AlgorithmSpec::parse`] (or `str::parse`); turn it
/// back into its canonical string with [`canonical`](Self::canonical)
/// or `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmSpec {
    key: String,
    params: Vec<(String, String)>,
}

fn valid_word(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl AlgorithmSpec {
    /// A spec with no parameters.
    pub fn bare(key: &str) -> AlgorithmSpec {
        AlgorithmSpec { key: key.to_ascii_lowercase(), params: Vec::new() }
    }

    /// Parses `key?param=value&…` (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// [`SpecError::Syntax`] on grammar violations,
    /// [`SpecError::DuplicateParam`] on a repeated parameter name.
    pub fn parse(s: &str) -> Result<AlgorithmSpec, SpecError> {
        let s = s.trim();
        let syntax = |detail: &str| SpecError::Syntax { spec: s.to_string(), detail: detail.into() };
        let (key, rest) = match s.split_once('?') {
            None => (s, None),
            Some((k, r)) => (k, Some(r)),
        };
        if !valid_word(key) {
            return Err(syntax("key must be non-empty [A-Za-z0-9_-]+"));
        }
        let mut params: Vec<(String, String)> = Vec::new();
        if let Some(rest) = rest {
            for piece in rest.split('&') {
                let (name, value) = match piece.split_once('=') {
                    None => (piece, "true"),
                    Some((n, v)) => (n, v),
                };
                if !valid_word(name) {
                    return Err(syntax("parameter name must be non-empty [A-Za-z0-9_-]+"));
                }
                if value.is_empty() {
                    return Err(syntax("parameter value must be non-empty"));
                }
                let name = name.to_ascii_lowercase();
                if params.iter().any(|(n, _)| *n == name) {
                    return Err(SpecError::DuplicateParam { param: name });
                }
                params.push((name, value.to_string()));
            }
        }
        Ok(AlgorithmSpec { key: key.to_ascii_lowercase(), params })
    }

    /// The (lowercased) family key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The parameter bag, in spec order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// The canonical spelling: lowercased key, parameters in spec order,
    /// bare flags normalized to `name=true`.
    pub fn canonical(&self) -> String {
        if self.params.is_empty() {
            return self.key.clone();
        }
        let params: Vec<String> =
            self.params.iter().map(|(n, v)| format!("{n}={v}")).collect();
        format!("{}?{}", self.key, params.join("&"))
    }

    /// A consuming reader over the parameter bag; builders use it so any
    /// parameter they never asked about becomes an
    /// [`UnknownParam`](SpecError::UnknownParam) error in
    /// [`finish`](ParamReader::finish).
    pub fn reader(&self) -> ParamReader<'_> {
        ParamReader { spec: self, used: vec![false; self.params.len()], asked: Vec::new() }
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl std::str::FromStr for AlgorithmSpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlgorithmSpec::parse(s)
    }
}

/// Tracks which parameters of an [`AlgorithmSpec`] a builder consumed.
pub struct ParamReader<'a> {
    spec: &'a AlgorithmSpec,
    used: Vec<bool>,
    asked: Vec<&'static str>,
}

impl<'a> ParamReader<'a> {
    /// The raw string value of `name`, if given. Marks it consumed.
    pub fn str(&mut self, name: &'static str) -> Option<&'a str> {
        self.asked.push(name);
        for (i, (n, v)) in self.spec.params.iter().enumerate() {
            if n == name {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    /// Parses `name` with `FromStr`, describing `expected` on failure.
    ///
    /// # Errors
    ///
    /// [`SpecError::BadValue`] when the value does not parse.
    pub fn parse<T: std::str::FromStr>(
        &mut self,
        name: &'static str,
        expected: &str,
    ) -> Result<Option<T>, SpecError> {
        match self.str(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| SpecError::BadValue {
                param: name.to_string(),
                value: v.to_string(),
                expected: expected.to_string(),
            }),
        }
    }

    /// Parses `name` as an `f64`.
    ///
    /// # Errors
    ///
    /// [`SpecError::BadValue`] when the value does not parse.
    pub fn f64(&mut self, name: &'static str) -> Result<Option<f64>, SpecError> {
        self.parse(name, "a number")
    }

    /// Parses `name` as a `u64`.
    ///
    /// # Errors
    ///
    /// [`SpecError::BadValue`] when the value does not parse.
    pub fn u64(&mut self, name: &'static str) -> Result<Option<u64>, SpecError> {
        self.parse(name, "a non-negative integer")
    }

    /// Parses `name` as a boolean (`true/false/1/0/yes/no`).
    ///
    /// # Errors
    ///
    /// [`SpecError::BadValue`] when the value is none of those.
    pub fn bool(&mut self, name: &'static str) -> Result<Option<bool>, SpecError> {
        match self.str(name) {
            None => Ok(None),
            Some(v) => match v.to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" => Ok(Some(true)),
                "false" | "0" | "no" => Ok(Some(false)),
                _ => Err(SpecError::BadValue {
                    param: name.to_string(),
                    value: v.to_string(),
                    expected: "true/false/1/0/yes/no".to_string(),
                }),
            },
        }
    }

    /// Rejects any parameter the builder never consumed.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownParam`] naming the first unconsumed parameter
    /// and listing every parameter that was accepted.
    pub fn finish(self) -> Result<(), SpecError> {
        for (i, (n, _)) in self.spec.params.iter().enumerate() {
            if !self.used[i] {
                return Err(SpecError::UnknownParam {
                    key: self.spec.key.clone(),
                    param: n.clone(),
                    known: self.asked.iter().map(|s| s.to_string()).collect(),
                });
            }
        }
        Ok(())
    }
}

/// An executable algorithm: the object-safe interface the whole harness
/// dispatches through.
///
/// One implementation per algorithm *family*; parameterized variants are
/// distinct instances built from their [`AlgorithmSpec`]s. A runner must
/// be a pure function of `(graph, seed)` — all randomness derived from
/// the seed — so grids stay reproducible and thread-count independent.
pub trait DynRunner: Send + Sync {
    /// Display name matching the paper's terminology (`"Awake-MIS"`).
    fn name(&self) -> &str;

    /// Canonical spec string this runner was built from (`"awake"`,
    /// `"ldt?strategy=round"`). Used as the identity in grid payloads.
    fn key(&self) -> &str;

    /// Runs the algorithm on `g` with the given seed, drawing simulator
    /// working memory from `scratch`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; algorithmic Monte Carlo failures are
    /// reported in [`AlgoResult::failures`], not as errors.
    fn run_on(
        &self,
        g: &Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<AlgoResult, SimError>;

    /// The observational trace handle attached to this runner, when its
    /// spec asked for one (`trace=profile|jsonl`). Sinks aggregate
    /// across every run the handle observes; `Profile`'s rendered
    /// report is retrievable through
    /// [`TraceHandle::report`](sleeping_congest::TraceHandle::report).
    /// The default (and the norm) is no sink.
    fn trace(&self) -> Option<&TraceHandle> {
        None
    }
}

/// A cheaply-cloneable shared handle to a [`DynRunner`].
///
/// This is what grid specs, cells, and jobs carry; equality and hashing
/// go by [`key`](Self::key), so two handles resolved from the same spec
/// compare equal.
#[derive(Clone)]
pub struct RunnerHandle(Arc<dyn DynRunner>);

impl RunnerHandle {
    /// Wraps a runner.
    pub fn new(runner: impl DynRunner + 'static) -> RunnerHandle {
        RunnerHandle(Arc::new(runner))
    }

    /// Display name (see [`DynRunner::name`]).
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// Canonical spec key (see [`DynRunner::key`]).
    pub fn key(&self) -> &str {
        self.0.key()
    }

    /// Borrows the underlying trait object.
    pub fn as_dyn(&self) -> &dyn DynRunner {
        &*self.0
    }

    /// The runner's attached trace handle (see [`DynRunner::trace`]).
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.0.trace()
    }

    /// Runs on `g` with fresh simulator working memory.
    ///
    /// # Errors
    ///
    /// See [`DynRunner::run_on`].
    pub fn run(&self, g: &Graph, seed: u64) -> Result<AlgoResult, SimError> {
        self.0.run_on(g, seed, &mut ScratchArena::new())
    }

    /// Runs on `g` reusing `scratch`'s buffers (identical results).
    ///
    /// # Errors
    ///
    /// See [`DynRunner::run_on`].
    pub fn run_with_scratch(
        &self,
        g: &Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<AlgoResult, SimError> {
        self.0.run_on(g, seed, scratch)
    }
}

impl fmt::Debug for RunnerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RunnerHandle({})", self.key())
    }
}

impl PartialEq for RunnerHandle {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for RunnerHandle {}

impl std::hash::Hash for RunnerHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

type BuildFn = Box<dyn Fn(&AlgorithmSpec) -> Result<RunnerHandle, SpecError> + Send + Sync>;

struct RegistryEntry {
    /// Primary CLI key plus accepted aliases (all lowercased).
    keys: Vec<String>,
    /// One-line description for `--list-algos`-style help.
    about: String,
    build: BuildFn,
}

/// Maps CLI keys to runner builders.
///
/// [`Registry::builtin`] pre-registers the nine algorithms of the
/// comparison table; [`register`](Registry::register) adds user entries.
/// Resolution order and entry listing are deterministic (registration
/// order). See the module docs for a full registration example.
#[derive(Default)]
pub struct Registry {
    entries: Vec<RegistryEntry>,
}

impl Registry {
    /// An empty registry (no algorithms).
    pub fn empty() -> Registry {
        Registry { entries: Vec::new() }
    }

    /// A registry with every built-in algorithm pre-registered under its
    /// CLI key (`awake`, `awake-round`, `ldt`, `vt`, `naive`, `luby`,
    /// `na`, `gp-avg`, `le`, plus the paper-style display names as
    /// aliases).
    pub fn builtin() -> Registry {
        let mut reg = Registry::empty();
        crate::runners::register_builtins(&mut reg);
        reg
    }

    /// Registers `build` under `key`.
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateKey`] if `key` (or an alias of an existing
    /// entry) is already taken.
    pub fn register<F>(&mut self, key: &str, about: &str, build: F) -> Result<(), SpecError>
    where
        F: Fn(&AlgorithmSpec) -> Result<RunnerHandle, SpecError> + Send + Sync + 'static,
    {
        self.register_aliased(&[key], about, build)
    }

    /// Registers `build` under a primary key plus aliases (all resolve;
    /// only the primary is listed by [`keys`](Registry::keys)).
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateKey`] if any of `keys` is already taken.
    pub fn register_aliased<F>(
        &mut self,
        keys: &[&str],
        about: &str,
        build: F,
    ) -> Result<(), SpecError>
    where
        F: Fn(&AlgorithmSpec) -> Result<RunnerHandle, SpecError> + Send + Sync + 'static,
    {
        assert!(!keys.is_empty(), "an entry needs at least one key");
        let keys: Vec<String> = keys.iter().map(|k| k.to_ascii_lowercase()).collect();
        for k in &keys {
            if self.entries.iter().any(|e| e.keys.contains(k)) {
                return Err(SpecError::DuplicateKey { key: k.clone() });
            }
        }
        self.entries.push(RegistryEntry { keys, about: about.to_string(), build: Box::new(build) });
        Ok(())
    }

    /// Parses `spec` and builds its runner.
    ///
    /// # Errors
    ///
    /// Parse errors, [`SpecError::UnknownAlgorithm`], or whatever the
    /// entry's builder rejects (unknown/ill-typed parameters).
    pub fn resolve(&self, spec: &str) -> Result<RunnerHandle, SpecError> {
        self.resolve_spec(&AlgorithmSpec::parse(spec)?)
    }

    /// Builds the runner for an already-parsed spec.
    ///
    /// # Errors
    ///
    /// See [`resolve`](Registry::resolve).
    pub fn resolve_spec(&self, spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.keys.iter().any(|k| k == spec.key()))
            .ok_or_else(|| SpecError::UnknownAlgorithm {
                key: spec.key().to_string(),
                known: self.keys().map(str::to_string).collect(),
            })?;
        (entry.build)(spec)
    }

    /// Resolves a comma-separated list of specs, in order. An empty
    /// list (or an empty element, e.g. a stray comma) is an error —
    /// a mangled CLI value must never silently run zero algorithms.
    ///
    /// # Errors
    ///
    /// [`SpecError::Syntax`] on an empty list or element, otherwise the
    /// first error among the list's specs.
    pub fn resolve_list(&self, list: &str) -> Result<Vec<RunnerHandle>, SpecError> {
        if list.trim().is_empty() {
            return Err(SpecError::Syntax {
                spec: list.to_string(),
                detail: "empty algorithm list".to_string(),
            });
        }
        list.split(',').map(|s| self.resolve(s)).collect()
    }

    /// Primary keys, in registration order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.keys[0].as_str())
    }

    /// `(primary key, description)` pairs, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|e| (e.keys[0].as_str(), e.about.as_str()))
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").field("keys", &self.keys().collect::<Vec<_>>()).finish()
    }
}

/// The process-wide default registry (built-ins only), built once.
///
/// Binaries resolve through this; code that wants custom entries builds
/// its own [`Registry`] (start from [`Registry::builtin`]).
pub fn default_registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(Registry::builtin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bare_key() {
        let s = AlgorithmSpec::parse("Awake").unwrap();
        assert_eq!(s.key(), "awake");
        assert!(s.params().is_empty());
        assert_eq!(s.canonical(), "awake");
    }

    #[test]
    fn parse_params_and_flags() {
        let s = AlgorithmSpec::parse("awake?delta_factor=9.5&Uniform_Batches&x=y").unwrap();
        assert_eq!(s.key(), "awake");
        assert_eq!(
            s.params(),
            &[
                ("delta_factor".to_string(), "9.5".to_string()),
                ("uniform_batches".to_string(), "true".to_string()),
                ("x".to_string(), "y".to_string()),
            ]
        );
        assert_eq!(s.canonical(), "awake?delta_factor=9.5&uniform_batches=true&x=y");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(AlgorithmSpec::parse(""), Err(SpecError::Syntax { .. })));
        assert!(matches!(AlgorithmSpec::parse("a b"), Err(SpecError::Syntax { .. })));
        assert!(matches!(AlgorithmSpec::parse("awake?"), Err(SpecError::Syntax { .. })));
        assert!(matches!(AlgorithmSpec::parse("awake?=3"), Err(SpecError::Syntax { .. })));
        assert!(matches!(AlgorithmSpec::parse("awake?x="), Err(SpecError::Syntax { .. })));
        assert!(matches!(
            AlgorithmSpec::parse("awake?x=1&x=2"),
            Err(SpecError::DuplicateParam { .. })
        ));
    }

    #[test]
    fn reader_flags_unknown_params() {
        let s = AlgorithmSpec::parse("awake?mystery=1").unwrap();
        let mut r = s.reader();
        assert_eq!(r.f64("delta_factor").unwrap(), None);
        let err = r.finish().unwrap_err();
        assert!(
            matches!(err, SpecError::UnknownParam { ref param, .. } if param == "mystery"),
            "{err:?}"
        );
    }

    #[test]
    fn reader_types() {
        let s = AlgorithmSpec::parse("x?a=2.5&b=7&c=yes&d").unwrap();
        let mut r = s.reader();
        assert_eq!(r.f64("a").unwrap(), Some(2.5));
        assert_eq!(r.u64("b").unwrap(), Some(7));
        assert_eq!(r.bool("c").unwrap(), Some(true));
        assert_eq!(r.bool("d").unwrap(), Some(true));
        r.finish().unwrap();

        let s = AlgorithmSpec::parse("x?a=nope").unwrap();
        let mut r = s.reader();
        assert!(matches!(r.f64("a"), Err(SpecError::BadValue { .. })));
    }

    #[test]
    fn registry_rejects_duplicate_keys() {
        let mut reg = Registry::builtin();
        let err = reg
            .register("awake", "clash", |_| unreachable!("never built"))
            .unwrap_err();
        assert_eq!(err, SpecError::DuplicateKey { key: "awake".to_string() });
        assert_eq!(err.to_string(), "an algorithm is already registered under \"awake\"");
        // Aliases clash too.
        let err = reg.register("awake-mis", "clash", |_| unreachable!()).unwrap_err();
        assert!(matches!(err, SpecError::DuplicateKey { .. }));
    }

    #[test]
    fn unknown_algorithm_lists_known_keys() {
        let err = default_registry().resolve("quantum").unwrap_err();
        match err {
            SpecError::UnknownAlgorithm { key, known } => {
                assert_eq!(key, "quantum");
                assert!(known.contains(&"awake".to_string()));
                assert!(known.contains(&"luby".to_string()));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn resolve_list_splits_on_commas() {
        let handles = default_registry().resolve_list("awake, luby").unwrap();
        assert_eq!(handles.len(), 2);
        assert_eq!(handles[0].key(), "awake");
        assert_eq!(handles[1].key(), "luby");
        assert!(default_registry().resolve_list("awake,nope").is_err());
        // Mangled lists must not silently resolve to zero algorithms.
        assert!(matches!(
            default_registry().resolve_list(""),
            Err(SpecError::Syntax { .. })
        ));
        assert!(default_registry().resolve_list("awake,,luby").is_err());
        assert!(default_registry().resolve_list(",").is_err());
    }
}
