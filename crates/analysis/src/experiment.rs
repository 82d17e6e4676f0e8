//! The one experiment core behind the grid, sweep, fault and churn
//! harnesses: spec strings expand into axes ([`expand_params`],
//! [`expand_specs`]), the axes are checked and become jobs ([`Axes`]),
//! the jobs fan out over worker threads ([`fan_out`]), and the results
//! are written as one JSON document ([`document`]). Only aggregation
//! and cell JSON differ between [`crate::grid`], [`crate::sweep`],
//! [`crate::faults`] and [`crate::churn`].

use crate::grid::{GridJob, GridMeta};
use crate::spec::{default_registry, RunnerHandle, SpecError};
use crate::stats::Summary;
use crate::sweep::{expand, SweepGroup};
use graphgen::GraphFamily;
use sleeping_congest::batch::{resolve_threads, run_batch};
use sleeping_congest::{AwakeDistribution, ScratchArena};
use std::collections::HashSet;
use std::fmt::Display;

/// Every index tuple of the cartesian product of axes with lengths
/// `lens`, row-major: the last axis varies fastest.
pub(crate) fn product(lens: &[usize]) -> impl Iterator<Item = Vec<usize>> + '_ {
    (0..lens.iter().product::<usize>()).map(move |mut rest| {
        let mut picks = vec![0; lens.len()];
        for (pick, &len) in picks.iter_mut().zip(lens).rev() {
            *pick = rest % len;
            rest /= len;
        }
        picks
    })
}

/// Cap on the number of concrete points one spec string may expand to —
/// a typo like `bits=0..1000000` must fail loudly, not spawn a month of
/// work.
pub const MAX_EXPANSION: usize = 256;

/// The expanded values of one parameter, plus whether the expression was
/// a range (ranges are what `step=` applies to).
fn expand_value(param: &str, value: &str, step: u64) -> Result<(Vec<String>, bool), SpecError> {
    let bad = |expected: &str| SpecError::BadValue {
        param: param.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    };
    if let Some((lo, hi)) = value.split_once("..") {
        let lo: u64 = lo.trim().parse().map_err(|_| bad("an integer range lo..hi"))?;
        let hi: u64 = hi.trim().parse().map_err(|_| bad("an integer range lo..hi"))?;
        if lo > hi {
            return Err(bad("a non-empty range (lo must not exceed hi)"));
        }
        let points = (lo..=hi).step_by(step as usize).take(MAX_EXPANSION + 1);
        let out: Vec<String> = points.map(|v| v.to_string()).collect();
        if out.len() > MAX_EXPANSION {
            return Err(bad(&format!("a range expanding to at most {MAX_EXPANSION} points")));
        }
        return Ok((out, true));
    }
    if value.contains(',') {
        let items: Vec<String> = value.split(',').map(|s| s.trim().to_string()).collect();
        if items.iter().any(String::is_empty) {
            return Err(bad("a comma list without empty elements"));
        }
        return Ok((items, false));
    }
    Ok((vec![value.to_string()], false))
}

/// The range grammar of algorithm and family sweeps (see
/// [`crate::sweep`]): expands `base?params` into the concrete
/// `base?name=value&…` strings of its cartesian product, last parameter
/// fastest. `what` names the spec kind in the size-cap error.
pub(crate) fn expand_params(
    what: &str,
    raw: &str,
    base: &str,
    params: &[(&str, &str)],
) -> Result<Vec<String>, SpecError> {
    let bad = |param: &str, value: &str, expected: &str| SpecError::BadValue {
        param: param.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    };
    let mut step = None;
    for &(_, value) in params.iter().filter(|(name, _)| *name == "step") {
        let v = value.parse().ok().filter(|&v: &u64| v > 0);
        step = Some(v.ok_or_else(|| bad("step", value, "a positive integer"))?);
    }
    let mut axes: Vec<(&str, Vec<String>)> = Vec::new();
    let mut saw_range = false;
    for &(name, value) in params.iter().filter(|(name, _)| *name != "step") {
        let (values, was_range) = expand_value(name, value, step.unwrap_or(1))?;
        saw_range |= was_range;
        axes.push((name, values));
    }
    if let Some(s) = step.filter(|_| !saw_range) {
        let expected = "a range-valued parameter for step= to apply to";
        return Err(bad("step", &s.to_string(), expected));
    }
    let lens: Vec<usize> = axes.iter().map(|(_, values)| values.len()).collect();
    let count: usize = lens.iter().product();
    if count > MAX_EXPANSION {
        let expected = format!("at most {MAX_EXPANSION} expansion points, got {count}");
        return Err(bad(what, raw.trim(), &expected));
    }
    Ok(product(&lens)
        .map(|picks| {
            let mut s = base.to_string();
            for (a, ((name, values), pick)) in axes.iter().zip(picks).enumerate() {
                s.push(if a == 0 { '?' } else { '&' });
                s.push_str(&format!("{name}={}", values[pick]));
            }
            s
        })
        .collect())
}

/// The spec-list expansion of sweeps and fault sweeps: expands every
/// spec ([`expand`]), checks the flattened points with the other axes
/// ([`Axes::check`]), and returns the groups and the jobs. Rejects a
/// sweep with no point or no seed.
pub(crate) fn expand_specs(
    specs: &[String],
    families: &[GraphFamily],
    sizes: &[usize],
    seeds: &[u64],
) -> Result<(Vec<SweepGroup>, Vec<GridJob>), SpecError> {
    let groups: Vec<SweepGroup> =
        specs.iter().map(|raw| expand(default_registry(), raw)).collect::<Result<_, _>>()?;
    let points: Vec<RunnerHandle> = groups.iter().flat_map(|g| g.runners.clone()).collect();
    if points.is_empty() || seeds.is_empty() {
        return Err(SpecError::Syntax {
            spec: specs.join(","),
            detail: "a sweep needs at least one algorithm point and one seed".to_string(),
        });
    }
    let axes = Axes::new(&points, families, sizes, seeds);
    axes.check()?;
    Ok((groups, axes.grid_jobs()))
}

/// Fails with [`SpecError::DuplicateKey`] (keyed `axis=value`) on the
/// first value of `axis` listed twice.
pub(crate) fn distinct<T: Display>(
    axis: &str,
    values: impl IntoIterator<Item = T>,
) -> Result<(), SpecError> {
    let mut seen = HashSet::new();
    for v in values {
        let key = format!("{axis}={v}");
        if !seen.insert(key.clone()) {
            return Err(SpecError::DuplicateKey { key });
        }
    }
    Ok(())
}

/// One block of experiment axes: `{algorithm × family × n × seed}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axes<'a> {
    pub(crate) algorithms: &'a [RunnerHandle],
    pub(crate) families: &'a [GraphFamily],
    pub(crate) sizes: &'a [usize],
    pub(crate) seeds: &'a [u64],
}

impl<'a> Axes<'a> {
    pub(crate) fn new(
        algorithms: &'a [RunnerHandle],
        families: &'a [GraphFamily],
        sizes: &'a [usize],
        seeds: &'a [u64],
    ) -> Axes<'a> {
        Axes { algorithms, families, sizes, seeds }
    }

    /// The job builder: every `{algorithm × family × n × extra × seed}`
    /// coordinate, algorithm-major and seed-minor. Experiments without
    /// an extra axis pass `&[()]`.
    pub(crate) fn jobs<X: Copy, J>(
        &self,
        extra: &[X],
        job: impl Fn(&RunnerHandle, GraphFamily, usize, X, u64) -> J,
    ) -> Vec<J> {
        let lens = [
            self.algorithms.len(),
            self.families.len(),
            self.sizes.len(),
            extra.len(),
            self.seeds.len(),
        ];
        product(&lens)
            .map(|i| {
                let (family, n, seed) = (self.families[i[1]], self.sizes[i[2]], self.seeds[i[4]]);
                job(&self.algorithms[i[0]], family, n, extra[i[3]], seed)
            })
            .collect()
    }

    /// The block's grid jobs.
    pub(crate) fn grid_jobs(&self) -> Vec<GridJob> {
        self.jobs(&[()], |algorithm, family, n, (), seed| GridJob {
            algorithm: algorithm.clone(),
            family,
            n,
            seed,
        })
    }

    /// Number of `{algorithm × family × n}` cells.
    pub(crate) fn cells(&self) -> usize {
        self.algorithms.len() * self.families.len() * self.sizes.len()
    }

    /// The axis check: no axis lists a value twice.
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        distinct("algorithm", self.algorithms.iter().map(RunnerHandle::key))?;
        distinct("family", self.families.iter().map(|f| f.key()))?;
        distinct("n", self.sizes)?;
        distinct("seed", self.seeds)
    }

    /// The block's cell keys, `algorithm/family/n`.
    pub(crate) fn cell_keys(&self) -> Vec<String> {
        let lens = [self.algorithms.len(), self.families.len(), self.sizes.len()];
        product(&lens)
            .map(|i| {
                let (a, f) = (&self.algorithms[i[0]], self.families[i[1]]);
                format!("{}/{}/{}", a.key(), f.key(), self.sizes[i[2]])
            })
            .collect()
    }

    /// The block's spec echo.
    pub(crate) fn json(&self) -> String {
        format!(
            "\"algorithms\": [{}], \"families\": [{}], \"sizes\": [{}], \"seeds\": [{}]",
            quoted(self.algorithms.iter().map(RunnerHandle::key)),
            quoted(self.families.iter().map(|f| f.key())),
            list(self.sizes),
            list(self.seeds),
        )
    }
}

/// Runs `jobs` over `threads` workers (`0` = all), one reused
/// [`ScratchArena`] per worker; results come back in job order.
pub(crate) fn fan_out<J: Sync, R: Send>(
    jobs: &[J],
    threads: usize,
    run: impl Fn(&mut ScratchArena, &J) -> R + Sync,
) -> Vec<R> {
    run_batch(
        jobs,
        resolve_threads(threads),
        |_| ScratchArena::new(),
        |scratch, _, job| run(scratch, job),
    )
}

/// Writes one experiment document: schema, the `meta` and `timing`
/// lines when given (without them it is the deterministic payload),
/// spec echo, then one line per cell and per point.
pub(crate) fn document(
    schema: &str,
    meta: Option<[String; 2]>,
    spec: &str,
    cells: impl Iterator<Item = String>,
    points: impl Iterator<Item = String>,
) -> String {
    let mut out = format!("{{\n  \"schema\": \"{schema}\",\n");
    if let Some([meta, timing]) = meta {
        out.push_str(&format!("  \"meta\": {{{meta}}},\n  \"timing\": {{{timing}}},\n"));
    }
    out.push_str(&format!(
        "  \"spec\": {{{spec}}},\n  \"cells\": [\n{}\n  ],\n  \"points\": [\n{}\n  ]\n}}\n",
        rows(cells),
        rows(points)
    ));
    out
}

fn rows(items: impl Iterator<Item = String>) -> String {
    items.map(|s| format!("    {s}")).collect::<Vec<_>>().join(",\n")
}

/// The `meta`/`timing` bodies of a grid-style document whose points
/// took `elapsed_ns` each.
pub(crate) fn meta_lines(meta: &GridMeta, elapsed_ns: impl Iterator<Item = u64>) -> [String; 2] {
    [
        format!("\"threads\": {}, \"wall_ms\": {}", meta.threads, meta.wall_ms),
        format!("\"elapsed_ns\": [{}]", list(elapsed_ns)),
    ]
}

/// The spec echo of a sweep or fault sweep: its spec strings, their
/// expansions, and the other axes.
pub(crate) fn sweep_spec_json(
    specs: &[String],
    groups: &[SweepGroup],
    families: &[GraphFamily],
    sizes: &[usize],
    seeds: &[u64],
) -> String {
    let expanded: Vec<String> = groups
        .iter()
        .map(|g| format!("[{}]", quoted(g.runners.iter().map(RunnerHandle::key))))
        .collect();
    format!(
        "\"specs\": [{}], \"expanded\": [{}], \"families\": [{}], \"sizes\": [{}], \
         \"seeds\": [{}]",
        quoted(specs.iter().map(String::as_str)),
        expanded.join(", "),
        quoted(families.iter().map(|f| f.key())),
        list(sizes),
        list(seeds),
    )
}

/// `a, b, c`.
pub(crate) fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    items.into_iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
}

/// `"a", "b", "c"`, escaped.
pub(crate) fn quoted<S: AsRef<str>>(items: impl Iterator<Item = S>) -> String {
    list(items.map(|s| format!("\"{}\"", json_escape(s.as_ref()))))
}

/// Summary of one measurement over a cell's points.
pub(crate) fn summary<P>(chunk: &[P], measure: impl Fn(&P) -> f64) -> Summary {
    Summary::of(&chunk.iter().map(measure).collect::<Vec<_>>())
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"mean\":{},\"std\":{},\"min\":{},\"median\":{},\"max\":{}}}",
        s.mean, s.std, s.min, s.median, s.max
    )
}

pub(crate) fn dist_json(d: &AwakeDistribution) -> String {
    format!(
        "{{\"mean\":{},\"median\":{},\"p95\":{},\"max\":{},\"gini\":{},\"skew\":{}}}",
        d.mean, d.median, d.p95, d.max, d.gini, d.skew
    )
}
