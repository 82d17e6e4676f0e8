//! `perfbench` — the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-mixed|oneshot-1m|serve-trickle \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --pin WORKLOAD
//! ```
//!
//! A run prints `#` report lines (machine fingerprint, the workload's own
//! metric names, the tail percentile used, the fingerprint verdict) and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--pin` prints the `fingerprints.txt` lines of every
//! input slot of a workload. See `perfbench/README.md`.

mod fingerprint;
mod machine;
mod profile;
mod stats;
mod workloads;

use fingerprint::{pinned, PINS};
use std::process::ExitCode;
use workloads::{Pin, Run, Settings, Workload, NAMES, SLOTS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     perfbench --pin NAME\nworkloads: grid-mixed, oneshot-1m, serve-trickle";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Measure {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Pin(Workload),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !["workload", "seed", "seconds", "trace", "pin"].contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name, value.as_str()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let workload = |name: &str| {
        Workload::by_name(name)
            .ok_or_else(|| format!("unknown workload {name:?} (known: {})", NAMES.join(", ")))
    };
    if let Some(name) = flags.remove("pin") {
        return match flags.keys().next() {
            None => Ok(Command::Pin(workload(name)?)),
            Some(other) => Err(format!("--pin takes no --{other}")),
        };
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && (0.0..=3600.0).contains(&seconds)) {
        return Err(format!("--seconds must be in [0, 3600], got {seconds}"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Command::Measure {
        workload: workload(get("workload")?)?,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number with all its digits (`null` never occurs: values are
/// finite by construction, and a non-finite one is clamped to 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.verdict.correct(),
        run.verdict.attempted,
        run.verdict.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Command::Pin(w) => {
            let once = Settings {
                seconds: 0.0,
                trace: false,
                single_setup: true,
            };
            for slot in 0..SLOTS {
                let run = workloads::run(&w, slot, &once, Pin::Unchecked);
                if !run.verdict.correct() {
                    eprintln!(
                        "perfbench: {} slot {slot} did not verify; not pinned",
                        w.name
                    );
                    return ExitCode::FAILURE;
                }
                println!("{} {slot} {}", w.name, run.fingerprint);
            }
            ExitCode::SUCCESS
        }
        Command::Measure {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let slot = seed % SLOTS;
            let pin = pinned(PINS, workload.name, slot).map_or(Pin::Missing, Pin::Expect);
            println!(
                "# perfbench workload={} seed={seed} slot={slot} seconds={seconds} trace={}",
                workload.name,
                u8::from(trace)
            );
            println!("# machine {}", machine::fingerprint());
            let settings = Settings {
                seconds,
                trace,
                single_setup: false,
            };
            let run = workloads::run(&workload, slot, &settings, pin);
            for note in &run.notes {
                println!("# {note}");
            }
            for m in &run.metrics {
                let derived = if workloads::DERIVED.contains(&m.name) {
                    " (derived)"
                } else {
                    ""
                };
                println!("# {} = {} {}{derived}", m.name, num(m.value), m.unit);
            }
            println!("{}", result_json(&run));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse(&args(
            "--workload serve-trickle --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        let Command::Measure {
            workload,
            seed,
            seconds,
            trace,
        } = cmd
        else {
            panic!("not a measure")
        };
        assert_eq!(
            (workload.name, seed, seconds, trace),
            ("serve-trickle", 7, 12.0, true)
        );
        assert!(matches!(
            parse(&args("--pin grid-mixed")),
            Ok(Command::Pin(_))
        ));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload grid-mixed --seed -1 --seconds 1 --trace 0",
            "--workload grid-mixed --seed 1 --seconds 1 --trace 2",
            "--workload grid-mixed --seed 1 --seconds nan --trace 0",
            "--workload grid-mixed --seed 1 --seconds 1",
            "--workload grid-mixed --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload grid-mixed --seed 1 --seconds 1 --trace 0 --extra 1",
            "--pin grid-mixed --seed 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let run = Run {
            verdict: stats::Verdict::new(4, 0, true),
            fingerprint: fingerprint::Fingerprint::default(),
            metrics: vec![workloads::Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&run),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    /// The metric tables match `BENCHMARK.json` at the repository root.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = doc.split_whitespace().collect();
        for (name, unit) in workloads::END_TO_END
            .iter()
            .chain(workloads::PER_LAYER.iter())
        {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in NAMES {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\",\"why\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
        let entries = compact.matches("{\"name\":").count();
        assert_eq!(
            entries,
            NAMES.len() + workloads::END_TO_END.len() + workloads::PER_LAYER.len()
        );
    }
}
