//! Churn-harness determinism: the `BENCH_churn.json` payload — spec
//! echo, locality cells, per-point epoch totals, embedded bootstrap
//! points — must be byte-identical across worker-thread counts *and*
//! engine shard counts, and a zero-delta churn run must embed a
//! bit-identical copy of the corresponding one-shot grid point (the
//! churn harness is a strict extension of the grid, not a fork of it).

use analysis::churn::{run_churn, run_churn_point, ChurnMeta, ChurnSpec};
use analysis::grid::run_point;
use analysis::{default_registry, GridJob};
use graphgen::GraphFamily;
use sleeping_congest::ScratchArena;

fn spec(threads: usize, algos: &str) -> ChurnSpec {
    ChurnSpec {
        algorithms: default_registry().resolve_list(algos).unwrap(),
        families: vec![GraphFamily::Er, GraphFamily::Tree],
        sizes: vec![48],
        rates: vec![0.0, 0.05],
        epochs: 3,
        insert_frac: 0.5,
        node_churn: 0.1,
        seeds: vec![1, 2],
        threads,
        recompute: false,
    }
}

#[test]
fn two_and_eight_thread_payloads_are_byte_identical() {
    let two = run_churn(&spec(2, "luby,vt")).unwrap();
    let eight = run_churn(&spec(8, "luby,vt")).unwrap();
    assert_eq!(
        two.payload_json(),
        eight.payload_json(),
        "thread count leaked into the deterministic churn payload"
    );
    let one = run_churn(&spec(1, "luby,vt")).unwrap();
    assert_eq!(one.payload_json(), two.payload_json());
}

#[test]
fn shard_count_never_reaches_the_payload() {
    // `shards` is an engine-parallelism knob, not an algorithm
    // parameter: the registry canonicalizes it out of the key, and the
    // sharded engine's merge is deterministic, so `luby?shards=8` runs
    // must produce the exact bytes `luby?shards=1` runs do.
    let one = run_churn(&spec(0, "luby?shards=1")).unwrap();
    let eight = run_churn(&spec(0, "luby?shards=8")).unwrap();
    assert_eq!(
        one.payload_json(),
        eight.payload_json(),
        "shard count leaked into the deterministic churn payload"
    );
}

#[test]
fn zero_delta_churn_embeds_the_one_shot_grid_point() {
    // rate = 0 means the service boots and then idles: its embedded
    // bootstrap point must be bit-identical to the same coordinates
    // run through the one-shot grid harness.
    let churn_spec = ChurnSpec { rates: vec![0.0], ..spec(1, "luby,vt") };
    let mut scratch = ScratchArena::new();
    for job in churn_spec.jobs() {
        let cp = run_churn_point(&job, &churn_spec, &mut scratch);
        assert_eq!(cp.deltas, 0);
        assert_eq!(cp.woken, 0, "a delta-free epoch must wake nobody");
        let grid_job = GridJob {
            algorithm: job.algorithm.clone(),
            family: job.family,
            n: job.n,
            seed: job.seed,
        };
        let (gp, _) = run_point(&grid_job, &mut scratch);
        assert_eq!(
            cp.bootstrap.json(),
            gp.json(),
            "zero-delta churn bootstrap drifted from the grid point at {:?}",
            grid_job
        );
        // The service's final MIS is exactly the bootstrap's.
        assert_eq!(cp.mis_size, gp.mis_size);
    }
}

#[test]
fn meta_and_timing_live_only_in_the_full_document() {
    let result = run_churn(&spec(2, "luby")).unwrap();
    let payload = result.payload_json();
    assert!(!payload.contains("wall_ms"));
    assert!(!payload.contains("elapsed_ns"));
    assert!(!payload.contains("recompute_ns"));
    let full = result.to_json(&ChurnMeta { threads: 2, wall_ms: 77, serve: None });
    assert!(full.contains("\"meta\": {\"threads\": 2, \"wall_ms\": 77}"));
    assert!(full.contains("\"timing\": {\"elapsed_ns\": ["));
    let stripped: String = full
        .lines()
        .filter(|l| !l.contains("\"meta\"") && !l.contains("\"timing\""))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(stripped, payload, "stripping meta/timing must recover the payload");
}
