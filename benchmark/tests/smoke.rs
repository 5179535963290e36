//! Every workload at a reduced size, through the harness's own
//! functions: each reports its full metric catalogue, passes its
//! checks, repeats its deterministic counts exactly, and fails every
//! operation when one site of its output is flipped.

use lattice_engines::serve::json::{self, Value};
use lattice_hostbench::{run, Outcome, RunConfig, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool, tamper: bool) -> Outcome {
    let trace = trace.then(|| {
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}.ndjson", workload.name()))
    });
    let cfg = RunConfig { workload, seed: 7, seconds: 0.05, trace, size: Size::Smoke, tamper };
    run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|m| m.0 == name).map(|m| m.2).expect("metric present")
}

fn names(o: &Outcome) -> Vec<(&'static str, &'static str)> {
    o.metrics.iter().map(|m| (m.0, m.1)).collect()
}

/// The recovery counts of a traced run.
const COUNTS: [&str; 7] = [
    "farm.recovery.detected",
    "farm.recovery.retransmits",
    "farm.recovery.local_rollbacks",
    "farm.recovery.rollbacks",
    "farm.recovery.boards_retired",
    "farm.recovery.checkpoints",
    "farm.recovery.checkpoint_bytes",
];

#[test]
fn every_workload_reports_its_metrics_passes_its_checks_and_repeats_its_counts() {
    for w in Workload::ALL {
        let plain = [smoke(w, false, false), smoke(w, false, false)];
        let traced = [smoke(w, true, false), smoke(w, true, false)];
        for o in plain.iter().chain(&traced) {
            assert!(o.tally.attempted > 0, "{}", w.name());
            assert_eq!(o.tally.failed, 0, "{}: failed_frac must be 0", w.name());
            assert!(o.correct());
            assert!(o.json().starts_with("{\"correct\": true"), "{}", o.json());
        }
        assert_eq!(names(&plain[0]), END_TO_END.to_vec(), "{}", w.name());
        assert_eq!(names(&traced[0]), PER_LAYER.to_vec(), "{}", w.name());
        assert!(value(&plain[0], "model_ticks") > 0.0);
        assert_eq!(
            value(&plain[0], "model_ticks"),
            value(&plain[1], "model_ticks"),
            "{}",
            w.name()
        );
        for c in COUNTS {
            assert_eq!(value(&traced[0], c), value(&traced[1], c), "{}: {c}", w.name());
        }
        assert_eq!(value(&traced[0], "farm.recovery.boards_retired"), 0.0);
        assert!(traced[0].spans.as_ref().is_some_and(|s| !s.is_empty()));
    }
}

#[test]
fn farm_faults_exercises_the_recovery_ladder() {
    let traced = smoke(Workload::FarmFaults, true, false);
    assert!(value(&traced, "farm.recovery.retransmits") > 0.0);
    assert_eq!(
        value(&traced, "farm.recovery.detected"),
        COUNTS[1..5].iter().map(|c| value(&traced, c)).sum::<f64>(),
        "every detection is answered by exactly one ladder action"
    );
}

#[test]
fn flipping_one_site_fails_every_operation() {
    for w in Workload::ALL {
        let o = smoke(w, false, true);
        assert!(o.tally.attempted > 0);
        assert_eq!(o.tally.failed, o.tally.attempted, "{}: failed_frac must be 1", w.name());
        assert!(!o.correct());
    }
}

fn entries<'a>(doc: &'a Value, key: &str) -> Vec<&'a Value> {
    doc.get(key).and_then(Value::as_arr).expect("array key").iter().collect()
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let pairs = |key| -> Vec<(String, String)> {
        entries(&doc, key)
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(pairs("end_to_end"), own(&END_TO_END));
    assert_eq!(pairs("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name).to_vec());
}
