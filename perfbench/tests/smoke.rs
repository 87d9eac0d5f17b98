//! Tiny-n smoke runs of every workload: certificates pass, the printed
//! metrics (names and units) are exactly the ones `BENCHMARK.json` declares,
//! and the deterministic metrics repeat at 1 and 2 threads.

use std::collections::BTreeSet;

use lcg_perfbench::{run, Outcome, Sizes, Workload};
use serde::Value;

/// `(name, unit)` of every entry of a `BENCHMARK.json` section; the unit
/// is empty for workloads.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let root = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(entries)) = root.get(section) else {
        panic!("BENCHMARK.json has no {section} array");
    };
    let field = |e: &Value, key: &str| match e.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    entries
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn printed(out: &Outcome) -> BTreeSet<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn workloads_certify_and_print_declared_metrics() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    let workloads: BTreeSet<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        workloads,
        Workload::ALL.iter().map(|w| w.name().to_string()).collect()
    );
    for w in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run(w, 7, 0.0, trace, &Sizes::tiny());
            assert!(
                out.correct(),
                "{} trace={trace}: {:#?}",
                w.name(),
                out.notes
            );
            assert_eq!(&printed(&out), expected, "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
            let json = serde_json::parse_value(&out.to_json()).expect("result line is JSON");
            assert!(matches!(json.get("correct"), Some(Value::Bool(true))));
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in Workload::ALL {
        let out = run(w, 3, 0.0, false, &Sizes::tiny());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn deterministic_metrics_repeat_at_one_and_two_threads() {
    for w in Workload::ALL {
        let at = |threads: usize| {
            let out = run(
                w,
                5,
                0.0,
                false,
                &Sizes {
                    threads,
                    ..Sizes::tiny()
                },
            );
            assert!(
                out.correct(),
                "{} at {threads} threads: {:#?}",
                w.name(),
                out.notes
            );
            ["sim_rounds", "sim_msgs", "mis_ratio_lb"]
                .map(|k| out.metric(k).expect("metric printed"))
        };
        let one = at(1);
        assert_eq!(one, at(1), "{} repeats", w.name());
        assert_eq!(one, at(2), "{} is thread-count invariant", w.name());
    }
}

#[test]
fn bad_command_line_exits_nonzero_without_a_result() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--workload", "engine_n1e6"],
        vec!["--workload", "engine_n1e6", "--seed", "1", "--trace", "2"],
    ] {
        let out = std::process::Command::new(exe)
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
