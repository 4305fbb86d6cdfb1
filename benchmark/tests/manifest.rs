//! `BENCHMARK.json` against the runner: every name is well formed, every
//! metric the runner prints is declared and every declared metric printed,
//! with the same unit, direction and bound; the workloads are the runner's.

use gts_benchmark::json::{self, Value};
use gts_benchmark::report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use gts_benchmark::workloads::WORKLOADS;
use std::collections::BTreeSet;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "the file is at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {v:?}"))
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn has_exactly_the_contract_keys() {
    let doc = manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let doc = manifest();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for e in entries(&doc, key) {
            let name = text(e, "name");
            assert!(well_formed_name(name), "bad name `{name}`");
            assert!(seen.insert(name.to_string()), "`{name}` is used twice");
        }
    }
    for key in ["end_to_end", "per_layer"] {
        for e in entries(&doc, key) {
            assert!(well_formed_unit(text(e, "unit")), "bad unit in {e:?}");
            assert!(matches!(text(e, "better"), "higher" | "lower"));
        }
    }
    for w in entries(&doc, "workloads") {
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "`why` is one line of at most 200"
        );
        assert_eq!(w.as_obj().expect("object").len(), 2, "exactly name and why");
    }
}

#[test]
fn workloads_are_the_runners() {
    let doc = manifest();
    let declared: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let run: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, run);
}

#[test]
fn end_to_end_metrics_match_the_runner() {
    let doc = manifest();
    let declared = entries(&doc, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, m) in declared.iter().zip(END_TO_END) {
        assert_eq!(text(d, "name"), m.name);
        assert_eq!(text(d, "unit"), m.unit, "{}", m.name);
        assert_eq!(
            text(d, "better") == "higher",
            m.higher_is_better,
            "{}",
            m.name
        );
        let bound = d.get("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(bound, m.bound, "{}", m.name);
        assert!(bound > 0.0 && bound <= 0.25);
        assert_eq!(d.as_obj().expect("object").len(), 4);
    }
    let setup = declared
        .iter()
        .find(|d| text(d, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

#[test]
fn per_layer_metrics_match_the_runner() {
    let doc = manifest();
    let declared: Vec<(&str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|d| {
            assert_eq!(
                d.as_obj().expect("object").len(),
                3,
                "name, unit, better: {d:?}"
            );
            (text(d, "name"), text(d, "unit"))
        })
        .collect();
    assert_eq!(declared, PER_LAYER.to_vec());
    assert!(declared.len() <= 128);
}

/// The runner's result line carries exactly the declared metrics of its
/// pass, whatever the pass managed to set.
#[test]
fn the_result_line_prints_exactly_the_declared_metrics() {
    for traced in [false, true] {
        let result = RunResult {
            workload: "knn-lowdim-batch",
            traced,
            seed: 1,
            input_hash: 0,
            attempted: 10,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
            valid: true,
            breakdown: None,
        };
        let line = json::parse(&result.contract_line()).expect("the result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let printed: BTreeSet<&str> = line
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics")
            .keys()
            .map(String::as_str)
            .collect();
        let declared: BTreeSet<&str> = if traced {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(printed, declared);
    }
}

#[test]
#[should_panic(expected = "not declared")]
fn an_undeclared_metric_cannot_be_set() {
    Metrics::default().set("core.made_up", 1.0);
}
