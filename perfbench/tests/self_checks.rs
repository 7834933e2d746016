//! The benchmark checks itself on small inputs: every metric that
//! `BENCHMARK.json` names is printed with its unit, and the counters
//! documented as exact repeat exactly for one seed.

use std::path::Path;
use stj_obs::Json;
use stj_perfbench::{run, Args, Report, Size};

const SMALL: Size = Size {
    zips_scale: 0.02,
    buildings_scale: 0.05,
    coverage_scale: 0.02,
    order: 12,
    min_joins: 5,
    rung_seconds: 0.2,
};

/// Counters that must repeat exactly for a given seed.
const EXACT: [&str; 10] = [
    "store.bytes",
    "raster.intervals",
    "raster.capped_objects",
    "index.candidates",
    "core.filter_attempts",
    "core.filter_decided",
    "core.refined",
    "core.links",
    "de9im.prepares",
    "de9im.distinct_objects",
];

fn run_small(workload: &str, trace: bool, tag: &str) -> Json {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}"));
    let args = Args {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.5,
        trace,
    };
    let exe = Path::new(env!("CARGO_BIN_EXE_stj-perfbench"));
    let report: Report = run(&args, SMALL, &dir, exe).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let line = report.result_line();
    assert!(!line.contains('\n'), "one line: {line}");
    let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let Some(Json::Obj(keys)) = Some(&doc) else {
        panic!("not an object: {line}");
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    doc
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of each printed metric.
fn printed(doc: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Json::as_str).unwrap().to_string();
            (name.clone(), unit)
        })
        .collect()
}

fn value(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn check_workload(workload: &str) {
    let bench = benchmark_json();
    let untraced = run_small(workload, false, "untraced");
    assert_eq!(
        printed(&untraced),
        listed(&bench, "end_to_end"),
        "{workload}"
    );
    let first = run_small(workload, true, "traced-1");
    assert_eq!(printed(&first), listed(&bench, "per_layer"), "{workload}");
    let second = run_small(workload, true, "traced-2");
    for name in EXACT {
        assert_eq!(
            value(&first, name),
            value(&second, name),
            "{workload}: {name}"
        );
    }
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(names, stj_perfbench::WORKLOADS);
}

#[test]
fn join_zips_buildings_prints_every_metric_and_repeats_exact_counters() {
    check_workload("join-zips-buildings");
}

#[test]
fn join_coverage_prints_every_metric_and_repeats_exact_counters() {
    check_workload(stj_perfbench::DEFECT_WORKLOAD);
}

#[test]
fn serve_relate_prints_every_metric_and_repeats_exact_counters() {
    check_workload("serve-relate");
}
