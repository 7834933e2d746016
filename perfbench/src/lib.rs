//! End-to-end benchmark of stjoin: the workloads behind the
//! `stj-perfbench` executable.
//!
//! Generates the workload's inputs from the seed, prepares them the way
//! `stj preprocess --extent 0 0 1000 1000 --order 16` does, runs the
//! workload for the given time, checks every answer against the ST2
//! DE-9IM oracle and prints one JSON result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` makes a separate traced run that
//! reports the per-layer metrics and writes a Chrome trace-event file.
//! See README.md for the workloads and metrics.

pub mod inputs;
pub mod join;
pub mod oracle;
pub mod preprocess;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::Path;

/// Where runs keep their files: inside the directory the benchmark runs
/// from.
pub const WORK_DIR: &str = ".bench_work";

/// Grid of every workload: `stj preprocess --extent 0 0 1000 1000
/// --order 16`.
pub const GRID_ORDER: u32 = 16;

/// Set-ups per run; the run reports their median.
pub const SETUP_REPS: usize = 3;

/// The workloads of `BENCHMARK.json`, by name.
pub const WORKLOADS: [&str; 2] = ["join-zips-buildings", "serve-relate"];

/// A workload the benchmark runs but `BENCHMARK.json` does not list: on
/// it the program gives wrong answers, which a listed workload may not
/// (see README.md).
pub const DEFECT_WORKLOAD: &str = "join-coverage";

/// The end-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// The per-layer metrics every traced run prints: `(name, unit)`. A
/// workload whose path bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("store.wkt_parse_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("raster.build_ms", "ms"),
    ("raster.intervals", "count"),
    ("raster.capped_objects", "count"),
    ("raster.probe_build_ms", "ms"),
    ("index.tiling_ms", "ms"),
    ("index.candidates_ms", "ms"),
    ("index.candidates", "count"),
    ("index.classify_ms", "ms"),
    ("index.probe_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.filter_attempts", "count"),
    ("core.filter_decided", "count"),
    ("core.filter_useful_share", "ratio"),
    ("core.refine_ms", "ms"),
    ("core.refined", "count"),
    ("core.exec_ms", "ms"),
    ("core.exec_utilization", "ratio"),
    ("core.exec_imbalance", "ratio"),
    ("core.adaptive_skip_cells", "count"),
    ("core.output_ms", "ms"),
    ("core.links", "count"),
    ("de9im.prepare_ms", "ms"),
    ("de9im.relate_ms", "ms"),
    ("de9im.prepares", "count"),
    ("de9im.distinct_objects", "count"),
    ("de9im.prepare_reuse", "ratio"),
    ("serve.start_ms", "ms"),
    ("serve.read_ms_mean", "ms"),
    ("serve.queue_ms_mean", "ms"),
    ("serve.exec_ms_mean", "ms"),
    ("serve.write_ms_mean", "ms"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.sheds", "count"),
    ("serve.dispatch_ms", "ms"),
    ("serve.relate_ms_p99", "ms"),
    ("serve.max_rps", "1/s"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted: candidate answers over all joins, or
    /// relate requests at the nominal rate.
    pub attempted: u64,
    /// Operations whose answer differed from the oracle or that failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How big a run is. The benchmark's own tests shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Scale of the TZ zip codes: joined with the buildings, and the
    /// `serve-relate` probes.
    pub zips_scale: f64,
    /// Scale of the OBE buildings: joined with the zip codes, and
    /// resident in the `serve-relate` server.
    pub buildings_scale: f64,
    /// Scale of the TC/TZ datasets of `join-coverage`.
    pub coverage_scale: f64,
    pub order: u32,
    /// Minimum joins per timed loop.
    pub min_joins: usize,
    /// Length of each `serve-relate` ladder rung: long enough that a
    /// rate 10% above what the server sustains builds a backlog past the
    /// latency limit.
    pub rung_seconds: f64,
}

impl Size {
    pub const FULL: Size = Size {
        zips_scale: 0.25,
        buildings_scale: 2.0,
        coverage_scale: 0.25,
        order: GRID_ORDER,
        min_joins: 100,
        rung_seconds: 3.0,
    };
}

/// Parsed command line of a benchmark run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: inputs::CATALOG_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) && out.workload != DEFECT_WORKLOAD {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or {DEFECT_WORKLOAD:?}, not {:?}",
            out.workload
        ));
    }
    Ok(out)
}

/// Puts `metrics` in the order of the run's metric list, with a 0 for
/// each per-layer metric of a layer the workload bypasses. A metric
/// outside the list, or with another unit, is an error.
fn complete(metrics: Vec<Metric>, traced: bool) -> Result<Vec<Metric>, String> {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for m in &metrics {
        if !list.contains(&(m.name, m.unit)) {
            return Err(format!("metric {} [{}] is not in the list", m.name, m.unit));
        }
    }
    let mut out = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) => out.push(m.clone()),
            None if traced => out.push(Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    Ok(out)
}

/// Runs one workload in `dir`, which it creates and empties first.
/// `exe` is the `stj-perfbench` executable, which the workloads start as
/// their preprocessing and server processes.
pub fn run(args: &Args, size: Size, dir: &Path, exe: &Path) -> Result<Report, String> {
    let mut report = run_workload(args, size, dir, exe)?;
    report.metrics = complete(std::mem::take(&mut report.metrics), args.trace)?;
    Ok(report)
}

fn run_workload(args: &Args, size: Size, dir: &Path, exe: &Path) -> Result<Report, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match args.workload.as_str() {
        "join-zips-buildings" | DEFECT_WORKLOAD => join::run(args, size, dir, exe),
        "serve-relate" => serve::run(args, size, dir, exe),
        other => Err(format!("unknown workload {other:?}")),
    }
}
