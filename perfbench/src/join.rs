//! The join workloads: set up two STJD files, then join them repeatedly
//! the way `stj join --ntriples` does, each join checked against the ST2
//! oracle.
//!
//! `join-zips-buildings` joins US zip codes (TZ) with EU buildings
//! (OBE). `join-coverage` joins US counties (TC) with zip codes; it is
//! not in `BENCHMARK.json` (see README.md).

use crate::oracle;
use crate::stats::{median, peak_rss_mib, quantile};
use crate::trace::Tracer;
use crate::{inputs, preprocess, Args, Metric, Report, Size, SETUP_REPS};
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stj_core::linking::links_to_ntriples;
use stj_core::{
    intermediate_filter, AdaptiveMode, DatasetArena, IfOutcome, JoinMethod, Link, ObjectRef,
    TopologyJoin, DEFAULT_MAX_INTERVALS,
};
use stj_de9im::{relate_prepared, Prepared, TopoRelation};
use stj_geom::{InteriorScratch, Polygon, Rect};
use stj_index::{MbrRelation, Tiling, DEFAULT_SPLIT_THRESHOLD};
use stj_raster::{AprilApprox, Grid};
use stj_store::{open_arena, write_wkt_polygons};

/// One dataset of a workload: its name and polygons.
pub struct Side {
    pub name: &'static str,
    pub polygons: Vec<Polygon>,
}

impl Side {
    /// Writes the polygons as WKT to `dir`: the input `stj preprocess`
    /// reads.
    pub fn write_wkt(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join(format!("{}.wkt", self.name));
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut w = BufWriter::new(std::fs::File::create(&path).map_err(fail)?);
        write_wkt_polygons(&mut w, &self.polygons).map_err(fail)?;
        w.flush().map_err(fail)?;
        Ok(path)
    }
}

pub fn grid(order: u32) -> Grid {
    Grid::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), order)
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The two datasets of `workload` for `seed`.
fn inputs(workload: &str, seed: u64, size: Size) -> (Side, Side) {
    let (left, right) = if workload == crate::DEFECT_WORKLOAD {
        let (tc, tz) = inputs::counties_and_zips(size.coverage_scale, seed);
        (("TC", tc), ("TZ", tz))
    } else {
        let tz = inputs::counties_and_zips(size.zips_scale, seed).1;
        (
            ("TZ", tz),
            ("OBE", inputs::buildings(size.buildings_scale, seed)),
        )
    };
    let side = |(name, polygons)| Side { name, polygons };
    (side(left), side(right))
}

pub fn open(path: &Path, tr: &mut Tracer) -> Result<DatasetArena, String> {
    tr.span("store.open", || open_arena(path))
        .map(|(arena, _)| arena)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What the set-ups of one run measured.
struct Setups {
    seconds: Vec<f64>,
    peak_rss_mib: f64,
    bytes: u64,
}

/// Times `SETUP_REPS` set-ups: `stj preprocess` of each side, then
/// opening both files.
fn setups(
    sides: [&Side; 2],
    dir: &Path,
    order: u32,
    paths: &[PathBuf; 2],
    exe: &Path,
    tr: &mut Tracer,
) -> Result<Setups, String> {
    let wkt = [sides[0].write_wkt(dir)?, sides[1].write_wkt(dir)?];
    let mut out = Setups {
        seconds: Vec::new(),
        peak_rss_mib: 0.0,
        bytes: 0,
    };
    for _ in 0..SETUP_REPS {
        tr.next_op();
        let t = Instant::now();
        out.bytes = 0;
        for k in 0..2 {
            let p = preprocess::run(exe, &wkt[k], &paths[k], sides[k].name, order, tr)?;
            out.bytes += p.bytes;
            out.peak_rss_mib = out.peak_rss_mib.max(p.peak_rss_mib);
        }
        let (l, r) = (open(&paths[0], tr)?, open(&paths[1], tr)?);
        out.seconds.push(t.elapsed().as_secs_f64());
        drop((l, r));
        paths.iter().try_for_each(|p| preprocess::sync(p))?;
    }
    Ok(out)
}

/// What the timed joins saw, beyond their wall times.
#[derive(Default)]
struct LoopStats {
    join_ms: Vec<f64>,
    candidates: u64,
    failed: u64,
    utilization: Vec<f64>,
    imbalance: Vec<f64>,
    skip_cells: Vec<f64>,
    refined_share: Vec<f64>,
}

/// Joins until `seconds` have passed and at least `min_joins` ran. One
/// join is `stj join --ntriples`: open both files, run the default join
/// (P+C, streaming, adaptive on, one worker per core), write the links.
fn join_loop(
    paths: &[PathBuf; 2],
    out: &Path,
    oracle_links: &[Link],
    seconds: f64,
    min_joins: usize,
    tr: &mut Tracer,
) -> Result<LoopStats, String> {
    let join = TopologyJoin::new().adaptive(AdaptiveMode::On);
    let mut st = LoopStats::default();
    let start = Instant::now();
    while st.join_ms.len() < min_joins || start.elapsed() < Duration::from_secs_f64(seconds) {
        tr.next_op();
        let t = Instant::now();
        let top = tr.begin("join");
        let l = open(&paths[0], tr)?;
        let r = open(&paths[1], tr)?;
        let res = tr.span("core.exec", || join.run(&l, &r));
        tr.span("core.output", || {
            let nt = links_to_ntriples(
                &res.links,
                |i| format!("urn:stj:{}:{i}", l.name()),
                |j| format!("urn:stj:{}:{j}", r.name()),
                false,
            );
            std::fs::write(out, nt).map_err(|e| format!("{}: {e}", out.display()))
        })?;
        tr.end(top);
        st.join_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // Off the clock: check the answers and keep the run's telemetry.
        let wrong = oracle::mismatches(oracle_links, &res.links);
        if st.join_ms.len() == 1 {
            oracle::print_first("first join", &wrong, 5);
        }
        st.candidates += res.candidates;
        st.failed += wrong.len() as u64;
        if let Some(s) = &res.sched {
            st.utilization.push(s.utilization());
            st.imbalance.push(s.imbalance_ratio());
        }
        if let Some(a) = &res.adaptive {
            let skips = a.classes.iter().filter(|c| c.verdict == "skip").count();
            st.skip_cells.push(skips as f64);
        }
        st.refined_share
            .push(res.stats.refined as f64 / res.candidates.max(1) as f64);
    }
    Ok(st)
}

/// Counts from a single-threaded stage pass.
#[derive(Default)]
pub struct PassCounts {
    pub candidates: u64,
    pub filter_attempts: u64,
    pub filter_decided: u64,
    pub refined: u64,
    /// Refined objects, as `(side, id)`.
    pub refined_objects: BTreeSet<(u8, u32)>,
    /// The non-disjoint answers.
    pub links: Vec<Link>,
}

impl PassCounts {
    pub fn prepares(&self) -> u64 {
        2 * self.refined
    }
}

/// The static P+C pipeline over `cands`, one public stage function at a
/// time and single-threaded, so every count is exact: MBR
/// classification, the APRIL intermediate filter, then DE-9IM
/// refinement (both sides prepared, then related) of what the filter
/// leaves undecided.
pub fn stages<'a>(
    cands: &[(u32, u32)],
    left: impl Fn(u32) -> ObjectRef<'a>,
    right: impl Fn(u32) -> ObjectRef<'a>,
    tr: &mut Tracer,
    c: &mut PassCounts,
) {
    let classes: Vec<MbrRelation> = tr.span("index.classify", || {
        cands
            .iter()
            .map(|&(i, j)| MbrRelation::classify(left(i).mbr, right(j).mbr))
            .collect()
    });
    let filtered: Vec<Option<IfOutcome>> = tr.span("core.filter", || {
        cands
            .iter()
            .zip(&classes)
            .map(|(&(i, j), &class)| match class {
                MbrRelation::Disjoint | MbrRelation::Cross => None,
                _ => Some(intermediate_filter(class, left(i), right(j))),
            })
            .collect()
    });

    c.candidates += cands.len() as u64;
    let (mut pa, mut pb) = (Prepared::empty(), Prepared::empty());
    let mut interior = InteriorScratch::default();
    let refine = tr.begin("core.refine");
    for ((&(i, j), class), outcome) in cands.iter().zip(&classes).zip(&filtered) {
        let relation = match (class, outcome) {
            (MbrRelation::Disjoint, _) => TopoRelation::Disjoint,
            (MbrRelation::Cross, _) => TopoRelation::Intersects,
            (_, Some(IfOutcome::Definite(rel))) => {
                c.filter_attempts += 1;
                c.filter_decided += 1;
                *rel
            }
            (_, _) => {
                c.filter_attempts += 1;
                c.refined += 1;
                let (a, b) = (left(i), right(j));
                tr.span("de9im.prepare", || {
                    pa.prepare(&a.geom, &mut interior);
                    pb.prepare(&b.geom, &mut interior);
                });
                let m = tr.span("de9im.relate", || relate_prepared(&pa, &pb));
                c.refined_objects.insert((0, i));
                c.refined_objects.insert((1, j));
                TopoRelation::most_specific(&m)
            }
        };
        if relation != TopoRelation::Disjoint {
            c.links.push(Link {
                r: i,
                s: j,
                relation,
            });
        }
    }
    tr.end(refine);
}

/// The join's stage pass: tiling and candidate generation, then
/// [`stages`] over the candidate list.
fn stage_pass(l: &DatasetArena, r: &DatasetArena, tr: &mut Tracer) -> PassCounts {
    tr.next_op();
    let tiling = tr.span("index.tiling", || Tiling::for_inputs(l.mbrs(), r.mbrs()));
    let cands = tr.span("index.candidates", || {
        let mut v = Vec::new();
        for task in tiling.tasks(DEFAULT_SPLIT_THRESHOLD) {
            tiling.run_task(&task, l.mbrs(), r.mbrs(), &mut |i, j| v.push((i, j)));
        }
        v
    });
    let mut c = PassCounts::default();
    stages(
        &cands,
        |i| l.object(i as usize),
        |j| r.object(j as usize),
        tr,
        &mut c,
    );
    c
}

/// Objects whose uncapped APRIL approximation has more intervals in a
/// list than the default budget, so preprocessing coarsened them.
pub fn capped_objects(polygons: &[Polygon], grid: &Grid) -> u64 {
    let n = threads();
    let chunk = polygons.len().div_ceil(n).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = polygons
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|p| {
                            let a = AprilApprox::build(p, grid);
                            a.p.len().max(a.c.len()) > DEFAULT_MAX_INTERVALS
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("capped-object counter panicked"))
            .sum()
    })
}

pub fn run(args: &Args, size: Size, dir: &Path, exe: &Path) -> Result<Report, String> {
    let (left, right) = inputs(&args.workload, args.seed, size);
    let grid = grid(size.order);
    let paths = [dir.join("left.stjd"), dir.join("right.stjd")];
    let out = dir.join("links.nt");
    let mut tr = Tracer::new(args.trace);

    let mut setup = setups([&left, &right], dir, size.order, &paths, exe, &mut tr)?;
    let store_bytes = setup.bytes;

    // The oracle, once per run and off the clock: ST2 over the same
    // candidates.
    let (l, r) = (
        open(&paths[0], &mut Tracer::new(false))?,
        open(&paths[1], &mut Tracer::new(false))?,
    );
    let st2 = TopologyJoin::new().method(JoinMethod::St2).run(&l, &r);
    let oracle_links = oracle::sorted(st2.links);

    let mut metrics = Vec::new();
    let st = if args.trace {
        // Untraced and traced halves of the same run give the tracing
        // overhead; only the traced half's spans are kept.
        let half = args.seconds / 2.0;
        let min = (size.min_joins / 4).max(1);
        let plain = join_loop(
            &paths,
            &out,
            &oracle_links,
            half,
            min,
            &mut Tracer::new(false),
        )?;
        let traced = join_loop(&paths, &out, &oracle_links, half, min, &mut tr)?;
        let pass = stage_pass(&l, &r, &mut tr);
        oracle::print_first(
            "stage pass",
            &oracle::mismatches(&oracle_links, &pass.links),
            5,
        );
        if pass.candidates != st2.candidates {
            return Err(format!(
                "stage pass saw {} candidates, the join {}",
                pass.candidates, st2.candidates
            ));
        }
        let layer = tr.layer_ms();
        let ms = |name: &str| layer.get(name).copied().unwrap_or(0.0);
        let overhead = (median(&mut traced.join_ms.clone()) / median(&mut plain.join_ms.clone())
            - 1.0)
            * 100.0;
        let capped = capped_objects(&left.polygons, &grid) + capped_objects(&right.polygons, &grid);
        let intervals =
            (l.p_pool().len() + l.c_pool().len() + r.p_pool().len() + r.c_pool().len()) as f64;
        eprintln!(
            "adaptive verdicts: {:.1} skip cells, refined share {:.1}% (median over {} traced joins)",
            median(&mut traced.skip_cells.clone()),
            100.0 * median(&mut traced.refined_share.clone()),
            traced.join_ms.len()
        );
        metrics.extend(join_layer_metrics(
            &ms,
            &pass,
            store_bytes,
            intervals,
            capped,
        ));
        metrics.extend([
            m(
                "core.exec_utilization",
                median(&mut traced.utilization.clone()),
                "ratio",
            ),
            m(
                "core.exec_imbalance",
                median(&mut traced.imbalance.clone()),
                "ratio",
            ),
            m(
                "core.adaptive_skip_cells",
                median(&mut traced.skip_cells.clone()),
                "count",
            ),
            m("trace.overhead_pct", overhead, "%"),
        ]);
        let path = dir.join("trace.json");
        std::fs::write(&path, tr.to_chrome_json().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        // Report the operations of both halves.
        LoopStats {
            join_ms: [plain.join_ms, traced.join_ms].concat(),
            candidates: plain.candidates + traced.candidates,
            failed: plain.failed + traced.failed,
            ..LoopStats::default()
        }
    } else {
        let mut st = join_loop(
            &paths,
            &out,
            &oracle_links,
            args.seconds,
            size.min_joins,
            &mut tr,
        )?;
        // The heaviest of the processes that did the work: the
        // preprocessing processes, and this one, which joined.
        let join_rss = peak_rss_mib("self")?;
        eprintln!(
            "peak RSS: preprocessing {:.1} MiB, joining {join_rss:.1} MiB",
            setup.peak_rss_mib
        );
        let rss = setup.peak_rss_mib.max(join_rss);
        metrics.extend([
            m("setup_s", median(&mut setup.seconds), "s"),
            m("peak_rss_mb", rss, "MiB"),
            m("op_ms_p50", quantile(&mut st.join_ms, 0.5), "ms"),
            m("op_ms_tail", quantile(&mut st.join_ms, 0.9), "ms"),
        ]);
        eprintln!(
            "adaptive verdicts: skip cells per join {:?}; refined share min {:.1}% max {:.1}%",
            st.skip_cells
                .iter()
                .map(|&c| c as u64)
                .collect::<BTreeSet<_>>(),
            100.0
                * st.refined_share
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min),
            100.0 * st.refined_share.iter().copied().fold(0.0, f64::max),
        );
        st
    };
    eprintln!(
        "{} joins of {} x {}: {} candidates each, {} answers differ from the oracle (error rate {:.6})",
        st.join_ms.len(),
        left.name,
        right.name,
        st2.candidates,
        st.failed,
        st.failed as f64 / st.candidates.max(1) as f64
    );
    Ok(Report {
        attempted: st.candidates,
        failed: st.failed,
        metrics,
    })
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn join_layer_metrics(
    ms: &dyn Fn(&str) -> f64,
    pass: &PassCounts,
    store_bytes: u64,
    intervals: f64,
    capped: u64,
) -> Vec<Metric> {
    vec![
        m("store.wkt_parse_ms", ms("store.wkt_parse"), "ms"),
        m("store.write_ms", ms("store.write"), "ms"),
        m("store.bytes", store_bytes as f64, "bytes"),
        m("store.open_ms", ms("store.open"), "ms"),
        m("raster.build_ms", ms("raster.build"), "ms"),
        m("raster.intervals", intervals, "count"),
        m("raster.capped_objects", capped as f64, "count"),
        m("index.tiling_ms", ms("index.tiling"), "ms"),
        m("index.candidates_ms", ms("index.candidates"), "ms"),
        m("index.candidates", pass.candidates as f64, "count"),
        m("index.classify_ms", ms("index.classify"), "ms"),
        m("core.filter_ms", ms("core.filter"), "ms"),
        m("core.filter_attempts", pass.filter_attempts as f64, "count"),
        m("core.filter_decided", pass.filter_decided as f64, "count"),
        m(
            "core.filter_useful_share",
            pass.filter_decided as f64 / pass.filter_attempts.max(1) as f64,
            "ratio",
        ),
        m("core.refine_ms", ms("core.refine"), "ms"),
        m("core.refined", pass.refined as f64, "count"),
        m("core.exec_ms", ms("core.exec"), "ms"),
        m("core.output_ms", ms("core.output"), "ms"),
        m("core.links", pass.links.len() as f64, "count"),
        m("de9im.prepare_ms", ms("de9im.prepare"), "ms"),
        m("de9im.relate_ms", ms("de9im.relate"), "ms"),
        m("de9im.prepares", pass.prepares() as f64, "count"),
        m(
            "de9im.distinct_objects",
            pass.refined_objects.len() as f64,
            "count",
        ),
        m(
            "de9im.prepare_reuse",
            pass.prepares() as f64 / pass.refined_objects.len().max(1) as f64,
            "ratio",
        ),
    ]
}
