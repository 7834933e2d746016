//! Shared benchmark harness: scenario setup, method registry and timing.

use std::time::{Duration, Instant};
use stj_core::{
    find_relation, find_relation_adaptive_with, find_relation_april, find_relation_op2,
    find_relation_st2, AdaptiveMode, AdaptiveModel, AdaptiveWorker, Dataset, DatasetArena,
    FindOutcome, ObjectRef, PipelineStats, RelateScratch,
};
use stj_datagen::{generate_combo, ComboId};
use stj_geom::Rect;
use stj_index::mbr_join_parallel;
use stj_obs::{JoinProfile, Json, Recorder};
use stj_raster::Grid;

/// Grid order used by all experiments (the paper's `2^16 × 2^16`).
pub const GRID_ORDER: u32 = 16;

/// Default generation scale; override with the `STJ_SCALE` environment
/// variable. Sized so the full `repro_all` run finishes in minutes on a
/// single core (the paper's datasets are 100–1000× larger; DESIGN.md §7).
pub fn default_scale() -> f64 {
    std::env::var("STJ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

/// Worker threads for preprocessing (dataset build + MBR join).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A prepared join scenario: both datasets preprocessed on a shared grid
/// plus the MBR-join candidate pairs.
pub struct ComboSetup {
    /// Combination id.
    pub combo: ComboId,
    /// Left dataset (preprocessed, columnar).
    pub r: DatasetArena,
    /// Right dataset (preprocessed, columnar).
    pub s: DatasetArena,
    /// Candidate pairs from the MBR intersection join.
    pub pairs: Vec<(u32, u32)>,
    /// Wall time spent preprocessing (APRIL build), off the measured path.
    pub preprocess_time: Duration,
}

impl ComboSetup {
    /// Generates, preprocesses and MBR-joins one combination.
    pub fn build(combo: ComboId, scale: f64) -> ComboSetup {
        let (r_polys, s_polys) = generate_combo(combo, scale);
        let mut extent = Rect::empty();
        for p in r_polys.iter().chain(&s_polys) {
            extent.grow_rect(p.mbr());
        }
        let grid = Grid::new(extent, GRID_ORDER);
        let (rn, sn) = combo.datasets();
        let t = Instant::now();
        let r = Dataset::build_parallel_with_budget(
            rn.name(),
            r_polys,
            &grid,
            threads(),
            rn.interval_budget(),
        );
        let s = Dataset::build_parallel_with_budget(
            sn.name(),
            s_polys,
            &grid,
            threads(),
            sn.interval_budget(),
        );
        let (r, s) = (r.to_arena(), s.to_arena());
        let preprocess_time = t.elapsed();
        let pairs = mbr_join_parallel(r.mbrs(), s.mbrs(), threads());
        ComboSetup {
            combo,
            r,
            s,
            pairs,
            preprocess_time,
        }
    }

    /// The pair of object views for candidate `(i, j)`.
    #[inline]
    pub fn pair(&self, i: u32, j: u32) -> (ObjectRef<'_>, ObjectRef<'_>) {
        (self.r.object(i as usize), self.s.object(j as usize))
    }
}

/// A find-relation method under comparison.
#[derive(Clone, Copy)]
pub struct Method {
    /// Display name as used in the paper's figures.
    pub name: &'static str,
    /// The per-pair entry point.
    pub run: fn(ObjectRef<'_>, ObjectRef<'_>) -> FindOutcome,
}

/// The four compared methods, in the paper's presentation order.
pub const METHODS: [Method; 4] = [
    Method {
        name: "ST2",
        run: find_relation_st2,
    },
    Method {
        name: "OP2",
        run: find_relation_op2,
    },
    Method {
        name: "APRIL",
        run: find_relation_april,
    },
    Method {
        name: "P+C",
        run: find_relation,
    },
];

/// Result of running one method over one candidate stream.
#[derive(Clone, Copy, Debug)]
pub struct MethodResult {
    /// Pairs processed per second.
    pub throughput: f64,
    /// The paper's "% of undetermined pairs".
    pub undetermined_pct: f64,
    /// Total wall time.
    pub total_time: Duration,
    /// Aggregate outcome statistics.
    pub stats: PipelineStats,
}

/// Runs `method` over every candidate pair of `setup` and measures it.
pub fn run_method(setup: &ComboSetup, method: &Method) -> MethodResult {
    let mut stats = PipelineStats::default();
    let t = Instant::now();
    for &(i, j) in &setup.pairs {
        let (r, s) = setup.pair(i, j);
        stats.record(&(method.run)(r, s));
    }
    let total_time = t.elapsed();
    MethodResult {
        throughput: stats.pairs as f64 / total_time.as_secs_f64().max(1e-12),
        undetermined_pct: stats.undetermined_pct(),
        total_time,
        stats,
    }
}

/// Runs a second, instrumented P+C pass over `setup`'s candidate stream
/// and returns the per-stage/per-class profile.
///
/// Deliberately separate from [`run_method`]: throughput numbers are
/// always measured with profiling statically disabled, and the profile
/// comes from this extra pass whose wall time is never reported.
pub fn profile_pc(setup: &ComboSetup) -> JoinProfile {
    let mut rec = Recorder::new();
    let model = AdaptiveModel::new(AdaptiveMode::Off);
    let mut worker = AdaptiveWorker::new(&model);
    for &(i, j) in &setup.pairs {
        let (r, s) = setup.pair(i, j);
        // Fresh scratch per pair, like the `find_relation` quickstart
        // that `run_method` times.
        let mut scratch = RelateScratch::default();
        let _ = find_relation_adaptive_with(r, s, &mut rec, &mut scratch, &mut worker);
    }
    rec.into_profile()
}

impl MethodResult {
    /// One method's entry in a `stj-bench/v1` document.
    pub fn to_json(&self, name: &str) -> Json {
        Json::object([
            ("name", Json::str(name)),
            ("throughput_pairs_per_sec", Json::F64(self.throughput)),
            ("undetermined_pct", Json::F64(self.undetermined_pct)),
            (
                "total_ns",
                Json::U64(self.total_time.as_nanos().min(u128::from(u64::MAX)) as u64),
            ),
            (
                "stats",
                Json::object([
                    ("pairs", Json::U64(self.stats.pairs)),
                    ("by_mbr", Json::U64(self.stats.by_mbr)),
                    ("by_intermediate", Json::U64(self.stats.by_intermediate)),
                    ("refined", Json::U64(self.stats.refined)),
                ]),
            ),
        ])
    }
}

/// Complexity ranges and their grouped pair lists, as returned by
/// [`complexity_levels`].
pub type ComplexityGroups = (Vec<(usize, usize)>, Vec<Vec<(u32, u32)>>);

/// Splits candidate pairs into `levels` equi-depth groups by pair
/// complexity (sum of vertex counts), mirroring the paper's Table 4.
/// Returns `(complexity ranges, grouped pair lists)`.
pub fn complexity_levels(setup: &ComboSetup, levels: usize) -> ComplexityGroups {
    let mut keyed: Vec<(usize, (u32, u32))> = setup
        .pairs
        .iter()
        .map(|&(i, j)| {
            let (r, s) = setup.pair(i, j);
            (r.num_vertices() + s.num_vertices(), (i, j))
        })
        .collect();
    keyed.sort_unstable_by_key(|&(c, _)| c);
    let n = keyed.len();
    let mut ranges = Vec::with_capacity(levels);
    let mut groups = Vec::with_capacity(levels);
    for l in 0..levels {
        let lo = l * n / levels;
        let hi = ((l + 1) * n / levels).min(n);
        if lo >= hi {
            ranges.push((0, 0));
            groups.push(Vec::new());
            continue;
        }
        ranges.push((keyed[lo].0, keyed[hi - 1].0));
        groups.push(keyed[lo..hi].iter().map(|&(_, p)| p).collect());
    }
    (ranges, groups)
}

/// Formats a byte count as MB with one decimal, as in Table 2.
pub fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1_048_576.0)
}

/// Formats a large count compactly (`63.3K`, `5.18M`), as in Table 3.
pub fn human_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_setup_is_consistent() {
        let setup = ComboSetup::build(ComboId::OleOpe, 0.01);
        assert!(!setup.pairs.is_empty());
        for &(i, j) in &setup.pairs {
            assert!((i as usize) < setup.r.len());
            assert!((j as usize) < setup.s.len());
            let (r, s) = setup.pair(i, j);
            assert!(r.mbr.intersects(s.mbr));
        }
    }

    #[test]
    fn methods_agree_and_pc_refines_least() {
        let setup = ComboSetup::build(ComboId::OleOpe, 0.01);
        let results: Vec<MethodResult> = METHODS.iter().map(|m| run_method(&setup, m)).collect();
        for r in &results {
            assert_eq!(r.stats.pairs, setup.pairs.len() as u64);
        }
        let by_name = |n: &str| results[METHODS.iter().position(|m| m.name == n).unwrap()];
        assert!(by_name("P+C").stats.refined <= by_name("APRIL").stats.refined);
        assert!(by_name("APRIL").stats.refined <= by_name("ST2").stats.refined);
    }

    #[test]
    fn complexity_levels_are_equi_depth_and_ordered() {
        let setup = ComboSetup::build(ComboId::OleOpe, 0.01);
        let (ranges, groups) = complexity_levels(&setup, 5);
        assert_eq!(groups.len(), 5);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, setup.pairs.len());
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0 || w[1] == (0, 0));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(1_048_576), "1.0");
        assert_eq!(human_count(63_300), "63.3K");
        assert_eq!(human_count(5_180_000), "5.18M");
        assert_eq!(human_count(42), "42");
    }
}
