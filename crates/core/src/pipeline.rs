//! Algorithm 1: the *find relation* pipeline (P+C method).
//!
//! For a pair whose MBRs intersect: classify the MBR intersection
//! (Sec 3.1), run the matching intermediate filter on the `P`/`C`
//! interval lists (Sec 3.2), and only when the filter cannot decide,
//! compute the DE-9IM matrix and match candidate masks specific→general
//! (selective refinement).
//!
//! This module holds the pipeline's outcome types, selective refinement
//! and the [`find_relation`] quickstart. The one pipeline body is
//! [`find_relation_adaptive_with`]: the paper's static pipeline is that
//! body under [`crate::AdaptiveMode::Off`].

use crate::adaptive::{find_relation_adaptive_with, with_off_worker};
use crate::arena::ObjectRef;
use stj_de9im::{relate_with, RelateScratch, TopoRelation};
use stj_obs::{Disabled, Stage};

/// How a pair's relation was determined — the pipeline stage that
/// produced the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Determination {
    /// Decided by the MBR filter alone (disjoint MBRs, or the crossing
    /// case of Figure 4(d)).
    MbrFilter,
    /// Decided by an intermediate raster filter without touching the
    /// geometries.
    IntermediateFilter,
    /// Required the DE-9IM matrix (the pair was *undetermined* in the
    /// paper's terminology).
    Refinement,
}

impl Determination {
    /// The profiling [`Stage`] this determination corresponds to.
    pub fn stage(self) -> Stage {
        match self {
            Determination::MbrFilter => Stage::MbrClassify,
            Determination::IntermediateFilter => Stage::IntermediateFilter,
            Determination::Refinement => Stage::Refinement,
        }
    }
}

/// Result of [`find_relation`]: the most specific relation plus which
/// stage decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FindOutcome {
    /// The most specific topological relation of the pair.
    pub relation: TopoRelation,
    /// The deciding pipeline stage.
    pub determination: Determination,
}

/// Selective refinement: computes the DE-9IM matrix through
/// caller-owned scratch memory and resolves the most specific relation.
///
/// `candidates` — the narrowed, specific→general list produced by the
/// MBR/intermediate filters — is consulted only by a debug assertion
/// validating the filters' soundness argument (the true relation must be
/// in the set); the returned relation is derived from the matrix alone.
pub fn refine_with(
    r: ObjectRef<'_>,
    s: ObjectRef<'_>,
    candidates: &[TopoRelation],
    scratch: &mut RelateScratch,
) -> TopoRelation {
    let m = relate_with(&r.geom, &s.geom, scratch);
    let best = TopoRelation::most_specific(&m);
    debug_assert!(
        candidates.contains(&best),
        "refinement found {best:?} outside candidate set {candidates:?} (matrix {m:?})"
    );
    best
}

/// Solves *find relation* for one candidate pair with the paper's P+C
/// pipeline (Algorithm 1).
///
/// The quickstart entry point: runs
/// [`find_relation_adaptive_with`] under [`AdaptiveMode::Off`] (the
/// paper's static pipeline) with fresh scratch memory. Batch callers
/// hold a per-worker scratch and [`crate::AdaptiveWorker`] and call that
/// body directly.
///
/// [`AdaptiveMode::Off`]: crate::AdaptiveMode::Off
pub fn find_relation(r: ObjectRef<'_>, s: ObjectRef<'_>) -> FindOutcome {
    with_off_worker(|w| {
        find_relation_adaptive_with(r, s, &mut Disabled, &mut RelateScratch::default(), w)
    })
}

/// Aggregate statistics of a pipeline run over a pair stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Pairs processed.
    pub pairs: u64,
    /// Pairs decided by the MBR filter alone.
    pub by_mbr: u64,
    /// Pairs decided by the intermediate filters.
    pub by_intermediate: u64,
    /// Pairs requiring DE-9IM refinement (*undetermined* pairs).
    pub refined: u64,
}

impl PipelineStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: &FindOutcome) {
        self.pairs += 1;
        match outcome.determination {
            Determination::MbrFilter => self.by_mbr += 1,
            Determination::IntermediateFilter => self.by_intermediate += 1,
            Determination::Refinement => self.refined += 1,
        }
    }

    /// Percentage of pairs that needed refinement — the paper's
    /// "% of undetermined pairs" metric (Figure 7(b), Figure 8(a)).
    pub fn undetermined_pct(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.refined as f64 / self.pairs as f64 * 100.0
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.pairs += other.pairs;
        self.by_mbr += other.by_mbr;
        self.by_intermediate += other.by_intermediate;
        self.refined += other.refined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SpatialObject;
    use stj_geom::{Polygon, Rect};
    use stj_raster::Grid;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialObject {
        SpatialObject::build(Polygon::rect(Rect::from_coords(x0, y0, x1, y1)), &grid())
    }

    #[test]
    fn disjoint_mbrs_decided_by_mbr_filter() {
        let a = obj(0.0, 0.0, 10.0, 10.0);
        let b = obj(50.0, 50.0, 60.0, 60.0);
        let out = find_relation(a.view(), b.view());
        assert_eq!(out.relation, TopoRelation::Disjoint);
        assert_eq!(out.determination, Determination::MbrFilter);
    }

    #[test]
    fn crossing_mbrs_decided_by_mbr_filter() {
        let wide = obj(0.0, 40.0, 100.0, 60.0);
        let tall = obj(40.0, 0.0, 60.0, 100.0);
        let out = find_relation(wide.view(), tall.view());
        assert_eq!(out.relation, TopoRelation::Intersects);
        assert_eq!(out.determination, Determination::MbrFilter);
    }

    #[test]
    fn deep_containment_decided_by_intermediate_filter() {
        let outer = obj(0.0, 0.0, 90.0, 90.0);
        let inner = obj(40.0, 40.0, 50.0, 50.0);
        let out = find_relation(inner.view(), outer.view());
        assert_eq!(out.relation, TopoRelation::Inside);
        assert_eq!(out.determination, Determination::IntermediateFilter);
        let out2 = find_relation(outer.view(), inner.view());
        assert_eq!(out2.relation, TopoRelation::Contains);
        assert_eq!(out2.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn overlapping_bodies_decided_by_intermediate_filter() {
        // Big overlap: C of one overlaps P of the other.
        let a = obj(0.0, 0.0, 60.0, 60.0);
        let b = obj(30.0, 30.0, 90.0, 90.0);
        let out = find_relation(a.view(), b.view());
        assert_eq!(out.relation, TopoRelation::Intersects);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn raster_disjoint_decided_by_intermediate_filter() {
        // MBRs overlap, bodies (and rasters) far apart within them.
        let a = SpatialObject::build(
            Polygon::from_coords(vec![(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let b = SpatialObject::build(
            Polygon::from_coords(vec![(40.0, 40.0), (40.0, 39.0), (39.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = find_relation(a.view(), b.view());
        assert_eq!(out.relation, TopoRelation::Disjoint);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn touching_pair_requires_refinement() {
        // Shared edge: rasters cannot distinguish meets from a hairline
        // gap; refinement must resolve it.
        let a = obj(0.0, 0.0, 50.0, 50.0);
        let b = obj(50.0, 0.0, 90.0, 50.0);
        let out = find_relation(a.view(), b.view());
        assert_eq!(out.relation, TopoRelation::Meets);
        assert_eq!(out.determination, Determination::Refinement);
    }

    #[test]
    fn equal_pair_requires_refinement_but_is_correct() {
        let a = obj(10.0, 10.0, 60.0, 60.0);
        let b = obj(10.0, 10.0, 60.0, 60.0);
        let out = find_relation(a.view(), b.view());
        assert_eq!(out.relation, TopoRelation::Equals);
        assert_eq!(out.determination, Determination::Refinement);
    }

    #[test]
    fn covered_by_with_equal_mbrs() {
        // b fills a's full extent; a is a diagonal-ish slice covered by b.
        let b = obj(0.0, 0.0, 60.0, 60.0);
        let a = SpatialObject::build(
            Polygon::from_coords(vec![(0.0, 0.0), (60.0, 0.0), (60.0, 60.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = find_relation(a.view(), b.view());
        assert_eq!(out.relation, TopoRelation::CoveredBy);
        let out2 = find_relation(b.view(), a.view());
        assert_eq!(out2.relation, TopoRelation::Covers);
    }

    #[test]
    fn stats_accumulate() {
        let mut st = PipelineStats::default();
        let a = obj(0.0, 0.0, 10.0, 10.0);
        let b = obj(50.0, 50.0, 60.0, 60.0);
        let c = obj(2.0, 2.0, 8.0, 8.0);
        st.record(&find_relation(a.view(), b.view())); // mbr
        st.record(&find_relation(c.view(), a.view())); // intermediate (deep inside)
        st.record(&find_relation(a.view(), a.view())); // refinement (equals)
        assert_eq!(st.pairs, 3);
        assert_eq!(st.by_mbr, 1);
        assert_eq!(st.by_intermediate, 1);
        assert_eq!(st.refined, 1);
        assert!((st.undetermined_pct() - 33.333).abs() < 0.01);
        let mut st2 = PipelineStats::default();
        st2.merge(&st);
        st2.merge(&st);
        assert_eq!(st2.pairs, 6);
        assert_eq!(st2.refined, 2);
    }

    #[test]
    fn empty_stats_pct_is_zero() {
        assert_eq!(PipelineStats::default().undetermined_pct(), 0.0);
    }
}
