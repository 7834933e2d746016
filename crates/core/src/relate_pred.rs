//! `relate_p` — predicate-specific topology tests (Sec 3.3, Figure 6).
//!
//! Instead of finding the most specific relation, `relate_p` answers
//! "does relation `p` hold for this pair?" with a filter sequence
//! tailored to `p`. Three short-circuit layers:
//!
//! 1. **Impossible relation** — the MBR classification already rules `p`
//!    out (e.g. `equals` with different MBRs, `meets` with crossing
//!    MBRs).
//! 2. **Raster verdicts** — merge-joins on the `P`/`C` lists that either
//!    confirm (`rC ⊆ sP` proves containment) or refute (`rC ⊄ sC`
//!    refutes containment; interior cell contact refutes `meets`).
//! 3. **Refinement** — DE-9IM as the fallback.
//!
//! The layers are `mbr_verdict` and `raster_verdict`; the one body
//! that sequences them is [`relate_p_adaptive_with`].

use crate::adaptive::{relate_p_adaptive_with, with_off_worker};
use crate::arena::ObjectRef;
use stj_de9im::{RelateScratch, TopoRelation};
use stj_index::MbrRelation;
use stj_obs::Disabled;

/// How a [`relate_p`] query was answered (for filter-effectiveness
/// accounting, mirroring [`crate::pipeline::Determination`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelateDetermination {
    /// Decided by the MBR classification (including "impossible
    /// relation" short-circuits).
    MbrFilter,
    /// Decided by `P`/`C` list merge-joins.
    IntermediateFilter,
    /// Required the DE-9IM matrix.
    Refinement,
}

/// Result of a [`relate_p`] query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelateOutcome {
    /// Whether relation `p` holds for the pair.
    pub holds: bool,
    /// The deciding stage.
    pub determination: RelateDetermination,
}

impl RelateOutcome {
    pub(crate) fn mbr(holds: bool) -> RelateOutcome {
        RelateOutcome {
            holds,
            determination: RelateDetermination::MbrFilter,
        }
    }

    pub(crate) fn raster(holds: bool) -> RelateOutcome {
        RelateOutcome {
            holds,
            determination: RelateDetermination::IntermediateFilter,
        }
    }

    pub(crate) fn refined(holds: bool) -> RelateOutcome {
        RelateOutcome {
            holds,
            determination: RelateDetermination::Refinement,
        }
    }
}

/// Layer 1 verdict from the MBR classification alone: `Some(holds)` for
/// impossible-relation short-circuits and the two self-confirming MBR
/// cases, `None` if the rasters must be consulted.
pub(crate) fn mbr_verdict(mbr_rel: MbrRelation, p: TopoRelation) -> Option<bool> {
    use TopoRelation::*;
    match mbr_rel {
        MbrRelation::Disjoint => Some(p == Disjoint),
        // Definite `intersects`: the only relation consistent with a
        // crossing-MBR pair is plain intersects.
        MbrRelation::Cross => Some(p == Intersects),
        _ if !mbr_rel.admits(p) => Some(false),
        _ => None,
    }
}

/// Layer 2 verdict from the predicate-specific raster filters
/// (Figure 6): `Some(holds)` when the `P`/`C` merge-joins confirm or
/// refute `p`, `None` when the pair must be refined.
pub(crate) fn raster_verdict(r: ObjectRef<'_>, s: ObjectRef<'_>, p: TopoRelation) -> Option<bool> {
    use TopoRelation::*;
    let (ra, sa) = (r.april, s.april);
    match p {
        Equals => {
            if !ra.c.matches(sa.c) || !ra.p.matches(sa.p) {
                return Some(false);
            }
        }
        Inside | CoveredBy => {
            if !ra.c.inside(sa.c) {
                return Some(false);
            }
            if ra.c.inside(sa.p) {
                // Proves r ⊂ int(s): strict containment, which satisfies
                // both `inside` and `covered by`.
                return Some(true);
            }
        }
        Contains | Covers => {
            if !ra.c.contains(sa.c) {
                return Some(false);
            }
            if ra.p.contains(sa.c) {
                return Some(true);
            }
        }
        Meets => {
            if !ra.c.overlaps(sa.c) {
                // Disjoint: no boundary contact.
                return Some(false);
            }
            if ra.c.overlaps(sa.p) || ra.p.overlaps(sa.c) {
                // Interiors provably meet: not `meets`.
                return Some(false);
            }
        }
        Intersects => {
            if !ra.c.overlaps(sa.c) {
                return Some(false);
            }
            if ra.c.overlaps(sa.p) || ra.p.overlaps(sa.c) {
                return Some(true);
            }
        }
        Disjoint => {
            if !ra.c.overlaps(sa.c) {
                return Some(true);
            }
            if ra.c.overlaps(sa.p) || ra.p.overlaps(sa.c) {
                return Some(false);
            }
        }
    }
    None
}

/// Tests whether topological relation `p` holds between `r` and `s`.
///
/// The quickstart entry point: runs [`relate_p_adaptive_with`] under
/// [`crate::AdaptiveMode::Off`] (the paper's static filter sequence)
/// with fresh scratch memory. Batch callers hold a per-worker scratch
/// and [`crate::AdaptiveWorker`] and call that body directly.
pub fn relate_p(r: ObjectRef<'_>, s: ObjectRef<'_>, p: TopoRelation) -> RelateOutcome {
    with_off_worker(|w| {
        relate_p_adaptive_with(r, s, p, &mut Disabled, &mut RelateScratch::default(), w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SpatialObject;
    use stj_de9im::relate;
    use stj_geom::{Polygon, Rect};
    use stj_raster::Grid;
    use TopoRelation::*;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialObject {
        SpatialObject::build(Polygon::rect(Rect::from_coords(x0, y0, x1, y1)), &grid())
    }

    /// Oracle: full relate + relation semantics.
    fn oracle(r: &SpatialObject, s: &SpatialObject, p: TopoRelation) -> bool {
        p.holds(&relate(&r.polygon, &s.polygon))
    }

    const ALL: [TopoRelation; 8] = [
        Disjoint, Intersects, Meets, Equals, Inside, Contains, CoveredBy, Covers,
    ];

    #[test]
    fn agrees_with_oracle_on_catalog() {
        let objects = [
            obj(0.0, 0.0, 50.0, 50.0),   // base
            obj(10.0, 10.0, 30.0, 30.0), // deep inside base
            obj(0.0, 0.0, 50.0, 50.0),   // equal to base
            obj(50.0, 0.0, 90.0, 50.0),  // meets base on an edge
            obj(60.0, 60.0, 90.0, 90.0), // disjoint from base
            obj(25.0, 25.0, 75.0, 75.0), // overlaps base
            obj(0.0, 0.0, 25.0, 25.0),   // covered by base (corner)
        ];
        for (i, r) in objects.iter().enumerate() {
            for (j, s) in objects.iter().enumerate() {
                for p in ALL {
                    let got = relate_p(r.view(), s.view(), p);
                    assert_eq!(got.holds, oracle(r, s, p), "pair ({i},{j}) predicate {p:?}");
                }
            }
        }
    }

    #[test]
    fn impossible_relations_short_circuit() {
        let small = obj(10.0, 10.0, 20.0, 20.0);
        let big = obj(0.0, 0.0, 50.0, 50.0);
        // small's MBR is inside big's: contains/covers/equals impossible.
        for p in [Contains, Covers, Equals] {
            let out = relate_p(small.view(), big.view(), p);
            assert!(!out.holds);
            assert_eq!(out.determination, RelateDetermination::MbrFilter, "{p:?}");
        }
    }

    #[test]
    fn cross_mbrs_answer_from_mbr_alone() {
        let wide = obj(0.0, 40.0, 100.0, 60.0);
        let tall = obj(40.0, 0.0, 60.0, 100.0);
        let out = relate_p(wide.view(), tall.view(), Intersects);
        assert!(out.holds);
        assert_eq!(out.determination, RelateDetermination::MbrFilter);
        let out = relate_p(wide.view(), tall.view(), Meets);
        assert!(!out.holds);
        assert_eq!(out.determination, RelateDetermination::MbrFilter);
    }

    #[test]
    fn meets_refuted_cheaply_for_clear_overlaps() {
        let a = obj(0.0, 0.0, 60.0, 60.0);
        let b = obj(30.0, 30.0, 90.0, 90.0);
        let out = relate_p(a.view(), b.view(), Meets);
        assert!(!out.holds);
        assert_eq!(out.determination, RelateDetermination::IntermediateFilter);
    }

    #[test]
    fn deep_containment_confirmed_by_raster() {
        let outer = obj(0.0, 0.0, 90.0, 90.0);
        let inner = obj(40.0, 40.0, 50.0, 50.0);
        for p in [Inside, CoveredBy] {
            let out = relate_p(inner.view(), outer.view(), p);
            assert!(out.holds, "{p:?}");
            assert_eq!(out.determination, RelateDetermination::IntermediateFilter);
        }
        for p in [Contains, Covers] {
            let out = relate_p(outer.view(), inner.view(), p);
            assert!(out.holds, "{p:?}");
            assert_eq!(out.determination, RelateDetermination::IntermediateFilter);
        }
    }

    #[test]
    fn equals_refuted_by_differing_lists() {
        // Same MBR, different footprints.
        let square = obj(0.0, 0.0, 60.0, 60.0);
        let tri = SpatialObject::build(
            Polygon::from_coords(
                vec![
                    (0.0, 0.0),
                    (60.0, 0.0),
                    (60.0, 60.0),
                    (0.0, 60.0),
                    (0.0, 30.0),
                    (30.0, 30.0),
                    (30.0, 15.0),
                    (0.0, 15.0),
                ],
                vec![],
            )
            .unwrap(),
            &grid(),
        );
        let out = relate_p(square.view(), tri.view(), Equals);
        assert!(!out.holds);
        assert_eq!(out.determination, RelateDetermination::IntermediateFilter);
    }

    #[test]
    fn equals_needs_refinement_when_lists_match() {
        let a = obj(0.0, 0.0, 60.0, 60.0);
        let b = obj(0.0, 0.0, 60.0, 60.0);
        let out = relate_p(a.view(), b.view(), Equals);
        assert!(out.holds);
        assert_eq!(out.determination, RelateDetermination::Refinement);
    }

    #[test]
    fn disjoint_predicate_paths() {
        let a = obj(0.0, 0.0, 10.0, 10.0);
        let far = obj(50.0, 50.0, 60.0, 60.0);
        let out = relate_p(a.view(), far.view(), Disjoint);
        assert!(out.holds);
        assert_eq!(out.determination, RelateDetermination::MbrFilter);

        // Bodies near but separate with overlapping MBRs.
        let t1 = SpatialObject::build(
            Polygon::from_coords(vec![(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let t2 = SpatialObject::build(
            Polygon::from_coords(vec![(40.0, 40.0), (40.0, 39.0), (39.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = relate_p(t1.view(), t2.view(), Disjoint);
        assert!(out.holds);
        assert_eq!(out.determination, RelateDetermination::IntermediateFilter);
    }
}
