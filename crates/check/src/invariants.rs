//! The per-pair invariants (a)–(e), checked against the DE-9IM oracle,
//! plus the dataset-level executor-equivalence invariant (f) enforced by
//! the runner.

use stj_core::{
    find_relation, find_relation_april, find_relation_op2, find_relation_st2, intermediate_filter,
    relate_p, Dataset, IfOutcome, SpatialObject,
};
use stj_de9im::{relate, TopoRelation};
use stj_geom::Polygon;
use stj_index::MbrRelation;
use stj_raster::Grid;
use stj_store::{open_arena_from_bytes, write_arena_v2};

/// Which invariant a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// (a) A join method disagreed with the oracle's most specific
    /// relation.
    MethodAgreement,
    /// (b) `find_relation(s, r)` is not the converse of
    /// `find_relation(r, s)`.
    ConverseSymmetry,
    /// (c) The result is outside `MbrRelation::candidates()` for the
    /// pair's MBR class.
    MbrAdmissibility,
    /// (d) An APRIL approximation or filter verdict contradicts DE-9IM.
    AprilSoundness,
    /// (e) The pair answers differently after a v2 write / zero-copy
    /// open round trip through [`stj_core::DatasetArena`].
    StorageFidelity,
    /// (f) The streaming `TopologyJoin` executor disagrees with a
    /// brute-force nested loop over every pair on links, stats, profile
    /// decided counts, or candidate counts over a dataset assembled from
    /// the adversarial corpus (checked once per run by the runner, not
    /// per pair).
    ExecEquivalence,
    /// (g) The out-of-core driver over Hilbert-sharded files disagrees
    /// with the single-arena join on links, stats, or candidate counts
    /// — at one thread or at the run's thread count (checked once per
    /// run by the runner, over real shard files in a temp directory).
    ShardEquivalence,
    /// (h) The adaptive pipeline (`--adaptive on` / `force-skip`)
    /// disagrees with the static pipeline on links or per-relation
    /// counts over the adversarial corpus — at one thread or at the
    /// run's thread count (checked once per run by the runner).
    /// Skipping the APRIL stage only ever re-routes a pair to exact
    /// refinement, so any divergence is a bug.
    AdaptiveEquivalence,
}

impl InvariantKind {
    /// Every kind, in report order.
    pub const ALL: [InvariantKind; 8] = [
        InvariantKind::MethodAgreement,
        InvariantKind::ConverseSymmetry,
        InvariantKind::MbrAdmissibility,
        InvariantKind::AprilSoundness,
        InvariantKind::StorageFidelity,
        InvariantKind::ExecEquivalence,
        InvariantKind::ShardEquivalence,
        InvariantKind::AdaptiveEquivalence,
    ];

    /// Stable snake_case name, used as a key in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::MethodAgreement => "method_agreement",
            InvariantKind::ConverseSymmetry => "converse_symmetry",
            InvariantKind::MbrAdmissibility => "mbr_admissibility",
            InvariantKind::AprilSoundness => "april_soundness",
            InvariantKind::StorageFidelity => "storage_fidelity",
            InvariantKind::ExecEquivalence => "exec_equivalence",
            InvariantKind::ShardEquivalence => "shard_equivalence",
            InvariantKind::AdaptiveEquivalence => "adaptive_equivalence",
        }
    }
}

/// Outcome of checking one pair: either clean (with the pipeline's
/// decision stage, for filter-effectiveness accounting) or the first
/// invariant violated plus a human-readable detail line.
pub type PairVerdict = Result<stj_core::FindOutcome, (InvariantKind, String)>;

const ALL_RELATIONS: [TopoRelation; 8] = [
    TopoRelation::Disjoint,
    TopoRelation::Intersects,
    TopoRelation::Meets,
    TopoRelation::Equals,
    TopoRelation::Inside,
    TopoRelation::Contains,
    TopoRelation::CoveredBy,
    TopoRelation::Covers,
];

/// Checks invariants (a)–(e) for one polygon pair on `grid`.
///
/// Builds the APRIL approximations, runs every join method plus all
/// eight `relate_p` predicates, and compares everything against the
/// DE-9IM oracle; the pair is then pushed through a v2 write and
/// zero-copy open to confirm the arena-backed views answer
/// identically. Returns the first violation found.
pub fn check_pair(a: &Polygon, b: &Polygon, grid: &Grid) -> PairVerdict {
    let r = SpatialObject::build(a.clone(), grid);
    let s = SpatialObject::build(b.clone(), grid);

    // (d) structural half: P ⊆ C per object.
    for (label, obj) in [("a", &r), ("b", &s)] {
        if !obj.april.p.inside(&obj.april.c) {
            return Err((
                InvariantKind::AprilSoundness,
                format!("object {label}: APRIL P list not a subset of its C list"),
            ));
        }
    }

    let matrix = relate(a, b);
    let truth = TopoRelation::most_specific(&matrix);

    // (a) method agreement against the oracle.
    let pc = find_relation(r.view(), s.view());
    for (method, got) in [
        ("pc", pc),
        ("st2", find_relation_st2(r.view(), s.view())),
        ("op2", find_relation_op2(r.view(), s.view())),
        ("april", find_relation_april(r.view(), s.view())),
    ] {
        if got.relation != truth {
            return Err((
                InvariantKind::MethodAgreement,
                format!(
                    "{method} says {:?} (via {:?}), oracle says {truth:?}",
                    got.relation, got.determination
                ),
            ));
        }
    }

    // (b) converse symmetry.
    let rev = find_relation(s.view(), r.view());
    if rev.relation != truth.converse() {
        return Err((
            InvariantKind::ConverseSymmetry,
            format!(
                "find_relation(a,b) = {truth:?} but find_relation(b,a) = {:?} (expected {:?})",
                rev.relation,
                truth.converse()
            ),
        ));
    }

    // (c) admissibility: the truth must be in the MBR class candidates.
    let mbr_rel = MbrRelation::classify(&r.mbr, &s.mbr);
    if !mbr_rel.admits(truth) {
        return Err((
            InvariantKind::MbrAdmissibility,
            format!(
                "true relation {truth:?} outside candidates {:?} of MBR class {}",
                mbr_rel.candidates(),
                mbr_rel.name()
            ),
        ));
    }

    // (d) filter half: a Definite intermediate-filter verdict must match
    // the oracle...
    if !matches!(mbr_rel, MbrRelation::Disjoint | MbrRelation::Cross) {
        if let IfOutcome::Definite(rel) = intermediate_filter(mbr_rel, r.view(), s.view()) {
            if rel != truth {
                return Err((
                    InvariantKind::AprilSoundness,
                    format!(
                        "intermediate filter ({}) decided {rel:?}, oracle says {truth:?}",
                        mbr_rel.name()
                    ),
                ));
            }
        }
    }
    // ...and every relate_p predicate answer must match DE-9IM semantics.
    for p in ALL_RELATIONS {
        let out = relate_p(r.view(), s.view(), p);
        let expect = p.holds(&matrix);
        if out.holds != expect {
            return Err((
                InvariantKind::AprilSoundness,
                format!(
                    "relate_p({p:?}) = {} (via {:?}), DE-9IM says {expect}",
                    out.holds, out.determination
                ),
            ));
        }
    }

    // (e) storage fidelity: write the pair as an STJD v2 arena, reopen it
    // through the zero-copy path (bulk decode on platforms without it),
    // and require the borrowed views to answer exactly like the owned
    // objects did above.
    let ds = Dataset {
        name: "check-pair".to_string(),
        objects: vec![r.clone(), s.clone()],
    };
    let arena = ds.to_arena();
    let mut buf = Vec::new();
    if let Err(e) = write_arena_v2(&mut buf, &arena, grid) {
        return Err((
            InvariantKind::StorageFidelity,
            format!("v2 write failed: {e}"),
        ));
    }
    let reopened = match open_arena_from_bytes(&buf) {
        Ok((arena, _grid)) => arena,
        Err(e) => {
            return Err((
                InvariantKind::StorageFidelity,
                format!("v2 reopen failed: {e}"),
            ));
        }
    };
    let (zr, zs) = (reopened.object(0), reopened.object(1));
    let zc = find_relation(zr, zs);
    if zc.relation != pc.relation || zc.determination != pc.determination {
        return Err((
            InvariantKind::StorageFidelity,
            format!(
                "reopened arena says {:?} (via {:?}), owned objects said {:?} (via {:?})",
                zc.relation, zc.determination, pc.relation, pc.determination
            ),
        ));
    }
    for p in ALL_RELATIONS {
        let owned = relate_p(r.view(), s.view(), p);
        let stored = relate_p(zr, zs, p);
        if stored.holds != owned.holds || stored.determination != owned.determination {
            return Err((
                InvariantKind::StorageFidelity,
                format!(
                    "relate_p({p:?}) diverges after reopen: stored {} (via {:?}), owned {} (via {:?})",
                    stored.holds, stored.determination, owned.holds, owned.determination
                ),
            ));
        }
    }

    Ok(pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stj_geom::Rect;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 8)
    }

    #[test]
    fn clean_pairs_pass() {
        let a = Polygon::rect(Rect::from_coords(100.0, 100.0, 300.0, 300.0));
        let b = Polygon::rect(Rect::from_coords(150.0, 150.0, 250.0, 250.0));
        assert!(check_pair(&a, &b, &grid()).is_ok());
        // Shared edge (meets) — historically the risky case.
        let c = Polygon::rect(Rect::from_coords(300.0, 100.0, 500.0, 300.0));
        assert!(check_pair(&a, &c, &grid()).is_ok());
    }

    #[test]
    fn regression_degenerate_cross_witness() {
        // The pair that motivated the strict-spanning Cross fix: shares
        // exactly one diagonal edge, MBR spanning ties on two sides.
        let trap = Polygon::from_coords(
            vec![(60.0, 50.0), (100.0, 50.0), (100.0, 80.0), (40.0, 80.0)],
            vec![],
        )
        .unwrap();
        let tri =
            Polygon::from_coords(vec![(60.0, 50.0), (40.0, 80.0), (40.0, 40.0)], vec![]).unwrap();
        assert!(check_pair(&trap, &tri, &grid()).is_ok());
        assert!(check_pair(&tri, &trap, &grid()).is_ok());
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<_> = InvariantKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "method_agreement",
                "converse_symmetry",
                "mbr_admissibility",
                "april_soundness",
                "storage_fidelity",
                "exec_equivalence",
                "shard_equivalence",
                "adaptive_equivalence"
            ]
        );
    }
}
