//! The intermediate filters of Figure 5.
//!
//! One filter per MBR-intersection case. Each performs a short, tailored
//! sequence of linear merge-joins on the pair's `P`/`C` interval lists
//! and either *decides* the most specific relation or forwards the pair
//! to refinement with a narrowed candidate set.
//!
//! Soundness notes for every `Definite` outcome (`r`,`s` are valid
//! connected polygons, `P` cells are wholly interior, `C` covers every
//! touched cell, and so `P ⊆ C` for every object):
//!
//! - `Disjoint` when the `C` lists don't overlap: no shared cell ⟹ no
//!   shared point.
//! - `Inside` when `C(r) ⊆ P(s)`: every point of `r` lies in a cell
//!   wholly interior to `s`, so `r ⊂ int(s)` with no boundary contact.
//!   (`Contains` is the mirror image.)
//! - `Intersects` when `C(r) ∩ P(s) ≠ ∅` (or mirrored): the shared cell
//!   is wholly interior to `s` and touched by `r`, so interiors meet —
//!   and the surrounding MBR case has already excluded every more
//!   specific relation.
//! - `CoveredBy`/`Covers` in `IFEquals`: with equal MBRs strict
//!   containment is impossible (a geometry touching the shared MBR's
//!   border cannot sit in the other's open interior), so proven
//!   containment is boundary-touching containment.
//!
//! **Flow order.** Each flow first tests the `P`-list relation that
//! decides it (`C(r) ⊆ P(s)` for IFInside, `C(r) ∩ P(s) ≠ ∅` for
//! IFIntersects, …), skipping the `C`-list tests that Figure 5 runs
//! before it. By `P ⊆ C` a hit implies every skipped test's outcome (a
//! non-empty `C(r) ⊆ P(s)` gives `C(r) ⊆ C(s)` and `C(r) ∩ C(s) ≠ ∅`),
//! so the outcome is always the one Figure 5's order gives — the tests
//! pin this against a literal transcription — while a building inside
//! a zip code costs one search of the zip code's `P` list instead of
//! three. The precondition is load-bearing: for lists with `P ⊄ C` the
//! two orders may disagree.

use crate::arena::ObjectRef;
use stj_de9im::TopoRelation;
use stj_raster::AprilRef;

/// Outcome of an intermediate filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IfOutcome {
    /// The most specific relation is decided; no refinement needed.
    Definite(TopoRelation),
    /// Refinement must disambiguate among the listed candidates
    /// (most-specific-first).
    Refine(&'static [TopoRelation]),
}

use IfOutcome::{Definite, Refine};
use TopoRelation::*;

/// IFEquals (Figure 5, first flow): MBRs are identical.
///
/// Detects `covered by`/`covers` exactly; forwards everything else with
/// narrowed candidates.
pub fn if_equals(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
    let same_c = r.c.matches(s.c);
    if !same_c {
        // P-first: `r.C ⊆ s.P` (non-empty) implies the C overlap and
        // `r.C ⊆ s.C` the flow tests before it. Equal C lists would
        // have gone to the `matches` branch instead.
        if !r.c.is_empty() && r.c.inside(s.p) {
            // r confined to s's interior cells; with equal MBRs the
            // containment must touch the boundary — covered by.
            return Definite(CoveredBy);
        }
        if !s.c.is_empty() && r.p.contains(s.c) {
            return Definite(Covers);
        }
    }
    if !r.c.overlaps(s.c) {
        // Defensive guard: identical MBRs with disjoint conservative
        // rasters (possible for interlocking shapes).
        return Definite(Disjoint);
    }
    if same_c {
        // Same conservative footprint: could be equal, or one covering
        // the other, or merely overlapping within the same cells.
        return Refine(&[Equals, CoveredBy, Covers, Meets, Intersects, Disjoint]);
    }
    // From here both P-first tests failed on non-empty lists.
    if r.c.inside(s.c) {
        return Refine(&[CoveredBy, Meets, Intersects, Disjoint]);
    }
    if r.c.contains(s.c) {
        return Refine(&[Covers, Meets, Intersects, Disjoint]);
    }
    Refine(&[Meets, Intersects, Disjoint])
}

/// IFInside (Figure 5, second flow): `MBR(r)` properly inside `MBR(s)`.
pub fn if_inside(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
    // P-first: a non-empty `r.C ⊆ s.P` implies the C overlap and
    // `r.C ⊆ s.C` the flow would test first.
    if !r.c.is_empty() && r.c.inside(s.p) {
        return Definite(Inside);
    }
    if !r.c.overlaps(s.c) {
        return Definite(Disjoint);
    }
    if r.c.inside(s.c) {
        if r.c.overlaps(s.p) {
            // Interiors provably meet; specialization still open.
            return Refine(&[Inside, CoveredBy, Intersects]);
        }
        return Refine(&[Disjoint, Inside, CoveredBy, Meets, Intersects]);
    }
    // r has cells outside s's footprint: the containment family is
    // impossible for this pair.
    if r.c.overlaps(s.p) || r.p.overlaps(s.c) {
        return Definite(Intersects);
    }
    Refine(&[Disjoint, Meets, Intersects])
}

/// IFContains (Figure 5, third flow): `MBR(r)` properly contains
/// `MBR(s)` — the mirror image of [`if_inside`].
pub fn if_contains(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
    if !s.c.is_empty() && r.p.contains(s.c) {
        return Definite(Contains);
    }
    if !r.c.overlaps(s.c) {
        return Definite(Disjoint);
    }
    if r.c.contains(s.c) {
        if r.p.overlaps(s.c) {
            return Refine(&[Contains, Covers, Intersects]);
        }
        return Refine(&[Disjoint, Contains, Covers, Meets, Intersects]);
    }
    if r.c.overlaps(s.p) || r.p.overlaps(s.c) {
        return Definite(Intersects);
    }
    Refine(&[Disjoint, Meets, Intersects])
}

/// IFIntersects (Figure 5, fourth flow): any other MBR overlap
/// (Figure 4(e)) — only `disjoint`, `meets`, `intersects` are possible.
pub fn if_intersects(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
    // P-first: either P overlap implies the C overlap.
    if r.c.overlaps(s.p) {
        return Definite(Intersects);
    }
    if !r.c.overlaps(s.c) {
        return Definite(Disjoint);
    }
    if r.p.overlaps(s.c) {
        return Definite(Intersects);
    }
    Refine(&[Disjoint, Meets, Intersects])
}

/// Routes a pair to its intermediate filter given the MBR classification,
/// handling the two MBR-only decisions (`Disjoint`, `Cross`) inline.
pub fn intermediate_filter(
    mbr_rel: stj_index::MbrRelation,
    r: ObjectRef<'_>,
    s: ObjectRef<'_>,
) -> IfOutcome {
    use stj_index::MbrRelation as M;
    match mbr_rel {
        M::Disjoint => Definite(Disjoint),
        M::Cross => Definite(Intersects),
        M::Equal => if_equals(r.april, s.april),
        M::Inside => if_inside(r.april, s.april),
        M::Contains => if_contains(r.april, s.april),
        M::Overlap => if_intersects(r.april, s.april),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use stj_raster::{AprilApprox, IntervalList};

    fn april(p: &[(u64, u64)], c: &[(u64, u64)]) -> AprilApprox {
        AprilApprox {
            p: IntervalList::from_ranges(p.to_vec()),
            c: IntervalList::from_ranges(c.to_vec()),
        }
    }

    /// Xorshift stream for the randomized equivalence tests.
    pub(crate) struct Rng(u64);

    impl Rng {
        pub(crate) fn new(seed: u64) -> Rng {
            Rng(seed | 1)
        }

        pub(crate) fn below(&mut self, m: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % m
        }
    }

    /// A random normalized sub-list of `l`: intervals dropped or shrunk
    /// inward, occasionally split — always a cell subset of `l`.
    fn sub_list(l: &IntervalList, rng: &mut Rng) -> IntervalList {
        let mut out = Vec::new();
        for &(s, e) in l.intervals() {
            if rng.below(4) == 0 {
                continue;
            }
            let a = s + rng.below(e - s);
            let b = a + 1 + rng.below(e - a);
            if b - a > 2 && rng.below(3) == 0 {
                let m = a + 1 + rng.below(b - a - 2);
                out.push((a, m));
                out.push((m + 1, b));
            } else {
                out.push((a, b));
            }
        }
        IntervalList::from_ranges(out)
    }

    /// A random APRIL approximation with `P ⊆ C`: `C` empty, short or
    /// long (long enough against a short one to take the lists' cursor
    /// path), `P` empty, equal to `C` or a sub-list of it.
    fn random_april(rng: &mut Rng) -> AprilApprox {
        let span = [64, 512, 8192][rng.below(3) as usize];
        let n = match rng.below(10) {
            0 => 0,
            1..=6 => 1 + rng.below(6),
            _ => 20 + rng.below(60),
        };
        let c = IntervalList::from_ranges(
            (0..n)
                .map(|_| {
                    let s = rng.below(span);
                    (s, s + 1 + rng.below(span / 16))
                })
                .collect(),
        );
        april_within(c, rng)
    }

    fn april_within(c: IntervalList, rng: &mut Rng) -> AprilApprox {
        let p = match rng.below(6) {
            0 => IntervalList::new(),
            1 => c.clone(),
            _ => sub_list(&c, rng),
        };
        AprilApprox { p, c }
    }

    /// A random pair of approximations, each with `P ⊆ C`. Most pairs
    /// are correlated — one's `C` a sub-list of the other's `P` or `C`,
    /// or the two sharing `C` — so that every branch of every flow is
    /// reached, not just the disjoint ones.
    pub(crate) fn random_pair(rng: &mut Rng) -> (AprilApprox, AprilApprox) {
        let a = random_april(rng);
        let b = match rng.below(6) {
            0 | 1 => random_april(rng),
            2 => {
                let c = sub_list(&a.p, rng);
                april_within(c, rng)
            }
            3 => {
                let c = sub_list(&a.c, rng);
                april_within(c, rng)
            }
            4 => april_within(a.c.clone(), rng),
            _ => {
                // Overlapping C lists, neither inside the other.
                let mut ranges = sub_list(&a.c, rng).intervals().to_vec();
                let s = rng.below(8192);
                ranges.push((s, s + 1 + rng.below(64)));
                april_within(IntervalList::from_ranges(ranges), rng)
            }
        };
        if rng.below(2) == 0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Figure 5 as the paper draws it: each flow's tests in the paper's
    /// order, `C` lists first. The production flows reorder the tests
    /// (see the module docs) and must return the same outcome.
    mod figure5 {
        use super::*;

        pub fn if_equals(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
            if !r.c.overlaps(s.c) {
                return Definite(Disjoint);
            }
            if r.c.matches(s.c) {
                return Refine(&[Equals, CoveredBy, Covers, Meets, Intersects, Disjoint]);
            }
            if r.c.inside(s.c) {
                if r.c.inside(s.p) {
                    return Definite(CoveredBy);
                }
                return Refine(&[CoveredBy, Meets, Intersects, Disjoint]);
            }
            if r.c.contains(s.c) {
                if r.p.contains(s.c) {
                    return Definite(Covers);
                }
                return Refine(&[Covers, Meets, Intersects, Disjoint]);
            }
            Refine(&[Meets, Intersects, Disjoint])
        }

        pub fn if_inside(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
            if !r.c.overlaps(s.c) {
                return Definite(Disjoint);
            }
            if r.c.inside(s.c) {
                if !s.p.is_empty() {
                    if r.c.inside(s.p) {
                        return Definite(Inside);
                    }
                    if r.c.overlaps(s.p) {
                        return Refine(&[Inside, CoveredBy, Intersects]);
                    }
                }
                return Refine(&[Disjoint, Inside, CoveredBy, Meets, Intersects]);
            }
            if r.c.overlaps(s.p) || r.p.overlaps(s.c) {
                return Definite(Intersects);
            }
            Refine(&[Disjoint, Meets, Intersects])
        }

        pub fn if_contains(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
            if !r.c.overlaps(s.c) {
                return Definite(Disjoint);
            }
            if r.c.contains(s.c) {
                if !r.p.is_empty() {
                    if r.p.contains(s.c) {
                        return Definite(Contains);
                    }
                    if r.p.overlaps(s.c) {
                        return Refine(&[Contains, Covers, Intersects]);
                    }
                }
                return Refine(&[Disjoint, Contains, Covers, Meets, Intersects]);
            }
            if r.c.overlaps(s.p) || r.p.overlaps(s.c) {
                return Definite(Intersects);
            }
            Refine(&[Disjoint, Meets, Intersects])
        }

        pub fn if_intersects(r: AprilRef<'_>, s: AprilRef<'_>) -> IfOutcome {
            if !r.c.overlaps(s.c) {
                return Definite(Disjoint);
            }
            if r.c.overlaps(s.p) || r.p.overlaps(s.c) {
                return Definite(Intersects);
            }
            Refine(&[Disjoint, Meets, Intersects])
        }
    }

    type Flow = fn(AprilRef<'_>, AprilRef<'_>) -> IfOutcome;

    #[test]
    fn p_first_flows_match_figure5() {
        let flows: [(&str, Flow, Flow, usize); 4] = [
            ("IFEquals", if_equals, figure5::if_equals, 7),
            ("IFInside", if_inside, figure5::if_inside, 6),
            ("IFContains", if_contains, figure5::if_contains, 6),
            ("IFIntersects", if_intersects, figure5::if_intersects, 3),
        ];
        let mut rng = Rng::new(0xF165);
        let mut seen: Vec<Vec<IfOutcome>> = vec![Vec::new(); flows.len()];
        let (mut empty_p, mut empty_c) = (0, 0);
        for _ in 0..20_000 {
            let (r, s) = random_pair(&mut rng);
            empty_p += (r.p.is_empty() || s.p.is_empty()) as u32;
            empty_c += (r.c.is_empty() || s.c.is_empty()) as u32;
            for (k, &(name, new, paper, _)) in flows.iter().enumerate() {
                let want = paper(r.as_ref(), s.as_ref());
                assert_eq!(
                    new(r.as_ref(), s.as_ref()),
                    want,
                    "{name}: r = {r:?}, s = {s:?}"
                );
                if !seen[k].contains(&want) {
                    seen[k].push(want);
                }
            }
        }
        assert!(empty_p > 1000 && empty_c > 1000, "{empty_p} {empty_c}");
        // Every outcome each flow can return was reached.
        for (k, &(name, _, _, outcomes)) in flows.iter().enumerate() {
            assert_eq!(seen[k].len(), outcomes, "{name}: {:?}", seen[k]);
        }
    }

    #[test]
    fn if_inside_flow() {
        let s = april(&[(10, 50)], &[(5, 60)]);
        // r fully within s's full cells -> definite inside.
        assert_eq!(
            if_inside(april(&[(20, 25)], &[(18, 30)]).as_ref(), s.as_ref()),
            Definite(Inside)
        );
        // r within s's C but straddling P -> interiors provably meet.
        assert_eq!(
            if_inside(april(&[], &[(8, 12)]).as_ref(), s.as_ref()),
            Refine(&[Inside, CoveredBy, Intersects])
        );
        // r within s's C but outside P entirely -> wide open.
        assert_eq!(
            if_inside(april(&[], &[(5, 9)]).as_ref(), s.as_ref()),
            Refine(&[Disjoint, Inside, CoveredBy, Meets, Intersects])
        );
        // r partially outside s's C, overlapping P -> definite intersects.
        assert_eq!(
            if_inside(april(&[], &[(40, 70)]).as_ref(), s.as_ref()),
            Definite(Intersects)
        );
        // r's P overlapping s's C (r reaches outside but its interior
        // meets s's footprint)... r.p ∩ s.c nonempty.
        assert_eq!(
            if_inside(april(&[(55, 58)], &[(0, 70)]).as_ref(), s.as_ref()),
            Definite(Intersects)
        );
        // No C overlap -> disjoint.
        assert_eq!(
            if_inside(april(&[], &[(100, 110)]).as_ref(), s.as_ref()),
            Definite(Disjoint)
        );
        // C overlap only, no containment, no P contact -> small refine set.
        assert_eq!(
            if_inside(
                april(&[], &[(0, 7)]).as_ref(),
                april(&[], &[(5, 60)]).as_ref()
            ),
            Refine(&[Disjoint, Meets, Intersects])
        );
        // s has no full cells at all -> cannot conclude.
        assert_eq!(
            if_inside(
                april(&[], &[(20, 25)]).as_ref(),
                april(&[], &[(5, 60)]).as_ref()
            ),
            Refine(&[Disjoint, Inside, CoveredBy, Meets, Intersects])
        );
    }

    #[test]
    fn if_contains_mirrors_if_inside() {
        let r = april(&[(10, 50)], &[(5, 60)]);
        assert_eq!(
            if_contains(r.as_ref(), april(&[(20, 25)], &[(18, 30)]).as_ref()),
            Definite(Contains)
        );
        assert_eq!(
            if_contains(r.as_ref(), april(&[], &[(8, 12)]).as_ref()),
            Refine(&[Contains, Covers, Intersects])
        );
        assert_eq!(
            if_contains(r.as_ref(), april(&[], &[(100, 110)]).as_ref()),
            Definite(Disjoint)
        );
        assert_eq!(
            if_contains(r.as_ref(), april(&[], &[(40, 70)]).as_ref()),
            Definite(Intersects)
        );
        // r without full cells.
        assert_eq!(
            if_contains(
                april(&[], &[(5, 60)]).as_ref(),
                april(&[], &[(20, 25)]).as_ref()
            ),
            Refine(&[Disjoint, Contains, Covers, Meets, Intersects])
        );
    }

    #[test]
    fn if_equals_flow() {
        let a = april(&[(10, 20)], &[(5, 25)]);
        // Identical C lists.
        assert_eq!(
            if_equals(a.as_ref(), april(&[(12, 18)], &[(5, 25)]).as_ref()),
            Refine(&[Equals, CoveredBy, Covers, Meets, Intersects, Disjoint])
        );
        // r's C inside s's C and inside s's P -> covered by, definite.
        assert_eq!(
            if_equals(april(&[], &[(12, 18)]).as_ref(), a.as_ref()),
            Definite(CoveredBy)
        );
        // r's C inside s's C but not inside P.
        assert_eq!(
            if_equals(april(&[], &[(7, 18)]).as_ref(), a.as_ref()),
            Refine(&[CoveredBy, Meets, Intersects, Disjoint])
        );
        // r's C contains s's C and r's P contains it -> covers.
        assert_eq!(
            if_equals(a.as_ref(), april(&[], &[(12, 18)]).as_ref()),
            Definite(Covers)
        );
        assert_eq!(
            if_equals(a.as_ref(), april(&[], &[(7, 18)]).as_ref()),
            Refine(&[Covers, Meets, Intersects, Disjoint])
        );
        // Overlapping but no containment either way.
        assert_eq!(
            if_equals(
                april(&[], &[(0, 10)]).as_ref(),
                april(&[], &[(5, 15)]).as_ref()
            ),
            Refine(&[Meets, Intersects, Disjoint])
        );
        // Defensive: disjoint C lists.
        assert_eq!(
            if_equals(
                april(&[], &[(0, 5)]).as_ref(),
                april(&[], &[(10, 15)]).as_ref()
            ),
            Definite(Disjoint)
        );
    }

    #[test]
    fn if_intersects_flow() {
        let s = april(&[(10, 50)], &[(5, 60)]);
        assert_eq!(
            if_intersects(april(&[], &[(100, 101)]).as_ref(), s.as_ref()),
            Definite(Disjoint)
        );
        assert_eq!(
            if_intersects(april(&[], &[(49, 70)]).as_ref(), s.as_ref()),
            Definite(Intersects)
        );
        assert_eq!(
            if_intersects(april(&[(0, 6)], &[(0, 7)]).as_ref(), s.as_ref()),
            Definite(Intersects)
        );
        assert_eq!(
            if_intersects(
                april(&[], &[(0, 7)]).as_ref(),
                april(&[], &[(5, 60)]).as_ref()
            ),
            Refine(&[Disjoint, Meets, Intersects])
        );
    }

    #[test]
    fn all_refine_sets_are_specific_to_general() {
        // Harvest every Refine outcome reachable above and check ordering
        // against the implication hierarchy.
        let sets: &[&[TopoRelation]] = &[
            &[Equals, CoveredBy, Covers, Meets, Intersects, Disjoint],
            &[CoveredBy, Meets, Intersects, Disjoint],
            &[Covers, Meets, Intersects, Disjoint],
            &[Meets, Intersects, Disjoint],
            &[Inside, CoveredBy, Intersects],
            &[Disjoint, Inside, CoveredBy, Meets, Intersects],
            &[Contains, Covers, Intersects],
            &[Disjoint, Contains, Covers, Meets, Intersects],
            &[Disjoint, Meets, Intersects],
        ];
        for set in sets {
            for (i, a) in set.iter().enumerate() {
                for b in &set[i + 1..] {
                    assert!(
                        !b.implies(*a) || a == b,
                        "{set:?}: {b:?} after {a:?} breaks specific-to-general order"
                    );
                }
            }
        }
    }
}
