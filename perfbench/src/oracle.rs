//! Comparison of answers against the ST2 oracle (MBR test plus full
//! DE-9IM, no APRIL).

use std::cmp::Ordering;
use stj_core::Link;
use stj_de9im::TopoRelation;

/// One candidate whose answer differs from the oracle's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub r: u32,
    pub s: u32,
    pub expected: TopoRelation,
    pub got: TopoRelation,
}

/// Sorts links by `(r, s)`, the order [`mismatches`] merges in.
pub fn sorted(mut links: Vec<Link>) -> Vec<Link> {
    links.sort_unstable_by_key(|l| (l.r, l.s));
    links
}

/// The candidates whose relation in `got` differs from the one in
/// `oracle` (sorted by [`sorted`]). A pair missing from either side is
/// `disjoint` there.
pub fn mismatches(oracle: &[Link], got: &[Link]) -> Vec<Mismatch> {
    let got = sorted(got.to_vec());
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < oracle.len() || j < got.len() {
        let ko = oracle.get(i).map(|l| (l.r, l.s));
        let kg = got.get(j).map(|l| (l.r, l.s));
        let order = match (ko, kg) {
            (Some(a), Some(b)) => a.cmp(&b),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        let (r, s, expected, found) = match order {
            Ordering::Equal => {
                i += 1;
                j += 1;
                let (o, g) = (oracle[i - 1], got[j - 1]);
                (o.r, o.s, o.relation, g.relation)
            }
            Ordering::Less => {
                i += 1;
                let o = oracle[i - 1];
                (o.r, o.s, o.relation, TopoRelation::Disjoint)
            }
            Ordering::Greater => {
                j += 1;
                let g = got[j - 1];
                (g.r, g.s, TopoRelation::Disjoint, g.relation)
            }
        };
        if expected != found {
            out.push(Mismatch {
                r,
                s,
                expected,
                got: found,
            });
        }
    }
    out
}

/// Prints up to `n` mismatches to stderr under `what`.
pub fn print_first(what: &str, found: &[Mismatch], n: usize) {
    if found.is_empty() {
        return;
    }
    eprintln!(
        "{what}: {} answer(s) differ from the ST2 oracle",
        found.len()
    );
    for m in found.iter().take(n) {
        eprintln!("  ({}, {}): oracle {}, got {}", m.r, m.s, m.expected, m.got);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TopoRelation::*;

    fn link(r: u32, s: u32, relation: TopoRelation) -> Link {
        Link { r, s, relation }
    }

    #[test]
    fn flags_changed_added_and_missing_links() {
        let oracle = sorted(vec![
            link(0, 1, Inside),
            link(2, 3, Meets),
            link(4, 4, Covers),
        ]);
        assert!(mismatches(&oracle, &oracle).is_empty());
        let mut altered = oracle.clone();
        altered[0].relation = Intersects; // changed
        altered.remove(1); // missing: read as disjoint
        altered.push(link(1, 9, Meets)); // extra: oracle says disjoint
        altered.reverse();
        let found = mismatches(&oracle, &altered);
        assert_eq!(
            found,
            vec![
                Mismatch {
                    r: 0,
                    s: 1,
                    expected: Inside,
                    got: Intersects
                },
                Mismatch {
                    r: 1,
                    s: 9,
                    expected: Disjoint,
                    got: Meets
                },
                Mismatch {
                    r: 2,
                    s: 3,
                    expected: Meets,
                    got: Disjoint
                },
            ]
        );
    }
}
