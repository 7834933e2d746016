//! Geo-spatial interlinking output (GeoSPARQL).
//!
//! The paper's headline application (Sec 1, Sec 5) is enriching
//! knowledge graphs with topological links between spatial entities.
//! This module maps detected [`TopoRelation`]s to the GeoSPARQL
//! simple-features vocabulary and serializes discovered links as
//! N-Triples, so the join output can be loaded into any RDF store —
//! the integration path the paper names (Silk-style link discovery).

use crate::exec::Link;
use stj_de9im::TopoRelation;

/// GeoSPARQL simple-features property IRI for a relation, from the
/// perspective `r → s`.
///
/// `Intersects` (proper interior overlap in this crate's semantics) maps
/// to `sfOverlaps` for area/area pairs; the generic non-disjoint
/// relation in GeoSPARQL is `sfIntersects`, which every non-disjoint
/// relation implies (see [`implied_properties`]).
pub fn geosparql_property(rel: TopoRelation) -> &'static str {
    match rel {
        TopoRelation::Disjoint => "http://www.opengis.net/ont/geosparql#sfDisjoint",
        TopoRelation::Meets => "http://www.opengis.net/ont/geosparql#sfTouches",
        TopoRelation::Intersects => "http://www.opengis.net/ont/geosparql#sfOverlaps",
        TopoRelation::Equals => "http://www.opengis.net/ont/geosparql#sfEquals",
        TopoRelation::Inside | TopoRelation::CoveredBy => {
            "http://www.opengis.net/ont/geosparql#sfWithin"
        }
        TopoRelation::Contains | TopoRelation::Covers => {
            "http://www.opengis.net/ont/geosparql#sfContains"
        }
    }
}

/// The generic non-disjoint GeoSPARQL property.
const SF_INTERSECTS: &str = "http://www.opengis.net/ont/geosparql#sfIntersects";

/// All GeoSPARQL properties a detected relation entails, most specific
/// first — e.g. a `meets` pair satisfies both `sfTouches` and
/// `sfIntersects`.
pub fn implied_properties(rel: TopoRelation) -> Vec<&'static str> {
    let mut out = vec![geosparql_property(rel)];
    if rel != TopoRelation::Disjoint {
        out.push(SF_INTERSECTS);
    }
    out
}

/// Bytes reserved per triple: an N-Triples line with two short entity
/// IRIs (`<urn:stj:OBE:41234>`) and a GeoSPARQL property is ~90 bytes.
const TRIPLE_BYTES: usize = 128;

/// Serializes discovered links as N-Triples.
///
/// Subject/object IRIs are produced by the caller-supplied naming
/// functions (typically mapping dataset indexes to entity IRIs), once
/// per link. Only the most specific property per link is emitted; pass
/// `include_implied = true` to also materialize `sfIntersects` for
/// every non-disjoint link.
pub fn links_to_ntriples(
    links: &[Link],
    subject_iri: impl Fn(u32) -> String,
    object_iri: impl Fn(u32) -> String,
    include_implied: bool,
) -> String {
    let per_link = if include_implied { 2 } else { 1 };
    let mut out = String::with_capacity(links.len() * per_link * TRIPLE_BYTES);
    for link in links {
        let (subject, object) = (subject_iri(link.r), object_iri(link.s));
        push_triple(
            &mut out,
            &subject,
            geosparql_property(link.relation),
            &object,
        );
        if include_implied && link.relation != TopoRelation::Disjoint {
            push_triple(&mut out, &subject, SF_INTERSECTS, &object);
        }
    }
    out
}

/// Appends `<s> <p> <o> .` and a newline.
fn push_triple(out: &mut String, s: &str, p: &str, o: &str) {
    for piece in ["<", s, "> <", p, "> <", o, "> .\n"] {
        out.push_str(piece);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn property_mapping_is_total_and_sensible() {
        for rel in TopoRelation::SPECIFIC_TO_GENERAL {
            let p = geosparql_property(rel);
            assert!(p.starts_with("http://www.opengis.net/ont/geosparql#sf"));
        }
        assert!(geosparql_property(TopoRelation::Inside).ends_with("sfWithin"));
        assert!(geosparql_property(TopoRelation::Covers).ends_with("sfContains"));
        assert!(geosparql_property(TopoRelation::Meets).ends_with("sfTouches"));
    }

    #[test]
    fn implied_properties_add_intersects() {
        let meets = implied_properties(TopoRelation::Meets);
        assert_eq!(meets.len(), 2);
        assert!(meets[1].ends_with("sfIntersects"));
        let disjoint = implied_properties(TopoRelation::Disjoint);
        assert_eq!(disjoint.len(), 1);
    }

    #[test]
    fn ntriples_serialization() {
        let links = vec![
            Link {
                r: 0,
                s: 3,
                relation: TopoRelation::Inside,
            },
            Link {
                r: 1,
                s: 4,
                relation: TopoRelation::Meets,
            },
        ];
        let nt = links_to_ntriples(
            &links,
            |i| format!("http://ex.org/lake/{i}"),
            |j| format!("http://ex.org/park/{j}"),
            false,
        );
        let lines: Vec<&str> = nt.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "<http://ex.org/lake/0> <http://www.opengis.net/ont/geosparql#sfWithin> <http://ex.org/park/3> ."
        );
        assert!(lines[1].contains("sfTouches"));

        let with_implied = links_to_ntriples(
            &links,
            |i| format!("http://ex.org/lake/{i}"),
            |j| format!("http://ex.org/park/{j}"),
            true,
        );
        assert_eq!(
            with_implied,
            "<http://ex.org/lake/0> <http://www.opengis.net/ont/geosparql#sfWithin> <http://ex.org/park/3> .\n\
             <http://ex.org/lake/0> <http://www.opengis.net/ont/geosparql#sfIntersects> <http://ex.org/park/3> .\n\
             <http://ex.org/lake/1> <http://www.opengis.net/ont/geosparql#sfTouches> <http://ex.org/park/4> .\n\
             <http://ex.org/lake/1> <http://www.opengis.net/ont/geosparql#sfIntersects> <http://ex.org/park/4> .\n"
        );

        // Byte-for-byte against one `writeln!` per implied property,
        // over every relation, with and without the implied triples.
        let links: Vec<Link> = TopoRelation::SPECIFIC_TO_GENERAL
            .into_iter()
            .enumerate()
            .map(|(i, relation)| Link {
                r: i as u32,
                s: 100 + i as u32,
                relation,
            })
            .collect();
        for include_implied in [false, true] {
            let mut want = String::new();
            for link in &links {
                let props = if include_implied {
                    implied_properties(link.relation)
                } else {
                    vec![geosparql_property(link.relation)]
                };
                for p in props {
                    use std::fmt::Write as _;
                    writeln!(want, "<urn:a:{}> <{p}> <urn:b:{}> .", link.r, link.s).unwrap();
                }
            }
            let got = links_to_ntriples(
                &links,
                |i| format!("urn:a:{i}"),
                |j| format!("urn:b:{j}"),
                include_implied,
            );
            assert_eq!(got, want, "include_implied = {include_implied}");
        }
        assert_eq!(
            links_to_ntriples(&[], |i| i.to_string(), |j| j.to_string(), true),
            ""
        );
    }
}
