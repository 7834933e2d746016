//! # stjoin — Scalable Spatial Topology Joins
//!
//! A from-scratch Rust implementation of the spatial topology join
//! pipeline of Georgiadis & Mamoulis, *Scalable Spatial Topology Joins*
//! (EDBT 2026): detect the most specific topological relation
//! (`disjoint`, `meets`, `intersects`, `equals`, `inside`, `contains`,
//! `covered by`, `covers`) between polygon pairs at scale, using raster
//! interval approximations to avoid most DE-9IM matrix computations.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`geom`] — geometry kernel (robust predicates, polygons, point
//!   location, WKT);
//! - [`de9im`] — DE-9IM matrices, Table-1 masks, topological relations,
//!   and the `relate` refinement oracle;
//! - [`raster`] — Hilbert grid, interval lists, APRIL approximations;
//! - [`index`] — MBR classification (Figure 4) and the MBR join filter
//!   step;
//! - [`core`] — the P+C pipeline ([`find_relation`]), `relate_p`
//!   ([`relate_p`]), and the ST2/OP2/APRIL baselines;
//! - [`datagen`] — seeded synthetic datasets mirroring the paper's
//!   evaluation scenarios;
//! - [`store`] — persistence: the columnar STJD v2 format (bulk-load
//!   or zero-copy open into a [`DatasetArena`]) plus the legacy v1
//!   record format and WKT interchange;
//! - [`obs`] — observability: per-stage latency histograms, join
//!   profiles, JSON telemetry, progress heartbeats;
//! - [`check`] — the differential & metamorphic correctness harness
//!   behind `stj check` (adversarial pairs, invariants (a)–(e),
//!   shrinking, WKT repro dumps);
//! - [`serve`] — the online query service behind `stj serve`: ad-hoc
//!   relate probes, stored-pair lookups, and bounded joins over
//!   resident zero-copy arenas, with load shedding, deadlines, a probe
//!   cache, and a `/stats` report.
//!
//! ## Quickstart
//!
//! ```
//! use stjoin::prelude::*;
//!
//! // One shared grid per join scenario (the paper uses order 16).
//! let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 12);
//!
//! let park = SpatialObject::build(
//!     Polygon::from_coords(
//!         vec![(5.0, 5.0), (95.0, 5.0), (95.0, 95.0), (5.0, 95.0)],
//!         vec![],
//!     )
//!     .unwrap(),
//!     &grid,
//! );
//! let lake = SpatialObject::build(
//!     Polygon::from_coords(
//!         vec![(30.0, 30.0), (60.0, 35.0), (55.0, 60.0)],
//!         vec![],
//!     )
//!     .unwrap(),
//!     &grid,
//! );
//!
//! // The pipeline works on borrowed views: `.view()` on an owned
//! // object, or `DatasetArena::object(i)` in batch joins.
//! let out = find_relation(lake.view(), park.view());
//! assert_eq!(out.relation, TopoRelation::Inside);
//! // Decided from interval lists alone — no DE-9IM computation:
//! assert_eq!(out.determination, Determination::IntermediateFilter);
//! ```

pub use stj_check as check;
pub use stj_core as core;
pub use stj_datagen as datagen;
pub use stj_de9im as de9im;
pub use stj_geom as geom;
pub use stj_index as index;
pub use stj_obs as obs;
pub use stj_raster as raster;
pub use stj_serve as serve;
pub use stj_store as store;

pub use stj_core::{
    find_relation, find_relation_april, find_relation_op2, find_relation_st2, relate_p,
    AdaptiveMode, AdaptiveModel, AdaptiveReport, Dataset, DatasetArena, Determination, FindOutcome,
    JoinMethod, JoinResult, Link, ObjectRef, PipelineStats, RelateDetermination, RelateOutcome,
    SpatialObject, TopologyJoin,
};
pub use stj_de9im::{relate, De9Im, Mask, TopoRelation};
pub use stj_geom::{MultiPolygon, Point, Polygon, Rect, Ring, Segment};
pub use stj_index::{mbr_join, mbr_join_parallel, MbrRelation, TileTask, Tiling};
pub use stj_raster::{AprilApprox, Grid, IntervalList};

/// Convenience glob-import module: `use stjoin::prelude::*;`.
pub mod prelude {
    pub use stj_core::{
        find_relation, find_relation_april, find_relation_op2, find_relation_st2, relate_p,
        AdaptiveMode, Dataset, DatasetArena, Determination, FindOutcome, JoinMethod, Link,
        ObjectRef, PipelineStats, SpatialObject, TopologyJoin,
    };
    pub use stj_de9im::{relate, De9Im, TopoRelation};
    pub use stj_geom::{MultiPolygon, Point, Polygon, Rect, Ring, Segment};
    pub use stj_index::{mbr_join, mbr_join_parallel, MbrRelation};
    pub use stj_raster::{AprilApprox, Grid, IntervalList};
}
