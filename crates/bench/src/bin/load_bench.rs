//! Load-throughput microbench for the storage formats: legacy v1 record
//! decode vs columnar v2 bulk decode vs v2 zero-copy open, plus the
//! join-side effect of the arena refactor (owned-object views vs arena
//! slots over identical candidate pairs).
//!
//! A counting global allocator tracks how many heap allocations each
//! load path performs, and verifies the headline property of the arena:
//! walking every object view — MBR, APRIL spans, geometry — performs
//! **zero** per-object allocations.
//!
//! Run with:
//! ```text
//! cargo run --release -p stj-bench --bin load_bench
//! ```
//!
//! Telemetry (`stj-bench/v1`) goes to `BENCH_PR3.json`, or the path in
//! `$STJ_BENCH_JSON`. `$STJ_LOAD_BENCH_SCALE` scales the dataset
//! (default 3.4 ≈ 102k objects).

use std::time::Instant;
use stj_core::{find_relation, Dataset, DatasetArena};
use stj_geom::Rect;
use stj_index::mbr_join_parallel;
use stj_obs::Json;
use stj_raster::Grid;
use stj_store::{open_arena_from_bytes, read_arena, read_dataset, write_arena_v2, write_dataset};

#[global_allocator]
static GLOBAL: stj_obs::CountingAlloc = stj_obs::CountingAlloc;

fn alloc_calls() -> u64 {
    stj_obs::alloc::totals().calls
}

/// One measured load path.
struct LoadSample {
    path: &'static str,
    wall_ns: u64,
    allocs: u64,
    zero_copy: bool,
}

fn measure<F: FnOnce() -> (DatasetArena, Grid)>(
    path: &'static str,
    f: F,
) -> (DatasetArena, LoadSample) {
    let a0 = alloc_calls();
    let t = Instant::now();
    let (arena, _grid) = f();
    let wall_ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let allocs = alloc_calls() - a0;
    let zero_copy = arena.is_zero_copy();
    (
        arena,
        LoadSample {
            path,
            wall_ns,
            allocs,
            zero_copy,
        },
    )
}

fn mb_per_s(bytes: usize, wall_ns: u64) -> f64 {
    bytes as f64 / 1e6 / (wall_ns as f64 / 1e9).max(1e-12)
}

fn main() {
    let scale: f64 = std::env::var("STJ_LOAD_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3.4);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    // A large set of small buildings: the per-object (not per-vertex)
    // costs of the load paths dominate, which is what this bench probes.
    let polys = stj_datagen::generate(stj_datagen::DatasetId::OBE, scale);
    let mut extent = Rect::empty();
    for p in &polys {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 14);
    let t = Instant::now();
    let ds = Dataset::build_parallel("OBE", polys, &grid, threads);
    let n = ds.len();
    eprintln!("built {} objects in {:.2?}", n, t.elapsed());

    // Serialize both formats in memory: no filesystem noise.
    let mut v1_bytes = Vec::new();
    write_dataset(&mut v1_bytes, &ds, &grid).expect("v1 write");
    let arena = ds.to_arena();
    let mut v2_bytes = Vec::new();
    write_arena_v2(&mut v2_bytes, &arena, &grid).expect("v2 write");
    eprintln!(
        "serialized: v1 {} bytes, v2 {} bytes",
        v1_bytes.len(),
        v2_bytes.len()
    );

    // The three load paths, each ending in a query-ready DatasetArena.
    let (_a1, v1) = measure("v1_record_decode", || {
        let (ds, grid) = read_dataset(&mut v1_bytes.as_slice()).expect("v1 read");
        (ds.to_arena(), grid)
    });
    let (_a2, v2_bulk) = measure("v2_bulk_decode", || {
        read_arena(&mut v2_bytes.as_slice()).expect("v2 read")
    });
    let (zc, v2_zc) = measure("v2_zero_copy_open", || {
        open_arena_from_bytes(&v2_bytes).expect("v2 open")
    });
    for s in [&v1, &v2_bulk, &v2_zc] {
        eprintln!(
            "{:<18} {:>8.1} ms  {:>8.0} MB/s  {:>9} allocs  zero_copy={}",
            s.path,
            s.wall_ns as f64 / 1e6,
            mb_per_s(
                if s.path == "v1_record_decode" {
                    v1_bytes.len()
                } else {
                    v2_bytes.len()
                },
                s.wall_ns
            ),
            s.allocs,
            s.zero_copy
        );
    }

    // Headline arena property: a full scan over object views — MBR,
    // APRIL interval spans, vertex count — allocates nothing.
    let a0 = alloc_calls();
    let mut checksum = 0u64;
    for i in 0..zc.len() {
        let o = zc.object(i);
        checksum = checksum
            .wrapping_add(o.mbr.min.x.to_bits())
            .wrapping_add(o.april.p.len() as u64)
            .wrapping_add(o.april.c.len() as u64)
            .wrapping_add(o.num_vertices() as u64);
    }
    let scan_allocs = alloc_calls() - a0;
    assert!(checksum != 0);
    assert_eq!(
        scan_allocs, 0,
        "object-view scan over {n} objects allocated {scan_allocs} times"
    );
    eprintln!("view scan over {n} objects: 0 allocations");

    // Join wall time over identical candidate pairs: owned objects with
    // `.view()` (the pre-arena shape) vs arena slots.
    let pairs = mbr_join_parallel(arena.mbrs(), arena.mbrs(), threads);
    let t = Instant::now();
    let mut owned_links = 0u64;
    for &(i, j) in &pairs {
        let out = find_relation(ds.objects[i as usize].view(), ds.objects[j as usize].view());
        owned_links += u64::from(out.relation != stj_de9im::TopoRelation::Disjoint);
    }
    let owned_ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let t = Instant::now();
    let a0 = alloc_calls();
    let mut arena_links = 0u64;
    for &(i, j) in &pairs {
        let out = find_relation(zc.object(i as usize), zc.object(j as usize));
        arena_links += u64::from(out.relation != stj_de9im::TopoRelation::Disjoint);
    }
    let filter_allocs = alloc_calls() - a0;
    let arena_ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    assert_eq!(owned_links, arena_links, "join results diverged");
    eprintln!(
        "join over {} candidates: owned {:.1} ms, arena {:.1} ms ({} links, {} allocs on the arena pass)",
        pairs.len(),
        owned_ns as f64 / 1e6,
        arena_ns as f64 / 1e6,
        arena_links,
        filter_allocs
    );

    let entries: Vec<Json> = [&v1, &v2_bulk, &v2_zc]
        .iter()
        .map(|s| {
            let bytes = if s.path == "v1_record_decode" {
                v1_bytes.len()
            } else {
                v2_bytes.len()
            };
            Json::object([
                ("path", Json::str(s.path)),
                ("wall_ns", Json::U64(s.wall_ns)),
                ("mb_per_s", Json::F64(mb_per_s(bytes, s.wall_ns))),
                ("allocs", Json::U64(s.allocs)),
                ("zero_copy", Json::Bool(s.zero_copy)),
            ])
        })
        .collect();
    let report = Json::object([
        ("schema", Json::str("stj-bench/v1")),
        ("benchmark", Json::str("load_throughput")),
        ("dataset", Json::str("OBE")),
        ("objects", Json::from(n)),
        ("vertices", Json::U64(arena.total_vertices() as u64)),
        ("v1_bytes", Json::from(v1_bytes.len())),
        ("v2_bytes", Json::from(v2_bytes.len())),
        ("loads", Json::Arr(entries)),
        (
            "view_scan",
            Json::object([
                ("objects", Json::from(n)),
                ("allocs", Json::U64(scan_allocs)),
            ]),
        ),
        (
            "join",
            Json::object([
                ("candidates", Json::from(pairs.len())),
                ("links", Json::U64(arena_links)),
                ("owned_wall_ns", Json::U64(owned_ns)),
                ("arena_wall_ns", Json::U64(arena_ns)),
                ("arena_pass_allocs", Json::U64(filter_allocs)),
            ]),
        ),
    ]);
    let path = stj_bench::experiments::bench_output_path("BENCH_PR3.json");
    std::fs::write(&path, report.render()).expect("write bench json");
    eprintln!("wrote {path}");
}
