//! Allocation guard for the mapped open path (PR 8).
//!
//! `open_arena` on an STJD v2 file must be a true O(1) open: sniff the
//! header, `mmap` the file, and point the arena's columns into the
//! page-cache-backed words — **zero** full-file copies. This test pins
//! that property with a byte-counting global allocator: opening a
//! multi-megabyte v2 file may allocate only small metadata (the name
//! string, the span table, the mapping handle), never a buffer in the
//! file's size class.
//!
//! On targets without the mapped path (non-unix, or misaligned
//! fallback builds) the test still verifies that the fallback open
//! produces a query-identical arena — it just skips the byte bound.

use std::io::Write;

use stjoin::core::{Dataset, TopologyJoin};
use stjoin::geom::Rect;
use stjoin::raster::Grid;
use stjoin::store::{open_arena, open_arena_from_bytes, write_arena_v2};

#[global_allocator]
static COUNTER: stjoin::obs::CountingAlloc = stjoin::obs::CountingAlloc;

#[test]
fn mapped_open_performs_no_full_file_copy() {
    // A few thousand buildings: the v2 image lands well into the
    // megabytes, far above any metadata allocation.
    let polys = stjoin::datagen::generate(stjoin::datagen::DatasetId::OBE, 0.5);
    let mut extent = Rect::empty();
    for p in &polys {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 10);
    let ds = Dataset::build_parallel("obe", polys, &grid, 4);
    let arena = ds.to_arena();

    let path = std::env::temp_dir().join(format!("stj-mmap-open-{}.stjd", std::process::id()));
    let mut bytes = Vec::new();
    write_arena_v2(&mut bytes, &arena, &grid).expect("v2 write");
    let file_len = bytes.len() as u64;
    assert!(file_len > 1 << 20, "dataset too small to be probative");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(&bytes))
        .expect("write v2 file");

    let before = stjoin::obs::alloc::totals().bytes;
    let (opened, ogrid) = open_arena(&path).expect("open v2 file");
    let open_bytes = stjoin::obs::alloc::totals().bytes - before;
    let _ = std::fs::remove_file(&path);

    assert_eq!(ogrid, grid);
    assert_eq!(opened.len(), arena.len());
    if opened.backing_kind() == "mapped" {
        // The open may allocate metadata but never a buffer in the
        // file's size class; one-tenth leaves headroom for allocator
        // slop while still failing on any full- or half-file copy.
        assert!(
            open_bytes < file_len / 10,
            "mapped open of a {file_len}-byte file allocated {open_bytes} bytes"
        );
    } else {
        // No mapped path on this target: the fallback necessarily
        // buffers the file, so only functional checks apply.
        eprintln!(
            "mapped open unsupported here (backing {})",
            opened.backing_kind()
        );
    }

    // Whatever the backing, the opened arena must answer like the
    // in-memory image.
    let (baseline, _g) = open_arena_from_bytes(&bytes).expect("bytes open");
    let join = TopologyJoin::new().threads(1);
    let a = join.run(&opened, &opened);
    let b = join.run(&baseline, &baseline);
    assert_eq!(a.links, b.links);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.candidates, b.candidates);
}
