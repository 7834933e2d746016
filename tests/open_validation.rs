//! Open-time validation of large STJD v2 files.
//!
//! Above a fixed pool size the `P`/`C` interval-pool checks of an open
//! run on several threads, each over a range of objects. A corrupt pool
//! must still be rejected by both open paths — `open_arena` (mapped)
//! and `open_arena_from_bytes` (copied) — with the message the serial
//! check gives: the lowest corrupt object of the first corrupt pool.

use stjoin::core::{ArenaColumns, DatasetArena};
use stjoin::geom::{Point, Rect};
use stjoin::raster::Grid;
use stjoin::store::{open_arena, open_arena_from_bytes, write_arena_v2};

/// Objects and intervals per object and pool: 327,680 intervals in
/// all, above the 2^18 from which the pool checks go parallel.
const N: usize = 4096;
const K: usize = 40;

/// `N` triangles, each with `K` `P` intervals `[x, x + 2)` and `K` `C`
/// intervals `[x, x + 5)` at `x = 8 * (object * K + j)`: no word pair
/// of one pool (nor of any other column) reads as an interval of the
/// other, so each interval's bytes occur once in the file.
fn columns() -> ArenaColumns {
    let mut c = ArenaColumns {
        name: "pools".into(),
        mbrs: vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0); N],
        interior: vec![Point::new(0.25, 0.25); N],
        p_offs: (0..=N as u64).map(|i| i * K as u64).collect(),
        c_offs: (0..=N as u64).map(|i| i * K as u64).collect(),
        obj_ring_offs: (0..=N as u64).collect(),
        ring_vert_offs: (0..=N as u64).map(|i| 3 * i).collect(),
        verts: (0..N)
            .flat_map(|_| [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
            .map(|(x, y)| Point::new(x, y))
            .collect(),
        ..ArenaColumns::default()
    };
    for x in (0..(N * K) as u64).map(|i| 8 * i) {
        c.p_pool.push((x, x + 2));
        c.c_pool.push((x, x + 5));
    }
    c
}

/// Byte offset of the only 8-aligned occurrence of `(s, e)` as two
/// little-endian words.
fn find_interval(bytes: &[u8], (s, e): (u64, u64)) -> usize {
    let mut pat = s.to_le_bytes().to_vec();
    pat.extend(e.to_le_bytes());
    let hits: Vec<usize> = (0..bytes.len() - 15)
        .step_by(8)
        .filter(|&at| bytes[at..at + 16] == pat[..])
        .collect();
    assert_eq!(hits.len(), 1, "interval ({s}, {e}) found at {hits:?}");
    hits[0]
}

/// Empties interval `j` of `obj` in pool `which` of the image and
/// returns the serial check's message for it.
fn corrupt(bytes: &mut [u8], which: &str, obj: usize, j: usize) -> String {
    let x = 8 * (obj * K + j) as u64;
    let e = if which == "P" { x + 2 } else { x + 5 };
    let at = find_interval(bytes, (x, e));
    bytes[at + 8..at + 16].copy_from_slice(&x.to_le_bytes());
    format!("invalid arena: object {obj}: empty {which} interval [{x},{x})")
}

/// Opens the image through both paths; both must fail with `want`.
fn assert_rejected(bytes: &[u8], want: &str, tag: &str) {
    let copied = open_arena_from_bytes(bytes).expect_err(tag).to_string();
    assert!(copied.ends_with(want), "{tag}: copied open said {copied:?}");

    let path = std::env::temp_dir().join(format!(
        "stj-open-validation-{}-{tag}.stjd",
        std::process::id()
    ));
    std::fs::write(&path, bytes).expect("write image");
    let mapped = open_arena(&path);
    let _ = std::fs::remove_file(&path);
    let mapped = mapped.expect_err(tag).to_string();
    assert_eq!(mapped, copied, "{tag}: mapped and copied opens disagree");
}

#[test]
fn corrupt_pools_fail_both_opens_with_the_serial_error() {
    let arena = DatasetArena::from_columns(columns()).expect("valid columns");
    let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 16);
    let mut image = Vec::new();
    write_arena_v2(&mut image, &arena, &grid).expect("v2 write");
    let (opened, _) = open_arena_from_bytes(&image).expect("clean image opens");
    assert_eq!(opened.len(), N);

    // First object, last object, and both sides of the boundary between
    // two workers' object ranges.
    for which in ["P", "C"] {
        for obj in [0, N / 2 - 1, N / 2, N - 1] {
            for j in [0, K - 1] {
                let mut bytes = image.clone();
                let want = corrupt(&mut bytes, which, obj, j);
                assert_rejected(&bytes, &want, &format!("{which}{obj}.{j}"));
            }
        }
    }

    // Two corrupt objects in different workers' ranges: the lower one
    // is named. A `P` error is reported before any `C` error.
    let mut bytes = image.clone();
    corrupt(&mut bytes, "P", N - 1, 5);
    let want = corrupt(&mut bytes, "P", N / 2 - 1, 7);
    corrupt(&mut bytes, "P", N / 2, 0);
    assert_rejected(&bytes, &want, "two-p");

    let mut bytes = image.clone();
    corrupt(&mut bytes, "C", 0, 0);
    let want = corrupt(&mut bytes, "P", N - 1, K - 1);
    assert_rejected(&bytes, &want, "p-before-c");
}
