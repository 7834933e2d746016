//! Allocation-regression guard for the refine path (PR 7).
//!
//! The flat thread-scaling bug was caused by per-call heap churn in
//! DE-9IM refinement: every `relate()` allocated (and freed) its
//! noding buffers, sweep event lists, sub-edge vectors and
//! intersection lists, serializing all workers on the allocator. The
//! fix threads a reusable [`RelateScratch`] arena through the whole
//! path. This test pins the property that makes the fix stick: after
//! a warm-up pass has grown every scratch buffer to its high-water
//! mark, re-running the full adversarial corpus through
//! `relate_with` performs **zero** allocations — on one thread and on
//! four concurrent threads (each with its own arena).
//!
//! The corpus is `stj_datagen::adversarial` — the same constructions
//! the differential check harness uses — so the guard covers shared
//! edges, vertex contact, hole boundaries, collinear slivers and the
//! degenerate MBR ties, not just friendly rectangles.
//!
//! Counts are per thread: each measured thread diffs its own
//! [`thread_alloc_calls`] around its steady pass, so allocations by
//! other tests running in parallel in this binary never leak into the
//! measured window.

use std::sync::Barrier;

use stjoin::datagen::adversarial::adversarial_pair;
use stjoin::de9im::{relate_with, RelateScratch};
use stjoin::obs::alloc::thread_alloc_calls;
use stjoin::Polygon;

/// Counts every allocator entry point, per thread. `realloc` and
/// `alloc_zeroed` count too: a growing `Vec` re-entering the allocator
/// is exactly the churn this test exists to catch.
#[global_allocator]
static COUNTER: stjoin::obs::CountingAlloc = stjoin::obs::CountingAlloc;

/// Pairs per corpus: several full rotations of the 11 adversarial
/// categories.
const CORPUS: u64 = 66;

fn corpus(seed: u64) -> Vec<(Polygon, Polygon)> {
    (0..CORPUS)
        .map(|i| {
            let p = adversarial_pair(seed, i);
            (p.a, p.b)
        })
        .collect()
}

/// Runs every pair through refinement, both orientations.
fn run_corpus(pairs: &[(Polygon, Polygon)], scratch: &mut RelateScratch) -> u64 {
    let mut checksum = 0u64;
    for (a, b) in pairs {
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(relate_with(a, b, scratch).bits() as u64);
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(relate_with(b, a, scratch).bits() as u64);
    }
    checksum
}

#[test]
fn steady_state_relate_is_allocation_free_single_thread() {
    let pairs = corpus(0xA110C);
    let mut scratch = RelateScratch::default();

    // Warm-up: grow every scratch buffer to the corpus high-water mark.
    let expect = run_corpus(&pairs, &mut scratch);

    let before = thread_alloc_calls();
    let got = run_corpus(&pairs, &mut scratch);
    let allocs = thread_alloc_calls() - before;

    assert_eq!(got, expect, "scratch reuse changed relate results");
    assert_eq!(
        allocs,
        0,
        "steady-state refinement allocated {allocs} times over {} pairs",
        pairs.len()
    );
}

#[test]
fn steady_state_relate_is_allocation_free_four_threads() {
    const THREADS: usize = 4;
    let pairs = corpus(0xA110C4);

    // All workers warm up before any steady pass starts, so the steady
    // passes run concurrently — the contention regime the per-worker
    // arenas exist for. Each worker counts only its own steady pass.
    let warmed = Barrier::new(THREADS);

    let allocs: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // Per-worker arena, exactly like the streaming
                    // executor and the serve pool.
                    let mut scratch = RelateScratch::default();
                    let expect = run_corpus(&pairs, &mut scratch);
                    warmed.wait();
                    let before = thread_alloc_calls();
                    let got = run_corpus(&pairs, &mut scratch);
                    let allocs = thread_alloc_calls() - before;
                    assert_eq!(got, expect, "scratch reuse changed relate results");
                    allocs
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .sum()
    });
    assert_eq!(
        allocs, 0,
        "steady-state refinement allocated {allocs} times across {THREADS} threads"
    );
}
