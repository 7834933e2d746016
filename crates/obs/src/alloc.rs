//! Allocation counting and attribution: the one counting allocator,
//! plus site-tagged hooks.
//!
//! [`CountingAlloc`] is a passthrough to the system allocator that every
//! binary or test measuring allocations installs as its
//! `#[global_allocator]`. It keeps:
//!
//! - per-thread call counts ([`thread_alloc_calls`]), so a test can
//!   measure exactly the threads it runs without counting whatever the
//!   test harness runs alongside;
//! - process-wide call, byte, live-byte and peak-live-byte counts
//!   ([`totals`], [`reset_peak`]);
//! - the site table below, through [`note_alloc`].
//!
//! Every counter is a const-initialized `thread_local` `Cell` or a
//! relaxed atomic, so counting never allocates or re-enters the
//! allocator.
//!
//! The join once made millions of small allocations per run, almost all
//! of them in the DE-9IM refine path. Knowing the total is not enough
//! to attack such a problem; the site table splits it by *site*:
//!
//! 1. [`CountingAlloc`] forwards every allocation's size to
//!    [`note_alloc`].
//! 2. Hot allocation sites in the refine path scope a [`SiteGuard`]
//!    (via [`enter`]) that tags the current thread with an
//!    [`AllocSite`] while the guard lives. The tag lives in a
//!    const-initialized `thread_local` `Cell`, so touching it never
//!    allocates — which matters inside a global allocator.
//! 3. [`note_alloc`] charges each allocation to the thread's current
//!    site in a global atomic table, read back with [`snapshot`].
//!
//! Recording is gated on a process-global `TRACKING` flag: when off
//! (the default) [`note_alloc`] is a single relaxed atomic load, so
//! the hooks cost nothing measurable on untraced runs. [`enter`]
//! always maintains the thread's tag stack regardless of the flag —
//! that keeps nested guards correct across mid-scope toggles — but a
//! tag set while tracking is off is never read.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// A refine-path allocation site. `Other` absorbs everything that runs
/// outside a [`SiteGuard`] (arena loading, candidate buffers, I/O).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocSite {
    Other = 0,
    /// Noding a geometry into a prepared edge set (edge extraction,
    /// locator build, interior points).
    Noding = 1,
    /// Building and sorting the sweep's per-input event lists.
    SweepEvents = 2,
    /// Sub-edge classification: per-edge hit lists, parameter splits,
    /// collinear-overlap ranges.
    SubEdge = 3,
    /// The edge-pair intersection hit list the sweep accumulates.
    IntersectionList = 4,
}

/// Number of sites, including `Other`.
pub const NUM_SITES: usize = 5;

impl AllocSite {
    /// All sites, in counter-table order.
    pub const ALL: [AllocSite; NUM_SITES] = [
        AllocSite::Other,
        AllocSite::Noding,
        AllocSite::SweepEvents,
        AllocSite::SubEdge,
        AllocSite::IntersectionList,
    ];

    /// Stable label used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            AllocSite::Other => "other",
            AllocSite::Noding => "noding",
            AllocSite::SweepEvents => "sweep_events",
            AllocSite::SubEdge => "sub_edge",
            AllocSite::IntersectionList => "intersection_list",
        }
    }
}

static TRACKING: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SITE_CALLS: [AtomicU64; NUM_SITES] = [ZERO; NUM_SITES];
static SITE_BYTES: [AtomicU64; NUM_SITES] = [ZERO; NUM_SITES];

thread_local! {
    /// The thread's current site tag. Const-initialized so reading it
    /// from inside the global allocator cannot itself allocate.
    static CURRENT_SITE: Cell<u8> = const { Cell::new(0) };
}

/// Turns attribution on or off process-wide.
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Relaxed);
}

/// Whether attribution is currently on.
pub fn tracking() -> bool {
    TRACKING.load(Relaxed)
}

/// Zeroes the site table.
pub fn reset() {
    for i in 0..NUM_SITES {
        SITE_CALLS[i].store(0, Relaxed);
        SITE_BYTES[i].store(0, Relaxed);
    }
}

/// Tags the current thread with `site` until the guard drops, then
/// restores the previous tag (guards nest).
///
/// The tag is set unconditionally — `TRACKING` gates only
/// [`note_alloc`]. A guard that consulted the flag at construction
/// time would mis-attribute when tracking toggles while it lives: an
/// inner guard built during an off window would leave the outer site
/// in place, silently charging its allocations to the wrong row once
/// tracking comes back on. Two TLS `Cell` accesses are cheap enough
/// that unconditional tagging costs nothing measurable.
#[inline]
pub fn enter(site: AllocSite) -> SiteGuard {
    let prev = CURRENT_SITE
        .try_with(|c| {
            let prev = c.get();
            c.set(site as u8);
            prev
        })
        .unwrap_or(0);
    SiteGuard { prev }
}

/// RAII tag restorer returned by [`enter`].
pub struct SiteGuard {
    prev: u8,
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        let _ = CURRENT_SITE.try_with(|c| c.set(self.prev));
    }
}

/// Charges one allocation of `size` bytes to the calling thread's
/// current site. Called from a binary's `#[global_allocator]` on every
/// `alloc`/`realloc`; must not allocate (it doesn't: `try_with` over a
/// const-initialized TLS cell plus relaxed atomics).
#[inline]
pub fn note_alloc(size: usize) {
    if !TRACKING.load(Relaxed) {
        return;
    }
    // TLS may be gone during thread teardown; charge `Other` then.
    let site = CURRENT_SITE.try_with(Cell::get).unwrap_or(0) as usize;
    SITE_CALLS[site].fetch_add(1, Relaxed);
    SITE_BYTES[site].fetch_add(size as u64, Relaxed);
}

/// A point-in-time copy of the site table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub calls: [u64; NUM_SITES],
    pub bytes: [u64; NUM_SITES],
}

impl AllocSnapshot {
    /// Reads the current counters.
    pub fn capture() -> AllocSnapshot {
        let mut snap = AllocSnapshot::default();
        for i in 0..NUM_SITES {
            snap.calls[i] = SITE_CALLS[i].load(Relaxed);
            snap.bytes[i] = SITE_BYTES[i].load(Relaxed);
        }
        snap
    }

    /// Counters accumulated since `earlier` (for bracketing one join).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        let mut snap = AllocSnapshot::default();
        for i in 0..NUM_SITES {
            snap.calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
            snap.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
        }
        snap
    }

    /// Total allocation calls across all sites.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Sites with at least one recorded allocation.
    pub fn live_sites(&self) -> usize {
        self.calls.iter().filter(|&&c| c > 0).count()
    }

    /// The `alloc` block of `stj-join-report/v1`: totals plus a
    /// per-site `{calls, bytes}` breakdown.
    pub fn to_json(&self) -> Json {
        let mut sites = Json::Obj(Vec::new());
        for site in AllocSite::ALL {
            let i = site as usize;
            sites.push(
                site.name(),
                Json::object([
                    ("calls", Json::U64(self.calls[i])),
                    ("bytes", Json::U64(self.bytes[i])),
                ]),
            );
        }
        Json::object([
            ("total_calls", Json::U64(self.total_calls())),
            ("total_bytes", Json::U64(self.bytes.iter().sum())),
            ("sites", sites),
        ])
    }
}

/// Takes [`AllocSnapshot::capture`]; alias kept for call-site brevity.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot::capture()
}

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocator calls made by this thread. Const-initialized and
    /// drop-free, so the allocator can bump it without allocating.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The counting global allocator: a passthrough to [`System`] that
/// counts every `alloc`, `alloc_zeroed` and `realloc` (a growing `Vec`
/// re-entering the allocator is churn too) per thread and process-wide,
/// tracks live and peak bytes, and feeds [`note_alloc`].
///
/// ```
/// #[global_allocator]
/// static GLOBAL: stj_obs::CountingAlloc = stj_obs::CountingAlloc;
///
/// fn main() {
///     let before = stj_obs::alloc::thread_alloc_calls();
///     let v = std::hint::black_box(vec![7u8; 64]);
///     assert_eq!(stj_obs::alloc::thread_alloc_calls() - before, 1);
///     assert!(stj_obs::alloc::totals().live_bytes >= v.len() as u64);
/// }
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(size: usize) {
        // TLS may be gone during thread teardown; the process-wide
        // counters still see the call.
        let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Relaxed);
        note_alloc(size);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        CountingAlloc::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls the calling thread has made so far under
/// [`CountingAlloc`] (always 0 when it is not installed). Diff two
/// readings on one thread to measure exactly that thread's window.
pub fn thread_alloc_calls() -> u64 {
    THREAD_CALLS.try_with(Cell::get).unwrap_or(0)
}

/// Process-wide counts of [`CountingAlloc`] since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since the last [`reset_peak`].
    pub peak_bytes: u64,
}

/// Reads the process-wide [`CountingAlloc`] counters.
pub fn totals() -> AllocTotals {
    AllocTotals {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed),
    }
}

/// Restarts the peak-live-bytes high-water mark at the current live
/// bytes, and returns them: bracket a run with this and
/// [`totals`]`().peak_bytes` to get its peak over the starting heap.
pub fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(live, Relaxed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tracking state is process-global; serialize the tests that
    /// toggle it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_tracking_records_nothing() {
        let _l = LOCK.lock().unwrap();
        reset();
        set_tracking(false);
        let _g = enter(AllocSite::Noding);
        note_alloc(128);
        assert_eq!(snapshot().total_calls(), 0);
    }

    #[test]
    fn guards_attribute_and_nest() {
        let _l = LOCK.lock().unwrap();
        reset();
        set_tracking(true);
        let before = snapshot();
        {
            let _g = enter(AllocSite::Noding);
            note_alloc(100);
            {
                let _h = enter(AllocSite::SubEdge);
                note_alloc(10);
                note_alloc(10);
            }
            // Inner guard dropped: back to Noding.
            note_alloc(100);
        }
        // Outer guard dropped: back to Other.
        note_alloc(1);
        set_tracking(false);
        let d = snapshot().since(&before);
        assert_eq!(d.calls[AllocSite::Noding as usize], 2);
        assert_eq!(d.bytes[AllocSite::Noding as usize], 200);
        assert_eq!(d.calls[AllocSite::SubEdge as usize], 2);
        assert_eq!(d.bytes[AllocSite::SubEdge as usize], 20);
        assert_eq!(d.calls[AllocSite::Other as usize], 1);
        assert!(d.live_sites() >= 3);
    }

    #[test]
    fn nested_guards_survive_tracking_toggle() {
        let _l = LOCK.lock().unwrap();
        reset();
        // Outer guard built while tracking is OFF: it must still tag
        // the thread, so that sites observed after tracking turns on
        // are attributed to the innermost live guard, and drops
        // restore correctly.
        set_tracking(false);
        let before = snapshot();
        {
            let _outer = enter(AllocSite::Noding);
            set_tracking(true);
            note_alloc(100); // charged to Noding, not Other
            {
                let _inner = enter(AllocSite::SweepEvents);
                note_alloc(10); // inner shadows outer
            }
            note_alloc(100); // inner dropped: back to Noding
        }
        note_alloc(1); // outer dropped: back to Other
        set_tracking(false);
        let d = snapshot().since(&before);
        assert_eq!(d.calls[AllocSite::Noding as usize], 2);
        assert_eq!(d.bytes[AllocSite::Noding as usize], 200);
        assert_eq!(d.calls[AllocSite::SweepEvents as usize], 1);
        assert_eq!(d.bytes[AllocSite::SweepEvents as usize], 10);
        assert_eq!(d.calls[AllocSite::Other as usize], 1);
    }

    #[test]
    fn snapshot_json_lists_every_site() {
        let text = AllocSnapshot::default().to_json().render();
        for site in AllocSite::ALL {
            assert!(text.contains(site.name()), "{text}");
        }
        assert!(text.contains("total_calls"), "{text}");
    }
}
