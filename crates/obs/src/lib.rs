//! `stj-obs`: the observability layer for the spatial topology join.
//!
//! The paper's experimental story (EDBT 2026, Figures 7–9) is about
//! *where* join time goes: which pipeline stage decides each pair, and
//! at what latency. This crate provides the measurement machinery the
//! rest of the workspace instruments itself with:
//!
//! - [`hist::Histogram`] — log2-bucketed, mergeable latency histograms
//!   with p50/p95/p99/max summaries;
//! - [`profile`] — the statically-dispatched [`profile::Profiler`]
//!   trait ([`profile::Disabled`] is a true no-op; [`profile::Recorder`]
//!   collects a [`profile::JoinProfile`] per worker thread, merged
//!   exactly after the join);
//! - [`json::Json`] — a dependency-free JSON document model (emitter
//!   *and* parser) backing `stj join --stats-json`, `stj bench-diff`,
//!   and the bench harness's `BENCH_*.json`;
//! - [`progress::Progress`] — a pairs/sec + worker-utilization
//!   heartbeat on stderr;
//! - [`metrics`] — shared-state counters, gauges and histograms for
//!   long-lived services (`stj serve`'s `/stats` endpoint);
//! - [`trace`] — the flight recorder: per-worker lock-free span rings
//!   over tile tasks, exported as Chrome trace-event JSON
//!   (`stj join --trace`, loadable in Perfetto);
//! - [`sched`] — per-worker busy/idle/task-claim/skew-split tallies
//!   and the derived imbalance ratio for the streaming executor;
//! - [`alloc`] — the one counting `#[global_allocator]`
//!   ([`alloc::CountingAlloc`]: per-thread and process-wide counts) and
//!   the site-tagged allocation attribution it feeds;
//! - [`prom`] — a Prometheus text-exposition writer over the service
//!   metrics (`stj serve`'s `/metrics` endpoint).
//!
//! The crate has no dependencies (the build environment is offline) and
//! no knowledge of geometry: callers pass stage/class identifiers in
//! and label them at JSON-emission time.

pub mod alloc;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod prom;
pub mod sched;
pub mod trace;

pub use alloc::{AllocSite, AllocSnapshot, AllocTotals, CountingAlloc};
pub use hist::Histogram;
pub use json::Json;
pub use metrics::{Counter, Gauge, SharedHistogram};
pub use profile::{ClassStats, Disabled, JoinProfile, Profiler, Recorder, Stage, StageStats};
pub use progress::{Progress, ProgressBatch};
pub use prom::PromWriter;
pub use sched::{SchedReport, WorkerSched};
pub use trace::{JoinTrace, SpanRecord, SpanRing, WorkerTrace, DEFAULT_TRACE_SPANS};
