//! Batch topology-join execution.
//!
//! [`TopologyJoin`] is the high-level entry point a downstream system
//! would use: configure the method (P+C or a baseline), optionally a
//! single predicate (`relate_p` mode) and the thread count; run it over
//! two preprocessed [`Dataset`]s and get every non-disjoint pair's
//! relation plus aggregate statistics.
//!
//! # Execution
//!
//! The executor is fused and streaming. Workers claim [`TileTask`]s
//! from a shared atomic counter (work-stealing by construction),
//! generate each task's candidate pairs into a small per-worker batch
//! buffer, and run the P+C pipeline (or the selected baseline /
//! predicate runner) over the batch immediately, while the MBRs and
//! APRIL spans touched by the filter step are still cache-hot. Peak
//! candidate-buffer memory is `O(threads ×` [`STREAM_BATCH_PAIRS`]`)`
//! regardless of the candidate count, and dense tiles are split into
//! sub-range tasks so one hot spot cannot serialize the join. Callers
//! who want the raw candidate list use `stj_index::mbr_join*`.
//!
//! Parallel runs merge per-thread stats at the end, so the aggregate
//! matches a sequential run — and a brute-force nested loop over every
//! pair — exactly.
//!
//! # Observability
//!
//! Opt-in observation channels (see `stj-obs`):
//!
//! - [`TopologyJoin::profiled`] collects a [`JoinProfile`] — per-stage
//!   latency histograms, decision counts, and a per-MBR-class breakdown.
//!   Each worker owns a private `Recorder` (no shared state on the pair
//!   path); the recorders merge after the thread scope, so the profile
//!   is exact regardless of thread count. Profiling is statically
//!   dispatched: when off, the pair loop monomorphizes to the
//!   uninstrumented code.
//! - [`TopologyJoin::traced`] turns on the flight recorder: each
//!   streaming worker records one [`stj_obs::SpanRecord`] per tile task
//!   into a private fixed-capacity ring, assembled into a
//!   [`JoinTrace`] after the scope (exportable as Chrome trace-event
//!   JSON via `stj join --trace`). Tracing implies profiling, which
//!   supplies the per-stage nanos inside each span.
//! - In-memory runs always return a [`SchedReport`]: per-worker
//!   busy/idle nanos, task-claim and skew-split counts, and the
//!   derived imbalance ratio. The cost is two `Instant` reads per tile
//!   task, off the per-pair path.
//! - [`TopologyJoin::progress`] prints a pairs/sec heartbeat to stderr
//!   from a monitor thread while workers count pairs in batches. (The
//!   heartbeat has no total: the candidate count is only known once
//!   generation finishes.) Workers also feed per-task busy time into
//!   the meter, so heartbeats carry worker utilization.

use crate::adaptive::{
    find_relation_adaptive_with, relate_p_adaptive_with, AdaptiveMode, AdaptiveModel,
    AdaptiveReport, AdaptiveWorker,
};
use crate::arena::{DatasetArena, ObjectRef};
use crate::baselines::{find_relation_april_with, find_relation_op2_with, find_relation_st2_with};
use crate::pipeline::{FindOutcome, PipelineStats};
use crate::relate_pred::RelateDetermination;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stj_de9im::{RelateScratch, TopoRelation};
use stj_index::{MbrRelation, TileTask, Tiling, DEFAULT_SPLIT_THRESHOLD};
use stj_obs::{
    Disabled, JoinProfile, JoinTrace, Profiler, Progress, ProgressBatch, Recorder, SchedReport,
    SpanRecord, SpanRing, WorkerSched, WorkerTrace, DEFAULT_TRACE_SPANS,
};

/// Streaming batch size: candidate pairs buffered per worker before the
/// pipeline runs over them. Large enough to amortize the per-batch
/// dispatch, small enough (32 KiB of pair ids) that the batch plus the
/// tile's MBRs stay cache-resident.
pub const STREAM_BATCH_PAIRS: usize = 4096;

/// Which find-relation method a [`TopologyJoin`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinMethod {
    /// The paper's P+C pipeline (default).
    #[default]
    PC,
    /// Standard two-phase (MBR + full DE-9IM).
    St2,
    /// Typed-MBR two-phase.
    Op2,
    /// APRIL intersection-only intermediate filter.
    April,
}

/// A baseline's per-pair entry point, run through the caller's
/// (per-worker) relate scratch.
pub type BaselineRunner = fn(ObjectRef<'_>, ObjectRef<'_>, &mut RelateScratch) -> FindOutcome;

impl JoinMethod {
    /// The per-pair entry point of a baseline method; `None` for P+C,
    /// which runs through [`find_relation_adaptive_with`] with a worker.
    pub fn runner(self) -> Option<BaselineRunner> {
        match self {
            JoinMethod::PC => None,
            JoinMethod::St2 => Some(find_relation_st2_with),
            JoinMethod::Op2 => Some(find_relation_op2_with),
            JoinMethod::April => Some(find_relation_april_with),
        }
    }
}

/// One discovered link: indexes into the joined datasets plus the
/// detected relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Index into the left dataset.
    pub r: u32,
    /// Index into the right dataset.
    pub s: u32,
    /// The most specific relation (find-relation mode) or the requested
    /// predicate (predicate mode).
    pub relation: TopoRelation,
}

/// Result of a [`TopologyJoin`] run.
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// Non-disjoint pairs with their relations (find-relation mode), or
    /// pairs satisfying the predicate (predicate mode).
    pub links: Vec<Link>,
    /// Number of MBR-join candidate pairs examined.
    pub candidates: u64,
    /// Aggregate pipeline statistics (find-relation mode; in predicate
    /// mode `refined` counts refinement-determined predicate answers).
    pub stats: PipelineStats,
    /// Per-stage/per-class observation, when [`TopologyJoin::profiled`]
    /// (or [`TopologyJoin::traced`], which implies it) was requested.
    pub profile: Option<JoinProfile>,
    /// Per-worker busy/idle/task tallies. Always present for in-memory
    /// runs; `None` for external (out-of-core) joins.
    pub sched: Option<SchedReport>,
    /// The flight-recorder trace, when [`TopologyJoin::traced`] was
    /// requested.
    pub trace: Option<JoinTrace>,
    /// The adaptive controller's decision trace, when
    /// [`TopologyJoin::adaptive`] enabled it. `None` under
    /// [`AdaptiveMode::Off`] (the default) and for external
    /// (out-of-core) joins, which run each shard pair statically.
    pub adaptive: Option<AdaptiveReport>,
}

/// Resource limits for a bounded join run (see
/// [`TopologyJoin::run_bounded`]). The default has no limits.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinBounds {
    /// Stop once this many links have been found. The returned link
    /// list is truncated to exactly this count (deterministically, by
    /// ascending `(r, s)`).
    pub max_links: Option<u64>,
    /// Stop once this instant passes. Checked at task and batch
    /// granularity, so a run overshoots the deadline by at most one
    /// tile task per worker.
    pub deadline: Option<Instant>,
}

/// Result of a [`TopologyJoin::run_bounded`] run: the (possibly
/// partial) join result plus which limit, if any, cut it short.
#[derive(Clone, Debug)]
pub struct BoundedJoinResult {
    /// The join output. When no limit fired this is bit-identical to
    /// [`TopologyJoin::run`]; when one did, `links` holds the pairs
    /// found before the stop (capped runs: the `(r, s)`-smallest
    /// `max_links` of them) and `stats`/`candidates` count the pairs
    /// actually examined.
    pub result: JoinResult,
    /// The link cap stopped the run.
    pub hit_link_cap: bool,
    /// The deadline stopped the run.
    pub hit_deadline: bool,
}

impl BoundedJoinResult {
    /// Whether any limit cut the run short.
    pub fn truncated(&self) -> bool {
        self.hit_link_cap || self.hit_deadline
    }
}

/// Shared cooperative-stop state for a bounded run: workers consult it
/// between tasks and batches, and trip it when a limit is exceeded.
struct LimitState {
    stop: AtomicBool,
    emitted: AtomicU64,
    /// `u64::MAX` when uncapped.
    max_links: u64,
    deadline: Option<Instant>,
    hit_cap: AtomicBool,
    hit_deadline: AtomicBool,
}

impl LimitState {
    fn new(bounds: &JoinBounds) -> LimitState {
        LimitState {
            stop: AtomicBool::new(false),
            emitted: AtomicU64::new(0),
            max_links: bounds.max_links.unwrap_or(u64::MAX),
            deadline: bounds.deadline,
            hit_cap: AtomicBool::new(false),
            hit_deadline: AtomicBool::new(false),
        }
    }

    /// Whether workers should stop claiming work; trips the stop flag
    /// on an expired deadline.
    fn should_stop(&self) -> bool {
        if self.stop.load(Ordering::Acquire) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.hit_deadline.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Folds `n` freshly found links into the global count; trips the
    /// stop flag once the cap is reached.
    fn note_links(&self, n: u64) {
        if n == 0 || self.max_links == u64::MAX {
            return;
        }
        let total = self.emitted.fetch_add(n, Ordering::Relaxed) + n;
        if total >= self.max_links {
            self.hit_cap.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Release);
        }
    }
}

/// The MBR-class labels matching the class ids recorded in
/// [`JoinProfile`] — pass to `JoinProfile::to_json`.
pub fn mbr_class_labels() -> [&'static str; 6] {
    let mut labels = [""; 6];
    for (i, c) in MbrRelation::ALL.into_iter().enumerate() {
        labels[i] = c.name();
    }
    labels
}

/// Configurable batch topology join between two datasets.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopologyJoin {
    method: JoinMethod,
    predicate: Option<TopoRelation>,
    threads: usize,
    profiled: bool,
    traced: bool,
    progress: bool,
    adaptive: AdaptiveMode,
}

/// Per-worker accumulation: links, stats, and (when profiling) the
/// worker's finished profile.
type WorkerPart = (Vec<Link>, PipelineStats, Option<JoinProfile>);

/// A worker's full output: the pipeline accumulation plus
/// its scheduler tallies and (when tracing) its slice of the trace.
struct StreamPart {
    part: WorkerPart,
    sched: WorkerSched,
    trace: Option<WorkerTrace>,
}

/// Nanoseconds from `epoch` to `now`, saturating.
fn ns_since(epoch: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(epoch)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

impl TopologyJoin {
    /// A join with default configuration (P+C, find-relation mode,
    /// auto-detected thread count, unprofiled).
    pub fn new() -> TopologyJoin {
        TopologyJoin::default()
    }

    /// Selects the find-relation method.
    pub fn method(mut self, method: JoinMethod) -> TopologyJoin {
        self.method = method;
        self
    }

    /// Switches to predicate mode: report exactly the pairs satisfying
    /// `predicate`, via the `relate_p` fast path (always P+C-based).
    pub fn predicate(mut self, predicate: TopoRelation) -> TopologyJoin {
        self.predicate = Some(predicate);
        self
    }

    /// Sets the worker thread count. `0` (the default) auto-detects via
    /// [`std::thread::available_parallelism`]; `1` forces a sequential
    /// run.
    pub fn threads(mut self, threads: usize) -> TopologyJoin {
        self.threads = threads;
        self
    }

    /// Enables per-stage profiling: the result's
    /// [`profile`](JoinResult::profile) is populated. Adds per-pair
    /// timing overhead; leave off for throughput measurements.
    pub fn profiled(mut self, on: bool) -> TopologyJoin {
        self.profiled = on;
        self
    }

    /// Enables the flight recorder: the result's
    /// [`trace`](JoinResult::trace) carries one span per tile task.
    /// Implies [`TopologyJoin::profiled`] (spans embed per-stage
    /// nanos).
    pub fn traced(mut self, on: bool) -> TopologyJoin {
        self.traced = on;
        self
    }

    /// Enables a pairs/sec heartbeat on stderr while the join runs.
    pub fn progress(mut self, on: bool) -> TopologyJoin {
        self.progress = on;
        self
    }

    /// Sets the adaptive filter-ordering mode (see
    /// [`crate::adaptive`]). The library default is
    /// [`AdaptiveMode::Off`] — the paper's static pipeline, every cell a
    /// constant *keep*; under [`AdaptiveMode::On`] links and relations
    /// are still identical, but per-(MBR class × mode) cells may skip
    /// the APRIL stage once warmed, moving decisions from
    /// `by_intermediate` to `refined`. Applies to the P+C method and
    /// predicate mode; baseline methods ignore it.
    pub fn adaptive(mut self, mode: AdaptiveMode) -> TopologyJoin {
        self.adaptive = mode;
        self
    }

    /// The effective worker count: explicit, or auto-detected when the
    /// configured count is `0`.
    fn worker_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// Runs the join over two columnar arenas (owned datasets convert
    /// via [`crate::Dataset::to_arena`]).
    pub fn run(&self, left: &DatasetArena, right: &DatasetArena) -> JoinResult {
        self.run_streaming(left, right, None)
    }

    /// Runs the join under resource limits — the entry point for online
    /// serving, where a request must not hold a worker (or the client)
    /// hostage to an unbounded join.
    ///
    /// With empty `bounds` this is exactly [`TopologyJoin::run`]. With
    /// limits set, workers check them between tile tasks and pair
    /// batches, so a tripped limit stops the join within one task per
    /// worker. `hit_link_cap` / `hit_deadline` report which limit
    /// fired; a capped run returns the `(r, s)`-smallest `max_links`
    /// links found so the truncation is deterministic for a given set
    /// of discovered links.
    pub fn run_bounded(
        &self,
        left: &DatasetArena,
        right: &DatasetArena,
        bounds: JoinBounds,
    ) -> BoundedJoinResult {
        if bounds.max_links.is_none() && bounds.deadline.is_none() {
            return BoundedJoinResult {
                result: self.run(left, right),
                hit_link_cap: false,
                hit_deadline: false,
            };
        }
        let limits = LimitState::new(&bounds);
        let mut result = self.run_streaming(left, right, Some(&limits));
        let hit_link_cap = limits.hit_cap.load(Ordering::Relaxed);
        let hit_deadline = limits.hit_deadline.load(Ordering::Relaxed);
        if hit_link_cap {
            let cap = bounds.max_links.unwrap_or(u64::MAX) as usize;
            result.links.sort_unstable_by_key(|l| (l.r, l.s));
            result.links.truncate(cap);
        }
        BoundedJoinResult {
            result,
            hit_link_cap,
            hit_deadline,
        }
    }

    /// The streaming fused path: workers claim tile tasks and pipeline
    /// each task's candidates in cache-sized batches. `limits` (bounded
    /// runs only) is consulted between tasks and batches.
    fn run_streaming(
        &self,
        left: &DatasetArena,
        right: &DatasetArena,
        limits: Option<&LimitState>,
    ) -> JoinResult {
        let threads = self.worker_threads();
        // Candidate totals are unknown until generation finishes, so the
        // heartbeat runs without a percentage.
        let progress = self.progress.then(|| Progress::new(0));
        // Built for every run: under `Off` its cells hold a constant
        // keep verdict, so the one pipeline body runs the paper's
        // static pipeline.
        let model = AdaptiveModel::new(self.adaptive);
        let stop = AtomicBool::new(false);
        let ((links, stats, profile), sched, trace) = std::thread::scope(|scope| {
            if let Some(p) = &progress {
                scope.spawn(|| p.run_reporter(&stop, Duration::from_secs(1)));
            }
            // Tracing needs the per-stage timings only a Recorder
            // collects, so it forces the profiled monomorphization.
            let out = if self.profiled || self.traced {
                self.stream_with::<Recorder>(
                    left,
                    right,
                    threads,
                    progress.as_ref(),
                    limits,
                    &model,
                )
            } else {
                self.stream_with::<Disabled>(
                    left,
                    right,
                    threads,
                    progress.as_ref(),
                    limits,
                    &model,
                )
            };
            stop.store(true, Ordering::Release);
            out
        });
        JoinResult {
            links,
            // Every candidate pair passes through the pipeline exactly
            // once, so the stat counter is the candidate count.
            candidates: stats.pairs,
            stats,
            profile,
            sched: Some(sched),
            trace,
            // Baseline methods never consult the model.
            adaptive: (self.adaptive.enabled()
                && (self.predicate.is_some() || self.method == JoinMethod::PC))
                .then(|| model.report()),
        }
    }

    /// Statically-dispatched streaming join body: `threads` workers
    /// drain the shared task counter; per-worker state merges after the
    /// scope, including scheduler tallies and (when tracing) the
    /// per-worker span rings.
    fn stream_with<P: Profiler + Default + Send>(
        &self,
        left: &DatasetArena,
        right: &DatasetArena,
        threads: usize,
        progress: Option<&Progress>,
        limits: Option<&LimitState>,
        model: &AdaptiveModel,
    ) -> (WorkerPart, SchedReport, Option<JoinTrace>) {
        let tiling = Tiling::for_inputs(left.mbrs(), right.mbrs());
        let tasks = tiling.tasks(DEFAULT_SPLIT_THRESHOLD);
        // A task is a skew-split when its ranges cover only a slice of
        // its tile's event lists.
        let splits: Vec<bool> = tasks
            .iter()
            .map(|t| {
                let (nr, ns) = tiling.tile_sizes(t.tile as usize);
                (t.r_hi - t.r_lo) as usize != nr || (t.s_hi - t.s_lo) as usize != ns
            })
            .collect();
        let next = AtomicUsize::new(0);
        let workers = if threads == 1 || tasks.len() < 2 {
            1
        } else {
            threads
        };
        if let Some(p) = progress {
            p.set_workers(workers);
        }
        // The trace/sched epoch: everything is timestamped relative to
        // the start of the parallel region.
        let epoch = Instant::now();
        let mut stream_parts: Vec<StreamPart> = Vec::new();
        if workers == 1 {
            stream_parts.push(self.stream_worker::<P>(
                left, right, &tiling, &tasks, &splits, 0, epoch, &next, progress, limits, model,
            ));
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let (tiling, tasks, splits, next) = (&tiling, &tasks, &splits, &next);
                    handles.push(scope.spawn(move || {
                        self.stream_worker::<P>(
                            left, right, tiling, tasks, splits, w, epoch, next, progress, limits,
                            model,
                        )
                    }));
                }
                stream_parts = handles
                    .into_iter()
                    .map(|h| h.join().expect("join worker panicked"))
                    .collect();
            });
        }
        let wall_ns = ns_since(epoch, Instant::now());
        let mut parts = Vec::with_capacity(stream_parts.len());
        let mut scheds = Vec::with_capacity(stream_parts.len());
        let mut traces = Vec::new();
        for sp in stream_parts {
            parts.push(sp.part);
            scheds.push(sp.sched);
            if let Some(t) = sp.trace {
                traces.push(t);
            }
        }
        let trace = self.traced.then_some(JoinTrace {
            wall_ns,
            workers: traces,
        });
        (merge_parts(parts), SchedReport::new(wall_ns, scheds), trace)
    }

    /// One streaming worker: claim a task, stream its candidates into
    /// the batch buffer, flush the pipeline whenever the buffer fills
    /// and at the end of the task, repeat until the queue drains. The
    /// buffer is the worker's only candidate storage — capacity
    /// [`STREAM_BATCH_PAIRS`], never grown. The end-of-task flush keeps
    /// pair/link/stage tallies exactly attributable to the task that
    /// generated them (for spans and scheduler metrics) at the cost of
    /// one extra pipeline dispatch per task.
    #[allow(clippy::too_many_arguments)]
    fn stream_worker<P: Profiler + Default>(
        &self,
        left: &DatasetArena,
        right: &DatasetArena,
        tiling: &Tiling,
        tasks: &[TileTask],
        splits: &[bool],
        worker: usize,
        epoch: Instant,
        next: &AtomicUsize,
        progress: Option<&Progress>,
        limits: Option<&LimitState>,
        model: &AdaptiveModel,
    ) -> StreamPart {
        let mut prof = P::default();
        let mut batch = progress.map(ProgressBatch::new);
        let mut links = Vec::new();
        let mut stats = PipelineStats::default();
        let mut buf: Vec<(u32, u32)> = Vec::with_capacity(STREAM_BATCH_PAIRS);
        // The worker's relate arena: every refinement this worker runs
        // reuses these buffers, so steady-state joins don't allocate.
        let mut scratch = RelateScratch::default();
        // The worker's view of the shared adaptive model: local counter
        // deltas, merged periodically and at worker exit.
        let mut adaptive = AdaptiveWorker::new(model);
        // Links already reported to `limits` (bounded runs).
        let mut noted = 0usize;
        let mut sched = WorkerSched::new(worker);
        let mut ring = self.traced.then(|| SpanRing::new(DEFAULT_TRACE_SPANS));
        let start_ns = ns_since(epoch, Instant::now());
        loop {
            if limits.is_some_and(LimitState::should_stop) {
                // Drop the unprocessed tail of the batch buffer: these
                // candidates were never examined, so stats stay exact.
                buf.clear();
                break;
            }
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= tasks.len() {
                break;
            }
            let task_start = Instant::now();
            let (pairs_before, links_before) = (stats.pairs, links.len() as u64);
            let stages_before = if ring.is_some() {
                prof.stage_ns_totals()
            } else {
                [0; 3]
            };
            tiling.run_task(&tasks[t], left.mbrs(), right.mbrs(), &mut |i, j| {
                buf.push((i, j));
                if buf.len() == STREAM_BATCH_PAIRS {
                    self.process_pairs::<P>(
                        left,
                        right,
                        &buf,
                        &mut prof,
                        &mut links,
                        &mut stats,
                        &mut batch,
                        &mut scratch,
                        &mut adaptive,
                    );
                    buf.clear();
                    if let Some(l) = limits {
                        l.note_links((links.len() - noted) as u64);
                        noted = links.len();
                    }
                }
            });
            if !buf.is_empty() {
                self.process_pairs::<P>(
                    left,
                    right,
                    &buf,
                    &mut prof,
                    &mut links,
                    &mut stats,
                    &mut batch,
                    &mut scratch,
                    &mut adaptive,
                );
                buf.clear();
                if let Some(l) = limits {
                    l.note_links((links.len() - noted) as u64);
                    noted = links.len();
                }
            }
            let task_end = Instant::now();
            let dur_ns = ns_since(task_start, task_end);
            sched.busy_ns += dur_ns;
            sched.tasks += 1;
            sched.splits += u64::from(splits[t]);
            sched.pairs += stats.pairs - pairs_before;
            sched.links += links.len() as u64 - links_before;
            if let Some(p) = progress {
                p.add_busy(dur_ns);
            }
            if let Some(ring) = &mut ring {
                let stages_after = prof.stage_ns_totals();
                let mut stage_ns = [0u64; 3];
                for (i, s) in stage_ns.iter_mut().enumerate() {
                    *s = stages_after[i] - stages_before[i];
                }
                ring.push(SpanRecord {
                    task: t as u32,
                    tile: tasks[t].tile,
                    split_depth: u8::from(splits[t]),
                    start_ns: ns_since(epoch, task_start),
                    dur_ns,
                    pairs: stats.pairs - pairs_before,
                    links: links.len() as u64 - links_before,
                    stage_ns,
                });
            }
        }
        // Final partial window: without this, short runs would lose up
        // to MERGE_PERIOD−1 samples per worker.
        adaptive.flush();
        let end_ns = ns_since(epoch, Instant::now());
        let trace = ring.map(|ring| WorkerTrace {
            worker,
            start_ns,
            end_ns,
            dropped: ring.dropped(),
            spans: ring.into_spans(),
        });
        StreamPart {
            part: (links, stats, prof.finish()),
            sched,
            trace,
        }
    }

    /// The per-pair loop: runs the configured method (or predicate)
    /// over `pairs`, appending links and folding stats/profile into the
    /// caller's accumulators.
    #[allow(clippy::too_many_arguments)]
    fn process_pairs<P: Profiler>(
        &self,
        left: &DatasetArena,
        right: &DatasetArena,
        pairs: &[(u32, u32)],
        prof: &mut P,
        links: &mut Vec<Link>,
        stats: &mut PipelineStats,
        batch: &mut Option<ProgressBatch<'_>>,
        scratch: &mut RelateScratch,
        adaptive: &mut AdaptiveWorker<'_>,
    ) {
        let mut emit = |r: u32, s: u32, relation: Option<TopoRelation>| {
            if let Some(relation) = relation {
                links.push(Link { r, s, relation });
            }
            if let Some(b) = batch.as_mut() {
                b.tick();
            }
        };
        if let Some(p) = self.predicate {
            for &(i, j) in pairs {
                let out = relate_p_adaptive_with(
                    left.object(i as usize),
                    right.object(j as usize),
                    p,
                    prof,
                    scratch,
                    adaptive,
                );
                stats.pairs += 1;
                match out.determination {
                    RelateDetermination::MbrFilter => stats.by_mbr += 1,
                    RelateDetermination::IntermediateFilter => stats.by_intermediate += 1,
                    RelateDetermination::Refinement => stats.refined += 1,
                }
                emit(i, j, out.holds.then_some(p));
            }
            return;
        }
        let Some(run) = self.method.runner() else {
            for &(i, j) in pairs {
                let out = find_relation_adaptive_with(
                    left.object(i as usize),
                    right.object(j as usize),
                    prof,
                    scratch,
                    adaptive,
                );
                stats.record(&out);
                emit(
                    i,
                    j,
                    (out.relation != TopoRelation::Disjoint).then_some(out.relation),
                );
            }
            return;
        };
        // Baselines are not instrumented internally; when profiling, the
        // whole per-pair call is timed and attributed to the stage that
        // decided the pair (no per-MBR-class breakdown).
        for &(i, j) in pairs {
            let t = prof.start();
            let out = run(left.object(i as usize), right.object(j as usize), scratch);
            if P::ENABLED {
                let stage = out.determination.stage();
                prof.stage(stage, t);
                prof.decided(stage);
            }
            stats.record(&out);
            emit(
                i,
                j,
                (out.relation != TopoRelation::Disjoint).then_some(out.relation),
            );
        }
    }
}

/// Concatenates worker links and merges stats/profiles exactly.
fn merge_parts(parts: Vec<WorkerPart>) -> WorkerPart {
    let mut links = Vec::new();
    let mut stats = PipelineStats::default();
    let mut profile: Option<JoinProfile> = None;
    for (mut l, st, prof) in parts {
        links.append(&mut l);
        stats.merge(&st);
        if let Some(p) = prof {
            profile.get_or_insert_with(JoinProfile::new).merge(&p);
        }
    }
    (links, stats, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Dataset;
    use stj_geom::{Polygon, Rect};
    use stj_raster::Grid;

    fn datasets() -> (DatasetArena, DatasetArena) {
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 200.0, 200.0), 9);
        let lefts: Vec<Polygon> = (0..20)
            .map(|i| {
                let x = f64::from(i % 5) * 40.0;
                let y = f64::from(i / 5) * 40.0;
                Polygon::rect(Rect::from_coords(x + 2.0, y + 2.0, x + 30.0, y + 30.0))
            })
            .collect();
        let rights: Vec<Polygon> = (0..20)
            .map(|i| {
                let x = f64::from(i % 5) * 40.0;
                let y = f64::from(i / 5) * 40.0;
                Polygon::rect(Rect::from_coords(x + 10.0, y + 10.0, x + 20.0, y + 20.0))
            })
            .collect();
        (
            Dataset::build("L", lefts, &grid).to_arena(),
            Dataset::build("R", rights, &grid).to_arena(),
        )
    }

    fn sorted_links(mut links: Vec<Link>) -> Vec<Link> {
        links.sort_by_key(|l| (l.r, l.s));
        links
    }

    #[test]
    fn find_relation_mode_discovers_containments() {
        let (l, r) = datasets();
        let out = TopologyJoin::new().run(&l, &r);
        // Each right square is strictly inside its left square.
        assert_eq!(out.links.len(), 20);
        for link in &out.links {
            assert_eq!(link.relation, TopoRelation::Contains);
            assert_eq!(link.r, link.s);
        }
        assert_eq!(out.stats.pairs, out.candidates);
        assert!(out.profile.is_none(), "profiling is opt-in");
    }

    #[test]
    fn all_methods_produce_identical_links() {
        let (l, r) = datasets();
        let base = TopologyJoin::new().method(JoinMethod::St2).run(&l, &r);
        for m in [JoinMethod::PC, JoinMethod::Op2, JoinMethod::April] {
            let out = TopologyJoin::new().method(m).run(&l, &r);
            assert_eq!(
                sorted_links(base.links.clone()),
                sorted_links(out.links.clone()),
                "{m:?}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (l, r) = datasets();
        let seq = TopologyJoin::new().threads(1).run(&l, &r);
        for threads in [2, 4, 8] {
            let par = TopologyJoin::new().threads(threads).run(&l, &r);
            assert_eq!(
                sorted_links(seq.links.clone()),
                sorted_links(par.links.clone())
            );
            assert_eq!(seq.stats, par.stats);
        }
    }

    #[test]
    fn zero_threads_auto_detects() {
        let (l, r) = datasets();
        // threads(0) must behave like an explicit positive thread count
        // (auto-detect), not hang or panic — and produce identical
        // results.
        let auto = TopologyJoin::new().threads(0).run(&l, &r);
        let one = TopologyJoin::new().threads(1).run(&l, &r);
        assert_eq!(
            sorted_links(auto.links.clone()),
            sorted_links(one.links.clone())
        );
        assert_eq!(auto.stats, one.stats);
    }

    #[test]
    fn predicate_mode_matches_find_relation_mode() {
        let (l, r) = datasets();
        let general = TopologyJoin::new().run(&l, &r);
        let contains = TopologyJoin::new()
            .predicate(TopoRelation::Contains)
            .run(&l, &r);
        let expected: Vec<_> = sorted_links(general.links.clone())
            .iter()
            .filter(|lk| lk.relation == TopoRelation::Contains)
            .map(|lk| (lk.r, lk.s))
            .collect();
        let got: Vec<_> = sorted_links(contains.links.clone())
            .iter()
            .map(|lk| (lk.r, lk.s))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn unbounded_run_bounded_is_bit_identical_to_run() {
        let (l, r) = datasets();
        for threads in [1, 4] {
            let plain = TopologyJoin::new().threads(threads).run(&l, &r);
            let bounded =
                TopologyJoin::new()
                    .threads(threads)
                    .run_bounded(&l, &r, JoinBounds::default());
            assert!(!bounded.truncated());
            assert_eq!(
                sorted_links(plain.links.clone()),
                sorted_links(bounded.result.links.clone())
            );
            assert_eq!(plain.stats, bounded.result.stats);
            assert_eq!(plain.candidates, bounded.result.candidates);
        }
    }

    #[test]
    fn link_cap_truncates_deterministically() {
        let (l, r) = datasets();
        let full = TopologyJoin::new().run(&l, &r);
        assert!(full.links.len() >= 10);
        for threads in [1, 4] {
            let capped = TopologyJoin::new().threads(threads).run_bounded(
                &l,
                &r,
                JoinBounds {
                    max_links: Some(5),
                    deadline: None,
                },
            );
            assert!(capped.hit_link_cap);
            assert!(capped.truncated());
            assert_eq!(capped.result.links.len(), 5);
            // Deterministic truncation: the (r, s)-smallest of the found
            // links, each of which must exist in the full join.
            let all = sorted_links(full.links.clone());
            for link in &capped.result.links {
                assert!(all.contains(link), "capped link {link:?} not in full join");
            }
            let mut sorted = capped.result.links.clone();
            sorted.sort_unstable_by_key(|l| (l.r, l.s));
            assert_eq!(sorted, capped.result.links, "cap output is (r, s)-sorted");
        }
    }

    #[test]
    fn generous_limits_do_not_truncate() {
        let (l, r) = datasets();
        let bounded = TopologyJoin::new().run_bounded(
            &l,
            &r,
            JoinBounds {
                max_links: Some(1_000_000),
                deadline: Some(Instant::now() + Duration::from_secs(600)),
            },
        );
        assert!(!bounded.truncated());
        let plain = TopologyJoin::new().run(&l, &r);
        assert_eq!(
            sorted_links(plain.links),
            sorted_links(bounded.result.links.clone())
        );
    }

    #[test]
    fn expired_deadline_stops_early() {
        let (l, r) = datasets();
        let out = TopologyJoin::new().run_bounded(
            &l,
            &r,
            JoinBounds {
                max_links: None,
                deadline: Some(Instant::now() - Duration::from_secs(1)),
            },
        );
        assert!(out.hit_deadline);
        assert!(out.truncated());
        // A pre-expired deadline is checked before any task is claimed.
        assert!(out.result.links.is_empty());
        assert_eq!(out.result.candidates, 0);
    }

    #[test]
    fn empty_datasets_yield_empty_result() {
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 4);
        let empty = Dataset::build("E", vec![], &grid).to_arena();
        let (l, _) = datasets();
        for (left, right) in [(&l, &empty), (&empty, &l)] {
            let out = TopologyJoin::new().run(left, right);
            assert!(out.links.is_empty());
            assert_eq!(out.candidates, 0);
        }
    }

    #[test]
    fn profiled_run_reports_consistent_totals() {
        let (l, r) = datasets();
        for threads in [1, 3] {
            let out = TopologyJoin::new()
                .threads(threads)
                .profiled(true)
                .run(&l, &r);
            let profile = out.profile.expect("profiled run returns a profile");
            assert_eq!(profile.pairs_decided(), out.stats.pairs);
            assert_eq!(
                profile.stage(stj_obs::Stage::Refinement).decided,
                out.stats.refined
            );
            // Every candidate pair passes MBR classification exactly once.
            assert_eq!(
                profile.stage(stj_obs::Stage::MbrClassify).latency.count(),
                out.candidates
            );
            let class_pairs: u64 = profile.classes.iter().map(|c| c.pairs).sum();
            assert_eq!(class_pairs, out.candidates);
        }
    }

    #[test]
    fn streaming_runs_always_report_scheduler_metrics() {
        let (l, r) = datasets();
        for threads in [1, 4] {
            let out = TopologyJoin::new().threads(threads).run(&l, &r);
            let sched = out.sched.expect("streaming runs carry sched metrics");
            let tasks: u64 = sched.workers.iter().map(|w| w.tasks).sum();
            let pairs: u64 = sched.workers.iter().map(|w| w.pairs).sum();
            let links: u64 = sched.workers.iter().map(|w| w.links).sum();
            assert!(tasks > 0);
            assert_eq!(pairs, out.candidates, "every pair attributed to a task");
            assert_eq!(links, out.links.len() as u64);
            for w in &sched.workers {
                assert!(w.busy_ns <= sched.wall_ns + sched.wall_ns / 4);
            }
            assert!(sched.imbalance_ratio() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn traced_run_attributes_all_work_to_spans() {
        let (l, r) = datasets();
        for threads in [1, 3] {
            let out = TopologyJoin::new()
                .threads(threads)
                .traced(true)
                .run(&l, &r);
            assert!(out.profile.is_some(), "tracing implies profiling");
            let trace = out.trace.expect("traced run returns a trace");
            let spans: Vec<_> = trace.workers.iter().flat_map(|w| w.spans.iter()).collect();
            let pairs: u64 = spans.iter().map(|s| s.pairs).sum();
            let links: u64 = spans.iter().map(|s| s.links).sum();
            assert_eq!(pairs, out.candidates);
            assert_eq!(links, out.links.len() as u64);
            for w in &trace.workers {
                assert_eq!(w.dropped, 0);
                for s in &w.spans {
                    assert!(s.start_ns + s.dur_ns <= trace.wall_ns + trace.wall_ns / 4);
                }
            }
            // Spans (plus synthesized idle tails) must account for
            // nearly all of each worker's share of the region.
            for cov in trace.span_coverage() {
                assert!(cov >= 0.5, "span coverage collapsed: {cov}");
            }
        }
        let untraced = TopologyJoin::new().run(&l, &r);
        assert!(untraced.trace.is_none(), "tracing is opt-in");
    }

    #[test]
    fn traced_results_match_untraced() {
        let (l, r) = datasets();
        let plain = TopologyJoin::new().threads(2).run(&l, &r);
        let traced = TopologyJoin::new().threads(2).traced(true).run(&l, &r);
        assert_eq!(
            sorted_links(plain.links.clone()),
            sorted_links(traced.links.clone())
        );
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.candidates, traced.candidates);
    }

    #[test]
    fn single_thread_trace_spans_are_stable_across_reruns() {
        let (l, r) = datasets();
        let run = || {
            let out = TopologyJoin::new().threads(1).traced(true).run(&l, &r);
            let trace = out.trace.expect("trace");
            // Project out the timing fields: task identity, tile,
            // split, pairs, links are deterministic at one thread.
            trace.workers[0]
                .spans
                .iter()
                .map(|s| (s.task, s.tile, s.split_depth, s.pairs, s.links))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "non-timing span fields are bit-stable");
    }

    #[test]
    fn mbr_class_labels_match_discriminants() {
        let labels = mbr_class_labels();
        assert_eq!(labels[MbrRelation::Disjoint as usize], "disjoint");
        assert_eq!(labels[MbrRelation::Overlap as usize], "overlap");
        assert_eq!(labels.len(), MbrRelation::ALL.len());
    }

    #[test]
    fn adaptive_modes_preserve_links_and_relations() {
        let (l, r) = datasets();
        let base = TopologyJoin::new().threads(1).run(&l, &r);
        assert!(base.adaptive.is_none(), "off mode reports no trace");
        for mode in [AdaptiveMode::On, AdaptiveMode::ForceSkip] {
            for threads in [1, 4] {
                let out = TopologyJoin::new()
                    .adaptive(mode)
                    .threads(threads)
                    .run(&l, &r);
                assert_eq!(
                    sorted_links(out.links),
                    sorted_links(base.links.clone()),
                    "{mode:?} × {threads} threads"
                );
                assert_eq!(out.candidates, base.candidates);
                assert_eq!(out.stats.pairs, base.stats.pairs);
                assert_eq!(
                    out.stats.by_mbr, base.stats.by_mbr,
                    "MBR stage is untouched"
                );
                let report = out.adaptive.expect("enabled mode reports a trace");
                assert_eq!(report.mode, mode);
            }
        }
    }

    #[test]
    fn force_skip_moves_all_april_decisions_to_refinement() {
        let (l, r) = datasets();
        let out = TopologyJoin::new()
            .adaptive(AdaptiveMode::ForceSkip)
            .threads(1)
            .run(&l, &r);
        assert_eq!(out.stats.by_intermediate, 0);
        assert_eq!(out.stats.refined, out.stats.pairs - out.stats.by_mbr);
        let report = out.adaptive.expect("force-skip reports a trace");
        assert_eq!(report.skipped_pairs(), out.stats.refined);
    }

    #[test]
    fn adaptive_predicate_mode_matches_static_answers() {
        let (l, r) = datasets();
        for p in [TopoRelation::Contains, TopoRelation::Intersects] {
            let base = TopologyJoin::new().predicate(p).threads(1).run(&l, &r);
            for mode in [AdaptiveMode::On, AdaptiveMode::ForceSkip] {
                let out = TopologyJoin::new()
                    .predicate(p)
                    .adaptive(mode)
                    .threads(4)
                    .run(&l, &r);
                assert_eq!(
                    sorted_links(out.links),
                    sorted_links(base.links.clone()),
                    "{p:?} under {mode:?}"
                );
            }
        }
    }

    #[test]
    fn baseline_methods_ignore_adaptive() {
        let (l, r) = datasets();
        let out = TopologyJoin::new()
            .method(JoinMethod::St2)
            .adaptive(AdaptiveMode::ForceSkip)
            .run(&l, &r);
        assert!(out.adaptive.is_none(), "baselines never consult the model");
    }
}
