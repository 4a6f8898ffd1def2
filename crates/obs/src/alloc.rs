//! The allocation observatory: a counting [`GlobalAlloc`] wrapper that
//! attributes every heap alloc/dealloc/realloc to the innermost active
//! tracing span, giving each stage in the §7c span taxonomy an *exact*
//! heap profile.
//!
//! Why exact matters: wall-clock latencies are excluded from CI byte-diffs
//! because they are non-deterministic, but allocation counts of a seeded
//! pipeline are fully deterministic — same seed, same code, same counts.
//! That lets `PROF_alloc.*` ride the byte-identity gates, and lets the
//! `allocs_per_epoch` steady-state meter ride the fleet snapshot's exact
//! merge algebra byte-identically at any `--jobs` and shard count.
//!
//! # How attribution works
//!
//! [`CountingAlloc`] is installed as the process `#[global_allocator]`
//! (wrapping [`System`]). Its hooks never allocate: each hook bumps
//! `Cell` counters in a const-initialised, `Drop`-free thread-local,
//! indexed by the stage on top of a thread-local span stack. With
//! tracking off (the default) the stack is empty and a hook is one
//! thread-local depth check. `Dispatcher::span` pushes its [`Stage`] at
//! span open and snapshots that stage's slots; `SpanGuard::drop`
//! pops, computes deltas and flushes them into `alloc.*` counters in the
//! registry of the session the span opened in — self (exclusive)
//! accounting, since a nested
//! span's allocations land in the nested stage's slots, not the parent's.
//!
//! Tracking is opted into per
//! [`ObsSession`](crate::session::ObsSession) (the `alloc_tracking`
//! field), and only there: a fleet run's walker sessions ask for
//! attribution while every concurrently installed session that did not,
//! and every thread with no session at all, stays byte-identically
//! unaffected — there is no process-global flag for sessions to race on.
//!
//! The observatory pauses itself around its own bookkeeping (counter-name
//! formatting, registry inserts, emitted span records) via a pause depth,
//! so obs-internal allocations are not attributed to the pipeline.
//! Allocations outside any span (scheduler threads, artifact writers) are
//! deliberately **not** attributed: that would tie the profile to which
//! worker thread ran what, breaking `--jobs` invariance. The stage profile
//! therefore covers exactly the span-covered hot path; [`thread_allocs`]
//! counts every allocation on the thread, spans and pauses regardless.
//!
//! # Steady-state meter
//!
//! `Session::step` reports its epoch index via [`epoch_phase`] before any
//! span opens; epochs past [`STEADY_WARMUP_EPOCHS`] count as steady state.
//! Steady epochs increment the `alloc.steady_epochs` counter and steady
//! span flushes add their alloc deltas to `alloc.steady.allocs`, so
//! `allocs_per_epoch = alloc.steady.allocs / alloc.steady_epochs` is an
//! exact integer ratio that merges across sessions and shards by plain
//! summation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crate::metrics::MetricsRegistry;

/// Epochs a session must serve before its allocations count as steady
/// state. Warmup epochs grow caches, ring buffers and per-session state;
/// the budget gate only cares about the loop after that settles.
pub const STEADY_WARMUP_EPOCHS: u64 = 2;

/// A stage of the §7c span taxonomy: every span the pipeline opens. Spans,
/// allocation frames and the fleet's profile trees all key on it, and one
/// table gives each stage its name, its `span.<name>` duration histogram
/// and its parent. Every custom scheme's estimate is `EstimateCustom`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    EngineUpdate,
    EnginePredict,
    EngineConfidence,
    EngineFuse,
    EstimateGps,
    EstimateWifi,
    EstimateCellular,
    EstimateMotion,
    EstimateFusion,
    EstimateCustom,
    PipelineBuildContext,
    PipelineCollectTraining,
    PipelineRunWalk,
}

const N_STAGES: usize = Stage::PipelineRunWalk as usize + 1;

/// The stage table, in discriminant order: each stage, its `span.<name>`
/// histogram (the tail is its name) and its parent (`None`: the root).
const STAGE_TABLE: [(Stage, &str, Option<Stage>); N_STAGES] = {
    use Stage::*;
    const UPDATE: Option<Stage> = Some(EngineUpdate);
    [
        (EngineUpdate, "span.engine.update", None),
        (EnginePredict, "span.engine.predict", UPDATE),
        (EngineConfidence, "span.engine.confidence", UPDATE),
        (EngineFuse, "span.engine.fuse", UPDATE),
        (EstimateGps, "span.scheme.estimate.gps", UPDATE),
        (EstimateWifi, "span.scheme.estimate.wifi", UPDATE),
        (EstimateCellular, "span.scheme.estimate.cellular", UPDATE),
        (EstimateMotion, "span.scheme.estimate.motion", UPDATE),
        (EstimateFusion, "span.scheme.estimate.fusion", UPDATE),
        (EstimateCustom, "span.scheme.estimate.custom", UPDATE),
        (PipelineBuildContext, "span.pipeline.build_context", None),
        (PipelineCollectTraining, "span.pipeline.collect_training", None),
        (PipelineRunWalk, "span.pipeline.run_walk", None),
    ]
};

impl Stage {
    /// The stage's span name, e.g. `engine.fuse`.
    pub fn name(self) -> &'static str {
        &self.histogram_name()["span.".len()..]
    }

    /// The stage's duration histogram, `span.<name>`.
    pub fn histogram_name(self) -> &'static str {
        STAGE_TABLE[self as usize].1
    }

    /// The stage this one's span opens inside; `None` for a root stage.
    pub fn parent(self) -> Option<Stage> {
        STAGE_TABLE[self as usize].2
    }

    /// The stage named `name`, if the table has one.
    pub fn named(name: &str) -> Option<Stage> {
        STAGE_TABLE.iter().map(|row| row.0).find(|stage| stage.name() == name)
    }
}

/// Span nesting deeper than this stops opening new attribution frames
/// (the taxonomy nests 3 deep; 32 is pure safety margin).
const MAX_DEPTH: usize = 32;

/// Each stage's slots, in order, named like the `alloc.<column>.<stage>`
/// counters they flush to (`bytes` counts allocated bytes, monotone).
pub(crate) const ALLOC_COLUMNS: [&str; 4] = ["allocs", "bytes", "deallocs", "reallocs"];
const SLOTS_PER_STAGE: usize = ALLOC_COLUMNS.len();

struct AllocTls {
    /// Span-stack depth (entries above `MAX_DEPTH` are not stored).
    depth: Cell<usize>,
    /// Every allocation this thread has made, attributed or not.
    allocs: Cell<u64>,
    /// Self-pause depth: while > 0 the hooks skip attribution so the
    /// observatory's own allocations stay out of the profile.
    pause: Cell<usize>,
    /// Whether the current epoch is past the warmup window.
    steady: Cell<bool>,
    /// Stages of the open spans, innermost last.
    stack: [Cell<u8>; MAX_DEPTH],
    /// Per-stage counters: `[stage * 4 + {allocs,bytes,deallocs,reallocs}]`.
    slots: [Cell<u64>; N_STAGES * SLOTS_PER_STAGE],
}

// Const-initialised and Drop-free: accessing it from the allocator hooks
// never allocates and never recurses, and `try_with` degrades to a no-op
// during thread teardown.
thread_local! {
    static TLS: AllocTls = const {
        AllocTls {
            depth: Cell::new(0),
            allocs: Cell::new(0),
            pause: Cell::new(0),
            steady: Cell::new(false),
            stack: [const { Cell::new(0) }; MAX_DEPTH],
            slots: [const { Cell::new(0) }; N_STAGES * SLOTS_PER_STAGE],
        }
    };
}

/// RAII self-pause: while alive, this thread's heap ops are not
/// attributed. The observatory wraps its own bookkeeping in one of these.
pub struct PauseGuard {
    _priv: (),
}

/// Pauses attribution on the current thread until the guard drops.
pub fn pause() -> PauseGuard {
    let _ = TLS.try_with(|t| t.pause.set(t.pause.get() + 1));
    PauseGuard { _priv: () }
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        let _ = TLS.try_with(|t| t.pause.set(t.pause.get().saturating_sub(1)));
    }
}

/// An open attribution frame: which stage to charge and the stage's slot
/// values at open, so close can flush exact deltas.
pub struct SpanToken {
    stage: Stage,
    base: [u64; SLOTS_PER_STAGE],
}

fn read_stage(t: &AllocTls, stage: Stage) -> [u64; SLOTS_PER_STAGE] {
    std::array::from_fn(|i| t.slots[stage as usize * SLOTS_PER_STAGE + i].get())
}

/// Opens an attribution frame for `stage` on the current thread. Returns
/// `None` when the stack is full or thread-local state is unavailable.
/// Callers (only `Dispatcher::span`) gate on the session's opt-in.
pub fn span_open(stage: Stage) -> Option<SpanToken> {
    TLS.try_with(|t| {
        let depth = t.depth.get();
        if depth >= MAX_DEPTH {
            return None;
        }
        t.stack[depth].set(stage as u8);
        t.depth.set(depth + 1);
        Some(SpanToken { stage, base: read_stage(t, stage) })
    })
    .ok()
    .flatten()
}

/// Closes an attribution frame: pops the stack and flushes this frame's
/// exact deltas into `alloc.*` counters in `metrics` (the registry of the
/// session the span opened in). Callers hold a [`pause`] guard across the
/// call.
pub fn span_close(token: SpanToken, metrics: &MetricsRegistry) {
    let flush = TLS.try_with(|t| {
        let depth = t.depth.get();
        t.depth.set(depth.saturating_sub(1));
        let now = read_stage(t, token.stage);
        let delta: [u64; SLOTS_PER_STAGE] = std::array::from_fn(|i| now[i] - token.base[i]);
        (delta, t.steady.get())
    });
    let Ok((delta, steady)) = flush else { return };
    if delta == [0; SLOTS_PER_STAGE] {
        return;
    }
    for (column, n) in ALLOC_COLUMNS.into_iter().zip(delta).filter(|&(_, n)| n > 0) {
        metrics.counter(&format!("alloc.{column}.{}", token.stage.name())).add(n);
    }
    if steady && delta[0] > 0 {
        metrics.counter("alloc.steady.allocs").add(delta[0]);
    }
}

/// Reports the current epoch index at the top of `Session::step`, before
/// any span opens: sets the thread's steady flag and counts steady epochs
/// into `alloc.steady_epochs`. A no-op unless the installed session opts
/// into tracking.
pub fn epoch_phase(epoch_index: u64) {
    let session = crate::session::current();
    if !session.alloc_tracking {
        return;
    }
    let steady = epoch_index >= STEADY_WARMUP_EPOCHS;
    let _ = TLS.try_with(|t| t.steady.set(steady));
    if steady {
        let _pause = pause();
        session.metrics.counter("alloc.steady_epochs").inc();
    }
}

/// Every heap allocation the current thread has made, inside spans or
/// not, paused or not: its rise across a call is what the call allocated.
pub fn thread_allocs() -> u64 {
    TLS.try_with(|t| t.allocs.get()).unwrap_or(0)
}

#[derive(Clone, Copy)]
enum Op {
    Alloc,
    Dealloc,
    Realloc,
}

#[inline]
fn record(op: Op, bytes: usize) {
    // No global gate here: the span stack only ever has frames when an
    // opted-in span opened one, so after the thread's own count `depth ==
    // 0` (a const-TLS load and a branch) is both the correctness check
    // and the fast path.
    let _ = TLS.try_with(|t| {
        if let Op::Alloc = op {
            t.allocs.set(t.allocs.get() + 1);
        }
        let depth = t.depth.get();
        if depth == 0 || t.pause.get() > 0 {
            return;
        }
        // `depth` never exceeds MAX_DEPTH (span_open stops pushing there),
        // so the innermost stored frame is always `depth - 1`.
        let stage = t.stack[depth - 1].get() as usize;
        let s = stage * SLOTS_PER_STAGE;
        match op {
            Op::Alloc => {
                t.slots[s].set(t.slots[s].get() + 1);
                t.slots[s + 1].set(t.slots[s + 1].get() + bytes as u64);
            }
            Op::Dealloc => {
                t.slots[s + 2].set(t.slots[s + 2].get() + 1);
            }
            Op::Realloc => {
                t.slots[s + 3].set(t.slots[s + 3].get() + 1);
                t.slots[s + 1].set(t.slots[s + 1].get() + bytes as u64);
            }
        }
    });
}

/// The counting allocator: forwards every operation to [`System`] and,
/// when tracking is on, charges it to the innermost open span on the
/// current thread. The hooks themselves never allocate.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's exact
// layout/pointer arguments; the bookkeeping before the forward only
// touches `Cell`s in a const-initialised thread-local and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(Op::Alloc, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(Op::Alloc, layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(Op::Dealloc, 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(Op::Realloc, new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Every binary linking `uniloc-obs` gets the counting allocator; with
/// tracking off (the default) the cost is one thread-local depth check
/// per heap operation.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ObsSession;
    use std::sync::Arc;

    fn counter(capture: &crate::session::SessionCapture, name: &str) -> u64 {
        capture
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    #[test]
    fn allocations_inside_a_span_are_attributed_to_its_stage() {
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        let session = Arc::new(obs);
        let _guard = crate::session::install(Arc::clone(&session));
        {
            let _span = crate::trace::global().span(Stage::EngineUpdate);
            let v: Vec<u64> = Vec::with_capacity(64);
            std::hint::black_box(&v);
        }
        let capture = session.capture();
        assert!(counter(&capture, "alloc.allocs.engine.update") >= 1);
        assert!(counter(&capture, "alloc.bytes.engine.update") >= 64 * 8);
    }

    #[test]
    fn nested_spans_get_self_accounting_not_inclusive() {
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        let session = Arc::new(obs);
        let _guard = crate::session::install(Arc::clone(&session));
        {
            let _outer = crate::trace::global().span(Stage::EngineUpdate);
            {
                let _inner = crate::trace::global().span(Stage::EstimateWifi);
                let v: Vec<u64> = Vec::with_capacity(1024);
                std::hint::black_box(&v);
            }
        }
        let capture = session.capture();
        // The inner span's big allocation is charged to the inner stage;
        // the outer stage sees at most obs-free incidental allocations
        // (none in this test body).
        assert!(counter(&capture, "alloc.bytes.scheme.estimate.wifi") >= 1024 * 8);
        assert!(counter(&capture, "alloc.bytes.engine.update") < 1024 * 8);
    }

    #[test]
    fn tracking_off_records_nothing() {
        // An isolated session does not opt in; nothing is attributed even
        // though spans are timed.
        let session = Arc::new(ObsSession::isolated());
        let _guard = crate::session::install(Arc::clone(&session));
        {
            let _span = crate::trace::global().span(Stage::EnginePredict);
            let v: Vec<u64> = Vec::with_capacity(64);
            std::hint::black_box(&v);
        }
        let capture = session.capture();
        assert_eq!(counter(&capture, "alloc.allocs.engine.predict"), 0);
    }

    #[test]
    fn pause_guard_excludes_observatory_allocations() {
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        let session = Arc::new(obs);
        let _guard = crate::session::install(Arc::clone(&session));
        {
            let _span = crate::trace::global().span(Stage::EngineFuse);
            {
                let _pause = pause();
                let v: Vec<u64> = Vec::with_capacity(4096);
                std::hint::black_box(&v);
            }
        }
        let capture = session.capture();
        assert!(counter(&capture, "alloc.bytes.engine.fuse") < 4096 * 8);
    }

    #[test]
    fn thread_allocs_count_paused_and_spanless_allocations() {
        let before = thread_allocs();
        let outside: Vec<u64> = Vec::with_capacity(8);
        {
            let _pause = pause();
            let paused: Vec<u64> = Vec::with_capacity(8);
            std::hint::black_box(&paused);
        }
        std::hint::black_box(&outside);
        assert_eq!(thread_allocs() - before, 2);
    }

    #[test]
    fn stage_names_round_trip_and_unknown_names_match_none() {
        for (i, &(stage, histogram, _)) in STAGE_TABLE.iter().enumerate() {
            assert_eq!(stage as usize, i, "the table is in discriminant order");
            assert_eq!(Stage::named(stage.name()), Some(stage));
            assert_eq!(histogram, format!("span.{}", stage.name()));
        }
        // There is no catch-all stage: per-id custom names and the old
        // `other` bucket are outside the table.
        assert_eq!(Stage::named("scheme.estimate.custom3"), None);
        assert_eq!(Stage::named("other"), None);
        assert_eq!(Stage::named(""), None);
    }

    #[test]
    fn span_parents_follow_the_stage_table() {
        assert_eq!(Stage::EngineUpdate.parent(), None);
        assert_eq!(Stage::EngineFuse.parent(), Some(Stage::EngineUpdate));
        assert_eq!(Stage::EstimateWifi.parent(), Some(Stage::EngineUpdate));
        // Every custom scheme's estimate opens inside the update scope too.
        assert_eq!(Stage::EstimateCustom.parent(), Some(Stage::EngineUpdate));
        assert_eq!(Stage::PipelineRunWalk.parent(), None);
        // Every parent is itself a root stage.
        for &(stage, _, parent) in &STAGE_TABLE {
            assert_eq!(stage.parent(), parent);
            if let Some(parent) = parent {
                assert_eq!(parent.parent(), None, "{} nests too deep", stage.name());
            }
        }
    }

    #[test]
    fn steady_meter_counts_post_warmup_epochs_only() {
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        let session = Arc::new(obs);
        let _guard = crate::session::install(Arc::clone(&session));
        for epoch in 0..5u64 {
            epoch_phase(epoch);
            let _span = crate::trace::global().span(Stage::EngineUpdate);
            let v: Vec<u64> = Vec::with_capacity(16);
            std::hint::black_box(&v);
        }
        // Reset the steady flag for whatever runs next on this thread.
        let _ = TLS.try_with(|t| t.steady.set(false));
        let capture = session.capture();
        assert_eq!(counter(&capture, "alloc.steady_epochs"), 3);
        let steady = counter(&capture, "alloc.steady.allocs");
        let total = counter(&capture, "alloc.allocs.engine.update");
        assert!(steady >= 3, "steady allocs should cover the 3 steady epochs");
        assert!(steady < total, "warmup allocs must not count as steady");
    }

    #[test]
    fn same_workload_has_identical_counts_across_runs() {
        let run = || {
            let mut obs = ObsSession::isolated();
            obs.alloc_tracking = true;
            let session = Arc::new(obs);
            let _guard = crate::session::install(Arc::clone(&session));
            for epoch in 0..4u64 {
                epoch_phase(epoch);
                let _span = crate::trace::global().span(Stage::EngineConfidence);
                let mut v: Vec<u64> = Vec::new();
                for i in 0..33 {
                    v.push(i);
                }
                std::hint::black_box(&v);
            }
            let _ = TLS.try_with(|t| t.steady.set(false));
            let mut counters = session.capture().metrics.counters;
            counters.retain(|(n, _)| n.starts_with("alloc."));
            counters
        };
        assert_eq!(run(), run());
    }
}
