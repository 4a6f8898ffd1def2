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
//! thread-local depth check. `Dispatcher::span` pushes an interned stage
//! id at span open and snapshots that stage's slots; `SpanGuard::drop`
//! pops, computes deltas and flushes them into `alloc.*` counters in the
//! active metrics registry — self (exclusive) accounting, since a nested
//! span's allocations land in the nested stage's slots, not the parent's.
//!
//! Tracking is opted into per
//! [`ObsSession`](crate::session::ObsSession) (the `alloc_tracking`
//! field), and only there: a fleet run's walker sessions ask for
//! attribution while every concurrently installed session that did not,
//! and every thread with no session at all, stays byte-identically
//! unaffected — there is no process-global flag for sessions to race on.
//!
//! The observatory pauses itself around its own bookkeeping (the span
//! guard's name buffer, counter-name formatting, registry inserts) via a
//! pause depth, so obs-internal allocations are not attributed to the
//! pipeline. Allocations outside any span (scheduler threads, artifact
//! writers) are deliberately **not** counted: attributing them would tie
//! the profile to which worker thread ran what, breaking `--jobs`
//! invariance. The meter therefore covers exactly the span-covered hot
//! path — the part the zero-alloc work targets.
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

use crate::metrics::global_metrics;

/// Epochs a session must serve before its allocations count as steady
/// state. Warmup epochs grow caches, ring buffers and per-session state;
/// the budget gate only cares about the loop after that settles.
pub const STEADY_WARMUP_EPOCHS: u64 = 2;

/// The stage table: every span name in the §7c taxonomy that the
/// per-epoch hot path opens, with its parent stage (`""` is the root),
/// plus a terminal `"other"` bucket for names outside the table. Span
/// opens intern against it (a linear scan per open, never per
/// allocation), and the fleet profilers hang their stage trees off its
/// parents through [`span_parent`].
pub const STAGES: &[(&str, &str)] = &[
    ("engine.update", ""),
    ("engine.predict", "engine.update"),
    ("engine.confidence", "engine.update"),
    ("engine.fuse", "engine.update"),
    ("scheme.estimate.wifi", "engine.update"),
    ("scheme.estimate.cellular", "engine.update"),
    ("scheme.estimate.gps", "engine.update"),
    ("scheme.estimate.motion", "engine.update"),
    ("scheme.estimate.fusion", "engine.update"),
    ("pipeline.build_context", ""),
    ("pipeline.collect_training", ""),
    ("pipeline.run_walk", ""),
    ("other", ""),
];

/// The parent of `name` in the stage taxonomy (`""` is the root). Every
/// per-scheme estimate span (`scheme.estimate.<id>`, custom schemes
/// included) opens inside the engine's update scope; other names outside
/// [`STAGES`] hang off the root.
pub fn span_parent(name: &str) -> &'static str {
    if name.starts_with("scheme.estimate.") {
        return "engine.update";
    }
    STAGES
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, p)| p)
}

const N_STAGES: usize = STAGES.len();
const OTHER: u8 = (N_STAGES - 1) as u8;

/// Span nesting deeper than this stops opening new attribution frames
/// (the taxonomy nests 3 deep; 32 is pure safety margin).
const MAX_DEPTH: usize = 32;

/// Slots per stage: allocs, bytes (allocated, monotone), deallocs,
/// reallocs.
const SLOTS_PER_STAGE: usize = 4;

struct AllocTls {
    /// Span-stack depth (entries above `MAX_DEPTH` are not stored).
    depth: Cell<usize>,
    /// Self-pause depth: while > 0 the hooks skip attribution so the
    /// observatory's own allocations stay out of the profile.
    pause: Cell<usize>,
    /// Whether the current epoch is past the warmup window.
    steady: Cell<bool>,
    /// Interned stage ids of the open spans, innermost last.
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
    stage: u8,
    base: [u64; SLOTS_PER_STAGE],
}

fn intern(name: &str) -> u8 {
    STAGES
        .iter()
        .position(|(s, _)| *s == name)
        .map(|i| i as u8)
        .unwrap_or(OTHER)
}

fn read_stage(t: &AllocTls, stage: u8) -> [u64; SLOTS_PER_STAGE] {
    let s = stage as usize * SLOTS_PER_STAGE;
    [
        t.slots[s].get(),
        t.slots[s + 1].get(),
        t.slots[s + 2].get(),
        t.slots[s + 3].get(),
    ]
}

/// Opens an attribution frame for `name` on the current thread. Returns
/// `None` when the stack is full or thread-local state is unavailable.
/// Callers (only `Dispatcher::span`) gate on the session's opt-in and
/// hold a [`pause`] guard across the call.
pub fn span_open(name: &str) -> Option<SpanToken> {
    TLS.try_with(|t| {
        let depth = t.depth.get();
        if depth >= MAX_DEPTH {
            return None;
        }
        let stage = intern(name);
        t.stack[depth].set(stage);
        t.depth.set(depth + 1);
        Some(SpanToken { stage, base: read_stage(t, stage) })
    })
    .ok()
    .flatten()
}

/// Closes an attribution frame: pops the stack and flushes this frame's
/// exact deltas into `alloc.*` counters in the active metrics registry
/// (which is the installed session's registry inside a fleet worker).
/// Callers hold a [`pause`] guard across the call.
pub fn span_close(token: SpanToken) {
    let flush = TLS.try_with(|t| {
        let depth = t.depth.get();
        t.depth.set(depth.saturating_sub(1));
        let now = read_stage(t, token.stage);
        let delta = [
            now[0] - token.base[0],
            now[1] - token.base[1],
            now[2] - token.base[2],
            now[3] - token.base[3],
        ];
        (delta, t.steady.get())
    });
    let Ok((delta, steady)) = flush else { return };
    if delta == [0; SLOTS_PER_STAGE] {
        return;
    }
    let (stage, _) = STAGES[token.stage as usize];
    let m = global_metrics();
    let [allocs, bytes, deallocs, reallocs] = delta;
    if allocs > 0 {
        m.counter(&format!("alloc.allocs.{stage}")).add(allocs);
        if steady {
            m.counter("alloc.steady.allocs").add(allocs);
        }
    }
    if bytes > 0 {
        m.counter(&format!("alloc.bytes.{stage}")).add(bytes);
    }
    if deallocs > 0 {
        m.counter(&format!("alloc.deallocs.{stage}")).add(deallocs);
    }
    if reallocs > 0 {
        m.counter(&format!("alloc.reallocs.{stage}")).add(reallocs);
    }
}

/// Reports the current epoch index at the top of `Session::step`, before
/// any span opens: sets the thread's steady flag and counts steady epochs
/// into `alloc.steady_epochs`. A no-op unless the installed session opts
/// into tracking.
pub fn epoch_phase(epoch_index: u64) {
    if !crate::session::current().is_some_and(|s| s.alloc_tracking) {
        return;
    }
    let steady = epoch_index >= STEADY_WARMUP_EPOCHS;
    let _ = TLS.try_with(|t| t.steady.set(steady));
    if steady {
        let _pause = pause();
        global_metrics().counter("alloc.steady_epochs").inc();
    }
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
    // opted-in span opened one, so `depth == 0` (a const-TLS load and a
    // branch) is both the correctness check and the fast path.
    let _ = TLS.try_with(|t| {
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
            let _span = crate::trace::global().span("engine.update");
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
            let _outer = crate::trace::global().span("engine.update");
            {
                let _inner = crate::trace::global().span("scheme.estimate.wifi");
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
            let _span = crate::trace::global().span("engine.predict");
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
            let _span = crate::trace::global().span("engine.fuse");
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
    fn unknown_span_names_fall_into_other() {
        assert_eq!(intern("pipeline.collect_training"), 10);
        assert_eq!(intern("no.such.stage"), OTHER);
        assert_eq!(STAGES[OTHER as usize], ("other", ""));
    }

    #[test]
    fn span_parents_follow_the_stage_table() {
        assert_eq!(span_parent("engine.update"), "");
        assert_eq!(span_parent("engine.fuse"), "engine.update");
        assert_eq!(span_parent("scheme.estimate.wifi"), "engine.update");
        // The prefix rule covers custom schemes outside the table.
        assert_eq!(span_parent("scheme.estimate.custom"), "engine.update");
        assert_eq!(span_parent("pipeline.run_walk"), "");
        assert_eq!(span_parent("other"), "");
        assert_eq!(span_parent("no.such.stage"), "");
        // Every parent is itself a root-level stage of the table.
        for (_, parent) in STAGES {
            assert!(
                parent.is_empty() || span_parent(parent).is_empty(),
                "{parent}"
            );
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
            let _span = crate::trace::global().span("engine.update");
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
                let _span = crate::trace::global().span("engine.confidence");
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
