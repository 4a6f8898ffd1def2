//! Deterministic parallel sweep engine.
//!
//! Chaos sweeps and benchmark regenerators run many independent
//! `(scenario, seed, fault_plan)` walks. Each walk is a pure function of
//! its inputs (the observability sidecar never feeds back into the
//! pipeline — see `DESIGN.md` §8), so the walks can execute on any number
//! of worker threads as long as results are *merged in canonical job
//! order*, never arrival order. This module provides that engine:
//!
//! * [`run_ordered`] — execute a slice of jobs on `jobs` worker threads,
//!   returning results indexed exactly like the input. `jobs <= 1` runs
//!   inline on the caller's thread with no pool at all, preserving the
//!   historical single-threaded code path bit for bit.
//! * [`run_observed`] — same, but each job runs under an isolated
//!   [`ObsSession`] whose metrics/calibration/flight captures merge into
//!   one [`SessionCapture`] in ascending job order. Sessions are
//!   installed at *every* job count (including 1) so the merged sidecar
//!   is invariant in the worker count by construction.
//! * [`run_ordered_mut`] — the one scoped worker pool: jobs own and mutate
//!   their items; [`run_ordered`] and [`run_supervised_mut`] run on it.
//!
//! # Determinism contract
//!
//! For any `items` and pure `f`, `run_ordered(items, n, f)` returns the
//! same `Vec` for every `n >= 1`. Workers claim indices from a shared
//! atomic counter — the *assignment* of jobs to threads varies run to
//! run, but no output depends on it. `tests/parallel_differential.rs`
//! checks the end-to-end corollary: chaos artifacts are byte-identical
//! across `--jobs 1/2/4/8`.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use uniloc_obs::session::{self, ObsSession, SessionCapture};

/// A supervised job that panicked: the panic was caught at the pool
/// boundary ([`run_supervised_mut`]) and converted into this typed
/// failure instead of unwinding through the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the job in the batch (canonical input order).
    pub job: usize,
    /// The caller-attached lane (the fleet scheduler passes the session's
    /// lane so the failure names the walker, not just the batch slot).
    pub lane: Option<u64>,
    /// The caller's phase label (e.g. `fleet.step`).
    pub phase: &'static str,
    /// The panic payload, when it was a string (the common case).
    pub panic: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel job {} (phase {}", self.job, self.phase)?;
        if let Some(lane) = self.lane {
            write!(f, ", lane {lane}")?;
        }
        write!(f, ") panicked: {}", self.panic)
    }
}

impl std::error::Error for JobFailure {}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Execute `f(index, item)` for every item, on up to `jobs` worker
/// threads, returning results in input order.
///
/// `jobs` is clamped to `[1, items.len()]`. With one effective worker the
/// loop runs inline on the caller's thread — no threads are spawned, so
/// `--jobs 1` is exactly the historical sequential path.
pub fn run_ordered<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_ordered_mut(items.iter().collect(), jobs, |i, item: &mut &I| f(i, item)).1
}

/// Like [`run_ordered`], but the jobs *own and mutate* their items: the
/// batch is moved in, every item is handed to exactly one worker as
/// `&mut I`, and the (possibly mutated) items come back in input order
/// alongside the per-item results.
///
/// This is the fleet scheduler's stepping primitive: a
/// [`crate::fleet::FleetScheduler`] round moves the due sessions out of
/// their slots, steps each one on some worker, and puts the advanced
/// state back. The same determinism contract as [`run_ordered`] applies —
/// items and results depend only on the input order, never on which
/// thread ran what — and `jobs <= 1` runs inline on the caller's thread
/// with no pool at all.
pub fn run_ordered_mut<I, T, F>(items: Vec<I>, jobs: usize, f: F) -> (Vec<I>, Vec<T>)
where
    I: Send,
    T: Send,
    F: Fn(usize, &mut I) -> T + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        let mut items = items;
        let results =
            items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect();
        return (items, results);
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<I>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                // Each index is claimed exactly once, so the item is taken
                // and returned by the same worker with no contention.
                let mut item = slots[idx]
                    .lock()
                    .expect("parallel item lock poisoned")
                    .take()
                    .expect("parallel item claimed twice");
                let out = f(idx, &mut item);
                *slots[idx].lock().expect("parallel item lock poisoned") = Some(item);
                results.lock().expect("parallel result lock poisoned")[idx] = Some(out);
            });
        }
    });
    let items = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("parallel item lock poisoned")
                .unwrap_or_else(|| panic!("parallel job {i} (phase run_ordered_mut) lost its item"))
        })
        .collect();
    let results = results
        .into_inner()
        .expect("parallel result lock poisoned")
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                panic!("parallel job {i} (phase run_ordered_mut) produced no result")
            })
        })
        .collect();
    (items, results)
}

/// Like [`run_ordered_mut`], but *supervised*: each job runs under
/// [`catch_unwind`], so a panicking job surrenders its (possibly
/// half-mutated) item back to its slot and yields a typed [`JobFailure`]
/// naming the job, its lane (via `lane_of`) and the caller's `phase` —
/// instead of unwinding through the pool and killing every sibling job.
///
/// This is the fleet scheduler's crash-safety boundary: one poisoned
/// session's panic becomes a per-lane `Err` the scheduler can retry or
/// quarantine, while the rest of the batch completes normally. The same
/// determinism contract as [`run_ordered_mut`] applies — which jobs
/// panic, and everything about the survivors, is a pure function of the
/// input order.
pub fn run_supervised_mut<I, T, F, L>(
    items: Vec<I>,
    jobs: usize,
    phase: &'static str,
    lane_of: L,
    f: F,
) -> (Vec<I>, Vec<Result<T, JobFailure>>)
where
    I: Send,
    T: Send,
    L: Fn(&I) -> Option<u64> + Sync,
    F: Fn(usize, &mut I) -> T + Sync,
{
    let supervised = |idx: usize, item: &mut I| -> Result<T, JobFailure> {
        // The item is only observably half-mutated on the Err path, where
        // the caller's contract is "retry or quarantine", never "use the
        // result" — hence AssertUnwindSafe.
        catch_unwind(AssertUnwindSafe(|| f(idx, item))).map_err(|payload| JobFailure {
            job: idx,
            lane: lane_of(item),
            phase,
            panic: panic_text(payload),
        })
    };
    run_ordered_mut(items, jobs, supervised)
}

/// Like [`run_ordered`], but each job runs under an isolated
/// [`ObsSession`]: its metrics, calibration feed and flight-recorder
/// output land in per-job private state instead of the process session,
/// then merge into one [`SessionCapture`] in ascending job order
/// ([`SessionCapture::merge`]).
///
/// The session is installed for every job at every worker count, so the
/// merged sidecar is a pure function of the job list — independent of
/// `jobs` — by construction.
pub fn run_observed<I, T, F>(items: &[I], jobs: usize, f: F) -> (Vec<T>, SessionCapture)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let wrapped = run_ordered(items, jobs, |idx, item| {
        let sess = Arc::new(ObsSession::isolated());
        let guard = session::install(Arc::clone(&sess));
        let out = f(idx, item);
        drop(guard);
        let cap = sess.capture();
        (out, cap)
    });
    let mut results = Vec::with_capacity(wrapped.len());
    let mut merged = SessionCapture::default();
    for (out, cap) in wrapped {
        merged
            .merge(&cap)
            .unwrap_or_else(|e| panic!("observability merge failed: {e}"));
        results.push(out);
    }
    (results, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_ordered_matches_sequential_for_all_worker_counts() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [0usize, 1, 2, 3, 4, 8, 64] {
            let got = run_ordered(&items, jobs, |_, x| x * x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_ordered(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(run_ordered(&[9u32], 4, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn run_ordered_executes_each_job_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        let got = run_ordered(&items, 8, |i, item| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, *item);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(got, items);
    }

    #[test]
    fn run_ordered_mut_returns_mutated_items_in_order() {
        for jobs in [0usize, 1, 2, 4, 8] {
            let items: Vec<u64> = (0..23).collect();
            let (items, results) = run_ordered_mut(items, jobs, |i, x| {
                *x += 100;
                i as u64 + *x
            });
            let expect_items: Vec<u64> = (100..123).collect();
            let expect_results: Vec<u64> = (0..23).map(|i| 2 * i + 100).collect();
            assert_eq!(items, expect_items, "jobs={jobs}");
            assert_eq!(results, expect_results, "jobs={jobs}");
        }
    }

    #[test]
    fn run_ordered_mut_handles_empty_and_single_item() {
        let (items, results) = run_ordered_mut(Vec::<u32>::new(), 4, |_, x| *x);
        assert!(items.is_empty() && results.is_empty());
        let (items, results) = run_ordered_mut(vec![7u32], 4, |_, x| {
            *x += 1;
            *x
        });
        assert_eq!((items, results), (vec![8], vec![8]));
    }

    #[test]
    fn run_observed_merges_counters_in_job_order() {
        let items: Vec<u64> = (0..12).collect();
        let run = |jobs: usize| {
            run_observed(&items, jobs, |i, x| {
                let m = uniloc_obs::global_metrics();
                m.counter("par.test.jobs").inc();
                m.gauge("par.test.last").set(i as f64);
                x + 1
            })
        };
        let (seq, obs1) = run(1);
        let (par, obs4) = run(4);
        assert_eq!(seq, par);
        assert_eq!(obs1.metrics, obs4.metrics);
        let jobs_count = obs1
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == "par.test.jobs")
            .map(|(_, v)| *v);
        assert_eq!(jobs_count, Some(12));
        // Gauges take the latest job's value in canonical order.
        let last = obs1
            .metrics
            .gauges
            .iter()
            .find(|(n, _)| n == "par.test.last")
            .map(|(_, v)| *v);
        assert_eq!(last, Some(11.0));
    }

    #[test]
    fn run_observed_keeps_worker_metrics_out_of_process_registry() {
        let before = session::process()
            .metrics
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "par.test.leak")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let items: Vec<u64> = (0..6).collect();
        let (_, obs) = run_observed(&items, 3, |_, _| {
            uniloc_obs::global_metrics().counter("par.test.leak").inc();
        });
        let after = session::process()
            .metrics
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "par.test.leak")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(before, after, "worker counters must not leak into process registry");
        let merged = obs
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == "par.test.leak")
            .map(|(_, v)| *v);
        assert_eq!(merged, Some(6));
    }

    #[test]
    fn run_supervised_mut_converts_panics_into_typed_failures() {
        for jobs in [1usize, 2, 4] {
            let items: Vec<u64> = (0..12).collect();
            let (items, results) =
                run_supervised_mut(items, jobs, "test.phase", |x| Some(*x + 100), |_, x| {
                    if *x % 5 == 3 {
                        panic!("injected failure on {x}");
                    }
                    *x += 1;
                    *x
                });
            // Panicking jobs keep their (unmutated) items; survivors mutate.
            let expect_items: Vec<u64> =
                (0..12).map(|x| if x % 5 == 3 { x } else { x + 1 }).collect();
            assert_eq!(items, expect_items, "jobs={jobs}");
            for (i, r) in results.iter().enumerate() {
                if i as u64 % 5 == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.job, i);
                    assert_eq!(err.lane, Some(i as u64 + 100));
                    assert_eq!(err.phase, "test.phase");
                    assert!(err.panic.contains("injected failure"), "{}", err.panic);
                } else {
                    assert_eq!(*r, Ok(i as u64 + 1), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn pool_errors_name_job_lane_and_phase() {
        let e =
            JobFailure { job: 7, lane: Some(42), phase: "fleet.step", panic: "boom".to_owned() };
        assert_eq!(e.to_string(), "parallel job 7 (phase fleet.step, lane 42) panicked: boom");
        let f = JobFailure {
            job: 3,
            lane: None,
            phase: "run_ordered_mut",
            panic: "boom".to_owned(),
        };
        assert_eq!(f.to_string(), "parallel job 3 (phase run_ordered_mut) panicked: boom");
    }
}
