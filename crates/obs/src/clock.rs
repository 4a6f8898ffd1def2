//! Clock abstraction for the observability layer.
//!
//! Timing data must never feed back into pipeline computation — the golden
//! traces pin the pipeline's output byte-for-byte, so wall-clock values
//! live only in the metrics/trace sidecar. Two implementations:
//!
//! * [`MonotonicClock`] — wall time from [`std::time::Instant`], anchored
//!   at construction. The default for real timing measurements.
//! * [`VirtualClock`] — a deterministic clock keyed to simulation epochs.
//!   The pipeline advances it to `epoch_time * 1e9` nanoseconds each
//!   epoch, so exported span timestamps are a pure function of the seeds
//!   and two runs produce byte-identical trace files.
//!
//! Both are monotone: [`VirtualClock`] enforces it with a saturating
//! `fetch_max`, so a stale writer can never make time go backwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A source of monotone nanosecond timestamps.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch. Must be monotone
    /// non-decreasing across calls.
    fn now_ns(&self) -> u64;

    /// Downcast hook: `Some` when this clock is a [`VirtualClock`] that
    /// the pipeline should drive from simulation time.
    fn as_virtual(&self) -> Option<&VirtualClock> {
        None
    }
}

/// Wall-clock time relative to an anchor taken at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    anchor: Instant,
}

impl MonotonicClock {
    /// Creates a clock anchored at "now".
    pub fn new() -> Self {
        MonotonicClock { anchor: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturate instead of wrapping: a process would need ~584 years of
        // uptime to overflow u64 nanoseconds.
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic clock driven by the simulation.
///
/// The pipeline calls [`VirtualClock::set_seconds`] with each epoch's
/// simulation time; spans then measure zero-width intervals within an
/// epoch and exact epoch spacings across epochs — deterministic content
/// for golden-comparable trace files.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        VirtualClock { now_ns: AtomicU64::new(0) }
    }

    /// Moves the clock to `t_ns`, saturating to monotone: a target in the
    /// past leaves the clock untouched.
    pub fn set_ns(&self, t_ns: u64) {
        self.now_ns.fetch_max(t_ns, Ordering::Relaxed);
    }

    /// Moves the clock to simulation time `t` seconds (negative or
    /// non-finite values clamp to zero).
    pub fn set_seconds(&self, t: f64) {
        let t_ns = if t.is_finite() && t > 0.0 { (t * 1e9) as u64 } else { 0 };
        self.set_ns(t_ns);
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    fn as_virtual(&self) -> Option<&VirtualClock> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert!(c.as_virtual().is_none());
    }

    #[test]
    fn virtual_clock_advances_and_saturates() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.set_ns(100);
        assert_eq!(c.now_ns(), 100);
        // Setting the past is a no-op, not a rewind.
        c.set_ns(50);
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    fn virtual_clock_from_seconds() {
        let c = VirtualClock::new();
        c.set_seconds(1.5);
        assert_eq!(c.now_ns(), 1_500_000_000);
        c.set_seconds(-2.0);
        assert_eq!(c.now_ns(), 1_500_000_000);
        c.set_seconds(f64::NAN);
        assert_eq!(c.now_ns(), 1_500_000_000);
    }

    #[test]
    fn virtual_clock_downcasts() {
        let c = VirtualClock::new();
        let as_dyn: &dyn Clock = &c;
        assert!(as_dyn.as_virtual().is_some());
    }
}
