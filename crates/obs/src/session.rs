//! Per-thread observability sessions for parallel sweeps.
//!
//! The process-wide singletons ([`global_metrics`](crate::global_metrics),
//! [`global_calibration`](crate::global_calibration),
//! [`global_flight`](crate::global_flight) and the
//! [`Dispatcher`](crate::trace::Dispatcher)'s subscriber/clock) are the
//! right model for one walk at a time, but a parallel sweep interleaves
//! many walks: counters from different jobs would mix nondeterministically
//! and span timings would race. An [`ObsSession`] gives one job its own
//! registry, calibration monitor, flight recorder and clock; installing it
//! ([`install`]) redirects every `global_*` accessor *on the current
//! thread* to the session for the lifetime of the returned guard.
//!
//! The sweep engine (`uniloc-core::parallel`) installs one isolated
//! session per job — at every worker count, including one — then merges
//! the captured snapshots in canonical job order, which is what makes the
//! merged sidecar byte-identical regardless of `--jobs N`. Code that
//! never installs a session (the CLI main thread, the golden-trace tests)
//! sees the process-wide singletons exactly as before.
//!
//! Sessions are a thread-local *stack*: nested installs shadow outer ones
//! and the guard restores the previous state on drop. The guard is
//! deliberately `!Send` so a session cannot leak to another thread.

use std::cell::RefCell;
use std::io::Write;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use crate::calib::{CalibrationMonitor, CalibrationSnapshot};
use crate::clock::{Clock, VirtualClock};
use crate::flight::{FlightRecorder, DEFAULT_RING_CAPACITY};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{JsonlExporter, Subscriber};

thread_local! {
    static STACK: RefCell<Vec<Arc<ObsSession>>> = const { RefCell::new(Vec::new()) };
}

/// A `Write` that appends into a shared in-memory buffer, so a session's
/// flight-recorder dumps can be captured and re-emitted in job order.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("session buffer").extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One job's private observability state. See the module docs.
pub struct ObsSession {
    /// The session's metrics registry (what `global_metrics` resolves to
    /// while the session is installed).
    pub metrics: Arc<MetricsRegistry>,
    /// The session's calibration monitor.
    pub calibration: Arc<CalibrationMonitor>,
    /// The session's flight recorder; its dumps land in an in-memory
    /// buffer readable via [`ObsSession::capture`].
    pub flight: Arc<FlightRecorder>,
    /// Clock override; `None` falls through to the dispatcher's clock.
    pub clock: Option<Arc<dyn Clock>>,
    /// Subscriber override. While a session is installed this *replaces*
    /// the dispatcher's subscriber — `None` means events are dropped
    /// (worker progress output would interleave nondeterministically).
    pub subscriber: Option<Arc<dyn Subscriber>>,
    /// Opt-in for span-attributed allocation tracking (see
    /// [`crate::alloc`]): while this session is installed, timed spans
    /// open attribution frames and flush `alloc.*` counters into the
    /// session's registry. Off by default, and nothing outside a session
    /// turns it on, so sessions that did not ask for heap profiles never
    /// see `alloc.*` counters, whatever other threads are doing.
    pub alloc_tracking: bool,
    flight_buf: Arc<Mutex<Vec<u8>>>,
}

/// Everything a finished job hands back for the deterministic merge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionCapture {
    /// Final metrics snapshot (sorted by name, as always).
    pub metrics: MetricsSnapshot,
    /// Final calibration snapshot (cells sorted by `(scheme, io)`).
    pub calibration: CalibrationSnapshot,
    /// Flight-recorder postmortem lines, in dump order.
    pub flight_lines: Vec<String>,
}

impl ObsSession {
    /// A fully isolated session: fresh registries, a fresh flight recorder
    /// whose dumps buffer in memory, a [`VirtualClock`] (so span durations
    /// are simulation-time deltas, deterministic across runs and worker
    /// counts), and the flight recorder as the sole subscriber (so its
    /// ring sees the job's trace window, as the process-wide chain does).
    pub fn isolated() -> Self {
        let flight = Arc::new(FlightRecorder::new(DEFAULT_RING_CAPACITY));
        let flight_buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        flight.set_sink(Some(Arc::new(JsonlExporter::new(Box::new(SharedBuf(Arc::clone(
            &flight_buf,
        )))))));
        ObsSession {
            metrics: Arc::new(MetricsRegistry::new()),
            calibration: Arc::new(CalibrationMonitor::default()),
            subscriber: Some(Arc::clone(&flight) as Arc<dyn Subscriber>),
            flight,
            clock: Some(Arc::new(VirtualClock::new())),
            alloc_tracking: false,
            flight_buf,
        }
    }

    /// A stubbed session: every instrument site still runs, but metrics
    /// land in a sink registry (which also turns span timing off), the
    /// calibration monitor and flight recorder are disabled and no
    /// subscriber is installed. Captures come back empty. This is the *obs off*
    /// configuration of the obs-overhead bench — observability never feeds
    /// the pipeline, so records are byte-identical either way, and the
    /// epochs/s delta against [`isolated`](Self::isolated) sessions is the
    /// layer's true cost.
    pub fn stubbed() -> Self {
        let flight = Arc::new(FlightRecorder::new(DEFAULT_RING_CAPACITY));
        flight.set_disabled(true);
        let calibration = Arc::new(CalibrationMonitor::default());
        calibration.set_disabled(true);
        ObsSession {
            metrics: Arc::new(MetricsRegistry::sink()),
            calibration,
            subscriber: None,
            flight,
            clock: Some(Arc::new(VirtualClock::new())),
            alloc_tracking: false,
            flight_buf: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Snapshots the session's state for the job-ordered merge.
    pub fn capture(&self) -> SessionCapture {
        SessionCapture {
            metrics: self.metrics.snapshot(),
            calibration: self.calibration.snapshot(),
            flight_lines: {
                let buf = self.flight_buf.lock().expect("session buffer");
                String::from_utf8_lossy(&buf).lines().map(str::to_owned).collect()
            },
        }
    }
}

/// Pops the installed session on drop. `!Send`: a session belongs to the
/// thread that installed it.
pub struct SessionGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `session` as the current thread's observability target until
/// the returned guard drops. Nested installs shadow (stack discipline).
pub fn install(session: Arc<ObsSession>) -> SessionGuard {
    STACK.with(|s| s.borrow_mut().push(session));
    SessionGuard { _not_send: PhantomData }
}

/// The innermost session installed on this thread, if any.
pub fn current() -> Option<Arc<ObsSession>> {
    STACK.with(|s| s.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::global_metrics;

    #[test]
    fn install_redirects_and_guard_restores() {
        assert!(current().is_none());
        let session = Arc::new(ObsSession::isolated());
        {
            let _g = install(Arc::clone(&session));
            assert!(current().is_some());
            global_metrics().counter("session.test.counter").add(3);
        }
        assert!(current().is_none());
        // The increment landed in the session, not the process registry.
        let snap = session.capture();
        assert_eq!(
            snap.metrics.counters,
            vec![("session.test.counter".to_owned(), 3)]
        );
        let process = crate::metrics::process_metrics().snapshot();
        assert!(
            !process.counters.iter().any(|(n, _)| n == "session.test.counter"),
            "process registry must not see session counters"
        );
    }

    #[test]
    fn sessions_nest_with_stack_discipline() {
        let outer = Arc::new(ObsSession::isolated());
        let inner = Arc::new(ObsSession::isolated());
        let _go = install(Arc::clone(&outer));
        {
            let _gi = install(Arc::clone(&inner));
            global_metrics().counter("nested").inc();
        }
        global_metrics().counter("outer_only").inc();
        assert!(inner.capture().metrics.counters.iter().any(|(n, _)| n == "nested"));
        assert!(!outer.capture().metrics.counters.iter().any(|(n, _)| n == "nested"));
        assert!(outer.capture().metrics.counters.iter().any(|(n, _)| n == "outer_only"));
    }

    #[test]
    fn flight_dumps_are_captured_in_memory() {
        let session = Arc::new(ObsSession::isolated());
        {
            let _g = install(Arc::clone(&session));
            session.flight.trigger("session_test", vec![]);
        }
        let capture = session.capture();
        assert_eq!(capture.flight_lines.len(), 1);
        assert!(capture.flight_lines[0].contains("\"reason\":\"session_test\""));
    }

    #[test]
    fn stubbed_session_swallows_everything() {
        let session = Arc::new(ObsSession::stubbed());
        {
            let _g = install(Arc::clone(&session));
            global_metrics().counter("stub.counter").add(7);
            global_metrics()
                .histogram("stub.hist", &[1.0])
                .record(0.5);
            {
                let _span = crate::trace::global().span("stub.span");
            }
            assert!(
                session
                    .calibration
                    .observe("wifi", "indoor", 1.0, 0.5, 1.2)
                    .is_none(),
                "disabled monitor never alarms"
            );
            assert!(!session.flight.trigger("stub_test", vec![]));
        }
        let capture = session.capture();
        assert_eq!(capture, SessionCapture::default(), "capture is empty");
    }

    #[test]
    fn virtual_clock_is_per_session() {
        let a = Arc::new(ObsSession::isolated());
        let b = Arc::new(ObsSession::isolated());
        {
            let _g = install(Arc::clone(&a));
            crate::trace::global().sync_virtual_clock(5.0);
            assert_eq!(crate::trace::global().now_ns(), 5_000_000_000);
        }
        {
            let _g = install(Arc::clone(&b));
            assert_eq!(crate::trace::global().now_ns(), 0, "fresh session clock");
        }
    }
}
