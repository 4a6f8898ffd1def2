//! Observability sessions: the one home of observability state.
//!
//! An [`ObsSession`] owns a metrics registry, a calibration monitor, a
//! flight recorder, a clock and the subscriber chain its trace reaches.
//! Every `global_*` accessor ([`global_metrics`](crate::global_metrics),
//! [`global_calibration`](crate::global_calibration),
//! [`global_flight`](crate::global_flight)) and the
//! [`Dispatcher`](crate::trace::Dispatcher)'s clock and subscriber resolve
//! to [`current`]: the innermost session installed on the calling thread
//! ([`install`]), else the [`process`] session. The dispatcher itself
//! keeps only the process-wide trace level.
//!
//! The process session is an `ObsSession` too. A binary builds it once at
//! start-up and hands it to [`set_process`] (the CLI from its global
//! flags, the regenerators for their progress output); until then, and in
//! binaries that never set one, it has fresh state, a monotonic clock and
//! no subscriber. Every session is built whole and never reconfigured.
//!
//! A parallel sweep interleaves many walks, whose counters would mix
//! nondeterministically and whose span timings would race on one session.
//! The sweep engine (`uniloc-core::parallel`) therefore installs one
//! isolated session per job — at every worker count, including one — and
//! merges the captures in canonical job order ([`SessionCapture::merge`]),
//! which is what makes the merged sidecar byte-identical regardless of
//! `--jobs N`.
//!
//! Sessions are a thread-local *stack*: nested installs shadow outer ones
//! and the guard restores the previous state on drop. The guard is
//! deliberately `!Send` so a session cannot leak to another thread.

use std::cell::RefCell;
use std::io::Write;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock};

use crate::calib::{CalibrationMonitor, CalibrationSnapshot};
use crate::clock::{Clock, MonotonicClock, VirtualClock};
use crate::flight::{FlightRecorder, DEFAULT_RING_CAPACITY};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{JsonlExporter, MultiSubscriber, Subscriber};

thread_local! {
    static STACK: RefCell<Vec<Arc<ObsSession>>> = const { RefCell::new(Vec::new()) };
}

static PROCESS: OnceLock<Arc<ObsSession>> = OnceLock::new();

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

/// One session's observability state. See the module docs.
pub struct ObsSession {
    /// The session's metrics registry (what `global_metrics` resolves to
    /// while the session is current).
    pub metrics: Arc<MetricsRegistry>,
    /// The session's calibration monitor.
    pub calibration: Arc<CalibrationMonitor>,
    /// The session's flight recorder.
    pub flight: Arc<FlightRecorder>,
    /// The clock the session's events and spans are timestamped by.
    pub clock: Arc<dyn Clock>,
    /// Where the session's trace goes; `None` drops every event (worker
    /// progress output would interleave nondeterministically).
    pub subscriber: Option<Arc<dyn Subscriber>>,
    /// Opt-in for span-attributed allocation tracking (see
    /// [`crate::alloc`]): while this session is current, timed spans
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

impl SessionCapture {
    /// Folds `later` (the capture of the *next* job in canonical order, or
    /// a later sweep phase's merge) into this one. Deterministic in job
    /// order, never arrival order: counters add; gauges take the later
    /// value; histograms merge bucket-wise; calibration cells merge
    /// count-weighted; flight-recorder lines concatenate.
    pub fn merge(&mut self, later: &SessionCapture) -> Result<(), String> {
        self.metrics = self.metrics.merge(&later.metrics)?;
        self.calibration = self.calibration.merge(&later.calibration)?;
        self.flight_lines.extend(later.flight_lines.iter().cloned());
        Ok(())
    }
}

impl ObsSession {
    /// A session that streams its trace to `progress` (a stderr printer),
    /// then to `sidecar`, then to its own flight recorder, whose
    /// postmortems also land in `sidecar`. This is the process session of
    /// `uniloc --metrics FILE` and of the regenerators; tests build the
    /// same one over an in-memory sidecar.
    pub fn streaming(
        sidecar: Option<Arc<JsonlExporter>>,
        progress: Option<Arc<dyn Subscriber>>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let chain =
            progress.into_iter().chain(sidecar.clone().map(|s| s as Arc<dyn Subscriber>)).collect();
        ObsSession::recording(chain, sidecar, clock)
    }

    /// Fresh state whose trace reaches `chain` and then the session's own
    /// flight recorder, which dumps into `sink`.
    fn recording(
        mut chain: Vec<Arc<dyn Subscriber>>,
        sink: Option<Arc<JsonlExporter>>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let flight = Arc::new(FlightRecorder::new(DEFAULT_RING_CAPACITY, sink));
        chain.push(Arc::clone(&flight) as Arc<dyn Subscriber>);
        let subscriber: Arc<dyn Subscriber> = match chain.len() {
            1 => chain.pop().expect("one subscriber"),
            _ => Arc::new(MultiSubscriber::new(chain)),
        };
        ObsSession {
            metrics: Arc::new(MetricsRegistry::new()),
            calibration: Arc::new(CalibrationMonitor::default()),
            flight,
            clock,
            subscriber: Some(subscriber),
            alloc_tracking: false,
            flight_buf: Arc::default(),
        }
    }

    /// A fully isolated session: fresh registries, a fresh flight recorder
    /// whose dumps buffer in memory, a [`VirtualClock`] (so span durations
    /// are simulation-time deltas, deterministic across runs and worker
    /// counts), and the flight recorder as the sole subscriber (so its
    /// ring sees the job's trace window).
    pub fn isolated() -> Self {
        let flight_buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        let sink = JsonlExporter::new(Box::new(SharedBuf(Arc::clone(&flight_buf))));
        let clock = Arc::new(VirtualClock::new());
        ObsSession { flight_buf, ..ObsSession::recording(Vec::new(), Some(Arc::new(sink)), clock) }
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
        ObsSession {
            metrics: Arc::new(MetricsRegistry::sink()),
            calibration: Arc::new(CalibrationMonitor::disabled()),
            flight: Arc::new(FlightRecorder::disabled()),
            clock: Arc::new(VirtualClock::new()),
            subscriber: None,
            alloc_tracking: false,
            flight_buf: Arc::default(),
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

/// Makes `session` the process session: what every thread with no
/// installed session records into. A binary calls this once, at
/// start-up, before anything records.
///
/// # Panics
///
/// Panics when the process session is already in use: set before, or
/// read (by anything recording) before this call.
pub fn set_process(session: ObsSession) {
    let fresh = PROCESS.set(Arc::new(session)).is_ok();
    assert!(fresh, "the process obs session is set once, at start-up, before anything records");
}

/// The process session: the one [`set_process`] set, else fresh state
/// with a monotonic clock, a flight recorder that writes nowhere, and no
/// subscriber.
pub fn process() -> &'static Arc<ObsSession> {
    PROCESS.get_or_init(|| {
        let unset = ObsSession::recording(Vec::new(), None, Arc::new(MonotonicClock::new()));
        Arc::new(ObsSession { subscriber: None, ..unset })
    })
}

/// The session the calling thread records into: the innermost installed
/// one, else the [`process`] session.
pub fn current() -> Arc<ObsSession> {
    STACK.with(|s| s.borrow().last().cloned()).unwrap_or_else(|| Arc::clone(process()))
}

/// Runs `f` on the [`current`] session without cloning its handle.
pub(crate) fn with_current<R>(f: impl FnOnce(&ObsSession) -> R) -> R {
    STACK.with(|s| match s.borrow().last() {
        Some(session) => f(session),
        None => f(process()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::global_metrics;

    #[test]
    fn install_redirects_and_guard_restores() {
        assert!(Arc::ptr_eq(&current(), process()));
        let session = Arc::new(ObsSession::isolated());
        {
            let _g = install(Arc::clone(&session));
            assert!(Arc::ptr_eq(&current(), &session));
            global_metrics().counter("session.test.counter").add(3);
        }
        assert!(Arc::ptr_eq(&current(), process()));
        // The increment landed in the session, not the process registry.
        let snap = session.capture();
        assert_eq!(
            snap.metrics.counters,
            vec![("session.test.counter".to_owned(), 3)]
        );
        let process = process().metrics.snapshot();
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
            session.flight.trigger("session_test", Vec::new);
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
                let _span = crate::trace::global().span(crate::alloc::Stage::EngineFuse);
            }
            assert!(
                session
                    .calibration
                    .observe("wifi", "indoor", 1.0, 0.5, 1.2)
                    .is_none(),
                "disabled monitor never alarms"
            );
            assert!(!session.flight.trigger("stub_test", || unreachable!("a disabled recorder dumps nothing")));
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
