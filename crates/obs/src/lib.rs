//! `uniloc-obs` — the in-repo observability layer.
//!
//! The pipeline's core claim (per-scheme error can be predicted online and
//! used to arbitrate among schemes) is only debuggable when the pipeline
//! is not a black box: which scheme's confidence was miscalibrated, how
//! long fingerprint matching took, how the particle filter's spread
//! evolved. The hermetic-build policy (see `DESIGN.md`) forbids the
//! `tracing`/`metrics` crates, so this crate provides the slice the
//! workspace needs:
//!
//! * [`alloc`] — the [`Stage`] taxonomy every span, allocation frame and
//!   profile tree keys on, and the allocation observatory: a counting
//!   `#[global_allocator]` wrapper attributing every heap operation to
//!   the innermost active span (exact, deterministic per-stage heap
//!   profiles and the `allocs_per_epoch` steady-state meter behind
//!   `PROF_alloc.json` and the `--alloc-budget` CI gate).
//! * [`trace`] — structured spans with key/value fields, a thread-safe
//!   [`Subscriber`] trait, a bounded [`RingCollector`], a [`JsonlExporter`]
//!   over `uniloc_stats`' byte-stable JSON writer, and a process-wide
//!   [`Dispatcher`] that holds the trace level (see [`trace::global`]).
//! * [`metrics`] — named counters, gauges and fixed-bucket histograms with
//!   cheap atomic updates and a [`MetricsRegistry::snapshot`] that is
//!   deterministic in content ordering (see [`metrics::global_metrics`]).
//! * [`clock`] — the [`Clock`] abstraction: [`MonotonicClock`] for real
//!   timing, [`VirtualClock`] keyed to simulation epochs for
//!   deterministic sidecar content.
//! * [`calib`] — the online calibration monitor: per-scheme × environment
//!   PIT reliability bins, coverage/sharpness summaries and a CUSUM drift
//!   detector that raises `calib.drift` alarms when an error model goes
//!   stale (see [`calib::global_calibration`]).
//! * [`flight`] — the flight recorder: a bounded window of recent trace
//!   activity dumped as a byte-stable JSON postmortem on drift alarms,
//!   scheme-unavailability streaks or non-finite estimates (see
//!   [`flight::global_flight`]).
//! * [`fleet`] — the fleet observatory: sharded aggregation of retired
//!   session captures into one mergeable [`FleetSnapshot`], one stage
//!   profile tree (call counts in `PROF_fleet.*`, heap operations in
//!   `PROF_alloc.*`), and the SLO health plane behind `FLEET_HEALTH.json`
//!   and `uniloc inspect`.
//! * [`session`] — the one home of observability state. An
//!   [`ObsSession`] owns a registry, a calibration monitor, a flight
//!   recorder, a clock and a subscriber chain, built whole and never
//!   reconfigured. Every `global_*` accessor and the dispatcher resolve to
//!   the session installed on the calling thread, else the process
//!   session a binary sets once at start-up ([`session::set_process`]).
//!   Parallel sweeps install one session per job and merge the captures
//!   deterministically in job order ([`SessionCapture::merge`]).
//!
//! # Determinism contract
//!
//! Instrumentation writes the sidecar and never the pipeline: no span,
//! counter or clock read feeds back into any estimate, weight or RNG
//! stream. The golden-trace tests (`tests/golden/`) and
//! `tests/determinism.rs` therefore pass unchanged with instrumentation
//! enabled at any level. Wall-clock values appear only in the
//! metrics/trace sidecar — and even those become deterministic when a
//! [`VirtualClock`] is installed.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use uniloc_obs::{MonotonicClock, ObsSession, RingCollector, Stage, Subscriber, TraceLevel};
//!
//! // Collect spans in memory: a session streaming its trace into a ring.
//! let ring = Arc::new(RingCollector::new(128));
//! let progress = Some(ring.clone() as Arc<dyn Subscriber>);
//! let session = ObsSession::streaming(None, progress, Arc::new(MonotonicClock::new()));
//! let d = uniloc_obs::trace::global();
//! d.set_level(Some(TraceLevel::Span));
//! {
//!     let _guard = uniloc_obs::session::install(Arc::new(session));
//!     let _span = d.span(Stage::EngineFuse).field("items", 3usize);
//! }
//! assert!(ring.events().iter().any(|e| e.name == "engine.fuse"));
//!
//! // Metrics: counters / gauges / histograms with a deterministic snapshot.
//! let m = uniloc_obs::metrics::global_metrics();
//! m.counter("demo.epochs").inc();
//! m.histogram("demo.residual", uniloc_obs::metrics::RESIDUAL_BUCKETS_M).record(0.7);
//! let snapshot = m.snapshot();
//! assert!(snapshot.counters.iter().any(|(n, v)| n == "demo.epochs" && *v >= 1));
//! ```

pub mod alloc;
pub mod calib;
pub mod clock;
pub mod fleet;
pub mod flight;
pub mod metrics;
pub mod session;
pub mod trace;

pub use alloc::{CountingAlloc, Stage, STEADY_WARMUP_EPOCHS};
pub use calib::{
    global_calibration, CalibrationCell, CalibrationMonitor, CalibrationSnapshot, DriftAlarm,
};
pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use fleet::{
    alloc_folded_lines, alloc_report, alloc_tree, evaluate_slos, folded_lines, health_report,
    profile_report, profile_tree, FleetAggregator, FleetSnapshot, ProfNode, SessionMeta, SloRow,
    SloTargets,
};
pub use flight::{global_flight, process_flight, FlightRecorder};
pub use metrics::{
    global_metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, DURATION_BUCKETS_NS, RESIDUAL_BUCKETS_M,
};
pub use session::{ObsSession, SessionCapture, SessionGuard};
pub use trace::{
    global, Dispatcher, FieldValue, JsonlExporter, MultiSubscriber, RingCollector, SpanGuard,
    StderrSubscriber, Subscriber, TraceEvent, TraceLevel,
};
