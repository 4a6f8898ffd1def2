//! The structured tracing facade: spans with key/value fields, a
//! thread-safe subscriber trait, a ring-buffer collector and a JSON-lines
//! exporter.
//!
//! The facade is intentionally tiny (the hermetic-build policy forbids the
//! `tracing` crate) but keeps its shape: instrumentation sites open a
//! [`SpanGuard`] (or emit a log event), the process-wide [`Dispatcher`]
//! filters by [`TraceLevel`], and the current [`ObsSession`] timestamps
//! the record with its clock and forwards it to its [`Subscriber`] chain,
//! if it has one. A span resolves its session once, at open, and records
//! into that session when it drops. With no subscriber the facade is
//! nearly free: a span open/close is an atomic load plus one clock read
//! and one histogram record into the session's
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) — which is how
//! every `span.*` latency histogram in the metrics snapshot is populated
//! without any subscriber at all. Only a session whose registry is a sink
//! (the obs-stub mode) skips the timing.
//!
//! Determinism contract: dispatching reads the clock and writes the
//! sidecar, never the pipeline state, so golden traces are unaffected by
//! any subscriber/level combination. With a
//! [`VirtualClock`](crate::clock::VirtualClock) installed the sidecar
//! itself becomes deterministic in content.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::alloc::Stage;
use crate::metrics::DURATION_BUCKETS_NS;
use crate::session::{self, ObsSession};
use uniloc_stats::json::{Json, ToJson};

/// Event verbosity, coarsest first. `Span` is the most verbose level:
/// enabling it also enables everything above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Unrecoverable or wrong-answer conditions.
    Error,
    /// Suspicious but tolerated conditions.
    Warn,
    /// Progress messages (the `eprintln!` replacement).
    Info,
    /// Per-epoch diagnostic detail.
    Debug,
    /// Span open/close records with durations.
    Span,
}

impl TraceLevel {
    /// The level's lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Error => "error",
            TraceLevel::Warn => "warn",
            TraceLevel::Info => "info",
            TraceLevel::Debug => "debug",
            TraceLevel::Span => "span",
        }
    }

    /// Parses a level name; `off` parses as `None` (emit nothing).
    pub fn parse(s: &str) -> Result<Option<TraceLevel>, String> {
        match s {
            "off" => Ok(None),
            "error" => Ok(Some(TraceLevel::Error)),
            "warn" => Ok(Some(TraceLevel::Warn)),
            "info" => Ok(Some(TraceLevel::Info)),
            "debug" => Ok(Some(TraceLevel::Debug)),
            "span" => Ok(Some(TraceLevel::Span)),
            other => Err(format!(
                "unknown trace level `{other}` (expected off|error|warn|info|debug|span)"
            )),
        }
    }
}

/// A typed span/event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Float.
    Num(f64),
    /// String.
    Str(String),
}

impl ToJson for FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::Bool(b) => Json::Bool(*b),
            FieldValue::Int(i) => Json::Int(*i),
            FieldValue::Num(x) => Json::Num(*x),
            FieldValue::Str(s) => Json::Str(s.clone()),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::Int(i) => write!(f, "{i}"),
            FieldValue::Num(x) => write!(f, "{x}"),
            FieldValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Num(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One dispatched record: a log event (`duration_ns == None`) or a closed
/// span (`duration_ns == Some`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Verbosity of the record.
    pub level: TraceLevel,
    /// Span or event name (log events use `"log"`).
    pub name: String,
    /// Clock timestamp at emission (span close), ns.
    pub t_ns: u64,
    /// Span duration; `None` for instantaneous events.
    pub duration_ns: Option<u64>,
    /// Structured key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// The event as one compact JSON document (`kind` is `span` for
    /// closed spans, `event` otherwise).
    pub fn to_json(&self) -> Json {
        let kind = if self.duration_ns.is_some() { "span" } else { "event" };
        let mut pairs = vec![
            ("kind".to_owned(), Json::Str(kind.to_owned())),
            ("level".to_owned(), Json::Str(self.level.as_str().to_owned())),
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("t_ns".to_owned(), self.t_ns.to_json()),
        ];
        if let Some(d) = self.duration_ns {
            pairs.push(("duration_ns".to_owned(), d.to_json()));
        }
        if !self.fields.is_empty() {
            pairs.push((
                "fields".to_owned(),
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(pairs)
    }
}

/// Receives dispatched events. Implementations must be thread-safe: the
/// pipeline may emit from any thread.
pub trait Subscriber: Send + Sync {
    /// Handles one event.
    fn event(&self, event: &TraceEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// A bounded in-memory collector: keeps the most recent `capacity` events,
/// dropping the oldest on overflow.
pub struct RingCollector {
    capacity: usize,
    buf: Mutex<VecDeque<TraceEvent>>,
    dropped: Mutex<u64>,
}

impl RingCollector {
    /// Creates a collector holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring collector needs capacity >= 1");
        RingCollector {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: Mutex::new(0),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring mutex").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().expect("ring mutex")
    }

    /// Copies the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.lock().expect("ring mutex").iter().cloned().collect()
    }

    /// The buffered events as one JSON array, oldest first, rendered in
    /// place (no event is copied).
    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(self.buf.lock().expect("ring mutex").iter().map(TraceEvent::to_json).collect())
    }

    /// Drains the buffered events, oldest first. The eviction counter
    /// ([`dropped`](Self::dropped)) keeps its lifetime total.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.buf.lock().expect("ring mutex").drain(..).collect()
    }
}

impl Subscriber for RingCollector {
    fn event(&self, event: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring mutex");
        if buf.len() == self.capacity {
            buf.pop_front();
            *self.dropped.lock().expect("ring mutex") += 1;
        }
        buf.push_back(event.clone());
    }
}

/// Writes each event as one compact JSON line, reusing `uniloc_stats`'
/// byte-stable writer.
pub struct JsonlExporter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlExporter {
    /// Wraps any writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlExporter { out: Mutex::new(out) }
    }

    /// Creates (truncates) `path` and buffers writes to it.
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlExporter::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// Appends one arbitrary JSON document as a line (used for the final
    /// metrics-snapshot lines).
    pub fn write_json(&self, doc: &Json) {
        let mut out = self.out.lock().expect("exporter mutex");
        let _ = writeln!(out, "{}", doc.to_string());
    }

    /// Appends one pre-serialized line.
    pub fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("exporter mutex");
        let _ = writeln!(out, "{line}");
    }
}

impl Subscriber for JsonlExporter {
    fn event(&self, event: &TraceEvent) {
        self.write_json(&event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("exporter mutex").flush();
    }
}

/// Prints human-readable progress to stderr: log events print their
/// message verbatim (the `eprintln!` replacement), other events print
/// `name k=v ...`. Span records are ignored regardless of level.
pub struct StderrSubscriber {
    max_level: TraceLevel,
}

impl StderrSubscriber {
    /// Prints events up to `max_level` (typically [`TraceLevel::Info`]).
    pub fn new(max_level: TraceLevel) -> Self {
        StderrSubscriber { max_level }
    }
}

impl Subscriber for StderrSubscriber {
    fn event(&self, event: &TraceEvent) {
        if event.level > self.max_level || event.duration_ns.is_some() {
            return;
        }
        if event.name == "log" {
            if let Some((_, msg)) = event.fields.iter().find(|(k, _)| k == "message") {
                eprintln!("{msg}");
                return;
            }
        }
        let fields: Vec<String> =
            event.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!("[{}] {} {}", event.level.as_str(), event.name, fields.join(" "));
    }
}

/// Fans events out to several subscribers.
pub struct MultiSubscriber {
    subscribers: Vec<Arc<dyn Subscriber>>,
}

impl MultiSubscriber {
    /// Bundles the given subscribers.
    pub fn new(subscribers: Vec<Arc<dyn Subscriber>>) -> Self {
        MultiSubscriber { subscribers }
    }
}

impl Subscriber for MultiSubscriber {
    fn event(&self, event: &TraceEvent) {
        for s in &self.subscribers {
            s.event(event);
        }
    }

    fn flush(&self) {
        for s in &self.subscribers {
            s.flush();
        }
    }
}

/// Threshold encoding for the dispatcher's atomic level: 0 = off,
/// 1..=5 = emit up to Error..Span.
const fn threshold(level: Option<TraceLevel>) -> u8 {
    match level {
        None => 0,
        Some(l) => l as u8 + 1,
    }
}

/// Filters events from instrumentation sites by the process-wide trace
/// level; the current [`ObsSession`] timestamps them with its clock and
/// receives them through its subscriber.
pub struct Dispatcher {
    level: AtomicU8,
}

impl Dispatcher {
    const fn new() -> Self {
        Dispatcher { level: AtomicU8::new(threshold(Some(TraceLevel::Info))) }
    }

    /// Sets the verbosity threshold; `None` means off.
    pub fn set_level(&self, level: Option<TraceLevel>) {
        self.level.store(threshold(level), Ordering::Relaxed);
    }

    /// Whether the trace level lets `level` through.
    fn passes(&self, level: TraceLevel) -> bool {
        (level as u8) < self.level.load(Ordering::Relaxed)
    }

    /// Whether events at `level` would currently be dispatched to a
    /// subscriber.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.passes(level) && session::with_current(|s| s.subscriber.is_some())
    }

    /// Current time on the current session's clock, ns.
    pub fn now_ns(&self) -> u64 {
        session::with_current(|s| s.clock.now_ns())
    }

    /// Drives the current session's clock to simulation time `t` seconds
    /// when it is a [`VirtualClock`](crate::clock::VirtualClock); a no-op
    /// under a monotonic clock. The pipeline calls this once per epoch.
    pub fn sync_virtual_clock(&self, t: f64) {
        session::with_current(|s| {
            if let Some(v) = s.clock.as_virtual() {
                v.set_seconds(t);
            }
        });
    }

    /// Emits an instantaneous event.
    pub fn event(&self, level: TraceLevel, name: &str, fields: Vec<(String, FieldValue)>) {
        if !self.passes(level) {
            return;
        }
        let session = session::current();
        if let Some(sub) = &session.subscriber {
            sub.event(&TraceEvent {
                level,
                name: name.to_owned(),
                t_ns: session.clock.now_ns(),
                duration_ns: None,
                fields,
            });
        }
    }

    /// Emits a progress message at `Info` (the `eprintln!` replacement).
    pub fn log(&self, level: TraceLevel, message: String) {
        self.event(level, "log", vec![("message".to_owned(), FieldValue::Str(message))]);
    }

    /// Opens a span for `stage` in the current session; the returned
    /// guard records into that session when dropped: a span record (when
    /// the trace level admits spans and the session has a subscriber) and
    /// a `span.<name>` duration sample. The session decides the rest:
    /// spans are timed unless its registry is a sink (the obs-stub mode),
    /// and a timed span opens an allocation-attribution frame exactly when
    /// it opts into tracking (see [`crate::alloc`]). Opening allocates
    /// nothing; the guard's teardown runs under an attribution pause so
    /// observability overhead stays out of the heap profile.
    pub fn span(&self, stage: Stage) -> SpanGuard {
        let session = session::current();
        let emit = self.passes(TraceLevel::Span) && session.subscriber.is_some();
        let time = !session.metrics.is_sink();
        SpanGuard {
            stage,
            start_ns: if emit || time { session.clock.now_ns() } else { 0 },
            fields: Vec::new(),
            emit,
            time,
            alloc: if time && session.alloc_tracking { crate::alloc::span_open(stage) } else { None },
            session,
        }
    }

    /// Flushes the current session's subscriber.
    pub fn flush(&self) {
        if let Some(sub) = &session::current().subscriber {
            sub.flush();
        }
    }
}

/// An open span; closes (and reports into its session) on drop.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    session: Arc<ObsSession>,
    stage: Stage,
    start_ns: u64,
    fields: Vec<(String, FieldValue)>,
    emit: bool,
    time: bool,
    alloc: Option<crate::alloc::SpanToken>,
}

impl SpanGuard {
    /// Attaches a key/value field to the span record.
    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        if self.emit {
            self.fields.push((key.to_owned(), value.into()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Close the allocation-attribution frame first, and keep the
        // guard's own teardown (a first histogram insert, the emitted
        // record) out of the enclosing span's heap profile.
        let session = &self.session;
        let _pause = session.alloc_tracking.then(crate::alloc::pause);
        if let Some(token) = self.alloc.take() {
            crate::alloc::span_close(token, &session.metrics);
        }
        if !self.emit && !self.time {
            return;
        }
        let end_ns = session.clock.now_ns();
        let duration_ns = end_ns.saturating_sub(self.start_ns);
        if self.time {
            session
                .metrics
                .histogram(self.stage.histogram_name(), DURATION_BUCKETS_NS)
                .record_ns(duration_ns);
        }
        if let (true, Some(sub)) = (self.emit, &session.subscriber) {
            sub.event(&TraceEvent {
                level: TraceLevel::Span,
                name: self.stage.name().to_owned(),
                t_ns: end_ns,
                duration_ns: Some(duration_ns),
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

/// The process-wide dispatcher every instrumentation site reports to.
pub fn global() -> &'static Dispatcher {
    static GLOBAL: Dispatcher = Dispatcher::new();
    &GLOBAL
}

/// Formats and emits an `Info` progress message through the global
/// dispatcher — the drop-in replacement for ad-hoc `eprintln!` progress
/// output.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::trace::global().log($crate::TraceLevel::Info, format!($($arg)*))
    };
}

/// Formats and emits a `Warn` message through the global dispatcher.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::trace::global().log($crate::TraceLevel::Warn, format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, MonotonicClock, VirtualClock};
    use crate::metrics::global_metrics;

    fn event(level: TraceLevel, name: &str) -> TraceEvent {
        TraceEvent {
            level,
            name: name.to_owned(),
            t_ns: 7,
            duration_ns: None,
            fields: vec![("k".to_owned(), FieldValue::Int(1))],
        }
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [
            TraceLevel::Error,
            TraceLevel::Warn,
            TraceLevel::Info,
            TraceLevel::Debug,
            TraceLevel::Span,
        ] {
            assert_eq!(TraceLevel::parse(l.as_str()).unwrap(), Some(l));
        }
        assert_eq!(TraceLevel::parse("off").unwrap(), None);
        assert!(TraceLevel::parse("loud").is_err());
    }

    #[test]
    fn ring_collector_caps_and_tracks_drops() {
        let ring = RingCollector::new(3);
        for i in 0..5 {
            ring.event(&event(TraceLevel::Info, &format!("e{i}")));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let names: Vec<String> = ring.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
        assert_eq!(ring.take().len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_exporter_emits_parseable_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let exporter = JsonlExporter::new(Box::new(SharedBuf(Arc::clone(&buf))));
        exporter.event(&event(TraceLevel::Debug, "hello"));
        exporter.event(&TraceEvent {
            level: TraceLevel::Span,
            name: "engine.update".into(),
            t_ns: 10,
            duration_ns: Some(3),
            fields: vec![],
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str().unwrap(), "event");
        assert_eq!(first.get("name").unwrap().as_str().unwrap(), "hello");
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("kind").unwrap().as_str().unwrap(), "span");
        assert_eq!(second.get("duration_ns").unwrap().as_i64().unwrap(), 3);
    }

    /// A session streaming its trace into `ring`, on `clock`.
    fn ring_session(ring: &Arc<RingCollector>, clock: Arc<dyn Clock>) -> Arc<ObsSession> {
        Arc::new(ObsSession::streaming(None, Some(ring.clone() as Arc<dyn Subscriber>), clock))
    }

    #[test]
    fn dispatcher_filters_by_level() {
        // A private dispatcher (not the global one) keeps this test
        // independent of other tests mutating the global level.
        let d = Dispatcher::new();
        let ring = Arc::new(RingCollector::new(16));
        let _g = session::install(ring_session(&ring, Arc::new(MonotonicClock::new())));
        d.set_level(Some(TraceLevel::Info));
        d.event(TraceLevel::Info, "kept", vec![]);
        d.event(TraceLevel::Debug, "filtered", vec![]);
        assert_eq!(ring.len(), 1);
        d.set_level(None);
        d.event(TraceLevel::Error, "also filtered", vec![]);
        assert_eq!(ring.len(), 1);
        assert!(!d.enabled(TraceLevel::Error));
    }

    #[test]
    fn multi_subscriber_fans_out() {
        let a = Arc::new(RingCollector::new(4));
        let b = Arc::new(RingCollector::new(4));
        let multi = MultiSubscriber::new(vec![
            a.clone() as Arc<dyn Subscriber>,
            b.clone() as Arc<dyn Subscriber>,
        ]);
        multi.event(&event(TraceLevel::Info, "x"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    // The process registry is shared by this binary's tests. Only the two
    // spans opened with no session installed record into it, and each
    // test's stage is its own, so the leak checks below stay exact.

    #[test]
    fn span_records_duration_histogram() {
        // With no session installed spans are timed; they feed
        // `span.<name>` histograms even with no subscriber installed.
        {
            let _g = global().span(Stage::PipelineRunWalk).field("k", 1i64);
        }
        let snap = global_metrics().snapshot();
        assert!(span_samples(&snap, Stage::PipelineRunWalk) >= 1);
    }

    /// Count of samples in the `span.<name>` histogram of `stage`.
    fn span_samples(snap: &crate::metrics::MetricsSnapshot, stage: Stage) -> u64 {
        snap.histograms
            .iter()
            .find(|(n, _)| n == stage.histogram_name())
            .map(|(_, h)| h.count())
            .unwrap_or(0)
    }

    #[test]
    fn session_spans_stay_in_the_session_and_timing_returns_after_drop() {
        // An installed session's span timings land in its own registry.
        let session = Arc::new(ObsSession::isolated());
        {
            let _g = crate::session::install(Arc::clone(&session));
            let _s = global().span(Stage::PipelineBuildContext);
        }
        assert_eq!(span_samples(&session.capture().metrics, Stage::PipelineBuildContext), 1);

        // Once the install guard drops, timing lands in the process
        // registry again.
        {
            let _s = global().span(Stage::PipelineCollectTraining);
        }
        let process = global_metrics().snapshot();
        assert!(
            span_samples(&process, Stage::PipelineCollectTraining) >= 1,
            "timing returns to the process registry after the session guard drops"
        );
        assert_eq!(
            span_samples(&process, Stage::PipelineBuildContext),
            0,
            "a session's span must not leak into the process registry"
        );
    }

    #[test]
    fn stubbed_session_suppresses_timing_without_racing_global_state() {
        // A stubbed session's sink registry turns timing off for that
        // session alone: there is no process-wide switch to race on, and
        // the sample lands nowhere.
        let stub = Arc::new(ObsSession::stubbed());
        {
            let _g = crate::session::install(Arc::clone(&stub));
            let span = global().span(Stage::EstimateCustom);
            assert!(!span.time, "a sink session's spans are not timed");
        }
        assert_eq!(stub.capture(), crate::session::SessionCapture::default());
        assert_eq!(
            span_samples(&global_metrics().snapshot(), Stage::EstimateCustom),
            0,
            "stubbed-session span must not leak into the process registry"
        );
    }

    #[test]
    fn virtual_clock_makes_span_timestamps_deterministic() {
        let d = Dispatcher::new();
        d.set_level(Some(TraceLevel::Span));
        let ring = Arc::new(RingCollector::new(8));
        let _g = session::install(ring_session(&ring, Arc::new(VirtualClock::new())));
        d.sync_virtual_clock(2.0);
        d.event(TraceLevel::Info, "tick", vec![]);
        let e = &ring.events()[0];
        assert_eq!(e.t_ns, 2_000_000_000);
    }

    #[test]
    fn stderr_subscriber_ignores_spans() {
        // Only exercises the filter logic (output goes to stderr).
        let s = StderrSubscriber::new(TraceLevel::Info);
        s.event(&TraceEvent {
            level: TraceLevel::Span,
            name: "noisy".into(),
            t_ns: 0,
            duration_ns: Some(1),
            fields: vec![],
        });
        s.event(&event(TraceLevel::Debug, "too detailed"));
    }
}
