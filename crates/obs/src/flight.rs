//! The flight recorder: a bounded ring of recent trace activity that dumps
//! a byte-stable JSON postmortem when the pipeline hits an anomaly.
//!
//! Three trigger classes matter for UniLoc (see `DESIGN.md` §7c): a
//! calibration drift alarm (an error model has gone stale, see
//! [`crate::calib`]), a scheme unavailable for N consecutive epochs (a
//! sensing modality silently died), and a non-finite estimate (numerical
//! corruption in the fusion math). On any of them the recorder freezes its
//! window — the last ring-capacity trace events plus counter deltas since
//! the previous dump and current gauge values — into one `"kind":"flight"`
//! JSON line on the metrics sidecar, where `uniloc inspect` finds it
//! next to the ordinary metric lines.
//!
//! The recorder is a passive [`Subscriber`]: install it in the dispatcher
//! chain and every dispatched event lands in its ring. Triggering reads
//! observability state only (ring, metrics registry, clock) and writes
//! only the sidecar, so pipeline output is untouched — and under a
//! [`VirtualClock`](crate::clock::VirtualClock) the dump itself is
//! byte-stable across same-seed runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::metrics::global_metrics;
use crate::trace::{FieldValue, JsonlExporter, RingCollector, Subscriber, TraceEvent, TraceLevel};
use uniloc_stats::json::{Json, ToJson};

/// Default ring capacity: enough for several epochs of span-level detail.
pub const DEFAULT_RING_CAPACITY: usize = 128;

/// Consecutive unavailable epochs that trip a dump.
pub const UNAVAILABLE_THRESHOLD: u64 = 25;

/// Cap on dumps per recorder *arming*: postmortems are for the
/// first few anomalies; a persistently sick run would otherwise flood the
/// sidecar. The cap is not meant to span unrelated runs in one process —
/// a fleet run calls [`FlightRecorder::rearm_dumps`] on its process-wide
/// recorder up front so an earlier run's dumps don't starve it, and every
/// suppressed postmortem is counted in the `flight.dropped` metric rather
/// than vanishing.
pub const MAX_DUMPS: u64 = 16;

/// Per-scheme availability streak state.
#[derive(Debug, Default)]
struct Streak {
    consecutive_unavailable: u64,
    tripped: bool,
}

/// The flight recorder. One lives per process (see [`global_flight`]);
/// private instances serve tests.
pub struct FlightRecorder {
    ring: RingCollector,
    sink: RwLock<Option<Arc<JsonlExporter>>>,
    dumps: AtomicU64,
    disabled: AtomicBool,
    streaks: Mutex<BTreeMap<String, Streak>>,
    /// Counter values at the previous dump (or reset); dumps report the
    /// delta since then so consecutive postmortems don't repeat totals.
    baseline: Mutex<BTreeMap<String, u64>>,
}

impl FlightRecorder {
    /// Creates a recorder whose ring holds `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: RingCollector::new(capacity),
            sink: RwLock::new(None),
            dumps: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
            streaks: Mutex::new(BTreeMap::new()),
            baseline: Mutex::new(BTreeMap::new()),
        }
    }

    /// Installs (or removes, with `None`) the postmortem sink. Dumps with
    /// no sink still count and still emit the `flight.dump` warn event.
    pub fn set_sink(&self, sink: Option<Arc<JsonlExporter>>) {
        *self.sink.write().expect("flight sink lock") = sink;
    }

    /// Number of postmortems dumped so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Disables (or re-enables) the recorder entirely: triggers,
    /// availability streaks and ring writes all become no-ops. This is the
    /// obs-stub mode's switch — it measures the layer's cost without
    /// changing any pipeline behavior.
    pub fn set_disabled(&self, disabled: bool) {
        self.disabled.store(disabled, Ordering::Relaxed);
    }

    /// Re-arms only the dump budget, leaving the ring, streaks and counter
    /// baseline intact. A fleet run calls this up front so postmortem
    /// budget consumed by earlier runs in the same process (or an earlier
    /// fleet round) doesn't silently starve later sessions' dumps — the
    /// cap is per-run, not per-process.
    pub fn rearm_dumps(&self) {
        self.dumps.store(0, Ordering::Relaxed);
    }

    /// Records one epoch of availability for `scheme`. Returns `true`
    /// exactly when the scheme's unavailable streak reaches the threshold
    /// (once per streak — the caller should then [`trigger`](Self::trigger)
    /// a `scheme_unavailable` dump). An available epoch re-arms the trip.
    pub fn note_availability(&self, scheme: &str, available: bool) -> bool {
        if self.disabled.load(Ordering::Relaxed) {
            return false;
        }
        let mut streaks = self.streaks.lock().expect("flight streak lock");
        let s = streaks.entry(scheme.to_owned()).or_default();
        if available {
            s.consecutive_unavailable = 0;
            s.tripped = false;
            return false;
        }
        s.consecutive_unavailable += 1;
        if !s.tripped && s.consecutive_unavailable >= UNAVAILABLE_THRESHOLD {
            s.tripped = true;
            return true;
        }
        false
    }

    /// Freezes the current window into a postmortem: writes one
    /// `"kind":"flight"` JSON line to the sink, bumps `flight.dumps`, and
    /// emits a `flight.dump` warn event. Returns `false` when the dump cap
    /// suppressed it — `flight.dumps_suppressed` and `flight.dropped` both
    /// count those (`dropped` is the fleet health plane's loss metric;
    /// `dumps_suppressed` stays for sidecar compatibility).
    pub fn trigger(&self, reason: &str, fields: Vec<(String, FieldValue)>) -> bool {
        if self.disabled.load(Ordering::Relaxed) {
            return false;
        }
        if self.dumps.load(Ordering::Relaxed) >= MAX_DUMPS {
            global_metrics().counter("flight.dumps_suppressed").inc();
            global_metrics().counter("flight.dropped").inc();
            return false;
        }
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed);

        let snap = global_metrics().snapshot();
        let mut baseline = self.baseline.lock().expect("flight baseline lock");
        let counters_delta: Vec<Json> = snap
            .counters
            .iter()
            .filter_map(|(name, v)| {
                let delta = v.saturating_sub(baseline.get(name).copied().unwrap_or(0));
                (delta > 0).then(|| Json::Arr(vec![Json::Str(name.clone()), delta.to_json()]))
            })
            .collect();
        *baseline = snap.counters.iter().cloned().collect();
        drop(baseline);

        let events: Vec<Json> = self.ring.events().iter().map(TraceEvent::to_json).collect();
        let doc = Json::Obj(vec![
            ("kind".to_owned(), Json::Str("flight".to_owned())),
            ("seq".to_owned(), seq.to_json()),
            ("reason".to_owned(), Json::Str(reason.to_owned())),
            ("t_ns".to_owned(), crate::trace::global().now_ns().to_json()),
            (
                "fields".to_owned(),
                Json::Obj(fields.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            ),
            ("ring_dropped".to_owned(), self.ring.dropped().to_json()),
            ("events".to_owned(), Json::Arr(events)),
            ("counters_delta".to_owned(), Json::Arr(counters_delta)),
            (
                "gauges".to_owned(),
                Json::Arr(
                    snap.gauges
                        .iter()
                        .map(|(name, v)| {
                            Json::Arr(vec![Json::Str(name.clone()), v.to_json()])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(sink) = self.sink.read().expect("flight sink lock").as_ref() {
            sink.write_json(&doc);
            sink.flush();
        }
        global_metrics().counter("flight.dumps").inc();
        let mut event_fields = vec![
            ("reason".to_owned(), FieldValue::Str(reason.to_owned())),
            ("seq".to_owned(), FieldValue::Int(seq as i64)),
        ];
        event_fields.extend(fields);
        crate::trace::global().event(TraceLevel::Warn, "flight.dump", event_fields);
        true
    }

    /// Clears every buffer and arms the recorder afresh (test isolation /
    /// back-to-back runs in one process).
    pub fn reset(&self) {
        self.ring.reset();
        self.streaks.lock().expect("flight streak lock").clear();
        self.baseline.lock().expect("flight baseline lock").clear();
        self.dumps.store(0, Ordering::Relaxed);
    }
}

impl Subscriber for FlightRecorder {
    fn event(&self, event: &TraceEvent) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        self.ring.event(event);
    }
}

/// The flight recorder anomaly triggers should reach: the current
/// thread's [`ObsSession`](crate::session::ObsSession)'s recorder when one
/// is installed, otherwise the process-wide recorder (install that one in
/// the dispatcher's subscriber chain and wire its sink to the metrics
/// exporter).
pub fn global_flight() -> Arc<FlightRecorder> {
    if let Some(session) = crate::session::current() {
        return Arc::clone(&session.flight);
    }
    process_flight()
}

/// The process-wide flight recorder, bypassing any installed session.
pub fn process_flight() -> Arc<FlightRecorder> {
    static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(FlightRecorder::new(DEFAULT_RING_CAPACITY))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A `Write` that appends into a shared buffer (exporters take
    /// ownership of their writer).
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

    fn sink() -> (Arc<JsonlExporter>, Arc<Mutex<Vec<u8>>>) {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let exporter = Arc::new(JsonlExporter::new(Box::new(SharedBuf(Arc::clone(&buf)))));
        (exporter, buf)
    }

    fn event(name: &str, t_ns: u64) -> TraceEvent {
        TraceEvent {
            level: TraceLevel::Debug,
            name: name.to_owned(),
            t_ns,
            duration_ns: None,
            fields: vec![],
        }
    }

    #[test]
    fn dump_reflects_exactly_the_last_n_window() {
        let fr = FlightRecorder::new(4);
        let (exporter, buf) = sink();
        fr.set_sink(Some(exporter));
        for i in 0..10u64 {
            fr.event(&event(&format!("e{i}"), i));
        }
        assert!(fr.trigger("test_window", vec![]));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let doc = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str().unwrap(), "flight");
        assert_eq!(doc.get("reason").unwrap().as_str().unwrap(), "test_window");
        let names: Vec<&str> = doc
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        // Exactly the last 4 of the 10 events, oldest first.
        assert_eq!(names, ["e6", "e7", "e8", "e9"]);
        assert_eq!(doc.get("ring_dropped").unwrap().as_i64().unwrap(), 6);
    }

    /// `n` unavailable epochs of `scheme`; whether the last one tripped.
    fn unavailable_for(fr: &FlightRecorder, scheme: &str, n: u64) -> bool {
        (0..n).fold(false, |_, _| fr.note_availability(scheme, false))
    }

    #[test]
    fn availability_streak_trips_once_and_rearms() {
        let fr = FlightRecorder::new(4);
        assert!(!unavailable_for(&fr, "gps", UNAVAILABLE_THRESHOLD - 1));
        assert!(fr.note_availability("gps", false), "the threshold epoch trips");
        assert!(!fr.note_availability("gps", false), "already tripped");
        assert!(!fr.note_availability("gps", true), "recovery re-arms");
        assert!(!unavailable_for(&fr, "gps", UNAVAILABLE_THRESHOLD - 1));
        assert!(fr.note_availability("gps", false), "fresh streak trips again");
        // Independent schemes keep independent streaks.
        assert!(!fr.note_availability("wifi", false));
    }

    #[test]
    fn dump_cap_suppresses_floods() {
        let fr = FlightRecorder::new(4);
        for i in 0..MAX_DUMPS {
            assert!(fr.trigger("a", vec![]), "dump {i} is under the cap");
        }
        assert!(!fr.trigger("c", vec![]), "over the cap");
        assert_eq!(fr.dumps(), MAX_DUMPS);
    }

    #[test]
    fn suppressed_dumps_count_as_dropped_and_rearm_restores_budget() {
        // An isolated session so the flight.dropped counter is readable
        // without races against other tests' global registry traffic.
        let session = Arc::new(crate::session::ObsSession::isolated());
        let _g = crate::session::install(Arc::clone(&session));
        let fr = FlightRecorder::new(4);
        for _ in 0..MAX_DUMPS {
            assert!(fr.trigger("a", vec![]));
        }
        assert!(!fr.trigger("b", vec![]));
        assert!(!fr.trigger("c", vec![]));
        let dropped = session
            .capture()
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == "flight.dropped")
            .map(|(_, v)| *v);
        assert_eq!(dropped, Some(2), "each suppressed postmortem is a drop");
        // Re-arming only the dump budget: the next trigger dumps again.
        fr.rearm_dumps();
        assert_eq!(fr.dumps(), 0);
        assert!(fr.trigger("d", vec![]), "budget is per-run, not per-process");
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let fr = FlightRecorder::new(4);
        fr.set_disabled(true);
        fr.event(&event("x", 0));
        assert!(fr.ring.is_empty(), "ring writes are dropped");
        assert!(!unavailable_for(&fr, "gps", UNAVAILABLE_THRESHOLD), "streaks never trip");
        assert!(!fr.trigger("a", vec![]), "triggers never dump");
        assert_eq!(fr.dumps(), 0);
        fr.set_disabled(false);
        assert!(fr.trigger("b", vec![]), "re-enabling restores dumps");
    }

    #[test]
    fn counters_delta_is_since_previous_dump() {
        let fr = FlightRecorder::new(4);
        let (exporter, buf) = sink();
        fr.set_sink(Some(exporter));
        // Unique counter name: the global registry is shared across tests.
        let name = "flight.test.delta_counter";
        global_metrics().counter(name).add(5);
        assert!(fr.trigger("first", vec![]));
        global_metrics().counter(name).add(2);
        assert!(fr.trigger("second", vec![]));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let delta_of = |line: &str| -> Option<i64> {
            let doc = Json::parse(line).unwrap();
            doc.get("counters_delta").unwrap().as_arr().unwrap().iter().find_map(|pair| {
                let pair = pair.as_arr().unwrap();
                (pair[0].as_str().unwrap() == name).then(|| pair[1].as_i64().unwrap())
            })
        };
        assert!(delta_of(lines[0]).unwrap() >= 5);
        assert_eq!(delta_of(lines[1]), Some(2));
    }

    #[test]
    fn reset_rearms_everything() {
        let fr = FlightRecorder::new(4);
        fr.event(&event("x", 0));
        assert!(unavailable_for(&fr, "gps", UNAVAILABLE_THRESHOLD));
        for _ in 0..MAX_DUMPS {
            assert!(fr.trigger("a", vec![]));
        }
        assert!(!fr.trigger("b", vec![]));
        fr.reset();
        assert_eq!(fr.dumps(), 0);
        assert!(fr.ring.is_empty());
        assert!(unavailable_for(&fr, "gps", UNAVAILABLE_THRESHOLD), "streak state cleared");
        assert!(fr.trigger("c", vec![]), "dump budget restored");
    }
}
