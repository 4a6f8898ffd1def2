//! The flight recorder: a bounded ring of recent trace activity that dumps
//! a byte-stable JSON postmortem when the pipeline hits an anomaly.
//!
//! Three trigger classes matter for UniLoc (see `DESIGN.md` §7c): a
//! calibration drift alarm (an error model has gone stale, see
//! [`crate::calib`]), a scheme unavailable for [`UNAVAILABLE_THRESHOLD`]
//! consecutive epochs (a sensing modality silently died; the serving
//! session counts the run), and a non-finite estimate (numerical
//! corruption in the fusion math). On any of them the recorder freezes its
//! window — the last ring-capacity trace events plus counter deltas since
//! the previous dump and current gauge values — into one `"kind":"flight"`
//! JSON line on the metrics sidecar, where `uniloc inspect` finds it
//! next to the ordinary metric lines.
//!
//! The recorder is a passive [`Subscriber`]: every
//! [`ObsSession`](crate::session::ObsSession) that records a trace puts
//! its own recorder last in its subscriber chain, so every dispatched
//! event lands in the ring. Triggering reads observability state only
//! (ring, metrics registry, clock) and writes only the sidecar, so
//! pipeline output is untouched — and under a
//! [`VirtualClock`](crate::clock::VirtualClock) the dump itself is
//! byte-stable across same-seed runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::global_metrics;
use crate::trace::{FieldValue, JsonlExporter, RingCollector, Subscriber, TraceEvent, TraceLevel};
use uniloc_stats::json::{Json, ToJson};

/// Default ring capacity: enough for several epochs of span-level detail.
pub const DEFAULT_RING_CAPACITY: usize = 128;

/// Consecutive unavailable epochs of one scheme that trip a dump.
pub const UNAVAILABLE_THRESHOLD: u64 = 25;

/// Cap on dumps per recorder *arming*: postmortems are for the
/// first few anomalies; a persistently sick run would otherwise flood the
/// sidecar. The cap is not meant to span unrelated runs in one process —
/// a fleet run calls [`FlightRecorder::rearm_dumps`] on the process
/// session's recorder up front so an earlier run's dumps don't starve it,
/// and every suppressed postmortem is counted in the `flight.dropped`
/// metric rather than vanishing.
pub const MAX_DUMPS: u64 = 16;

/// The flight recorder. Each [`ObsSession`](crate::session::ObsSession)
/// owns one (see [`global_flight`]); private instances serve tests.
pub struct FlightRecorder {
    ring: RingCollector,
    /// Where postmortems go. Dumps with no sink still count and still
    /// emit the `flight.dump` warn event.
    sink: Option<Arc<JsonlExporter>>,
    dumps: AtomicU64,
    /// The obs-stub mode: triggers and ring writes are no-ops.
    disabled: bool,
    /// Counter values at the previous dump; dumps report the delta since
    /// then so consecutive postmortems don't repeat totals.
    baseline: Mutex<BTreeMap<String, u64>>,
}

impl FlightRecorder {
    /// Creates a recorder whose ring holds `capacity` events and whose
    /// postmortems go to `sink`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize, sink: Option<Arc<JsonlExporter>>) -> Self {
        FlightRecorder {
            ring: RingCollector::new(capacity),
            sink,
            dumps: AtomicU64::new(0),
            disabled: false,
            baseline: Mutex::new(BTreeMap::new()),
        }
    }

    /// A disabled recorder: triggers and ring writes are no-ops. This is
    /// the obs-stub mode's recorder — it measures the layer's cost without
    /// changing any pipeline behavior.
    pub(crate) fn disabled() -> Self {
        FlightRecorder { disabled: true, ..FlightRecorder::new(1, None) }
    }

    /// Number of postmortems dumped so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Re-arms only the dump budget, leaving the ring and counter baseline
    /// intact. A fleet run calls this up front so postmortem budget
    /// consumed by earlier runs in the same process (or an earlier fleet
    /// round) doesn't silently starve later sessions' dumps — the cap is
    /// per-run, not per-process.
    pub fn rearm_dumps(&self) {
        self.dumps.store(0, Ordering::Relaxed);
    }

    /// Freezes the current window into a postmortem: writes one
    /// `"kind":"flight"` JSON line to the sink, bumps `flight.dumps`, and
    /// emits a `flight.dump` warn event carrying the trigger's `fields`.
    /// `fields` runs only for a dump that happens. Returns `false` when
    /// the recorder is disabled or the dump cap suppressed it —
    /// `flight.dumps_suppressed` and `flight.dropped` both count those
    /// (`dropped` is the fleet health plane's loss metric;
    /// `dumps_suppressed` stays for sidecar compatibility).
    pub fn trigger(
        &self,
        reason: &str,
        fields: impl FnOnce() -> Vec<(String, FieldValue)>,
    ) -> bool {
        if self.disabled {
            return false;
        }
        if self.dumps.load(Ordering::Relaxed) >= MAX_DUMPS {
            global_metrics().counter("flight.dumps_suppressed").inc();
            global_metrics().counter("flight.dropped").inc();
            return false;
        }
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed);
        let fields = fields();
        if let Some(sink) = &self.sink {
            sink.write_json(&self.postmortem(seq, reason, &fields));
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

    /// The postmortem document of dump `seq`; advances the counter
    /// baseline.
    fn postmortem(&self, seq: u64, reason: &str, fields: &[(String, FieldValue)]) -> Json {
        let snap = global_metrics().scalar_snapshot();
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
        Json::Obj(vec![
            ("kind".to_owned(), Json::Str("flight".to_owned())),
            ("seq".to_owned(), seq.to_json()),
            ("reason".to_owned(), Json::Str(reason.to_owned())),
            ("t_ns".to_owned(), crate::trace::global().now_ns().to_json()),
            (
                "fields".to_owned(),
                Json::Obj(fields.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            ),
            ("ring_dropped".to_owned(), self.ring.dropped().to_json()),
            ("events".to_owned(), self.ring.to_json()),
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
        ])
    }
}

impl Subscriber for FlightRecorder {
    fn event(&self, event: &TraceEvent) {
        if !self.disabled {
            self.ring.event(event);
        }
    }
}

/// The current [`ObsSession`](crate::session::ObsSession)'s flight
/// recorder: the one anomaly triggers should reach.
pub fn global_flight() -> Arc<FlightRecorder> {
    crate::session::with_current(|s| Arc::clone(&s.flight))
}

/// The process session's flight recorder, whatever session the calling
/// thread has installed.
pub fn process_flight() -> Arc<FlightRecorder> {
    Arc::clone(&crate::session::process().flight)
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
        let (exporter, buf) = sink();
        let fr = FlightRecorder::new(4, Some(exporter));
        for i in 0..10u64 {
            fr.event(&event(&format!("e{i}"), i));
        }
        assert!(fr.trigger("test_window", Vec::new));
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

    #[test]
    fn dump_cap_suppresses_floods() {
        let fr = FlightRecorder::new(4, None);
        for i in 0..MAX_DUMPS {
            assert!(fr.trigger("a", Vec::new), "dump {i} is under the cap");
        }
        assert!(!fr.trigger("c", Vec::new), "over the cap");
        assert_eq!(fr.dumps(), MAX_DUMPS);
    }

    #[test]
    fn suppressed_dumps_count_as_dropped_and_rearm_restores_budget() {
        // An isolated session so the flight.dropped counter is readable
        // without races against other tests' global registry traffic.
        let session = Arc::new(crate::session::ObsSession::isolated());
        let _g = crate::session::install(Arc::clone(&session));
        let fr = FlightRecorder::new(4, None);
        for _ in 0..MAX_DUMPS {
            assert!(fr.trigger("a", Vec::new));
        }
        assert!(!fr.trigger("b", Vec::new));
        assert!(!fr.trigger("c", Vec::new));
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
        assert!(fr.trigger("d", Vec::new), "budget is per-run, not per-process");
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let fr = FlightRecorder::disabled();
        fr.event(&event("x", 0));
        assert!(fr.ring.is_empty(), "ring writes are dropped");
        let fields = || -> Vec<(String, FieldValue)> { unreachable!("fields of a dump") };
        assert!(!fr.trigger("a", fields), "triggers never dump");
        assert_eq!(fr.dumps(), 0);
    }

    #[test]
    fn counters_delta_is_since_previous_dump() {
        let (exporter, buf) = sink();
        let fr = FlightRecorder::new(4, Some(exporter));
        // Unique counter name: the global registry is shared across tests.
        let name = "flight.test.delta_counter";
        global_metrics().counter(name).add(5);
        assert!(fr.trigger("first", Vec::new));
        global_metrics().counter(name).add(2);
        assert!(fr.trigger("second", Vec::new));
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
}
