//! End-to-end calibration observatory: a full walk populates per-scheme
//! calibration cells in the metrics sidecar; a deliberately stale model set
//! trips the CUSUM drift detector and produces a `calibration_drift` flight
//! postmortem; and the whole sidecar is byte-stable across same-seed runs
//! under the virtual clock.
//!
//! Everything here goes through process-global observability state (the
//! dispatcher, metrics registry, calibration monitor and flight recorder),
//! so the scenarios run sequentially inside ONE `#[test]` — splitting them
//! into parallel test functions would interleave their globals.

use std::io::Write;
use std::sync::{Arc, Mutex};

use uniloc::core::error_model::ErrorModelSet;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::venues;
use uniloc::iodetect::IoState;
use uniloc::obs::{
    CalibrationSnapshot, JsonlExporter, MultiSubscriber, Subscriber, TraceLevel, VirtualClock,
};
use uniloc::stats::json::Json;

/// An in-memory sink shared between the test and the exporter it hands out.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        let buf = self.0.lock().expect("buffer mutex");
        String::from_utf8(buf.clone()).expect("sidecar is utf-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer mutex").extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn trained_models(seed: u64) -> ErrorModelSet {
    pipeline::train_standard_models(seed).expect("training venues produce enough samples")
}

/// Makes every model wildly optimistic — predictions and spread shrunk to
/// 5% — the "stale `LinearErrorModel`" the drift detector exists to catch.
fn staled(models: &ErrorModelSet) -> ErrorModelSet {
    let mut out = ErrorModelSet::default();
    let schemes: Vec<_> = models.schemes().collect();
    for scheme in schemes {
        for io in [IoState::Indoor, IoState::Outdoor] {
            if let Some(m) = models.model(scheme, io) {
                let mut m = m.clone();
                m.intercept *= 0.05;
                for c in &mut m.coefficients {
                    *c *= 0.05;
                }
                m.sigma *= 0.05;
                out.insert(scheme, io, m);
            }
        }
    }
    out
}

/// Replays the CLI's `run --metrics … --virtual-clock` wiring in-process
/// and returns the sidecar bytes: fresh virtual clock, reset globals, an
/// exporter + flight recorder subscriber chain, one walk, then the metrics
/// and calibration snapshots appended.
fn observed_run(models: &ErrorModelSet, seed: u64) -> String {
    let d = uniloc::obs::global();
    // A fresh clock per run: the virtual clock only saturates forward, so
    // reusing the previous run's instance would shift every timestamp.
    d.set_clock(Arc::new(VirtualClock::new()));
    d.set_level(Some(TraceLevel::Span));
    uniloc::obs::global_metrics().reset();
    uniloc::obs::global_calibration().reset();
    let flight = uniloc::obs::global_flight();
    flight.reset();

    let buf = SharedBuf::default();
    let exporter = Arc::new(JsonlExporter::new(Box::new(buf.clone())));
    flight.set_sink(Some(Arc::clone(&exporter)));
    d.set_subscriber(Some(Arc::new(MultiSubscriber::new(vec![
        Arc::clone(&exporter) as Arc<dyn Subscriber>,
        Arc::clone(&flight) as Arc<dyn Subscriber>,
    ]))));

    let scenario = venues::office("observatory-office", seed, 50.0, 18.0);
    let cfg = PipelineConfig::default();
    let records = pipeline::run_walk(&scenario, models, &cfg, seed + 100);
    assert!(!records.is_empty(), "walk produced no epochs");

    for line in uniloc::obs::global_metrics().snapshot().jsonl_lines() {
        exporter.write_line(&line);
    }
    for line in uniloc::obs::global_calibration().snapshot().jsonl_lines() {
        exporter.write_line(&line);
    }
    exporter.flush();

    d.set_subscriber(None);
    flight.set_sink(None);
    buf.contents()
}

/// Parses every sidecar line and returns (calibration snapshot, total drift
/// alarms across cells, flight-dump reasons in emission order).
fn digest(sidecar: &str) -> (CalibrationSnapshot, u64, Vec<String>) {
    let mut snap = CalibrationSnapshot::default();
    let mut reasons = Vec::new();
    for line in sidecar.lines() {
        let doc = Json::parse(line).expect("every sidecar line is valid JSON");
        snap.absorb_jsonl(&doc).expect("well-formed calibration lines");
        if doc.get("kind").and_then(Json::as_str) == Some("flight") {
            reasons.push(
                doc.get("reason")
                    .and_then(Json::as_str)
                    .expect("flight dumps carry a reason")
                    .to_owned(),
            );
        }
    }
    let alarms = snap.cells.iter().map(|c| c.drift_alarms).sum();
    (snap, alarms, reasons)
}

#[test]
fn observatory_tracks_calibration_and_flags_stale_models() {
    let models = trained_models(5);

    // --- Healthy run: calibration cells populated with sane summaries. ---
    let healthy = observed_run(&models, 9);
    let (snap, healthy_alarms, _) = digest(&healthy);
    assert!(!snap.cells.is_empty(), "walk produced no calibration cells");
    for cell in &snap.cells {
        assert!(cell.n > 0, "{}/{}: empty cell", cell.scheme, cell.io);
        let binned: u64 = cell.pit_counts.iter().sum();
        assert_eq!(binned, cell.n, "{}/{}: PIT bins lose observations", cell.scheme, cell.io);
        for &c in &cell.coverage {
            assert!((0.0..=1.0).contains(&c), "{}/{}: coverage {c} outside [0,1]", cell.scheme, cell.io);
        }
    }

    // --- Stale run: shrunken models must trip the drift detector and leave
    // a calibration_drift postmortem; honestly-trained models must not alarm
    // more than the stale ones. ---
    let stale_models = staled(&models);
    let stale = observed_run(&stale_models, 9);
    let (stale_snap, stale_alarms, reasons) = digest(&stale);
    assert!(
        stale_alarms > healthy_alarms,
        "stale models raised {stale_alarms} alarms vs {healthy_alarms} healthy — detector missed the staleness"
    );
    assert!(
        reasons.iter().any(|r| r == "calibration_drift"),
        "no calibration_drift flight dump in stale run (reasons: {reasons:?})"
    );
    assert!(
        stale_snap.cells.iter().any(|c| c.drift_alarms > 0),
        "no cell recorded its drift alarms"
    );

    // --- Byte stability: the stale run repeated under the same seed must
    // reproduce the sidecar exactly, flight postmortems included. ---
    let stale_again = observed_run(&stale_models, 9);
    assert!(stale == stale_again, "same-seed stale runs produced different sidecar bytes");
}
