//! Online calibration monitoring for the per-scheme error models.
//!
//! UniLoc's arbitration rests on one invariant: a scheme's predicted error
//! distribution `Y_t ~ N(mu_t, sigma_eps)` must describe its *realized*
//! error. This module judges that invariant continuously, per
//! `(scheme, environment)` cell, from the evaluation harness' stream of
//! `(predicted mean, predicted sigma, realized error)` observations:
//!
//! * **Reliability bins** — the probability integral transform
//!   `PIT = Phi((realized - mu) / sigma)` of each observation, bucketed
//!   into equal-width bins over `[0, 1]`. A calibrated model yields a
//!   uniform PIT histogram; mass piled at 1.0 means the model
//!   under-predicts its error, mass at 0.0 means it over-predicts.
//! * **Coverage** — for each nominal quantile `q`, the fraction of
//!   observations with `realized <= mu + sigma * Phi^-1(q)`. Calibrated
//!   models observe coverage ~= `q`.
//! * **Sharpness** — mean predicted error and mean predicted sigma (a
//!   model can be calibrated yet useless if its intervals are huge).
//! * **Drift detection** — a two-sided CUSUM over the *standardized*
//!   residual stream `z_t = (realized - mu) / sigma`. For a calibrated
//!   model `z_t` is approximately standard normal; a stale model (e.g.
//!   indoor fingerprints applied outdoors) shifts the stream and the
//!   CUSUM statistic crosses its threshold within a handful of epochs.
//!   Alarms emit a `calib.drift` warn event, bump the
//!   `calib.drift_alarms` counter, and are returned to the caller so the
//!   flight recorder (see [`crate::flight`]) can capture a postmortem.
//!
//! Like every `uniloc-obs` surface this is a strict sidecar: observing
//! reads pipeline values and writes only monitor state, trace events and
//! metrics — never anything the pipeline consumes. Snapshots are
//! deterministic (cells sorted by key) and serialize byte-stably through
//! `uniloc_stats::json`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::global_metrics;
use crate::trace::{FieldValue, TraceLevel};
use uniloc_stats::impl_json_struct;
use uniloc_stats::json::{Json, JsonError};
use uniloc_stats::Normal;

/// Standardized residuals are clamped to this magnitude before feeding the
/// CUSUM so one absurd observation cannot trip the detector alone.
pub const Z_CLAMP: f64 = 8.0;

/// Number of equal-width PIT reliability bins over `[0, 1]`.
const PIT_BINS: usize = 10;
/// Nominal quantiles tracked for coverage.
const QUANTILES: [f64; 4] = [0.5, 0.8, 0.9, 0.95];
/// CUSUM slack per observation (in standardized-residual units): drift
/// accumulates only while `|z|` exceeds this on average.
const CUSUM_SLACK: f64 = 0.5;
/// CUSUM alarm threshold (standardized-residual units).
const CUSUM_LAMBDA: f64 = 18.0;
/// Minimum observations in a cell before its first alarm may fire.
const MIN_OBS: u64 = 10;
/// Observations a cell must accumulate after an alarm before the next one
/// may fire (alarm rate limiting).
const COOLDOWN_OBS: u64 = 50;

/// A drift alarm raised by [`CalibrationMonitor::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlarm {
    /// Scheme whose error model drifted.
    pub scheme: String,
    /// Environment (`indoor` / `outdoor`).
    pub io: String,
    /// `under_predicted_error` (model optimistic — the stale-model case)
    /// or `over_predicted_error` (model pessimistic).
    pub direction: String,
    /// CUSUM statistic at alarm time.
    pub statistic: f64,
    /// Observations the cell had seen when the alarm fired.
    pub n: u64,
}

/// Rolling per-cell state.
#[derive(Debug, Clone)]
struct Cell {
    n: u64,
    dropped: u64,
    pit_counts: Vec<u64>,
    cover_hits: Vec<u64>,
    sum_predicted: f64,
    sum_sigma: f64,
    sum_realized: f64,
    cusum_pos: f64,
    cusum_neg: f64,
    since_alarm: u64,
    alarms: u64,
}

impl Cell {
    fn new() -> Self {
        Cell {
            n: 0,
            dropped: 0,
            pit_counts: vec![0; PIT_BINS],
            cover_hits: vec![0; QUANTILES.len()],
            sum_predicted: 0.0,
            sum_sigma: 0.0,
            sum_realized: 0.0,
            cusum_pos: 0.0,
            cusum_neg: 0.0,
            // Seeded at the cooldown so the *first* alarm is gated only by
            // `min_obs`.
            since_alarm: u64::MAX,
            alarms: 0,
        }
    }
}

/// One `(scheme, environment)` cell of a [`CalibrationSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCell {
    /// Scheme name (`gps`, `wifi`, ...).
    pub scheme: String,
    /// Environment name (`indoor` / `outdoor`).
    pub io: String,
    /// Observations absorbed.
    pub n: u64,
    /// Observations rejected for non-finite inputs.
    pub dropped: u64,
    /// PIT reliability bin counts (equal-width over `[0, 1]`).
    pub pit_counts: Vec<u64>,
    /// Nominal coverage quantiles.
    pub quantiles: Vec<f64>,
    /// Observed coverage per nominal quantile.
    pub coverage: Vec<f64>,
    /// Sharpness: mean predicted error (m).
    pub mean_predicted: f64,
    /// Sharpness: mean predicted sigma (m).
    pub mean_sigma: f64,
    /// Mean realized error (m).
    pub mean_realized: f64,
    /// Mean residual, predicted − realized (m); near zero when calibrated.
    pub mean_residual: f64,
    /// Current positive-side CUSUM statistic (under-prediction drift).
    pub cusum_pos: f64,
    /// Current negative-side CUSUM statistic (over-prediction drift).
    pub cusum_neg: f64,
    /// Drift alarms raised so far in this cell.
    pub drift_alarms: u64,
}

impl_json_struct!(CalibrationCell {
    scheme,
    io,
    n,
    dropped,
    pit_counts,
    quantiles,
    coverage,
    mean_predicted,
    mean_sigma,
    mean_realized,
    mean_residual,
    cusum_pos,
    cusum_neg,
    drift_alarms,
});

/// A deterministic point-in-time copy of a [`CalibrationMonitor`]: cells
/// sorted by `(scheme, io)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationSnapshot {
    /// One entry per observed `(scheme, environment)` cell.
    pub cells: Vec<CalibrationCell>,
}

impl_json_struct!(CalibrationSnapshot { cells });

impl CalibrationSnapshot {
    /// One compact JSON line per cell, tagged `"kind":"calibration"` — the
    /// format `uniloc run --metrics` appends after the metrics snapshot
    /// and `uniloc inspect` reads back.
    pub fn jsonl_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|cell| {
                let mut pairs = vec![("kind".to_owned(), Json::Str("calibration".to_owned()))];
                pairs.extend(uniloc_stats::json::flattened(cell));
                Json::Obj(pairs).to_string()
            })
            .collect()
    }

    /// Folds one parsed `"kind":"calibration"` JSONL line back into the
    /// snapshot; lines of other kinds are ignored. Returns whether the
    /// line was a calibration cell.
    pub fn absorb_jsonl(&mut self, line: &Json) -> Result<bool, JsonError> {
        if line.get("kind").and_then(Json::as_str) != Some("calibration") {
            return Ok(false);
        }
        // The cell's reader takes its own keys only.
        self.cells.push(uniloc_stats::json::FromJson::from_json(&line.without(&["kind"]))?);
        Ok(true)
    }

    /// Merges two snapshots deterministically, `self` being the earlier
    /// operand in canonical job order. Cells are matched by
    /// `(scheme, io)`: counts (`n`, `dropped`, `pit_counts`,
    /// `drift_alarms`) add, coverage and means combine weighted by each
    /// side's `n`, and the trailing CUSUM state comes from `later` when it
    /// observed the cell (the CUSUM is a running statistic, so the later
    /// job's is the "current" one). Cells present on one side pass
    /// through; the result stays sorted. Errors when matched cells
    /// disagree on bin count or quantiles.
    pub fn merge(&self, later: &CalibrationSnapshot) -> Result<CalibrationSnapshot, String> {
        let mut cells: BTreeMap<(String, String), CalibrationCell> = self
            .cells
            .iter()
            .map(|c| ((c.scheme.clone(), c.io.clone()), c.clone()))
            .collect();
        for b in &later.cells {
            let key = (b.scheme.clone(), b.io.clone());
            let Some(a) = cells.get(&key) else {
                cells.insert(key, b.clone());
                continue;
            };
            if a.pit_counts.len() != b.pit_counts.len() {
                return Err(format!(
                    "calibration cell {}/{}: PIT bin counts differ",
                    b.scheme, b.io
                ));
            }
            if a.quantiles != b.quantiles {
                return Err(format!(
                    "calibration cell {}/{}: coverage quantiles differ",
                    b.scheme, b.io
                ));
            }
            let n = a.n + b.n;
            let weighted = |x: f64, y: f64| {
                if n == 0 {
                    0.0
                } else {
                    (x * a.n as f64 + y * b.n as f64) / n as f64
                }
            };
            let merged = CalibrationCell {
                scheme: a.scheme.clone(),
                io: a.io.clone(),
                n,
                dropped: a.dropped + b.dropped,
                pit_counts: a
                    .pit_counts
                    .iter()
                    .zip(&b.pit_counts)
                    .map(|(x, y)| x + y)
                    .collect(),
                quantiles: a.quantiles.clone(),
                coverage: a
                    .coverage
                    .iter()
                    .zip(&b.coverage)
                    .map(|(x, y)| weighted(*x, *y))
                    .collect(),
                mean_predicted: weighted(a.mean_predicted, b.mean_predicted),
                mean_sigma: weighted(a.mean_sigma, b.mean_sigma),
                mean_realized: weighted(a.mean_realized, b.mean_realized),
                mean_residual: weighted(a.mean_residual, b.mean_residual),
                cusum_pos: if b.n > 0 { b.cusum_pos } else { a.cusum_pos },
                cusum_neg: if b.n > 0 { b.cusum_neg } else { a.cusum_neg },
                drift_alarms: a.drift_alarms + b.drift_alarms,
            };
            cells.insert(key, merged);
        }
        Ok(CalibrationSnapshot { cells: cells.into_values().collect() })
    }
}

/// The online calibration monitor: rolling reliability, coverage and drift
/// state per `(scheme, environment)` cell.
#[derive(Debug)]
pub struct CalibrationMonitor {
    /// `Phi^-1(q)` per tracked quantile, precomputed.
    z_quantiles: Vec<f64>,
    /// Sorted by `(scheme, io)`: a lookup borrows the key, never copies it.
    cells: Mutex<Vec<((String, String), Cell)>>,
    /// The obs-stub mode: a disabled monitor ignores observations entirely.
    disabled: bool,
}

impl Default for CalibrationMonitor {
    fn default() -> Self {
        let std = Normal::standard();
        CalibrationMonitor {
            z_quantiles: QUANTILES.iter().map(|&q| std.quantile(q)).collect(),
            cells: Mutex::new(Vec::new()),
            disabled: false,
        }
    }
}

impl CalibrationMonitor {
    /// A disabled monitor: observations are no-ops and never alarm. The
    /// obs-stub mode's monitor.
    pub(crate) fn disabled() -> Self {
        CalibrationMonitor { disabled: true, ..CalibrationMonitor::default() }
    }

    /// Absorbs one observation: scheme `scheme` in environment `io`
    /// predicted error `N(predicted_mean, predicted_sigma)` and realized
    /// error `realized` (m). Returns a [`DriftAlarm`] when this
    /// observation tripped the cell's drift detector.
    ///
    /// Alarms also emit a `calib.drift` warn event through the global
    /// dispatcher and bump the global `calib.drift_alarms` counter, so
    /// plain trace subscribers see drift without extra wiring.
    pub fn observe(
        &self,
        scheme: &str,
        io: &str,
        predicted_mean: f64,
        predicted_sigma: f64,
        realized: f64,
    ) -> Option<DriftAlarm> {
        if self.disabled {
            return None;
        }
        let mut cells = self.cells.lock().expect("calibration mutex");
        let at = cells
            .binary_search_by(|((s, i), _)| (s.as_str(), i.as_str()).cmp(&(scheme, io)))
            .unwrap_or_else(|at| {
                cells.insert(at, ((scheme.to_owned(), io.to_owned()), Cell::new()));
                at
            });
        let cell = &mut cells[at].1;
        if !predicted_mean.is_finite()
            || !predicted_sigma.is_finite()
            || predicted_sigma <= 0.0
            || !realized.is_finite()
        {
            cell.dropped += 1;
            return None;
        }
        cell.n += 1;
        cell.since_alarm = cell.since_alarm.saturating_add(1);
        cell.sum_predicted += predicted_mean;
        cell.sum_sigma += predicted_sigma;
        cell.sum_realized += realized;

        let z = ((realized - predicted_mean) / predicted_sigma).clamp(-Z_CLAMP, Z_CLAMP);
        let pit = Normal::standard().cdf(z);
        let bin = ((pit * PIT_BINS as f64) as usize).min(PIT_BINS - 1);
        cell.pit_counts[bin] += 1;
        for (hit, zq) in cell.cover_hits.iter_mut().zip(&self.z_quantiles) {
            if realized <= predicted_mean + predicted_sigma * zq {
                *hit += 1;
            }
        }

        // Two-sided CUSUM on the standardized residual stream: a
        // calibrated model keeps z ~ N(0, 1) and both sides hover near
        // zero; a shifted stream grows one side ~|shift| - slack per
        // observation.
        cell.cusum_pos = (cell.cusum_pos + z - CUSUM_SLACK).max(0.0);
        cell.cusum_neg = (cell.cusum_neg - z - CUSUM_SLACK).max(0.0);
        let statistic = cell.cusum_pos.max(cell.cusum_neg);
        if statistic <= CUSUM_LAMBDA || cell.n < MIN_OBS || cell.since_alarm < COOLDOWN_OBS {
            return None;
        }

        let direction = if cell.cusum_pos >= cell.cusum_neg {
            "under_predicted_error"
        } else {
            "over_predicted_error"
        };
        cell.cusum_pos = 0.0;
        cell.cusum_neg = 0.0;
        cell.since_alarm = 0;
        cell.alarms += 1;
        let alarm = DriftAlarm {
            scheme: scheme.to_owned(),
            io: io.to_owned(),
            direction: direction.to_owned(),
            statistic,
            n: cell.n,
        };
        drop(cells);

        global_metrics().counter("calib.drift_alarms").inc();
        crate::trace::global().event(
            TraceLevel::Warn,
            "calib.drift",
            vec![
                ("scheme".to_owned(), FieldValue::Str(alarm.scheme.clone())),
                ("io".to_owned(), FieldValue::Str(alarm.io.clone())),
                ("direction".to_owned(), FieldValue::Str(alarm.direction.clone())),
                ("statistic".to_owned(), FieldValue::Num(alarm.statistic)),
                ("n".to_owned(), FieldValue::Int(alarm.n as i64)),
            ],
        );
        Some(alarm)
    }

    /// A deterministic snapshot: cells sorted by `(scheme, io)`.
    pub fn snapshot(&self) -> CalibrationSnapshot {
        let cells = self.cells.lock().expect("calibration mutex");
        CalibrationSnapshot {
            cells: cells
                .iter()
                .map(|((scheme, io), c)| {
                    // Empty cells report zeros, never 0/0.
                    let mean = |sum: f64| if c.n == 0 { 0.0 } else { sum / c.n as f64 };
                    CalibrationCell {
                        scheme: scheme.clone(),
                        io: io.clone(),
                        n: c.n,
                        dropped: c.dropped,
                        pit_counts: c.pit_counts.clone(),
                        quantiles: QUANTILES.to_vec(),
                        coverage: c.cover_hits.iter().map(|&h| mean(h as f64)).collect(),
                        mean_predicted: mean(c.sum_predicted),
                        mean_sigma: mean(c.sum_sigma),
                        mean_realized: mean(c.sum_realized),
                        mean_residual: mean(c.sum_predicted - c.sum_realized),
                        cusum_pos: c.cusum_pos,
                        cusum_neg: c.cusum_neg,
                        drift_alarms: c.alarms,
                    }
                })
                .collect(),
        }
    }
}

/// The calibration monitor the evaluation harness feeds: the current
/// [`ObsSession`](crate::session::ObsSession)'s.
pub fn global_calibration() -> Arc<CalibrationMonitor> {
    crate::session::with_current(|s| Arc::clone(&s.calibration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_stats::json::{from_str, to_string};

    /// A deterministic, drift-free standardized-residual cycle: one value
    /// at each PIT decile midpoint (`Phi^-1(0.05), Phi^-1(0.15), ...`),
    /// mean zero, hitting every reliability bin.
    const Z_CYCLE: [f64; 10] = [
        -1.6449, -1.0364, -0.6745, -0.3853, -0.1257, 0.1257, 0.3853, 0.6745, 1.0364, 1.6449,
    ];

    fn feed_calibrated(m: &CalibrationMonitor, n: usize) -> u64 {
        let mut alarms = 0;
        for i in 0..n {
            let z = Z_CYCLE[i % Z_CYCLE.len()];
            if m.observe("wifi", "indoor", 3.0, 1.5, 3.0 + 1.5 * z).is_some() {
                alarms += 1;
            }
        }
        alarms
    }

    #[test]
    fn calibrated_stream_never_alarms() {
        let m = CalibrationMonitor::default();
        assert_eq!(feed_calibrated(&m, 500), 0);
        let snap = m.snapshot();
        assert_eq!(snap.cells.len(), 1);
        let cell = &snap.cells[0];
        assert_eq!((cell.scheme.as_str(), cell.io.as_str()), ("wifi", "indoor"));
        assert_eq!(cell.n, 500);
        assert_eq!(cell.drift_alarms, 0);
        assert!(cell.mean_residual.abs() < 0.2, "residual {}", cell.mean_residual);
        // Coverage tracks the nominal quantiles to within bin resolution.
        for (q, cov) in cell.quantiles.iter().zip(&cell.coverage) {
            assert!((q - cov).abs() < 0.15, "coverage@{q} observed {cov}");
        }
        // The PIT histogram is roughly flat for a calibrated stream.
        let max = *cell.pit_counts.iter().max().unwrap() as f64;
        let min = *cell.pit_counts.iter().min().unwrap() as f64;
        assert!(max <= 3.0 * (min + 1.0), "PIT bins {:?}", cell.pit_counts);
    }

    #[test]
    fn optimistic_model_trips_drift_quickly() {
        let m = CalibrationMonitor::default();
        let mut first_alarm = None;
        for i in 0..100u64 {
            // Model claims 0.2 m ± 0.1 m; reality delivers ~4 m.
            if let Some(a) = m.observe("wifi", "outdoor", 0.2, 0.1, 4.0) {
                first_alarm = Some((i, a));
                break;
            }
        }
        let (i, alarm) = first_alarm.expect("stale model must alarm");
        assert!(i < 20, "alarm should fire within min_obs + slack, got epoch {i}");
        assert_eq!(alarm.direction, "under_predicted_error");
        assert!(alarm.statistic > CUSUM_LAMBDA);
        assert_eq!(m.snapshot().cells[0].drift_alarms, 1);
    }

    #[test]
    fn pessimistic_model_alarms_the_other_way() {
        let m = CalibrationMonitor::default();
        let mut alarm = None;
        for _ in 0..100 {
            // Model claims 20 m ± 2 m; reality delivers 1 m.
            if let Some(a) = m.observe("cellular", "indoor", 20.0, 2.0, 1.0) {
                alarm = Some(a);
                break;
            }
        }
        assert_eq!(alarm.expect("must alarm").direction, "over_predicted_error");
    }

    #[test]
    fn alarms_are_rate_limited_by_cooldown() {
        let m = CalibrationMonitor::default();
        let mut alarms = 0u64;
        for _ in 0..200 {
            if m.observe("gps", "outdoor", 0.2, 0.1, 5.0).is_some() {
                alarms += 1;
            }
        }
        // Without the cooldown the CUSUM would re-trip every ~3
        // observations (≈60 alarms); with it, at most 1 per cooldown
        // window plus the initial alarm.
        let max_expected = 200 / COOLDOWN_OBS + 1;
        assert!(alarms >= 2, "repeated drift keeps alarming, got {alarms}");
        assert!(alarms <= max_expected, "got {alarms}, expected <= {max_expected}");
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let m = CalibrationMonitor::default();
        m.observe("wifi", "indoor", f64::NAN, 1.0, 1.0);
        m.observe("wifi", "indoor", 1.0, 0.0, 1.0);
        m.observe("wifi", "indoor", 1.0, 1.0, f64::INFINITY);
        let cell = &m.snapshot().cells[0];
        assert_eq!(cell.n, 0);
        assert_eq!(cell.dropped, 3);
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let m = CalibrationMonitor::default();
        m.observe("wifi", "indoor", 3.0, 1.0, 3.0);
        m.observe("cellular", "outdoor", 8.0, 2.0, 7.0);
        m.observe("cellular", "indoor", 8.0, 2.0, 9.0);
        let snap = m.snapshot();
        let keys: Vec<(String, String)> =
            snap.cells.iter().map(|c| (c.scheme.clone(), c.io.clone())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells must be sorted by (scheme, io)");
        let back: CalibrationSnapshot = from_str(&to_string(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn jsonl_lines_absorb_back() {
        let m = CalibrationMonitor::default();
        feed_calibrated(&m, 40);
        let snap = m.snapshot();
        let mut back = CalibrationSnapshot::default();
        for line in snap.jsonl_lines() {
            let doc = Json::parse(&line).unwrap();
            assert!(back.absorb_jsonl(&doc).unwrap());
        }
        assert_eq!(back, snap);
        let other = Json::parse(r#"{"kind":"counter","name":"x","value":1}"#).unwrap();
        assert!(!back.absorb_jsonl(&other).unwrap());
    }

    #[test]
    fn snapshot_merge_is_count_weighted() {
        let a = CalibrationMonitor::default();
        feed_calibrated(&a, 30);
        a.observe("gps", "outdoor", 1.0, 0.5, 1.2);
        let b = CalibrationMonitor::default();
        feed_calibrated(&b, 10);
        b.observe("cellular", "indoor", 8.0, 2.0, 7.5);

        let merged = a.snapshot().merge(&b.snapshot()).unwrap();
        assert_eq!(merged.cells.len(), 3, "union of cells");
        let keys: Vec<(String, String)> =
            merged.cells.iter().map(|c| (c.scheme.clone(), c.io.clone())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged cells stay sorted");

        let wifi = merged
            .cells
            .iter()
            .find(|c| c.scheme == "wifi")
            .expect("matched cell survives");
        assert_eq!(wifi.n, 40);
        assert_eq!(wifi.pit_counts.iter().sum::<u64>(), 40);
        // The equivalent sequential feed produces the same counts/means.
        let seq = CalibrationMonitor::default();
        feed_calibrated(&seq, 30);
        feed_calibrated(&seq, 10);
        let seq_wifi = &seq
            .snapshot()
            .cells
            .iter()
            .find(|c| c.scheme == "wifi")
            .unwrap()
            .clone();
        assert_eq!(wifi.pit_counts, seq_wifi.pit_counts);
        assert!((wifi.mean_realized - seq_wifi.mean_realized).abs() < 1e-9);
        // Trailing CUSUM comes from the later operand.
        let b_wifi = b.snapshot().cells.iter().find(|c| c.scheme == "wifi").unwrap().clone();
        assert_eq!(wifi.cusum_pos, b_wifi.cusum_pos);

        // Structural mismatches are errors: sidecars are outside input, so
        // a hand-built cell with another bin count must not merge.
        let mut odd = b_wifi;
        odd.pit_counts = vec![1, 0, 0];
        let odd = CalibrationSnapshot { cells: vec![odd] };
        assert!(a.snapshot().merge(&odd).is_err());
    }

}
