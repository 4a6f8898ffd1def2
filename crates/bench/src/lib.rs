//! Shared harness for the experiment regenerators.
//!
//! Every table and figure in the paper's evaluation (Section V) has a
//! binary in `src/bin/` that regenerates it against the simulated substrate
//! (see `DESIGN.md` for the per-experiment index). This library holds what
//! they share: the one-time error-model training, walk aggregation and
//! plain-text table/series printing.

pub mod chaos;
pub mod fleet;

use std::sync::Arc;

use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_env::Scenario;
use uniloc_obs::{MonotonicClock, ObsSession, StderrSubscriber, TraceLevel};
use uniloc_schemes::SchemeId;
use uniloc_sensors::{DeviceProfile, RssiCalibration, SensorHub};
use uniloc_stats::{percentile, Ecdf};

/// Sets the process obs session to one that prints progress to stderr at
/// `Info`, so the regenerators' `uniloc_obs::info!` lines are visible; set
/// `UNILOC_QUIET=1` to suppress them. Every `src/bin/` regenerator calls
/// this first.
pub fn init_obs() {
    if std::env::var_os("UNILOC_QUIET").is_some_and(|v| v == "1") {
        return;
    }
    let progress = Arc::new(StderrSubscriber::new(TraceLevel::Info));
    let session = ObsSession::streaming(None, Some(progress), Arc::new(MonotonicClock::new()));
    uniloc_obs::session::set_process(session);
}

/// Worker count for the regenerators: `UNILOC_JOBS` when set (≥ 1), else
/// the machine's available cores. Results are byte-identical at any value.
pub fn jobs_from_env() -> usize {
    std::env::var("UNILOC_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        })
}

/// Runs one [`pipeline::run_walk`] per `(scenario, cfg, seed)` triple on
/// up to [`jobs_from_env`] workers, returning records in input order.
/// Each walk executes under an isolated observability session, so worker
/// telemetry never lands in the process session.
pub fn run_walks_parallel(
    walks: &[(Scenario, PipelineConfig, u64)],
    models: &ErrorModelSet,
) -> Vec<Vec<EpochRecord>> {
    let jobs = jobs_from_env();
    let (records, _obs) =
        uniloc_core::parallel::run_observed(walks, jobs, |_, (scenario, cfg, seed)| {
            pipeline::run_walk(scenario, models, cfg, *seed)
        });
    records
}

/// The labels used across printed tables, in the paper's order.
pub const SYSTEM_LABELS: [&str; 8] =
    ["gps", "wifi", "cellular", "motion", "fusion", "oracle", "uniloc1", "uniloc2"];

/// Trains the error models exactly as Section III-B does: one pass over the
/// training office and the training open space.
///
/// # Panics
///
/// Panics if the training venues fail to produce enough samples (they
/// cannot, unless the substrate is broken).
pub fn trained_models(seed: u64) -> ErrorModelSet {
    uniloc_obs::info!("training error models (office + open space, seed {seed}) ...");
    pipeline::train_standard_models(seed).expect("training venues produce enough samples")
}

/// Per-epoch error series of one system, for figure printing.
pub fn system_errors(records: &[EpochRecord], system: &str) -> Vec<Option<f64>> {
    records
        .iter()
        .map(|r| match system {
            "oracle" => r.oracle_error,
            "uniloc1" => r.uniloc1_error,
            "uniloc2" => r.uniloc2_error,
            _ => {
                let id = parse_scheme(system);
                r.scheme_errors.iter().find(|(s, _)| *s == id).and_then(|(_, e)| *e)
            }
        })
        .collect()
}

/// Maps a label to a [`SchemeId`].
///
/// # Panics
///
/// Panics on unknown labels.
pub fn parse_scheme(label: &str) -> SchemeId {
    match label {
        "gps" => SchemeId::Gps,
        "wifi" => SchemeId::Wifi,
        "cellular" => SchemeId::Cellular,
        "motion" => SchemeId::Motion,
        "fusion" => SchemeId::Fusion,
        other => panic!("unknown scheme label {other}"),
    }
}

/// Mean of the defined values, or `None`.
pub fn mean_defined(values: &[Option<f64>]) -> Option<f64> {
    pipeline::mean_defined(values.iter().copied())
}

/// Buckets an error series by route station and returns
/// `(bucket_center, mean_error)` rows — the x-axis of Figs. 2 and 3
/// ("Distance from the start point (m)").
pub fn station_series(
    records: &[EpochRecord],
    errors: &[Option<f64>],
    bucket_m: f64,
) -> Vec<(f64, f64)> {
    assert!(bucket_m > 0.0);
    let max_station = records.iter().map(|r| r.station).fold(0.0f64, f64::max);
    let n = (max_station / bucket_m).ceil() as usize + 1;
    let mut sums = vec![0.0; n];
    let mut counts = vec![0usize; n];
    for (r, e) in records.iter().zip(errors) {
        if let Some(e) = e {
            let idx = (r.station / bucket_m) as usize;
            sums[idx] += e;
            counts[idx] += 1;
        }
    }
    (0..n)
        .filter(|&i| counts[i] > 0)
        .map(|i| ((i as f64 + 0.5) * bucket_m, sums[i] / counts[i] as f64))
        .collect()
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut line = String::new();
    for h in headers {
        line.push_str(&format!("{h:>12}"));
    }
    println!("{line}");
    for row in rows {
        let mut line = String::new();
        for cell in row {
            line.push_str(&format!("{cell:>12}"));
        }
        println!("{line}");
    }
}

/// Formats an optional value.
pub fn fmt_opt(v: Option<f64>, prec: usize) -> String {
    match v {
        Some(v) => format!("{v:.prec$}"),
        None => "-".to_owned(),
    }
}

/// CDF summary for one system: `(p50, p90, mean)`.
pub fn cdf_summary(errors: &[f64]) -> Option<(f64, f64, f64)> {
    if errors.is_empty() {
        return None;
    }
    let p50 = percentile(errors, 50.0).ok()?;
    let p90 = percentile(errors, 90.0).ok()?;
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    Some((p50, p90, mean))
}

/// Prints a CDF as an ASCII series (x = error, y = cumulative fraction).
pub fn print_cdf_series(label: &str, errors: &[f64], points: usize) {
    let Ok(cdf) = Ecdf::new(errors.to_vec()) else {
        println!("  {label:<10} (no data)");
        return;
    };
    let series = cdf.series(points);
    let line: Vec<String> =
        series.iter().map(|(x, p)| format!("({x:.1},{p:.2})")).collect();
    println!("  {label:<10} {}", line.join(" "));
}

/// Collects all defined errors of a system across multiple runs.
pub fn pooled_errors(runs: &[Vec<EpochRecord>], system: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|records| {
            system_errors(records, system)
                .into_iter()
                .flatten()
                .collect::<Vec<f64>>()
        })
        .collect()
}

/// Learns the LG G3 -> Nexus 5X RSSI calibration from paired scans in a
/// scenario — the online offset calibration of Section III-B / Fig. 8d.
pub fn learn_calibration(scenario: &Scenario, seed: u64) -> Option<RssiCalibration> {
    let mut nexus = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
    let mut g3 = SensorHub::new(&scenario.world, DeviceProfile::lg_g3(), seed);
    let mut pairs = Vec::new();
    for p in scenario.survey_points(6.0, 12.0) {
        let a = nexus.scan_wifi(p);
        let b = g3.scan_wifi(p);
        let mut i = 0;
        let mut j = 0;
        while i < a.readings.len() && j < b.readings.len() {
            match a.readings[i].0.cmp(&b.readings[j].0) {
                std::cmp::Ordering::Equal => {
                    pairs.push((b.readings[j].1, a.readings[i].1));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
    }
    RssiCalibration::learn(&pairs)
}
