//! Heterogeneous devices (Fig. 8d): an LG G3 localizing against fingerprints
//! surveyed with a Google Nexus 5X, with and without the online RSSI offset
//! calibration `rssi_ref = alpha * rssi_dev + delta`.
//!
//! Run with: `cargo run --release --example heterogeneous_devices`

use uniloc::core::error_model::train;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::venues;
use uniloc::schemes::SchemeId;
use uniloc::sensors::{DeviceProfile, RssiCalibration, SensorHub};
use uniloc::stats::percentile;

fn main() {
    let base = PipelineConfig::default();
    let mut samples = pipeline::collect_training(&venues::training_office(1), &base, 10);
    samples.extend(pipeline::collect_training(&venues::training_open_space(2), &base, 11));
    let models = train(&samples).expect("training venues produce enough samples");

    let venue = venues::office("g3-office", 42, 50.0, 18.0);

    // Learn the transfer from paired scans (the "online-learned offset").
    let mut nexus = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 50);
    let mut g3 = SensorHub::new(&venue.world, DeviceProfile::lg_g3(), 50);
    let mut pairs = Vec::new();
    for p in venue.survey_points(6.0, 12.0) {
        let a = nexus.scan_wifi(p);
        let b = g3.scan_wifi(p);
        for (ra, rb) in a.readings.iter().zip(&b.readings) {
            if ra.0 == rb.0 {
                pairs.push((rb.1, ra.1));
            }
        }
    }
    let cal = RssiCalibration::learn(&pairs).expect("paired scans identify the transfer");
    println!(
        "learned calibration: rssi_ref = {:.3} * rssi_g3 + {:+.2} dB  ({} pairs)",
        cal.alpha,
        cal.delta,
        pairs.len()
    );

    for (label, calibration) in [("without calibration", None), ("with calibration", Some(cal))] {
        let cfg = PipelineConfig {
            device: DeviceProfile::lg_g3(),
            calibration,
            ..PipelineConfig::default()
        };
        let records = pipeline::run_walk(&venue, &models, &cfg, 60);
        let wifi: Vec<f64> =
            records.iter().filter_map(|r| r.scheme_error(SchemeId::Wifi)).collect();
        let uniloc2: Vec<f64> =
            records.iter().filter_map(|r| r.uniloc2_error).collect();
        println!("\n{label}:");
        println!(
            "  wifi    p50 {:5.2} m   p90 {:5.2} m",
            percentile(&wifi, 50.0).unwrap_or(f64::NAN),
            percentile(&wifi, 90.0).unwrap_or(f64::NAN),
        );
        println!(
            "  uniloc2 p50 {:5.2} m   p90 {:5.2} m",
            percentile(&uniloc2, 50.0).unwrap_or(f64::NAN),
            percentile(&uniloc2, 90.0).unwrap_or(f64::NAN),
        );
    }
    println!("\npaper: calibration recovers most of the heterogeneity loss, and UniLoc");
    println!("assimilates the gain of the per-scheme heterogeneity handling (Fig. 8d).");
}
