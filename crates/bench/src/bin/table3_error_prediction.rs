//! Table III — normalized RMSE of the online error prediction, per scheme,
//! for the four conditions {same place, new place} x {same device,
//! different device}.
//!
//! Paper targets (shape): average prediction nRMSE < ~0.49 with the same
//! device in the same place, rising to ~0.76 with a new device in new
//! places — imperfect, but enough to *rank* schemes.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin table3_error_prediction`

use uniloc_bench::{fmt_opt, learn_calibration, print_table, trained_models};
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_env::{venues, Scenario};
use uniloc_schemes::SchemeId;
use uniloc_sensors::DeviceProfile;
use uniloc_stats::normalized_rmse;

/// Pairs (predicted, actual) for one scheme across records.
fn prediction_pairs(records: &[EpochRecord], id: SchemeId) -> (Vec<f64>, Vec<f64>) {
    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    for r in records {
        if let (Some(p), Some(a)) = (r.prediction(id), r.scheme_error(id)) {
            predicted.push(p.mean);
            actual.push(a);
        }
    }
    (predicted, actual)
}

fn condition_nrmse(
    scenarios: &[Scenario],
    models: &uniloc_core::error_model::ErrorModelSet,
    device: DeviceProfile,
    calibrate: bool,
    seed: u64,
) -> Vec<(SchemeId, Option<f64>)> {
    let mut per_scheme: Vec<(SchemeId, Vec<f64>, Vec<f64>)> = SchemeId::BUILTIN
        .iter()
        .map(|&id| (id, Vec::new(), Vec::new()))
        .collect();
    for (i, sc) in scenarios.iter().enumerate() {
        let cfg = PipelineConfig {
            device,
            calibration: if calibrate { learn_calibration(sc, seed + 50 + i as u64) } else { None },
            ..PipelineConfig::default()
        };
        let records = pipeline::run_walk(sc, models, &cfg, seed + i as u64);
        for (id, preds, acts) in &mut per_scheme {
            let (p, a) = prediction_pairs(&records, *id);
            preds.extend(p);
            acts.extend(a);
        }
    }
    per_scheme
        .into_iter()
        .map(|(id, p, a)| {
            let n = if p.len() >= 20 { normalized_rmse(&p, &a).ok() } else { None };
            (id, n)
        })
        .collect()
}

fn main() {
    uniloc_bench::init_obs();
    println!("Table III — normalized RMSE of online error prediction");
    let models = trained_models(1);

    // Same places: the training venues themselves.
    let same_places = vec![venues::training_office(1), venues::training_open_space(2)];
    // New places: another office, the shopping mall and the urban open
    // space ("most of the testing environments (~89%) are different from
    // the places where the data were collected").
    let mut new_places = vec![venues::office("another-office", 77, 48.0, 18.0)];
    new_places.extend(venues::shopping_mall(78, 2));
    new_places.extend(venues::urban_open_space(79, 2));

    let conditions: [(&str, &[Scenario], DeviceProfile, bool); 4] = [
        ("same/sameDev", &same_places, DeviceProfile::nexus_5x(), false),
        ("same/diffDev", &same_places, DeviceProfile::lg_g3(), true),
        ("new/sameDev", &new_places, DeviceProfile::nexus_5x(), false),
        ("new/diffDev", &new_places, DeviceProfile::lg_g3(), true),
    ];

    let mut rows = Vec::new();
    let mut col_results: Vec<Vec<Option<f64>>> = Vec::new();
    for (i, (_, scenarios, device, calibrate)) in conditions.iter().enumerate() {
        let res = condition_nrmse(scenarios, &models, *device, *calibrate, 200 + 10 * i as u64);
        col_results.push(res.iter().map(|(_, n)| *n).collect());
    }
    for (row_idx, id) in SchemeId::BUILTIN.iter().enumerate() {
        let mut row = vec![id.to_string()];
        for col in &col_results {
            row.push(fmt_opt(col[row_idx], 2));
        }
        rows.push(row);
    }
    // Average row.
    let mut avg_row = vec!["average".to_owned()];
    for col in &col_results {
        let defined: Vec<f64> = col.iter().flatten().copied().collect();
        let avg = if defined.is_empty() {
            None
        } else {
            Some(defined.iter().sum::<f64>() / defined.len() as f64)
        };
        avg_row.push(fmt_opt(avg, 2));
    }
    rows.push(avg_row);

    print_table(
        "normalized RMSE (lower is better)",
        &["scheme", "same/sameD", "same/diffD", "new/sameD", "new/diffD"],
        &rows,
    );
    println!("\npaper targets: ~0.49 average for same place + device, ~0.76 for new");
    println!("place + device; prediction degrades away from training but stays usable.");
}
