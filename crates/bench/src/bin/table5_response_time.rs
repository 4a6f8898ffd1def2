//! Table V — response-time decomposition for one location estimate.
//!
//! Paper targets: schemes run on the server in parallel so the slowest
//! (fusion, 5.6 ms) dominates compute; UniLoc adds only ~6.1 ms (error
//! prediction 6.0 ms + BMA 0.1 ms); transmissions are ~73% of the total.
//!
//! This binary also *measures* the two UniLoc-added stages on this machine
//! by timing the real implementations, and prints the model both with the
//! paper's constants and with the measured values.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin table5_response_time`

use std::time::Instant;
use uniloc_bench::trained_models;
use uniloc_core::confidence::{adaptive_tau, confidence};
use uniloc_core::error_model::ErrorPrediction;
use uniloc_core::response::ResponseTimeModel;
use uniloc_iodetect::IoState;
use uniloc_schemes::SchemeId;

fn print_model(title: &str, model: &ResponseTimeModel) {
    let r = model.report();
    println!("\n-- {title} --");
    println!("  phone sensing + preprocess : {:7.2} ms", model.phone_ms);
    println!("  upload                     : {:7.2} ms", model.upload_ms);
    for (id, ms) in &model.scheme_ms {
        println!("  server compute {id:<10}  : {ms:7.2} ms (parallel)");
    }
    println!("  error prediction           : {:7.3} ms", model.error_prediction_ms);
    println!("  BMA                        : {:7.3} ms", model.bma_ms);
    println!("  download                   : {:7.2} ms", model.download_ms);
    println!("  ------------------------------------");
    println!("  slowest scheme             : {:7.2} ms", r.slowest_scheme_ms);
    println!("  total                      : {:7.2} ms", r.total_ms);
    println!("  transmissions              : {:6.1}% of total", r.transmission_fraction * 100.0);
    println!("  UniLoc-added computation   : {:7.3} ms", model.uniloc_added_ms());
}

fn main() {
    uniloc_bench::init_obs();
    println!("Table V — response time for one location estimate");

    // Measure the real error-prediction stage: five schemes x predict.
    let models = trained_models(1);
    let features: [(SchemeId, Vec<f64>); 5] = [
        (SchemeId::Gps, vec![]),
        (SchemeId::Wifi, vec![2.0, 4.0]),
        (SchemeId::Cellular, vec![2.0, 4.0, 4.0]),
        (SchemeId::Motion, vec![30.0, 3.0]),
        (SchemeId::Fusion, vec![30.0, 3.0, 2.0]),
    ];
    const ITERS: u32 = 100_000;
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..ITERS {
        for (id, f) in &features {
            let io = if f.is_empty() { IoState::Outdoor } else { IoState::Indoor };
            if let Some(p) = models.predict(*id, io, f) {
                acc += p.mean;
            }
        }
    }
    let errpred_ms = t0.elapsed().as_secs_f64() * 1000.0 / ITERS as f64;

    // Measure the real BMA stage: tau, confidences, weights, weighted mean.
    let preds: Vec<ErrorPrediction> = vec![
        ErrorPrediction { mean: 13.5, sigma: 9.4 },
        ErrorPrediction { mean: 3.0, sigma: 4.7 },
        ErrorPrediction { mean: 8.0, sigma: 8.2 },
        ErrorPrediction { mean: 2.5, sigma: 1.2 },
        ErrorPrediction { mean: 2.0, sigma: 0.9 },
    ];
    let positions = [(5.0, 5.0), (6.0, 4.0), (9.0, 8.0), (5.5, 4.5), (5.8, 4.9)];
    let t0 = Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..ITERS {
        let tau = adaptive_tau(&preds).unwrap();
        let confs: Vec<f64> = preds.iter().map(|&p| confidence(p, tau)).collect();
        let total: f64 = confs.iter().sum();
        let mut x = 0.0;
        let mut y = 0.0;
        for (c, (px, py)) in confs.iter().zip(positions) {
            x += c / total * px;
            y += c / total * py;
        }
        sink += x + y;
    }
    let bma_ms = t0.elapsed().as_secs_f64() * 1000.0 / ITERS as f64;
    // Keep the optimizer honest.
    assert!(acc.is_finite() && sink.is_finite());

    print_model("paper-calibrated constants", &ResponseTimeModel::default());
    print_model(
        "with UniLoc stages measured on this machine",
        &ResponseTimeModel::default().with_measured(errpred_ms, bma_ms),
    );
    println!("\nmeasured: error prediction {errpred_ms:.4} ms, BMA {bma_ms:.4} ms per fix");
    println!("paper: error prediction 6.0 ms, BMA 0.1 ms on their workstation; both are");
    println!("'light-weight, as they only involve simple linear calculation'.");
}
