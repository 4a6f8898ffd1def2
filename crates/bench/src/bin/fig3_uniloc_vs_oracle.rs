//! Fig. 3 — oracle vs UniLoc along the daily path.
//!
//! "UniLoc1 can find the best localization scheme and UniLoc2 outperforms
//! the oracle at many locations, especially in the outdoor environments,
//! where the localization errors of individual schemes are large."
//!
//! Run with: `cargo run --release -p uniloc-bench --bin fig3_uniloc_vs_oracle`

use uniloc_bench::{station_series, system_errors, trained_models};
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_env::campus;

fn main() {
    uniloc_bench::init_obs();
    let cfg = PipelineConfig::default();
    let models = trained_models(1);
    let scenario = campus::daily_path(3);
    let records = pipeline::run_walk(&scenario, &models, &cfg, 12);

    println!("Fig. 3 — oracle vs UniLoc along the daily path (10 m buckets)");
    for label in ["oracle", "uniloc1", "uniloc2"] {
        let errors = system_errors(&records, label);
        let series = station_series(&records, &errors, 10.0);
        let cells: Vec<String> =
            series.iter().map(|(s, e)| format!("({s:.0},{e:.1})")).collect();
        println!("{label:<8} {}", cells.join(" "));
    }

    // Where does UniLoc2 beat the oracle?
    let mut beats = 0usize;
    let mut beats_outdoor = 0usize;
    let mut outdoor_total = 0usize;
    let mut total = 0usize;
    for r in &records {
        if let (Some(o), Some(u2)) = (r.oracle_error, r.uniloc2_error) {
            total += 1;
            if !r.indoor {
                outdoor_total += 1;
            }
            if u2 < o {
                beats += 1;
                if !r.indoor {
                    beats_outdoor += 1;
                }
            }
        }
    }
    println!(
        "\nUniLoc2 beats the oracle at {:.1}% of locations ({:.1}% of outdoor ones)",
        beats as f64 / total as f64 * 100.0,
        if outdoor_total > 0 { beats_outdoor as f64 / outdoor_total as f64 * 100.0 } else { 0.0 },
    );
    println!("paper: combining can beat the best single scheme because the other");
    println!("schemes pull the combined result closer to the true location.");
}
