//! Fig. 5 — scheme usage: how often UniLoc1 selects each scheme vs how
//! often the oracle would.
//!
//! "The usage of different localization schemes in UniLoc1 is close to the
//! oracle. Even with imperfect online error prediction, UniLoc1 can make
//! the right selection, as long as the predicted error can distinguish the
//! accuracy of underlying schemes." The paper also notes WiFi usage is low
//! because the fusion scheme is selected instead when sensor data quality
//! is high.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin fig5_usage`

use uniloc_bench::{print_table, trained_models};
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_env::campus;
use uniloc_schemes::SchemeId;

fn main() {
    uniloc_bench::init_obs();
    let cfg = PipelineConfig::default();
    let models = trained_models(1);
    let scenario = campus::daily_path(3);
    let records = pipeline::run_walk(&scenario, &models, &cfg, 12);

    println!("Fig. 5 — scheme usage along the daily path");
    let total = records.len() as f64;
    let mut rows = Vec::new();
    for id in SchemeId::BUILTIN {
        let uniloc1 =
            records.iter().filter(|r| r.uniloc1_choice == Some(id)).count() as f64 / total;
        let oracle =
            records.iter().filter(|r| r.oracle_choice == Some(id)).count() as f64 / total;
        let bma_weight = records.iter().filter_map(|r| r.weight(id)).sum::<f64>() / total;
        rows.push(vec![
            id.to_string(),
            format!("{:.1}%", uniloc1 * 100.0),
            format!("{:.1}%", oracle * 100.0),
            format!("{:.1}%", bma_weight * 100.0),
        ]);
    }
    print_table(
        "usage share",
        &["scheme", "uniloc1", "oracle", "bma weight"],
        &rows,
    );

    // Agreement between UniLoc1 and the oracle.
    let agree = records
        .iter()
        .filter(|r| r.uniloc1_choice.is_some() && r.uniloc1_choice == r.oracle_choice)
        .count() as f64
        / total;
    println!("\nUniLoc1 picks the oracle's scheme at {:.1}% of locations.", agree * 100.0);
    println!("paper: usage distributions are close; occasional misselection is cheap");
    println!("because the top schemes are near each other when it happens.");

    // Cost of misselection: mean regret when UniLoc1 differs from oracle.
    let regrets: Vec<f64> = records
        .iter()
        .filter(|r| r.uniloc1_choice != r.oracle_choice)
        .filter_map(|r| match (r.uniloc1_error, r.oracle_error) {
            (Some(u), Some(o)) => Some(u - o),
            _ => None,
        })
        .collect();
    if !regrets.is_empty() {
        println!(
            "mean extra error when misselecting: {:.2} m over {} locations",
            regrets.iter().sum::<f64>() / regrets.len() as f64,
            regrets.len()
        );
    }
}
