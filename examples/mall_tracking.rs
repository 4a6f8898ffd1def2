//! Domain scenario: track a shopper on a mall floor at basement level.
//!
//! The mall is the paper's hardest indoor venue: GPS is dead, only ~2 cell
//! towers are audible through the floor, and the error models were trained
//! in a different building — yet UniLoc keeps the shopper localized by
//! leaning on whichever scheme the context favors.
//!
//! Run with: `cargo run --release --example mall_tracking`

use uniloc::core::error_model::train;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::venues;
use uniloc::schemes::SchemeId;
use uniloc::stats::percentile;

fn main() {
    let cfg = PipelineConfig::default();
    println!("training error models (office + open space) ...");
    let mut samples = pipeline::collect_training(&venues::training_office(1), &cfg, 10);
    samples.extend(pipeline::collect_training(&venues::training_open_space(2), &cfg, 11));
    let models = train(&samples).expect("training venues produce enough samples");

    println!("tracking 5 shopper trajectories in the mall ...");
    let mut per_system: Vec<(String, Vec<f64>)> = Vec::new();
    let mut usage = vec![0usize; SchemeId::BUILTIN.len()];
    let mut epochs = 0usize;
    for (i, mall) in venues::shopping_mall(40, 5).into_iter().enumerate() {
        let records = pipeline::run_walk(&mall, &models, &cfg, 400 + i as u64 * 13);
        epochs += records.len();
        for r in &records {
            if let Some(choice) = r.uniloc1_choice {
                if let Some(idx) = SchemeId::BUILTIN.iter().position(|&s| s == choice) {
                    usage[idx] += 1;
                }
            }
        }
        for label in ["wifi", "cellular", "motion", "fusion", "uniloc2"] {
            let errs: Vec<f64> = records
                .iter()
                .filter_map(|r| match label {
                    "uniloc2" => r.uniloc2_error,
                    _ => {
                        let id = match label {
                            "wifi" => SchemeId::Wifi,
                            "cellular" => SchemeId::Cellular,
                            "motion" => SchemeId::Motion,
                            _ => SchemeId::Fusion,
                        };
                        r.scheme_error(id)
                    }
                })
                .collect();
            match per_system.iter_mut().find(|(l, _)| l == label) {
                Some((_, v)) => v.extend(errs),
                None => per_system.push((label.to_owned(), errs)),
            }
        }
    }

    println!("\nerrors over {epochs} epochs:");
    println!("{:<10}{:>10}{:>10}{:>10}", "system", "p50 (m)", "p90 (m)", "mean (m)");
    for (label, errs) in &per_system {
        if errs.is_empty() {
            println!("{label:<10}{:>10}{:>10}{:>10}", "-", "-", "-");
            continue;
        }
        let p50 = percentile(errs, 50.0).unwrap();
        let p90 = percentile(errs, 90.0).unwrap();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        println!("{label:<10}{p50:>10.2}{p90:>10.2}{mean:>10.2}");
    }

    println!("\nscheme selected by UniLoc1:");
    for (i, id) in SchemeId::BUILTIN.iter().enumerate() {
        println!("  {id:<10} {:5.1}%", usage[i] as f64 / epochs as f64 * 100.0);
    }
    println!("\n(the mall floor hears no GPS and few towers; WiFi and fusion carry it)");
}
