//! Fig. 2 — localization error of the five schemes (and the oracle) along
//! the daily path.
//!
//! "We run five typical localization programs independently on a smartphone
//! along with a daily walking path [...] 320 meters and composed of
//! different segments." The figure's observations to reproduce:
//!
//! 1. no single scheme covers the whole path with stable performance, and
//! 2. schemes complement each other — the cellular scheme wins ~15% of
//!    locations, concentrated in the basement where WiFi and GPS are dead.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin fig2_motivation`

use uniloc_bench::{
    fmt_opt, mean_defined, print_table, station_series, system_errors, trained_models,
    SYSTEM_LABELS,
};
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_env::campus;
use uniloc_schemes::SchemeId;

fn main() {
    uniloc_bench::init_obs();
    let cfg = PipelineConfig::default();
    // Models are needed only for UniLoc's own columns; the five schemes and
    // the oracle are model-free.
    let models = trained_models(1);
    let scenario = campus::daily_path(3);
    let records = pipeline::run_walk(&scenario, &models, &cfg, 12);

    println!("Fig. 2 — error along the daily path ({} m)", scenario.route.length());
    println!("segments: office 0-50, semi-open corridor 50-130, basement 130-190,");
    println!("          car park 190-240, open space 240-320\n");

    // Error-vs-station series per scheme (10 m buckets).
    for label in ["gps", "wifi", "cellular", "motion", "fusion", "oracle"] {
        let errors = system_errors(&records, label);
        let series = station_series(&records, &errors, 10.0);
        let cells: Vec<String> =
            series.iter().map(|(s, e)| format!("({s:.0},{e:.1})")).collect();
        println!("{label:<9} {}", cells.join(" "));
    }

    // Mean error and availability per system.
    let rows: Vec<Vec<String>> = SYSTEM_LABELS
        .iter()
        .map(|label| {
            let errors = system_errors(&records, label);
            let avail =
                errors.iter().filter(|e| e.is_some()).count() as f64 / errors.len() as f64;
            vec![
                (*label).to_owned(),
                fmt_opt(mean_defined(&errors), 2),
                format!("{:.1}%", avail * 100.0),
            ]
        })
        .collect();
    print_table("mean error over the path", &["system", "mean (m)", "avail"], &rows);

    // Observation 2: who wins where? (oracle choice shares, and where the
    // cellular wins sit).
    let total = records.iter().filter(|r| r.oracle_choice.is_some()).count();
    println!("\noracle winner share (paper: cellular wins ~15%, mostly in the basement):");
    for id in SchemeId::BUILTIN {
        let wins = records.iter().filter(|r| r.oracle_choice == Some(id)).count();
        let basement_wins = records
            .iter()
            .filter(|r| {
                r.oracle_choice == Some(id)
                    && scenario.kind_at_station(r.station) == uniloc_env::EnvKind::Basement
            })
            .count();
        println!(
            "  {id:<9} {:5.1}%   (of which basement: {:4.1}% of all locations)",
            wins as f64 / total as f64 * 100.0,
            basement_wins as f64 / total as f64 * 100.0
        );
    }
}
