//! Energy-aware localization: Section IV-C's techniques in action.
//!
//! UniLoc predicts GPS error *without touching the receiver* (the outdoor
//! model is a constant), powers GPS only when it would be the most accurate
//! scheme, and offloads particle filtering to a server. This example prints
//! the whole-phone power budget for every system and the response-time
//! decomposition of one fix.
//!
//! Run with: `cargo run --release --example energy_aware`

use uniloc::core::energy;
use uniloc::core::error_model::train;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::core::response::ResponseTimeModel;
use uniloc::env::campus;
use uniloc::schemes::SchemeId;

fn main() {
    let cfg = PipelineConfig::default();
    let mut samples =
        pipeline::collect_training(&uniloc::env::venues::training_office(1), &cfg, 10);
    samples.extend(pipeline::collect_training(
        &uniloc::env::venues::training_open_space(2),
        &cfg,
        11,
    ));
    let models = train(&samples).expect("training venues produce enough samples");

    let scenario = campus::daily_path(3);
    println!("walking {} ({} m) ...", scenario.name, scenario.route.length());
    let records = pipeline::run_walk(&scenario, &models, &cfg, 12);

    println!("\nwhole-phone power while localizing:");
    println!("{:<16}{:>12}{:>10}{:>12}", "system", "power (mW)", "time (s)", "energy (J)");
    for row in energy::tabulate(&records) {
        println!(
            "{:<16}{:>12.0}{:>10.1}{:>12.1}",
            row.system, row.power_mw, row.time_s, row.energy_j
        );
    }
    let motion = energy::scheme_power_mw(SchemeId::Motion);
    let duty =
        records.iter().filter(|r| r.gps_enabled).count() as f64 / records.len() as f64;
    println!(
        "\nUniLoc runs {} schemes for {:+.1}% over the cheapest one (GPS duty {:.1}%).",
        SchemeId::BUILTIN.len(),
        (energy::uniloc_power_mw(duty) / motion - 1.0) * 100.0,
        duty * 100.0
    );

    let response = ResponseTimeModel::default().report();
    println!("\nresponse time for one fix:");
    println!("  slowest scheme (server, parallel): {:5.1} ms", response.slowest_scheme_ms);
    println!("  server total incl. UniLoc stages : {:5.1} ms", response.server_ms);
    println!("  transmissions                     : {:5.1} ms", response.transmission_ms);
    println!("  end-to-end                        : {:5.1} ms", response.total_ms);
    println!(
        "  ({:.0}% of the budget is the radio link, not the algorithms)",
        response.transmission_fraction * 100.0
    );
}
