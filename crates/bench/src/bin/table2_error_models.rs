//! Table II — error-model coefficients for the four feature-driven schemes
//! (WiFi, cellular, motion, fusion), indoor and outdoor, plus the GPS
//! constant model.
//!
//! The paper reports, per scheme: coefficient estimates, p-values, residual
//! mean `mu_eps`, residual deviation `sigma_eps` and `R^2`; its headline
//! checks are (1) at least two features per scheme with p < 0.05, (2)
//! residual mean near zero, (3) R^2 >= ~0.85 for motion/fusion while WiFi /
//! cellular R^2 are low yet *sufficient for ranking schemes*.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin table2_error_models`

use uniloc_bench::trained_models;
use uniloc_core::error_model::ErrorModelSet;
use uniloc_iodetect::IoState;
use uniloc_schemes::SchemeId;

fn feature_names(id: SchemeId, io: IoState) -> Vec<&'static str> {
    match (id, io) {
        (SchemeId::Wifi, _) => vec!["fp density (b1)", "rssi dist dev (b2)"],
        (SchemeId::Cellular, _) => {
            vec!["fp density (b1)", "rssi dist dev (b2)", "audible towers (b3)"]
        }
        (SchemeId::Motion, _) => vec!["dist from landmark (b1)", "corridor width (b2)"],
        (SchemeId::Fusion, IoState::Indoor) => {
            vec!["dist from landmark (b1)", "corridor width (b2)", "fp density (b3)"]
        }
        (SchemeId::Fusion, IoState::Outdoor) => {
            vec!["dist from landmark (b1)", "corridor width (b2)"]
        }
        _ => vec![],
    }
}

fn print_models(models: &ErrorModelSet) {
    for io in [IoState::Indoor, IoState::Outdoor] {
        println!("\n--- {io} models ---");
        for id in SchemeId::BUILTIN {
            let Some(m) = models.model(id, io) else {
                println!("{id:<9}  (no model — scheme unavailable in this environment)");
                continue;
            };
            println!(
                "{id:<9}  n={:<5} mu_eps={:+6.3}  sigma_eps={:6.2}  R^2={:5.2}  intercept={:6.2}",
                m.n_obs, m.residual_mean, m.sigma, m.r_squared, m.intercept
            );
            let names = feature_names(id, io);
            for ((name, c), p) in names.iter().zip(&m.coefficients).zip(&m.p_values) {
                let sig = if *p < 0.05 { "significant" } else { "not significant" };
                println!("           {name:<24} estimate={c:+8.3}  p={p:7.4}  ({sig})");
            }
        }
    }
}

fn main() {
    uniloc_bench::init_obs();
    println!("Table II — error-model coefficients (trained in the office + open space)");
    let models = trained_models(1);
    print_models(&models);

    // The paper's appropriateness checks.
    println!("\nmodel appropriateness checks:");
    for io in [IoState::Indoor, IoState::Outdoor] {
        for id in [SchemeId::Wifi, SchemeId::Cellular, SchemeId::Motion, SchemeId::Fusion] {
            if let Some(m) = models.model(id, io) {
                let significant = m.p_values.iter().filter(|&&p| p < 0.05).count();
                let mu_ok = m.residual_mean.abs() < 1.0;
                println!(
                    "  {io} {id:<9} significant features: {significant}/{}  residual mean near zero: {}",
                    m.p_values.len(),
                    if mu_ok { "yes" } else { "NO" },
                );
            }
        }
    }
    println!("\npaper targets: motion/fusion R^2 high (>=0.7-0.85); wifi/cellular R^2 low");
    println!("but sufficient, since UniLoc only needs *relative* errors to rank schemes.");
}
