//! Fig. 7 — CDF of localization error over all eight daily paths.
//!
//! Paper targets: UniLoc1 substantially beats every individual scheme;
//! UniLoc2 tolerates prediction uncertainty better and beats the oracle;
//! at the 50th percentile UniLoc1 reduces the fusion scheme's error ~1.4x
//! and UniLoc2 ~1.6x; the 90th percentile of UniLoc2 is ~5.8 m, ~1.8x
//! better than RADAR's 10.6 m (while motion/fusion blow up to ~15.3 m on
//! long unlandmarked outdoor stretches).
//!
//! Run with: `cargo run --release -p uniloc-bench --bin fig7_cdf_eight_paths`

use uniloc_bench::{
    cdf_summary, pooled_errors, print_cdf_series, print_table, trained_models, SYSTEM_LABELS,
};
use uniloc_core::pipeline::PipelineConfig;
use uniloc_env::{campus, GaitProfile};

fn main() {
    uniloc_bench::init_obs();
    let models = trained_models(1);

    println!("Fig. 7 — error CDF over the eight daily paths (3 walkers each)");
    let personas = GaitProfile::personas();
    let mut walks = Vec::new();
    let paths = campus::all_paths(3);
    for (i, scenario) in paths.iter().enumerate() {
        for (j, gait) in personas.iter().step_by(2).enumerate() {
            let cfg = PipelineConfig { gait: gait.clone(), ..PipelineConfig::default() };
            walks.push((scenario.clone(), cfg, 300 + i as u64 * 17 + j as u64 * 7));
        }
    }
    // The walks fan out on UNILOC_JOBS workers; records come back in the
    // same (path, persona) order the sequential loop produced.
    let runs = uniloc_bench::run_walks_parallel(&walks, &models);
    for scenario in &paths {
        println!("  walked {} ({:.0} m) with 3 personas", scenario.name, scenario.route.length());
    }

    println!("\nCDF series (error m, cumulative fraction):");
    for label in SYSTEM_LABELS {
        let errors = pooled_errors(&runs, label);
        print_cdf_series(label, &errors, 15);
    }

    let mut rows = Vec::new();
    for label in SYSTEM_LABELS {
        let errors = pooled_errors(&runs, label);
        match cdf_summary(&errors) {
            Some((p50, p90, mean)) => rows.push(vec![
                label.to_owned(),
                format!("{p50:.2}"),
                format!("{p90:.2}"),
                format!("{mean:.2}"),
                format!("{}", errors.len()),
            ]),
            None => rows.push(vec![label.to_owned(), "-".into(), "-".into(), "-".into(), "0".into()]),
        }
    }
    print_table("percentiles", &["system", "p50 (m)", "p90 (m)", "mean (m)", "n"], &rows);

    let summary = |label: &str| cdf_summary(&pooled_errors(&runs, label));
    if let (Some(f), Some(u1), Some(u2), Some(w)) =
        (summary("fusion"), summary("uniloc1"), summary("uniloc2"), summary("wifi"))
    {
        println!("\np50 reduction vs fusion:  uniloc1 {:.2}x   uniloc2 {:.2}x", f.0 / u1.0, f.0 / u2.0);
        println!("p90: uniloc2 {:.1} m vs wifi {:.1} m ({:.2}x) vs fusion {:.1} m ({:.2}x)",
            u2.1, w.1, w.1 / u2.1, f.1, f.1 / u2.1);
        println!("paper: p50 gains 1.4x (uniloc1) / 1.6x (uniloc2); p90 uniloc2 ~5.8 m.");
    }
}
