//! End-to-end determinism: the entire pipeline — training-data collection,
//! error-model fitting, and a full localization walk — must be a pure
//! function of its seeds. This is the property every golden-trace and
//! regression test in the workspace leans on, and what the in-repo
//! `uniloc-rng` substrate guarantees (see DESIGN.md, "Deterministic
//! randomness").

use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::campus;

/// Runs the full train-then-localize pipeline and returns the walk trace
/// serialized to JSON — the same bytes `uniloc run --json` would emit.
fn pipeline_trace(seed: u64) -> String {
    let cfg = PipelineConfig::default();
    let models =
        pipeline::train_standard_models(seed).expect("training venues produce enough samples");
    let records = pipeline::run_walk(&campus::daily_path(seed), &models, &cfg, seed + 100);
    assert!(!records.is_empty(), "walk produced no epochs");
    uniloc::stats::json::to_string(&records)
}

#[test]
fn same_seed_reproduces_byte_identical_traces() {
    let a = pipeline_trace(17);
    let b = pipeline_trace(17);
    assert!(a == b, "same-seed pipeline runs diverged");
}

#[test]
fn different_seeds_diverge() {
    let a = pipeline_trace(17);
    let b = pipeline_trace(18);
    assert!(a != b, "different seeds produced identical traces");
}
