//! Tier-1 regression: the steady-state epoch loop performs no heap
//! allocation.
//!
//! The alloc observatory attributes every allocation made inside an
//! `engine.update` span tree to its pipeline stage, and splits the count
//! into warmup (the first [`uniloc_obs::alloc::STEADY_WARMUP_EPOCHS`]
//! epochs, where scratch buffers legitimately grow to their high-water
//! marks) and steady state. After the indexed-matching + scratch-reuse
//! work, a clean walk's steady state must allocate *nothing*: every
//! per-epoch buffer — feature vectors, fingerprint matches, particle
//! snapshots, scheme reports, the exclusion set — is recycled.
//!
//! This is a regression tripwire, not a benchmark: any new `Vec`,
//! `format!` or `clone()` on the per-epoch path shows up here as a
//! nonzero steady count with its stage name attached.

use std::sync::Arc;

use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_core::Session;
use uniloc_env::venues;
use uniloc_obs::session::{install, ObsSession};

/// Steady-state allocations tolerated per walk. Zero: the epoch loop is
/// allocation-free once warm.
const STEADY_ALLOC_BUDGET: u64 = 0;

fn counter(capture: &uniloc_obs::session::SessionCapture, name: &str) -> u64 {
    capture.metrics.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
}

#[test]
fn steady_state_epoch_loop_is_allocation_free() {
    let cfg = PipelineConfig::default();
    let models =
        pipeline::train_standard_models(7).expect("training venues produce enough samples");

    let scenario = venues::office("zero-alloc", 21, 40.0, 15.0);
    let frames = pipeline::walk_frames(&scenario, &cfg, 22);
    assert!(frames.len() > 20, "walk too short to exercise steady state");

    let mut obs = ObsSession::isolated();
    obs.alloc_tracking = true;
    let session = Arc::new(obs);
    let _guard = install(Arc::clone(&session));

    let mut walk = Session::new(Arc::new(scenario), &models, &cfg, 23);
    for f in &frames {
        walk.step(f);
    }

    let capture = session.capture();
    let steady_epochs = counter(&capture, "alloc.steady_epochs");
    let steady_allocs = counter(&capture, "alloc.steady.allocs");
    assert!(
        steady_epochs as usize >= frames.len() - 3,
        "steady meter missed epochs: {steady_epochs} of {}",
        frames.len()
    );
    if steady_allocs > STEADY_ALLOC_BUDGET {
        // Attribute the regression before failing: list every stage that
        // allocated at all (warmup included) so the offending code path
        // is named in the assertion message.
        let mut stages: Vec<(String, u64)> = capture
            .metrics
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("alloc.allocs."))
            .map(|(n, v)| (n.clone(), *v))
            .collect();
        stages.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        panic!(
            "steady-state epoch loop allocated {steady_allocs} time(s) over \
             {steady_epochs} steady epochs (budget {STEADY_ALLOC_BUDGET}); \
             allocating stages (warmup included): {stages:?}"
        );
    }
}
