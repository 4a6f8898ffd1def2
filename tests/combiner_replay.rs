//! The combiner replays the engine bit for bit. Every record of Table IV's
//! eight campus walks, fed back through `confidence::{weigh, fuse}`, gives
//! back the engine's tau, BMA weights, UniLoc1 choice and error, and
//! UniLoc2 error. Offline recombination of recorded epochs (ROADMAP item 2)
//! rests on this.

use uniloc::core::confidence::{fuse, weigh};
use uniloc::core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc::env::campus;
use uniloc::schemes::SchemeId;

/// Recombines one record and names the first output that differs.
fn replay(r: &EpochRecord) -> Result<(), String> {
    let mut reports = r.reports();
    let tau = weigh(&mut reports, |s| {
        (s.id != SchemeId::Gps || r.gps_enabled) && !r.quarantined.contains(&s.id)
    });
    let fusion = fuse(&reports, &r.quarantined);
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let error = |p: Option<uniloc::geom::Point>| bits(p.map(|p| p.distance(r.truth)));
    let weights = reports.iter().map(|s| (s.id, s.weight.to_bits()));
    let checks = [
        ("tau", bits(tau) == bits(r.tau)),
        ("weights", weights.eq(r.weights.iter().map(|&(id, w)| (id, w.to_bits())))),
        ("uniloc1_choice", fusion.selected.map(|i| reports[i].id) == r.uniloc1_choice),
        ("uniloc1_error", error(fusion.uniloc1) == bits(r.uniloc1_error)),
        ("uniloc2_error", error(fusion.uniloc2()) == bits(r.uniloc2_error)),
    ];
    match checks.iter().find(|(_, same)| !same) {
        Some((field, _)) => Err(format!("{field} differs from the record")),
        None => Ok(()),
    }
}

#[test]
fn table4_walks_recombine_bit_for_bit() {
    let models = uniloc_bench::trained_models(1);
    let cfg = PipelineConfig::default();
    let (mut gps_on, mut quarantined) = (0, 0);
    for (i, scenario) in campus::all_paths(3).into_iter().enumerate() {
        let records = pipeline::run_walk(&scenario, &models, &cfg, 900 + i as u64 * 13);
        for r in &records {
            if let Err(e) = replay(r) {
                panic!("{} at t = {}: {e}", scenario.name, r.t);
            }
        }
        // Epochs where a participation gate changes the combiner's input:
        // the duty-cycled receiver on with a fix, a quarantined scheme
        // with an estimate.
        gps_on += records
            .iter()
            .filter(|r| r.gps_enabled && r.scheme_error(SchemeId::Gps).is_some())
            .count();
        quarantined += records
            .iter()
            .filter(|r| r.quarantined.iter().any(|&id| r.scheme_error(id).is_some()))
            .count();
    }
    assert!(gps_on > 0, "no walk turns the GPS receiver on");
    assert!(quarantined > 0, "no walk quarantines an available scheme");
}
