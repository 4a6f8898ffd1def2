//! The chaos sweep: a deterministic scenario × fault-plan resilience
//! matrix, shared by `uniloc chaos` and the differential test suite.
//!
//! Each cell injects one library fault plan into the exact frame stream
//! the clean walk consumes ([`pipeline::walk_frames`] +
//! [`uniloc_faults::FaultInjector`]), replays it through
//! [`pipeline::run_walk_on_frames`], and reports the error-CDF shift
//! against the clean run, the worst/final degradation-ladder state,
//! non-finite fused estimates (must always be zero), which schemes were
//! quarantined and how many epochs past the last fault window the engine
//! needed to re-admit them.
//!
//! The sweep fans out on [`uniloc_core::parallel::run_observed`]: phase A
//! runs the scenarios' frame generation + clean walks in parallel, phase B
//! runs every (scenario, plan) cell in parallel. Every job executes under
//! an isolated observability session and all outputs — reports, violation
//! list, merged sidecar, progress lines — are assembled on the caller's
//! thread in canonical cell order, so the sweep's results are
//! byte-identical at any `jobs` count (`tests/parallel_differential.rs`
//! holds this at jobs ∈ {1, 2, 4, 8}).

use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::parallel::run_observed;
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_env::{campus, venues, Scenario};
use uniloc_faults::{FaultInjector, FaultPlan};
use uniloc_obs::SessionCapture;
use uniloc_stats::json::{float, Json, ToJson};

/// Resolves the CLI scenario vocabulary (`path1`..`path8`, `mall`,
/// `open-space`, `office`) to a concrete [`Scenario`].
pub fn scenario_by_name(name: &str, seed: u64) -> Result<Scenario, String> {
    match name {
        "path1" | "path2" | "path3" | "path4" | "path5" | "path6" | "path7" | "path8" => {
            Ok(campus::path(name[4..].parse().expect("digit-suffixed name"), seed))
        }
        "mall" => Ok(venues::shopping_mall(seed, 1).swap_remove(0)),
        "open-space" => Ok(venues::urban_open_space(seed, 1).swap_remove(0)),
        "office" => Ok(venues::office("cli-office", seed, 50.0, 18.0)),
        other => Err(format!("unknown scenario `{other}` (try `uniloc scenarios`)")),
    }
}

/// One chaos run's resilience summary (one scenario × one fault plan).
pub struct ChaosOutcome {
    pub plan: String,
    pub epochs: usize,
    pub injected_events: usize,
    pub clean_mean: Option<f64>,
    pub faulted_mean: Option<f64>,
    pub mean_shift: Option<f64>,
    pub p50_shift: Option<f64>,
    pub p90_shift: Option<f64>,
    pub worst_ladder: String,
    pub final_ladder: String,
    pub lost_terminal: bool,
    pub nonfinite_fused: usize,
    pub quarantined_epochs: usize,
    pub schemes_quarantined: Vec<String>,
    pub epochs_to_recover: Option<usize>,
    pub recovered: bool,
}

uniloc_stats::impl_json_struct!(ChaosOutcome {
    plan,
    epochs,
    injected_events,
    clean_mean as "clean_mean_m" with float,
    faulted_mean as "faulted_mean_m" with float,
    mean_shift as "mean_shift_m" with float,
    p50_shift as "p50_shift_m" with float,
    p90_shift as "p90_shift_m" with float,
    worst_ladder,
    final_ladder,
    lost_terminal,
    nonfinite_fused,
    quarantined_epochs,
    schemes_quarantined,
    epochs_to_recover,
    recovered,
});

/// The fused error of one epoch: UniLoc2 when available, UniLoc1 otherwise
/// (mirroring the engine's own degradation order).
pub fn fused_error(r: &EpochRecord) -> Option<f64> {
    r.uniloc2_error.or(r.uniloc1_error)
}

/// `q`-quantile of a sorted slice (nearest-rank); `None` when empty.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// (mean, p50, p90) of the finite fused errors in `records`.
pub fn error_stats(records: &[EpochRecord]) -> (Option<f64>, Option<f64>, Option<f64>) {
    let mut errs: Vec<f64> =
        records.iter().filter_map(fused_error).filter(|e| e.is_finite()).collect();
    errs.sort_by(|a, b| a.total_cmp(b));
    let mean = if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    };
    (mean, percentile(&errs, 0.5), percentile(&errs, 0.9))
}

/// The schemes a walk ever quarantined, in first-seen order.
pub fn quarantined_schemes(records: &[EpochRecord]) -> Vec<String> {
    let mut schemes: Vec<String> = Vec::new();
    for id in records.iter().flat_map(|r| &r.quarantined) {
        let s = id.to_string();
        if !schemes.contains(&s) {
            schemes.push(s);
        }
    }
    schemes
}

/// Sweep parameters, fully determining the output artifacts.
pub struct ChaosConfig {
    pub seed: u64,
    pub scenario_names: Vec<String>,
    pub plans: Vec<FaultPlan>,
    /// Worker-thread count for the fan-out; `1` runs everything inline on
    /// the caller's thread. The artifacts are identical at any value.
    pub jobs: usize,
}

/// One scenario's finished report.
pub struct ChaosReport {
    /// The scenario's display name (`scenario.name`, e.g. `cli-office`).
    pub scenario: String,
    /// The canonical (sorted-key) report document.
    pub report: Json,
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// The artifact filename this report is written to: `CHAOS_<name>.json`
    /// with path separators and spaces flattened.
    pub fn file_name(&self) -> String {
        format!("CHAOS_{}.json", self.scenario.replace(['/', ' '], "_"))
    }
}

/// The sweep's complete output: per-scenario reports in request order, the
/// resilience-contract violations in canonical cell order, and the merged
/// observability sidecar of every job.
pub struct ChaosSweep {
    pub reports: Vec<ChaosReport>,
    pub violations: Vec<String>,
    pub obs: SessionCapture,
}

/// Per-scenario output of phase A: the frame stream every cell replays and
/// the clean baseline it is scored against.
struct ScenarioBase {
    scenario: Scenario,
    frames: Vec<uniloc_sensors::SensorFrame>,
    clean_epochs: usize,
    clean_mean: Option<f64>,
    clean_p50: Option<f64>,
    clean_p90: Option<f64>,
}

/// Runs the scenario × plan matrix and assembles every output in
/// canonical order. Progress lines are emitted from the caller's thread
/// after each phase merges, so stderr output is deterministic too.
///
/// # Errors
///
/// Returns the first unknown scenario name, in request order.
pub fn run_sweep(
    models: &ErrorModelSet,
    cfg: &PipelineConfig,
    sweep: &ChaosConfig,
) -> Result<ChaosSweep, String> {
    let seed = sweep.seed;
    let jobs = sweep.jobs.max(1);

    // Phase A: per-scenario frame generation + clean baseline walk.
    let (bases, obs_a) = run_observed(&sweep.scenario_names, jobs, |_, name| {
        let scenario = scenario_by_name(name, seed)?;
        let frames = pipeline::walk_frames(&scenario, cfg, seed + 100);
        let clean = pipeline::run_walk_on_frames(&scenario, models, cfg, seed + 100, &frames);
        let (clean_mean, clean_p50, clean_p90) = error_stats(&clean);
        Ok(ScenarioBase {
            scenario,
            frames,
            clean_epochs: clean.len(),
            clean_mean,
            clean_p50,
            clean_p90,
        })
    });
    let bases: Vec<ScenarioBase> = bases.into_iter().collect::<Result<_, String>>()?;
    for base in &bases {
        uniloc_obs::info!(
            "chaos: {} — {} epochs, {} plan(s)",
            base.scenario.name,
            base.frames.len(),
            sweep.plans.len()
        );
    }

    // Phase B: every (scenario, plan) cell, scenario-major order.
    let cells: Vec<(usize, usize)> = (0..bases.len())
        .flat_map(|s| (0..sweep.plans.len()).map(move |p| (s, p)))
        .collect();
    let (outcomes, obs_b) = run_observed(&cells, jobs, |_, &(s, p)| {
        run_cell(&bases[s], &sweep.plans[p], models, cfg, seed)
    });

    let mut obs = obs_a;
    obs.merge(&obs_b).map_err(|e| format!("observability merge failed: {e}"))?;

    // Assemble reports and the violation list in canonical cell order.
    let mut outcomes = outcomes.into_iter();
    let mut reports = Vec::with_capacity(bases.len());
    let mut violations = Vec::new();
    for base in &bases {
        let scenario_outcomes: Vec<ChaosOutcome> =
            outcomes.by_ref().take(sweep.plans.len()).collect();
        for outcome in &scenario_outcomes {
            uniloc_obs::info!(
                "  {:<16} events={:<4} shift mean {:+.1} m p90 {:+.1} m worst={} recover={}",
                outcome.plan,
                outcome.injected_events,
                outcome.mean_shift.unwrap_or(f64::NAN),
                outcome.p90_shift.unwrap_or(f64::NAN),
                outcome.worst_ladder,
                outcome
                    .epochs_to_recover
                    .map_or_else(|| "never".to_owned(), |e| format!("{e} epochs")),
            );
            let name = &base.scenario.name;
            if outcome.lost_terminal {
                violations
                    .push(format!("{}/{}: terminal ladder state is lost", name, outcome.plan));
            }
            if outcome.nonfinite_fused > 0 {
                violations.push(format!(
                    "{}/{}: {} non-finite fused estimate(s)",
                    name, outcome.plan, outcome.nonfinite_fused
                ));
            }
            if !outcome.recovered {
                violations.push(format!(
                    "{}/{}: quarantine never lifted after the fault window",
                    name, outcome.plan
                ));
            }
        }
        let report = Json::Obj(vec![
            ("scenario".into(), Json::Str(base.scenario.name.clone())),
            ("seed".into(), Json::Int(seed as i64)),
            ("epochs".into(), Json::Int(base.clean_epochs as i64)),
            ("clean_mean_m".into(), float::to_json(&base.clean_mean)),
            (
                "runs".into(),
                Json::Arr(scenario_outcomes.iter().map(ToJson::to_json).collect()),
            ),
        ])
        .canonical();
        reports.push(ChaosReport {
            scenario: base.scenario.name.clone(),
            report,
            outcomes: scenario_outcomes,
        });
    }

    Ok(ChaosSweep { reports, violations, obs })
}

/// One (scenario, plan) cell: inject, replay, score against the clean
/// baseline.
fn run_cell(
    base: &ScenarioBase,
    plan: &FaultPlan,
    models: &ErrorModelSet,
    cfg: &PipelineConfig,
    seed: u64,
) -> ChaosOutcome {
    // Each cell draws from its own fault stream, derived from the sweep
    // seed and the plan's index-free name — re-running the sweep
    // bit-reproduces every cell.
    let mut injector = FaultInjector::new(plan.clone(), plan.chaos_seed(seed))
        .with_geo_frame(*base.scenario.world.geo_frame());
    let faulted_frames = injector.inject_walk(&base.frames);
    let records =
        pipeline::run_walk_on_frames(&base.scenario, models, cfg, seed + 100, &faulted_frames);

    let (faulted_mean, faulted_p50, faulted_p90) = error_stats(&records);
    let nonfinite_fused =
        records.iter().filter_map(fused_error).filter(|e| !e.is_finite()).count();
    let worst = records.iter().map(|r| r.ladder).max().unwrap_or_default();
    let final_ladder = records.last().map(|r| r.ladder).unwrap_or_default();
    let quarantined_epochs = records.iter().filter(|r| !r.quarantined.is_empty()).count();
    let schemes_quarantined = quarantined_schemes(&records);
    // Recovery: epochs past the last fault window until the quarantine
    // set empties and stays empty through the end.
    let window_end =
        ((plan.last_window_end() * records.len() as f64).ceil() as usize).min(records.len());
    let clear_from = records
        .iter()
        .rposition(|r| !r.quarantined.is_empty())
        .map_or(window_end, |i| i + 1);
    let recovered = clear_from <= records.len().saturating_sub(1) || quarantined_epochs == 0;
    let epochs_to_recover = if quarantined_epochs == 0 {
        Some(0)
    } else if recovered {
        Some(clear_from.saturating_sub(window_end))
    } else {
        None
    };

    let sub = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => Some(a - b),
        _ => None,
    };
    ChaosOutcome {
        plan: plan.name.clone(),
        epochs: records.len(),
        injected_events: injector.events().len(),
        clean_mean: base.clean_mean,
        faulted_mean,
        mean_shift: sub(faulted_mean, base.clean_mean),
        p50_shift: sub(faulted_p50, base.clean_p50),
        p90_shift: sub(faulted_p90, base.clean_p90),
        worst_ladder: worst.to_string(),
        final_ladder: final_ladder.to_string(),
        lost_terminal: final_ladder == uniloc_core::DegradationLadder::Lost,
        nonfinite_fused,
        quarantined_epochs,
        schemes_quarantined,
        epochs_to_recover,
        recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lookup() {
        assert_eq!(scenario_by_name("path1", 1).unwrap().name, "path1");
        assert_eq!(scenario_by_name("path5", 1).unwrap().name, "path5");
        assert!(scenario_by_name("mall", 1).unwrap().name.starts_with("mall"));
        assert!(scenario_by_name("mars", 1).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), Some(3.0));
    }

    #[test]
    fn sweep_rejects_unknown_scenario() {
        let models = ErrorModelSet::default();
        let cfg = PipelineConfig::default();
        let sweep = ChaosConfig {
            seed: 1,
            scenario_names: vec!["mars".to_owned()],
            plans: FaultPlan::smoke_library(),
            jobs: 2,
        };
        let err = match run_sweep(&models, &cfg, &sweep) {
            Ok(_) => panic!("unknown scenario must fail"),
            Err(e) => e,
        };
        assert!(err.contains("mars"), "{err}");
    }
}
