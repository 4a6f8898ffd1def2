//! Differential tests for the parallel sweep engine: every artifact a
//! sweep produces — chaos reports, per-epoch records, the merged
//! observability sidecar — must be byte-identical at any worker count.
//!
//! `--jobs 1` runs the historical inline code path; higher counts fan out
//! on `std::thread`. The engine's contract (see `DESIGN.md` §8) is that
//! the fan-out is invisible in every output, so each test runs the same
//! work at jobs ∈ {1, 2, 4, 8} and diffs the results against the
//! sequential baseline.

use uniloc::core::error_model::ErrorModelSet;
use uniloc::core::parallel::{run_observed, run_ordered};
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::venues;
use uniloc::faults::FaultPlan;
use uniloc_bench::chaos::{run_sweep, ChaosConfig};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn models(seed: u64) -> ErrorModelSet {
    pipeline::train_standard_models(seed).expect("training venues produce enough samples")
}

/// The full chaos sweep — reports, violation list, merged metrics,
/// merged calibration, flight lines — is identical at every job count.
#[test]
fn chaos_sweep_is_jobs_invariant() {
    let models = models(5);
    let cfg = PipelineConfig::default();
    let sweep_at = |jobs: usize| {
        run_sweep(
            &models,
            &cfg,
            &ChaosConfig {
                seed: 5,
                scenario_names: vec!["office".to_owned(), "path1".to_owned()],
                plans: FaultPlan::smoke_library(),
                jobs,
            },
        )
        .expect("sweep runs")
    };
    let baseline = sweep_at(1);
    let baseline_reports: Vec<(String, String)> = baseline
        .reports
        .iter()
        .map(|r| (r.file_name(), r.report.to_string_pretty()))
        .collect();
    for jobs in &JOB_COUNTS[1..] {
        let sweep = sweep_at(*jobs);
        let reports: Vec<(String, String)> = sweep
            .reports
            .iter()
            .map(|r| (r.file_name(), r.report.to_string_pretty()))
            .collect();
        assert_eq!(reports, baseline_reports, "report bytes differ at jobs={jobs}");
        assert_eq!(sweep.violations, baseline.violations, "violations differ at jobs={jobs}");
        assert_eq!(
            sweep.obs.metrics, baseline.obs.metrics,
            "merged metrics differ at jobs={jobs}"
        );
        assert_eq!(
            sweep.obs.calibration, baseline.obs.calibration,
            "merged calibration differs at jobs={jobs}"
        );
        assert_eq!(
            sweep.obs.flight_lines, baseline.obs.flight_lines,
            "flight lines differ at jobs={jobs}"
        );
    }
}

/// Per-epoch records from parallel walk fan-out equal the plain
/// sequential `run_walk` loop, scenario by scenario, at every job count.
#[test]
fn walk_records_match_sequential_at_all_job_counts() {
    let models = models(3);
    let cfg = PipelineConfig::default();
    let scenarios = vec![
        venues::office("diff-office", 3, 50.0, 18.0),
        venues::training_open_space(4),
    ];
    let sequential: Vec<Vec<pipeline::EpochRecord>> = scenarios
        .iter()
        .map(|s| pipeline::run_walk(s, &models, &cfg, 103))
        .collect();
    for jobs in JOB_COUNTS {
        let (parallel, _) = run_observed(&scenarios, jobs, |_, s| {
            pipeline::run_walk(s, &models, &cfg, 103)
        });
        assert_eq!(parallel, sequential, "records differ at jobs={jobs}");
    }
}

/// The merged observability sidecar is itself invariant in the worker
/// count: same counters, same histograms, same calibration cells.
#[test]
fn merged_obs_is_jobs_invariant_for_walks() {
    let models = models(3);
    let cfg = PipelineConfig::default();
    let scenarios = vec![
        venues::office("diff-obs-a", 3, 40.0, 15.0),
        venues::office("diff-obs-b", 4, 40.0, 15.0),
        venues::training_open_space(5),
    ];
    let (_, baseline) = run_observed(&scenarios, 1, |i, s| {
        pipeline::run_walk(s, &models, &cfg, 200 + i as u64)
    });
    for jobs in &JOB_COUNTS[1..] {
        let (_, obs) = run_observed(&scenarios, *jobs, |i, s| {
            pipeline::run_walk(s, &models, &cfg, 200 + i as u64)
        });
        assert_eq!(obs.metrics, baseline.metrics, "metrics differ at jobs={jobs}");
        assert_eq!(
            obs.calibration, baseline.calibration,
            "calibration differs at jobs={jobs}"
        );
        assert_eq!(obs.flight_lines, baseline.flight_lines, "flight differs at jobs={jobs}");
    }
}

/// With ≥ 4 real cores, the path1 sweep at `--jobs 4` beats the
/// sequential run by > 1.5×. Skipped (with a note) on smaller machines —
/// the CI container pins a single core, where the speedup is definitionally
/// unreachable and the differential assertions above carry the contract.
#[test]
fn parallel_speedup_on_multicore() {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup measurement: only {cores} core(s) available");
        return;
    }
    let models = models(3);
    let cfg = PipelineConfig::default();
    let scenarios: Vec<_> = (0..8u64)
        .map(|i| venues::office(&format!("speedup-{i}"), 10 + i, 50.0, 18.0))
        .collect();
    let timed = |jobs: usize| {
        let start = std::time::Instant::now();
        let _ = run_ordered(&scenarios, jobs, |i, s| {
            pipeline::run_walk(s, &models, &cfg, 300 + i as u64)
        });
        start.elapsed()
    };
    timed(1); // warm-up: touch every code path once
    let sequential = timed(1);
    let parallel = timed(4);
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    assert!(
        speedup > 1.5,
        "expected > 1.5x speedup at jobs=4 on {cores} cores, got {speedup:.2}x \
         (sequential {sequential:?}, parallel {parallel:?})"
    );
}
