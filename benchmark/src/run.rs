//! One run of one workload: set-up, the measured repetitions, the
//! correctness gate and, with `--trace 1`, the traced run, the Table V
//! post-pass and the obs-overhead pair.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use uniloc_bench::fleet::{
    atomic_write_json, fleet_specs, load_fleet_checkpoint, measure_obs_overhead, records_digest,
    run_fleet, run_fleet_durable, solo_records, FleetConfig, FleetOutcome, FleetRunOptions,
    SessionSpec, SessionSummary,
};
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::fleet::FleetRunStats;
use uniloc_core::parallel::run_ordered;
use uniloc_core::pipeline::PipelineConfig;
use uniloc_obs::fleet::{self as obsfleet, FleetSnapshot};
use uniloc_rng::Rng;
use uniloc_schemes::SchemeId;
use uniloc_stats::json::{Json, ToJson};

use crate::postpass;
use crate::report::{self, Metric, RunResult, SpanTotal};
use crate::stats::{self, percentile};
use crate::trace::{self, Tracer, NO_LANE};
use crate::traced::{self, fleet_digest};
use crate::workload::{CrashPlan, Scale, Workload, JOBS};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_p50_us", "us"),
    ("round_p90_ms", "ms"),
    ("mean_error_m", "m"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("build.venue.ms", "ms"),
    ("build.survey.ms", "ms"),
    ("build.frames.ms", "ms"),
    ("build.inject.ms", "ms"),
    ("build.session.ms", "ms"),
    ("build.frames_used_frac", "ratio"),
    ("build.survey_points", "count"),
    ("serve.step.p50_us", "us"),
    ("serve.step.p99_us", "us"),
    ("serve.step.sum_s", "s"),
    ("serve.engine.mean_us", "us"),
    ("serve.record.mean_us", "us"),
    ("scheme.gps.mean_us", "us"),
    ("scheme.wifi.mean_us", "us"),
    ("scheme.cellular.mean_us", "us"),
    ("scheme.motion.mean_us", "us"),
    ("scheme.fusion.mean_us", "us"),
    ("engine.other.mean_us", "us"),
    ("serve.allocs_per_epoch", "count"),
    ("sched.rounds", "count"),
    ("sched.round_p90_ms", "ms"),
    ("sched.busy_frac", "ratio"),
    ("sched.serial_frac", "ratio"),
    ("retire.digest.ms", "ms"),
    ("retire.stats.ms", "ms"),
    ("retire.aggregate.ms", "ms"),
    ("report.artifacts_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("resume.replay_epochs", "count"),
    ("resume_s", "s"),
    ("obs.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Untraced serves of the fleet in every measuring run, at the least. The
/// machine's speed drifts over minutes, so a run is kept short: a set of
/// runs spread over less time spreads less.
const MIN_REPS: usize = 2;

/// Lanes checked against a solo replay on every run.
const CHECKED_LANES: usize = 8;

/// Root spans that run on the scheduler's thread between rounds.
const MAIN_THREAD_SPANS: &[&str] = &[
    "setup.train",
    "setup.specs",
    "retire",
    "ckpt.cut",
    "ckpt.load",
    "verify.spotcheck",
    "report.artifacts",
];

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Results land in `<out>/<seed>/`.
    pub out: PathBuf,
}

/// Renders every artifact `uniloc fleet` writes, returning their size.
fn render_artifacts(report: &Json, snap: Option<&FleetSnapshot>) -> usize {
    let mut bytes = report.to_string_pretty().len();
    if let Some(snap) = snap {
        bytes += obsfleet::health_report(snap, &obsfleet::SloTargets::default())
            .to_string_pretty()
            .len();
        let tree = obsfleet::profile_tree(snap);
        bytes += obsfleet::folded_lines(&tree).len();
        bytes += obsfleet::profile_report(&tree).to_string_pretty().len();
        let heap = obsfleet::alloc_tree(snap);
        bytes += obsfleet::alloc_folded_lines(&heap).len();
        bytes += obsfleet::alloc_report(snap, &heap).to_string_pretty().len();
    }
    black_box(bytes)
}

/// One untraced repetition of the workload's fleet.
struct Rep {
    wall_s: f64,
    /// Load, restore, replay and finish of the resumed run.
    resume_s: f64,
    stats: FleetRunStats,
    summaries: Vec<SessionSummary>,
    digest: String,
    epochs: u64,
    failed: u64,
    resident_at_cut: Vec<u64>,
}

fn untraced_rep(
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    cfg: &FleetConfig,
    crash: Option<CrashPlan>,
    ckpt_path: &str,
) -> Result<Rep, String> {
    let start = Instant::now();
    let (result, resumed_at, resident_at_cut) = match crash {
        None => (run_fleet(models, base, cfg)?, None, Vec::new()),
        Some(c) => {
            let opts = FleetRunOptions {
                checkpoint_every: c.checkpoint_every,
                checkpoint_path: Some(ckpt_path.to_owned()),
                crash_after_rounds: Some(c.crash_after_rounds),
                ..FleetRunOptions::default()
            };
            match run_fleet_durable(models, base, cfg, opts)? {
                FleetOutcome::Crashed { rounds } if rounds == c.crash_after_rounds => {}
                _ => {
                    return Err(format!(
                        "the fleet did not crash at round {}",
                        c.crash_after_rounds
                    ))
                }
            }
            let resumed_at = Instant::now();
            let ckpt = load_fleet_checkpoint(ckpt_path)?;
            let resident: Vec<u64> = ckpt.resident.iter().map(|r| r.checkpoint.lane).collect();
            if resident.is_empty() {
                return Err("no walker was resident at the crash".to_owned());
            }
            let opts = FleetRunOptions {
                resume_from: Some(ckpt),
                ..FleetRunOptions::default()
            };
            match run_fleet_durable(models, base, cfg, opts)? {
                FleetOutcome::Completed(r) => (*r, Some(resumed_at), resident),
                FleetOutcome::Crashed { .. } => return Err("the resumed fleet crashed".to_owned()),
            }
        }
    };
    render_artifacts(&result.report, result.snapshot.as_ref());
    let wall_s = start.elapsed().as_secs_f64();
    let resume_s = resumed_at.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let poisoned = result
        .summaries
        .iter()
        .filter(|s| s.poisoned.is_some())
        .count();
    Ok(Rep {
        wall_s,
        resume_s,
        digest: result
            .report
            .get("fleet_digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
        epochs: result.summaries.iter().map(|s| s.epochs as u64).sum(),
        failed: (poisoned + result.violations.len()) as u64,
        stats: result.stats,
        summaries: result.summaries,
        resident_at_cut,
    })
}

/// The lanes checked against a solo replay: seed-chosen, and on
/// `crash-resume` half of them taken from the walkers resident at the cut.
fn checked_lanes(seed: u64, sessions: usize, resident_at_cut: &[u64]) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x00c0_ffee_5eed_1a9e);
    let mut sample = |pool: Vec<u64>, n: usize| {
        let mut pool = pool;
        let n = n.min(pool.len());
        for i in 0..n {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    };
    let want = CHECKED_LANES.min(sessions);
    let mut lanes = sample(resident_at_cut.to_vec(), want / 2);
    let rest: Vec<u64> = (0..sessions as u64)
        .filter(|l| !lanes.contains(l))
        .collect();
    lanes.extend(sample(rest, want - lanes.len()));
    lanes.sort_unstable();
    lanes
}

/// Replays the checked lanes solo and compares their digests with the
/// fleet's rows.
fn check_lanes(lanes: &[u64], rows: &[SessionSummary], setup: &Setup) -> Vec<String> {
    let solo = run_ordered(lanes, JOBS, |_, &lane| {
        let spec = &setup.specs[lane as usize];
        records_digest(&solo_records(
            spec,
            &setup.models,
            &setup.base,
            setup.cfg.max_epochs,
        ))
    });
    lanes
        .iter()
        .zip(solo)
        .filter_map(|(&lane, digest)| {
            let row = rows.iter().find(|s| s.spec.lane == lane);
            (row.map(|r| r.digest) != Some(digest))
                .then(|| format!("lane {lane}: fleet row differs from its solo replay"))
        })
        .collect()
}

/// Fleet mean of the per-session fused error.
fn mean_error_m(rows: &[SessionSummary]) -> f64 {
    let errs: Vec<f64> = rows.iter().filter_map(|s| s.mean_error).collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Collects metrics in declaration order and checks them against a list.
struct Metrics {
    list: &'static [(&'static str, &'static str)],
    values: Vec<Metric>,
}

impl Metrics {
    fn new(list: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            list,
            values: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let (_, unit) = self
            .list
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.push(Metric {
            name: name.to_owned(),
            value,
            unit: (*unit).to_owned(),
        });
    }

    fn finish(self) -> Vec<Metric> {
        for (name, _) in self.list {
            assert!(
                self.values.iter().any(|m| m.name == *name),
                "metric {name} was not measured"
            );
        }
        self.values
    }
}

fn epoch_ns(s: &FleetRunStats) -> &[u64] {
    &s.epoch_ns
}

fn round_ns(s: &FleetRunStats) -> &[u64] {
    &s.round_ns
}

fn pooled(runs: &[&FleetRunStats], f: impl Fn(&FleetRunStats) -> &[u64]) -> Vec<u64> {
    runs.iter().flat_map(|s| f(s).iter().copied()).collect()
}

/// Percentile `p` of `samples` divided by `divisor`. With `strict`, a
/// percentile whose tail is too thin is an error.
fn pct(samples: &[u64], p: f64, divisor: f64, name: &str, strict: bool) -> Result<f64, String> {
    let q = percentile(samples, p).ok_or_else(|| format!("{name}: no samples"))?;
    if strict && !q.supported {
        return Err(format!(
            "{name}: {} samples leave fewer than {} beyond p{p}",
            q.samples,
            stats::MIN_TAIL
        ));
    }
    Ok(q.value / divisor)
}

/// Whether the serves so far leave enough samples beyond every end-to-end
/// percentile: p50 of the fixes and p90 of the rounds.
fn tails_supported(reps: &[Rep]) -> bool {
    let count = |f: fn(&FleetRunStats) -> &[u64]| reps.iter().map(|r| f(&r.stats).len()).sum();
    stats::supported(count(epoch_ns), 50.0) && stats::supported(count(round_ns), 90.0)
}

/// Percentile `p` of one sample series over the repetitions, divided by
/// `divisor`: the median of each repetition's own percentile when every
/// repetition has enough samples beyond it, so one slow serve cannot move
/// it; otherwise (the rounds of `short-walks`) the percentile of every
/// repetition pooled.
fn rep_pct(
    runs: &[&FleetRunStats],
    series: impl Fn(&FleetRunStats) -> &[u64],
    p: f64,
    divisor: f64,
    name: &str,
    strict: bool,
) -> Result<f64, String> {
    let per_rep: Option<Vec<f64>> = runs
        .iter()
        .map(|s| {
            percentile(series(s), p)
                .filter(|q| q.supported)
                .map(|q| q.value)
        })
        .collect();
    match per_rep {
        Some(values) => Ok(stats::median(&values) / divisor),
        None => pct(&pooled(runs, series), p, divisor, name, strict),
    }
}

/// The run's fixed inputs.
struct Setup<'a> {
    opts: &'a Options,
    cfg: FleetConfig,
    crash: Option<CrashPlan>,
    base: PipelineConfig,
    models: Arc<ErrorModelSet>,
    specs: Vec<SessionSpec>,
    dir: PathBuf,
}

impl Setup<'_> {
    /// `<out>/<seed>/<workload><suffix>`.
    fn path(&self, suffix: &str) -> String {
        self.dir
            .join(format!("{}{suffix}", self.opts.workload.name()))
            .to_string_lossy()
            .into_owned()
    }
}

/// What the untraced repetitions measured.
struct Untraced {
    reps: Vec<Rep>,
    setup_s: Vec<f64>,
    train_s: Vec<f64>,
    /// Peak RSS after the first repetition; later repetitions reuse freed
    /// memory unevenly, so the first one's peak is the one that repeats.
    peak_rss_mb: f64,
}

/// Runs the workload and returns its result; `Err` means the run could not
/// be completed (a correctness failure still returns a result).
///
/// # Errors
///
/// Fleet, checkpoint and I/O failures.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let nproc = report::nproc();
    if JOBS > nproc {
        eprintln!("warning: {JOBS} workers on {nproc} core(s); timings include oversubscription");
    }
    let w = opts.workload;
    let cfg = w.fleet(opts.seed, opts.scale);
    let dir = opts.out.join(opts.seed.to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut errors: Vec<String> = Vec::new();

    // Set-up: model training and spec generation, several times.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut train_s = Vec::with_capacity(SETUP_REPS);
    let mut trained: Vec<ErrorModelSet> = Vec::with_capacity(SETUP_REPS);
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        trained.push(uniloc_bench::trained_models(opts.seed));
        train_s.push(t.elapsed().as_secs_f64());
        specs = fleet_specs(&cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    if trained.windows(2).any(|p| p[0] != p[1]) {
        errors.push("model training is not deterministic".to_owned());
    }
    let setup = Setup {
        opts,
        crash: w.crash(opts.scale),
        base: PipelineConfig::default(),
        models: Arc::new(trained.pop().expect("at least one set-up")),
        specs,
        dir,
        cfg,
    };

    // Measured repetitions: at least `MIN_REPS` serves of the fleet, and
    // enough for every end-to-end percentile's tail, then more while
    // another fits in `--seconds`. A traced run serves two: the second,
    // warm one is what the (also warm) traced serve is compared with.
    let strict = opts.scale == Scale::Full;
    let ckpt_path = setup.path(".ckpt.json");
    let start = Instant::now();
    let mut m = Untraced {
        reps: Vec::new(),
        setup_s,
        train_s,
        peak_rss_mb: 0.0,
    };
    loop {
        let rep = untraced_rep(
            &setup.models,
            &setup.base,
            &setup.cfg,
            setup.crash,
            &ckpt_path,
        )?;
        if m.reps.first().is_some_and(|r| r.digest != rep.digest) {
            errors.push("repetitions of the same fleet served different records".to_owned());
        }
        if m.reps.is_empty() {
            m.peak_rss_mb = peak_rss_mb()?;
        }
        m.reps.push(rep);
        let n = m.reps.len();
        let done = if opts.trace {
            n >= 2
        } else {
            n >= MIN_REPS
                && (!strict || tails_supported(&m.reps))
                && start.elapsed().as_secs_f64() * (n + 1) as f64 / n as f64 > opts.seconds
        };
        if done {
            break;
        }
    }
    std::fs::remove_file(&ckpt_path).ok();
    let last = m.reps.last().expect("at least one repetition");
    let lanes = checked_lanes(opts.seed, setup.cfg.sessions, &last.resident_at_cut);
    errors.extend(check_lanes(&lanes, &last.summaries, &setup));

    let mut samples = Vec::new();
    let (metrics, spans) = if opts.trace {
        traced_metrics(&setup, &m, &mut samples, &mut errors)?
    } else {
        let runs: Vec<&FleetRunStats> = m.reps.iter().map(|r| &r.stats).collect();
        let rates: Vec<f64> = m.reps.iter().map(|r| r.epochs as f64 / r.wall_s).collect();
        samples.push(("epoch".to_owned(), pooled(&runs, epoch_ns).len() as u64));
        samples.push(("round".to_owned(), pooled(&runs, round_ns).len() as u64));
        let mut e2e = Metrics::new(END_TO_END);
        e2e.set("setup_s", stats::median(&m.setup_s));
        e2e.set("epochs_per_s", stats::median(&rates));
        e2e.set(
            "epoch_p50_us",
            rep_pct(&runs, epoch_ns, 50.0, 1e3, "epoch", strict)?,
        );
        e2e.set(
            "round_p90_ms",
            rep_pct(&runs, round_ns, 90.0, 1e6, "round", strict)?,
        );
        e2e.set("mean_error_m", mean_error_m(&last.summaries));
        (e2e.finish(), Vec::new())
    };

    let failed: u64 = m.reps.iter().map(|r| r.failed).sum();
    let result = RunResult {
        workload: w.name().to_owned(),
        trace: opts.trace,
        correct: errors.is_empty() && failed == 0,
        attempted: (setup.cfg.sessions * m.reps.len()) as u64,
        failed,
        epochs: last.epochs,
        sessions: setup.cfg.sessions as u64,
        fleet_digest: last.digest.clone(),
        reps: m.reps.len() as u64,
        samples,
        metrics,
        spans,
        stamp: report::stamp(opts.seed, JOBS),
    };
    for e in &errors {
        eprintln!("correctness: {}: {e}", w.name());
    }
    let file = setup.path(if opts.trace { ".trace.json" } else { ".json" });
    std::fs::write(&file, result.to_json().to_string_pretty() + "\n")
        .map_err(|e| format!("write {file}: {e}"))?;
    Ok(result)
}

/// Per-layer metrics: one traced run of the fleet, the Table V post-pass
/// and the obs-overhead pair.
fn traced_metrics(
    setup: &Setup,
    measured: &Untraced,
    samples: &mut Vec<(String, u64)>,
    errors: &mut Vec<String>,
) -> Result<(Vec<Metric>, Vec<SpanTotal>), String> {
    let Setup {
        opts,
        cfg,
        crash,
        base,
        models,
        specs,
        ..
    } = setup;
    let (reps, train_s) = (&measured.reps, &measured.train_s);
    let untraced = &reps[0];
    let tracer = Arc::new(Tracer::new());
    let t0 = tracer.now_ns();
    let traced_models = Arc::new(tracer.time("setup.train", NO_LANE, 0, || {
        uniloc_bench::trained_models(opts.seed)
    }));
    let ckpt_path = setup.path(".trace.ckpt.json");
    let fleet = traced::run(&tracer, &traced_models, base, cfg, *crash, &ckpt_path)?;
    let rows = Json::Arr(fleet.summaries.iter().map(ToJson::to_json).collect());
    tracer.time("report.artifacts", NO_LANE, 0, || {
        render_artifacts(&rows, fleet.snapshot.as_ref())
    });
    let traced_wall_ns = (tracer.now_ns() - t0) as f64;

    let digest = fleet_digest(&fleet.summaries);
    if digest != untraced.digest {
        errors.push(format!(
            "traced fleet digest {digest} differs from the untraced {}",
            untraced.digest
        ));
    }
    if fleet.violations > 0 {
        errors.push(format!("traced fleet: {} violation(s)", fleet.violations));
    }

    // Checkpoint figures (crash-resume only).
    let (mut write_ms, mut replay_epochs) = (0.0, 0.0);
    if let Some(ckpt) = &fleet.checkpoint {
        let rewrite = setup.path(".rewrite.ckpt.json");
        let doc = ckpt.to_json();
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                atomic_write_json(&rewrite, &doc).map(|()| t.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("rewrite checkpoint: {e}"))?;
        std::fs::remove_file(&rewrite).ok();
        write_ms = stats::median(&times);
        replay_epochs = ckpt
            .resident
            .iter()
            .map(|r| r.checkpoint.cursor as f64)
            .sum();
    }
    std::fs::remove_file(&ckpt_path).ok();

    let split = postpass::run(specs, models, base, cfg.max_epochs);
    if split.mismatches > 0 {
        errors.push(format!(
            "twin engine differs from the session on {} epoch(s)",
            split.mismatches
        ));
    }
    let overhead = measure_obs_overhead(
        models,
        base,
        &Workload::ChaosMix.fleet(opts.seed, opts.scale),
        2,
    )?;

    let spans = tracer.spans();
    trace::write_jsonl(Path::new(&setup.path(".trace.jsonl")), &spans)
        .map_err(|e| format!("write trace: {e}"))?;
    let span_ms =
        |name: &str, per: f64| trace::total_ns(&spans, name).0 as f64 / 1e6 / per.max(1.0);
    let built = fleet
        .counts
        .sessions
        .load(std::sync::atomic::Ordering::Relaxed) as f64;
    let load =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let retired = trace::total_ns(&spans, "retire").1 as f64;
    let runs: Vec<&FleetRunStats> = fleet.runs.iter().collect();
    let steps = pooled(&runs, epoch_ns);
    let rounds = pooled(&runs, round_ns);
    let round_sum: u64 = rounds.iter().sum();
    let run_sum: u64 = fleet.runs.iter().map(|s| s.run_ns).sum();
    let step_sum: u64 = steps.iter().sum();
    let main_thread: u64 = spans
        .iter()
        .filter(|s| s.parent == 0 && MAIN_THREAD_SPANS.contains(&s.name))
        .map(trace::Span::duration_ns)
        .sum();
    let untraced_wall_ns = (stats::median(train_s) + reps[reps.len() - 1].wall_s) * 1e9;

    let mut m = Metrics::new(PER_LAYER);
    m.set("setup.train_s", stats::median(train_s));
    m.set("peak_rss_mb", measured.peak_rss_mb);
    for layer in ["venue", "survey", "frames", "inject", "session"] {
        let name = format!("build.{layer}");
        m.set(&format!("{name}.ms"), span_ms(&name, built));
    }
    m.set(
        "build.frames_used_frac",
        load(&fleet.counts.served_frames) / load(&fleet.counts.synthesized_frames).max(1.0),
    );
    m.set(
        "build.survey_points",
        load(&fleet.counts.survey_points) / built.max(1.0),
    );
    samples.push(("serve.step".to_owned(), steps.len() as u64));
    samples.push(("sched.round".to_owned(), rounds.len() as u64));
    m.set(
        "serve.step.p50_us",
        pct(&steps, 50.0, 1e3, "serve.step", false)?,
    );
    m.set(
        "serve.step.p99_us",
        pct(&steps, 99.0, 1e3, "serve.step", false)?,
    );
    m.set("serve.step.sum_s", step_sum as f64 / 1e9);
    m.set("serve.engine.mean_us", split.engine_mean_us());
    m.set(
        "serve.record.mean_us",
        split.step_mean_us() - split.engine_mean_us(),
    );
    let mut schemes_us = 0.0;
    for (i, id) in SchemeId::BUILTIN.iter().enumerate() {
        schemes_us += split.scheme_mean_us(i);
        m.set(&format!("scheme.{id}.mean_us"), split.scheme_mean_us(i));
    }
    samples.push(("postpass.epochs".to_owned(), split.epochs));
    m.set("engine.other.mean_us", split.engine_mean_us() - schemes_us);
    m.set(
        "serve.allocs_per_epoch",
        fleet
            .snapshot
            .as_ref()
            .map_or(0.0, FleetSnapshot::allocs_per_epoch),
    );
    m.set(
        "sched.rounds",
        fleet.runs.iter().map(|s| s.rounds as f64).sum(),
    );
    m.set(
        "sched.round_p90_ms",
        pct(&rounds, 90.0, 1e6, "sched.round", false)?,
    );
    let build_ns = trace::total_ns(&spans, "build").0;
    m.set(
        "sched.busy_frac",
        (build_ns + step_sum) as f64 / (cfg.jobs as f64 * round_sum.max(1) as f64),
    );
    m.set(
        "sched.serial_frac",
        1.0 - round_sum as f64 / run_sum.max(1) as f64,
    );
    for part in ["digest", "stats", "aggregate"] {
        let name = format!("retire.{part}");
        m.set(&format!("{name}.ms"), span_ms(&name, retired));
    }
    m.set("report.artifacts_ms", span_ms("report.artifacts", 1.0));
    m.set("ckpt.bytes", fleet.checkpoint_bytes as f64);
    m.set("ckpt.write_ms", write_ms);
    m.set("ckpt.load_ms", span_ms("ckpt.load", 1.0));
    m.set("resume.replay_epochs", replay_epochs);
    m.set("resume_s", untraced.resume_s);
    m.set("obs.overhead_frac", overhead.overhead_frac);
    m.set(
        "failed_frac",
        reps.iter().map(|r| r.failed).sum::<u64>() as f64 / (cfg.sessions * reps.len()) as f64,
    );
    m.set(
        "trace.coverage",
        (round_sum + main_thread) as f64 / traced_wall_ns,
    );
    m.set(
        "trace.overhead_frac",
        traced_wall_ns / untraced_wall_ns - 1.0,
    );
    Ok((m.finish(), trace::totals(&spans)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(epoch_ns: impl Iterator<Item = u64>) -> FleetRunStats {
        FleetRunStats {
            epoch_ns: epoch_ns.collect(),
            ..FleetRunStats::default()
        }
    }

    #[test]
    fn percentiles_are_medians_over_serves_unless_a_serve_is_too_small() {
        // Serves of 1000 fixes support p99 on their own: the result is the
        // median of their p99s, so the one slow serve does not move it.
        let (a, b) = (serve(1..=1000), serve((1..=1000).map(|v| v * 2)));
        let slow = serve((1..=1000).map(|v| v * 10));
        assert_eq!(
            rep_pct(&[&a, &b, &slow], epoch_ns, 99.0, 1.0, "epoch", true),
            Ok(1980.0)
        );
        // 60 fixes per serve leave 6 beyond p90; the 180 pooled leave 18.
        let small: Vec<FleetRunStats> = (0..3)
            .map(|i| serve((1..=60).map(|v| v + i * 60)))
            .collect();
        let runs: Vec<&FleetRunStats> = small.iter().collect();
        assert_eq!(
            rep_pct(&runs, epoch_ns, 90.0, 1.0, "epoch", true),
            Ok(162.0)
        );
        // Too few even pooled: an error at full scale, a value in smoke runs.
        assert!(rep_pct(&runs[..1], epoch_ns, 90.0, 1.0, "epoch", true).is_err());
        assert_eq!(
            rep_pct(&runs[..1], epoch_ns, 90.0, 1.0, "epoch", false),
            Ok(54.0)
        );
    }
}
