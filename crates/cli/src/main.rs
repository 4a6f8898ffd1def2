//! `uniloc` — command-line driver for the UniLoc reproduction.
//!
//! Commands: `train` (fit the error models, write JSON), `run` (walk a
//! venue with trained models), `inspect` (render any artifact), `chaos`
//! (scenario × fault-plan resilience sweep), `fleet` (the fleet-scale load
//! generator and its observatory artifacts) and `scenarios`; [`USAGE`]
//! lists each command's flags.
//!
//! Global flags, accepted by every command: `--quiet` silences progress
//! output (progress is routed through the `uniloc-obs` tracing facade at
//! `info` level, not `eprintln!`, so any subscriber can capture it);
//! `--metrics FILE` streams trace events to a JSON-lines sidecar (`run`
//! and `chaos` append their metrics, calibration cells and flight dumps);
//! `--trace-level` takes `off|error|warn|info|debug|span`; `--virtual-clock`
//! timestamps the sidecar with simulation time so same-seed runs are
//! byte-identical.
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy has no
//! CLI crate); flags are order-independent `--key value` pairs, and each
//! command accepts only its own flags ([`COMMANDS`]) and the global ones:
//! any other flag exits 2 naming it.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use uniloc_bench::chaos::scenario_by_name;
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_iodetect::IoState;
use uniloc_obs::{
    Clock, JsonlExporter, MonotonicClock, ObsSession, StderrSubscriber, Subscriber, TraceLevel,
    VirtualClock,
};
use uniloc_schemes::SchemeId;
use uniloc_sensors::DeviceProfile;
use uniloc_stats::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(&(_, own)) = COMMANDS.iter().find(|(name, _)| name == command) else {
        eprintln!("error: unknown command `{command}`\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(command, own, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exporter = match init_obs(&flags) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "run" => cmd_run(&flags, exporter.as_deref()),
        "inspect" => cmd_inspect(&flags),
        "chaos" => cmd_chaos(&flags, exporter.as_deref()),
        "fleet" => cmd_fleet(&flags),
        "scenarios" => cmd_scenarios(),
        other => unreachable!("`{other}` has flags but no handler"),
    };
    uniloc_obs::global().flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  uniloc train [--seed N] [--out FILE]
  uniloc run --models FILE [--scenario NAME] [--seed N] [--device nexus5x|lgg3] [--json]
  uniloc inspect --file FILE [--json] [--full] [--strict]
  uniloc chaos --out DIR [--models FILE] [--scenarios a,b] [--plans smoke|full|p1,p2]
               [--seed N] [--strict] [--jobs N]
  uniloc fleet --out DIR [--models FILE] [--sessions N] [--scenarios a,b] [--seed N]
               [--jobs N] [--resident N] [--max-epochs N] [--chaos-every N]
               [--strict] [--alloc-budget N] [--obs-overhead]
               [--checkpoint-every N] [--checkpoint FILE] [--resume FILE]
               [--crash-after-rounds N] [--panic-lane N] [--panic-epoch N]
  uniloc scenarios
global flags, accepted by every command:
  [--quiet] [--metrics FILE] [--trace-level off|error|warn|info|debug|span] [--virtual-clock]
out: chaos and fleet require it and write their artifacts only there
  (fleet --obs-overhead writes nothing and takes no --out)
jobs: worker threads for chaos and fleet (default: available cores);
  artifacts are byte-identical at any value, and 1 runs inline";

/// Every command and the flags it accepts besides [`GLOBAL_FLAGS`]: the
/// flags its `USAGE` lines show (held by a unit test).
const COMMANDS: &[(&str, &[&str])] = &[
    ("train", &["seed", "out"]),
    ("run", &["models", "scenario", "seed", "device", "json"]),
    ("inspect", &["file", "json", "full", "strict"]),
    ("chaos", &["models", "scenarios", "plans", "seed", "out", "strict", "jobs"]),
    ("fleet", &[
        "models", "sessions", "scenarios", "seed", "jobs", "resident", "max-epochs",
        "chaos-every", "out", "strict", "alloc-budget", "obs-overhead", "checkpoint-every",
        "checkpoint", "resume", "crash-after-rounds", "panic-lane", "panic-epoch",
    ]),
    ("scenarios", &[]),
];

/// Flags every command accepts: they configure the tracing facade
/// ([`init_obs`]).
const GLOBAL_FLAGS: &[&str] = &["quiet", "metrics", "trace-level", "virtual-clock"];

/// Sets the trace level and the process obs session from the flags: a
/// stderr progress printer (unless `--quiet`), a JSONL exporter when
/// `--metrics FILE` is given (returned so `cmd_run` can append the metrics
/// snapshot; the session's flight postmortems go to it too), and a
/// deterministic [`VirtualClock`] under `--virtual-clock`.
fn init_obs(flags: &BTreeMap<String, String>) -> Result<Option<Arc<JsonlExporter>>, String> {
    let exporter = match flags.get("metrics") {
        Some(path) => Some(Arc::new(
            JsonlExporter::to_file(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => None,
    };
    let level = match flags.get("trace-level") {
        Some(s) => TraceLevel::parse(s)?,
        // Spans are only worth dispatching when something records them.
        None if exporter.is_some() => Some(TraceLevel::Span),
        None => Some(TraceLevel::Info),
    };
    let progress = (!flags.contains_key("quiet"))
        .then(|| Arc::new(StderrSubscriber::new(TraceLevel::Info)) as Arc<dyn Subscriber>);
    let clock: Arc<dyn Clock> = if flags.contains_key("virtual-clock") {
        Arc::new(VirtualClock::new())
    } else {
        Arc::new(MonotonicClock::new())
    };
    uniloc_obs::global().set_level(level);
    uniloc_obs::session::set_process(ObsSession::streaming(exporter.clone(), progress, clock));
    Ok(exporter)
}

/// Parses `command`'s `--key value` pairs (and bare `--flag` booleans),
/// accepting only its own flags `own` and the global ones.
fn parse_flags(
    command: &str,
    own: &[&str],
    args: &[String],
) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
        if !own.contains(&key) && !GLOBAL_FLAGS.contains(&key) {
            let list = |names: &[&str]| names.iter().map(|n| format!(" --{n}")).collect::<String>();
            return Err(format!(
                "unknown flag `--{key}` for `uniloc {command}`; its flags:{}; global:{}",
                if own.is_empty() { " none".to_owned() } else { list(own) },
                list(GLOBAL_FLAGS)
            ));
        }
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key.to_owned(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_owned(), "true".to_owned());
            i += 1;
        }
    }
    Ok(flags)
}

/// `--out DIR`, which `chaos` and `fleet` require: with a default
/// directory, an exploratory run from the repository root would overwrite
/// the committed `results/` artifacts.
fn out_flag(flags: &BTreeMap<String, String>) -> Result<&str, String> {
    flags
        .get("out")
        .map(String::as_str)
        .ok_or_else(|| "--out DIR is required: name the directory to write the artifacts to".into())
}

fn seed_flag(flags: &BTreeMap<String, String>) -> Result<u64, String> {
    match flags.get("seed") {
        Some(s) => s.parse().map_err(|_| format!("--seed must be an integer, got `{s}`")),
        None => Ok(1),
    }
}

/// `--jobs N` (default: the machine's available cores). Sweep artifacts
/// are byte-identical at any value; `--jobs 1` runs inline with no worker
/// threads.
fn jobs_flag(flags: &BTreeMap<String, String>) -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get);
    positive_flag(flags, "jobs", cores.unwrap_or(1))
}

fn cmd_train(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let seed = seed_flag(flags)?;
    let out = flags.get("out").map(String::as_str).unwrap_or("uniloc-models.json");
    uniloc_obs::info!("collecting training data (office + open space, seed {seed}) ...");
    let models = train_models(seed)?;
    let json = uniloc_stats::json::to_string_pretty(&models);
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    uniloc_obs::info!("wrote {out}");
    Ok(())
}

fn load_models(flags: &BTreeMap<String, String>) -> Result<ErrorModelSet, String> {
    let path = flags.get("models").ok_or("--models FILE is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    uniloc_stats::json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_run(flags: &BTreeMap<String, String>, exporter: Option<&JsonlExporter>) -> Result<(), String> {
    let models = load_models(flags)?;
    let seed = seed_flag(flags)?;
    let name = flags.get("scenario").map(String::as_str).unwrap_or("path1");
    let scenario = scenario_by_name(name, seed)?;
    let device = flags.get("device").map_or("nexus5x", String::as_str);
    let device = DeviceProfile::by_name(device).ok_or(format!("unknown device `{device}`"))?;
    let cfg = PipelineConfig { device, ..PipelineConfig::default() };
    uniloc_obs::info!("walking {} ({:.0} m) ...", scenario.name, scenario.route.length());
    let records = pipeline::run_walk(&scenario, &models, &cfg, seed + 100);

    // Append the end-of-run metrics and calibration snapshots (counters,
    // gauges, span-timing and residual histograms, then the per-scheme
    // calibration cells) after the trace events already streamed out.
    if let Some(e) = exporter {
        for line in uniloc_obs::global_metrics().snapshot().jsonl_lines() {
            e.write_line(&line);
        }
        for line in uniloc_obs::global_calibration().snapshot().jsonl_lines() {
            e.write_line(&line);
        }
        e.flush();
    }

    if flags.contains_key("json") {
        let json = uniloc_stats::json::to_string(&records);
        println!("{json}");
        return Ok(());
    }

    println!("{:<10}{:>10}{:>12}", "system", "mean (m)", "available");
    for id in SchemeId::BUILTIN {
        let mean = pipeline::scheme_mean_error(&records, id);
        let avail = records.iter().filter(|r| r.scheme_error(id).is_some()).count() as f64
            / records.len() as f64;
        match mean {
            Some(m) => println!("{:<10}{m:>10.2}{:>11.1}%", id.to_string(), avail * 100.0),
            None => println!("{:<10}{:>10}{:>11.1}%", id.to_string(), "-", avail * 100.0),
        }
    }
    for (label, v) in [
        ("oracle", pipeline::mean_defined(records.iter().map(|r| r.oracle_error))),
        ("uniloc1", pipeline::mean_defined(records.iter().map(|r| r.uniloc1_error))),
        ("uniloc2", pipeline::mean_defined(records.iter().map(|r| r.uniloc2_error))),
    ] {
        match v {
            Some(m) => println!("{label:<10}{m:>10.2}"),
            None => println!("{label:<10}{:>10}", "-"),
        }
    }
    Ok(())
}

/// `uniloc inspect --file FILE`: renders any artifact the CLI writes, read
/// once. A single JSON document dispatches on its own tag: `health` (a
/// `FLEET_HEALTH.json`) renders the fleet health table, `prof: "alloc"` (a
/// `PROF_alloc.json`) the heap table, `models` (a `uniloc train` file) the
/// trained coefficients; any other document is an error that names these
/// tags. Anything else is a `--metrics` JSON-lines sidecar (its lines carry
/// a `kind` tag each): one pass folds its metric lines, calibration cells
/// and flight-recorder dumps, printed in that order. A bad line fails with
/// `FILE:LINE:`. Pure formatting: the tables never recompute, so they
/// always agree with the artifacts the CI gates diff. `--json` re-emits a
/// document through the canonical writer, or a sidecar's reassembled
/// [`uniloc_obs::MetricsSnapshot`]; `--full` pretty-prints the flight
/// dumps; `--strict` fails when any SLO row of a health table is out of
/// budget.
fn cmd_inspect(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags.get("file").ok_or("--file FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let Some(doc) = Json::parse(&text).ok().filter(|d| d.get("kind").is_none()) else {
        return inspect_sidecar(path, &text, flags);
    };
    type Render = fn(&str, &Json, &BTreeMap<String, String>) -> Result<(), String>;
    let render: Render = if doc.get("health").is_some() {
        inspect_health
    } else if doc.get("prof").and_then(Json::as_str) == Some("alloc") {
        inspect_alloc
    } else if doc.get("models").is_some() {
        inspect_models
    } else {
        return Err(format!(
            "{path} carries none of the known tags: `health` (FLEET_HEALTH.json), \
             `prof: \"alloc\"` (PROF_alloc.json), `models` (uniloc train), \
             or `kind` (the lines of a --metrics sidecar)"
        ));
    };
    if flags.contains_key("json") {
        println!("{}", doc.canonical().to_string());
        return Ok(());
    }
    render(path, &doc, flags)
}

/// The trained coefficients of a `uniloc train` model file.
fn inspect_models(path: &str, doc: &Json, _: &BTreeMap<String, String>) -> Result<(), String> {
    let models: ErrorModelSet =
        uniloc_stats::json::FromJson::from_json(doc).map_err(|e| format!("parse {path}: {e}"))?;
    for io in [IoState::Indoor, IoState::Outdoor] {
        println!("== {io} ==");
        for id in SchemeId::BUILTIN {
            match models.model(id, io) {
                Some(m) => println!(
                    "  {id:<9} intercept={:+7.2} coeffs={:?} sigma={:.2} R2={:.2} n={}",
                    m.intercept,
                    m.coefficients
                        .iter()
                        .map(|c| (c * 1000.0).round() / 1000.0)
                        .collect::<Vec<_>>(),
                    m.sigma,
                    m.r_squared,
                    m.n_obs
                ),
                None => println!("  {id:<9} (no model)"),
            }
        }
    }
    Ok(())
}

/// A `--metrics` sidecar in one pass: counters, gauges and histograms
/// (count/mean/p50/p90/p99), then each scheme × environment's calibration
/// cell (PIT bins, nominal-vs-observed coverage, sharpness, drift), then
/// one summary line per flight-recorder postmortem. Trace-event lines
/// (kind `span`/`event`) are counted but not rendered.
fn inspect_sidecar(path: &str, text: &str, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let mut snap = uniloc_obs::MetricsSnapshot::default();
    let mut calib = uniloc_obs::CalibrationSnapshot::default();
    let mut dumps = Vec::new();
    let mut spans = 0usize;
    let mut events = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: &dyn std::fmt::Display| format!("{path}:{}: {e}", lineno + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        if snap.absorb_jsonl(&doc).map_err(|e| at(&e))? {
            continue;
        }
        calib.absorb_jsonl(&doc).map_err(|e| at(&e))?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("span") => spans += 1,
            Some("flight") => {
                events += 1;
                dumps.push(doc);
            }
            _ => events += 1,
        }
    }
    if flags.contains_key("json") {
        println!("{}", uniloc_stats::json::to_string(&snap));
        return Ok(());
    }

    println!("{path}: {spans} span records, {events} events");
    if !snap.counters.is_empty() {
        println!("counters:");
        for (name, v) in &snap.counters {
            println!("  {name:<40} {v}");
        }
    }
    if !snap.gauges.is_empty() {
        println!("gauges:");
        for (name, v) in &snap.gauges {
            println!("  {name:<40} {v:.4}");
        }
    }
    if !snap.histograms.is_empty() {
        println!("histograms:");
        println!(
            "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "p50", "p90", "p99"
        );
        for (name, h) in &snap.histograms {
            match (h.mean(), h.summary()) {
                (Some(mean), Some((p50, p90, p99))) => println!(
                    "  {name:<40} {:>8} {mean:>12.2} {p50:>12.2} {p90:>12.2} {p99:>12.2}",
                    h.count()
                ),
                _ => println!("  {name:<40} {:>8} (empty)", h.count()),
            }
        }
    }

    if calib.cells.is_empty() {
        println!("{path}: no calibration cells (was the run recorded with --metrics?)");
    }
    for cell in &calib.cells {
        println!("== {} / {} ==", cell.scheme, cell.io);
        println!("  observations: {} ({} dropped non-finite)", cell.n, cell.dropped);
        let bins: Vec<String> = cell.pit_counts.iter().map(u64::to_string).collect();
        println!("  reliability bins (PIT 0..1): [{}]", bins.join(", "));
        let cov: Vec<String> = cell
            .quantiles
            .iter()
            .zip(&cell.coverage)
            .map(|(q, c)| format!("{q:.2}->{c:.3}"))
            .collect();
        println!("  coverage (nominal->observed): {}", cov.join("  "));
        println!(
            "  sharpness: predicted {:.2} m (sigma {:.2} m), realized {:.2} m, residual {:+.2} m",
            cell.mean_predicted, cell.mean_sigma, cell.mean_realized, cell.mean_residual
        );
        println!(
            "  drift: cusum +{:.2}/-{:.2}, {} alarm(s)",
            cell.cusum_pos, cell.cusum_neg, cell.drift_alarms
        );
    }

    if dumps.is_empty() {
        println!("{path}: no flight-recorder dumps (the run hit no anomaly)");
        return Ok(());
    }
    println!("{path}: {} flight-recorder dump(s)", dumps.len());
    for dump in &dumps {
        if flags.contains_key("full") {
            println!("{}", dump.to_string_pretty());
            continue;
        }
        let seq = dump.get("seq").and_then(Json::as_i64).unwrap_or(-1);
        let reason = dump.get("reason").and_then(Json::as_str).unwrap_or("?");
        let t_ns = dump.get("t_ns").and_then(Json::as_i64).unwrap_or(0);
        let events = dump.get("events").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        let deltas =
            dump.get("counters_delta").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        println!(
            "  #{seq} {reason:<22} t={:.1}s window={events} events, {deltas} counters moved",
            t_ns as f64 / 1e9
        );
    }
    Ok(())
}

/// `uniloc chaos`: sweeps a scenario × fault-plan matrix deterministically
/// on up to `--jobs N` worker threads (default: the machine's available
/// cores) and writes one resilience report per scenario to `--out DIR`
/// (required) as `CHAOS_<scenario>.json`. The sweep itself lives in
/// [`uniloc_bench::chaos`]; results merge in canonical cell order, so
/// the artifacts are byte-identical at any `--jobs` value and `--jobs 1`
/// runs the historical single-threaded path. `--strict` turns the
/// resilience contract into an exit code: a terminal `lost` ladder state,
/// any non-finite fused estimate, or a quarantine that never lifts fails
/// the command — the CI smoke gate runs exactly this against the `smoke`
/// plan set at both `--jobs 1` and `--jobs 4` and diffs the artifacts.
fn cmd_chaos(flags: &BTreeMap<String, String>, exporter: Option<&JsonlExporter>) -> Result<(), String> {
    use uniloc_bench::chaos::{run_sweep, ChaosConfig};
    use uniloc_faults::FaultPlan;

    let seed = seed_flag(flags)?;
    let jobs = jobs_flag(flags)?;
    let out_dir = out_flag(flags)?;
    let strict = flags.contains_key("strict");
    let cfg = PipelineConfig::default();

    let models = models_or_train(flags, seed)?;

    let scenario_names: Vec<String> = flags
        .get("scenarios")
        .map(|s| s.split(',').map(str::to_owned).collect())
        .unwrap_or_else(|| vec!["office".to_owned(), "path1".to_owned()]);
    let plans: Vec<FaultPlan> = match flags.get("plans").map(String::as_str) {
        None | Some("smoke") => FaultPlan::smoke_library(),
        Some("full") => FaultPlan::library(),
        Some(list) => list
            .split(',')
            .map(|n| FaultPlan::by_name(n).ok_or_else(|| format!("unknown fault plan `{n}`")))
            .collect::<Result<_, _>>()?,
    };

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let sweep = run_sweep(&models, &cfg, &ChaosConfig { seed, scenario_names, plans, jobs })?;

    for report in &sweep.reports {
        let path = format!("{out_dir}/{}", report.file_name());
        std::fs::write(&path, report.report.to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");
    }

    // The workers ran under isolated observability sessions; their merged
    // sidecar (job-ordered, jobs-count-invariant) lands in the --metrics
    // file after the trace events that streamed from the main thread.
    if let Some(e) = exporter {
        for line in sweep.obs.metrics.jsonl_lines() {
            e.write_line(&line);
        }
        for line in sweep.obs.calibration.jsonl_lines() {
            e.write_line(&line);
        }
        for line in &sweep.obs.flight_lines {
            e.write_line(line);
        }
        e.flush();
    }

    if sweep.violations.is_empty() {
        uniloc_obs::info!("chaos sweep clean: every run stayed finite and recovered");
        Ok(())
    } else {
        for v in &sweep.violations {
            eprintln!("chaos violation: {v}");
        }
        if strict {
            Err(format!("{} resilience violation(s)", sweep.violations.len()))
        } else {
            uniloc_obs::info!(
                "{} violation(s) — rerun with --strict to fail on them",
                sweep.violations.len()
            );
            Ok(())
        }
    }
}

/// `--models FILE` when given, otherwise the standard in-process training
/// pass (office + open space) on `seed` — shared by the sweep commands.
fn models_or_train(flags: &BTreeMap<String, String>, seed: u64) -> Result<ErrorModelSet, String> {
    match flags.get("models") {
        Some(_) => load_models(flags),
        None => {
            uniloc_obs::info!("no --models given; training in-process (seed {seed}) ...");
            train_models(seed)
        }
    }
}

fn train_models(seed: u64) -> Result<ErrorModelSet, String> {
    pipeline::train_standard_models(seed).map_err(|e| format!("training failed: {e}"))
}

/// `--<key> N` as a non-negative integer, with a default.
fn usize_flag(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(key) {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--{key} must be a non-negative integer, got `{s}`")),
        None => Ok(default),
    }
}

/// `--<key> N` as a positive integer, with a default.
fn positive_flag(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(key) {
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--{key} must be a positive integer, got `{s}`")),
        },
        None => Ok(default),
    }
}

/// `--<key> X` as a budget — a finite, non-negative float — if given.
fn budget_flag(flags: &BTreeMap<String, String>, key: &str) -> Result<Option<f64>, String> {
    flags
        .get(key)
        .map(|s| match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err(format!("--{key} must be a non-negative number, got `{s}`")),
        })
        .transpose()
}

/// Paired obs-on/obs-stub passes of `uniloc fleet --obs-overhead`; each
/// mode keeps its best.
const OVERHEAD_PASSES: usize = 2;

/// The most epochs/s that `uniloc fleet --obs-overhead` lets full
/// observability cost against the obs-stubbed fleet.
const OVERHEAD_BUDGET: f64 = 0.05;

/// `uniloc fleet` flags that `--obs-overhead` would ignore: only a fleet
/// that writes its artifacts reads them.
const FLEET_MODE_FLAGS: &[&str] = &[
    "out", "strict", "alloc-budget", "checkpoint-every", "checkpoint", "resume",
    "crash-after-rounds",
];

/// `uniloc fleet`: the fleet-scale load generator — `--sessions N` seeded
/// walkers mixing personas, devices, scenarios and (with `--chaos-every
/// K`) fault plans, served concurrently by the deterministic
/// [`uniloc_core::fleet::FleetScheduler`] on `--jobs N` workers with at
/// most `--resident N` sessions live at once. Writes `FLEET.json` plus
/// the fleet-observatory artifacts (`FLEET_HEALTH.json`, `PROF_fleet.*`,
/// `PROF_alloc.*`; see [`uniloc_bench::fleet::artifacts`]) to `--out DIR`
/// (required): all six are byte-identical at any `--jobs`/`--resident`
/// value and contain no wall-clock numbers, so the CI smoke gate diffs the
/// whole directory across worker counts. `--obs-overhead` instead runs the
/// fleet [`OVERHEAD_PASSES`] times each with full and stubbed
/// observability, writes nothing, and fails if the epochs/s cost exceeds
/// [`OVERHEAD_BUDGET`] (5%). `--strict` fails on any resilience
/// violation (a non-finite fused estimate, or a clean walker that got
/// quarantined).
///
/// Crash safety: `--checkpoint-every N` cuts a durable fleet checkpoint
/// (atomic temp-file + rename) every N scheduler rounds to `--checkpoint
/// FILE` (default `<out>/FLEET.ckpt.json`), and `--resume FILE` restores
/// one and finishes the fleet — the artifacts come out byte-identical to
/// an uninterrupted run. On resume, every artifact-shaping knob is taken
/// from the checkpoint itself, and setting one is an error (only `--jobs`,
/// `--resident`, `--out` and the gate flags still apply). Every flag is
/// checked before any model is loaded or trained, and a flag that would
/// change nothing (`--panic-epoch` without a lane or past `--max-epochs`,
/// a lane past the fleet, `--checkpoint` or `--crash-after-rounds` without
/// a cadence, a crash before the first checkpoint, any of
/// [`FLEET_MODE_FLAGS`] with `--obs-overhead`) is an error, never ignored.
/// `--crash-after-rounds N` simulates a `kill -9` between rounds N and
/// N+1 (the crash-injection harness), and `--panic-lane L --panic-epoch E`
/// arms a process-level panic fault in lane L at epoch E to exercise the
/// supervisor's poison path; a run whose lane L retires unpoisoned fails.
fn cmd_fleet(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use uniloc_bench::fleet::{
        load_fleet_checkpoint, measure_obs_overhead, run_fleet_durable, FleetCheckpoint,
        FleetConfig, FleetOutcome, FleetRunOptions,
    };

    let seed = seed_flag(flags)?;
    let jobs = jobs_flag(flags)?;
    let resident = positive_flag(flags, "resident", 64)?;
    let strict = flags.contains_key("strict");
    let cfg = PipelineConfig::default();
    let checkpoint_every = usize_flag(flags, "checkpoint-every", 0)? as u64;
    if flags.contains_key("checkpoint") && checkpoint_every == 0 {
        return Err("--checkpoint needs --checkpoint-every N (N > 0) to cut one".to_owned());
    }
    if flags.contains_key("crash-after-rounds") && checkpoint_every == 0 {
        return Err("--crash-after-rounds leaves nothing to resume without \
                    --checkpoint-every N (N > 0)"
            .to_owned());
    }
    let crash_after_rounds = flags
        .get("crash-after-rounds")
        .map(|_| usize_flag(flags, "crash-after-rounds", 0))
        .transpose()?
        .map(|r| r as u64);
    // The simulated crash comes after round max(N, 1): the scheduler
    // completes a round before it checks. The first checkpoint is cut at
    // round `checkpoint_every`.
    if let Some(n) = crash_after_rounds.filter(|&n| n.max(1) < checkpoint_every) {
        return Err(format!(
            "--crash-after-rounds {n} comes before the first checkpoint \
             (--checkpoint-every {checkpoint_every} cuts it at round {checkpoint_every}): \
             nothing would be left to resume"
        ));
    }
    let alloc_budget = budget_flag(flags, "alloc-budget")?;
    let overhead = flags.contains_key("obs-overhead");
    if let Some(flag) = FLEET_MODE_FLAGS.iter().find(|f| overhead && flags.contains_key(**f)) {
        return Err(format!("--{flag} would change nothing with --obs-overhead"));
    }
    // Every run but the obs-overhead gate writes into `--out`.
    let out_dir = if overhead { None } else { Some(out_flag(flags)?) };
    let checkpoint_path = flags.get("checkpoint").cloned().or_else(|| {
        let dir = out_dir.filter(|_| checkpoint_every > 0)?;
        Some(format!("{dir}/FLEET.ckpt.json"))
    });

    let (fleet_cfg, resume) = match flags.get("resume") {
        // Resuming: the checkpoint pins every artifact-shaping knob (the
        // config echo `check_config` compares), so a flag setting one
        // would be silently overridden; only execution knobs come from
        // the command line.
        Some(path) => {
            for (key, _) in FleetCheckpoint::config_echo(&FleetConfig::default()) {
                let flag = key.replace('_', "-");
                if flags.contains_key(&flag) {
                    return Err(format!(
                        "--{flag} cannot change a resumed fleet: its checkpoint pins {key}"
                    ));
                }
            }
            let ckpt = load_fleet_checkpoint(path)?;
            (ckpt.config(jobs, resident), Some(ckpt))
        }
        None => {
            let sessions = usize_flag(flags, "sessions", 1000)?;
            let max_epochs = usize_flag(flags, "max-epochs", 40)?;
            let panic_epoch = usize_flag(flags, "panic-epoch", 0)?;
            let panic_lane = flags
                .get("panic-lane")
                .map(|_| usize_flag(flags, "panic-lane", 0))
                .transpose()?;
            match panic_lane {
                None if flags.contains_key("panic-epoch") => {
                    return Err("--panic-epoch arms nothing without --panic-lane L".to_owned());
                }
                Some(lane) if lane >= sessions => {
                    return Err(format!(
                        "--panic-lane {lane} poisons nothing: the fleet's lanes are 0..{sessions}"
                    ));
                }
                Some(_) if max_epochs > 0 && panic_epoch >= max_epochs => {
                    return Err(format!("--panic-epoch {panic_epoch} is past --max-epochs"));
                }
                _ => {}
            }
            let fleet_cfg = FleetConfig {
                seed,
                sessions,
                scenario_names: flags
                    .get("scenarios")
                    .map(|s| s.split(',').map(str::to_owned).collect())
                    .unwrap_or_else(|| vec!["office".to_owned(), "open-space".to_owned()]),
                jobs,
                resident,
                max_epochs,
                chaos_every: usize_flag(flags, "chaos-every", 0)?,
                obs_stub: false,
                shards: 0,
                top_k: 0,
                panic_lane: panic_lane.map(|l| l as u64),
                panic_epoch: panic_epoch as u64,
            };
            (fleet_cfg, None)
        }
    };
    let models = Arc::new(models_or_train(flags, fleet_cfg.seed)?);

    // The obs-overhead gate times the fleet and writes nothing.
    let Some(out_dir) = out_dir else {
        let o = measure_obs_overhead(&models, &cfg, &fleet_cfg, OVERHEAD_PASSES)?;
        println!(
            "obs_overhead_frac {:.4} budget {:.4} obs_epochs_per_sec {:.0} stub_epochs_per_sec {:.0}",
            o.overhead_frac, OVERHEAD_BUDGET, o.epochs_per_sec_obs, o.epochs_per_sec_stub
        );
        return if o.overhead_frac > OVERHEAD_BUDGET {
            Err(format!(
                "obs overhead {:.2}% exceeds budget {:.2}%",
                o.overhead_frac * 100.0,
                OVERHEAD_BUDGET * 100.0
            ))
        } else {
            uniloc_obs::info!(
                "obs overhead {:.2}% within budget {:.2}%",
                o.overhead_frac * 100.0,
                OVERHEAD_BUDGET * 100.0
            );
            Ok(())
        };
    };

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let outcome = run_fleet_durable(
        &models,
        &cfg,
        &fleet_cfg,
        FleetRunOptions {
            checkpoint_every,
            checkpoint_path: checkpoint_path.clone(),
            resume_from: resume,
            crash_after_rounds,
        },
    )?;
    let result = match outcome {
        FleetOutcome::Completed(result) => *result,
        FleetOutcome::Crashed { rounds } => {
            let at = checkpoint_path.expect("a crash is only armed with a checkpoint cadence");
            println!(
                "fleet crashed (simulated) after {rounds} round(s); \
                 resume with: uniloc fleet --resume {at}"
            );
            return Ok(());
        }
    };
    let armed = result.summaries.iter().find(|s| Some(s.spec.lane) == fleet_cfg.panic_lane);
    if let Some(s) = armed.filter(|s| s.poisoned.is_none()) {
        let (epoch, epochs) = (fleet_cfg.panic_epoch, s.epochs);
        return Err(format!("--panic-epoch {epoch} never fired: its walk ended at {epochs} epochs"));
    }

    let poisoned = result.summaries.iter().filter(|s| s.poisoned.is_some()).count();
    if poisoned > 0 {
        uniloc_obs::info!(
            "fleet: {poisoned} session(s) poisoned by the supervisor; \
             the rest of the fleet completed normally"
        );
    }

    for (name, bytes) in uniloc_bench::fleet::artifacts(&result) {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, bytes).map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");
    }
    if let Some(snap) = &result.snapshot {
        uniloc_obs::info!(
            "alloc observatory: {:.1} steady-state alloc(s)/epoch",
            snap.allocs_per_epoch()
        );
    }
    if let Some(budget) = alloc_budget {
        let Some(snap) = &result.snapshot else {
            return Err("--alloc-budget needs the alloc observatory, which an obs-stubbed \
                        fleet does not run"
                .to_owned());
        };
        let observed = snap.allocs_per_epoch();
        if observed > budget {
            return Err(format!(
                "steady-state allocations {observed:.1}/epoch exceed --alloc-budget {budget:.1}"
            ));
        }
        uniloc_obs::info!(
            "alloc budget ok: {observed:.1}/epoch within --alloc-budget {budget:.1}"
        );
    }

    let stats = &result.stats;
    let secs = stats.run_ns as f64 / 1e9;
    uniloc_obs::info!(
        "fleet: {} session(s), {} epoch(s), {} round(s) in {secs:.2}s — {:.0} epochs/s, {:.1} sessions/s",
        stats.sessions,
        stats.epochs,
        stats.rounds,
        stats.epochs as f64 / secs.max(1e-9),
        stats.sessions as f64 / secs.max(1e-9),
    );

    if result.violations.is_empty() {
        uniloc_obs::info!(
            "fleet clean: every session stayed finite; quarantines match solo replays"
        );
        Ok(())
    } else {
        for v in &result.violations {
            eprintln!("fleet violation: {v}");
        }
        if strict {
            Err(format!("{} fleet violation(s)", result.violations.len()))
        } else {
            uniloc_obs::info!(
                "{} violation(s) — rerun with --strict to fail on them",
                result.violations.len()
            );
            Ok(())
        }
    }
}

/// A `top`-style health table from a `FLEET_HEALTH.json` artifact: fleet
/// totals, the SLO burn table, per-scheme availability, per-cohort
/// breakdowns and the worst-session exemplars. `--strict` fails when any
/// SLO row is out of budget.
fn inspect_health(_: &str, doc: &Json, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let int = |d: &Json, k: &str| d.get(k).and_then(Json::as_i64).unwrap_or(0);
    let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);

    println!(
        "fleet health — {} session(s), {} epoch(s) ({} faulted, {} quarantined, {} non-finite)",
        int(doc, "sessions"),
        int(doc, "epochs"),
        int(doc, "faulted_sessions"),
        int(doc, "quarantined_sessions"),
        int(doc, "nonfinite_fused"),
    );
    if let Some(flight) = doc.get("flight") {
        println!(
            "flight recorder: {} dump(s), {} dropped, {} suppressed; {} calib drift alarm(s)",
            int(flight, "dumps"),
            int(flight, "dropped"),
            int(flight, "suppressed"),
            doc.get("calib").map_or(0, |c| int(c, "drift_alarms")),
        );
    }
    if let Some(alloc) = doc.get("alloc") {
        println!(
            "alloc observatory: {:.1} steady alloc(s)/epoch ({} allocs over {} steady epochs)",
            num(alloc, "allocs_per_epoch"),
            int(alloc, "steady_allocs"),
            int(alloc, "steady_epochs"),
        );
    }

    let mut violated = 0usize;
    if let Some(rows) = doc.get("slo").and_then(Json::as_arr) {
        println!();
        println!(
            "  {:<34} {:>4} {:>9} {:>9} {:>7}  status",
            "SLO", "kind", "target", "observed", "burn"
        );
        for r in rows {
            let ok = r.get("ok").and_then(Json::as_bool).unwrap_or(false);
            if !ok {
                violated += 1;
            }
            println!(
                "  {:<34} {:>4} {:>9.3} {:>9.3} {:>7.2}  {}",
                r.get("name").and_then(Json::as_str).unwrap_or("?"),
                r.get("kind").and_then(Json::as_str).unwrap_or("?"),
                num(r, "target"),
                num(r, "observed"),
                num(r, "burn"),
                if ok { "ok" } else { "VIOLATED" },
            );
        }
    }

    if let Some(schemes) = doc.get("schemes").and_then(Json::as_obj) {
        println!();
        println!(
            "  {:<10} {:>12} {:>12} {:>10} {:>12}",
            "scheme", "avail_epochs", "availability", "quar_trip", "quar_readmit"
        );
        for (id, s) in schemes {
            println!(
                "  {id:<10} {:>12} {:>12.3} {:>10} {:>12}",
                int(s, "available_epochs"),
                num(s, "availability"),
                int(s, "quarantine_tripped"),
                int(s, "quarantine_readmitted"),
            );
        }
    }

    if let Some(cohorts) = doc.get("cohorts").and_then(Json::as_obj) {
        println!();
        println!(
            "  {:<34} {:>8} {:>7} {:>7} {:>5} {:>6} {:>10}",
            "cohort", "sessions", "epochs", "faulted", "quar", "drift", "mean_err_m"
        );
        for (name, c) in cohorts {
            let mean = c.get("mean_error_m").and_then(Json::as_f64);
            println!(
                "  {name:<34} {:>8} {:>7} {:>7} {:>5} {:>6} {:>10}",
                int(c, "sessions"),
                int(c, "epochs"),
                int(c, "faulted"),
                int(c, "quarantined"),
                int(c, "drift_alarms"),
                mean.map_or("-".to_owned(), |m| format!("{m:.3}")),
            );
        }
    }

    if let Some(exemplars) = doc.get("exemplars").and_then(Json::as_arr) {
        if !exemplars.is_empty() {
            println!();
            println!("  worst sessions (exemplars)");
            println!(
                "  {:<6} {:<18} {:>10} {:>7} {:>11}  quarantined",
                "lane", "name", "mean_err_m", "epochs", "postmortems"
            );
            for e in exemplars {
                let quarantined = e
                    .get("quarantined")
                    .and_then(Json::as_arr)
                    .map_or(String::from("-"), |q| {
                        let ids: Vec<&str> =
                            q.iter().filter_map(Json::as_str).collect();
                        if ids.is_empty() { "-".to_owned() } else { ids.join(",") }
                    });
                println!(
                    "  {:<6} {:<18} {:>10.3} {:>7} {:>11}  {quarantined}",
                    int(e, "lane"),
                    e.get("name").and_then(Json::as_str).unwrap_or("?"),
                    num(e, "mean_error_m"),
                    int(e, "epochs"),
                    int(e, "flight_postmortems"),
                );
            }
        }
    }

    if violated > 0 {
        println!();
        println!("{violated} SLO(s) out of budget");
        if flags.contains_key("strict") {
            return Err(format!("{violated} SLO violation(s)"));
        }
    }
    Ok(())
}

/// The per-stage heap profile table from a `PROF_alloc.json` artifact:
/// the steady-state allocs-per-epoch meter and the stage tree with
/// exclusive alloc/byte/dealloc/realloc counts.
fn inspect_alloc(path: &str, doc: &Json, _: &BTreeMap<String, String>) -> Result<(), String> {
    let int = |d: &Json, k: &str| d.get(k).and_then(Json::as_i64).unwrap_or(0);
    let per_epoch = doc.get("allocs_per_epoch").and_then(Json::as_f64).unwrap_or(f64::NAN);
    let steady = doc.get("steady");
    println!(
        "heap profile — {per_epoch:.1} steady alloc(s)/epoch ({} allocs over {} steady epochs)",
        steady.map_or(0, |s| int(s, "allocs")),
        steady.map_or(0, |s| int(s, "epochs")),
    );
    println!();
    println!(
        "  {:<44} {:>12} {:>14} {:>12} {:>10}",
        "stage", "allocs", "bytes", "deallocs", "reallocs"
    );
    fn walk(node: &Json, depth: usize) {
        let int = |k: &str| node.get(k).and_then(Json::as_i64).unwrap_or(0);
        let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
        println!(
            "  {:<44} {:>12} {:>14} {:>12} {:>10}",
            format!("{:indent$}{name}", "", indent = depth * 2),
            int("allocs"),
            int("bytes"),
            int("deallocs"),
            int("reallocs"),
        );
        for child in node.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            walk(child, depth + 1);
        }
    }
    let root = doc.get("root").ok_or_else(|| format!("{path}: no stage tree"))?;
    walk(root, 0);
    Ok(())
}

/// The scenario vocabulary `uniloc scenarios` prints: names (a range as
/// `first .. last`) and what each walks.
const SCENARIOS: &[(&str, &str)] = &[
    ("path1 .. path8", "the eight daily campus paths (path1 = the 320 m daily path)"),
    ("mall", "shopping-mall floor, ~300 m trajectory"),
    ("open-space", "urban open space"),
    ("office", "a 50 x 18 m office floor"),
];

fn cmd_scenarios() -> Result<(), String> {
    println!("available scenarios:");
    for (names, what) in SCENARIOS {
        println!("  {names:<16} {what}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(command: &str, v: &[&str]) -> Result<BTreeMap<String, String>, String> {
        let (_, own) = COMMANDS.iter().find(|(name, _)| *name == command).unwrap();
        parse_flags(command, own, &args(v))
    }

    #[test]
    fn parse_key_value_pairs() {
        let f = parse("train", &["--seed", "7", "--out", "x.json"]).unwrap();
        assert_eq!(f.get("seed").unwrap(), "7");
        assert_eq!(f.get("out").unwrap(), "x.json");
    }

    #[test]
    fn parse_bare_booleans() {
        let f = parse("run", &["--json", "--models", "m.json"]).unwrap();
        assert_eq!(f.get("json").unwrap(), "true");
        assert_eq!(f.get("models").unwrap(), "m.json");
    }

    #[test]
    fn parse_rejects_positional() {
        assert!(parse("run", &["oops"]).is_err());
    }

    #[test]
    fn seed_parses_or_defaults() {
        let f = parse("train", &["--seed", "42"]).unwrap();
        assert_eq!(seed_flag(&f).unwrap(), 42);
        let f = parse("train", &[]).unwrap();
        assert_eq!(seed_flag(&f).unwrap(), 1);
        let f = parse("train", &["--seed", "nope"]).unwrap();
        assert!(seed_flag(&f).is_err());
    }

    /// A misspelled, removed or foreign flag is an error naming it and
    /// the command's flags, never a silent default.
    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (command, line, flag) in [
            ("scenarios", &["--bogus", "7"][..], "--bogus"),
            ("fleet", &["--sessions", "2", "--max-epochs", "2", "--sesions", "9"], "--sesions"),
            ("fleet", &["--shards", "4"], "--shards"),
            ("fleet", &["--top-k", "3"], "--top-k"),
            ("fleet", &["--obs-stub", "--overhead-passes", "3"], "--obs-stub"),
            ("fleet", &["--obs-overhead", "--overhead-budget", "0.05"], "--overhead-budget"),
            ("train", &["--file", "x"], "--file"),
        ] {
            let err = parse(command, line).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}` for `uniloc {command}`")), "{err}");
        }
        let err = parse("fleet", &["--sesions", "9"]).unwrap_err();
        assert!(err.contains(" --sessions ") && err.contains(" --panic-epoch;"), "{err}");
        assert!(err.ends_with("global: --quiet --metrics --trace-level --virtual-clock"));
        for (command, _) in COMMANDS {
            assert!(parse(command, &["--quiet", "--trace-level", "off"]).is_ok(), "{command}");
        }
    }

    /// Each command's flags are exactly those its `USAGE` lines show, and
    /// the global flags those of the global line.
    #[test]
    fn flag_sets_match_the_usage_lines() {
        fn sorted<'a>(flags: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
            let mut flags: Vec<&str> = flags.collect();
            flags.sort_unstable();
            flags
        }
        let flags_in = |lines: &[&'static str]| {
            let words = lines.iter().flat_map(|l| l.split([' ', '[', ']']));
            sorted(words.filter_map(|w| w.strip_prefix("--")))
        };
        let lines: Vec<&'static str> = USAGE.lines().collect();
        for (command, own) in COMMANDS {
            let head = |l: &&str| l.split_whitespace().take(2).eq(["uniloc", *command]);
            let from = lines.iter().position(head).expect("a USAGE line per command");
            let to = (from + 1..lines.len()).find(|&i| !lines[i].starts_with("     "));
            let shown = flags_in(&lines[from..to.unwrap_or(lines.len())]);
            assert_eq!(shown, sorted(own.iter().copied()), "uniloc {command}");
        }
        let global = lines.iter().position(|l| l.starts_with("global flags")).unwrap() + 1;
        assert_eq!(flags_in(&lines[global..=global]), sorted(GLOBAL_FLAGS.iter().copied()));
    }

    /// `uniloc fleet` with `line` fails before it loads any models, with
    /// an error that names `flag`.
    fn fleet_rejects(line: &[&str], flag: &str) {
        let mut v = vec!["--models", "no-such-models.json", "--out", "no-such-dir"];
        v.extend_from_slice(line);
        let err = cmd_fleet(&parse("fleet", &v).unwrap()).unwrap_err();
        assert!(err.contains(flag), "{line:?} did not name {flag}: {err}");
    }

    #[test]
    fn fleet_resume_rejects_the_knobs_its_checkpoint_pins() {
        for (flag, value) in [
            ("--sessions", "999"),
            ("--seed", "42"),
            ("--max-epochs", "1"),
            ("--scenarios", "mall"),
            ("--chaos-every", "3"),
            ("--panic-lane", "1"),
            ("--panic-epoch", "2"),
        ] {
            fleet_rejects(&["--resume", "x.ckpt.json", flag, value], flag);
        }
        // Execution knobs stay free: this resume gets as far as its checkpoint.
        let v = ["--resume", "x.ckpt.json", "--resident", "9", "--out", "no-such-dir"];
        let err = cmd_fleet(&parse("fleet", &v).unwrap()).unwrap_err();
        assert!(err.starts_with("read checkpoint x.ckpt.json"), "{err}");
    }

    /// `chaos` and `fleet` write only into a directory they are given:
    /// without `--out` each fails before it loads any models, naming it.
    #[test]
    fn chaos_and_fleet_require_an_out_directory() {
        let v = ["--models", "no-such-models.json", "--scenarios", "office"];
        let err = cmd_chaos(&parse("chaos", &v).unwrap(), None).unwrap_err();
        assert!(err.starts_with("--out DIR is required"), "{err}");
        let v = ["--models", "no-such-models.json", "--sessions", "2"];
        let err = cmd_fleet(&parse("fleet", &v).unwrap()).unwrap_err();
        assert!(err.starts_with("--out DIR is required"), "{err}");
        let resume = ["--models", "no-such-models.json", "--resume", "x.ckpt.json"];
        let err = cmd_fleet(&parse("fleet", &resume).unwrap()).unwrap_err();
        assert!(err.starts_with("--out DIR is required"), "{err}");
    }

    #[test]
    fn fleet_rejects_a_panic_epoch_without_a_lane() {
        fleet_rejects(&["--panic-epoch", "1"], "--panic-epoch");
    }

    #[test]
    fn fleet_rejects_a_panic_lane_past_the_fleet() {
        fleet_rejects(&["--sessions", "3", "--panic-lane", "99"], "--panic-lane");
        fleet_rejects(&["--sessions", "3", "--panic-lane", "3"], "--panic-lane");
    }

    #[test]
    fn fleet_rejects_a_panic_epoch_its_walks_never_reach() {
        let line = ["--sessions", "6", "--max-epochs", "4", "--panic-lane", "2", "--panic-epoch"];
        for epoch in ["4", "50"] {
            fleet_rejects(&[&line[..], &[epoch]].concat(), "--panic-epoch");
        }
    }

    /// With whole walks (`--max-epochs 0`) only the run can tell that the
    /// armed lane's walk ended before its panic epoch.
    #[test]
    fn fleet_fails_when_the_armed_lane_retires_unpoisoned() {
        let out = std::env::temp_dir().join("uniloc-cli-test-unfired-panic");
        let out = out.to_str().unwrap();
        let v = [
            "--sessions", "1", "--scenarios", "office", "--max-epochs", "0", "--jobs", "1",
            "--panic-lane", "0", "--panic-epoch", "100000", "--out", out,
        ];
        let err = cmd_fleet(&parse("fleet", &v).unwrap()).unwrap_err();
        let _ = std::fs::remove_dir_all(out);
        assert!(err.contains("--panic-epoch 100000 never fired"), "{err}");
    }

    /// A flag only the other mode reads is an error naming it.
    #[test]
    fn fleet_rejects_the_flags_of_the_mode_it_does_not_run() {
        for (flag, value) in [
            ("--out", Some("dir")),
            ("--strict", None),
            ("--alloc-budget", Some("0")),
            ("--checkpoint-every", Some("1")),
            ("--checkpoint", Some("x.ckpt.json")),
            ("--resume", Some("x.ckpt.json")),
            ("--crash-after-rounds", Some("3")),
        ] {
            let mut v = vec!["--models", "no-such-models.json", "--obs-overhead", flag];
            v.extend(value);
            let err = cmd_fleet(&parse("fleet", &v).unwrap()).unwrap_err();
            assert!(err.starts_with(flag), "{flag} is not named first: {err}");
        }
    }

    #[test]
    fn fleet_rejects_a_checkpoint_path_without_a_cadence() {
        fleet_rejects(&["--checkpoint", "x.ckpt.json"], "--checkpoint-every");
        let zero_cadence = ["--checkpoint", "x.ckpt.json", "--checkpoint-every", "0"];
        fleet_rejects(&zero_cadence, "--checkpoint-every");
    }

    /// A simulated crash with no checkpoint cadence would leave nothing
    /// to resume: it fails before any model is loaded, naming both flags.
    #[test]
    fn fleet_rejects_a_crash_without_a_cadence() {
        let zero_cadence = ["--crash-after-rounds", "3", "--checkpoint-every", "0"];
        for line in [&["--crash-after-rounds", "3"][..], &zero_cadence] {
            fleet_rejects(line, "--crash-after-rounds");
            fleet_rejects(line, "--checkpoint-every");
        }
    }

    /// A simulated crash before the first checkpoint would leave nothing
    /// to resume either; a crash at the first checkpoint's round passes
    /// the flag checks (and fails only on the missing models file).
    #[test]
    fn fleet_rejects_a_crash_before_the_first_checkpoint() {
        for crash in ["0", "2", "9"] {
            let line = ["--crash-after-rounds", crash, "--checkpoint-every", "10"];
            fleet_rejects(&line, "--crash-after-rounds");
            fleet_rejects(&line, "--checkpoint-every");
        }
        for (crash, cadence) in [("10", "10"), ("0", "1"), ("11", "10")] {
            let mut v = vec!["--models", "no-such-models.json", "--out", "no-such-dir"];
            v.extend(["--crash-after-rounds", crash, "--checkpoint-every", cadence]);
            let err = cmd_fleet(&parse("fleet", &v).unwrap()).unwrap_err();
            assert!(err.contains("no-such-models.json"), "{crash}/{cadence}: {err}");
        }
    }

    #[test]
    fn fleet_rejects_a_zero_resident_cap() {
        fleet_rejects(&["--resident", "0"], "--resident");
    }

    #[test]
    fn fleet_rejects_negative_budgets() {
        fleet_rejects(&["--alloc-budget", "-1"], "--alloc-budget");
    }

    /// Every name `uniloc scenarios` prints resolves, and a name it does
    /// not print (`daily`, which the docs use for path1's walk, or a
    /// typo) fails with the hint to run it.
    #[test]
    fn the_scenarios_command_lists_exactly_the_vocabulary() {
        let mut names = Vec::new();
        for (entry, _) in SCENARIOS {
            match entry.split_once(" .. ") {
                Some((first, last)) => {
                    let digit = |name: &str| name.trim_start_matches("path").parse::<u32>();
                    let (a, b) = (digit(first).unwrap(), digit(last).unwrap());
                    names.extend((a..=b).map(|i| format!("path{i}")));
                }
                None => names.push(entry.to_string()),
            }
        }
        assert_eq!(names.len(), 11, "{names:?}");
        for name in &names {
            assert!(scenario_by_name(name, 1).is_ok(), "`{name}` is printed but does not resolve");
        }
        for name in ["daily", "offfice"] {
            let err = scenario_by_name(name, 1).expect_err("not in the vocabulary");
            assert!(err.contains(&format!("`{name}`")) && err.contains("try `uniloc scenarios`"));
        }
    }

    #[test]
    fn inspect_metrics_reads_sidecar_and_reports_bad_lines() {
        let dir = std::env::temp_dir();
        let good = dir.join("uniloc-cli-test-metrics.jsonl");
        std::fs::write(
            &good,
            concat!(
                "{\"kind\":\"span\",\"level\":\"span\",\"name\":\"engine.update\",\"t_ns\":5,\"duration_ns\":3,\"fields\":{}}\n",
                "{\"kind\":\"counter\",\"name\":\"pipeline.epochs\",\"value\":12}\n",
                "{\"kind\":\"gauge\",\"name\":\"engine.tau\",\"value\":0.5}\n",
                "{\"kind\":\"histogram\",\"name\":\"h\",\"bounds\":[1.0,2.0],\"counts\":[1,0,0],\"sum\":0.5,\"dropped\":0}\n",
            ),
        )
        .unwrap();
        let f = parse("inspect", &["--file", good.to_str().unwrap()]).unwrap();
        assert!(cmd_inspect(&f).is_ok());

        let bad = dir.join("uniloc-cli-test-metrics-bad.jsonl");
        std::fs::write(&bad, "{\"kind\":\"counter\"\n").unwrap();
        let f = parse("inspect", &["--file", bad.to_str().unwrap()]).unwrap();
        let err = cmd_inspect(&f).unwrap_err();
        assert!(err.contains(":1:"), "error should cite the line: {err}");
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn inspect_dispatches_on_the_document_tag() {
        let dir = std::env::temp_dir();
        let untagged = dir.join("uniloc-cli-test-untagged.json");
        std::fs::write(&untagged, "{\"scenario\": \"office\", \"runs\": []}").unwrap();
        let f = parse("inspect", &["--file", untagged.to_str().unwrap()]).unwrap();
        let err = cmd_inspect(&f).unwrap_err();
        for tag in ["`health`", "`prof: \"alloc\"`", "`models`", "`kind`"] {
            assert!(err.contains(tag), "the error should name {tag}: {err}");
        }
        // A one-line sidecar is one JSON document too; its `kind` marks it.
        let one_line = dir.join("uniloc-cli-test-one-line.jsonl");
        std::fs::write(&one_line, "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}\n").unwrap();
        let f = parse("inspect", &["--file", one_line.to_str().unwrap()]).unwrap();
        assert!(cmd_inspect(&f).is_ok());
        std::fs::remove_file(&untagged).ok();
        std::fs::remove_file(&one_line).ok();
    }

    #[test]
    fn inspect_metrics_requires_file_flag() {
        let f = parse("inspect", &[]).unwrap();
        assert!(cmd_inspect(&f).unwrap_err().contains("--file"));
    }
}
