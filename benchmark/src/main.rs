//! The fleet benchmark.
//!
//! ```text
//! uniloc-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! uniloc-benchmark compare A B [--spec BENCHMARK.json]
//! ```
//!
//! `run --workload W` measures one workload and prints every metric as
//! `workload metric value unit`, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload` it runs every
//! workload, each in its own child process. See `README.md`.

mod compare;
mod postpass;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workload::{Scale, Workload};

const USAGE: &str = "usage: uniloc-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       uniloc-benchmark compare A B [--spec BENCHMARK.json]";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: 8.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                r.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let s = value()?;
                r.seed = s
                    .parse()
                    .ok()
                    .filter(|&n| i64::try_from(n).is_ok())
                    .ok_or_else(|| format!("bad --seed `{s}`"))?;
            }
            "--seconds" => {
                let s = value()?;
                r.seconds = s
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{s}`"))?;
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                r.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--smoke" => r.smoke = true,
            "--out" => r.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(r)
}

fn run_one(args: &RunArgs, workload: Workload) -> ExitCode {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        out: args.out.clone(),
    };
    match run::run(&opts) {
        Ok(result) => {
            let w = &result.workload;
            for (name, n) in &result.samples {
                let tail = stats::highest_supported(*n as usize, &[50.0, 90.0, 99.0, 99.9])
                    .map_or_else(|| "no percentile".to_owned(), |p| format!("up to p{p}"));
                println!("{w} samples.{name} {n} count (supports {tail})");
            }
            for s in &result.spans {
                println!(
                    "{w} span.{} {:.3} ms (self {:.3} ms, {} spans)",
                    s.name, s.total_ms, s.self_ms, s.count
                );
            }
            for m in &result.metrics {
                println!("{w} {} {:.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result.summary_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process, so each has its own
/// peak RSS, and prints their metric lines.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            w.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.output() {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                let mut lines: Vec<&str> = text.lines().collect();
                lines.pop();
                for line in lines {
                    println!("{line}");
                }
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("error: spawn {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(r) => match r.workload {
                Some(w) => run_one(&r, w),
                None => run_all(&r),
            },
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() >= 3 => {
            let spec = match args.get(3).map(String::as_str) {
                Some("--spec") => args.get(4).map(PathBuf::from),
                None => Some(PathBuf::from("BENCHMARK.json")),
                Some(_) => None,
            };
            let Some(spec) = spec else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            match compare::compare(args[1].as_ref(), args[2].as_ref(), &spec) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
