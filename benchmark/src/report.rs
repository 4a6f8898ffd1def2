//! The result of one run: metrics with units, correctness counts, the
//! fleet's identity (epochs, sessions, digest) and the run stamp. Written
//! to `out/<seed>/<workload>[.trace].json` and read back by `compare`.

use uniloc_stats::json::Json;

/// Time spent in the spans of one name, from a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    pub name: String,
    pub count: u64,
    pub total_ms: f64,
    /// Total minus the time covered by child spans.
    pub self_ms: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Where and how a result was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub jobs: usize,
    pub profile: String,
    pub seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    /// Sessions attempted, summed over repetitions.
    pub attempted: u64,
    /// Sessions poisoned or in violation, summed over repetitions.
    pub failed: u64,
    /// Epochs and sessions of one repetition of the fleet.
    pub epochs: u64,
    pub sessions: u64,
    pub fleet_digest: String,
    pub reps: u64,
    /// Samples behind each percentile metric.
    pub samples: Vec<(String, u64)>,
    pub metrics: Vec<Metric>,
    /// Per span name, traced runs only.
    pub spans: Vec<SpanTotal>,
    pub stamp: Stamp,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last line a run prints: correctness, counts and metrics as one
    /// JSON object.
    pub fn summary_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(m.value)),
                            ("unit".into(), Json::Str(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), metrics),
        ])
        .to_string()
    }
}

uniloc_stats::impl_json_struct!(Metric { name, value, unit });
uniloc_stats::impl_json_struct!(SpanTotal {
    name,
    count,
    total_ms,
    self_ms
});
uniloc_stats::impl_json_struct!(Stamp {
    git_rev,
    rustc,
    nproc,
    jobs,
    profile,
    seed
});
uniloc_stats::impl_json_struct!(RunResult {
    workload,
    trace,
    correct,
    attempted,
    failed,
    epochs,
    sessions,
    fleet_digest,
    reps,
    samples,
    metrics,
    spans,
    stamp,
});

/// The run stamp for this process.
pub fn stamp(seed: u64, jobs: usize) -> Stamp {
    Stamp {
        git_rev: git_rev().unwrap_or_else(|| "unknown".to_owned()),
        rustc: env!("BENCH_RUSTC_VERSION").to_owned(),
        nproc: nproc(),
        jobs,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_owned(),
        seed,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's commit, read from `.git` in the working directory only
/// (never from a parent directory's repository).
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_stats::json::ToJson;

    #[test]
    fn result_json_round_trips() {
        let r = RunResult {
            workload: "chaos-mix".into(),
            trace: false,
            correct: true,
            attempted: 2400,
            failed: 0,
            epochs: 49_204,
            sessions: 1200,
            fleet_digest: "0123456789abcdef".into(),
            reps: 2,
            samples: vec![("epoch".into(), 98_408), ("round".into(), 1558)],
            metrics: vec![
                Metric {
                    name: "epochs_per_s".into(),
                    value: 4460.125,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.7,
                    unit: "s".into(),
                },
            ],
            spans: vec![SpanTotal {
                name: "build".into(),
                count: 3,
                total_ms: 60.5,
                self_ms: 0.25,
            }],
            stamp: Stamp {
                git_rev: "unknown".into(),
                rustc: "rustc 1.95.0".into(),
                nproc: 2,
                jobs: 2,
                profile: "release".into(),
                seed: u64::from(u32::MAX),
            },
        };
        let text = r.to_json().to_string_pretty();
        let back: RunResult = uniloc_stats::json::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("setup_s"), Some(0.7));

        let line = Json::parse(&r.summary_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let eps = line
            .get("metrics")
            .and_then(|m| m.get("epochs_per_s"))
            .unwrap();
        assert_eq!(eps.get("value").and_then(Json::as_f64), Some(4460.125));
        assert_eq!(eps.get("unit").and_then(Json::as_str), Some("1/s"));
    }
}
