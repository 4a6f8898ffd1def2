//! `compare A B`: pairs two result sets run by run (same workload, same
//! seed) and judges every end-to-end metric against its bound in
//! `BENCHMARK.json`.
//!
//! The rule: B *improved* a metric when it wins at least nine of every ten
//! pairs (ties count for neither) and the medians differ by more than A's
//! interquartile range. When either side's spread is wider than the bound
//! the metric is *unresolved*, unless every B run beats every A run. B
//! *regressed* when its median is worse than A's by more than the bound.
//! Anything else is *unchanged*.

use std::collections::BTreeMap;
use std::path::Path;

use uniloc_stats::json::{FromJson, Json};

use crate::report::RunResult;
use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Share of pairs B won, and the verdict. `a` and `b` are every run of
/// each side; `pairs` matches runs of the same seed.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> (f64, Verdict) {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let wins = pairs.iter().filter(|&&(pa, pb)| better(pb, pa)).count();
    let won = if pairs.is_empty() {
        0.0
    } else {
        wins as f64 / pairs.len() as f64
    };
    let (ma, mb) = (median(a), median(b));
    let iqr_a = quartiles(a).map_or(0.0, |(q1, q3)| q3 - q1);
    if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mb, ma)
        && (mb - ma).abs() > iqr_a
    {
        return (won, Verdict::Improved);
    }
    let noisy = spread(a).unwrap_or(0.0) > bound || spread(b).unwrap_or(0.0) > bound;
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if noisy && !every_b_better {
        return (won, Verdict::Unresolved);
    }
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    if ma != 0.0 && worse / ma.abs() > bound || ma == 0.0 && worse > 0.0 {
        return (won, Verdict::Regressed);
    }
    (won, Verdict::Unchanged)
}

/// Reads the end-to-end bounds from a `BENCHMARK.json`.
///
/// # Errors
///
/// Describes a missing or malformed file.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            Ok(Bound {
                name: s("name").ok_or("end_to_end entry without a name")?,
                lower_is_better: s("better").ok_or("end_to_end entry without `better`")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// Every untraced result under `dir`, keyed by (workload, seed).
///
/// # Errors
///
/// Describes an unreadable directory.
pub fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("read {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("read {}: {e}", d.display()))?
                .path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(result) = Json::parse(&text).and_then(|j| RunResult::from_json(&j)) else {
                continue;
            };
            if !result.trace {
                out.insert((result.workload.clone(), result.stamp.seed), result);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("no results under {}", dir.display()));
    }
    Ok(out)
}

type ResultSet = BTreeMap<(String, u64), RunResult>;

/// The runs of workload `w` in a set, with their seeds.
fn runs_of<'a>(set: &'a ResultSet, w: &str) -> Vec<(u64, &'a RunResult)> {
    set.iter()
        .filter(|((name, _), _)| name == w)
        .map(|((_, seed), r)| (*seed, r))
        .collect()
}

fn fmt_side(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    format!("{:>11.4} [{:.4} {:.4}]", median(values), q1, q3)
}

/// Prints the comparison and returns whether any metric regressed.
///
/// # Errors
///
/// Describes unreadable inputs.
pub fn compare(a_dir: &Path, b_dir: &Path, spec: &Path) -> Result<bool, String> {
    let bounds = load_bounds(spec)?;
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    let mut workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    for (w, _) in a.keys().chain(b.keys()) {
        if !workloads.contains(w) {
            workloads.push(w.clone());
        }
    }
    println!(
        "{:<13} {:<13} {:>33} {:>33} {:>8} {:>5}  verdict",
        "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "won"
    );
    let mut any_regressed = false;
    for w in &workloads {
        let (ra, rb) = (runs_of(&a, w), runs_of(&b, w));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let mut tally: BTreeMap<Verdict, usize> = BTreeMap::new();
        for bound in &bounds {
            let values = |runs: &[(u64, &RunResult)]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(_, r)| r.metric(&bound.name))
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = ra
                .iter()
                .filter_map(|(seed, x)| {
                    let y = rb.iter().find(|(s, _)| s == seed)?.1;
                    Some((x.metric(&bound.name)?, y.metric(&bound.name)?))
                })
                .collect();
            let (won, v) = verdict(&va, &vb, &pairs, bound.lower_is_better, bound.bound);
            *tally.entry(v).or_default() += 1;
            let change = (median(&vb) - median(&va)) / median(&va).abs();
            println!(
                "{:<13} {:<13} {:>33} {:>33} {:>+7.1}% {:>4.0}%  {} (bound {:.0}%, {} pairs)",
                w,
                bound.name,
                fmt_side(&va),
                fmt_side(&vb),
                change * 100.0,
                won * 100.0,
                v.name(),
                bound.bound * 100.0,
                pairs.len()
            );
        }
        let worst = tally
            .keys()
            .next_back()
            .copied()
            .unwrap_or(Verdict::Unchanged);
        any_regressed |= worst == Verdict::Regressed;
        let counts: Vec<String> = tally
            .iter()
            .map(|(v, n)| format!("{n} {}", v.name()))
            .collect();
        println!("{w:<13} => {} ({})", worst.name(), counts.join(", "));
    }
    Ok(any_regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Faster on every pair by far more than A's spread: improved.
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&a, &b, &pairs(&a, &b), true, 0.1).1,
            Verdict::Improved
        );
        // The same numbers for a higher-is-better metric: 0% won, and a 10%
        // drop against a 5% bound is a regression.
        let (won, v) = verdict(&a, &b, &pairs(&a, &b), false, 0.05);
        assert_eq!((won, v), (0.0, Verdict::Regressed));
        // Within the bound and no consistent win: unchanged.
        let c: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(
            verdict(&a, &c, &pairs(&a, &c), true, 0.05).1,
            Verdict::Unchanged
        );
        // Eight of ten pairs won is not enough to claim a gain.
        let mut d: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        d[0] = 200.0;
        d[1] = 200.0;
        assert_ne!(
            verdict(&a, &d, &pairs(&a, &d), true, 0.5).1,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(
            verdict(&a, &b, &pairs(&a, &b), true, 0.1).1,
            Verdict::Unresolved
        );
        // Every B run below every A run resolves it.
        let c = [10.0; 10];
        assert_eq!(
            verdict(&a, &c, &pairs(&a, &c), true, 0.1).1,
            Verdict::Improved
        );
        // A deterministic metric that did not move is unchanged, not noisy.
        let e = [3.25; 10];
        assert_eq!(
            verdict(&e, &e, &pairs(&e, &e), true, 0.0).1,
            Verdict::Unchanged
        );
    }
}
