//! A small seeded property-test harness (the workspace's `proptest`
//! replacement).
//!
//! Each property runs against a deterministic sequence of generated cases:
//! case `i` of a checker named `n` with base seed `s` draws from
//! `Rng::from_seed(mix64(s, i))`, so a failure is pinned by `(name, seed,
//! scale)` alone and reproduces on any machine. Three mechanisms mirror
//! what the workspace used from proptest:
//!
//! * **Seeded case generation** — the generator closure receives a fresh
//!   [`Rng`] plus a `scale` in `(0, 1]` that ramps up across cases, so
//!   early cases are small (cheap, easy to debug) and later cases stress
//!   the full input domain.
//! * **Shrink-by-halving** — on failure the harness re-generates the case
//!   from the *same* seed with `scale` halved until the property passes,
//!   then reports the smallest still-failing case.
//! * **Failure-seed persistence** — shrunk failures append a
//!   `name seed scale` line to a regressions file (committed to source
//!   control, like `.proptest-regressions`); recorded cases replay before
//!   any fresh generation on every run.
//!
//! # Examples
//!
//! ```
//! use uniloc_rng::check::Checker;
//!
//! Checker::new("abs_is_non_negative").cases(50).run(
//!     |rng, scale| rng.gen_range(-100.0 * scale..100.0 * scale.max(0.01)),
//!     |&x| {
//!         if x.abs() >= 0.0 { Ok(()) } else { Err(format!("|{x}| < 0")) }
//!     },
//! );
//! ```

use crate::{mix64, Rng};
use std::fmt::Debug;
use std::io::Write as _;
use std::path::PathBuf;

/// Smallest scale the shrinker will try before giving up.
const MIN_SCALE: f64 = 1.0 / 1024.0;

/// Runs one property over a deterministic sequence of generated cases.
pub struct Checker {
    name: String,
    cases: u32,
    seed: u64,
    regressions: Option<PathBuf>,
}

/// One recorded failure: enough to regenerate the exact case.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Recorded {
    seed: u64,
    scale: f64,
}

impl Checker {
    /// Creates a checker. The base seed derives from the property name, so
    /// distinct properties explore distinct case sequences by default.
    pub fn new(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Checker { name: name.to_owned(), cases: 64, seed: h, regressions: None }
    }

    /// Overrides the number of fresh cases (default 64).
    pub fn cases(mut self, cases: u32) -> Self {
        assert!(cases > 0, "need at least one case");
        self.cases = cases;
        self
    }

    /// Sets the regressions file. Recorded failures for this property
    /// replay before fresh cases, and new shrunk failures are appended.
    pub fn regressions(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }

    /// Runs the property: `gen` builds a case from `(rng, scale)`, `prop`
    /// checks it.
    ///
    /// # Panics
    ///
    /// Panics with the shrunk counterexample on the first failing case.
    pub fn run<T, G, P>(self, gen: G, prop: P)
    where
        T: Debug,
        G: Fn(&mut Rng, f64) -> T,
        P: Fn(&T) -> Result<(), String>,
    {
        // 1. Replay recorded failures first.
        for rec in self.load_recorded() {
            let value = gen(&mut Rng::from_seed(rec.seed), rec.scale);
            if let Err(e) = prop(&value) {
                panic!(
                    "property `{}` still fails its recorded regression \
                     (seed 0x{:016x}, scale {}):\n  case: {:?}\n  error: {}",
                    self.name, rec.seed, rec.scale, value, e
                );
            }
        }
        // 2. Fresh cases with a ramping scale.
        for i in 0..self.cases {
            let case_seed = mix64(self.seed, u64::from(i));
            let scale = ramp(i, self.cases);
            let value = gen(&mut Rng::from_seed(case_seed), scale);
            if let Err(first_err) = prop(&value) {
                // Shrink by halving the scale from the same seed.
                let (scale, value, err) =
                    shrink(case_seed, scale, value, first_err, &gen, &prop);
                self.record(Recorded { seed: case_seed, scale });
                panic!(
                    "property `{}` failed (case {} of {}; seed 0x{:016x}, \
                     shrunk scale {}):\n  case: {:?}\n  error: {}\n  \
                     {}",
                    self.name,
                    i + 1,
                    self.cases,
                    case_seed,
                    scale,
                    value,
                    err,
                    match &self.regressions {
                        Some(p) => format!("recorded in {}", p.display()),
                        None => "no regressions file configured".to_owned(),
                    },
                );
            }
        }
    }

    /// Reads this property's recorded cases from the regressions file.
    fn load_recorded(&self) -> Vec<Recorded> {
        let Some(path) = &self.regressions else { return Vec::new() };
        let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
        let mut out = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(name), Some(seed), Some(scale)) =
                (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            if name != self.name {
                continue;
            }
            let seed = seed
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            let scale = scale.parse::<f64>().ok();
            if let (Some(seed), Some(scale)) = (seed, scale) {
                out.push(Recorded { seed, scale });
            }
        }
        out
    }

    /// Appends a freshly shrunk failure to the regressions file (if one is
    /// configured and the entry is not already present).
    fn record(&self, rec: Recorded) {
        let Some(path) = &self.regressions else { return };
        let line = format!("{} 0x{:016x} {}", self.name, rec.seed, rec.scale);
        if let Ok(existing) = std::fs::read_to_string(path) {
            if existing.lines().any(|l| l.trim() == line) {
                return;
            }
        }
        let header_needed = !path.exists();
        let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path)
        else {
            return; // read-only checkout: still fail the test, just unrecorded
        };
        if header_needed {
            let _ = writeln!(
                f,
                "# UniLoc property-test regressions: `name 0xseed scale` per line.\n\
                 # Recorded automatically on failure; replayed before fresh cases.\n\
                 # Check this file in so every checkout re-runs past failures.",
            );
        }
        let _ = writeln!(f, "{line}");
    }
}

/// Scale ramp: case 0 runs at a small scale, the last case at 1.0.
fn ramp(i: u32, cases: u32) -> f64 {
    if cases <= 1 {
        return 1.0;
    }
    let t = f64::from(i) / f64::from(cases - 1);
    (0.05 + 0.95 * t).min(1.0)
}

/// Halves `scale` while the property keeps failing; returns the smallest
/// failing `(scale, value, error)`.
fn shrink<T, G, P>(
    seed: u64,
    mut scale: f64,
    mut value: T,
    mut err: String,
    gen: &G,
    prop: &P,
) -> (f64, T, String)
where
    G: Fn(&mut Rng, f64) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    loop {
        let half = scale / 2.0;
        if half < MIN_SCALE {
            return (scale, value, err);
        }
        let candidate = gen(&mut Rng::from_seed(seed), half);
        match prop(&candidate) {
            Err(e) => {
                scale = half;
                value = candidate;
                err = e;
            }
            Ok(()) => return (scale, value, err),
        }
    }
}

/// Returns `Err` with a formatted message when a property requirement does
/// not hold — the harness's `prop_assert!` analogue.
#[macro_export]
macro_rules! require {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("requirement failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality form of [`require!`], printing both sides on failure.
#[macro_export]
macro_rules! require_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!(
                "requirement failed: {} == {} ({:?} vs {:?})",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let n = std::cell::Cell::new(0u32);
        Checker::new("count_cases").cases(40).run(
            |rng, _| rng.next_u64(),
            |_| {
                n.set(n.get() + 1);
                Ok(())
            },
        );
        assert_eq!(n.get(), 40);
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failing_property_panics_with_context() {
        Checker::new("always_fails").run(
            |rng, scale| rng.gen_range(0.0..scale.max(0.01)),
            |_| Err("nope".to_owned()),
        );
    }

    #[test]
    fn shrinking_reduces_scale() {
        // A property that fails only for values > 0.5: shrinking should
        // land near the smallest scale that still produces such a value.
        let result = std::panic::catch_unwind(|| {
            Checker::new("shrinks").cases(8).run(
                |rng, scale| rng.gen_range(0.0..1.0) * scale * 100.0,
                |&v| if v <= 0.5 { Ok(()) } else { Err(format!("{v} > 0.5")) },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("shrunk scale"), "{msg}");
    }

    #[test]
    fn regressions_file_round_trip() {
        let dir = std::env::temp_dir().join("uniloc-rng-check-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("regressions-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // First run fails and records the case.
        let result = std::panic::catch_unwind(|| {
            Checker::new("roundtrip").regressions(&path).run(
                |rng, _| rng.next_u64() % 100,
                |&v| if v < 1_000 { Err(format!("{v}")) } else { Ok(()) },
            );
        });
        assert!(result.is_err());
        let recorded = std::fs::read_to_string(&path).unwrap();
        assert!(recorded.lines().any(|l| l.starts_with("roundtrip 0x")), "{recorded}");

        // Second run replays the recorded case first and fails on it.
        let result = std::panic::catch_unwind(|| {
            Checker::new("roundtrip").regressions(&path).run(
                |rng, _| rng.next_u64() % 100,
                |&v| if v < 1_000 { Err(format!("{v}")) } else { Ok(()) },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("recorded regression"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn require_macros_format() {
        fn f(x: i32) -> Result<(), String> {
            require!(x > 0, "x was {x}");
            require_eq!(x % 2, 0);
            Ok(())
        }
        assert!(f(2).is_ok());
        assert_eq!(f(-1).unwrap_err(), "x was -1");
        assert!(f(3).unwrap_err().contains("x % 2"));
    }

    #[test]
    fn ramp_is_monotone() {
        let cases = 64;
        let mut last = 0.0;
        for i in 0..cases {
            let s = ramp(i, cases);
            assert!(s >= last && s <= 1.0);
            last = s;
        }
        assert_eq!(ramp(cases - 1, cases), 1.0);
    }
}
