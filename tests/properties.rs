//! Cross-crate property-based tests on UniLoc's core invariants, on the
//! in-repo [`uniloc::rng::check`] harness.

use uniloc::core::confidence::{adaptive_tau, confidence, fuse, weigh, Fusion};
use uniloc::core::engine::SchemeReport;
use uniloc::core::error_model::{train, ErrorPrediction, TrainingSample};
use uniloc::geom::{Point, Polygon, Polyline};
use uniloc::iodetect::IoState;
use uniloc::rng::check::Checker;
use uniloc::rng::{require, require_eq, Rng};
use uniloc::schemes::{LocationEstimate, SchemeId};
use uniloc::stats::{ols, Ecdf, Normal};

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/properties.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

/// Eq. 2 confidence is a probability and monotone in tau.
#[test]
fn confidence_is_probability_and_monotone() {
    checker("confidence_is_probability_and_monotone").run(
        |rng, scale| {
            (
                rng.gen_range(0.1..0.1 + 49.9 * scale), // mean
                rng.gen_range(0.1..0.1 + 19.9 * scale), // sigma
                rng.gen_range(0.0..30.0 * scale.max(0.01)), // tau_lo
                rng.gen_range(0.0..30.0 * scale.max(0.01)), // delta
            )
        },
        |&(mean, sigma, tau_lo, delta)| {
            let p = ErrorPrediction { mean, sigma };
            let c_lo = confidence(p, tau_lo);
            let c_hi = confidence(p, tau_lo + delta);
            require!((0.0..=1.0).contains(&c_lo));
            require!((0.0..=1.0).contains(&c_hi));
            require!(c_hi >= c_lo - 1e-12, "confidence must grow with tau");
            Ok(())
        },
    );
}

/// The adaptive threshold is always inside the predictions' range.
#[test]
fn tau_lies_within_prediction_range() {
    checker("tau_lies_within_prediction_range").run(
        |rng, scale| {
            let n = rng.gen_range(1..10usize);
            (0..n)
                .map(|_| rng.gen_range(0.1..0.1 + 49.9 * scale))
                .collect::<Vec<f64>>()
        },
        |means| {
            let preds: Vec<ErrorPrediction> = means
                .iter()
                .map(|&m| ErrorPrediction { mean: m, sigma: 1.0 })
                .collect();
            let tau = adaptive_tau(preds).unwrap();
            let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            require!(tau >= lo - 1e-9 && tau <= hi + 1e-9);
            Ok(())
        },
    );
}

/// A random combiner input: scheme `Custom(k)` with an estimate, a
/// prediction and a participation flag, each present with probability 0.8.
fn random_report(rng: &mut Rng, scale: f64, k: usize) -> (SchemeReport, bool) {
    let span = 100.0 * scale.max(0.01);
    let estimate = rng.gen_bool(0.8).then(|| {
        LocationEstimate::at(Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)))
    });
    let prediction = rng.gen_bool(0.8).then(|| ErrorPrediction {
        mean: rng.gen_range(0.1..0.1 + 49.9 * scale),
        sigma: rng.gen_range(0.1..0.1 + 19.9 * scale),
    });
    let id = SchemeId::Custom(k as u16);
    (SchemeReport { id, estimate, prediction, confidence: 0.0, weight: 0.0 }, rng.gen_bool(0.8))
}

/// Runs the combiner on reports with participation flags; a
/// non-participant is excluded the way a quarantined scheme is.
fn combine(inputs: &[(SchemeReport, bool)]) -> (Option<f64>, Vec<SchemeReport>, Fusion) {
    let excluded: Vec<SchemeId> =
        inputs.iter().filter(|(_, takes_part)| !takes_part).map(|(r, _)| r.id).collect();
    let mut reports: Vec<SchemeReport> = inputs.iter().map(|(r, _)| *r).collect();
    let tau = weigh(&mut reports, |r| !excluded.contains(&r.id));
    let fusion = fuse(&reports, &excluded);
    (tau, reports, fusion)
}

fn point_bits(p: Option<Point>) -> Option<(u64, u64)> {
    p.map(|p| (p.x.to_bits(), p.y.to_bits()))
}

/// The combiner's BMA weights form a simplex, and UniLoc2 stays inside the
/// bounding box of the weighted estimates.
#[test]
fn bma_stays_in_the_hull() {
    checker("bma_stays_in_the_hull").run(
        |rng, scale| {
            let n = rng.gen_range(2..8usize);
            (0..n).map(|k| random_report(rng, scale, k)).collect::<Vec<_>>()
        },
        |inputs| {
            let (_, reports, fusion) = combine(inputs);
            let Some(bma) = fusion.bma else {
                require!(reports.iter().all(|r| r.weight == 0.0));
                return Ok(()); // nothing confident: nothing to fuse
            };
            require!(reports.iter().all(|r| (0.0..=1.0).contains(&r.weight)));
            require!((reports.iter().map(|r| r.weight).sum::<f64>() - 1.0).abs() < 1e-9);
            let weighted = reports.iter().filter(|r| r.weight > 0.0).filter_map(|r| r.estimate);
            let within = |axis: fn(Point) -> f64| {
                let (lo, hi) = weighted
                    .clone()
                    .map(|e| axis(e.position))
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
                (lo - 1e-9..=hi + 1e-9).contains(&axis(bma))
            };
            require!(within(|p| p.x) && within(|p| p.y), "{bma} outside the hull");
            require_eq!(fusion.uniloc2(), Some(bma));
            Ok(())
        },
    );
}

/// Scheme-exclusion equivalence (DESIGN.md §7): inserting a report that is
/// unavailable, has no prediction or does not participate leaves `tau`,
/// every other report's confidence and weight, the BMA mean, and — when
/// some scheme is confident — UniLoc1's choice and both UniLoc positions
/// bit-identical; the inserted report gets no weight. The no-model
/// fallback is exempt: it may carry any available estimate.
#[test]
fn excluded_report_changes_nothing() {
    checker("excluded_report_changes_nothing").run(
        |rng, scale| {
            let n = rng.gen_range(1..7usize);
            let inputs: Vec<_> = (0..n).map(|k| random_report(rng, scale, k)).collect();
            let (mut extra, mut takes_part) = random_report(rng, scale, n);
            match rng.gen_range(0..3usize) {
                0 => extra.estimate = None,
                1 => extra.prediction = None,
                _ => takes_part = false,
            }
            (inputs, (extra, takes_part), rng.gen_range(0..n + 1))
        },
        |(inputs, extra, at)| {
            let (tau, reports, fusion) = combine(inputs);
            let mut more = inputs.clone();
            more.insert(*at, *extra);
            let (tau_more, mut reports_more, fusion_more) = combine(&more);
            require_eq!(tau.map(f64::to_bits), tau_more.map(f64::to_bits));
            for ((_, takes_part), r) in more.iter().zip(&reports_more) {
                let usable = *takes_part && r.estimate.is_some() && r.prediction.is_some();
                require!(r.weight == 0.0 || usable, "unusable {} weighs {}", r.id, r.weight);
            }
            let inserted = reports_more.remove(*at);
            require_eq!((inserted.confidence, inserted.weight), (0.0, 0.0));
            for (a, b) in reports.iter().zip(&reports_more) {
                require_eq!(a.confidence.to_bits(), b.confidence.to_bits());
                require_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
            require_eq!(point_bits(fusion.bma), point_bits(fusion_more.bma));
            if let Some(i) = fusion.selected {
                require_eq!(Some(if i < *at { i } else { i + 1 }), fusion_more.selected);
                require_eq!(point_bits(fusion.uniloc1), point_bits(fusion_more.uniloc1));
                require_eq!(point_bits(fusion.uniloc2()), point_bits(fusion_more.uniloc2()));
            }
            Ok(())
        },
    );
}

/// OLS recovers planted coefficients from noiseless data, whatever they
/// are.
#[test]
fn ols_recovers_planted_model() {
    checker("ols_recovers_planted_model").run(
        |rng, scale| {
            (
                rng.gen_range(-5.0 * scale..5.0 * scale.max(0.01)),
                rng.gen_range(-5.0 * scale..5.0 * scale.max(0.01)),
            )
        },
        |&(b1, b2)| {
            let xs: Vec<Vec<f64>> = (0..40)
                .map(|i| vec![(i % 7) as f64 + 0.5, ((i * 3) % 11) as f64 * 0.7 + 0.1])
                .collect();
            let ys: Vec<f64> = xs.iter().map(|r| b1 * r[0] + b2 * r[1]).collect();
            let fit = ols::fit(&xs, &ys).unwrap();
            require!((fit.coefficients()[0] - b1).abs() < 1e-6);
            require!((fit.coefficients()[1] - b2).abs() < 1e-6);
            Ok(())
        },
    );
}

/// Trained error models never predict a non-positive error.
#[test]
fn error_predictions_stay_positive() {
    checker("error_predictions_stay_positive").run(
        |rng, scale| {
            (
                (0..30)
                    .map(|_| rng.gen_range(-0.5 * scale..0.5 * scale.max(0.01)))
                    .collect::<Vec<f64>>(),
                (0..2).map(|_| rng.gen_range(0.0..40.0 * scale.max(0.01))).collect::<Vec<f64>>(),
            )
        },
        |(noise, query)| {
            let samples: Vec<TrainingSample> = noise
                .iter()
                .enumerate()
                .map(|(i, n)| TrainingSample {
                    scheme: SchemeId::Motion,
                    indoor: true,
                    features: vec![(i % 9) as f64 + 0.5, (i % 4) as f64 + 1.0],
                    error: ((i % 9) as f64 * 0.3 + n).max(0.0),
                })
                .collect();
            if let Ok(set) = train(&samples) {
                if let Some(p) = set.predict(SchemeId::Motion, IoState::Indoor, query) {
                    require!(p.mean > 0.0);
                    require!(p.sigma > 0.0);
                }
            }
            Ok(())
        },
    );
}

/// Normal CDF is monotone and symmetric (backs Eq. 2).
#[test]
fn normal_cdf_properties() {
    checker("normal_cdf_properties").run(
        |rng, scale| {
            (
                rng.gen_range(-10.0 * scale..10.0 * scale.max(0.01)),
                rng.gen_range(0.1..0.1 + 9.9 * scale),
                rng.gen_range(-30.0 * scale..30.0 * scale.max(0.01)),
            )
        },
        |&(mu, sigma, x)| {
            let n = Normal::new(mu, sigma).unwrap();
            let c = n.cdf(x);
            require!((0.0..=1.0).contains(&c));
            require!(n.cdf(x + 1.0) >= c - 1e-12);
            // Symmetry around the mean.
            let d = x - mu;
            require!((n.cdf(mu + d) + n.cdf(mu - d) - 1.0).abs() < 1e-6);
            Ok(())
        },
    );
}

/// Polyline stations round-trip: point_at(project(p)) is the nearest
/// on-path point.
#[test]
fn polyline_projection_consistency() {
    checker("polyline_projection_consistency").run(
        |rng, scale| {
            (
                50.0 + (rng.gen_range(-50.0..150.0) - 50.0) * scale,
                rng.gen_range(-50.0 * scale..50.0 * scale.max(0.01)),
            )
        },
        |&(x, y)| {
            let path = Polyline::new(vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(50.0, 30.0),
                Point::new(100.0, 30.0),
            ])
            .unwrap();
            let p = Point::new(x, y);
            let (on_path, station) = path.project(p);
            require!((0.0..=path.length() + 1e-9).contains(&station));
            let reconstructed = path.point_at(station);
            require!(reconstructed.distance(on_path) < 1e-6);
            // No station is closer than the projection (sampled check).
            for s in [0.0, 10.0, 40.0, 80.0, path.length()] {
                require!(path.point_at(s).distance(p) + 1e-9 >= on_path.distance(p));
            }
            Ok(())
        },
    );
}

/// Polygon containment is translation-invariant.
#[test]
fn polygon_containment_translates() {
    checker("polygon_containment_translates").run(
        |rng, scale| {
            (
                5.0 + (rng.gen_range(-5.0..15.0) - 5.0) * scale,
                5.0 + (rng.gen_range(-5.0..15.0) - 5.0) * scale,
                rng.gen_range(-100.0 * scale..100.0 * scale.max(0.01)),
                rng.gen_range(-100.0 * scale..100.0 * scale.max(0.01)),
            )
        },
        |&(px, py, dx, dy)| {
            let poly = Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ])
            .unwrap();
            let p = Point::new(px, py);
            let moved = poly.translated(uniloc::geom::Vector2::new(dx, dy));
            require_eq!(poly.contains(p), moved.contains(Point::new(px + dx, py + dy)));
            Ok(())
        },
    );
}

/// ECDF is a valid CDF: monotone, 0-at-left, 1-at-right.
#[test]
fn ecdf_is_a_cdf() {
    checker("ecdf_is_a_cdf").run(
        |rng, scale| {
            let n = rng.gen_range(1..50usize);
            (0..n)
                .map(|_| rng.gen_range(-100.0 * scale..100.0 * scale.max(0.01)))
                .collect::<Vec<f64>>()
        },
        |sample| {
            let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let cdf = Ecdf::new(sample.clone()).unwrap();
            require_eq!(cdf.eval(lo - 1.0), 0.0);
            require_eq!(cdf.eval(hi), 1.0);
            let mut last = 0.0;
            for i in -10..=10 {
                let x = lo + (hi - lo) * (i as f64 + 10.0) / 20.0;
                let c = cdf.eval(x);
                require!(c >= last - 1e-12);
                last = c;
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Fault-injection subsystem invariants (uniloc-faults + the engine guards).
// ---------------------------------------------------------------------------

/// A synthetic but plausible sensor frame for fault-machinery tests —
/// cheap enough to build hundreds of walks per property case.
fn synthetic_frames(rng: &mut uniloc::rng::Rng, n: usize) -> Vec<uniloc::sensors::SensorFrame> {
    use uniloc::env::ApId;
    use uniloc::sensors::{CellScan, GpsFix, SensorFrame, StepMeasurement, WifiScan};
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.5;
            SensorFrame {
                t,
                true_position: Point::new(i as f64, rng.gen_range(-5.0..5.0)),
                wifi: Some(WifiScan {
                    readings: (0..4u32)
                        .map(|a| (ApId(a), rng.gen_range(-90.0..-40.0)))
                        .collect(),
                }),
                cell: Some(CellScan {
                    readings: (0..2u32)
                        .map(|c| (uniloc::env::TowerId(c), rng.gen_range(-110.0..-60.0)))
                        .collect(),
                }),
                gps: Some(GpsFix {
                    coordinate: uniloc::geom::GeoCoord {
                        lat: 1.3 + i as f64 * 1e-6,
                        lon: 103.7,
                    },
                    hdop: rng.gen_range(0.8..3.0),
                    satellites: 9,
                }),
                steps: vec![StepMeasurement {
                    t: t - 0.1,
                    duration: 0.45,
                    length_est: rng.gen_range(0.5..0.9),
                    heading_est: rng.gen_range(-3.1..3.1),
                }],
                landmark: None,
                light_lux: rng.gen_range(0.0..500.0),
                magnetic_variance: rng.gen_range(0.0..2.0),
            }
        })
        .collect()
}

/// Same `(seed, plan)` ⇒ byte-identical fault schedule and frame stream;
/// the `none` plan is an exact pass-through.
#[test]
fn fault_injection_is_deterministic() {
    use uniloc::faults::{FaultClause, FaultInjector, FaultKind, FaultPlan};
    checker("fault_injection_is_deterministic").cases(48).run(
        |rng, scale| {
            let kinds = [
                FaultKind::RadioBlackout { wifi: true, cell: true, gps: true },
                FaultKind::ApChurn { fraction: 0.5 + 0.4 * scale },
                FaultKind::CellNlosBias { bias_db: 5.0 + 30.0 * scale },
                FaultKind::GpsMultipathJump { magnitude_m: 50.0 + 900.0 * scale, prob: 0.7 },
                FaultKind::NanCorruption { prob: 0.5 },
                FaultKind::DuplicateFrame { prob: 0.4 },
                FaultKind::TimeRegression { offset_s: 2.0, prob: 0.3 },
                FaultKind::ClockJitter { sigma_s: 0.02 },
            ];
            let n_clauses = rng.gen_range(1..4usize);
            let clauses: Vec<FaultClause> = (0..n_clauses)
                .map(|_| {
                    let a = rng.gen_range(0.0..0.6);
                    let b = a + rng.gen_range(0.05..0.39);
                    let kind = kinds[rng.gen_range(0..kinds.len())];
                    FaultClause::over(a, b, kind)
                })
                .collect();
            (rng.gen_range(0..u64::MAX), clauses, rng.gen_range(10..60usize))
        },
        |(seed, clauses, n)| {
            let plan = FaultPlan::new("prop", clauses.clone());
            let mut frame_rng = uniloc::rng::Rng::seed_from_u64(*seed ^ 0xf00d);
            let frames = synthetic_frames(&mut frame_rng, *n);

            let mut a = FaultInjector::new(plan.clone(), *seed);
            let mut b = FaultInjector::new(plan, *seed);
            let fa = a.inject_walk(&frames);
            let fb = b.inject_walk(&frames);
            require_eq!(a.schedule_json(), b.schedule_json());
            // NaN != NaN, so poisoned frames are compared via Debug.
            require_eq!(format!("{fa:?}"), format!("{fb:?}"));

            let mut none = uniloc::faults::FaultInjector::new(FaultPlan::none(), *seed);
            let passthrough = none.inject_walk(&frames);
            require_eq!(passthrough.len(), frames.len());
            require!(passthrough == frames, "none plan must be an exact pass-through");
            Ok(())
        },
    );
}

/// Quarantine hysteresis never oscillates faster than the backoff floor:
/// between a trip and the matching re-admission at least
/// `backoff + READMIT_SANE_EPOCHS - 1` epochs elapse, and consecutive
/// sentences never shrink.
#[test]
fn quarantine_backoff_is_a_floor() {
    use uniloc::core::quarantine::{
        QuarantineMachine, QuarantineTransition, SchemeVerdict, BACKOFF_BASE_EPOCHS,
        BACKOFF_CAP_EPOCHS, READMIT_SANE_EPOCHS,
    };
    checker("quarantine_backoff_is_a_floor").run(
        |rng, _scale| {
            // A random verdict stream: mostly sane with strike bursts.
            let n = rng.gen_range(50..400usize);
            (0..n)
                .map(|_| rng.gen_bool(0.25))
                .collect::<Vec<bool>>()
        },
        |strikes| {
            let id = SchemeId::Wifi;
            let mut q = QuarantineMachine::new(&[id]);
            let mut tripped_at: Option<(usize, u32)> = None;
            let mut last_sentence = 0u32;
            for (epoch, &strike) in strikes.iter().enumerate() {
                q.begin_epoch();
                let verdict = if strike { SchemeVerdict::Strike } else { SchemeVerdict::Sane };
                match q.observe(id, verdict) {
                    Some(QuarantineTransition::Tripped(_, strike_count)) => {
                        let sentence = (BACKOFF_BASE_EPOCHS
                            .saturating_mul(2u32.saturating_pow(strike_count - 1)))
                        .min(BACKOFF_CAP_EPOCHS);
                        require!(
                            sentence >= last_sentence.min(BACKOFF_CAP_EPOCHS),
                            "sentences must not shrink"
                        );
                        last_sentence = sentence;
                        tripped_at = Some((epoch, sentence));
                    }
                    Some(QuarantineTransition::Readmitted(_)) => {
                        let (at, sentence) = tripped_at.take().expect("readmit without trip");
                        let elapsed = (epoch - at) as u32;
                        require!(
                            elapsed >= sentence + READMIT_SANE_EPOCHS - 1,
                            "re-admitted after {elapsed} epochs, floor is {}",
                            sentence + READMIT_SANE_EPOCHS - 1
                        );
                        last_sentence = 0;
                    }
                    None => {}
                }
            }
            Ok(())
        },
    );
}

/// The validation gate is idempotent: scrubbing a scrubbed frame removes
/// nothing, and a clean frame passes through untouched.
#[test]
fn scrub_frame_is_idempotent() {
    use uniloc::core::scrub_frame;
    use uniloc::faults::{FaultClause, FaultInjector, FaultKind, FaultPlan};
    checker("scrub_frame_is_idempotent").cases(64).run(
        |rng, _scale| (rng.gen_range(0..u64::MAX), rng.gen_range(5..40usize)),
        |(seed, n)| {
            let mut frame_rng = uniloc::rng::Rng::seed_from_u64(*seed);
            let frames = synthetic_frames(&mut frame_rng, *n);
            // Clean frames pass untouched.
            for f in &frames {
                require!(scrub_frame(f).is_none(), "clean frame must not scrub");
            }
            // NaN-poisoned frames scrub to clean in one pass.
            let plan = FaultPlan::new(
                "poison",
                vec![FaultClause::over(0.0, 1.0, FaultKind::NanCorruption { prob: 0.9 })],
            );
            let mut inj = FaultInjector::new(plan, *seed ^ 0xbeef);
            for f in inj.inject_walk(&frames) {
                if let Some((clean, report)) = scrub_frame(&f) {
                    require!(report.any(), "a scrub must report what it removed");
                    require!(
                        scrub_frame(&clean).is_none(),
                        "scrubbing a scrubbed frame must be a no-op"
                    );
                }
            }
            Ok(())
        },
    );
}

/// The parallel work queue is a lossless, duplication-free,
/// order-preserving map: for any item list and any worker count,
/// `run_ordered` returns exactly `f(i, item_i)` at position `i` and calls
/// `f` exactly once per item.
#[test]
fn run_ordered_is_a_lossless_ordered_map() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use uniloc::core::parallel::run_ordered;
    checker("run_ordered_is_a_lossless_ordered_map").cases(48).run(
        |rng, scale| {
            let n = rng.gen_range(0..1 + (200.0 * scale) as usize);
            let jobs = rng.gen_range(1..17usize);
            let items: Vec<u64> = (0..n).map(|_| rng.gen_range(0..u64::MAX / 4)).collect();
            (items, jobs)
        },
        |(items, jobs)| {
            let calls = AtomicU64::new(0);
            let got = run_ordered(items, *jobs, |i, x| {
                calls.fetch_add(1, Ordering::Relaxed);
                (i, x.wrapping_mul(3).wrapping_add(1))
            });
            require_eq!(calls.load(Ordering::Relaxed), items.len() as u64);
            require_eq!(got.len(), items.len());
            for (slot, (i, v)) in got.iter().enumerate() {
                require!(slot == *i, "result out of order");
                require_eq!(*v, items[slot].wrapping_mul(3).wrapping_add(1));
            }
            Ok(())
        },
    );
}

/// RNG stream-splitting never collides across sibling walk seeds: for any
/// root seed, the lane seeds are pairwise distinct, distinct from the
/// root, and distinct from neighboring roots' lanes.
#[test]
fn split_seed_lanes_never_collide() {
    use std::collections::HashSet;
    use uniloc::rng::split_seed;
    checker("split_seed_lanes_never_collide").cases(64).run(
        |rng, scale| {
            let root = rng.gen_range(0..u64::MAX);
            let lanes = rng.gen_range(2..2 + (510.0 * scale) as u64 + 1);
            (root, lanes)
        },
        |&(root, lanes)| {
            let mut seen = HashSet::new();
            seen.insert(root);
            for r in [root, root.wrapping_add(1), root.wrapping_add(100)] {
                for lane in 0..lanes {
                    require!(
                        seen.insert(split_seed(r, lane)),
                        "lane seed collided (root {r}, lane {lane})"
                    );
                }
            }
            // Sibling lanes must also decorrelate as streams, not just as
            // labels: first draws of adjacent lanes differ.
            let a = uniloc::rng::Rng::seed_from_u64(split_seed(root, 0)).next_u64();
            let b = uniloc::rng::Rng::seed_from_u64(split_seed(root, 1)).next_u64();
            require!(a != b, "adjacent lanes drew identical first values");
            Ok(())
        },
    );
}
