//! The [`FaultInjector`]: applies a [`FaultPlan`] to a [`SensorFrame`]
//! stream, deterministically.
//!
//! The injector sits between the `SensorHub` and the engine, exactly where
//! a flaky radio, a reflective canyon wall or a dying IMU would sit in the
//! field. Determinism discipline matches `uniloc-rng`'s stream design:
//! every epoch draws from its own child stream forked from the injector
//! seed and the *input* epoch index, so a clause that duplicates or
//! re-emits frames never shifts the randomness of later epochs, and the
//! full applied schedule is byte-reproducible from the `(seed, plan)`
//! pair over the same input frames.

use crate::plan::{FaultClause, FaultKind, FaultPlan};
use uniloc_geom::{GeoCoord, GeoFrame, Vector2};
use uniloc_rng::Rng;
use uniloc_sensors::SensorFrame;

/// One applied fault, as recorded in the injector's schedule log.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Input epoch index the fault was applied at.
    pub epoch: usize,
    /// [`FaultKind::name`] of the fault.
    pub fault: String,
    /// Magnitude detail (displacement in m, bias in dB/rad, count of
    /// corrupted readings, ... — fault-specific, `0` where meaningless).
    pub magnitude: f64,
}

uniloc_stats::impl_json_struct!(FaultEvent { epoch, fault, magnitude });

/// Applies a [`FaultPlan`] to sensor-frame streams.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    geo: Option<GeoFrame>,
    /// Cumulative IMU heading bias (rad) accrued by `ImuBiasRamp`.
    imu_bias: f64,
    /// The heading a stuck compass axis is frozen at, once seen.
    stuck_heading: Option<f64>,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Creates an injector for `plan`, drawing all randomness from `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan,
            seed,
            geo: None,
            imu_bias: 0.0,
            stuck_heading: None,
            events: Vec::new(),
        }
    }

    /// Supplies the map's geographic frame so GPS displacement faults are
    /// exact in map meters. Without it the injector falls back to a flat-
    /// earth degree approximation (fine for fault realism, off by <1% at
    /// campus scale).
    pub fn with_geo_frame(mut self, geo: GeoFrame) -> Self {
        self.geo = Some(geo);
        self
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The log of every fault applied so far, in application order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The applied schedule serialized as canonical JSON — the
    /// byte-reproducibility witness: same `(seed, plan)` over the same
    /// frames must produce identical bytes.
    pub fn schedule_json(&self) -> String {
        uniloc_stats::json::to_string(&self.events)
    }

    /// Applies the plan to a whole walk. With [`FaultPlan::none`] the
    /// output is an exact clone of the input (same length, same bytes).
    ///
    /// Frame-stream faults may grow the output (duplicates, regressed
    /// re-emissions); per-channel faults corrupt frames in place. The
    /// `faults.injected.<kind>` counters record every application.
    pub fn inject_walk(&mut self, frames: &[SensorFrame]) -> Vec<SensorFrame> {
        let metrics = uniloc_obs::global_metrics();
        let total = frames.len();
        let mut out = Vec::with_capacity(total);
        for (epoch, frame) in frames.iter().enumerate() {
            // A child stream per input epoch: stream-stable regardless of
            // how many frames earlier clauses emitted.
            let mut rng = Rng::seed_from_u64(uniloc_rng::mix64(
                self.seed,
                0x6661756c74u64 ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            let mut frame = frame.clone();
            let mut duplicate = false;
            let mut regressed: Option<f64> = None;
            let active: Vec<FaultClause> = self
                .plan
                .clauses
                .iter()
                .copied()
                .filter(|c| c.active(epoch, total))
                .collect();
            for clause in &active {
                self.apply(clause.kind, epoch, &mut frame, &mut rng, &mut duplicate, &mut regressed);
            }
            for e in &self.events[self.events.len().saturating_sub(active.len())..] {
                metrics.counter(&format!("faults.injected.{}", e.fault)).inc();
            }
            out.push(frame.clone());
            if duplicate {
                out.push(frame.clone());
            }
            if let Some(offset) = regressed {
                let mut old = frame;
                old.t -= offset;
                out.push(old);
            }
        }
        out
    }

    fn log(&mut self, epoch: usize, kind: FaultKind, magnitude: f64) {
        self.events.push(FaultEvent { epoch, fault: kind.name().to_owned(), magnitude });
    }

    fn apply(
        &mut self,
        kind: FaultKind,
        epoch: usize,
        frame: &mut SensorFrame,
        rng: &mut Rng,
        duplicate: &mut bool,
        regressed: &mut Option<f64>,
    ) {
        match kind {
            FaultKind::RadioBlackout { wifi, cell, gps } => {
                if wifi {
                    frame.wifi = None;
                }
                if cell {
                    frame.cell = None;
                }
                if gps {
                    frame.gps = None;
                }
                self.log(epoch, kind, 0.0);
            }
            FaultKind::ApChurn { fraction } => {
                let mut churned = 0usize;
                if let Some(scan) = frame.wifi.as_mut() {
                    for (id, _) in scan.readings.iter_mut() {
                        if rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                            // A phantom id far outside the survey range:
                            // the DB has never heard of it.
                            *id = uniloc_env::ApId(
                                1_000_000 + id.0 + rng.gen_range(0..1_000_000u32),
                            );
                            churned += 1;
                        }
                    }
                    // Scans carry readings in ascending id order; the
                    // fingerprint distance's merge walk relies on it.
                    scan.readings.sort_by_key(|(id, _)| *id);
                    scan.readings.dedup_by_key(|(id, _)| *id);
                }
                self.log(epoch, kind, churned as f64);
            }
            FaultKind::CellNlosBias { bias_db } => {
                if let Some(scan) = frame.cell.as_mut() {
                    for (_, rssi) in scan.readings.iter_mut() {
                        *rssi -= bias_db + 2.0 * rng.standard_normal().abs();
                    }
                }
                self.log(epoch, kind, bias_db);
            }
            FaultKind::GpsMultipathJump { magnitude_m, prob } => {
                let mut applied = 0.0;
                if let Some(fix) = frame.gps.as_mut() {
                    if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                        let angle = rng.gen_range(0.0..(2.0 * std::f64::consts::PI));
                        let jump = Vector2::from_heading(angle, magnitude_m);
                        fix.coordinate = match &self.geo {
                            Some(geo) => geo.to_geo(geo.to_local(fix.coordinate) + jump),
                            None => flat_earth_offset(fix.coordinate, jump),
                        };
                        applied = magnitude_m;
                    }
                }
                self.log(epoch, kind, applied);
            }
            FaultKind::GpsStarvation => {
                if let Some(fix) = frame.gps.as_mut() {
                    if rng.gen_bool(0.3) {
                        // A junk fix leaks through, degraded below the
                        // paper's reliability gate.
                        fix.satellites = 4;
                        fix.hdop = 20.0;
                    } else {
                        frame.gps = None;
                    }
                }
                self.log(epoch, kind, 0.0);
            }
            FaultKind::ImuBiasRamp { rate_rad_per_s } => {
                for step in frame.steps.iter_mut() {
                    self.imu_bias += rate_rad_per_s * step.duration.max(0.0);
                    step.heading_est += self.imu_bias;
                }
                self.log(epoch, kind, self.imu_bias);
            }
            FaultKind::ImuStuckAxis => {
                for step in frame.steps.iter_mut() {
                    let stuck = *self.stuck_heading.get_or_insert(step.heading_est);
                    step.heading_est = stuck;
                }
                self.log(epoch, kind, self.stuck_heading.unwrap_or(0.0));
            }
            FaultKind::NanCorruption { prob } => {
                let mut corrupted = 0.0;
                if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                    corrupted = 1.0;
                    match rng.gen_range(0..6u32) {
                        0 => {
                            if let Some(scan) = frame.wifi.as_mut() {
                                if let Some((_, rssi)) = scan.readings.first_mut() {
                                    *rssi = f64::NAN;
                                }
                            }
                        }
                        1 => {
                            if let Some(scan) = frame.cell.as_mut() {
                                if let Some((_, rssi)) = scan.readings.first_mut() {
                                    *rssi = f64::NAN;
                                }
                            }
                        }
                        2 => {
                            if let Some(fix) = frame.gps.as_mut() {
                                fix.hdop = f64::NAN;
                            }
                        }
                        3 => {
                            if let Some(step) = frame.steps.first_mut() {
                                step.length_est = f64::NAN;
                            }
                        }
                        4 => frame.light_lux = f64::NAN,
                        _ => frame.magnetic_variance = f64::INFINITY,
                    }
                }
                self.log(epoch, kind, corrupted);
            }
            FaultKind::DuplicateFrame { prob } => {
                if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                    *duplicate = true;
                    self.log(epoch, kind, 1.0);
                } else {
                    self.log(epoch, kind, 0.0);
                }
            }
            FaultKind::TimeRegression { offset_s, prob } => {
                if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                    *regressed = Some(offset_s);
                    self.log(epoch, kind, offset_s);
                } else {
                    self.log(epoch, kind, 0.0);
                }
            }
            // Process-level faults never touch the frame stream: the fleet
            // engine arms the panic out-of-band (`set_panic_at_epoch`), so
            // injection is an exact pass-through, like `FaultPlan::none`.
            FaultKind::ProcessPanic { .. } => {}
            FaultKind::ClockJitter { sigma_s } => {
                let jitter = sigma_s * rng.standard_normal();
                frame.t += jitter;
                self.log(epoch, kind, jitter);
            }
        }
    }
}

/// Degree-space fallback for GPS displacement when no [`GeoFrame`] was
/// supplied: 1 degree of latitude ≈ 111,320 m.
fn flat_earth_offset(c: GeoCoord, jump: Vector2) -> GeoCoord {
    const M_PER_DEG_LAT: f64 = 111_320.0;
    let lat = c.lat + jump.y / M_PER_DEG_LAT;
    let lon = c.lon + jump.x / (M_PER_DEG_LAT * c.lat.to_radians().cos().max(1e-6));
    GeoCoord::new(lat.clamp(-90.0, 90.0), lon.clamp(-180.0, 180.0))
        .unwrap_or(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultClause, FaultKind, FaultPlan};
    use uniloc_env::{campus, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn frames(seed: u64) -> Vec<SensorFrame> {
        let scenario = campus::daily_path(seed);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed + 1));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 2);
        hub.sample_walk(&walk, 0.5)
    }

    #[test]
    fn none_plan_is_exact_pass_through() {
        let input = frames(1);
        let mut inj = FaultInjector::new(FaultPlan::none(), 7);
        let output = inj.inject_walk(&input);
        assert_eq!(input, output, "FaultPlan::none() must not touch a single byte");
        assert!(inj.events().is_empty());
    }

    #[test]
    fn same_seed_and_plan_reproduce_schedule_and_frames() {
        let input = frames(2);
        for plan in FaultPlan::library() {
            let mut a = FaultInjector::new(plan.clone(), 99);
            let mut b = FaultInjector::new(plan.clone(), 99);
            let fa = a.inject_walk(&input);
            let fb = b.inject_walk(&input);
            // Compare debug renderings, not PartialEq: NaN-corrupted
            // frames are never `==` themselves.
            assert_eq!(
                format!("{fa:?}"),
                format!("{fb:?}"),
                "{}: faulted frames diverged",
                plan.name
            );
            assert_eq!(
                a.schedule_json(),
                b.schedule_json(),
                "{}: schedules diverged",
                plan.name
            );
        }
    }

    #[test]
    fn different_seeds_diverge_for_stochastic_plans() {
        let input = frames(3);
        let plan = FaultPlan::by_name("gps_multipath").unwrap();
        let mut a = FaultInjector::new(plan.clone(), 1);
        let mut b = FaultInjector::new(plan, 2);
        assert_ne!(a.inject_walk(&input), b.inject_walk(&input));
    }

    #[test]
    fn blackout_kills_radios_inside_window_only() {
        let input = frames(4);
        let clause = FaultClause::over(
            0.4,
            0.6,
            FaultKind::RadioBlackout { wifi: true, cell: true, gps: true },
        );
        let plan = FaultPlan::new("test", vec![clause]);
        let mut inj = FaultInjector::new(plan, 5);
        let out = inj.inject_walk(&input);
        assert_eq!(out.len(), input.len());
        let n = out.len();
        for (i, f) in out.iter().enumerate() {
            let in_window = clause.active(i, n);
            if in_window {
                assert!(f.wifi.is_none() && f.cell.is_none() && f.gps.is_none());
            } else {
                assert_eq!(f, &input[i], "epoch {i} outside the window was touched");
            }
        }
    }

    #[test]
    fn ap_churn_keeps_scans_sorted() {
        let input = frames(5);
        let plan = FaultPlan::new(
            "churn",
            vec![FaultClause::over(0.0, 1.0, FaultKind::ApChurn { fraction: 0.8 })],
        );
        let mut inj = FaultInjector::new(plan, 6);
        let out = inj.inject_walk(&input);
        let mut churned = 0usize;
        for f in &out {
            if let Some(scan) = &f.wifi {
                for w in scan.readings.windows(2) {
                    assert!(w[0].0 < w[1].0, "scan readings must stay id-sorted");
                }
                churned += scan.readings.iter().filter(|(id, _)| id.0 >= 1_000_000).count();
            }
        }
        assert!(churned > 0, "churn plan churned nothing");
    }

    #[test]
    fn gps_jump_moves_fix_by_roughly_the_magnitude() {
        let scenario = campus::daily_path(8);
        let input = {
            let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(9));
            let walk = walker.walk(&scenario.route);
            let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 10);
            hub.sample_walk(&walk, 0.5)
        };
        let plan = FaultPlan::new(
            "jump",
            vec![FaultClause::over(
                0.0,
                1.0,
                FaultKind::GpsMultipathJump { magnitude_m: 500.0, prob: 1.0 },
            )],
        );
        let geo = *scenario.world.geo_frame();
        let mut inj = FaultInjector::new(plan, 11).with_geo_frame(geo);
        let out = inj.inject_walk(&input);
        let mut checked = 0usize;
        for (a, b) in input.iter().zip(&out) {
            if let (Some(fa), Some(fb)) = (a.gps, b.gps) {
                let d = geo.to_local(fa.coordinate).distance(geo.to_local(fb.coordinate));
                assert!((d - 500.0).abs() < 1.0, "jump was {d:.1} m");
                checked += 1;
            }
        }
        assert!(checked > 10, "no fixes to check");
    }

    #[test]
    fn frame_stream_faults_grow_the_stream() {
        let input = frames(12);
        let plan = FaultPlan::new(
            "stream",
            vec![
                FaultClause::over(0.0, 1.0, FaultKind::DuplicateFrame { prob: 0.5 }),
                FaultClause::over(0.0, 1.0, FaultKind::TimeRegression { offset_s: 3.0, prob: 0.3 }),
            ],
        );
        let mut inj = FaultInjector::new(plan, 13);
        let out = inj.inject_walk(&input);
        assert!(out.len() > input.len(), "stream faults must add frames");
        let regressions = out
            .windows(2)
            .filter(|w| w[1].t < w[0].t - 1e-9)
            .count();
        assert!(regressions > 0, "no timestamp regressions in the output");
    }

    #[test]
    fn nan_storm_poisons_channels() {
        let input = frames(14);
        let plan = FaultPlan::new(
            "nan",
            vec![FaultClause::over(0.0, 1.0, FaultKind::NanCorruption { prob: 1.0 })],
        );
        let mut inj = FaultInjector::new(plan, 15);
        let out = inj.inject_walk(&input);
        let poisoned = out
            .iter()
            .filter(|f| {
                !f.light_lux.is_finite()
                    || !f.magnetic_variance.is_finite()
                    || f.gps.is_some_and(|g| !g.hdop.is_finite())
                    || f.steps.iter().any(|s| !s.length_est.is_finite())
                    || f.wifi
                        .as_ref()
                        .is_some_and(|s| s.readings.iter().any(|(_, r)| !r.is_finite()))
                    || f.cell
                        .as_ref()
                        .is_some_and(|s| s.readings.iter().any(|(_, r)| !r.is_finite()))
            })
            .count();
        assert!(
            poisoned as f64 > 0.5 * out.len() as f64,
            "only {poisoned}/{} frames poisoned",
            out.len()
        );
    }
}
