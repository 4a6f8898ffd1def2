//! Fault plans: scripted, windowed fault schedules.
//!
//! A [`FaultPlan`] is a named list of [`FaultClause`]s. Each clause applies
//! one [`FaultKind`] over a window expressed as *fractions of the walk*
//! (`0.0` = first epoch, `1.0` = one past the last), so the same plan
//! stresses a 90-second office loop and a 20-minute campus path at the
//! same relative phase and always leaves the post-window tail available
//! for recovery measurement.
//!
//! Plans are pure data: applying one to a frame stream is the
//! [`FaultInjector`](crate::inject::FaultInjector)'s job, and that
//! application is byte-reproducible from the `(seed, plan)` pair.

/// One class of sensor-level fault the injector can apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Radio blackout: the listed radios report nothing at all.
    RadioBlackout {
        /// Kill the WiFi radio.
        wifi: bool,
        /// Kill the cellular radio.
        cell: bool,
        /// Kill the GPS receiver.
        gps: bool,
    },
    /// WiFi AP churn: each reading's AP id is remapped to a phantom id
    /// (MAC randomization / AP replacement) with the given probability, so
    /// the online scan stops matching the survey-time database.
    ApChurn {
        /// Per-reading remap probability in `[0, 1]`.
        fraction: f64,
    },
    /// Cellular NLOS: every tower RSSI is attenuated by `bias_db` (plus a
    /// small per-reading jitter), dragging fingerprint matches far from
    /// the true position.
    CellNlosBias {
        /// Attenuation in dB applied to every tower reading.
        bias_db: f64,
    },
    /// GPS multipath: with the given per-epoch probability the fix is
    /// displaced by `magnitude_m` meters in a random direction while still
    /// reporting healthy HDOP/satellite counts.
    GpsMultipathJump {
        /// Displacement magnitude (m).
        magnitude_m: f64,
        /// Per-epoch jump probability in `[0, 1]`.
        prob: f64,
    },
    /// Urban-canyon starvation: the receiver mostly loses the sky; the
    /// occasional fix that does arrive is degraded below the paper's
    /// reliability gate (4 satellites, HDOP 20).
    GpsStarvation,
    /// IMU heading-bias ramp: a gyroscope/magnetometer bias that grows at
    /// `rate_rad_per_s` for the duration of the window.
    ImuBiasRamp {
        /// Bias growth rate (radians per second).
        rate_rad_per_s: f64,
    },
    /// Stuck compass axis: every step in the window reports the heading of
    /// the first step seen in the window.
    ImuStuckAxis,
    /// Numerical corruption: with the given per-epoch probability one
    /// sensor channel (chosen by the seeded stream) delivers NaN/Inf.
    NanCorruption {
        /// Per-epoch corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Frame duplication: with the given probability the epoch's frame is
    /// delivered twice (same timestamp, same payload).
    DuplicateFrame {
        /// Per-epoch duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Timestamp regression: with the given probability an extra frame
    /// with its clock rewound by `offset_s` follows the genuine one.
    TimeRegression {
        /// Rewind amount (s).
        offset_s: f64,
        /// Per-epoch regression probability in `[0, 1]`.
        prob: f64,
    },
    /// Clock jitter: every epoch timestamp is perturbed by zero-mean
    /// Gaussian noise of the given standard deviation.
    ClockJitter {
        /// Jitter standard deviation (s).
        sigma_s: f64,
    },
    /// Process-level fault: the serving session *panics* when it is about
    /// to step the given epoch. Unlike every sensor-level kind, this never
    /// touches the frame stream — the injector passes frames through
    /// untouched and the fleet engine arms the panic instead (caught at
    /// the supervised pool boundary and handled by the supervision
    /// policy). Deliberately excluded from [`FaultPlan::library`]: the
    /// unsupervised batch/chaos paths would die on it.
    ProcessPanic {
        /// Epoch index at which the step panics.
        epoch: u64,
    },
}

impl FaultKind {
    /// Stable machine name, used in schedules, metrics
    /// (`faults.injected.<name>`) and chaos reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::RadioBlackout { .. } => "radio_blackout",
            FaultKind::ApChurn { .. } => "ap_churn",
            FaultKind::CellNlosBias { .. } => "cell_nlos_bias",
            FaultKind::GpsMultipathJump { .. } => "gps_multipath_jump",
            FaultKind::GpsStarvation => "gps_starvation",
            FaultKind::ImuBiasRamp { .. } => "imu_bias_ramp",
            FaultKind::ImuStuckAxis => "imu_stuck_axis",
            FaultKind::NanCorruption { .. } => "nan_corruption",
            FaultKind::DuplicateFrame { .. } => "duplicate_frame",
            FaultKind::TimeRegression { .. } => "time_regression",
            FaultKind::ClockJitter { .. } => "clock_jitter",
            FaultKind::ProcessPanic { .. } => "process_panic",
        }
    }
}

/// One windowed fault: a [`FaultKind`] active over `[start, end)` expressed
/// as fractions of the walk's epoch count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultClause {
    /// Window start as a fraction of the walk in `[0, 1]`.
    pub start: f64,
    /// Window end (exclusive) as a fraction of the walk in `[0, 1]`.
    pub end: f64,
    /// The fault applied inside the window.
    pub kind: FaultKind,
}

impl FaultClause {
    /// A clause over `[start, end)` of the walk.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= start <= end <= 1`.
    pub fn over(start: f64, end: f64, kind: FaultKind) -> Self {
        assert!(
            (0.0..=1.0).contains(&start) && (0.0..=1.0).contains(&end) && start <= end,
            "fault window must satisfy 0 <= start <= end <= 1, got {start}..{end}"
        );
        FaultClause { start, end, kind }
    }

    /// Whether the clause is active at `epoch` of a walk `total` epochs
    /// long (the window rounds outward so a non-empty fraction always
    /// covers at least one epoch).
    pub fn active(&self, epoch: usize, total: usize) -> bool {
        if total == 0 || self.start >= self.end {
            return false;
        }
        // Nudge by an epsilon so exact products (0.55 * 100) land on the
        // intended epoch despite binary-fraction rounding.
        let lo = (self.start * total as f64 + 1e-9).floor() as usize;
        let hi = ((self.end * total as f64 - 1e-9).ceil() as usize).min(total);
        // A non-empty fraction always covers at least one epoch.
        let hi = hi.max((lo + 1).min(total));
        (lo..hi).contains(&epoch)
    }
}

/// A named, scripted fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name (used in chaos reports and schedules).
    pub name: String,
    /// The windowed faults; clauses may overlap.
    pub clauses: Vec<FaultClause>,
}

impl FaultPlan {
    /// The empty plan: injection with it is an exact pass-through, byte
    /// for byte — the contract the golden-trace tests pin.
    pub fn none() -> Self {
        FaultPlan { name: "none".to_owned(), clauses: Vec::new() }
    }

    /// A named plan over explicit clauses.
    pub fn new(name: impl Into<String>, clauses: Vec<FaultClause>) -> Self {
        FaultPlan { name: name.into(), clauses }
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The end of the last fault window as a fraction of the walk
    /// (`0.0` for the empty plan) — everything after it is the recovery
    /// tail chaos sweeps measure.
    pub fn last_window_end(&self) -> f64 {
        self.clauses.iter().map(|c| c.end).fold(0.0, f64::max)
    }

    /// The built-in scenario library: one plan per fault regime the chaos
    /// sweep exercises. Most windows end by 60% of the walk so every plan
    /// leaves a recovery tail; the GPS plans instead target the *last*
    /// quarter (0.78–0.92), because the campus paths only reach open sky —
    /// and therefore only produce GPS fixes — on their outdoor tail, and a
    /// fault window that never overlaps a live channel tests nothing.
    pub fn library() -> Vec<FaultPlan> {
        use FaultKind::*;
        vec![
            FaultPlan::new(
                "radio_blackout",
                vec![FaultClause::over(
                    0.30,
                    0.55,
                    RadioBlackout { wifi: true, cell: true, gps: true },
                )],
            ),
            FaultPlan::new(
                "wifi_ap_churn",
                vec![FaultClause::over(0.30, 0.60, ApChurn { fraction: 0.7 })],
            ),
            FaultPlan::new(
                "cell_nlos",
                vec![FaultClause::over(0.30, 0.60, CellNlosBias { bias_db: 30.0 })],
            ),
            FaultPlan::new(
                "gps_multipath",
                // Short window by design: every in-window re-admission
                // probe re-trips and doubles the sentence, so the window
                // must end while the sentence still fits the walk's tail.
                vec![FaultClause::over(
                    0.78,
                    0.85,
                    GpsMultipathJump { magnitude_m: 900.0, prob: 0.6 },
                )],
            ),
            FaultPlan::new(
                "gps_canyon",
                vec![FaultClause::over(0.78, 0.92, GpsStarvation)],
            ),
            FaultPlan::new(
                "imu_bias_ramp",
                vec![FaultClause::over(0.30, 0.60, ImuBiasRamp { rate_rad_per_s: 0.06 })],
            ),
            FaultPlan::new(
                "imu_stuck_axis",
                vec![FaultClause::over(0.35, 0.55, ImuStuckAxis)],
            ),
            FaultPlan::new(
                "nan_storm",
                vec![FaultClause::over(0.30, 0.50, NanCorruption { prob: 0.8 })],
            ),
            FaultPlan::new(
                "frame_chaos",
                vec![
                    FaultClause::over(0.25, 0.55, DuplicateFrame { prob: 0.3 }),
                    FaultClause::over(0.25, 0.55, TimeRegression { offset_s: 4.0, prob: 0.2 }),
                    FaultClause::over(0.25, 0.55, ClockJitter { sigma_s: 0.05 }),
                ],
            ),
            FaultPlan::new(
                "kitchen_sink",
                vec![
                    FaultClause::over(0.25, 0.45, NanCorruption { prob: 0.5 }),
                    FaultClause::over(
                        0.78,
                        0.88,
                        GpsMultipathJump { magnitude_m: 700.0, prob: 0.5 },
                    ),
                    FaultClause::over(0.35, 0.55, ApChurn { fraction: 0.5 }),
                    FaultClause::over(0.35, 0.55, CellNlosBias { bias_db: 25.0 }),
                    FaultClause::over(0.40, 0.60, ImuBiasRamp { rate_rad_per_s: 0.04 }),
                ],
            ),
        ]
    }

    /// The small subset the CI smoke step sweeps: one radio fault, one
    /// numerical fault, one frame-stream fault.
    pub fn smoke_library() -> Vec<FaultPlan> {
        Self::library()
            .into_iter()
            .filter(|p| {
                matches!(p.name.as_str(), "radio_blackout" | "nan_storm" | "frame_chaos")
            })
            .collect()
    }

    /// This plan's fault-stream seed on a walk seeded `seed`: its name
    /// folded in, so each plan's stream is independent of sweep order.
    pub fn chaos_seed(&self, seed: u64) -> u64 {
        seed ^ self.name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64))
    }

    /// The process-level panic-at-epoch plan: the chosen session's step
    /// panics at `epoch`. Named `panic_at_epoch_<N>` so it round-trips
    /// through [`by_name`](Self::by_name) like any library plan, but it is
    /// *not in* [`library`](Self::library) — only the supervised fleet
    /// path may schedule it (the unsupervised batch/chaos paths would die).
    pub fn panic_at_epoch(epoch: u64) -> FaultPlan {
        FaultPlan::new(
            format!("panic_at_epoch_{epoch}"),
            vec![FaultClause::over(0.0, 1.0, FaultKind::ProcessPanic { epoch })],
        )
    }

    /// The epoch a [`FaultKind::ProcessPanic`] clause arms, when the plan
    /// carries one (the last such clause wins).
    pub fn panic_epoch(&self) -> Option<u64> {
        self.clauses.iter().rev().find_map(|c| match c.kind {
            FaultKind::ProcessPanic { epoch } => Some(epoch),
            _ => None,
        })
    }

    /// Looks a plan up by name in [`library`](Self::library) (plus
    /// `"none"` and the process-level `panic_at_epoch_<N>` family).
    pub fn by_name(name: &str) -> Option<FaultPlan> {
        if name == "none" {
            return Some(FaultPlan::none());
        }
        if let Some(epoch) = name.strip_prefix("panic_at_epoch_") {
            return epoch.parse::<u64>().ok().map(FaultPlan::panic_at_epoch);
        }
        Self::library().into_iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_named() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert_eq!(p.name, "none");
        assert_eq!(p.last_window_end(), 0.0);
    }

    #[test]
    fn windows_round_outward() {
        let c = FaultClause::over(0.30, 0.55, FaultKind::GpsStarvation);
        assert!(!c.active(29, 100));
        assert!(c.active(30, 100));
        assert!(c.active(54, 100));
        assert!(!c.active(55, 100));
        // A sliver window still covers at least one epoch.
        let sliver = FaultClause::over(0.50, 0.501, FaultKind::GpsStarvation);
        assert!(sliver.active(50, 100));
        // Degenerate and empty-walk cases are inert.
        let degenerate = FaultClause::over(0.5, 0.5, FaultKind::GpsStarvation);
        assert!(!degenerate.active(50, 100));
        assert!(!c.active(0, 0));
    }

    #[test]
    #[should_panic(expected = "fault window")]
    fn inverted_window_rejected() {
        FaultClause::over(0.6, 0.3, FaultKind::GpsStarvation);
    }

    #[test]
    fn library_plans_leave_a_recovery_tail() {
        let lib = FaultPlan::library();
        assert!(lib.len() >= 8, "library too small: {}", lib.len());
        for p in &lib {
            assert!(!p.is_none(), "{} is empty", p.name);
            // Every plan must leave a recovery tail — at least the last 8%
            // of the walk fault-free (the GPS plans sit late because the
            // campus paths only produce fixes on their outdoor tail).
            assert!(
                p.last_window_end() <= 0.92,
                "{} leaves no recovery tail (ends at {})",
                p.name,
                p.last_window_end()
            );
            assert_eq!(FaultPlan::by_name(&p.name).as_ref(), Some(p));
        }
        assert_eq!(FaultPlan::by_name("none"), Some(FaultPlan::none()));
        assert_eq!(FaultPlan::by_name("nope"), None);
        assert!(!FaultPlan::smoke_library().is_empty());
    }

    #[test]
    fn panic_plans_resolve_by_name_and_stay_out_of_the_library() {
        let p = FaultPlan::panic_at_epoch(7);
        assert_eq!(p.name, "panic_at_epoch_7");
        assert_eq!(p.panic_epoch(), Some(7));
        assert_eq!(FaultPlan::none().panic_epoch(), None);
        assert_eq!(FaultPlan::by_name("panic_at_epoch_7"), Some(p.clone()));
        assert_eq!(FaultPlan::by_name("panic_at_epoch_"), None);
        assert_eq!(FaultPlan::by_name("panic_at_epoch_x"), None);
        // Sensor-plan sweeps must never pick up a process fault: a panic
        // plan in `library()` would kill every unsupervised chaos harness.
        assert!(FaultPlan::library().iter().all(|l| l.panic_epoch().is_none()));
        assert!(FaultPlan::smoke_library().iter().all(|l| l.panic_epoch().is_none()));
    }
}
