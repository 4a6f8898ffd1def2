//! The input-validation gate: scrubs malformed sensor frames before they
//! reach features, schemes and the particle filter.
//!
//! Two layers:
//!
//! * [`scrub_frame`] — stateless and idempotent. Drops per-channel values
//!   that are non-finite or physically impossible (an RSSI of `NaN`, a
//!   step 40 m long, an HDOP of infinity). A clean frame passes through
//!   untouched — the function returns `None` so the caller keeps borrowing
//!   the original, which is what keeps golden traces byte-identical.
//! * [`FrameGate`] — stateful. Tracks the epoch clock and flags duplicate
//!   and time-regressing frames; replayed frames keep their radio scans
//!   (fingerprinting is stateless) but lose their step events, because
//!   feeding the same steps to the PDR integrator twice teleports it.
//!
//! A malformed frame must never abort a walk: the gate's worst verdict is
//! [`GateVerdict::Rejected`] (non-finite timestamp), and even then the
//! engine emits a degraded output instead of panicking.

use uniloc_sensors::SensorFrame;

/// Physical sanity bounds, deliberately generous: the gate must reject
/// only the impossible, never a merely noisy reading.
mod bounds {
    /// RSSI window (dBm) — anything outside is a decode error.
    pub const RSSI_MIN_DBM: f64 = -130.0;
    pub const RSSI_MAX_DBM: f64 = 0.0;
    /// HDOP is a positive dilution ratio; receivers cap it around 50.
    pub const HDOP_MAX: f64 = 100.0;
    /// A human step: no longer than 5 m, no slower than 30 s.
    pub const STEP_LENGTH_MAX_M: f64 = 5.0;
    pub const STEP_DURATION_MAX_S: f64 = 30.0;
}

/// What [`scrub_frame`] removed, per channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// WiFi readings dropped (non-finite / out-of-window RSSI).
    pub wifi_readings: u32,
    /// Cellular readings dropped.
    pub cell_readings: u32,
    /// 1 when the GPS fix was dropped entirely.
    pub gps_fixes: u32,
    /// Step events dropped.
    pub steps: u32,
    /// Environment channels (light, magnetic variance) neutralized.
    pub env_channels: u32,
}

impl ScrubReport {
    /// Whether anything was removed.
    pub fn any(&self) -> bool {
        *self != ScrubReport::default()
    }

    /// Total values dropped or neutralized.
    pub fn total(&self) -> u32 {
        self.wifi_readings + self.cell_readings + self.gps_fixes + self.steps + self.env_channels
    }
}

fn rssi_ok(r: f64) -> bool {
    r.is_finite() && (bounds::RSSI_MIN_DBM..=bounds::RSSI_MAX_DBM).contains(&r)
}

/// Validates every channel of `frame`. Returns `None` when the frame is
/// already clean (the common case — keep using the original), or the
/// scrubbed copy plus a per-channel tally. Idempotent: scrubbing a
/// scrubbed frame removes nothing.
pub fn scrub_frame(frame: &SensorFrame) -> Option<(SensorFrame, ScrubReport)> {
    let mut report = ScrubReport::default();

    let wifi_bad = frame
        .wifi
        .as_ref()
        .map_or(0, |s| s.readings.iter().filter(|(_, r)| !rssi_ok(*r)).count());
    let cell_bad = frame
        .cell
        .as_ref()
        .map_or(0, |s| s.readings.iter().filter(|(_, r)| !rssi_ok(*r)).count());
    let gps_bad = frame.gps.is_some_and(|fix| {
        !fix.hdop.is_finite()
            || !(0.0..=bounds::HDOP_MAX).contains(&fix.hdop)
            || !fix.coordinate.lat.is_finite()
            || !fix.coordinate.lon.is_finite()
            || fix.coordinate.lat.abs() > 90.0
            || fix.coordinate.lon.abs() > 180.0
    });
    let step_ok = |s: &uniloc_sensors::StepMeasurement| {
        s.t.is_finite()
            && s.heading_est.is_finite()
            && s.duration.is_finite()
            && (0.0..=bounds::STEP_DURATION_MAX_S).contains(&s.duration)
            && s.length_est.is_finite()
            && (0.0..=bounds::STEP_LENGTH_MAX_M).contains(&s.length_est)
    };
    let steps_bad = frame.steps.iter().filter(|s| !step_ok(s)).count();
    let light_bad = !frame.light_lux.is_finite() || frame.light_lux < 0.0;
    let mag_bad = !frame.magnetic_variance.is_finite() || frame.magnetic_variance < 0.0;

    if wifi_bad == 0 && cell_bad == 0 && !gps_bad && steps_bad == 0 && !light_bad && !mag_bad {
        return None;
    }

    let mut clean = frame.clone();
    if wifi_bad > 0 {
        if let Some(scan) = clean.wifi.as_mut() {
            scan.readings.retain(|(_, r)| rssi_ok(*r));
        }
        report.wifi_readings = wifi_bad as u32;
    }
    if cell_bad > 0 {
        if let Some(scan) = clean.cell.as_mut() {
            scan.readings.retain(|(_, r)| rssi_ok(*r));
        }
        report.cell_readings = cell_bad as u32;
    }
    if gps_bad {
        clean.gps = None;
        report.gps_fixes = 1;
    }
    if steps_bad > 0 {
        clean.steps.retain(|s| step_ok(s));
        report.steps = steps_bad as u32;
    }
    if light_bad {
        clean.light_lux = 0.0;
        report.env_channels += 1;
    }
    if mag_bad {
        clean.magnetic_variance = 0.0;
        report.env_channels += 1;
    }
    Some((clean, report))
}

/// The gate's verdict on a frame's place in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// Timestamp advances normally.
    Fresh,
    /// Same timestamp as the previous frame — a replay; steps must not be
    /// integrated twice.
    Duplicate,
    /// Timestamp moved backwards — a replay or clock fault; steps must
    /// not be integrated again.
    TimeRegression,
    /// Non-finite timestamp: nothing about this frame can be trusted.
    Rejected,
}

/// Stateful frame-stream gate: duplicate / time-regression / bad-clock
/// detection. One instance per walk.
#[derive(Debug, Clone, Default)]
pub struct FrameGate {
    last_t: Option<f64>,
}

impl FrameGate {
    /// A fresh gate.
    pub fn new() -> Self {
        FrameGate::default()
    }

    /// Classifies the frame's timestamp against the stream so far. The
    /// clock high-water mark only advances on [`GateVerdict::Fresh`]
    /// frames, so a burst of regressed frames stays flagged until the
    /// stream catches back up past the high-water mark.
    pub fn admit(&mut self, t: f64) -> GateVerdict {
        if !t.is_finite() {
            return GateVerdict::Rejected;
        }
        match self.last_t {
            Some(last) if t == last => GateVerdict::Duplicate,
            Some(last) if t < last => GateVerdict::TimeRegression,
            _ => {
                self.last_t = Some(t);
                GateVerdict::Fresh
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::ApId;
    use uniloc_geom::{GeoCoord, Point};
    use uniloc_sensors::{GpsFix, StepMeasurement, WifiScan};

    fn clean_frame() -> SensorFrame {
        SensorFrame {
            t: 1.0,
            true_position: Point::origin(),
            wifi: Some(WifiScan {
                readings: vec![(ApId(1), -50.0), (ApId(2), -70.0)],
            }),
            cell: None,
            gps: Some(GpsFix {
                coordinate: GeoCoord { lat: 1.0, lon: 103.0 },
                hdop: 1.5,
                satellites: 9,
            }),
            steps: vec![StepMeasurement {
                t: 0.9,
                duration: 0.5,
                length_est: 0.7,
                heading_est: 0.3,
            }],
            landmark: None,
            light_lux: 200.0,
            magnetic_variance: 0.4,
        }
    }

    #[test]
    fn clean_frame_passes_untouched() {
        assert!(scrub_frame(&clean_frame()).is_none());
    }

    #[test]
    fn scrub_drops_bad_values_and_is_idempotent() {
        let mut frame = clean_frame();
        frame.wifi.as_mut().unwrap().readings.push((ApId(3), f64::NAN));
        frame.gps.as_mut().unwrap().hdop = f64::INFINITY;
        frame.steps.push(StepMeasurement {
            t: 0.95,
            duration: 0.5,
            length_est: 40.0,
            heading_est: 0.0,
        });
        frame.light_lux = f64::NAN;
        let (scrubbed, report) = scrub_frame(&frame).expect("dirty frame must scrub");
        assert_eq!(report.wifi_readings, 1);
        assert_eq!(report.gps_fixes, 1);
        assert_eq!(report.steps, 1);
        assert_eq!(report.env_channels, 1);
        assert_eq!(report.total(), 4);
        assert!(report.any());
        assert_eq!(scrubbed.wifi.as_ref().unwrap().readings.len(), 2);
        assert!(scrubbed.gps.is_none());
        assert_eq!(scrubbed.steps.len(), 1);
        assert_eq!(scrubbed.light_lux, 0.0);
        // Idempotent: the scrubbed frame is clean.
        assert!(scrub_frame(&scrubbed).is_none());
    }

    #[test]
    fn out_of_window_rssi_is_rejected() {
        let mut frame = clean_frame();
        frame.wifi.as_mut().unwrap().readings[0].1 = 12.0; // positive dBm
        let (scrubbed, report) = scrub_frame(&frame).unwrap();
        assert_eq!(report.wifi_readings, 1);
        assert_eq!(scrubbed.wifi.unwrap().readings.len(), 1);
    }

    #[test]
    fn exactly_at_range_boundaries_pass_the_scrub() {
        // The bounds are inclusive: a value exactly on either edge is a
        // legal (if extreme) reading, not a decode error.
        let mut frame = clean_frame();
        frame.wifi.as_mut().unwrap().readings =
            vec![(ApId(1), bounds::RSSI_MIN_DBM), (ApId(2), bounds::RSSI_MAX_DBM)];
        frame.gps.as_mut().unwrap().hdop = bounds::HDOP_MAX;
        frame.steps = vec![StepMeasurement {
            t: 0.9,
            duration: bounds::STEP_DURATION_MAX_S,
            length_est: bounds::STEP_LENGTH_MAX_M,
            heading_est: 0.0,
        }];
        assert!(scrub_frame(&frame).is_none(), "boundary values must pass");

        let mut frame = clean_frame();
        frame.gps.as_mut().unwrap().hdop = 0.0;
        frame.steps = vec![StepMeasurement { t: 0.9, duration: 0.0, length_est: 0.0, heading_est: 0.0 }];
        assert!(scrub_frame(&frame).is_none(), "zero duration/length/hdop must pass");
    }

    #[test]
    fn just_outside_boundaries_are_dropped() {
        let mut frame = clean_frame();
        frame.wifi.as_mut().unwrap().readings.push((ApId(3), -130.0000001));
        frame.gps.as_mut().unwrap().hdop = 100.0000001;
        frame.steps.push(StepMeasurement {
            t: 0.95,
            duration: 30.0000001,
            length_est: 0.7,
            heading_est: 0.0,
        });
        frame.steps.push(StepMeasurement {
            t: 0.96,
            duration: 0.5,
            length_est: -0.0000001,
            heading_est: 0.0,
        });
        let (_, report) = scrub_frame(&frame).expect("out-of-range values must scrub");
        assert_eq!(report.wifi_readings, 1);
        assert_eq!(report.gps_fixes, 1);
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn negative_zero_and_subnormals_are_legal_env_readings() {
        // -0.0 compares equal to 0.0, and subnormals are tiny positive
        // values: neither is "negative" in the physical sense, so the env
        // channels must pass untouched (and the scrub stays idempotent on
        // frames that contain them).
        let mut frame = clean_frame();
        frame.light_lux = -0.0;
        frame.magnetic_variance = f64::MIN_POSITIVE / 2.0; // subnormal
        assert!(scrub_frame(&frame).is_none());

        let mut frame = clean_frame();
        frame.steps[0].length_est = -0.0;
        frame.steps[0].duration = f64::MIN_POSITIVE / 2.0;
        assert!(scrub_frame(&frame).is_none());

        // But an actually negative reading is neutralized.
        let mut frame = clean_frame();
        frame.light_lux = -1e-300;
        frame.magnetic_variance = -0.5;
        let (scrubbed, report) = scrub_frame(&frame).unwrap();
        assert_eq!(report.env_channels, 2);
        assert_eq!(scrubbed.light_lux, 0.0);
        assert_eq!(scrubbed.magnetic_variance, 0.0);
    }

    #[test]
    fn gate_classifies_the_stream() {
        let mut gate = FrameGate::new();
        assert_eq!(gate.admit(1.0), GateVerdict::Fresh);
        assert_eq!(gate.admit(1.5), GateVerdict::Fresh);
        assert_eq!(gate.admit(1.5), GateVerdict::Duplicate);
        assert_eq!(gate.admit(0.5), GateVerdict::TimeRegression);
        // The high-water mark survived the regression burst.
        assert_eq!(gate.admit(1.4), GateVerdict::TimeRegression);
        assert_eq!(gate.admit(2.0), GateVerdict::Fresh);
        assert_eq!(gate.admit(f64::NAN), GateVerdict::Rejected);
    }
}
