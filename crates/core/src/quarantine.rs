//! Per-scheme quarantine and the engine's degradation ladder.
//!
//! The paper's exclusion rule — "UniLoc can temporarily exclude one
//! localization scheme by simply setting its confidence as zero" (§III) —
//! covers *unavailable* schemes. This module extends it to *misbehaving*
//! ones: a scheme whose output teleports, turns non-finite, or diverges
//! persistently from the fused estimate is confidence-zeroed and held in
//! an exponential-backoff quarantine, then re-admitted only after it
//! proves sanity for [`READMIT_SANE_EPOCHS`] consecutive epochs. The
//! hysteresis floor guarantees a flapping scheme cannot oscillate in and
//! out of the ensemble faster than [`BACKOFF_BASE_EPOCHS`].
//!
//! The [`DegradationLadder`] summarizes how much of the ensemble is still
//! standing each epoch; it is a pure function of the epoch's outputs and
//! the quarantine set — it never feeds back into fusion, so clean walks
//! are byte-identical with or without it.

use uniloc_schemes::SchemeId;
use uniloc_stats::json::{FromJson, Json, JsonError, ToJson};

/// First quarantine sentence, in epochs. Also the hysteresis floor: two
/// consecutive admissions of the same scheme are always at least this far
/// apart.
pub const BACKOFF_BASE_EPOCHS: u32 = 8;
/// Sentence multiplier per repeated offense.
pub const BACKOFF_FACTOR: u32 = 2;
/// Sentence ceiling, in epochs.
pub const BACKOFF_CAP_EPOCHS: u32 = 128;
/// Consecutive sane probation epochs required for re-admission.
pub const READMIT_SANE_EPOCHS: u32 = 4;

/// Trip thresholds: the signals that convict a scheme (or the fused
/// output). All limits are deliberately far above anything a clean
/// simulated walk produces — verified against clean-run maxima in
/// `tests/failure_injection.rs` — because a false trip would change a
/// golden trace.
pub mod trip {
    use uniloc_schemes::SchemeId;

    /// Per-scheme apparent-speed limit (m/s) between consecutive
    /// estimates; sustained violations convict. Clean-run maxima are
    /// roughly: GPS ~120 (two opposite-sign 30 m fixes in half a second),
    /// fingerprint matches bounded by venue size, PDR bounded by gait.
    pub fn teleport_speed_limit_m_s(id: SchemeId) -> f64 {
        match id {
            SchemeId::Gps => 600.0,
            SchemeId::Wifi => 250.0,
            SchemeId::Cellular => 500.0,
            SchemeId::Motion => 150.0,
            SchemeId::Fusion => 200.0,
            SchemeId::Custom(_) => 400.0,
            // `SchemeId` is non-exhaustive; unknown future schemes get the
            // same generous limit as `Custom`.
            _ => 400.0,
        }
    }

    /// Consecutive speed-limit violations required to convict (a single
    /// legitimate snap-back — e.g. recovering from a multipath episode —
    /// is one jump, not two).
    pub const TELEPORT_CONSECUTIVE: u32 = 2;
    /// Divergence limit: `max(FLOOR, MULT * predicted_mean_error)` meters
    /// from the fused estimate.
    pub const DIVERGE_MULT: f64 = 8.0;
    pub const DIVERGE_FLOOR_M: f64 = 120.0;
    /// Consecutive divergence epochs required to convict.
    pub const DIVERGE_CONSECUTIVE: u32 = 3;
    /// Fused estimate frozen this many epochs (while steps arrive) => the
    /// watchdog declares the output dead.
    pub const FROZEN_EPOCHS: u32 = 20;
    /// Movement below this is "frozen" (simulated noise floors are far
    /// above it every epoch).
    pub const FROZEN_EPS_M: f64 = 1e-6;
    /// Fused-estimate teleport alarm (m/s); sidecar alarm only.
    pub const FUSED_TELEPORT_SPEED_M_S: f64 = 400.0;
}

/// How degraded the ensemble is this epoch. Ordered from healthiest to
/// worst; the chaos sweep reports the worst state reached per scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DegradationLadder {
    #[default]
    /// Every scheme contributed to the fused estimate.
    Nominal,
    /// This many schemes were excluded (unavailable, duty-cycled off, or
    /// quarantined); the remainder still fused normally.
    Degraded(u32),
    /// Only dead reckoning (the Motion scheme) carried the estimate.
    DeadReckoningOnly,
    /// No usable fused estimate (nothing reported, the output was
    /// non-finite, or the watchdog declared the estimate frozen).
    Lost,
}

impl DegradationLadder {
    /// Severity rank: higher is worse; ties within `Degraded` break on the
    /// exclusion count.
    pub fn rank(&self) -> (u8, u32) {
        match *self {
            DegradationLadder::Nominal => (0, 0),
            DegradationLadder::Degraded(n) => (1, n),
            DegradationLadder::DeadReckoningOnly => (2, 0),
            DegradationLadder::Lost => (3, 0),
        }
    }

    /// Stable machine name (metric/report key).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationLadder::Nominal => "nominal",
            DegradationLadder::Degraded(_) => "degraded",
            DegradationLadder::DeadReckoningOnly => "dead_reckoning_only",
            DegradationLadder::Lost => "lost",
        }
    }
}

impl PartialOrd for DegradationLadder {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DegradationLadder {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl std::fmt::Display for DegradationLadder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationLadder::Degraded(n) => write!(f, "degraded({n})"),
            other => f.write_str(other.name()),
        }
    }
}

impl ToJson for DegradationLadder {
    fn to_json(&self) -> Json {
        match *self {
            DegradationLadder::Degraded(n) => {
                Json::Obj(vec![("degraded".to_owned(), n.to_json())])
            }
            other => Json::Str(other.name().to_owned()),
        }
    }
}

impl FromJson for DegradationLadder {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if let Some(s) = json.as_str() {
            return match s {
                "nominal" => Ok(DegradationLadder::Nominal),
                "dead_reckoning_only" => Ok(DegradationLadder::DeadReckoningOnly),
                "lost" => Ok(DegradationLadder::Lost),
                other => Err(JsonError::new(format!("unknown ladder state `{other}`"))),
            };
        }
        json.get("degraded")
            .ok_or_else(|| JsonError::new("expected ladder string or {\"degraded\": n}"))
            .and_then(FromJson::from_json)
            .map(DegradationLadder::Degraded)
    }
}

/// What the engine observed about one scheme this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeVerdict {
    /// Output present and consistent with the trip checks.
    Sane,
    /// A trip signal fired (non-finite output, teleport, persistent
    /// divergence).
    Strike,
    /// No estimate this epoch — neither evidence of health nor of fault.
    Absent,
}

/// The per-scheme quarantine state machine.
#[derive(Debug, Clone)]
pub struct QuarantineMachine {
    entries: Vec<(SchemeId, QuarantineStanding)>,
}

/// A state transition worth reporting (metrics / tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineTransition {
    /// The scheme was just quarantined (`strikes` = total offenses now).
    Tripped(SchemeId, u32),
    /// The scheme finished probation and rejoined the ensemble.
    Readmitted(SchemeId),
}

fn backoff(strikes: u32) -> u32 {
    let mut sentence = BACKOFF_BASE_EPOCHS;
    for _ in 1..strikes {
        sentence = (sentence.saturating_mul(BACKOFF_FACTOR)).min(BACKOFF_CAP_EPOCHS);
        if sentence == BACKOFF_CAP_EPOCHS {
            break;
        }
    }
    sentence
}

impl QuarantineMachine {
    /// A machine tracking the given schemes, all initially active.
    pub fn new(schemes: &[SchemeId]) -> Self {
        QuarantineMachine {
            entries: schemes.iter().map(|&id| (id, QuarantineStanding::Active)).collect(),
        }
    }

    /// The schemes currently excluded, in engine order.
    pub fn excluded(&self) -> Vec<SchemeId> {
        let mut out = Vec::new();
        self.excluded_into(&mut out);
        out
    }

    /// [`excluded`](Self::excluded) into a caller-owned buffer — the
    /// hot-path form the per-epoch loop uses to stay allocation-free.
    pub fn excluded_into(&self, out: &mut Vec<SchemeId>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|(_, s)| !matches!(s, QuarantineStanding::Active))
                .map(|(id, _)| *id),
        );
    }

    /// Ticks sentences at the start of an epoch: a quarantined scheme
    /// whose sentence expires moves to probation.
    pub fn begin_epoch(&mut self) {
        for (_, standing) in &mut self.entries {
            if let QuarantineStanding::Quarantined { remaining, strikes } = standing {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    *standing = QuarantineStanding::Probation { sane: 0, strikes: *strikes };
                }
            }
        }
    }

    /// Feeds one epoch's verdict for a scheme; returns a transition when
    /// the standing changed in a reportable way.
    pub fn observe(
        &mut self,
        id: SchemeId,
        verdict: SchemeVerdict,
    ) -> Option<QuarantineTransition> {
        let standing = self
            .entries
            .iter_mut()
            .find(|(e, _)| *e == id)
            .map(|(_, s)| s)?;
        match (*standing, verdict) {
            (QuarantineStanding::Active, SchemeVerdict::Strike) => {
                *standing = QuarantineStanding::Quarantined { remaining: backoff(1), strikes: 1 };
                Some(QuarantineTransition::Tripped(id, 1))
            }
            (QuarantineStanding::Probation { strikes, .. }, SchemeVerdict::Strike) => {
                let strikes = strikes + 1;
                let remaining = backoff(strikes);
                *standing = QuarantineStanding::Quarantined { remaining, strikes };
                Some(QuarantineTransition::Tripped(id, strikes))
            }
            (QuarantineStanding::Probation { sane, strikes }, SchemeVerdict::Sane) => {
                let sane = sane + 1;
                if sane >= READMIT_SANE_EPOCHS {
                    *standing = QuarantineStanding::Active;
                    Some(QuarantineTransition::Readmitted(id))
                } else {
                    *standing = QuarantineStanding::Probation { sane, strikes };
                    None
                }
            }
            // Absence proves nothing: probation progress holds steady.
            _ => None,
        }
    }

    /// Every scheme's standing, in engine order — the introspection the
    /// checkpoint/resume equivalence tests compare: a restored session
    /// must land on the same sentence remainders, probation countdowns
    /// and strike counts as the uninterrupted one.
    pub fn standings(&self) -> Vec<(SchemeId, QuarantineStanding)> {
        self.entries.clone()
    }
}

/// Where a scheme stands in the quarantine lifecycle: the machine's own
/// state, which [`QuarantineMachine::standings`] reports so that
/// checkpoint/resume equivalence tests can read mid-sentence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineStanding {
    /// Participating normally.
    Active,
    /// Serving a sentence (excluded from fusion): `remaining` epochs left,
    /// `strikes` offenses so far (drives the backoff).
    Quarantined { remaining: u32, strikes: u32 },
    /// Sentence served; still excluded, but earning re-admission: `sane`
    /// consecutive sane epochs so far.
    Probation { sane: u32, strikes: u32 },
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: SchemeId = SchemeId::Wifi;

    fn machine() -> QuarantineMachine {
        QuarantineMachine::new(&[SchemeId::Gps, SchemeId::Wifi, SchemeId::Motion])
    }

    /// Whether `ID` is excluded from fusion (serving a sentence or on
    /// probation).
    fn is_excluded(m: &QuarantineMachine) -> bool {
        m.excluded().contains(&ID)
    }

    /// Drives the machine to the next probation window, returning the
    /// number of epochs served.
    fn serve_sentence(m: &mut QuarantineMachine) -> u32 {
        let mut epochs = 0;
        while is_excluded(m) {
            m.begin_epoch();
            epochs += 1;
            if m.observe(ID, SchemeVerdict::Sane)
                == Some(QuarantineTransition::Readmitted(ID))
            {
                break;
            }
            assert!(epochs < 10_000, "sentence never ends");
        }
        epochs
    }

    #[test]
    fn trip_excludes_and_readmission_requires_consecutive_sanity() {
        let mut m = machine();
        assert!(!is_excluded(&m));
        assert_eq!(
            m.observe(ID, SchemeVerdict::Strike),
            Some(QuarantineTransition::Tripped(ID, 1))
        );
        assert!(is_excluded(&m));
        assert_eq!(m.excluded(), vec![ID]);
        let served = serve_sentence(&mut m);
        assert!(!is_excluded(&m));
        // Sentence (8) + probation (4); the sentence's final epoch doubles
        // as the first probation observation.
        assert_eq!(served, BACKOFF_BASE_EPOCHS + READMIT_SANE_EPOCHS - 1);
    }

    #[test]
    fn backoff_escalates_and_caps() {
        assert_eq!(backoff(1), 8);
        assert_eq!(backoff(2), 16);
        assert_eq!(backoff(3), 32);
        assert_eq!(backoff(5), 128);
        assert_eq!(backoff(30), BACKOFF_CAP_EPOCHS);
    }

    #[test]
    fn probation_strike_escalates_sentence() {
        let mut m = machine();
        m.observe(ID, SchemeVerdict::Strike);
        // Serve the 8-epoch sentence to reach probation.
        for _ in 0..BACKOFF_BASE_EPOCHS {
            m.begin_epoch();
        }
        assert!(is_excluded(&m));
        // Misbehave again during probation: 16-epoch sentence.
        assert_eq!(
            m.observe(ID, SchemeVerdict::Strike),
            Some(QuarantineTransition::Tripped(ID, 2))
        );
        let mut epochs = 0;
        loop {
            m.begin_epoch();
            epochs += 1;
            if m.observe(ID, SchemeVerdict::Sane)
                == Some(QuarantineTransition::Readmitted(ID))
            {
                break;
            }
        }
        assert_eq!(
            epochs,
            BACKOFF_BASE_EPOCHS * BACKOFF_FACTOR + READMIT_SANE_EPOCHS - 1
        );
    }

    #[test]
    fn absence_holds_probation_progress() {
        let mut m = machine();
        m.observe(ID, SchemeVerdict::Strike);
        for _ in 0..BACKOFF_BASE_EPOCHS {
            m.begin_epoch();
        }
        // 3 sane epochs, then a gap, then the 4th: still re-admitted (the
        // gap neither helps nor resets).
        for _ in 0..READMIT_SANE_EPOCHS - 1 {
            assert_eq!(m.observe(ID, SchemeVerdict::Sane), None);
        }
        assert_eq!(m.observe(ID, SchemeVerdict::Absent), None);
        assert!(is_excluded(&m));
        assert_eq!(
            m.observe(ID, SchemeVerdict::Sane),
            Some(QuarantineTransition::Readmitted(ID))
        );
        assert!(!is_excluded(&m));
    }

    #[test]
    fn readmission_fires_at_exactly_the_sane_threshold() {
        let mut m = machine();
        m.observe(ID, SchemeVerdict::Strike);
        for _ in 0..BACKOFF_BASE_EPOCHS {
            m.begin_epoch();
        }
        // READMIT_SANE_EPOCHS - 1 sane epochs keep the scheme excluded;
        // the next one — exactly at the threshold — readmits.
        for i in 0..READMIT_SANE_EPOCHS - 1 {
            assert_eq!(m.observe(ID, SchemeVerdict::Sane), None, "epoch {i}");
            assert!(is_excluded(&m), "still on probation after {} sane", i + 1);
        }
        assert_eq!(
            m.observe(ID, SchemeVerdict::Sane),
            Some(QuarantineTransition::Readmitted(ID))
        );
    }

    #[test]
    fn strikes_reset_after_readmission() {
        let mut m = machine();
        m.observe(ID, SchemeVerdict::Strike);
        serve_sentence(&mut m);
        assert!(!is_excluded(&m));
        // A fresh offense after full readmission starts over at strike 1
        // with the base sentence, not the escalated one.
        assert_eq!(
            m.observe(ID, SchemeVerdict::Strike),
            Some(QuarantineTransition::Tripped(ID, 1))
        );
        let served = serve_sentence(&mut m);
        assert_eq!(served, BACKOFF_BASE_EPOCHS + READMIT_SANE_EPOCHS - 1);
    }

    #[test]
    fn sane_and_absent_while_active_are_noops() {
        let mut m = machine();
        assert_eq!(m.observe(ID, SchemeVerdict::Sane), None);
        assert_eq!(m.observe(ID, SchemeVerdict::Absent), None);
        assert!(!is_excluded(&m));
    }

    #[test]
    fn strikes_on_active_unknown_scheme_are_ignored() {
        let mut m = machine();
        assert_eq!(m.observe(SchemeId::Custom(9), SchemeVerdict::Strike), None);
        assert!(m.excluded().is_empty());
    }

    #[test]
    fn ladder_orders_by_severity() {
        use DegradationLadder::*;
        assert!(Nominal < Degraded(1));
        assert!(Degraded(1) < Degraded(3));
        assert!(Degraded(4) < DeadReckoningOnly);
        assert!(DeadReckoningOnly < Lost);
        assert_eq!(format!("{}", Degraded(2)), "degraded(2)");
    }

    #[test]
    fn ladder_round_trips_through_json() {
        use DegradationLadder::*;
        for state in [Nominal, Degraded(0), Degraded(3), DeadReckoningOnly, Lost] {
            let json = uniloc_stats::json::to_string(&state);
            let back: DegradationLadder =
                uniloc_stats::json::from_str(&json).expect("parse ladder");
            assert_eq!(back, state);
        }
    }
}
