//! Table I: the sensor-data features that drive each scheme's error.
//!
//! "All factors (e.g., sensor specifications and environmental conditions)
//! that implicitly impact the localization accuracy take effect by changing
//! the sensor readings. We find some potential data features for each
//! sensor type." The features are computed **from sensor data and shared
//! infrastructure** (the fingerprint databases and the public map), never
//! from scheme internals — which is what lets UniLoc treat schemes as black
//! boxes.
//!
//! | Scheme | Features (indoor) | Features (outdoor) |
//! |---|---|---|
//! | WiFi | fingerprint spatial density, RSSI distance deviation | same |
//! | Cellular | density, deviation, audible towers | same |
//! | Motion | distance from last landmark, corridor width | same |
//! | Fusion | distance, width, WiFi fingerprint density | distance, width (same model as motion — coarse outdoor fingerprints cannot refine PDR) |
//! | GPS | none (constant model, `beta_0 = 13.5 m`) | none |
//!
//! The fingerprint-density feature needs the user's location before any
//! scheme has produced one; online, UniLoc predicts it with a second-order
//! HMM over the fingerprint grid ([`uniloc_filters::Hmm2Predictor`]).
//! During training, ground truth is used (Section III-B: "during the
//! training phase, we know the user's true location").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use uniloc_filters::{Hmm2Predictor, Kalman2D};
use uniloc_geom::{FloorPlan, Point};
use uniloc_iodetect::IoState;
use uniloc_schemes::fingerprint::{FingerprintDb, RssiLike, TOP_K};
use uniloc_schemes::{CellFingerprintDb, FingerprintMatch, SchemeId, WifiFingerprintDb};
use uniloc_sensors::SensorFrame;

/// A user-supplied feature extractor for a custom scheme: given the shared
/// context, the indoor/outdoor state, the frame and the predicted location,
/// produce the scheme's Table-I-style feature vector (or `None` when the
/// scheme cannot be evaluated this epoch).
pub type CustomFeatureFn = Arc<
    dyn Fn(&SharedContext, IoState, &SensorFrame, Option<Point>) -> Option<Vec<f64>>
        + Send
        + Sync,
>;

/// Radius (m) around the user within which fingerprint density is measured.
pub const DENSITY_RADIUS_M: f64 = 20.0;

/// Density value assumed when fewer than two fingerprints are in range
/// (very sparse coverage).
pub const DENSITY_FALLBACK_M: f64 = 16.0;

/// Path width (m) assumed outdoors when no corridor is mapped.
pub const OUTDOOR_WIDTH_FALLBACK_M: f64 = 15.0;

/// Path width (m) assumed indoors when no corridor is mapped.
pub const INDOOR_WIDTH_FALLBACK_M: f64 = 3.0;

/// Immutable per-venue inputs to feature extraction: the offline fingerprint
/// databases and the public map.
#[derive(Debug, Clone)]
pub struct SharedContext {
    /// WiFi fingerprint database (also used by the WiFi and fusion schemes).
    pub wifi_db: WifiFingerprintDb,
    /// Cellular fingerprint database.
    pub cell_db: CellFingerprintDb,
    /// The venue floor plan.
    pub plan: FloorPlan,
}

/// Which online location predictor feeds the density/width features.
///
/// The paper: "we estimate the user's location based on the existing
/// location prediction methods \[24\], like Hidden Markov Model (HMM) or
/// Kalman filter. In our current implementation, we use a second order
/// HMM." Both are available here; [`PredictorKind::Hmm2`] is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// Second-order HMM over the fingerprint grid (the paper's choice).
    #[default]
    Hmm2,
    /// 2-D constant-velocity Kalman filter.
    Kalman,
    /// No smoothing: reuse the previous fused estimate directly.
    LastEstimate,
}

/// The predictor state behind [`FeatureExtractor`].
#[derive(Debug, Clone)]
enum Predictor {
    Hmm2(Option<Hmm2Predictor>),
    Kalman(Option<Kalman2D>),
    LastEstimate,
}

/// Per-walk streaming state: distance since the last landmark and the
/// online location predictor.
#[derive(Clone)]
pub struct FeatureExtractor {
    dist_since_landmark: f64,
    predictor: Predictor,
    last_estimate: Option<Point>,
    custom: BTreeMap<SchemeId, CustomFeatureFn>,
}

impl std::fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureExtractor")
            .field("dist_since_landmark", &self.dist_since_landmark)
            .field("predictor", &self.predictor)
            .field("last_estimate", &self.last_estimate)
            .field("custom_schemes", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl FeatureExtractor {
    /// Creates an extractor for a venue. The HMM predictor runs over the
    /// WiFi fingerprint grid (falling back to the cellular grid when the
    /// venue has no WiFi survey).
    pub fn new(ctx: &SharedContext) -> Self {
        FeatureExtractor::with_predictor(ctx, PredictorKind::default())
    }

    /// Creates an extractor with an explicit location-predictor choice (see
    /// [`PredictorKind`]; the `predictor_comparison` ablation measures the
    /// difference).
    pub fn with_predictor(ctx: &SharedContext, kind: PredictorKind) -> Self {
        let predictor = match kind {
            PredictorKind::Hmm2 => {
                // The grid is the union of the WiFi and cellular
                // fingerprint positions: the union covers WiFi-dark areas
                // like the basement (cellular fingerprints exist wherever
                // any tower is audible), so the predicted location can
                // actually *be* there and the WiFi-density feature
                // correctly reports sparsity.
                let cell: Vec<Point> = ctx.cell_db.positions().collect();
                let states = hmm_states(ctx.wifi_db.positions().collect(), &cell);
                Predictor::Hmm2(Hmm2Predictor::new(states, 2.5, 5.0).ok())
            }
            PredictorKind::Kalman => Predictor::Kalman(None),
            PredictorKind::LastEstimate => Predictor::LastEstimate,
        };
        FeatureExtractor {
            dist_since_landmark: 0.0,
            predictor,
            last_estimate: None,
            custom: BTreeMap::new(),
        }
    }

    /// Registers a feature function for a custom scheme, letting it
    /// participate fully in the ensemble (train a model for the same id and
    /// features with [`crate::error_model::ErrorModelSet::insert`]).
    pub fn register_custom(&mut self, id: SchemeId, f: CustomFeatureFn) {
        self.custom.insert(id, f);
    }

    /// Starts a new epoch: accumulates walked distance and resets the
    /// landmark odometer when the frame carries a landmark recognition.
    pub fn begin_epoch(&mut self, frame: &SensorFrame) {
        for s in &frame.steps {
            self.dist_since_landmark += s.length_est;
        }
        if frame.landmark.is_some() {
            self.dist_since_landmark = 0.0;
        }
    }

    /// Distance walked since the last recognized landmark (m) — the motion
    /// and fusion schemes' `beta_1`.
    pub fn dist_since_landmark(&self) -> f64 {
        self.dist_since_landmark
    }

    /// The extractor's best guess of the user's current location, used for
    /// the density and corridor-width features: the HMM's second-order
    /// prediction, else the last fused estimate.
    pub fn predicted_location(&self) -> Option<Point> {
        match &self.predictor {
            Predictor::Hmm2(hmm) => hmm
                .as_ref()
                .and_then(Hmm2Predictor::predict_next)
                .or(self.last_estimate),
            Predictor::Kalman(filter) => {
                filter.as_ref().map(Kalman2D::position).or(self.last_estimate)
            }
            Predictor::LastEstimate => self.last_estimate,
        }
    }

    /// Feeds the final (fused) estimate of this epoch back into the
    /// predictor, so the next epoch has a location prediction.
    pub fn note_estimate(&mut self, p: Point) {
        match &mut self.predictor {
            Predictor::Hmm2(hmm) => {
                if let Some(h) = hmm.as_mut() {
                    h.observe(p);
                }
            }
            Predictor::Kalman(filter) => {
                let kf = filter.get_or_insert_with(|| Kalman2D::new(p, 0.5, 9.0));
                kf.predict(0.5);
                kf.update(p);
            }
            Predictor::LastEstimate => {}
        }
        self.last_estimate = Some(p);
    }

    /// Computes the feature vector for one scheme this epoch.
    ///
    /// `location_hint` overrides the predicted location (training passes
    /// ground truth here). Returns `None` when the scheme cannot be
    /// meaningfully evaluated from this frame (e.g. no WiFi scan) — the
    /// caller then excludes the scheme (confidence zero).
    pub fn features(
        &self,
        ctx: &SharedContext,
        scheme: SchemeId,
        io: IoState,
        frame: &SensorFrame,
        location_hint: Option<Point>,
    ) -> Option<Vec<f64>> {
        let mut matches = Vec::new();
        let mut out = Vec::new();
        self.features_into(ctx, scheme, io, frame, location_hint, &mut matches, &mut out)
            .then_some(out)
    }

    /// [`features`](Self::features) into caller-owned buffers — the hot-path
    /// form the per-epoch loop uses to stay allocation-free. Returns whether
    /// the scheme can be evaluated; on `true`, `out` holds the feature
    /// vector (possibly empty, e.g. GPS). `matches` is fingerprint-lookup
    /// scratch; its contents are meaningless to the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn features_into(
        &self,
        ctx: &SharedContext,
        scheme: SchemeId,
        io: IoState,
        frame: &SensorFrame,
        location_hint: Option<Point>,
        matches: &mut Vec<FingerprintMatch>,
        out: &mut Vec<f64>,
    ) -> bool {
        out.clear();
        let loc = location_hint.or_else(|| self.predicted_location());
        match scheme {
            SchemeId::Gps => {
                // Constant model, outdoors only; no input features — which
                // is what lets UniLoc predict GPS error without powering
                // the receiver.
                io == IoState::Outdoor
            }
            // Below a radio's `RssiLike::MIN_READINGS` (3 WiFi APs: "when
            // the number of audible APs is less than 3, it is unlikely for
            // the RSSI fingerprinting scheme to provide a meaningful
            // result") the scheme counts as unavailable, exactly as the
            // scheme itself gates.
            SchemeId::Wifi => self.radar_features(&ctx.wifi_db, frame, loc, matches, out).is_some(),
            SchemeId::Cellular => {
                let Some(scan) = self.radar_features(&ctx.cell_db, frame, loc, matches, out) else {
                    return false;
                };
                out.push(scan.len() as f64);
                true
            }
            SchemeId::Motion => {
                out.push(self.dist_since_landmark);
                out.push(self.width(ctx, io, loc));
                true
            }
            SchemeId::Fusion => {
                out.push(self.dist_since_landmark);
                out.push(self.width(ctx, io, loc));
                if io == IoState::Indoor {
                    // Indoors, fingerprint density constrains the fusion
                    // particles (beta_3); outdoors the model reduces to the
                    // motion model.
                    out.push(self.density(&ctx.wifi_db, loc));
                }
                true
            }
            other => match self.custom.get(&other).and_then(|f| f(ctx, io, frame, loc)) {
                Some(v) => {
                    out.extend_from_slice(&v);
                    true
                }
                None => false,
            },
        }
    }

    /// The RADAR schemes' shared features: fingerprint density and the
    /// top-k RSSI distance deviation, pushed onto `out`. Returns the
    /// frame's scan, or `None` (the scheme is unavailable) when the frame
    /// carries fewer than [`RssiLike::MIN_READINGS`] readings or nothing
    /// in `db` matches.
    fn radar_features<'f, S: RssiLike>(
        &self,
        db: &FingerprintDb<S>,
        frame: &'f SensorFrame,
        loc: Option<Point>,
        matches: &mut Vec<FingerprintMatch>,
        out: &mut Vec<f64>,
    ) -> Option<&'f S> {
        let scan = S::in_frame(frame).filter(|s| s.reading_count() >= S::MIN_READINGS)?;
        db.match_scan_into(scan, TOP_K, matches);
        if matches.is_empty() {
            return None;
        }
        out.push(self.density(db, loc));
        out.push(match_deviation(matches.iter().map(|m| m.distance)));
        Some(scan)
    }

    fn density<S: RssiLike>(&self, db: &FingerprintDb<S>, loc: Option<Point>) -> f64 {
        loc.and_then(|p| db.local_density(p, DENSITY_RADIUS_M))
            .unwrap_or(DENSITY_FALLBACK_M)
    }

    fn width(&self, ctx: &SharedContext, io: IoState, loc: Option<Point>) -> f64 {
        loc.and_then(|p| ctx.plan.corridor_width_at(p)).unwrap_or(match io {
            IoState::Outdoor => OUTDOOR_WIDTH_FALLBACK_M,
            IoState::Indoor => INDOOR_WIDTH_FALLBACK_M,
        })
    }
}

/// The HMM state list: the WiFi fingerprint positions `states`, then each
/// cellular position `p` with `q.distance(p) > 0.5` for every state `q`
/// before it, in survey order.
///
/// States are bucketed in 1 m cells, twice the 0.5 m merge radius. A state
/// within 0.5 m of `p` is less than 1 m from it on each axis, so `floor`
/// puts it in the 3×3 block of cells around `p`'s, whatever the rounding,
/// and only that block is tested: O(n) instead of O(N_wifi × N_cell). A
/// non-finite position makes `distance` NaN, which fails `> 0.5` against
/// everything, and no cell block can express that, so then every state is
/// tested.
fn hmm_states(mut states: Vec<Point>, cell: &[Point]) -> Vec<Point> {
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    if !(states.iter().all(finite) && cell.iter().all(finite)) {
        return hmm_states_quadratic(states, cell);
    }
    // Per-cell chains of state indices: `heads` holds each cell's latest
    // state, `next[s]` the one before `s` in the same cell.
    const END: u32 = u32::MAX;
    let key = |p: Point| (p.x.floor() as i64, p.y.floor() as i64);
    let mut heads: HashMap<(i64, i64), u32> = HashMap::with_capacity(states.len() + cell.len());
    let mut next: Vec<u32> = Vec::with_capacity(states.len() + cell.len());
    for (s, &q) in states.iter().enumerate() {
        next.push(heads.insert(key(q), s as u32).unwrap_or(END));
    }
    for &p in cell {
        let (kx, ky) = key(p);
        let clear = (-1..=1).all(|dx| {
            (-1..=1).all(|dy| {
                let head = heads.get(&(kx.saturating_add(dx), ky.saturating_add(dy))).copied();
                std::iter::successors(head, |&s| Some(next[s as usize]).filter(|&n| n != END))
                    .all(|s| states[s as usize].distance(p) > 0.5)
            })
        });
        if clear {
            next.push(heads.insert((kx, ky), states.len() as u32).unwrap_or(END));
            states.push(p);
        }
    }
    states
}

/// [`hmm_states`] testing every state: its non-finite path, and the
/// reference its grid path is tested against.
fn hmm_states_quadratic(mut states: Vec<Point>, cell: &[Point]) -> Vec<Point> {
    for &p in cell {
        if states.iter().all(|q| q.distance(p) > 0.5) {
            states.push(p);
        }
    }
    states
}

/// Standard deviation of the top-k candidate RSSI distances — the paper's
/// `beta_2`: "if the deviation is small, the fingerprints at these
/// locations are more similar, and in turn the estimated location is more
/// likely to be wrong".
fn match_deviation(distances: impl Iterator<Item = f64> + Clone) -> f64 {
    // Two passes over the (cloneable) iterator instead of collecting: this
    // runs every epoch and must not allocate.
    let mut n = 0usize;
    let mut sum = 0.0;
    for d in distances.clone() {
        n += 1;
        sum += d;
    }
    if n < 2 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let mut ss = 0.0;
    for x in distances {
        ss += (x - mean) * (x - mean);
    }
    (ss / (n - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;
    use uniloc_schemes::{FingerprintScheme, LocalizationScheme};
    use uniloc_env::{campus, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn context(scenario: &campus::Scenario, seed: u64) -> SharedContext {
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
        let pts = scenario.survey_points(3.0, 12.0);
        SharedContext {
            wifi_db: WifiFingerprintDb::survey_wifi(&mut hub, &pts),
            cell_db: CellFingerprintDb::survey_cell(&mut hub, &pts),
            plan: scenario.world.floorplan().clone(),
        }
    }

    fn frames(scenario: &campus::Scenario, seed: u64) -> Vec<SensorFrame> {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        hub.sample_walk(&walk, 0.5)
    }

    #[test]
    fn landmark_resets_distance() {
        let scenario = campus::daily_path(101);
        let ctx = context(&scenario, 102);
        let mut fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 103);
        let mut saw_reset = false;
        let mut prev = 0.0;
        for f in &all {
            fx.begin_epoch(f);
            if f.landmark.is_some() {
                assert_eq!(fx.dist_since_landmark(), 0.0);
                if prev > 1.0 {
                    saw_reset = true;
                }
            }
            prev = fx.dist_since_landmark();
        }
        assert!(saw_reset, "the daily path must trigger landmark resets");
    }

    #[test]
    fn wifi_features_present_in_office_absent_in_basement() {
        let scenario = campus::daily_path(104);
        let ctx = context(&scenario, 105);
        let fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 106);
        let mut office_some = 0usize;
        let mut office_total = 0usize;
        let mut basement_none = 0usize;
        let mut basement_total = 0usize;
        for f in &all {
            let kind = scenario.world.kind_at(f.true_position);
            let feats = fx.features(
                &ctx,
                SchemeId::Wifi,
                IoState::Indoor,
                f,
                Some(f.true_position),
            );
            match kind {
                uniloc_env::EnvKind::Office => {
                    office_total += 1;
                    office_some += usize::from(feats.is_some());
                }
                uniloc_env::EnvKind::Basement => {
                    basement_total += 1;
                    basement_none += usize::from(feats.is_none());
                }
                _ => {}
            }
        }
        assert!(office_some as f64 > 0.9 * office_total as f64);
        assert!(basement_none as f64 > 0.7 * basement_total as f64);
    }

    #[test]
    fn feature_arity_per_scheme() {
        let scenario = campus::daily_path(107);
        let ctx = context(&scenario, 108);
        let mut fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 109);
        let f = &all[20]; // office
        fx.begin_epoch(f);
        let hint = Some(f.true_position);
        assert_eq!(
            fx.features(&ctx, SchemeId::Wifi, IoState::Indoor, f, hint).unwrap().len(),
            2
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Cellular, IoState::Indoor, f, hint).unwrap().len(),
            3
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Motion, IoState::Indoor, f, hint).unwrap().len(),
            2
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Fusion, IoState::Indoor, f, hint).unwrap().len(),
            3
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Fusion, IoState::Outdoor, f, hint).unwrap().len(),
            2,
            "outdoor fusion uses the motion model"
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Gps, IoState::Outdoor, f, hint).unwrap().len(),
            0
        );
        assert!(fx.features(&ctx, SchemeId::Gps, IoState::Indoor, f, hint).is_none());
    }

    /// The paper requires a RADAR scheme and its features to agree on
    /// availability: one scan fewer than the radio's `MIN_READINGS` gets
    /// `None` from both, exactly `MIN_READINGS` gets `Some` from both.
    #[test]
    fn scheme_gate_and_feature_gate_agree() {
        fn check<S: RssiLike>(
            ctx: &SharedContext,
            db: &FingerprintDb<S>,
            frame: &SensorFrame,
            keep: impl Fn(&mut SensorFrame, usize),
        ) {
            let fx = FeatureExtractor::new(ctx);
            for (n, available) in [(S::MIN_READINGS - 1, false), (S::MIN_READINGS, true)] {
                let mut f = frame.clone();
                keep(&mut f, n);
                assert_eq!(S::in_frame(&f).map(RssiLike::reading_count), Some(n));
                let hint = Some(f.true_position);
                let scheme = FingerprintScheme::new(db.clone()).update(&f);
                let features = fx.features(ctx, S::SCHEME, IoState::Indoor, &f, hint);
                let id = S::SCHEME;
                assert_eq!(scheme.is_some(), available, "{id} scheme with {n} readings");
                assert_eq!(features.is_some(), available, "{id} features with {n} readings");
            }
        }
        let scenario = campus::daily_path(107);
        let ctx = context(&scenario, 108);
        let all = frames(&scenario, 109);
        let f = &all[20]; // office: hears more than 3 APs and a tower
        check(&ctx, &ctx.wifi_db, f, |f, n| f.wifi.as_mut().unwrap().readings.truncate(n));
        check(&ctx, &ctx.cell_db, f, |f, n| f.cell.as_mut().unwrap().readings.truncate(n));
    }

    #[test]
    fn corridor_width_feature_varies_by_segment() {
        let scenario = campus::daily_path(110);
        let ctx = context(&scenario, 111);
        let fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 112);
        // Find one office frame and one open-space frame.
        let office = all
            .iter()
            .find(|f| scenario.world.kind_at(f.true_position) == uniloc_env::EnvKind::Office)
            .unwrap();
        let open = all
            .iter()
            .find(|f| {
                scenario.world.kind_at(f.true_position) == uniloc_env::EnvKind::OpenSpace
            })
            .unwrap();
        let w_office = fx
            .features(&ctx, SchemeId::Motion, IoState::Indoor, office, Some(office.true_position))
            .unwrap()[1];
        let w_open = fx
            .features(&ctx, SchemeId::Motion, IoState::Outdoor, open, Some(open.true_position))
            .unwrap()[1];
        assert!(
            w_open > w_office,
            "open space width {w_open} must exceed office corridor width {w_office}"
        );
    }

    #[test]
    fn hmm_prediction_becomes_available_after_estimates() {
        let scenario = campus::daily_path(113);
        let ctx = context(&scenario, 114);
        let mut fx = FeatureExtractor::new(&ctx);
        assert!(fx.predicted_location().is_none());
        fx.note_estimate(Point::new(5.0, 5.0));
        assert!(fx.predicted_location().is_some());
        fx.note_estimate(Point::new(6.0, 5.0));
        let p = fx.predicted_location().unwrap();
        // Second-order prediction extrapolates eastward.
        assert!(p.x >= 6.0);
    }

    #[test]
    fn hmm_state_grid_matches_the_quadratic_union() {
        fn bits(v: &[Point]) -> Vec<(u64, u64)> {
            v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        }
        /// A point drawn near `pool`: a duplicate, a neighbour exactly
        /// 0.5 m away (on an axis or on a 0.3/0.4 diagonal), a point on a
        /// cell edge, or a random one.
        fn draw(rng: &mut Rng, pool: &[Point]) -> Point {
            let pick = |rng: &mut Rng| pool[rng.gen_range(0..pool.len())];
            match rng.gen_range(0..6u32) {
                0 if !pool.is_empty() => pick(rng),
                1 if !pool.is_empty() => {
                    let q = pick(rng);
                    let (dx, dy) = [(0.5, 0.0), (0.0, -0.5), (0.3, 0.4), (-0.4, 0.3)]
                        [rng.gen_range(0..4usize)];
                    Point::new(q.x + dx, q.y + dy)
                }
                2 => {
                    Point::new(rng.gen_range(-6..6i64) as f64 * 0.5, rng.gen_range(-6..6i64) as f64)
                }
                _ => Point::new(rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)),
            }
        }
        let mut rng = Rng::seed_from_u64(17);
        for case in 0..400 {
            let mut wifi: Vec<Point> = Vec::new();
            for _ in 0..rng.gen_range(0..40usize) {
                let p = draw(&mut rng, &wifi);
                wifi.push(p);
            }
            let mut cell: Vec<Point> = Vec::new();
            for _ in 0..rng.gen_range(0..60usize) {
                let pool = if rng.gen_range(0..2u32) == 0 { &wifi } else { &cell };
                let p = draw(&mut rng, pool);
                cell.push(p);
            }
            if case % 50 == 7 {
                // A NaN position on either side takes the full scan.
                let nan = Point::new(f64::NAN, 1.0);
                if case % 100 == 7 && !wifi.is_empty() {
                    let i = rng.gen_range(0..wifi.len());
                    wifi[i] = nan;
                } else {
                    cell.push(nan);
                    cell.push(Point::new(0.25, 0.25));
                }
            }
            let want = hmm_states_quadratic(wifi.clone(), &cell);
            let got = hmm_states(wifi.clone(), &cell);
            assert_eq!(bits(&got), bits(&want), "case {case}: wifi {wifi:?} cell {cell:?}");
        }
    }

    #[test]
    fn match_deviation_basics() {
        assert_eq!(match_deviation([5.0].into_iter()), 0.0);
        assert_eq!(match_deviation([3.0, 3.0, 3.0].into_iter()), 0.0);
        let d = match_deviation([1.0, 2.0, 3.0].into_iter());
        assert!((d - 1.0).abs() < 1e-12);
    }
}
