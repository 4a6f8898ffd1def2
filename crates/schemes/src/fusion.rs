//! The sensor-data fusion scheme (Travi-Navi \[11\]).
//!
//! "We adopt the approach in \[11\] and assign different weights to the
//! particles of motion-based PDR according to the RSSI distances between
//! the online and offline RSSI vectors." The scheme is the PDR core plus a
//! WiFi reweighting pass: the online scan is matched against the offline
//! database and each particle is scored by a fixed-width Gaussian mixture
//! around the top candidate positions. The kernel is deliberately *not*
//! quality-adaptive: as the paper observes, "the existing fusion-based
//! schemes process the RSSI data in the same way at different locations,
//! but do not consider the quality variation of RSSI data" — so where the
//! scan is junk (e.g. the 180 m mark of the daily path), "the low-quality
//! RSSIs make the estimated location depart from the user's true
//! location". Recognizing and exploiting that variation is UniLoc's job,
//! not the baseline's.

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::{RssiLike, WifiFingerprintDb};
use crate::index::SpatialGrid;
use crate::pdr::{PdrCore, RESAMPLE_FRAC};
use uniloc_geom::{FloorPlan, Point};
use uniloc_sensors::{SensorFrame, WifiScan};

/// Grid cell size (m) of the spatial hash over fingerprint positions (the
/// per-particle nearest-fingerprint loop would otherwise be quadratic).
const GRID_CELL_M: f64 = 5.0;

/// Likelihood floor: keeps particle weights positive so one scan cannot
/// annihilate the cloud.
const LIKELIHOOD_FLOOR: f64 = 0.05;

/// RSSI likelihood kernel width (dB).
const RSSI_SIGMA_DB: f64 = 8.0;

/// The WiFi + PDR fusion scheme.
#[derive(Debug, Clone)]
pub struct FusionScheme {
    core: PdrCore,
    db: WifiFingerprintDb,
    /// Nearest-fingerprint lookup over the database's positions, in entry
    /// order.
    index: SpatialGrid,
    /// Per-fingerprint likelihoods of the scan being reweighted.
    memo: LikelihoodMemo,
}

/// Generation-stamped per-fingerprint memo for one reweight call:
/// `values[i]` is current when `stamps[i] == generation`. Bumping the
/// generation invalidates every entry without clearing; the buffers grow
/// once, under the alloc-meter pause (warmup, like the match scratch).
#[derive(Debug, Clone, Default)]
struct LikelihoodMemo {
    stamps: Vec<u32>,
    values: Vec<f64>,
    generation: u32,
}

impl LikelihoodMemo {
    /// Starts a call over `n` fingerprints with every entry stale.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            let _pause = uniloc_obs::alloc::pause();
            self.stamps.resize(n, 0);
            self.values.resize(n, 0.0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Entry `i`, computed by `f` on its first use this call.
    fn get(&mut self, i: usize, f: impl FnOnce() -> f64) -> f64 {
        if self.stamps[i] != self.generation {
            self.stamps[i] = self.generation;
            self.values[i] = f();
        }
        self.values[i]
    }
}

impl FusionScheme {
    /// Creates the scheme: PDR core plus the offline WiFi fingerprint
    /// database used for particle reweighting.
    pub fn new(plan: FloorPlan, start: Point, db: WifiFingerprintDb, seed: u64) -> Self {
        let index = SpatialGrid::build(db.positions().collect(), GRID_CELL_M);
        FusionScheme {
            core: PdrCore::new(plan, start, seed),
            db,
            index,
            memo: LikelihoodMemo::default(),
        }
    }

    /// Reweights particles by the RSSI likelihood of the online scan
    /// against each particle's nearest offline fingerprint. Deliberately
    /// quality-blind: Travi-Navi "process[es] the RSSI data in the same way
    /// at different locations" — there is no gate on scan quality, so
    /// low-quality RSSIs really do drag the estimate, as the paper observes
    /// at the 180 m mark of the daily path.
    fn rssi_reweight(&mut self, scan: &WifiScan) {
        // A scan no fingerprint shares an AP with matches nothing (the
        // RSSI distance is undefined without a common AP), so it leaves
        // the cloud alone.
        if scan.is_empty() || !self.db.hears_any(scan) {
            return;
        }
        self.reweight_particles(scan);
        self.core.pf.maybe_resample(RESAMPLE_FRAC, &mut self.core.rng);
    }

    /// The likelihood pass of [`rssi_reweight`](Self::rssi_reweight).
    fn reweight_particles(&mut self, scan: &WifiScan) {
        // Travi-Navi weighting: each particle is scored by the RSSI
        // distance between the online scan and the offline fingerprint
        // nearest to that particle ("assign different weights to the
        // particles of motion-based PDR according to the RSSI distances
        // between the online and offline RSSI vectors"). The pass is
        // deliberately *not* quality-adaptive: as the paper observes, the
        // "existing fusion-based schemes process the RSSI data in the same
        // way at different locations, but do not consider the quality
        // variation of RSSI data" — so where the scan is junk (e.g. the
        // 180 m mark of the daily path), "the low-quality RSSIs make the
        // estimated location depart from the user's true location".
        // Recognizing that variation is UniLoc's job, not the baseline's.
        //
        // A particle's likelihood depends only on its nearest fingerprint,
        // so each fingerprint's is computed once per call and memoized.
        let two_sigma2 = 2.0 * RSSI_SIGMA_DB * RSSI_SIGMA_DB;
        let index = &self.index;
        let db = &self.db;
        let memo = &mut self.memo;
        memo.begin(db.len());
        let _ = self.core.pf.reweight(|p| {
            let l = match index.nearest(p.pos) {
                Some(i) => memo.get(i, || match scan.fingerprint_distance(db.scan(i)) {
                    Some(d) => (-d * d / two_sigma2).exp(),
                    None => 0.0,
                }),
                None => 0.0,
            };
            LIKELIHOOD_FLOOR + l
        });
    }
}

impl LocalizationScheme for FusionScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Fusion
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        for step in &frame.steps {
            self.core.advance_step(step);
        }
        if let Some(lm) = frame.landmark {
            self.core.calibrate_landmark(lm.position);
        }
        if let Some(scan) = frame.wifi.as_ref() {
            self.rssi_reweight(scan);
        }
        // Sidecar-only telemetry: degeneracy of the particle cloud after
        // the RSSI reweight.
        uniloc_obs::global_metrics()
            .gauge("fusion.particle_filter.ess")
            .set(self.core.pf.effective_sample_size());
        Some(self.core.estimate())
    }

    fn posterior_mean(&self) -> Option<Point> {
        self.core.posterior_mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdr::PdrScheme;
    use uniloc_rng::Rng;
    use uniloc_env::{campus, venues, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn build_fusion(scenario: &campus::Scenario, seed: u64) -> FusionScheme {
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
        let points = scenario.survey_points(3.0, 12.0);
        let db = WifiFingerprintDb::survey_wifi(&mut hub, &points);
        FusionScheme::new(scenario.world.floorplan().clone(), scenario.route.start(), db, seed + 1)
    }

    fn mean_error<S: LocalizationScheme>(
        scenario: &campus::Scenario,
        scheme: &mut S,
        seed: u64,
    ) -> f64 {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        let frames = hub.sample_walk(&walk, 0.5);
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    #[test]
    fn fusion_beats_plain_pdr_indoors() {
        let scenario = venues::training_office(91);
        let mut fusion = build_fusion(&scenario, 92);
        let mut pdr =
            PdrScheme::new(scenario.world.floorplan().clone(), scenario.route.start(), 93);
        let fusion_err = mean_error(&scenario, &mut fusion, 94);
        let pdr_err = mean_error(&scenario, &mut pdr, 94);
        assert!(
            fusion_err <= pdr_err * 1.1,
            "fusion ({fusion_err}) should not lose to PDR ({pdr_err}) indoors"
        );
        assert!(fusion_err < 5.0, "fusion office error {fusion_err}");
    }

    #[test]
    fn fusion_not_much_worse_than_pdr_on_mixed_path() {
        // Outdoors / in WiFi-poor areas the RSSI pass must degrade to a
        // no-op, keeping fusion close to plain PDR (the paper gives them
        // the same outdoor error model).
        let scenario = campus::daily_path(99);
        let mut fusion = build_fusion(&scenario, 100);
        let mut pdr =
            PdrScheme::new(scenario.world.floorplan().clone(), scenario.route.start(), 101);
        let fusion_err = mean_error(&scenario, &mut fusion, 102);
        let pdr_err = mean_error(&scenario, &mut pdr, 102);
        assert!(
            fusion_err <= pdr_err * 1.35 + 1.0,
            "fusion ({fusion_err}) degraded too far below PDR ({pdr_err})"
        );
    }

    #[test]
    fn fusion_always_available() {
        let scenario = campus::daily_path(95);
        let mut fusion = build_fusion(&scenario, 96);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(97));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 98);
        let frames = hub.sample_walk(&walk, 0.5);
        assert!(frames.iter().all(|f| fusion.update(f).is_some()));
    }

    #[test]
    fn foreign_scan_is_a_noop() {
        let scenario = venues::training_office(103);
        let mut fusion = build_fusion(&scenario, 104);
        // Prime with a few steps.
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(105));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 106);
        let frames = hub.sample_walk(&walk, 0.5);
        for f in frames.iter().take(20) {
            fusion.update(f);
        }
        let before = fusion.core.estimate().position;
        // A scan whose APs appear in no fingerprint cannot match anything:
        // every particle gets the uniform floor and the cloud is untouched
        // (weights renormalize to what they were).
        let foreign = WifiScan {
            readings: vec![
                (uniloc_env::ApId(9_999), -60.0),
                (uniloc_env::ApId(9_998), -65.0),
                (uniloc_env::ApId(9_997), -70.0),
            ],
        };
        fusion.rssi_reweight(&foreign);
        let after = fusion.core.estimate().position;
        assert!(
            before.distance(after) < 1e-9,
            "unmatched scans must not move the cloud ({before} -> {after})"
        );
    }

    #[test]
    fn memoized_reweight_matches_the_per_particle_formula() {
        let scenario = venues::training_office(111);
        let mut fusion = build_fusion(&scenario, 112);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(113));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 114);
        let frames = hub.sample_walk(&walk, 0.5);
        // Scans heard along the walk, one from the far end of the office,
        // and one sharing a single AP with the survey.
        let mut scans: Vec<WifiScan> =
            frames.iter().filter_map(|f| f.wifi.clone()).take(6).collect();
        scans.push(hub.scan_wifi(Point::new(50.0, 15.0)));
        let mut partial = scans[0].clone();
        partial.readings.truncate(1);
        partial.readings.push((uniloc_env::ApId(9_999), -60.0));
        scans.push(partial);
        let two_sigma2 = 2.0 * RSSI_SIGMA_DB * RSSI_SIGMA_DB;
        for (round, scan) in scans.iter().enumerate() {
            // Step the cloud between rounds so particles move across
            // fingerprints and the memo sees fresh generations.
            for f in frames.iter().skip(round * 5).take(5) {
                fusion.update(f);
            }
            let mut reference = fusion.core.pf.clone();
            let index = &fusion.index;
            let db = &fusion.db;
            reference.reweight(|p| {
                let l = match index.nearest(p.pos) {
                    Some(i) => match scan.distance(db.scan(i), 12.0) {
                        Some(d) => (-d * d / two_sigma2).exp(),
                        None => 0.0,
                    },
                    None => 0.0,
                };
                LIKELIHOOD_FLOOR + l
            });
            fusion.reweight_particles(scan);
            let bits = |pf: &uniloc_filters::ParticleFilter<_>| -> Vec<u64> {
                pf.particles().iter().map(|p| p.weight.to_bits()).collect()
            };
            let (got, want) = (bits(&fusion.core.pf), bits(&reference));
            assert_eq!(got, want, "round {round}: memoized weights differ");
        }
    }

    #[test]
    fn junk_scan_can_drag_the_cloud() {
        // Quality-blindness is a *feature* of the baseline: a misleading
        // scan that matches a far fingerprint pulls the estimate away —
        // the paper's observation at the 180 m mark of the daily path.
        let scenario = venues::training_office(107);
        let mut fusion = build_fusion(&scenario, 108);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(109));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 110);
        let frames = hub.sample_walk(&walk, 0.5);
        for f in frames.iter().take(20) {
            fusion.update(f);
        }
        let before = fusion.core.estimate().position;
        // A strong scan captured at the far end of the office.
        let far = hub.scan_wifi(Point::new(50.0, 15.0));
        for _ in 0..10 {
            fusion.rssi_reweight(&far);
        }
        let after = fusion.core.estimate().position;
        assert!(
            after.distance(before) > 0.5,
            "misleading RSSIs should drag the quality-blind baseline"
        );
    }
}
