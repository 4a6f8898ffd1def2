//! An A-Loc-style energy-aware selection baseline (\[28\] in the paper).
//!
//! A-Loc "uses the error models of some localization schemes to select one
//! low-cost scheme that can meet the accuracy requirement". The paper
//! differentiates UniLoc from it on two axes: (1) a-Loc's error records are
//! per-place and cannot transfer to new places, and (2) it *selects one*
//! scheme rather than combining them. We give the baseline the benefit of
//! UniLoc's own transferable error models (axis 1) so the comparison
//! isolates axis 2 plus the energy-awareness: among the schemes whose
//! predicted error meets the accuracy requirement, pick the cheapest.
//!
//! The `ablations` bench compares A-Loc selection against UniLoc1/UniLoc2
//! on both accuracy and the energy of the scheme it keeps running.

use crate::energy::scheme_power_mw;
use crate::engine::SchemeReport;
use uniloc_schemes::SchemeId;

/// The A-Loc selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ALocSelector {
    /// The application's accuracy requirement (m).
    pub accuracy_requirement_m: f64,
}

impl ALocSelector {
    /// Creates a selector with an accuracy requirement.
    ///
    /// # Panics
    ///
    /// Panics when the requirement is not positive.
    pub fn new(accuracy_requirement_m: f64) -> Self {
        assert!(accuracy_requirement_m > 0.0, "accuracy requirement must be positive");
        ALocSelector { accuracy_requirement_m }
    }

    /// Selects from one epoch's scheme reports: the *cheapest* available
    /// scheme ([`scheme_power_mw`]) whose predicted error meets the
    /// requirement; if none qualifies, the available scheme with the
    /// smallest predicted error (graceful degradation). Returns `None` when
    /// nothing is available.
    pub fn select(&self, reports: &[SchemeReport]) -> Option<SchemeId> {
        let candidates: Vec<&SchemeReport> = reports
            .iter()
            .filter(|r| r.estimate.is_some() && r.prediction.is_some())
            .collect();
        // A missing or NaN prediction ranks as infinitely bad rather than
        // panicking: selection must survive a corrupt epoch.
        let predicted_mean = |r: &SchemeReport| {
            r.prediction
                .map(|p| p.mean)
                .filter(|m| m.is_finite())
                .unwrap_or(f64::INFINITY)
        };
        let qualifying = candidates
            .iter()
            .filter(|r| predicted_mean(r) <= self.accuracy_requirement_m)
            .min_by(|a, b| scheme_power_mw(a.id).total_cmp(&scheme_power_mw(b.id)));
        match qualifying {
            Some(r) => Some(r.id),
            None => candidates
                .iter()
                .min_by(|a, b| predicted_mean(a).total_cmp(&predicted_mean(b)))
                .map(|r| r.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::ErrorPrediction;
    use uniloc_geom::Point;
    use uniloc_schemes::LocationEstimate;

    fn report(id: SchemeId, predicted: Option<f64>, available: bool) -> SchemeReport {
        SchemeReport {
            id,
            estimate: available.then(|| LocationEstimate::at(Point::origin())),
            prediction: predicted.map(|mean| ErrorPrediction { mean, sigma: 1.0 }),
            confidence: 0.0,
            weight: 0.0,
        }
    }

    #[test]
    fn picks_cheapest_qualifying_scheme() {
        let sel = ALocSelector::new(8.0);
        // Motion (cheapest) predicts 5 m <= 8 m: chosen over the more
        // accurate but costlier fusion.
        let reports = vec![
            report(SchemeId::Fusion, Some(2.0), true),
            report(SchemeId::Motion, Some(5.0), true),
            report(SchemeId::Gps, Some(14.0), true),
        ];
        assert_eq!(sel.select(&reports), Some(SchemeId::Motion));
    }

    #[test]
    fn falls_back_to_most_accurate_when_none_qualify() {
        let sel = ALocSelector::new(1.0);
        let reports = vec![
            report(SchemeId::Wifi, Some(3.0), true),
            report(SchemeId::Cellular, Some(12.0), true),
        ];
        assert_eq!(sel.select(&reports), Some(SchemeId::Wifi));
    }

    #[test]
    fn ignores_unavailable_and_unpredictable_schemes() {
        let sel = ALocSelector::new(10.0);
        let reports = vec![
            report(SchemeId::Motion, Some(2.0), false), // no estimate
            report(SchemeId::Wifi, None, true),         // no prediction
            report(SchemeId::Fusion, Some(4.0), true),
        ];
        assert_eq!(sel.select(&reports), Some(SchemeId::Fusion));
        assert_eq!(sel.select(&[]), None);
    }

    #[test]
    fn requirement_changes_the_choice() {
        let reports = vec![
            report(SchemeId::Fusion, Some(2.0), true),
            report(SchemeId::Cellular, Some(9.0), true),
        ];
        // Loose requirement: cellular (cheaper than fusion) qualifies.
        assert_eq!(ALocSelector::new(10.0).select(&reports), Some(SchemeId::Cellular));
        // Tight requirement: only fusion qualifies.
        assert_eq!(ALocSelector::new(3.0).select(&reports), Some(SchemeId::Fusion));
    }

    #[test]
    #[should_panic(expected = "accuracy requirement must be positive")]
    fn rejects_bad_requirement() {
        ALocSelector::new(0.0);
    }
}
