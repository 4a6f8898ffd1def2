//! Eqs. 2-5: confidence, UniLoc1's selection and UniLoc2's
//! locally-weighted BMA — the one implementation of UniLoc's combiner.
//!
//! "When a scheme provides a location estimation at time `t`, its
//! localization error can be predicted as a variable with Gaussian
//! distribution `Y_t ~ N(mu_t, sigma_eps)`. [...] We estimate the
//! confidence of one localization scheme as the probability that its
//! localization error is less than a threshold `tau`. [...] `tau` is set
//! adaptively at different locations, as the average predicted error of all
//! available schemes."
//!
//! [`weigh`] and [`fuse`] are pure functions of one epoch's
//! [`SchemeReport`]s: the engine's confidence and fuse stages call them, and
//! so does anything that recombines recorded epochs offline, so the two
//! cannot drift apart.

use crate::engine::SchemeReport;
use crate::error_model::ErrorPrediction;
use uniloc_geom::Point;
use uniloc_schemes::SchemeId;

/// The adaptive threshold `tau`: the mean of the available schemes'
/// predicted errors, summed in iteration order. Returns `None` when
/// nothing is available.
pub fn adaptive_tau<I>(predictions: I) -> Option<f64>
where
    I: IntoIterator<Item = ErrorPrediction>,
    I::IntoIter: Clone,
{
    let predictions = predictions.into_iter();
    let n = predictions.clone().count();
    if n == 0 {
        return None;
    }
    Some(predictions.map(|p| p.mean).sum::<f64>() / n as f64)
}

/// Eq. 2: `c_t = P(Y_t <= tau)` with `Y_t ~ N(mean, sigma)`.
///
/// # Examples
///
/// ```
/// use uniloc_core::confidence::confidence;
/// use uniloc_core::error_model::ErrorPrediction;
///
/// let good = ErrorPrediction { mean: 2.0, sigma: 1.0 };
/// let bad = ErrorPrediction { mean: 10.0, sigma: 1.0 };
/// let tau = 6.0;
/// assert!(confidence(good, tau) > 0.99);
/// assert!(confidence(bad, tau) < 0.01);
/// ```
pub fn confidence(prediction: ErrorPrediction, tau: f64) -> f64 {
    // Eq. 2 is the prediction's probability integral transform evaluated
    // at the threshold — the same function the calibration monitor bins
    // against realized error, so confidence and calibration judge one
    // distribution.
    prediction.pit(tau)
}

/// Eqs. 2 and 5: fills in every report's confidence and BMA weight and
/// returns the adaptive `tau`.
///
/// A report is usable when it has an estimate and `participates` (the
/// engine's GPS duty-cycling gate and quarantine set); only usable reports
/// with a prediction enter `tau` and get a confidence. Every other report
/// gets confidence and weight zero — "UniLoc will exclude it in
/// calculation temporarily". Weights are confidences over their total, or
/// all zero when no confidence is positive.
pub fn weigh(
    reports: &mut [SchemeReport],
    participates: impl Fn(&SchemeReport) -> bool,
) -> Option<f64> {
    let usable = |r: &SchemeReport| r.estimate.is_some() && participates(r);
    let tau = adaptive_tau(reports.iter().filter(|r| usable(r)).filter_map(|r| r.prediction));
    let mut total = 0.0;
    for r in reports.iter_mut() {
        r.confidence = match (tau, r.prediction) {
            (Some(tau), Some(p)) if usable(r) => confidence(p, tau),
            _ => 0.0,
        };
        total += r.confidence;
    }
    for r in reports.iter_mut() {
        r.weight = if total > 0.0 { r.confidence / total } else { 0.0 };
    }
    tau
}

/// One epoch's combination: UniLoc1 and UniLoc2 over weighed reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fusion {
    /// UniLoc1's position: the most-confident report's estimate, else the
    /// no-model fallback's.
    pub uniloc1: Option<Point>,
    /// The report UniLoc1 selected by confidence (`None` on the fallback).
    pub selected: Option<usize>,
    /// The report whose estimate UniLoc1 carries: the selected one, else
    /// the fallback.
    pub carrier: Option<usize>,
    /// The locally-weighted BMA mean (Eqs. 3-4), when any report carries
    /// weight.
    pub bma: Option<Point>,
}

impl Fusion {
    /// UniLoc2's position: the BMA mean, falling back to UniLoc1's.
    pub fn uniloc2(&self) -> Option<Point> {
        self.bma.or(self.uniloc1)
    }
}

/// UniLoc1 and UniLoc2 over reports that [`weigh`] filled in.
///
/// UniLoc1 selects the available report with the highest positive
/// confidence (the last of equal maxima). With no such report it falls
/// back to the first available estimate outside `excluded`, else the first
/// available one at all, so UniLoc still reports a position. UniLoc2 is
/// the weighted mean of the estimates, X and Y independently.
pub fn fuse(reports: &[SchemeReport], excluded: &[SchemeId]) -> Fusion {
    // `total_cmp` keeps a stray NaN confidence from panicking mid-walk.
    let selected = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.estimate.is_some() && r.confidence > 0.0)
        .max_by(|(_, a), (_, b)| a.confidence.total_cmp(&b.confidence))
        .map(|(i, _)| i);
    let carrier = selected.or_else(|| {
        reports
            .iter()
            .position(|r| r.estimate.is_some() && !excluded.contains(&r.id))
            .or_else(|| reports.iter().position(|r| r.estimate.is_some()))
    });
    Fusion {
        uniloc1: carrier.and_then(|i| reports[i].estimate).map(|e| e.position),
        selected,
        carrier,
        bma: weighted_mean(reports.iter().filter_map(|r| Some((r.weight, r.estimate?.position)))),
    }
}

/// Eq. 4's posterior mean under point-mass components: the mean of the
/// positions weighted by their positive weights, X and Y independently,
/// summed in iteration order. `None` when no weight is positive.
pub fn weighted_mean(items: impl IntoIterator<Item = (f64, Point)>) -> Option<Point> {
    let (mut wsum, mut x, mut y) = (0.0, 0.0, 0.0);
    for (w, p) in items {
        if w > 0.0 {
            wsum += w;
            x += w * p.x;
            y += w * p.y;
        }
    }
    (wsum > 0.0).then(|| Point::new(x / wsum, y / wsum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_schemes::LocationEstimate;

    #[test]
    fn tau_is_mean_of_predictions() {
        let preds = [
            ErrorPrediction { mean: 2.0, sigma: 1.0 },
            ErrorPrediction { mean: 4.0, sigma: 1.0 },
            ErrorPrediction { mean: 9.0, sigma: 2.0 },
        ];
        assert!((adaptive_tau(preds).unwrap() - 5.0).abs() < 1e-12);
        assert!(adaptive_tau([]).is_none());
    }

    #[test]
    fn confidence_at_tau_is_half() {
        let p = ErrorPrediction { mean: 5.0, sigma: 2.0 };
        assert!((confidence(p, 5.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn confidence_monotone_in_predicted_error() {
        let tau = 5.0;
        let mut last = 1.0;
        for mean in [1.0, 3.0, 5.0, 7.0, 9.0] {
            let c = confidence(ErrorPrediction { mean, sigma: 2.0 }, tau);
            assert!(c < last, "confidence must fall as predicted error grows");
            last = c;
        }
    }

    #[test]
    fn uncertainty_tempers_confidence() {
        // With the same predicted mean below tau, a *more certain* model is
        // more confident.
        let tau = 6.0;
        let certain = confidence(ErrorPrediction { mean: 3.0, sigma: 0.5 }, tau);
        let vague = confidence(ErrorPrediction { mean: 3.0, sigma: 5.0 }, tau);
        assert!(certain > vague);
    }

    #[test]
    fn degenerate_sigma_handled() {
        let c = confidence(ErrorPrediction { mean: 1.0, sigma: 0.0 }, 2.0);
        assert!(c > 0.999);
    }

    fn report(id: SchemeId, at: Option<(f64, f64)>, mean: Option<f64>) -> SchemeReport {
        SchemeReport {
            id,
            estimate: at.map(|(x, y)| LocationEstimate::at(Point::new(x, y))),
            prediction: mean.map(|mean| ErrorPrediction { mean, sigma: 1.0 }),
            confidence: 0.0,
            weight: 0.0,
        }
    }

    #[test]
    fn equal_confidences_select_the_last_and_fuse_to_the_midpoint() {
        let mut reports = [
            report(SchemeId::Wifi, Some((0.0, 0.0)), Some(2.0)),
            report(SchemeId::Motion, Some((10.0, 0.0)), Some(2.0)),
        ];
        assert_eq!(weigh(&mut reports, |_| true), Some(2.0));
        assert_eq!(reports.map(|r| r.weight), [0.5, 0.5]);
        let fused = fuse(&reports, &[]);
        assert_eq!((fused.selected, fused.carrier), (Some(1), Some(1)));
        assert_eq!(fused.uniloc1, Some(Point::new(10.0, 0.0)));
        assert_eq!(fused.uniloc2(), Some(Point::new(5.0, 0.0)));
    }

    #[test]
    fn no_confidence_falls_back_to_the_first_estimate_outside_quarantine() {
        let mut reports = [
            report(SchemeId::Wifi, Some((1.0, 1.0)), None),
            report(SchemeId::Motion, Some((2.0, 2.0)), None),
        ];
        assert_eq!(weigh(&mut reports, |_| true), None);
        let fused = fuse(&reports, &[SchemeId::Wifi]);
        assert_eq!((fused.selected, fused.carrier, fused.bma), (None, Some(1), None));
        assert_eq!(fused.uniloc2(), Some(Point::new(2.0, 2.0)));
        // Everything quarantined: any available estimate still carries.
        let fused = fuse(&reports, &[SchemeId::Wifi, SchemeId::Motion]);
        assert_eq!(fused.carrier, Some(0));
    }

    #[test]
    fn weighted_mean_skips_non_positive_weights() {
        let items =
            [(0.0, Point::new(9.0, 9.0)), (1.0, Point::new(1.0, 3.0)), (-1.0, Point::origin())];
        assert_eq!(weighted_mean(items), Some(Point::new(1.0, 3.0)));
        assert_eq!(weighted_mean([(f64::NAN, Point::origin())]), None);
    }
}
