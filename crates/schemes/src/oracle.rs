//! The ground-truth-assisted single-selection baseline.
//!
//! The paper's "Oracle" line (Figs. 2, 3, 5): "at each location, as we know
//! the ground truth in the experiment, [the oracle] chooses the best scheme
//! as its result" — the upper bound for any *selection* strategy, and the
//! line UniLoc2 is shown to beat by combining rather than selecting.

use crate::estimate::SchemeId;

/// Selects the best available scheme with ground-truth knowledge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Oracle;

impl Oracle {
    /// Picks the scheme with the smallest ground-truth error from the
    /// per-scheme errors (`None` for a scheme that produced nothing); the
    /// first of equal errors wins. Returns `(scheme, its error)` or `None`
    /// when no scheme produced anything.
    pub fn select(errors: &[(SchemeId, Option<f64>)]) -> Option<(SchemeId, f64)> {
        errors
            .iter()
            .filter_map(|&(id, e)| Some((id, e?)))
            // `total_cmp` so a NaN error (poisoned estimate) ranks last
            // deterministically instead of panicking the walk.
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_minimum_error_scheme() {
        let errors = [
            (SchemeId::Gps, Some(15.0)),
            (SchemeId::Wifi, Some(2.0)),
            (SchemeId::Cellular, Some(f64::NAN)),
            (SchemeId::Motion, Some(6.0)),
            (SchemeId::Fusion, Some(2.0)),
        ];
        assert_eq!(Oracle::select(&errors), Some((SchemeId::Wifi, 2.0)), "first tie wins");
    }

    #[test]
    fn skips_unavailable_schemes() {
        let errors = [(SchemeId::Gps, None), (SchemeId::Cellular, Some(30.0))];
        assert_eq!(Oracle::select(&errors), Some((SchemeId::Cellular, 30.0)));
    }

    #[test]
    fn none_when_nothing_available() {
        let errors = [(SchemeId::Gps, None), (SchemeId::Wifi, None)];
        assert!(Oracle::select(&errors).is_none());
    }
}
