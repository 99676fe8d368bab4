//! Discrete bargaining problems over sampled feasible sets.

use crate::error::GameError;
use crate::point::CostPoint;

/// The agreement a solution concept selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bargain {
    /// The selected cost pair.
    pub point: CostPoint,
    /// Index of the selected point in the problem's feasible set.
    pub index: usize,
    /// The Nash product of gains at the selected point (reported for
    /// every concept, as a common comparison scale).
    pub nash_product: f64,
}

/// A two-player bargaining problem over a *sampled* feasible set of cost
/// pairs with a disagreement point `v`.
///
/// The sampled formulation mirrors how the paper's framework actually
/// uses the game: each candidate MAC parameter vector contributes one
/// `(E, L)` outcome, `v = (Eworst, Lworst)`, and the solution concepts
/// select among the candidates. A continuous refinement lives in
/// [`nash_continuous`](crate::nash_continuous).
///
/// # Examples
///
/// ```
/// use edmac_game::{BargainingProblem, CostPoint};
///
/// let game = BargainingProblem::new(
///     vec![CostPoint::new(2.0, 2.0), CostPoint::new(1.0, 4.0)],
///     CostPoint::new(5.0, 5.0),
/// ).unwrap();
/// // Gains: (3)(3)=9 vs (4)(1)=4 — Nash picks the balanced point.
/// assert_eq!(game.nash().unwrap().point, CostPoint::new(2.0, 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct BargainingProblem {
    feasible: Vec<CostPoint>,
    disagreement: CostPoint,
}

impl BargainingProblem {
    /// Creates a problem from a feasible outcome set and disagreement
    /// point.
    ///
    /// Non-finite outcomes are dropped.
    ///
    /// # Errors
    ///
    /// * [`GameError::NonFiniteDisagreement`] if `v` is not finite.
    /// * [`GameError::EmptyFeasibleSet`] if nothing remains after
    ///   filtering.
    pub fn new(
        feasible: Vec<CostPoint>,
        disagreement: CostPoint,
    ) -> Result<BargainingProblem, GameError> {
        if !disagreement.is_finite() {
            return Err(GameError::NonFiniteDisagreement);
        }
        let feasible: Vec<CostPoint> = feasible.into_iter().filter(CostPoint::is_finite).collect();
        if feasible.is_empty() {
            return Err(GameError::EmptyFeasibleSet);
        }
        Ok(BargainingProblem {
            feasible,
            disagreement,
        })
    }

    /// The feasible outcomes.
    pub fn feasible(&self) -> &[CostPoint] {
        &self.feasible
    }

    /// The disagreement (threat) point `v`.
    pub fn disagreement(&self) -> CostPoint {
        self.disagreement
    }

    /// The **Nash Bargaining Solution**: the outcome maximizing the
    /// product of gains `(v₁ − c₁)(v₂ − c₂)` among outcomes improving on
    /// `v` for both players. Ties break toward the earlier index
    /// (deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NoGainRegion`] if no outcome strictly
    /// improves on the disagreement point for both players.
    pub fn nash(&self) -> Result<Bargain, GameError> {
        self.argmax(|p| {
            if p.strictly_dominates(self.disagreement) {
                p.nash_product(self.disagreement)
            } else {
                f64::NEG_INFINITY
            }
        })
    }

    /// The **Kalai–Smorodinsky solution**: the outcome that best
    /// equalizes gains normalized by each player's ideal gain
    /// (distance from `v` to the per-player best feasible cost),
    /// maximizing the smaller normalized gain. The classic alternative
    /// to Nash that keeps Pareto optimality and symmetry but trades
    /// independence-of-irrelevant-alternatives for monotonicity.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NoGainRegion`] if no outcome strictly
    /// improves on the disagreement point for both players.
    pub fn kalai_smorodinsky(&self) -> Result<Bargain, GameError> {
        let ideal_x = self
            .feasible
            .iter()
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        let ideal_y = self
            .feasible
            .iter()
            .map(|p| p.y)
            .fold(f64::INFINITY, f64::min);
        let span_x = (self.disagreement.x - ideal_x).max(f64::MIN_POSITIVE);
        let span_y = (self.disagreement.y - ideal_y).max(f64::MIN_POSITIVE);
        self.argmax(|p| {
            if p.strictly_dominates(self.disagreement) {
                let (gx, gy) = p.gains_from(self.disagreement);
                (gx / span_x).min(gy / span_y)
            } else {
                f64::NEG_INFINITY
            }
        })
    }

    /// The **egalitarian solution**: maximizes the smaller *absolute*
    /// gain, i.e. pushes both players' improvements over `v` up
    /// together.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NoGainRegion`] if no outcome strictly
    /// improves on the disagreement point for both players.
    pub fn egalitarian(&self) -> Result<Bargain, GameError> {
        self.argmax(|p| {
            if p.strictly_dominates(self.disagreement) {
                let (gx, gy) = p.gains_from(self.disagreement);
                gx.min(gy)
            } else {
                f64::NEG_INFINITY
            }
        })
    }

    /// The **weighted-sum aggregate scalarization** — the non-strategic
    /// baseline of Kannan & Wei's strategic-vs-aggregate comparison:
    /// minimize `w·x̂ + (1−w)·ŷ` over the whole feasible set, where
    /// `x̂`/`ŷ` are each cost normalized to `[0, 1]` across the set's
    /// own extent (so the weight is scale-free).
    ///
    /// Unlike the bargaining concepts this *ignores the disagreement
    /// point entirely* — it may select an outcome outside the gain
    /// region, which is precisely the efficiency/fairness gap the
    /// bargaining-vs-aggregate study measures. The reported
    /// `nash_product` is still computed against `v` for comparability.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidWeight`] unless `0 ≤ w ≤ 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use edmac_game::{BargainingProblem, CostPoint};
    ///
    /// let game = BargainingProblem::new(
    ///     vec![CostPoint::new(1.0, 7.0), CostPoint::new(3.0, 3.0), CostPoint::new(7.0, 1.0)],
    ///     CostPoint::new(8.0, 8.0),
    /// ).unwrap();
    /// // An x-heavy aggregate picks the cheapest-x corner outright.
    /// assert_eq!(game.weighted_sum(0.9).unwrap().point, CostPoint::new(1.0, 7.0));
    /// // The balanced aggregate lands on the knee.
    /// assert_eq!(game.weighted_sum(0.5).unwrap().point, CostPoint::new(3.0, 3.0));
    /// ```
    pub fn weighted_sum(&self, w: f64) -> Result<Bargain, GameError> {
        if !(w.is_finite() && (0.0..=1.0).contains(&w)) {
            return Err(GameError::InvalidWeight { weight: w });
        }
        let min_x = self
            .feasible
            .iter()
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        let max_x = self
            .feasible
            .iter()
            .map(|p| p.x)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_y = self
            .feasible
            .iter()
            .map(|p| p.y)
            .fold(f64::INFINITY, f64::min);
        let max_y = self
            .feasible
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max);
        let span_x = (max_x - min_x).max(f64::MIN_POSITIVE);
        let span_y = (max_y - min_y).max(f64::MIN_POSITIVE);
        // argmax of the negated scalarization keeps the earliest-index
        // tie-break shared with the bargaining concepts.
        self.argmax(|p| -(w * (p.x - min_x) / span_x + (1.0 - w) * (p.y - min_y) / span_y))
    }

    fn argmax<F: Fn(&CostPoint) -> f64>(&self, score: F) -> Result<Bargain, GameError> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.feasible.iter().enumerate() {
            let s = score(p);
            if s == f64::NEG_INFINITY {
                continue;
            }
            // Strict improvement keeps the earliest index on ties.
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        match best {
            Some((index, _)) => Ok(Bargain {
                point: self.feasible[index],
                index,
                nash_product: self.feasible[index].nash_product(self.disagreement),
            }),
            None => Err(GameError::NoGainRegion),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symmetric_game() -> BargainingProblem {
        BargainingProblem::new(
            vec![
                CostPoint::new(1.0, 7.0),
                CostPoint::new(2.0, 4.0),
                CostPoint::new(3.0, 3.0),
                CostPoint::new(4.0, 2.0),
                CostPoint::new(7.0, 1.0),
            ],
            CostPoint::new(8.0, 8.0),
        )
        .unwrap()
    }

    #[test]
    fn nash_maximizes_gain_product() {
        let game = symmetric_game();
        let nash = game.nash().unwrap();
        // Products: 7*1=7, 6*4=24, 5*5=25, 4*6=24, 1*7=7.
        assert_eq!(nash.point, CostPoint::new(3.0, 3.0));
        assert_eq!(nash.nash_product, 25.0);
    }

    #[test]
    fn symmetric_game_gives_equal_gains_under_all_concepts() {
        let game = symmetric_game();
        for b in [
            game.nash().unwrap(),
            game.kalai_smorodinsky().unwrap(),
            game.egalitarian().unwrap(),
        ] {
            let (gx, gy) = b.point.gains_from(game.disagreement());
            assert_eq!(gx, gy, "symmetric game must yield symmetric gains");
        }
    }

    #[test]
    fn concepts_diverge_on_asymmetric_ideal_points() {
        // Player y can gain much more than player x; KS normalizes by
        // ideal gains, Nash does not.
        let game = BargainingProblem::new(
            vec![
                CostPoint::new(9.0, 2.0),
                CostPoint::new(9.5, 1.0),
                CostPoint::new(8.0, 6.0),
            ],
            CostPoint::new(10.0, 10.0),
        )
        .unwrap();
        let nash = game.nash().unwrap();
        let ks = game.kalai_smorodinsky().unwrap();
        // Nash products: 1*8=8, 0.5*9=4.5, 2*4=8 -> tie 8 breaks to
        // index 0.
        assert_eq!(nash.point, CostPoint::new(9.0, 2.0));
        // KS ideal = (8, 1), spans = (2, 9): min ratios are
        // (0.5, 8/9)->0.5, (0.25,1)->0.25, (1, 4/9)->0.444...
        assert_eq!(ks.point, CostPoint::new(9.0, 2.0));
    }

    #[test]
    fn no_gain_region_is_detected() {
        let game = BargainingProblem::new(
            vec![CostPoint::new(5.0, 1.0), CostPoint::new(1.0, 5.0)],
            CostPoint::new(2.0, 2.0),
        )
        .unwrap();
        assert_eq!(game.nash().unwrap_err(), GameError::NoGainRegion);
        assert_eq!(
            game.kalai_smorodinsky().unwrap_err(),
            GameError::NoGainRegion
        );
        assert_eq!(game.egalitarian().unwrap_err(), GameError::NoGainRegion);
    }

    #[test]
    fn construction_validates_inputs() {
        assert_eq!(
            BargainingProblem::new(vec![], CostPoint::new(0.0, 0.0)).unwrap_err(),
            GameError::EmptyFeasibleSet
        );
        assert_eq!(
            BargainingProblem::new(
                vec![CostPoint::new(f64::NAN, 0.0)],
                CostPoint::new(0.0, 0.0)
            )
            .unwrap_err(),
            GameError::EmptyFeasibleSet
        );
        assert_eq!(
            BargainingProblem::new(
                vec![CostPoint::new(0.0, 0.0)],
                CostPoint::new(f64::INFINITY, 0.0)
            )
            .unwrap_err(),
            GameError::NonFiniteDisagreement
        );
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        let game = BargainingProblem::new(
            vec![CostPoint::new(2.0, 3.0), CostPoint::new(3.0, 2.0)],
            CostPoint::new(5.0, 5.0),
        )
        .unwrap();
        // Equal products (3*2 = 2*3): first index wins.
        assert_eq!(game.nash().unwrap().index, 0);
    }
}
