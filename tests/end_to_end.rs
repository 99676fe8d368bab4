//! End-to-end workflow tests through the facade: the complete pipeline
//! a downstream user runs, plus the solution-concept ablation and the
//! proportional-fairness identity.

use edmac::game::{axioms, proportional_ratios};
use edmac::prelude::*;

#[test]
fn full_pipeline_for_every_protocol() {
    let env = Deployment::reference();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(4.0)).unwrap();
    for model in all_models() {
        let analysis = TradeoffAnalysis::new(model.as_ref(), &env, reqs);
        let report = analysis
            .bargain()
            .unwrap_or_else(|e| panic!("{} failed the reference contract: {e}", model.name()));
        // The agreement is feasible, bracketed and fair-ish.
        assert!(report.e_star() <= 0.06 + 1e-9);
        assert!(report.l_star() <= 4.0 + 1e-9);
        assert!(report.e_best() <= report.e_star() + 1e-9);
        assert!(report.l_best() <= report.l_star() + 1e-9);
        assert!(report.fairness_energy >= -1e-6 && report.fairness_energy <= 1.0 + 1e-6);
        // CSV round-trip sanity.
        assert_eq!(
            report.to_csv_row().split(',').count(),
            TradeoffReport::csv_header().split(',').count()
        );
    }
}

#[test]
fn nash_point_is_proportionally_fair_on_its_own_frontier() {
    // The paper's closing identity, checked through the public API: at
    // the NBS the two concession ratios coincide (up to solver and
    // frontier-curvature tolerance).
    let env = Deployment::reference();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(6.0)).unwrap();
    for model in all_models() {
        let report = TradeoffAnalysis::new(model.as_ref(), &env, reqs)
            .bargain()
            .unwrap();
        let (re, rl) = proportional_ratios(
            CostPoint::new(report.e_star(), report.l_star()),
            CostPoint::new(report.e_best(), report.l_best()),
            CostPoint::new(report.e_worst(), report.l_worst()),
        );
        assert_eq!(re, report.fairness_energy);
        assert_eq!(rl, report.fairness_latency);
        assert!(
            report.fairness_gap() < 0.25,
            "{}: ratios {re:.3} vs {rl:.3} too far apart",
            model.name()
        );
    }
}

#[test]
fn nash_beats_the_alternatives_on_its_own_criterion() {
    // Ablation: on the same sampled feasible set, the Nash agreement's
    // gain product must dominate the Kalai–Smorodinsky and egalitarian
    // picks (each of which optimizes something else).
    let env = Deployment::reference();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(6.0)).unwrap();
    for model in all_models() {
        let report = TradeoffAnalysis::new(model.as_ref(), &env, reqs)
            .bargain()
            .unwrap();
        let v = CostPoint::new(report.e_worst(), report.l_worst());
        let feasible: Vec<CostPoint> = edmac::core::sample_frontier(model.as_ref(), &env, 300)
            .into_iter()
            .map(|p| CostPoint::new(p.energy.value(), p.latency.value()))
            .filter(|c| c.x <= 0.06 && c.y <= 6.0)
            .collect();
        let game = BargainingProblem::new(feasible, v).unwrap();
        let nash = game.nash().unwrap();
        let ks = game.kalai_smorodinsky().unwrap();
        let eg = game.egalitarian().unwrap();
        let continuous_product = CostPoint::new(report.e_star(), report.l_star()).nash_product(v);
        for (name, other) in [("KS", ks), ("egalitarian", eg)] {
            assert!(
                continuous_product >= other.point.nash_product(v) - 1e-9,
                "{}: {} product {:.3e} beats the continuous Nash {:.3e}",
                model.name(),
                name,
                other.point.nash_product(v),
                continuous_product
            );
        }
        // The discrete and continuous Nash solutions agree closely.
        assert!(
            (nash.nash_product - continuous_product).abs()
                <= 0.05 * continuous_product.abs().max(1e-12),
            "{}: discrete {:.4e} vs continuous {:.4e}",
            model.name(),
            nash.nash_product,
            continuous_product
        );
        // And the discrete game satisfies the axioms on this frontier.
        assert!(axioms::is_pareto_optimal(&nash, &game));
        assert!(axioms::check_symmetry(&game).unwrap());
    }
}

/// Forwards every call to `inner` and counts `performance` calls: the
/// work one NBS solve does, measured without a timer.
struct CountingModel<'a> {
    inner: &'a dyn MacModel,
    calls: std::cell::Cell<usize>,
}

impl MacModel for CountingModel<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn parameter_names(&self) -> &'static [&'static str] {
        self.inner.parameter_names()
    }
    fn bounds(&self, env: &Deployment) -> edmac::optim::Bounds {
        self.inner.bounds(env)
    }
    fn configure(&self, env: &Deployment) -> edmac::mac::ProtocolConfig {
        self.inner.configure(env)
    }
    fn performance(
        &self,
        x: &[f64],
        env: &Deployment,
    ) -> Result<MacPerformance, edmac::mac::MacError> {
        self.calls.set(self.calls.get() + 1);
        self.inner.performance(x, env)
    }
    fn utilization_cap(&self) -> f64 {
        self.inner.utilization_cap()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

#[test]
fn scalability_claim_solve_output_is_node_count_independent() {
    // The paper: "scalable with the increase in the number of nodes, as
    // the players represent the optimization metrics instead of nodes."
    // A nodes-as-players game would grow with the node count C·D². Here
    // the game stays two-player, so the work of one solve, counted as
    // model evaluations, must not follow the node count. Each model
    // evaluation loops over the D rings, which is the only size
    // dependence left, and it is not counted here. Counts are
    // deterministic, so the bounds carry no timer noise.
    let reqs = AppRequirements::new(Joules::new(0.2), Seconds::new(8.0)).unwrap();
    // (axis, ring shapes (D, C), max/min evaluation-count bound).
    // Density: C = 2..16 at D = 10 is 200 -> 1 600 nodes. Depth:
    // D = 5..40 at C = 4 is 100 -> 6 400 nodes.
    let axes = [
        ("density", [(10, 2), (10, 4), (10, 8), (10, 16)], 1.02),
        ("depth", [(5, 4), (10, 4), (20, 4), (40, 4)], 1.10),
    ];
    for model in all_models() {
        for (axis, shapes, bound) in axes {
            let mut counts = Vec::new();
            for (depth, density) in shapes {
                let env =
                    Deployment::reference().with_network(RingModel::new(depth, density).unwrap());
                let counted = CountingModel {
                    inner: model.as_ref(),
                    calls: std::cell::Cell::new(0),
                };
                let report = TradeoffAnalysis::new(&counted, &env, reqs)
                    .bargain()
                    .unwrap_or_else(|e| panic!("{} D={depth} C={density}: {e}", model.name()));
                assert!(report.nbs.params[0] > 0.0);
                assert!(report.l_star() > 0.0);
                counts.push(counted.calls.get());
            }
            let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(lo > 0);
            assert!(
                hi as f64 <= bound * lo as f64,
                "{} {axis}: evaluations per solve {counts:?} spread past {bound}",
                model.name()
            );
        }
    }
}

#[test]
fn requirements_validation_propagates_through_facade() {
    assert!(AppRequirements::new(Joules::new(-1.0), Seconds::new(1.0)).is_err());
    assert!(AppRequirements::new(Joules::new(0.05), Seconds::new(0.0)).is_err());
    let reqs = AppRequirements::new(Joules::new(1e-9), Seconds::new(6.0)).unwrap();
    let xmac = Xmac::default();
    let r = TradeoffAnalysis::new(&xmac, &Deployment::reference(), reqs).bargain();
    assert!(matches!(r, Err(CoreError::Infeasible { .. })));
}

#[test]
fn two_parameter_bargaining_works_end_to_end() {
    // ScpDual exposes (poll_interval, sync_period): the full pipeline
    // must drive the two-dimensional grid + simplex machinery and land
    // on a feasible, bracketed agreement with an interior sync period.
    let env = Deployment::reference();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(6.0)).unwrap();
    let model = ScpDual::default();
    let report = TradeoffAnalysis::new(&model, &env, reqs).bargain().unwrap();
    assert_eq!(report.nbs.params.len(), 2);
    assert!(report.e_star() <= 0.06 + 1e-9);
    assert!(report.l_star() <= 6.0 + 1e-9);
    let sync = report.nbs.params[1];
    assert!(
        (5.0..900.0).contains(&sync),
        "sync period {sync} should stay within bounds"
    );
    // Freeing the second knob can only help the energy player compared
    // to the fixed-sync single-parameter model.
    let single = Scp::default();
    let fixed = TradeoffAnalysis::new(&single, &env, reqs)
        .bargain()
        .unwrap();
    assert!(
        report.e_best() <= fixed.e_best() * 1.02,
        "2-D Ebest {} worse than fixed-sync {}",
        report.e_best(),
        fixed.e_best()
    );
}

#[test]
fn scp_extension_plays_the_same_game() {
    // The fourth protocol (related-work extension) runs through the
    // identical machinery and lands between X-MAC (its async cousin)
    // and the schedule-driven protocols on energy.
    let env = Deployment::reference();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(4.0)).unwrap();
    let scp = Scp::default();
    let scp_report = TradeoffAnalysis::new(&scp, &env, reqs).bargain().unwrap();
    let xmac = Xmac::default();
    let xmac_report = TradeoffAnalysis::new(&xmac, &env, reqs).bargain().unwrap();
    assert!(
        scp_report.e_best() < xmac_report.e_best(),
        "scheduled polling must beat async LPL on pure energy ({} vs {})",
        scp_report.e_best(),
        xmac_report.e_best()
    );
}

#[test]
fn weighted_bargaining_spans_the_frontier() {
    // The asymmetric extension: sweeping the energy player's bargaining
    // power from 0.2 to 0.8 must move the agreement monotonically toward
    // lower energy, bracketing the paper's symmetric solution.
    let env = Deployment::reference();
    let model = Xmac::default();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(6.0)).unwrap();
    let report = TradeoffAnalysis::new(&model, &env, reqs).bargain().unwrap();
    let v = CostPoint::new(report.e_worst(), report.l_worst());
    let feasible: Vec<CostPoint> = edmac::core::sample_frontier(&model, &env, 400)
        .into_iter()
        .map(|p| CostPoint::new(p.energy.value(), p.latency.value()))
        .filter(|c| c.x <= 0.06 && c.y <= 6.0)
        .collect();
    let game = BargainingProblem::new(feasible, v).unwrap();

    let mut last_energy = f64::INFINITY;
    for alpha in [0.2, 0.35, 0.5, 0.65, 0.8] {
        let b = game
            .nash_weighted(BargainingPower::new(alpha).unwrap())
            .unwrap();
        assert!(
            b.point.x <= last_energy + 1e-12,
            "alpha {alpha}: energy {} should not exceed {last_energy}",
            b.point.x
        );
        last_energy = b.point.x;
    }
    // The symmetric case agrees with the continuous solver's pick.
    let symmetric = game.nash_weighted(BargainingPower::symmetric()).unwrap();
    assert!(
        (symmetric.point.x - report.e_star()).abs() <= 0.05 * report.e_star(),
        "discrete symmetric {} vs continuous {}",
        symmetric.point.x,
        report.e_star()
    );
}

#[test]
fn ranking_api_reproduces_the_comparison_workflow() {
    let env = Deployment::reference();
    let reqs = AppRequirements::new(Joules::new(0.06), Seconds::new(4.0)).unwrap();
    let models = all_models();
    let by_energy = rank_protocols(&models, &env, reqs, RankingPolicy::MinEnergy);
    let by_latency = rank_protocols(&models, &env, reqs, RankingPolicy::MinLatency);
    assert_eq!(by_energy.len(), 3);
    // Both rankings are permutations of the same protocols and their
    // winners satisfy the contract.
    for ranking in [&by_energy, &by_latency] {
        let best = ranking[0].report.as_ref().unwrap();
        assert!(best.e_star() <= 0.06 + 1e-9);
        assert!(best.l_star() <= 4.0 + 1e-9);
    }
    // At the reference contract DMAC wins energy (deep cycles), X-MAC
    // or DMAC wins latency; LMAC never wins either.
    assert_ne!(by_energy[0].protocol, "LMAC");
    assert_ne!(by_latency[0].protocol, "LMAC");
}
