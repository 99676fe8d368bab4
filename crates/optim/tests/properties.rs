//! Property-based tests for the optimization substrate.

use edmac_optim::{grid_minimize, Bounds, NelderMead, Penalty};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nelder_mead_solves_random_convex_quadratics(
        cx in -3.0..3.0f64,
        cy in -3.0..3.0f64,
        ax in 0.5..5.0f64,
        ay in 0.5..5.0f64,
    ) {
        let bounds = Bounds::new(vec![(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let f = |p: &[f64]| ax * (p[0] - cx).powi(2) + ay * (p[1] - cy).powi(2);
        let m = NelderMead::default().minimize(f, &[4.9, -4.9], &bounds).unwrap();
        prop_assert!((m.x[0] - cx).abs() < 1e-3, "{:?} vs ({cx},{cy})", m.x);
        prop_assert!((m.x[1] - cy).abs() < 1e-3);
    }

    #[test]
    fn grid_result_is_within_one_cell_of_optimum(center in -1.0..1.0f64) {
        let bounds = Bounds::new(vec![(-2.0, 2.0)]).unwrap();
        let m = grid_minimize(|p| (p[0] - center).powi(2), &bounds, 81).unwrap();
        let cell = 4.0 / 80.0;
        prop_assert!((m.x[0] - center).abs() <= cell);
    }

    #[test]
    fn penalty_solution_is_feasible_when_reported(
        limit in -1.0..1.0f64,
        target in 1.5..4.0f64,
    ) {
        // min (x - target)^2 s.t. x <= limit, with target > limit:
        // solution must land on the boundary.
        let bounds = Bounds::new(vec![(-5.0, 5.0)]).unwrap();
        let g = move |p: &[f64]| p[0] - limit;
        let m = Penalty::default()
            .minimize(|p| (p[0] - target).powi(2), &[&g], &[-2.0], &bounds)
            .unwrap();
        prop_assert!(g(&m.x) <= 1e-5, "violation {}", g(&m.x));
        prop_assert!((m.x[0] - limit).abs() < 5e-3, "x={} limit={limit}", m.x[0]);
    }
}
