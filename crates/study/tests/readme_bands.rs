//! The README's headline validation bands must be the ones the full
//! grid actually produces at its default seed.
//!
//! Slow tier (`cargo test --release -- --ignored`): the full grid runs
//! 27 packet-level validation simulations.

use edmac_study::{run_cells, summarize, StudyConfig};

#[test]
#[ignore = "slow tier: full study grid with validation simulations"]
fn readme_reports_the_full_grid_validation_bands() {
    let readme = include_str!("../../../README.md");
    let v = summarize(&run_cells(&StudyConfig::full())).validation;
    let expected = format!(
        "mean energy error ≈ {:.1}% (max {:.1}%), mean latency error ≈ {:.1}% (max {:.1}%); \
         delivery ≥ {:.3} on all {} validated cells",
        v.mean_err_e * 100.0,
        v.max_err_e * 100.0,
        v.mean_err_l * 100.0,
        v.max_err_l * 100.0,
        v.min_delivery,
        v.cells,
    );
    // The README wraps its prose; compare with whitespace collapsed.
    let prose = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(
        prose.contains(&expected),
        "README.md does not report the full grid's bands: expected \"{expected}\""
    );
}
