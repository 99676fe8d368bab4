//! Every number in the README's "Headline findings" paragraph must be
//! the one the checked-in full-grid summary records.
//!
//! CI diffs a live full-grid run against
//! `ci/golden/full/study_summary.json` byte for byte, so pinning the
//! prose to that file pins it to the code. The slow-tier
//! `readme_bands.rs` recomputes the validation bands from a live run.

use edmac_study::json::Json;

/// The README with whitespace collapsed (its prose is wrapped).
fn prose() -> String {
    include_str!("../../../README.md")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn summary() -> Json {
    Json::parse(include_str!("../../../ci/golden/full/study_summary.json"))
        .expect("the full-grid summary golden parses")
}

fn assert_reported(expected: &str) {
    assert!(
        prose().contains(expected),
        "README.md's headline findings do not say \"{expected}\""
    );
}

#[test]
fn readme_reports_the_aggregate_gap() {
    let gap = summary();
    let gap = gap.get("aggregate_gap").unwrap();
    let efficiency = gap.f64_("mean_np_efficiency").unwrap();
    assert_reported(&format!(
        "gives up ~{:.0}% of the Nash product",
        (1.0 - efficiency) * 100.0
    ));
    assert_reported(&format!(
        "(NP efficiency {efficiency:.2}, fairness ratio {:.2})",
        gap.f64_("mean_fairness_ratio").unwrap()
    ));
    assert_reported(&format!(
        "on {} of {} comparable cells it picks an outcome *outside the gain region*",
        gap.usize_("outside_gain_region").unwrap(),
        gap.usize_("cells").unwrap()
    ));
}

#[test]
fn readme_reports_the_weight_sweep() {
    let sweep = summary();
    let sweep = sweep.get("weight_sweep").unwrap();
    let cells = sweep.usize_("cells").unwrap();
    assert_reported(&format!(
        "some static weight reproduces the Nash agreement on {} of {cells} cells",
        sweep.usize_("cells_matched_by_some_weight").unwrap()
    ));
    assert!(!sweep.bool_("any_static_weight_reproduces_all").unwrap());
    assert_reported(&format!(
        "but no *single* weight does (the best, `w = {:.2}`, covers only {})",
        sweep.f64_("best_static_w").unwrap(),
        sweep.usize_("cells_matched_by_best_static").unwrap()
    ));
}

#[test]
fn readme_reports_the_hotspot_drift() {
    let summary = summary();
    let hotspot = summary
        .arr("drift")
        .unwrap()
        .iter()
        .find(|b| b.str_("preset") == Ok("hotspot"))
        .expect("the summary has a hotspot drift row");
    assert_reported(&format!(
        "hotspot cells drift up to {:.2} in normalized concession space",
        hotspot.f64_("max_drift").unwrap()
    ));
}

#[test]
fn readme_reports_the_validation_bands() {
    let v = summary();
    let v = v.get("validation").unwrap();
    let pct = |key: &str| v.f64_(key).unwrap() * 100.0;
    assert_reported(&format!(
        "mean energy error ≈ {:.1}% (max {:.1}%), mean latency error ≈ {:.1}% (max {:.1}%); \
         delivery ≥ {:.3} on all {} validated cells",
        pct("mean_err_e"),
        pct("max_err_e"),
        pct("mean_err_l"),
        pct("max_err_l"),
        v.f64_("min_delivery").unwrap(),
        v.usize_("cells").unwrap(),
    ));
}
