//! Shared plumbing for the figure-regeneration and study binaries.
//!
//! The binaries print the exact series the paper's figures plot:
//!
//! * `fig1` — `Ebudget = 0.06 J` fixed, `Lmax ∈ {1..6} s` swept
//!   (paper Fig. 1a/b/c), plus the sampled E–L frontier each subplot
//!   draws;
//! * `fig2` — `Lmax = 6 s` fixed, `Ebudget ∈ {0.01..0.06} J` swept
//!   (paper Fig. 2a/b/c);
//! * `fairness` — the proportional-fairness identity at every trade-off
//!   point, plus the Kalai–Smorodinsky / egalitarian ablation;
//! * `sim_validation` — analytical model vs packet-level simulation at
//!   matched operating points.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

use edmac_core::{disk_radius, sample_pareto_frontier, OperatingPoint, PresetKind, Scenario};
use edmac_mac::{Deployment, MacModel};
use edmac_proto::{ProtocolRegistry, ProtocolSuite};
use edmac_sim::{SimConfig, SimProtocol, SimReport, Simulation, WakeMode};
use edmac_units::Seconds;
use std::sync::Arc;

/// Parses an optional `--preset <name>` filter from CLI arguments —
/// the one scenario-preset parser shared by the `scenarios` and
/// `study` binaries.
///
/// # Errors
///
/// Returns a usage message naming the valid presets when the flag has
/// no value or an unknown name.
pub fn preset_filter(args: &[String]) -> Result<Option<PresetKind>, String> {
    let Some(i) = args.iter().position(|a| a == "--preset") else {
        return Ok(None);
    };
    let names: Vec<&str> = PresetKind::ALL.iter().map(|k| k.label()).collect();
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("--preset needs a value (one of: {})", names.join(", ")))?;
    PresetKind::parse(value)
        .map(Some)
        .ok_or_else(|| format!("unknown preset '{value}' (one of: {})", names.join(", ")))
}

/// Parses an optional `--protocols <a,b,c>` panel selection against
/// `registry` — the one protocol parser shared by the `scenarios` and
/// `study` binaries. Absent flag: the suites named by `default` (every
/// default name must be registered). Present: the named suites, in
/// request order, resolved with the registry's normalized lookup
/// (`xmac` = `X-MAC`).
///
/// # Errors
///
/// Returns a usage message listing every registered name when the
/// flag has no value or a name does not resolve.
pub fn protocols_filter(
    args: &[String],
    registry: &ProtocolRegistry,
    default: &[&str],
) -> Result<Vec<Arc<dyn ProtocolSuite>>, String> {
    let names: Vec<String> = match args.iter().position(|a| a == "--protocols") {
        None => default.iter().map(|s| s.to_string()).collect(),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| {
                format!(
                    "--protocols needs a comma-separated list (registered: {})",
                    registry.names().join(", ")
                )
            })?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    };
    if names.is_empty() {
        return Err(format!(
            "--protocols selected nothing (registered: {})",
            registry.names().join(", ")
        ));
    }
    let panel = registry.select(&names).map_err(|e| e.to_string())?;
    // A repeated name would silently double every artifact row under
    // one label (and inflate the study's cell counts).
    for (i, suite) in panel.iter().enumerate() {
        if panel[..i].iter().any(|s| s.name() == suite.name()) {
            return Err(format!(
                "--protocols names '{}' more than once",
                suite.name()
            ));
        }
    }
    Ok(panel)
}

/// The preset family's standard scenario at a node budget and sampling
/// period: the validation ring for [`PresetKind::Ring`], a constant-
/// density disk field for the others (3× quarter-field hotspot, 4× /
/// 10 % event bursts — the PR 2 presets).
pub fn preset_scenario(kind: PresetKind, nodes: usize, period: Seconds) -> Scenario {
    match kind {
        PresetKind::Ring => Scenario::ring(4, 4, period),
        PresetKind::UniformDisk => Scenario::uniform_disk(nodes, disk_radius(nodes), period),
        PresetKind::HotspotDisk => Scenario::hotspot_disk(nodes, disk_radius(nodes), period),
        PresetKind::BurstDisk => Scenario::event_burst_disk(nodes, disk_radius(nodes), period),
    }
}

pub use edmac_proto::paper_trio_models;

/// The deployment every figure uses (the calibrated reference).
pub fn reference_env() -> Deployment {
    Deployment::reference()
}

/// A smaller deployment the packet-level validation runs on: four rings
/// of density four (65 nodes), sampling every 80 s — unsaturated for
/// all three protocols, yet large enough to exercise forwarding,
/// contention and overhearing.
pub fn validation_env() -> Deployment {
    Deployment::validation()
}

/// Simulation run matching [`validation_env`].
pub fn validation_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        duration: Seconds::new(2_400.0),
        sample_period: Seconds::new(80.0),
        warmup: Seconds::new(200.0),
        seed,
        scheduling: WakeMode::Coarse,
    }
}

/// Picks `count` parameter points spanning the *validation-feasible*
/// sub-range of a model's bounds: points where the analytic bottleneck
/// utilization stays below 35% of the model's cap, i.e. deep inside the
/// unsaturated regime both the paper's model and a queue-free
/// simulation comparison assume.
pub fn validation_points(model: &dyn MacModel, env: &Deployment, count: usize) -> Vec<f64> {
    let bounds = model.bounds(env);
    let cap = 0.35 * model.utilization_cap();
    let steps = 300;
    let mut feasible_hi = bounds.lower(0);
    for k in 0..=steps {
        let x = bounds.lower(0) + bounds.width(0) * k as f64 / steps as f64;
        match model.performance(&[x], env) {
            Ok(p) if p.utilization <= cap => feasible_hi = x,
            _ => break,
        }
    }
    let lo = bounds.lower(0);
    (0..count)
        .map(|i| lo + (feasible_hi - lo) * (0.15 + 0.7 * i as f64 / (count.max(2) - 1) as f64))
        .collect()
}

/// Builds the simulator protocol matching an analytical model at
/// parameter vector `x` under `env`, by resolving the model's suite in
/// [`ProtocolRegistry::builtin`] and feeding it the model's derived
/// [`edmac_mac::ProtocolConfig`] (so e.g. LMAC's simulated frame always
/// equals the analytic one — ring deployments keep the calibrated
/// default, realized topologies get the chromatic-need-derived size).
///
/// # Panics
///
/// Panics when no registered suite carries the model's name.
pub fn sim_protocol_at(model: &dyn MacModel, x: &[f64], env: &Deployment) -> Box<dyn SimProtocol> {
    let registry = ProtocolRegistry::builtin();
    let suite = registry
        .get(model.name())
        .unwrap_or_else(|| panic!("no registered suite named {}", model.name()));
    suite.simulator(&model.configure(env), x)
}

/// Runs the packet-level simulation for `model` at `x` on the
/// validation deployment.
pub fn simulate_at(model: &dyn MacModel, x: &[f64], seed: u64) -> SimReport {
    let env = validation_env();
    let cfg = validation_sim_config(seed);
    let ring = env
        .traffic
        .ring_model()
        .expect("the validation deployment is ring-based");
    Simulation::ring(
        ring.depth(),
        ring.density(),
        sim_protocol_at(model, x, &env).as_ref(),
        cfg,
    )
    .expect("validation topology is constructible")
    .run()
}

/// Prints an operating-point series as CSV rows prefixed by `label`.
pub fn print_series(label: &str, points: &[OperatingPoint]) {
    for p in points {
        println!(
            "{label},{:.6},{:.1},{:?}",
            p.energy.value(),
            p.latency.value() * 1_000.0,
            p.params
        );
    }
}

/// Samples and prints a protocol's Pareto frontier (the curve the
/// paper's subplots draw).
pub fn print_frontier(model: &dyn MacModel, env: &Deployment, samples: usize) {
    let frontier = sample_pareto_frontier(model, env, samples);
    print_series(&format!("frontier,{}", model.name()), &frontier);
}

#[cfg(test)]
mod tests {
    use super::*;
    use edmac_mac::Xmac;

    #[test]
    fn validation_points_are_unsaturated_for_all_models() {
        let env = validation_env();
        for model in edmac_mac::all_models() {
            let points = validation_points(model.as_ref(), &env, 3);
            assert_eq!(points.len(), 3);
            for x in points {
                let perf = model.performance(&[x], &env).unwrap();
                assert!(
                    perf.utilization <= 0.35 * model.utilization_cap() + 1e-9,
                    "{} at {x}: u = {} beyond the validation margin",
                    model.name(),
                    perf.utilization
                );
            }
        }
    }

    #[test]
    fn sim_protocol_mapping_covers_the_paper_trio() {
        let env = validation_env();
        for model in edmac_mac::all_models() {
            let b = model.bounds(&env);
            let cfg = sim_protocol_at(model.as_ref(), &[b.lower(0)], &env);
            assert_eq!(cfg.name(), model.name());
        }
    }

    #[test]
    fn scp_extension_maps_to_its_simulator_node() {
        let scp = edmac_mac::Scp::default();
        let cfg = sim_protocol_at(&scp, &[0.1], &validation_env());
        assert_eq!(cfg.name(), "SCP-MAC");
    }

    #[test]
    fn protocols_filter_defaults_selects_and_rejects() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let registry = ProtocolRegistry::builtin();
        // Absent flag: the caller's default panel.
        let panel = protocols_filter(&args(&["study"]), &registry, &edmac_proto::PAPER_TRIO)
            .expect("default panel resolves");
        let names: Vec<&str> = panel.iter().map(|s| s.name()).collect();
        assert_eq!(names, edmac_proto::PAPER_TRIO);
        // Present: normalized names in request order, CSMA reachable.
        let panel = protocols_filter(
            &args(&["study", "--protocols", "csma, xmac"]),
            &registry,
            &edmac_proto::PAPER_TRIO,
        )
        .unwrap();
        let names: Vec<&str> = panel.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["CSMA", "X-MAC"]);
        // Typos list the registered names.
        let err = protocols_filter(
            &args(&["study", "--protocols", "bmac"]),
            &registry,
            &edmac_proto::PAPER_TRIO,
        )
        .unwrap_err();
        assert!(err.contains("bmac") && err.contains("X-MAC") && err.contains("CSMA"));
        // A bare flag is a refusal, not a silent default.
        assert!(protocols_filter(&args(&["study", "--protocols"]), &registry, &["X-MAC"]).is_err());
        // Repeated names (even under different spellings) are
        // rejected: they would double every artifact row.
        let err = protocols_filter(
            &args(&["study", "--protocols", "xmac,X-MAC"]),
            &registry,
            &edmac_proto::PAPER_TRIO,
        )
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn preset_filter_parses_and_rejects() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(preset_filter(&args(&["scenarios"])), Ok(None));
        assert_eq!(
            preset_filter(&args(&["scenarios", "--preset", "hotspot"])),
            Ok(Some(edmac_core::PresetKind::HotspotDisk))
        );
        assert!(preset_filter(&args(&["scenarios", "--preset"])).is_err());
        assert!(preset_filter(&args(&["scenarios", "--preset", "mesh"]))
            .unwrap_err()
            .contains("ring"));
    }

    #[test]
    fn preset_scenarios_cover_every_family() {
        let period = Seconds::new(60.0);
        for kind in edmac_core::PresetKind::ALL {
            let s = preset_scenario(kind, 40, period);
            assert!(
                s.deployment(7).is_ok(),
                "{kind}: preset scenario must realize"
            );
        }
    }

    #[test]
    fn frontier_printing_smoke() {
        // Just ensure the sampling path works on the reference env.
        let env = reference_env();
        let frontier = sample_pareto_frontier(&Xmac::default(), &env, 32);
        assert!(!frontier.is_empty());
    }
}
