//! Coexistence study cells: `K` networks on one shared SINR channel,
//! each bargaining for itself.
//!
//! Every network first solves the paper's bargaining program **in
//! isolation** (its own two-ring deployment, no interference) to get
//! its NBS parameter vector. The coexistence game then lets each
//! network deviate from that plan by a scalar *strategy scale* drawn
//! from [`STRATEGY_SCALES`] — stretching or shrinking its duty-cycle
//! parameters — and scores every joint strategy profile by simulating
//! all networks together on a shared capture-enabled SINR channel
//! ([`edmac_phy::SinrChannel`] with shadowing disabled, so
//! connectivity is deterministic and the cells are reproducible).
//!
//! On the resulting `|scales|^K` payoff table the harness runs
//! round-robin iterated best response from the all-NBS profile and
//! compares the reached equilibrium against the joint welfare
//! optimum — the **price of anarchy** of selfish duty-cycle planning,
//! the multi-network question the source paper's single-network
//! bargaining leaves open.
//!
//! Artifacts (`coexistence_cells.csv`, `coexistence_summary.json`)
//! follow the study crate's schema-versioned, byte-deterministic
//! conventions.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use edmac_core::{AppRequirements, CoexistenceScenario, Scenario, TradeoffAnalysis};
use edmac_phy::SinrChannel;
use edmac_sim::{SimConfig, SimProtocol, SimReport, WakeMode};
use edmac_units::{Joules, Seconds};

use crate::artifact::{f6, j6, params_field};

/// Schema tag of the coexistence artifacts.
pub const COEXISTENCE_SCHEMA: &str = "edmac-study/coexistence/v1";
/// Numeric version of [`COEXISTENCE_SCHEMA`].
pub const COEXISTENCE_SCHEMA_VERSION: u32 = 1;

/// The default strategy space: multiplicative scales applied to a
/// network's isolated NBS parameter vector. The neutral scale `1.0`
/// is the "honor the bargain" strategy every network starts from.
pub const STRATEGY_SCALES: [f64; 5] = [0.6, 0.8, 1.0, 1.4, 2.0];

/// Best-response rounds before the dynamics are declared cyclic.
const MAX_BR_ROUNDS: usize = 10;

/// Epoch the bottleneck energy is normalized to (matches the
/// validation cells).
const ENERGY_EPOCH: Seconds = Seconds::new(10.0);

/// Inputs of one coexistence study run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexistenceConfig {
    /// Number of networks `K`.
    pub networks: usize,
    /// Center-to-center spacing between consecutive networks, in
    /// radio-range units (see [`CoexistenceScenario`]).
    pub separation: f64,
    /// Registry names of the per-network protocol suites
    /// (`protocols.len() == networks`).
    pub protocols: Vec<String>,
    /// The strategy space: multiplicative scales on the NBS parameter
    /// vector, shared by all networks. Must contain the neutral scale
    /// `1.0` (the best-response starting point). The payoff table has
    /// `scales.len().pow(networks)` cells, so this is the main cost
    /// knob.
    pub scales: Vec<f64>,
    /// Each network's application requirements (shared by all).
    pub requirements: AppRequirements,
    /// Per-node sampling period inside every network.
    pub sample_period: Seconds,
    /// Simulated horizon of every joint cell.
    pub sim_horizon: Seconds,
    /// Scenario seed (topology realization and traffic phases).
    pub seed: u64,
    /// Has no effect. It once set the simulator's shard count, and
    /// every value always produced the same bytes; the sharded engine
    /// is gone. The field stays only for the benchmark harness, which
    /// still sets it, and goes once a benchmark change retires the
    /// `smoke-shards2` workload and the `grid-full` shard probe.
    pub shards: usize,
}

impl CoexistenceConfig {
    /// The reference smoke configuration: two overlapping two-ring
    /// networks (X-MAC vs LMAC) separated by 2.5 range units, on a
    /// 3-scale strategy space (9 joint cells).
    pub fn smoke() -> CoexistenceConfig {
        CoexistenceConfig {
            networks: 2,
            separation: 2.5,
            protocols: vec!["X-MAC".into(), "LMAC".into()],
            scales: vec![0.8, 1.0, 1.4],
            requirements: AppRequirements::new(Joules::new(0.5), Seconds::new(30.0))
                .expect("reference requirements are valid"),
            sample_period: Seconds::new(20.0),
            sim_horizon: Seconds::new(90.0),
            seed: 7,
            shards: 1,
        }
    }

    /// The full configuration: the smoke geometry on the default
    /// 5-scale strategy space (25 joint cells) over a longer horizon.
    pub fn full() -> CoexistenceConfig {
        CoexistenceConfig {
            scales: STRATEGY_SCALES.to_vec(),
            sim_horizon: Seconds::new(240.0),
            ..CoexistenceConfig::smoke()
        }
    }
}

/// A network's isolated bargaining plan (the analytic side).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPlan {
    /// Protocol suite display name.
    pub protocol: &'static str,
    /// NBS parameter vector from the isolated bargain.
    pub nbs_params: Vec<f64>,
    /// Model-predicted energy at the NBS (J per epoch).
    pub model_e: f64,
    /// Model-predicted latency at the NBS (s).
    pub model_l: f64,
}

/// One network's measured outcome inside one joint cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkMeasure {
    /// Simulated bottleneck energy per 10 s epoch (J).
    pub energy_j: f64,
    /// Worst per-depth median delivery delay (s); `NaN` when the
    /// network delivered nothing.
    pub latency_s: f64,
    /// Delivery ratio over the measurement window.
    pub delivery: f64,
    /// Requirement-headroom utility
    /// `max(0, Ebudget − E) · max(0, Lmax − L)`.
    pub utility: f64,
}

/// One joint strategy profile's simulated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JointCell {
    /// Per-network strategy indices into [`STRATEGY_SCALES`].
    pub profile: Vec<usize>,
    /// Per-network measured outcomes.
    pub networks: Vec<NetworkMeasure>,
    /// Sum of the per-network utilities.
    pub welfare: f64,
}

/// The full result of one coexistence study run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexistenceOutcome {
    /// Scenario display name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Network separation (range units).
    pub separation: f64,
    /// The strategy scales the profiles index into.
    pub scales: Vec<f64>,
    /// Per-network isolated bargaining plans.
    pub plans: Vec<NetworkPlan>,
    /// All `|scales|^K` joint cells in lexicographic profile order.
    pub cells: Vec<JointCell>,
    /// Strategy profile reached by iterated best response.
    pub equilibrium: Vec<usize>,
    /// Best-response rounds played (including the final quiet round
    /// that certifies convergence).
    pub br_rounds: usize,
    /// Whether best response converged within `MAX_BR_ROUNDS`.
    pub converged: bool,
    /// Profile after each individual best-response move, starting
    /// from the all-NBS profile.
    pub trajectory: Vec<Vec<usize>>,
    /// Welfare-maximizing profile (lexicographically first on ties).
    pub joint_optimum: Vec<usize>,
    /// Welfare at the equilibrium profile.
    pub welfare_equilibrium: f64,
    /// Welfare at the joint optimum.
    pub welfare_joint: f64,
    /// `welfare_joint / welfare_equilibrium`; `1.0` when both are
    /// degenerate (no positive welfare anywhere), `∞` when only the
    /// equilibrium is.
    pub price_of_anarchy: f64,
}

/// Requirement-headroom utility: the product of the energy and
/// latency slack, zero as soon as either requirement is violated (or
/// unmeasurable — a network that delivers nothing earns nothing).
fn utility(reqs: &AppRequirements, energy_j: f64, latency_s: f64) -> f64 {
    let e_head = reqs.energy_budget().value() - energy_j;
    let l_head = reqs.latency_bound().value() - latency_s;
    if !(e_head.is_finite() && l_head.is_finite()) {
        return 0.0;
    }
    if e_head <= 0.0 || l_head <= 0.0 {
        return 0.0;
    }
    e_head * l_head
}

/// Scores one network's report: bottleneck energy per 10 s epoch and
/// the deepest ring's median delay (the ring comparator from the
/// validation cells — every depth class is densely populated here).
fn measure(report: &SimReport, reqs: &AppRequirements) -> NetworkMeasure {
    let energy_j = report.bottleneck_energy(ENERGY_EPOCH).value();
    let deepest = report.per_node().iter().map(|s| s.depth).max().unwrap_or(0);
    let latency_s = report
        .depth_delay_stats(deepest)
        .map(|s| s.p50.value())
        .unwrap_or(f64::NAN);
    NetworkMeasure {
        energy_j,
        latency_s,
        delivery: report.delivery_ratio(),
        utility: utility(reqs, energy_j, latency_s),
    }
}

/// All strategy profiles in lexicographic order (network 0 is the
/// slowest-varying index).
fn enumerate_profiles(networks: usize, scales: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..networks {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (0..scales).map(move |s| {
                    let mut p = prefix.clone();
                    p.push(s);
                    p
                })
            })
            .collect();
    }
    out
}

/// Runs the full coexistence study: isolated per-network NBS plans,
/// the `|scales|^K` joint payoff table on the shared SINR channel,
/// iterated best response, and the welfare comparison against the
/// joint planner.
///
/// Deterministic in the config: the same input always produces
/// byte-identical artifacts.
///
/// # Errors
///
/// Returns a human-readable message for an inconsistent protocol
/// panel, an unknown protocol name, or a failure of the underlying
/// realization, bargaining, or simulation machinery.
pub fn run_coexistence_study(cfg: &CoexistenceConfig) -> Result<CoexistenceOutcome, String> {
    let k = cfg.networks;
    if k == 0 {
        return Err("a coexistence study needs at least one network".into());
    }
    if cfg.protocols.len() != k {
        return Err(format!(
            "{k} networks need {k} protocols, got {}",
            cfg.protocols.len()
        ));
    }
    if cfg.scales.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
        return Err(format!(
            "strategy scales must be finite and positive: {:?}",
            cfg.scales
        ));
    }
    let baseline = cfg
        .scales
        .iter()
        .position(|s| (*s - 1.0).abs() < 1e-12)
        .ok_or("strategy scales must include the neutral scale 1.0")?;
    let mut scenario = CoexistenceScenario::preset(k, cfg.separation);
    scenario.sample_period = cfg.sample_period;
    let topologies = scenario
        .realize(cfg.seed)
        .map_err(|e| format!("realize: {e}"))?;
    let ring = Scenario::ring(2, 3, cfg.sample_period);
    let registry = edmac_proto::ProtocolRegistry::builtin();

    // Phase 1: every network bargains for itself, in isolation.
    let mut plans = Vec::with_capacity(k);
    let mut suites = Vec::with_capacity(k);
    let mut configs = Vec::with_capacity(k);
    for (net, name) in cfg.protocols.iter().enumerate() {
        let suite = registry
            .suite(name)
            .map_err(|e| format!("protocol {name}: {e}"))?;
        let model = suite.model();
        let env = ring
            .deployment_from(&topologies[net])
            .map_err(|e| format!("network {net} deployment: {e}"))?;
        configs.push(model.configure(&env));
        let report = TradeoffAnalysis::new(model.as_ref(), &env, cfg.requirements)
            .bargain()
            .map_err(|e| format!("network {net} bargain: {e}"))?;
        plans.push(NetworkPlan {
            protocol: suite.name(),
            nbs_params: report.nbs.params.clone(),
            model_e: report.e_star(),
            model_l: report.l_star(),
        });
        suites.push(suite);
    }

    // Phase 2: the joint payoff table. Shadowing off keeps the decode
    // graph deterministic; capture stays on, so the cells exercise the
    // SINR arm of the engine.
    let channel = SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    };
    let sim_config = SimConfig {
        duration: cfg.sim_horizon,
        sample_period: cfg.sample_period,
        warmup: Seconds::new(cfg.sim_horizon.value() / 10.0),
        seed: cfg.seed,
        // Cross-network interference defeats schedule-proven silence,
        // so the coexistence cells always run densely scheduled.
        scheduling: WakeMode::Dense,
    };
    let table = enumerate_profiles(k, cfg.scales.len());
    let mut cells = Vec::with_capacity(table.len());
    for profile in &table {
        let sims: Vec<Box<dyn SimProtocol>> = (0..k)
            .map(|net| {
                let scale = cfg.scales[profile[net]];
                let params: Vec<f64> = plans[net].nbs_params.iter().map(|p| p * scale).collect();
                suites[net].simulator(&configs[net], &params)
            })
            .collect();
        let refs: Vec<&dyn SimProtocol> = sims.iter().map(|b| b.as_ref()).collect();
        let sim = scenario
            .simulation(&refs, &channel, sim_config)
            .map_err(|e| format!("profile {profile:?}: {e}"))?;
        let reports = sim.run_coexistence();
        let networks: Vec<NetworkMeasure> = reports
            .iter()
            .map(|r| measure(r, &cfg.requirements))
            .collect();
        let welfare = networks.iter().map(|m| m.utility).sum();
        cells.push(JointCell {
            profile: profile.clone(),
            networks,
            welfare,
        });
    }

    // Phase 3: round-robin iterated best response from the all-NBS
    // profile; a player moves only on a strict utility improvement,
    // so a full quiet round certifies a pure Nash equilibrium of the
    // discretized game.
    let scales = cfg.scales.len();
    let index_of = |profile: &[usize]| profile.iter().fold(0usize, |acc, &s| acc * scales + s);
    let mut current = vec![baseline; k];
    let mut trajectory = vec![current.clone()];
    let mut converged = false;
    let mut br_rounds = 0usize;
    while br_rounds < MAX_BR_ROUNDS {
        br_rounds += 1;
        let mut moved = false;
        for net in 0..k {
            let mut best = current[net];
            let mut best_u = cells[index_of(&current)].networks[net].utility;
            for cand in 0..scales {
                let mut probe = current.clone();
                probe[net] = cand;
                let u = cells[index_of(&probe)].networks[net].utility;
                if u > best_u {
                    best_u = u;
                    best = cand;
                }
            }
            if best != current[net] {
                current[net] = best;
                moved = true;
                trajectory.push(current.clone());
            }
        }
        if !moved {
            converged = true;
            break;
        }
    }

    // Phase 4: the joint planner and the price of anarchy.
    let mut joint_optimum = table[0].clone();
    let mut welfare_joint = cells[0].welfare;
    for cell in &cells[1..] {
        if cell.welfare > welfare_joint {
            welfare_joint = cell.welfare;
            joint_optimum = cell.profile.clone();
        }
    }
    let welfare_equilibrium = cells[index_of(&current)].welfare;
    let price_of_anarchy = if welfare_equilibrium > 0.0 {
        welfare_joint / welfare_equilibrium
    } else if welfare_joint <= 0.0 {
        1.0
    } else {
        f64::INFINITY
    };

    Ok(CoexistenceOutcome {
        scenario: scenario.name.clone(),
        seed: cfg.seed,
        separation: cfg.separation,
        scales: cfg.scales.clone(),
        plans,
        cells,
        equilibrium: current,
        br_rounds,
        converged,
        trajectory,
        joint_optimum,
        welfare_equilibrium,
        welfare_joint,
        price_of_anarchy,
    })
}

/// Colon-joined strategy-index field (CSV- and JSON-label-safe).
fn profile_field(profile: &[usize]) -> String {
    profile
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(":")
}

/// Renders the per-cell CSV: one row per `(joint cell, network)`.
pub fn coexistence_cells_csv(outcome: &CoexistenceOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# schema: {COEXISTENCE_SCHEMA}");
    let _ = writeln!(
        out,
        "cell,profile,network,protocol,scale,energy_j,latency_s,delivery,utility,cell_welfare"
    );
    for (i, cell) in outcome.cells.iter().enumerate() {
        for (net, m) in cell.networks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i},{},{net},{},{},{},{},{},{},{}",
                profile_field(&cell.profile),
                outcome.plans[net].protocol,
                f6(outcome.scales[cell.profile[net]]),
                f6(m.energy_j),
                f6(m.latency_s),
                f6(m.delivery),
                f6(m.utility),
                f6(cell.welfare),
            );
        }
    }
    out
}

/// Renders the summary JSON: the per-network plans, the equilibrium,
/// the joint optimum, the best-response trace, and the price of
/// anarchy. Hand-rolled with a fixed key order so the artifact is
/// byte-deterministic.
pub fn coexistence_summary_json(outcome: &CoexistenceOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{COEXISTENCE_SCHEMA}\",");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", outcome.scenario);
    let _ = writeln!(out, "  \"seed\": {},", outcome.seed);
    let _ = writeln!(out, "  \"networks\": {},", outcome.plans.len());
    let _ = writeln!(out, "  \"separation\": {},", j6(outcome.separation));
    let scales = outcome
        .scales
        .iter()
        .map(|s| j6(*s))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "  \"scales\": [{scales}],");
    let _ = writeln!(out, "  \"plans\": [");
    for (net, plan) in outcome.plans.iter().enumerate() {
        let comma = if net + 1 < outcome.plans.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"network\": {net}, \"protocol\": \"{}\", \"nbs_params\": \"{}\", \
             \"model_energy_j\": {}, \"model_latency_s\": {}}}{comma}",
            plan.protocol,
            params_field(&plan.nbs_params),
            j6(plan.model_e),
            j6(plan.model_l),
        );
    }
    let _ = writeln!(out, "  ],");
    let eq_utils = outcome
        .cells
        .iter()
        .find(|c| c.profile == outcome.equilibrium)
        .map(|c| {
            c.networks
                .iter()
                .map(|m| j6(m.utility))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "  \"equilibrium\": {{\"profile\": \"{}\", \"welfare\": {}, \"utilities\": [{eq_utils}]}},",
        profile_field(&outcome.equilibrium),
        j6(outcome.welfare_equilibrium),
    );
    let _ = writeln!(
        out,
        "  \"joint\": {{\"profile\": \"{}\", \"welfare\": {}}},",
        profile_field(&outcome.joint_optimum),
        j6(outcome.welfare_joint),
    );
    let trajectory = outcome
        .trajectory
        .iter()
        .map(|p| format!("\"{}\"", profile_field(p)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "  \"best_response\": {{\"rounds\": {}, \"converged\": {}, \"trajectory\": [{trajectory}]}},",
        outcome.br_rounds, outcome.converged,
    );
    let _ = writeln!(
        out,
        "  \"price_of_anarchy\": {}",
        j6(outcome.price_of_anarchy)
    );
    let _ = writeln!(out, "}}");
    out
}

/// Writes `coexistence_cells.csv` and `coexistence_summary.json`
/// under `dir` (created if missing).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_coexistence_artifacts(dir: &Path, outcome: &CoexistenceOutcome) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("coexistence_cells.csv"),
        coexistence_cells_csv(outcome),
    )?;
    std::fs::write(
        dir.join("coexistence_summary.json"),
        coexistence_summary_json(outcome),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_tag_and_version_agree() {
        assert!(COEXISTENCE_SCHEMA.ends_with(&format!("/v{COEXISTENCE_SCHEMA_VERSION}")));
    }

    #[test]
    fn profile_enumeration_is_lexicographic_and_complete() {
        let table = enumerate_profiles(2, STRATEGY_SCALES.len());
        assert_eq!(table.len(), STRATEGY_SCALES.len().pow(2));
        assert_eq!(table[0], vec![0, 0]);
        assert_eq!(table[table.len() - 1], vec![4, 4]);
        for pair in table.windows(2) {
            assert!(pair[0] < pair[1], "profiles out of order: {pair:?}");
        }
        // The index function inverts the enumeration.
        let scales = STRATEGY_SCALES.len();
        for (i, p) in table.iter().enumerate() {
            assert_eq!(p.iter().fold(0usize, |a, &s| a * scales + s), i);
        }
    }

    #[test]
    fn utility_rewards_headroom_and_zeroes_violations() {
        let reqs = AppRequirements::new(Joules::new(0.5), Seconds::new(30.0)).unwrap();
        assert!(utility(&reqs, 0.1, 10.0) > 0.0);
        assert_eq!(utility(&reqs, 0.6, 10.0), 0.0, "energy budget violated");
        assert_eq!(utility(&reqs, 0.1, 31.0), 0.0, "latency bound violated");
        assert_eq!(utility(&reqs, 0.1, f64::NAN), 0.0, "nothing delivered");
        // More slack on both axes is strictly better.
        assert!(utility(&reqs, 0.1, 10.0) > utility(&reqs, 0.2, 10.0));
        assert!(utility(&reqs, 0.1, 10.0) > utility(&reqs, 0.1, 20.0));
    }

    #[test]
    fn smoke_study_converges_and_prices_anarchy() {
        let cfg = CoexistenceConfig::smoke();
        let outcome = run_coexistence_study(&cfg).expect("smoke study runs");
        assert_eq!(outcome.cells.len(), cfg.scales.len().pow(2));
        assert_eq!(outcome.scales, cfg.scales);
        assert_eq!(
            outcome.plans.iter().map(|p| p.protocol).collect::<Vec<_>>(),
            ["X-MAC", "LMAC"]
        );
        for cell in &outcome.cells {
            assert_eq!(cell.networks.len(), 2);
            for m in &cell.networks {
                assert!(m.energy_j.is_finite() && m.energy_j > 0.0);
                assert!(m.utility >= 0.0);
            }
        }
        // The shared channel cannot starve everyone in every cell.
        assert!(
            outcome
                .cells
                .iter()
                .any(|c| c.networks.iter().all(|m| m.delivery > 0.5)),
            "no cell delivered for both networks"
        );
        assert!(outcome.converged, "best response cycled");
        assert!(outcome.br_rounds <= MAX_BR_ROUNDS);
        let baseline = cfg.scales.iter().position(|s| *s == 1.0).unwrap();
        assert_eq!(outcome.trajectory[0], vec![baseline; 2]);
        // The joint planner can always at least match the equilibrium,
        // so the price of anarchy is well-defined and ≥ 1.
        assert!(outcome.welfare_joint >= outcome.welfare_equilibrium - 1e-12);
        assert!(
            outcome.price_of_anarchy >= 1.0 - 1e-12,
            "PoA {} below 1",
            outcome.price_of_anarchy
        );

        let csv = coexistence_cells_csv(&outcome);
        assert!(csv.starts_with(&format!("# schema: {COEXISTENCE_SCHEMA}\n")));
        // One row per (cell, network) plus the schema and header lines.
        assert_eq!(csv.lines().count(), 2 + outcome.cells.len() * 2);
        let json = coexistence_summary_json(&outcome);
        assert!(json.contains(COEXISTENCE_SCHEMA));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced summary JSON"
        );
    }
}
