//! Scenarios: topology source × traffic pattern, realizable on both
//! sides of the evidence chain.
//!
//! The paper's evaluation lives on ring deployments; the interesting
//! game-theoretic behavior (Khodaian et al.; Yang & Smith, see
//! PAPERS.md) appears exactly off that regular-ring assumption. A
//! [`Scenario`] names a workload once and realizes it twice:
//!
//! * [`Scenario::deployment`] — the analytic side: a
//!   [`Deployment`] whose per-depth flow table comes from the ring
//!   closed forms (ring scenarios, bit-identical to the legacy
//!   hard-wired `Deployment`) or empirically from a realized topology
//!   (everything else), ready for [`TradeoffAnalysis`] and the
//!   `fig1`/`fig2` sweeps;
//! * [`Scenario::simulation`] — the packet-level side: a built
//!   [`Simulation`] over the same topology with the matching per-node
//!   [`TrafficProfile`].
//!
//! [`TradeoffAnalysis`]: crate::TradeoffAnalysis

use crate::error::CoreError;
use edmac_mac::{BurstRegime, Deployment, Workload};
use edmac_net::{NetError, RingModel, Topology};
use edmac_phy::{ChannelModel, UnitDisk};
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{BurstWindows, CoexNetwork, SimConfig, SimProtocol, Simulation, TrafficProfile};
use edmac_units::{Hertz, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Where the nodes are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// The paper's concentric-ring deployment: `depth` rings of
    /// density `density` (plus the sink).
    Ring {
        /// Number of rings `D`.
        depth: usize,
        /// Unit-disk density `C`.
        density: usize,
    },
    /// `nodes` nodes scattered uniformly in a disk of `field_radius`
    /// radio-range units around the sink.
    UniformDisk {
        /// Total node count, sink included.
        nodes: usize,
        /// Field radius in range units.
        field_radius: f64,
    },
    /// A 1-D chain, sink at one end.
    Line {
        /// Total node count.
        nodes: usize,
        /// Spacing in range units, in `(0, 1]`.
        spacing: f64,
    },
    /// A lattice with the sink at a corner.
    Grid {
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
        /// Spacing in range units, in `(0, 1]`.
        spacing: f64,
    },
}

impl TopologySpec {
    /// Realizes the geometry (seeded: random topologies are
    /// reproducible per seed; deterministic ones ignore it).
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Topology`] constructor errors
    /// (invalid parameters, disconnected draws).
    pub fn realize(&self, seed: u64) -> Result<Topology, NetError> {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            TopologySpec::Ring { depth, density } => Topology::ring_model(depth, density, &mut rng),
            TopologySpec::UniformDisk {
                nodes,
                field_radius,
            } => Topology::uniform_disk(nodes, field_radius, &mut rng),
            TopologySpec::Line { nodes, spacing } => Topology::line(nodes, spacing),
            TopologySpec::Grid {
                cols,
                rows,
                spacing,
            } => Topology::grid(cols, rows, spacing),
        }
    }
}

/// Who talks, and how fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// Every non-sink node samples at the same mean period.
    Uniform {
        /// Mean sampling period.
        sample_period: Seconds,
    },
    /// A spatial hotspot: the `fraction` of nodes nearest the hotspot
    /// center (half the field extent out on the +x axis) sample
    /// `factor`× faster than the rest.
    Hotspot {
        /// Baseline sampling period.
        sample_period: Seconds,
        /// Rate multiplier inside the hotspot (`> 1`).
        factor: f64,
        /// Fraction of non-sink nodes in the hotspot, in `(0, 1)`.
        fraction: f64,
    },
    /// Event-driven sensing: everyone samples at the baseline, and
    /// synchronized burst windows multiply the rate `factor`× for
    /// `duration` out of every `every` seconds.
    EventBurst {
        /// Baseline sampling period.
        sample_period: Seconds,
        /// Rate multiplier inside a burst window.
        factor: f64,
        /// Interval between burst onsets.
        every: Seconds,
        /// Burst window length.
        duration: Seconds,
    },
}

impl TrafficSpec {
    /// The baseline sampling period.
    pub fn sample_period(&self) -> Seconds {
        match *self {
            TrafficSpec::Uniform { sample_period }
            | TrafficSpec::Hotspot { sample_period, .. }
            | TrafficSpec::EventBurst { sample_period, .. } => sample_period,
        }
    }

    /// The window-conditional rate structure of this traffic pattern
    /// (`None` for patterns without synchronized bursts; degenerate
    /// windows normalize to `None` too).
    pub fn burst_regime(&self) -> Option<BurstRegime> {
        match *self {
            TrafficSpec::EventBurst {
                factor,
                every,
                duration,
                ..
            } => BurstRegime::new(factor, every, duration),
            _ => None,
        }
    }

    /// The time-averaged per-node sampling rates on `topology` (what
    /// the analytic flow table sees; the energy terms are linear in
    /// the rates, so burst duty cycles fold into the mean exactly —
    /// the latency side reads the regime via
    /// [`TrafficSpec::burst_regime`] instead).
    fn node_rates(&self, topology: &Topology) -> Vec<Hertz> {
        let base = Hertz::per_interval(self.sample_period());
        match *self {
            TrafficSpec::Uniform { .. } => vec![base; topology.len()],
            TrafficSpec::Hotspot {
                factor, fraction, ..
            } => {
                let mut rates = vec![base; topology.len()];
                for idx in hotspot_nodes(topology, fraction) {
                    rates[idx] = base * factor;
                }
                rates
            }
            TrafficSpec::EventBurst {
                factor,
                every,
                duration,
                ..
            } => {
                let duty = (duration.value() / every.value()).clamp(0.0, 1.0);
                vec![base * (1.0 + (factor - 1.0) * duty); topology.len()]
            }
        }
    }

    /// The packet-level profile on `topology`.
    fn profile(&self, topology: &Topology) -> TrafficProfile {
        let n = topology.len();
        match *self {
            TrafficSpec::Uniform { sample_period } => TrafficProfile::uniform(n, sample_period),
            TrafficSpec::Hotspot {
                sample_period,
                factor,
                fraction,
            } => {
                let mut profile = TrafficProfile::uniform(n, sample_period);
                for idx in hotspot_nodes(topology, fraction) {
                    profile.periods[idx] = Seconds::new(sample_period.value() / factor);
                }
                profile
            }
            TrafficSpec::EventBurst {
                sample_period,
                factor,
                every,
                duration,
            } => TrafficProfile::uniform(n, sample_period).with_bursts(BurstWindows {
                every,
                duration,
                factor,
            }),
        }
    }
}

/// The non-sink nodes nearest the hotspot center, deterministically:
/// the center sits half the field extent out on the +x axis, and the
/// `fraction` closest nodes (at least one) form the hotspot.
fn hotspot_nodes(topology: &Topology, fraction: f64) -> Vec<usize> {
    let extent = topology
        .positions()
        .iter()
        .map(|p| p.distance(edmac_net::Point2::ORIGIN))
        .fold(0.0f64, f64::max);
    let center = edmac_net::Point2::new(extent / 2.0, 0.0);
    let sink = topology.sink().index();
    let mut by_distance: Vec<usize> = (0..topology.len()).filter(|&i| i != sink).collect();
    by_distance.sort_by(|&a, &b| {
        let da = topology.positions()[a].distance_squared(center);
        let db = topology.positions()[b].distance_squared(center);
        da.partial_cmp(&db)
            .expect("finite positions")
            .then(a.cmp(&b))
    });
    let count =
        ((by_distance.len() as f64 * fraction).floor() as usize).clamp(1, by_distance.len());
    by_distance.truncate(count);
    by_distance
}

/// A named workload: topology source × traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (CSV label in the `scenarios` binary and bench).
    pub name: String,
    /// Where the nodes are.
    pub topology: TopologySpec,
    /// Who talks, and how fast.
    pub traffic: TrafficSpec,
}

impl Scenario {
    /// A ring scenario (the paper's shape) with uniform traffic.
    pub fn ring(depth: usize, density: usize, sample_period: Seconds) -> Scenario {
        Scenario {
            name: format!("ring_d{depth}_c{density}"),
            topology: TopologySpec::Ring { depth, density },
            traffic: TrafficSpec::Uniform { sample_period },
        }
    }

    /// The reference ring the figures run on (`D = 10`, `C = 4`,
    /// hourly sampling) — [`Scenario::deployment`] reproduces
    /// [`Deployment::reference`]'s flow table exactly.
    pub fn paper_reference() -> Scenario {
        Scenario::ring(10, 4, Seconds::new(3_600.0))
    }

    /// The validation ring (`D = 4`, `C = 4`, 80 s sampling).
    pub fn validation_ring() -> Scenario {
        Scenario::ring(4, 4, Seconds::new(80.0))
    }

    /// A uniform-disk field with uniform traffic.
    pub fn uniform_disk(nodes: usize, field_radius: f64, sample_period: Seconds) -> Scenario {
        Scenario {
            name: format!("disk_n{nodes}"),
            topology: TopologySpec::UniformDisk {
                nodes,
                field_radius,
            },
            traffic: TrafficSpec::Uniform { sample_period },
        }
    }

    /// A uniform-disk field with a 3×-rate hotspot covering a quarter
    /// of the nodes.
    pub fn hotspot_disk(nodes: usize, field_radius: f64, sample_period: Seconds) -> Scenario {
        Scenario {
            name: format!("hotspot_n{nodes}"),
            topology: TopologySpec::UniformDisk {
                nodes,
                field_radius,
            },
            traffic: TrafficSpec::Hotspot {
                sample_period,
                factor: 3.0,
                fraction: 0.25,
            },
        }
    }

    /// A uniform-disk field with event bursts: 4× the sampling rate
    /// for 30 s out of every 300 s.
    pub fn event_burst_disk(nodes: usize, field_radius: f64, sample_period: Seconds) -> Scenario {
        Scenario {
            name: format!("burst_n{nodes}"),
            topology: TopologySpec::UniformDisk {
                nodes,
                field_radius,
            },
            traffic: TrafficSpec::EventBurst {
                sample_period,
                factor: 4.0,
                every: Seconds::new(300.0),
                duration: Seconds::new(30.0),
            },
        }
    }

    /// The analytic deployment for this scenario: ring topologies with
    /// uniform traffic use the exact closed-form flow table (so the
    /// paper's figure sweeps reproduce unchanged); everything else
    /// realizes the topology at `seed` and tabulates worst-case
    /// empirical flows.
    ///
    /// # Errors
    ///
    /// Propagates topology realization failures as [`CoreError::Net`].
    pub fn deployment(&self, seed: u64) -> Result<Deployment, CoreError> {
        if let Some(ring) = self.ring_closed_form()? {
            return Ok(ring);
        }
        let topology = self.topology.realize(seed).map_err(CoreError::Net)?;
        self.deployment_from(&topology)
    }

    /// Like [`Scenario::deployment`], but reusing an already-realized
    /// topology — callers that need the geometry anyway (the study
    /// harness computes irregularity metrics from it) avoid a second
    /// realization. Ring scenarios with uniform traffic still use the
    /// exact closed-form flow table, ignoring `topology`.
    ///
    /// # Errors
    ///
    /// Propagates flow-table construction failures as
    /// [`CoreError::Net`].
    pub fn deployment_from(&self, topology: &Topology) -> Result<Deployment, CoreError> {
        if let Some(ring) = self.ring_closed_form()? {
            return Ok(ring);
        }
        let fs = Hertz::per_interval(self.traffic.sample_period());
        let rates = self.traffic.node_rates(topology);
        let workload = Workload::from_node_rates(topology, fs, &rates)
            .map_err(CoreError::Net)?
            .with_burst(self.traffic.burst_regime());
        Ok(Deployment::reference().with_traffic(workload))
    }

    /// The analytic closed-form deployment, for ring topologies with
    /// uniform traffic (`None` for every other combination).
    fn ring_closed_form(&self) -> Result<Option<Deployment>, CoreError> {
        let (TopologySpec::Ring { depth, density }, TrafficSpec::Uniform { .. }) =
            (self.topology, self.traffic)
        else {
            return Ok(None);
        };
        let fs = Hertz::per_interval(self.traffic.sample_period());
        let model = RingModel::new(depth, density).map_err(CoreError::Net)?;
        Ok(Some(
            Deployment::reference()
                .with_network(model)
                .with_sampling(fs),
        ))
    }

    /// Builds the packet-level simulation: the topology realized from
    /// `config.seed`, CC2420 radio, default frames, and this
    /// scenario's traffic profile.
    ///
    /// # Errors
    ///
    /// Propagates topology and simulation build failures as
    /// [`CoreError::Net`].
    pub fn simulation(
        &self,
        protocol: &dyn SimProtocol,
        config: SimConfig,
    ) -> Result<Simulation, CoreError> {
        let topology = self.topology.realize(config.seed).map_err(CoreError::Net)?;
        let config = SimConfig {
            sample_period: self.traffic.sample_period(),
            ..config
        };
        let network = CoexNetwork {
            topology: &topology,
            protocol,
        };
        let sim = Simulation::new(
            &[network],
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            config,
        )
        .map_err(CoreError::Net)?;
        sim.with_traffic(self.traffic.profile(&topology))
            .map_err(CoreError::Net)
    }
}

/// `K` independent duty-cycled networks — each with its own sink,
/// routing tree and derived seed — deployed side by side on **one
/// shared channel**, so every network's transmissions are interference
/// (or, with capture off, collision sources) in all the others.
///
/// This is the workload the coexistence study cells bargain over:
/// each network plans its MAC parameters for itself, but the channel
/// couples their outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexistenceScenario {
    /// Display name (CSV label in the study artifacts).
    pub name: String,
    /// The per-network deployment shape (every network uses the same
    /// spec, realized under a different derived seed).
    pub topology: TopologySpec,
    /// Number of networks `K`.
    pub networks: usize,
    /// Center-to-center spacing between consecutive networks along the
    /// +x axis, in radio-range units. Small separations overlap the
    /// fields; large ones decouple them (the SINR interference range
    /// with default parameters is ≈ 3.2 range units).
    pub separation: f64,
    /// Uniform per-node sampling period inside every network.
    pub sample_period: Seconds,
}

/// Decorrelates network `k`'s realization seed from the scenario seed
/// (splitmix64 finalizer over a golden-ratio stride).
fn network_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CoexistenceScenario {
    /// The reference coexistence preset: `networks` two-ring
    /// deployments (13 nodes each) spaced `separation` range units
    /// apart, sampling every 60 s.
    pub fn preset(networks: usize, separation: f64) -> CoexistenceScenario {
        CoexistenceScenario {
            name: format!("coex_k{networks}_s{separation}"),
            topology: TopologySpec::Ring {
                depth: 2,
                density: 3,
            },
            networks,
            separation,
            sample_period: Seconds::new(60.0),
        }
    }

    /// Realizes the `K` network topologies: network `k` is drawn from
    /// the shared [`TopologySpec`] under a derived seed and translated
    /// `k · separation` range units out on the +x axis.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for zero networks or a
    /// non-finite/negative separation, and propagates realization
    /// failures of the underlying topology constructor.
    pub fn realize(&self, seed: u64) -> Result<Vec<Topology>, NetError> {
        if self.networks == 0 {
            return Err(NetError::InvalidParameter {
                name: "networks",
                reason: "a coexistence scenario needs at least one network".into(),
            });
        }
        if !(self.separation >= 0.0 && self.separation.is_finite()) {
            return Err(NetError::InvalidParameter {
                name: "separation",
                reason: format!("must be non-negative and finite, got {}", self.separation),
            });
        }
        (0..self.networks)
            .map(|k| {
                let topo = self.topology.realize(network_seed(seed, k as u64))?;
                Ok(topo.translated(k as f64 * self.separation, 0.0))
            })
            .collect()
    }

    /// Builds the shared-channel simulation: one protocol per network
    /// (in network order), CC2420 radio, default frames, the scenario's
    /// sampling period, and `channel` realized over the union of all
    /// node positions. Run it with
    /// [`Simulation::run_coexistence`] for one report per network.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Net`] with [`NetError::InvalidParameter`] if the
    ///   protocol panel does not cover the networks one-to-one.
    /// * Realization and build failures as [`CoreError::Net`].
    pub fn simulation(
        &self,
        protocols: &[&dyn SimProtocol],
        channel: &dyn ChannelModel,
        config: SimConfig,
    ) -> Result<Simulation, CoreError> {
        if protocols.len() != self.networks {
            return Err(CoreError::Net(NetError::InvalidParameter {
                name: "protocols",
                reason: format!(
                    "{} networks need {} protocols, got {}",
                    self.networks,
                    self.networks,
                    protocols.len()
                ),
            }));
        }
        let topologies = self.realize(config.seed).map_err(CoreError::Net)?;
        let config = SimConfig {
            sample_period: self.sample_period,
            ..config
        };
        let networks: Vec<CoexNetwork<'_>> = topologies
            .iter()
            .zip(protocols)
            .map(|(topology, &protocol)| CoexNetwork { topology, protocol })
            .collect();
        Simulation::new(
            &networks,
            channel,
            Radio::cc2420(),
            FrameSizes::default(),
            config,
        )
        .map_err(CoreError::Net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_matches_legacy_deployment() {
        let scenario = Scenario::paper_reference().deployment(0).unwrap();
        let legacy = Deployment::reference();
        assert_eq!(scenario.traffic, legacy.traffic, "flow tables must agree");
    }

    #[test]
    fn ring_scenarios_ignore_the_seed_analytically() {
        let s = Scenario::validation_ring();
        assert_eq!(
            s.deployment(1).unwrap().traffic,
            s.deployment(99).unwrap().traffic
        );
    }

    #[test]
    fn disk_deployment_tabulates_empirical_flows() {
        let env = Scenario::uniform_disk(60, 2.5, Seconds::new(80.0))
            .deployment(7)
            .unwrap();
        assert!(env.traffic.ring_model().is_none());
        assert_eq!(env.traffic.sources(), 59);
        assert!(env.traffic.depth() >= 2);
    }

    #[test]
    fn deployment_from_matches_seeded_realization() {
        let scenario = Scenario::hotspot_disk(50, 2.2, Seconds::new(80.0));
        let topology = scenario.topology.realize(11).unwrap();
        assert_eq!(
            scenario.deployment_from(&topology).unwrap().traffic,
            scenario.deployment(11).unwrap().traffic,
        );
        // Ring scenarios stay on the closed form whatever topology is
        // handed in.
        let ring = Scenario::validation_ring();
        let decoy = Scenario::uniform_disk(30, 1.8, Seconds::new(80.0))
            .topology
            .realize(3)
            .unwrap();
        assert_eq!(
            ring.deployment_from(&decoy).unwrap().traffic,
            ring.deployment(0).unwrap().traffic,
        );
    }

    #[test]
    fn hotspot_raises_the_bottleneck() {
        let period = Seconds::new(80.0);
        let flat = Scenario::uniform_disk(60, 2.5, period)
            .deployment(7)
            .unwrap();
        let hot = Scenario::hotspot_disk(60, 2.5, period)
            .deployment(7)
            .unwrap();
        assert!(
            hot.traffic.f_out(1).unwrap() >= flat.traffic.f_out(1).unwrap(),
            "a hotspot cannot lower the worst depth-1 load"
        );
        let hot_total: f64 = (1..=hot.traffic.depth())
            .map(|d| hot.traffic.f_out(d).unwrap().value())
            .sum();
        let flat_total: f64 = (1..=flat.traffic.depth())
            .map(|d| flat.traffic.f_out(d).unwrap().value())
            .sum();
        assert!(hot_total > flat_total, "hotspot adds traffic somewhere");
    }

    #[test]
    fn burst_deployment_uses_the_time_averaged_rate() {
        let period = Seconds::new(100.0);
        let env = Scenario::event_burst_disk(60, 2.0, period)
            .deployment(7)
            .unwrap();
        // duty 30/300 = 0.1, factor 4 => mean rate 1.3x the baseline.
        let leaf_like = env.traffic.f_out(env.traffic.depth()).unwrap().value();
        assert!(leaf_like >= 1.3 / period.value() - 1e-12);
        // ... and the window-conditional structure rides along for the
        // latency side.
        let regime = env.traffic.burst().expect("burst scenarios carry a regime");
        assert!((regime.duty() - 0.1).abs() < 1e-12);
        assert_eq!(regime.factor(), 4.0);
    }

    #[test]
    fn workload_extras_follow_the_scenario_family() {
        // Ring + uniform: closed forms, no regime, no realized slot
        // demand (the calibrated LMAC default frame stays in force).
        let ring = Scenario::paper_reference().deployment(0).unwrap();
        assert!(ring.traffic.burst().is_none());
        assert!(ring.traffic.slot_demand().is_none());
        // Realized disks know their distance-2 chromatic need.
        let disk = Scenario::uniform_disk(60, 2.5, Seconds::new(80.0))
            .deployment(7)
            .unwrap();
        let need = disk.traffic.slot_demand().expect("realized topology");
        assert!(need >= 3, "a multi-hop disk needs several slots: {need}");
        // Hotspots skew rates but have no synchronized windows.
        let hot = Scenario::hotspot_disk(60, 2.5, Seconds::new(80.0))
            .deployment(7)
            .unwrap();
        assert!(hot.traffic.burst().is_none());
        assert!(hot.traffic.slot_demand().is_some());
    }

    #[test]
    fn coexistence_preset_realizes_translated_networks() {
        let scenario = CoexistenceScenario::preset(3, 5.0);
        let topologies = scenario.realize(42).unwrap();
        assert_eq!(topologies.len(), 3);
        for (k, topo) in topologies.iter().enumerate() {
            assert_eq!(topo.len(), 13, "two-ring deployment: 1 + 3*(1+3) nodes");
            let sink = topo.position(topo.sink());
            assert!((sink.x - k as f64 * 5.0).abs() < 1e-12);
            assert_eq!(sink.y, 0.0);
            topo.graph().check_connected(topo.sink()).unwrap();
        }
        // Per-network seeds are decorrelated: the ring rotations (and
        // hence non-sink positions, after undoing the translation)
        // differ between networks.
        let p1 = topologies[1].position(edmac_net::NodeId::new(1));
        let p2 = topologies[2].position(edmac_net::NodeId::new(1));
        assert!((p1.x - 5.0 - (p2.x - 10.0)).abs() > 1e-9 || (p1.y - p2.y).abs() > 1e-9);
    }

    #[test]
    fn coexistence_preset_rejects_bad_parameters() {
        assert!(CoexistenceScenario::preset(0, 5.0).realize(0).is_err());
        let mut bad = CoexistenceScenario::preset(2, 5.0);
        bad.separation = f64::NAN;
        assert!(bad.realize(0).is_err());
    }

    #[test]
    fn coexistence_simulation_runs_one_report_per_network() {
        use edmac_sim::{WakeMode, XmacSim};
        let scenario = CoexistenceScenario::preset(2, 4.0);
        let xmac = XmacSim::new(Seconds::from_millis(100.0));
        let cfg = SimConfig {
            duration: Seconds::new(40.0),
            sample_period: Seconds::new(10.0),
            warmup: Seconds::new(5.0),
            seed: 3,
            scheduling: WakeMode::Dense,
        };
        let protocols: [&dyn SimProtocol; 2] = [&xmac, &xmac];
        assert!(
            scenario
                .simulation(&protocols[..1], &edmac_phy::UnitDisk, cfg)
                .is_err(),
            "panel must cover every network"
        );
        let reports = scenario
            .simulation(&protocols, &edmac_phy::UnitDisk, cfg)
            .unwrap()
            .run_coexistence();
        assert_eq!(reports.len(), 2);
        for (k, report) in reports.iter().enumerate() {
            let (lo, hi) = (k * 13, (k + 1) * 13);
            assert!(report
                .per_node()
                .iter()
                .all(|s| (lo..hi).contains(&s.node.index())));
            assert!(
                report.delivery_ratio() > 0.7,
                "network {k}: {}",
                report.delivery_ratio()
            );
        }
    }

    #[test]
    fn hotspot_selection_is_deterministic_and_sized() {
        let topo = TopologySpec::UniformDisk {
            nodes: 40,
            field_radius: 2.0,
        }
        .realize(5)
        .unwrap();
        let a = hotspot_nodes(&topo, 0.25);
        let b = hotspot_nodes(&topo, 0.25);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9, "floor(39 * 0.25)");
        assert!(!a.contains(&topo.sink().index()));
    }
}
