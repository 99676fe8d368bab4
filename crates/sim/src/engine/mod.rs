//! The simulation engine: event loop, radio state machine, channel
//! with collisions and SINR capture, timers and energy accounting.
//!
//! Every reception is judged by one rule, parameterized by the
//! channel's [`SinrParams`](edmac_phy::SinrParams): a listening,
//! unlocked radio locks onto an arrival at or above sensitivity; with
//! capture off any overlap then destroys the locked frame, with capture
//! on the frame survives while its SINR against the summed interference
//! clears the threshold. [`UnitDisk`] is the capture-off case at unit
//! power.
//!
//! The engine is three modules. This one holds the public
//! configuration, the builder ([`Simulation::new`]) and the collection
//! of a finished run into one [`SimReport`] per network; `ctx` holds
//! [`Ctx`], the API a node's handlers use; `run` holds the run state
//! and the loop that advances it.
//!
//! There is one engine. A conservative-parallel sharded engine ran
//! next to it until it was measured to never pay: on a 2-core machine
//! `study --smoke` took 0.135 s sequentially and 11.9 s on two shards,
//! the coexistence smoke 0.35 s against 38.4 s, and the 100 000-node
//! X-MAC run 8.1 s against 17.9–20.5 s on four shards, while only 3
//! of 316 596 coordination rounds on the smoke grid (and 0 of 161 034
//! on coexistence) ever advanced two shards at once.

mod clock;
mod ctx;
mod run;

pub use self::clock::{IdleWake, WakeClock};
pub use self::ctx::Ctx;
pub use crate::protocols::MacNode;

use self::run::{NodeState, Shared};
use crate::frame::FrameKind;
use crate::protocol::SimProtocol;
use crate::report::{NodeStats, PacketRecord, SimReport};
use crate::time::SimTime;
use edmac_net::{splitmix64, Graph, NetError, NodeId, Point2, RoutingTree, Topology};
use edmac_phy::{ChannelModel, LinkField, UnitDisk};
use edmac_radio::{FrameSizes, Radio};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the engine schedules protocol clock ticks.
///
/// Both modes produce byte-identical [`SimReport`]s (asserted by the
/// `wake_equivalence` golden tests); `Dense` exists as the executable
/// reference for that contract and for debugging schedule coarsening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeMode {
    /// Event-coarse scheduling: nodes wake only for slots where they
    /// transmit, may receive from a schedule-known neighbor, or must
    /// sample the channel. Each node owes the idle wakes it elides on
    /// its wake clock ([`Ctx::owe_wakes`]), and the engine charges the
    /// due part of that owed run to the energy ledger arithmetically, a
    /// whole run in one step, whenever the radio starts up or goes to
    /// sleep and at the horizon.
    ///
    /// A single-network run also gets the quiet fast path: while no
    /// node at the caller's depth minus one or deeper holds a packet or
    /// has one on the air, nothing can reach the caller's radio before
    /// the next application sample at those depths, so X-MAC polls and
    /// DMAC cycles whose whole window closes before it are owed
    /// instead of simulated ([`Ctx::quiet_until`]); LMAC does the same
    /// for a slot whose owner is packet-free past its control
    /// ([`Ctx::packet_free_until`]), and for the slot's heartbeats in
    /// later frames while the owner's whole routing subtree stays
    /// packet-free ([`Ctx::subtree_free_until`]).
    ///
    /// Replays are exact because the energy ledger keeps integer
    /// nanoseconds per `(mode, cause)` bucket: a coarse run matches the
    /// dense one whenever each bucket got the same time, in whatever
    /// pieces and order. The engine checks at the horizon that every
    /// node was charged exactly the run's length.
    ///
    /// A replay is proven only by a network's own schedule, so it is
    /// sound only when every transmission a node can hear comes from
    /// its own network over a decode edge, and when no decode reads
    /// the interference a replayed wake would have added. The one
    /// predicate [`Simulation::new`] computes for both this and the
    /// receiver elision is: capture off, and every air link of the
    /// realized channel a decode edge within one network. A requested
    /// `Coarse` runs as `Dense` wherever it fails: a link between two
    /// networks, an interference-only link, or capture on. A single
    /// network on [`UnitDisk`] or
    /// [`SinrChannel::degenerate`](edmac_phy::SinrChannel::degenerate)
    /// stays `Coarse`.
    #[default]
    Coarse,
    /// The reference schedule: every protocol tick becomes a wake-up,
    /// exactly like the pre-coarsening engine.
    Dense,
}

/// Run-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// Application sampling period (`1/Fs`) of every non-sink node.
    pub sample_period: Seconds,
    /// Packets created before this instant are excluded from latency
    /// statistics (cold-start transient).
    pub warmup: Seconds,
    /// RNG seed; equal seeds reproduce runs exactly. Each node derives
    /// its own decorrelated stream from `(seed, node index)`, so the
    /// draws a node sees do not depend on event interleaving.
    pub seed: u64,
    /// Wake scheduling mode (default [`WakeMode::Coarse`]).
    pub scheduling: WakeMode,
}

impl Default for SimConfig {
    /// 600 simulated seconds, one sample per 60 s, 30 s warmup.
    fn default() -> SimConfig {
        SimConfig {
            duration: Seconds::new(600.0),
            sample_period: Seconds::new(60.0),
            warmup: Seconds::new(30.0),
            seed: 0,
            scheduling: WakeMode::Coarse,
        }
    }
}

/// Synchronized high-rate windows layered over the base sampling
/// periods (event-driven sensing: a detected event makes a region
/// report faster for a while).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindows {
    /// Interval between burst onsets (the first starts at `t = every`).
    pub every: Seconds,
    /// Length of each burst window.
    pub duration: Seconds,
    /// Sampling-rate multiplier inside a window (periods divide by it).
    pub factor: f64,
}

impl BurstWindows {
    /// Returns `true` if `now` falls inside a burst window.
    fn active(&self, now: SimTime) -> bool {
        let every = self.every.value();
        if every <= 0.0 {
            return false;
        }
        let t = now.as_seconds().value() % every;
        // Bursts start at each multiple of `every` (skipping t = 0 so
        // cold-start traffic stays nominal).
        now.as_seconds().value() >= every && t < self.duration.value()
    }
}

/// The work a run did, beside its [`SimReport`] rather than inside it,
/// so that reports stay bit-identical whatever the engine skips. Two
/// runs that differ only in how they schedule wakes (say
/// [`WakeMode::Coarse`] against [`WakeMode::Dense`]) report the same
/// bytes but different work; these counts tell them apart without a
/// timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Wakes the engine fired: calls of [`MacNode::on_wake`].
    pub wakes_fired: u64,
    /// Owed wakes ([`Ctx::owe_wakes`]) the engine charged instead of
    /// simulating them. A wake owed at its own firing counts here too.
    pub wakes_replayed: u64,
}

/// Per-node application traffic: mean sampling periods (the sink's
/// entry is ignored) plus optional burst windows. The engine's default
/// — every node at [`SimConfig::sample_period`], no bursts — is
/// `TrafficProfile::uniform`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// Mean sampling period per node, indexed by node id.
    pub periods: Vec<Seconds>,
    /// Optional synchronized burst windows.
    pub burst: Option<BurstWindows>,
}

impl TrafficProfile {
    /// Every node samples at `period`, no bursts.
    pub fn uniform(n: usize, period: Seconds) -> TrafficProfile {
        TrafficProfile {
            periods: vec![period; n],
            burst: None,
        }
    }

    /// Layers burst windows over the profile.
    #[must_use]
    pub fn with_bursts(mut self, burst: BurstWindows) -> TrafficProfile {
        self.burst = Some(burst);
        self
    }
}

/// Decorrelates per-node RNG streams: two rounds of splitmix64 over
/// `(seed, node)`.
fn node_stream(seed: u64, node: usize) -> u64 {
    splitmix64(seed ^ splitmix64(node as u64 ^ 0x0005_DEEC_E66D))
}

/// A fully built simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation {
    shared: Shared,
    machines: Vec<Box<dyn MacNode>>,
    /// Per-network protocol names, indexed by network id.
    network_names: Vec<&'static str>,
}

impl Simulation {
    /// Builds a simulation of one or more networks sharing one channel
    /// — the only way a `Simulation` is assembled. A single network is
    /// the `K = 1` case.
    ///
    /// Each network brings its own topology (positions in the shared
    /// coordinate plane, its own sink) and protocol: one of the four
    /// built-in [`SimProtocol`]s ([`XmacSim`](crate::XmacSim),
    /// [`DmacSim`](crate::DmacSim), [`LmacSim`](crate::LmacSim),
    /// [`ScpSim`](crate::ScpSim)) or any downstream implementation,
    /// custom per-node state machines included. `channel` is
    /// realized over the union of all positions; each network routes
    /// over the realized decode edges among its own nodes, while every
    /// air link — within or across networks — delivers frames, so one
    /// network's transmissions are interference (or, with capture off,
    /// collision sources) in every other. Global node ids are
    /// assigned contiguously in network order. Cross-network frames are
    /// decoded by the radio (energy and counters are charged) but
    /// filtered before the MAC state machine, like a PAN-id check.
    ///
    /// These choices are made here and nowhere else:
    ///
    /// * **Protocol seed.** A single network builds its nodes under
    ///   `config.seed`; with several, network `k` gets its own
    ///   decorrelated seed (so e.g. LMAC's slot-assignment RNG differs
    ///   per network).
    /// * **Schedule-proven silence.** One predicate — capture off, and
    ///   every air link of the realized field a decode edge within one
    ///   network — gates both of the following. With capture off a
    ///   lock never reads the interference tally, and no node hears a
    ///   transmitter its own schedule does not know.
    /// * **Wake mode.** A requested [`WakeMode::Coarse`] runs as
    ///   [`WakeMode::Dense`] unless the predicate holds (see
    ///   [`WakeMode::Coarse`]); the mode that ran is the one in the
    ///   report's [`SimConfig`].
    /// * **CCA-free receiver elision.** Receivers asleep when a frame
    ///   starts are left out of its air batches only where the
    ///   predicate holds, for a single network whose protocol never
    ///   samples the channel ([`SimProtocol::cca_free`]).
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidParameter`] if `networks` is empty, or if a
    ///   protocol cannot cover its topology (e.g. an LMAC frame with
    ///   fewer slots than the distance-2 coloring needs).
    /// * [`NetError::Disconnected`] if some network's decode graph
    ///   cannot reach its sink under the realized channel.
    pub fn new(
        networks: &[CoexNetwork<'_>],
        channel: &dyn ChannelModel,
        radio: Radio,
        frames: FrameSizes,
        mut config: SimConfig,
    ) -> Result<Simulation, NetError> {
        if networks.is_empty() {
            return Err(NetError::InvalidParameter {
                name: "networks",
                reason: "a simulation needs at least one network".to_string(),
            });
        }
        let mut positions: Vec<Point2> = Vec::new();
        let mut network_of: Vec<u32> = Vec::new();
        for (k, net) in networks.iter().enumerate() {
            positions.extend_from_slice(net.topology.positions());
            network_of.resize(positions.len(), k as u32);
        }
        let n = positions.len();
        let field = channel.realize(&positions, config.seed);
        let decode = field.decode_graph();
        let params = channel.sinr();
        let schedule_proven =
            params.capture.is_none() && schedules_cover_air(&field, &decode, &network_of);
        if !schedule_proven {
            config.scheduling = WakeMode::Dense;
        }

        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth = vec![0usize; n];
        let mut sinks = Vec::with_capacity(networks.len());
        let mut max_depths = Vec::with_capacity(networks.len());
        let mut network_names = Vec::with_capacity(networks.len());
        let mut machines: Vec<Box<dyn MacNode>> = Vec::with_capacity(n);
        let mut off = 0;
        for (k, net) in networks.iter().enumerate() {
            let nk = net.topology.len();
            // The network's own decode graph: the realized field's
            // edges restricted to its nodes, shifted to local ids.
            // Neighbor lists keep their ascending order, so builders
            // that iterate adjacency (LMAC's coloring) see exactly
            // what a standalone realization would give them.
            let mut local = Graph::with_nodes(nk);
            for u in 0..nk {
                for &v in decode.neighbors(NodeId::new(off + u)) {
                    let vi = v.index();
                    if vi > off + u && vi < off + nk {
                        local.add_edge(NodeId::new(u), NodeId::new(vi - off));
                    }
                }
            }
            let tree = RoutingTree::shortest_path(&local, net.topology.sink())?;
            let mut net_config = config;
            if networks.len() > 1 {
                net_config.seed = node_stream(config.seed ^ 0x0C0E_715E, k);
            }
            machines.extend(net.protocol.build_nodes(&local, &tree, &net_config)?);
            for u in 0..nk {
                let lu = NodeId::new(u);
                parent[off + u] = tree.parent(lu).map(|p| NodeId::new(off + p.index()));
                depth[off + u] = tree.depth(lu);
            }
            sinks.push(NodeId::new(off + net.topology.sink().index()));
            max_depths.push(tree.max_depth());
            network_names.push(net.protocol.name());
            off += nk;
        }

        let elide_sleepers =
            schedule_proven && networks.len() == 1 && networks[0].protocol.cca_free();
        let mut airtime_ns = [0; FrameKind::ALL.len()];
        for kind in FrameKind::ALL {
            airtime_ns[kind.index()] =
                SimTime::from_seconds(radio.airtime(kind.size(&frames))).as_nanos();
        }
        let shared = Shared {
            end: SimTime::from_seconds(config.duration),
            startup_ns: SimTime::from_seconds(radio.timings.startup).as_nanos(),
            airtime_ns,
            radio_hw: radio,
            frames,
            field,
            params,
            parent,
            depth,
            network_of,
            sinks,
            max_depths,
            config,
            elide_sleepers,
            traffic: None,
        };
        Ok(Simulation {
            shared,
            machines,
            network_names,
        })
    }

    /// Builds a simulation over the paper's ring topology (a geometric
    /// realization seeded from `config.seed`) on the unit-disk channel
    /// with the CC2420 radio and default frames.
    ///
    /// # Errors
    ///
    /// Propagates [`Topology::ring_model`] and [`Simulation::new`]
    /// errors.
    pub fn ring(
        depth: usize,
        density: usize,
        protocol: &dyn SimProtocol,
        config: SimConfig,
    ) -> Result<Simulation, NetError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topology = Topology::ring_model(depth, density, &mut rng)?;
        let network = CoexNetwork {
            topology: &topology,
            protocol,
        };
        Simulation::new(
            &[network],
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            config,
        )
    }

    /// Number of nodes, sink included.
    pub fn node_count(&self) -> usize {
        self.machines.len()
    }

    /// Has no effect: returns `self` unchanged.
    ///
    /// This once set the number of spatial shards a run was split
    /// into. Every shard count always produced the same bytes, and the
    /// sharded engine is gone (see the module docs for why). The name
    /// stays only for the benchmark harness, which still calls it; it
    /// goes once a benchmark change retires the `smoke-shards2`
    /// workload and the `grid-full` shard probe.
    #[must_use]
    pub fn with_shards(self, _shards: usize) -> Simulation {
        self
    }

    /// Installs a per-node traffic profile (hotspots, bursts) in place
    /// of the uniform [`SimConfig::sample_period`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if the profile does not
    /// cover every node, contains a non-positive period (the sink's
    /// entry is ignored, as documented on [`TrafficProfile`]), or
    /// carries degenerate burst windows (a non-positive factor or
    /// onset interval would run simulated time backwards).
    pub fn with_traffic(mut self, traffic: TrafficProfile) -> Result<Simulation, NetError> {
        if traffic.periods.len() != self.machines.len() {
            return Err(NetError::InvalidParameter {
                name: "periods",
                reason: format!(
                    "profile covers {} nodes but the simulation has {}",
                    traffic.periods.len(),
                    self.machines.len()
                ),
            });
        }
        if let Some(bad) = traffic
            .periods
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.shared.is_sink(NodeId::new(i)))
            .map(|(_, p)| p)
            .find(|p| !(p.is_finite() && p.value() > 0.0))
        {
            return Err(NetError::InvalidParameter {
                name: "periods",
                reason: format!("sampling periods must be positive and finite, got {bad}"),
            });
        }
        if let Some(burst) = traffic.burst {
            let factor_ok = burst.factor.is_finite() && burst.factor > 0.0;
            let every_ok = burst.every.is_finite() && burst.every.value() > 0.0;
            let duration_ok = burst.duration.is_finite() && burst.duration.value() >= 0.0;
            if !(factor_ok && every_ok && duration_ok) {
                return Err(NetError::InvalidParameter {
                    name: "burst",
                    reason: format!(
                        "burst windows need a positive finite factor and onset interval \
                         and a non-negative duration, got factor {}, every {}, duration {}",
                        burst.factor, burst.every, burst.duration
                    ),
                });
            }
        }
        self.shared.traffic = Some(traffic);
        Ok(self)
    }

    /// Runs the simulation to completion and returns network 0's
    /// report: on a single-network build, the whole run. (On a
    /// multi-network build this is the first report of
    /// [`run_coexistence`](Simulation::run_coexistence).)
    pub fn run(self) -> SimReport {
        self.run_with_stats().0
    }

    /// [`run`](Simulation::run), with the work the run did.
    pub fn run_with_stats(self) -> (SimReport, RunStats) {
        let (mut reports, stats) = self.execute();
        (reports.swap_remove(0), stats)
    }

    /// Runs a coexistence simulation to completion and returns one
    /// report per network, in network order: each carries its own
    /// protocol name, sink, node stats and packet records (with global
    /// node ids), so the single-network accessors — bottleneck energy
    /// excluding the own sink, per-depth delay stats, delivery ratio —
    /// apply per network unchanged.
    ///
    /// On a single-network build this returns `vec![self.run()]`.
    pub fn run_coexistence(self) -> Vec<SimReport> {
        self.execute().0
    }

    /// Runs to the horizon: one report per network, and the work done.
    fn execute(mut self) -> (Vec<SimReport>, RunStats) {
        let (nodes, stats) = run::execute(&self.shared, &mut self.machines);
        let reports = collect_reports(&self.shared, &self.network_names, nodes);
        (reports, stats)
    }
}

/// One network of a [`Simulation::new`] build:
/// a topology in the *shared* coordinate plane (inter-network spacing
/// is expressed by the positions themselves) plus the protocol its
/// nodes run.
#[derive(Debug, Clone, Copy)]
pub struct CoexNetwork<'a> {
    /// Node positions and sink of this network, in shared coordinates.
    pub topology: &'a Topology,
    /// The MAC protocol every node of this network runs.
    pub protocol: &'a dyn SimProtocol,
}

/// Whether every air link of `field` is a decode edge between two nodes
/// of one network — with capture off, the condition schedule-proven
/// silence needs ([`WakeMode::Coarse`]).
fn schedules_cover_air(field: &LinkField, decode: &Graph, network_of: &[u32]) -> bool {
    (0..field.len()).all(|u| {
        let tx = NodeId::new(u);
        field.receivers(tx).iter().all(|&(rx, _)| {
            network_of[u] == network_of[rx.index()] && decode.neighbors(tx).contains(&rx)
        })
    })
}

/// Moves the finished run into one report per network, in network
/// order: node stats in global node order, packet records sorted by
/// `(created, packet id)` — creation order with ties in node order,
/// since same-instant `Generate`s fire in node order and ids sort by
/// (origin, per-origin counter).
fn collect_reports(
    shared: &Shared,
    names: &[&'static str],
    nodes: Vec<NodeState>,
) -> Vec<SimReport> {
    let mut parts: Vec<(Vec<NodeStats>, Vec<PacketRecord>)> = vec![Default::default(); names.len()];
    for (u, st) in nodes.into_iter().enumerate() {
        let node = NodeId::new(u);
        let (per_node, records) = &mut parts[shared.network(node)];
        per_node.push(NodeStats {
            node,
            depth: shared.depth[u],
            breakdown: st.ledger.breakdown(),
            busy: st.ledger.busy_time(),
            counters: st.counters,
            mean_sinr_db: (st.sinr_decoded > 0).then(|| st.sinr_db_sum / st.sinr_decoded as f64),
        });
        records.extend(st.records);
    }
    parts
        .into_iter()
        .zip(names)
        .enumerate()
        .map(|(k, ((per_node, mut records), &name))| {
            records.sort_by_key(|r| (r.created, r.id.0));
            SimReport {
                protocol: name,
                config: shared.config,
                sink: shared.sinks[k],
                per_node,
                records,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DmacSim, LmacSim, XmacSim};

    fn tiny_config() -> SimConfig {
        SimConfig {
            duration: Seconds::new(60.0),
            sample_period: Seconds::new(10.0),
            warmup: Seconds::ZERO,
            seed: 1,
            scheduling: WakeMode::Coarse,
        }
    }

    /// X-MAC polling every `wakeup_ms` on a 2×4 ring, under the tiny
    /// configuration with `seed`.
    fn xmac_ring(wakeup_ms: f64, seed: u64) -> Simulation {
        let cfg = SimConfig {
            seed,
            ..tiny_config()
        };
        let protocol = XmacSim::new(Seconds::from_millis(wakeup_ms));
        Simulation::ring(2, 4, &protocol, cfg).unwrap()
    }

    /// Every node's total energy over the run.
    fn energies(report: &SimReport) -> Vec<f64> {
        report
            .per_node()
            .iter()
            .map(|s| s.breakdown.total().value())
            .collect()
    }

    #[test]
    fn ring_builder_counts_nodes() {
        assert_eq!(xmac_ring(100.0, 1).node_count(), 1 + 4 * 4);
    }

    #[test]
    fn with_traffic_validates_profiles() {
        let build = || xmac_ring(100.0, 1);
        let n = build().node_count();
        // Wrong length.
        assert!(build()
            .with_traffic(TrafficProfile::uniform(n - 1, Seconds::new(10.0)))
            .is_err());
        // Non-positive period at a non-sink node.
        let mut bad = TrafficProfile::uniform(n, Seconds::new(10.0));
        bad.periods[1] = Seconds::ZERO;
        assert!(build().with_traffic(bad).is_err());
        // The sink's entry is ignored, as documented.
        let mut sink_zero = TrafficProfile::uniform(n, Seconds::new(10.0));
        sink_zero.periods[0] = Seconds::ZERO;
        assert!(build().with_traffic(sink_zero).is_ok());
        // Degenerate burst windows must be rejected, valid ones kept.
        for factor in [0.0, -2.0, f64::NAN] {
            let burst = TrafficProfile::uniform(n, Seconds::new(10.0)).with_bursts(BurstWindows {
                every: Seconds::new(30.0),
                duration: Seconds::new(5.0),
                factor,
            });
            assert!(build().with_traffic(burst).is_err(), "factor {factor}");
        }
        let ok = TrafficProfile::uniform(n, Seconds::new(10.0)).with_bursts(BurstWindows {
            every: Seconds::new(30.0),
            duration: Seconds::new(5.0),
            factor: 4.0,
        });
        assert!(build().with_traffic(ok).is_ok());
    }

    #[test]
    fn lmac_rejects_undersized_frames() {
        let cfg = tiny_config();
        let protocol = LmacSim {
            slot: Seconds::from_millis(10.0),
            frame_slots: 2, // far below any 2-hop neighborhood
        };
        assert!(matches!(
            Simulation::ring(2, 4, &protocol, cfg),
            Err(NetError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let (a, b) = (xmac_ring(80.0, 42).run(), xmac_ring(80.0, 42).run());
        assert_eq!(a.delivery_ratio(), b.delivery_ratio());
        assert_eq!(a.delivered_count(), b.delivered_count());
        assert_eq!(
            energies(&a),
            energies(&b),
            "energy accounting must be bit-identical"
        );
    }

    #[test]
    fn different_seeds_differ() {
        // Phases differ, so per-node energies will not be identical.
        let (a, b) = (xmac_ring(80.0, 1).run(), xmac_ring(80.0, 2).run());
        assert_ne!(energies(&a), energies(&b));
    }

    #[test]
    fn energy_is_conserved_over_the_horizon() {
        // Every node's charged time (busy + sleep) must equal the run
        // duration to the nanosecond, whether its wakes were simulated
        // or replayed.
        let cfg = tiny_config();
        let horizon = SimTime::from_seconds(cfg.duration).as_nanos();
        let protocols: [Box<dyn SimProtocol>; 3] = [
            Box::new(XmacSim::new(Seconds::from_millis(100.0))),
            Box::new(DmacSim::new(Seconds::new(0.5))),
            Box::new(LmacSim::new(Seconds::from_millis(10.0))),
        ];
        for protocol in &protocols {
            for scheduling in [WakeMode::Coarse, WakeMode::Dense] {
                let cfg = SimConfig { scheduling, ..cfg };
                let mut sim = Simulation::ring(2, 4, protocol.as_ref(), cfg).unwrap();
                let (nodes, _) = run::execute(&sim.shared, &mut sim.machines);
                for (u, st) in nodes.iter().enumerate() {
                    assert_eq!(
                        st.ledger.charged_nanos(),
                        horizon,
                        "{} {scheduling:?}: node {u}",
                        protocol.name()
                    );
                }
            }
        }
    }
}
