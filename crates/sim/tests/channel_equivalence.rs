//! The degenerate-channel contract: building a simulation over
//! [`SinrChannel::degenerate`] — path-loss powers with σ = 0, capture
//! off, and the interference floor raised to the sensitivity threshold
//! — must reproduce the [`UnitDisk`] run **bit for bit**
//! (`common::assert_identical`, the SINR diagnostic included: with
//! capture off no decode carries a SINR sample), across wake modes,
//! protocols and topologies.

mod common;

use common::{assert_identical, build};
use edmac_net::{NetError, RoutingTree, Topology};
use edmac_phy::{ChannelModel, SinrChannel, UnitDisk};
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{
    CoexNetwork, DmacSim, LmacSim, MacNode, ScpSim, SimConfig, SimProtocol, Simulation, WakeMode,
    XmacSim,
};
use edmac_units::Seconds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(seed: u64, scheduling: WakeMode) -> SimConfig {
    SimConfig {
        duration: Seconds::new(60.0),
        sample_period: Seconds::new(15.0),
        warmup: Seconds::new(10.0),
        seed,
        scheduling,
    }
}

fn protocols() -> [Box<dyn SimProtocol>; 4] {
    [
        Box::new(XmacSim::new(Seconds::from_millis(100.0))),
        Box::new(DmacSim::new(Seconds::new(0.5))),
        Box::new(LmacSim {
            slot: Seconds::from_millis(10.0),
            frame_slots: 64,
        }),
        Box::new(ScpSim::new(Seconds::from_millis(250.0))),
    ]
}

/// Runs the unit-disk reference and the degenerate build over one
/// topology × protocol × mode cell.
fn assert_degenerate_cell(
    topo: &Topology,
    protocol: &dyn SimProtocol,
    cfg: SimConfig,
    label: &str,
) {
    let run = |channel: &dyn ChannelModel| build(topo, protocol, channel, cfg).run();
    let reference = run(&UnitDisk);
    // Capture off: no decode carries a SINR sample.
    assert!(reference
        .per_node()
        .iter()
        .all(|s| s.mean_sinr_db.is_none()));
    let degenerate = run(&SinrChannel::degenerate());
    assert_identical(&degenerate, &reference, &format!("{label} degenerate"));
}

#[test]
fn degenerate_channel_matches_unit_disk_on_ring_matrix() {
    for protocol in &protocols() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = Topology::ring_model(3, 4, &mut rng).expect("buildable ring");
        for mode in [WakeMode::Coarse, WakeMode::Dense] {
            assert_degenerate_cell(
                &topo,
                protocol.as_ref(),
                config(7, mode),
                &format!("{} ring {mode:?}", protocol.name()),
            );
        }
    }
}

#[test]
fn degenerate_channel_matches_unit_disk_on_disks() {
    let mut rng = StdRng::seed_from_u64(33);
    let topo = Topology::uniform_disk(30, 2.0, &mut rng).expect("connected disk");
    for protocol in &protocols() {
        assert_degenerate_cell(
            &topo,
            protocol.as_ref(),
            config(11, WakeMode::Coarse),
            &format!("{} disk", protocol.name()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random disk topologies and seeds: the degenerate channel must
    /// track the unit disk bit-for-bit wherever both build.
    #[test]
    fn degenerate_equivalence_holds_on_random_disks(
        topo_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
        dense in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(topo_seed);
        // Some draws disconnect; those cells simply don't exist.
        if let Ok(topo) = Topology::uniform_disk(20, 2.0, &mut rng) {
            let mode = if dense { WakeMode::Dense } else { WakeMode::Coarse };
            let protocol = XmacSim::new(Seconds::from_millis(100.0));
            let mut cfg = config(run_seed, mode);
            cfg.duration = Seconds::new(40.0);
            assert_degenerate_cell(
                &topo,
                &protocol,
                cfg,
                &format!("proptest topo={topo_seed} seed={run_seed} {mode:?}"),
            );
        }
    }
}

/// A protocol of idle nodes, for builds that only test the decode
/// graph.
#[derive(Debug)]
struct OneShot;

impl SimProtocol for OneShot {
    fn name(&self) -> &'static str {
        "oneshot"
    }
    fn build_nodes(
        &self,
        graph: &edmac_net::Graph,
        _tree: &RoutingTree,
        _config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
        Ok(graph
            .nodes()
            .map(|_| Box::new(Idle) as Box<dyn MacNode>)
            .collect())
    }
}

#[derive(Debug)]
struct Idle;

impl MacNode for Idle {
    fn start(&mut self, _: &mut edmac_sim::Ctx<'_>) {}
    fn on_timer(&mut self, _: &mut edmac_sim::Ctx<'_>, _: u32, _: u64) {}
    fn on_frame(&mut self, _: &mut edmac_sim::Ctx<'_>, _: &edmac_sim::Frame) {}
    fn on_tx_done(&mut self, _: &mut edmac_sim::Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut edmac_sim::Ctx<'_>, _: edmac_sim::Packet) {}
    fn on_radio_ready(&mut self, _: &mut edmac_sim::Ctx<'_>) {}
}

#[test]
fn degenerate_build_rejects_out_of_range_links_exactly_at_the_disk_radius() {
    // Two nodes exactly 1.0 apart are connected (inclusive disk), a
    // hair farther are not — on *both* builders, so the decode graphs
    // agree at the boundary the σ = 0 dB math must reproduce exactly.
    for (d, expect_ok) in [(1.0, true), (1.0 + 1e-9, false)] {
        let topo = Topology::from_positions(vec![
            edmac_net::Point2::new(0.0, 0.0),
            edmac_net::Point2::new(d, 0.0),
        ])
        .expect("two nodes always form a topology");
        let build = |channel: &dyn ChannelModel| {
            let network = CoexNetwork {
                topology: &topo,
                protocol: &OneShot,
            };
            Simulation::new(
                &[network],
                channel,
                Radio::cc2420(),
                FrameSizes::default(),
                config(1, WakeMode::Coarse),
            )
        };
        let disk = build(&UnitDisk);
        let degenerate = build(&SinrChannel::degenerate());
        assert_eq!(disk.is_ok(), expect_ok, "unit disk at d={d}");
        assert_eq!(degenerate.is_ok(), expect_ok, "degenerate at d={d}");
    }
}
