//! Scripted nodes shared by the engine-level channel tests, the
//! [`SimProtocol`] adapter that runs them through [`Simulation::new`],
//! and the one report comparison the equivalence suites share.

// Each test crate includes this module and uses a different subset.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use edmac_net::{Graph, NetError, NodeId, RoutingTree, Topology};
use edmac_phy::{ChannelModel, SinrChannel, UnitDisk};
use edmac_radio::{Cause, FrameSizes, Radio};
use edmac_sim::{
    CoexNetwork, Ctx, Frame, FrameKind, MacNode, Packet, SimConfig, SimProtocol, SimReport,
    Simulation, WakeMode,
};
use edmac_units::Seconds;

/// Asserts that two reports agree on everything they expose, bit for
/// bit: protocol, configuration, every per-node field (each f64 by its
/// bits, `mean_sinr_db` included) and every packet record. The one
/// exception is the wake mode in the configuration, which records the
/// mode that ran and so differs legitimately between a coarse and a
/// dense run of one scenario.
pub fn assert_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.protocol(), b.protocol(), "{label}: protocol");
    let config = SimConfig {
        scheduling: b.config().scheduling,
        ..a.config()
    };
    assert_eq!(config, b.config(), "{label}: config");
    assert_eq!(
        a.per_node().len(),
        b.per_node().len(),
        "{label}: node count"
    );
    for (sa, sb) in a.per_node().iter().zip(b.per_node()) {
        let node = sa.node;
        assert_eq!(node, sb.node, "{label}");
        assert_eq!(sa.depth, sb.depth, "{label}: node {node} depth");
        assert_eq!(sa.counters, sb.counters, "{label}: node {node}");
        assert_eq!(
            sa.busy.value().to_bits(),
            sb.busy.value().to_bits(),
            "{label}: node {node} busy {} vs {}",
            sa.busy,
            sb.busy
        );
        for cause in Cause::ALL {
            let (ea, eb) = (sa.breakdown.get(cause), sb.breakdown.get(cause));
            assert_eq!(
                ea.value().to_bits(),
                eb.value().to_bits(),
                "{label}: node {node} {cause} energy {ea} vs {eb}"
            );
        }
        assert_eq!(
            sa.mean_sinr_db.map(f64::to_bits),
            sb.mean_sinr_db.map(f64::to_bits),
            "{label}: node {node} mean SINR {:?} vs {:?}",
            sa.mean_sinr_db,
            sb.mean_sinr_db
        );
    }
    assert_eq!(a.records().len(), b.records().len(), "{label}: records");
    for (ra, rb) in a.records().iter().zip(b.records()) {
        assert_eq!(ra, rb, "{label}: packet record");
    }
}

/// A node that wakes shortly before `tx_at` and transmits one data
/// frame to `dst` at exactly that time; otherwise it sleeps.
#[derive(Debug)]
pub struct Talker {
    pub tx_at: Seconds,
    pub dst: NodeId,
}

impl MacNode for Talker {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let wake_at = self.tx_at - ctx.startup_delay();
        ctx.set_timer(wake_at, 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, _id: u64) {
        if tag == 1 {
            ctx.wake(Cause::DataTx);
        }
    }
    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
        let packet = Packet {
            id: edmac_sim::PacketId(999),
            origin: ctx.me(),
            created: ctx.now(),
            hops: 0,
        };
        ctx.send(FrameKind::Data, Some(self.dst), Some(packet));
    }
    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        ctx.sleep();
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
}

/// A node that listens from `from` onward (forever) and, given a
/// counter, counts the frames its MAC layer is actually handed.
#[derive(Debug)]
pub struct Listener {
    pub from: Seconds,
    pub delivered: Option<Arc<AtomicU64>>,
}

impl Listener {
    pub fn new(from: f64) -> Listener {
        Listener {
            from: Seconds::new(from),
            delivered: None,
        }
    }
}

impl MacNode for Listener {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.from, 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, _id: u64) {
        if tag == 1 {
            ctx.wake(Cause::CarrierSense);
        }
    }
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {
        if let Some(hits) = &self.delivered {
            hits.fetch_add(1, Ordering::SeqCst);
        }
    }
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
}

/// A node that does nothing at all (stays asleep).
#[derive(Debug)]
pub struct Mute;

impl MacNode for Mute {
    fn start(&mut self, _: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u32, _: u64) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

/// Five quiet seconds: the sample period is far past the horizon, so
/// only the scripted nodes transmit.
pub fn quiet_config() -> SimConfig {
    SimConfig {
        duration: Seconds::new(5.0),
        sample_period: Seconds::new(1_000.0),
        warmup: Seconds::ZERO,
        seed: 0,
        scheduling: WakeMode::Coarse,
    }
}

/// A scripted protocol: `make` builds each node from its index within
/// the network.
pub struct ScriptedNet {
    pub label: &'static str,
    pub make: Box<dyn Fn(usize) -> Box<dyn MacNode> + Send + Sync>,
}

impl std::fmt::Debug for ScriptedNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScriptedNet({})", self.label)
    }
}

impl SimProtocol for ScriptedNet {
    fn name(&self) -> &'static str {
        self.label
    }
    fn build_nodes(
        &self,
        graph: &Graph,
        _tree: &RoutingTree,
        _config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
        Ok(graph.nodes().map(|u| (self.make)(u.index())).collect())
    }
}

/// One network of scripted nodes on `channel`, under [`quiet_config`].
pub fn scripted(
    topo: &Topology,
    channel: &dyn ChannelModel,
    make: impl Fn(usize) -> Box<dyn MacNode> + Send + Sync + 'static,
) -> Simulation {
    let protocol = ScriptedNet {
        label: "scripted",
        make: Box::new(make),
    };
    build(topo, &protocol, channel, quiet_config())
}

/// One network of `protocol` over `topo` on `channel`, with the CC2420
/// radio and default frames.
pub fn build(
    topo: &Topology,
    protocol: &dyn SimProtocol,
    channel: &dyn ChannelModel,
    cfg: SimConfig,
) -> Simulation {
    let network = CoexNetwork {
        topology: topo,
        protocol,
    };
    Simulation::new(
        &[network],
        channel,
        Radio::cc2420(),
        FrameSizes::default(),
        cfg,
    )
    .expect("buildable network")
}

/// The channels the single-network equivalence matrices run on: the
/// unit disk, and the degenerate SINR field that realizes the same
/// links over path-loss powers.
pub fn channels() -> [Box<dyn ChannelModel>; 2] {
    [Box::new(UnitDisk), Box::new(SinrChannel::degenerate())]
}
