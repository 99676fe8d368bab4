//! Scripted nodes shared by the engine-level channel tests, and the
//! [`SimProtocol`] adapter that runs them through [`Simulation::new`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use edmac_net::{Graph, NetError, NodeId, RoutingTree, Topology};
use edmac_phy::ChannelModel;
use edmac_radio::{Cause, FrameSizes, Radio};
use edmac_sim::{
    CoexNetwork, Ctx, Frame, FrameKind, MacNode, Packet, SimConfig, SimProtocol, Simulation,
    WakeMode,
};
use edmac_units::Seconds;

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
    let network = CoexNetwork {
        topology: topo,
        protocol: &protocol,
    };
    Simulation::new(
        &[network],
        channel,
        Radio::cc2420(),
        FrameSizes::default(),
        quiet_config(),
    )
    .unwrap()
}
