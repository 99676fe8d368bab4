//! The simulator's open protocol surface: [`SimProtocol`]
//! configurations that build per-node state machines.
//!
//! Until the `ProtocolSuite` redesign the engine owned a closed
//! `ProtocolConfig` enum and matched on it inside its constructor,
//! so adding a protocol meant editing the engine. The construction
//! logic now lives with each protocol's configuration struct behind an
//! object-safe trait; the engine only asks for the node vector, the
//! display name, and whether the protocol ever samples the channel.
//! Downstream crates implement [`SimProtocol`] on their own types to
//! run new MAC protocols on the same channel, radio, and traffic
//! substrate (see `edmac-proto`'s CSMA suite for a complete external
//! example).

use crate::engine::{MacNode, SimConfig};
use crate::protocols;
use edmac_net::{distance_two_coloring, random_slot_assignment, Graph, NetError, RoutingTree};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A protocol configuration the engine can instantiate: everything
/// [`Simulation::new`](crate::Simulation::new) needs to turn a
/// routed topology into per-node state machines.
///
/// Object-safe and `Send + Sync`: configurations are plain data, so
/// panels of `Box<dyn SimProtocol>` can be shared across study worker
/// threads even though the built [`MacNode`]s themselves stay on the
/// thread that runs the simulation.
pub trait SimProtocol: std::fmt::Debug + Send + Sync {
    /// The protocol's display name (also the label in [`SimReport`]).
    ///
    /// [`SimReport`]: crate::SimReport
    fn name(&self) -> &'static str;

    /// `true` when every node of this protocol *never* samples the
    /// channel (no CCA). Where the channel has capture off and every
    /// air link is a decode edge of one network, the engine then leaves
    /// receivers that are asleep when a frame starts out of that
    /// transmission's air batch — the only observable residue of
    /// delivering it to them would be the on-air count the CCA
    /// primitive reads.
    fn cca_free(&self) -> bool {
        false
    }

    /// Builds one [`MacNode`] per node of `graph`, in node order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] when the configuration
    /// cannot cover the topology (e.g. a TDMA frame smaller than the
    /// distance-2 chromatic need).
    fn build_nodes(
        &self,
        graph: &Graph,
        tree: &RoutingTree,
        config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError>;
}

/// X-MAC low-power listening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XmacSim {
    /// Wake-up (channel check) interval `Tw`.
    pub wakeup_interval: Seconds,
    /// Listen duration of one poll.
    pub poll_listen: Seconds,
    /// Retransmission attempts per packet before dropping it.
    pub max_retries: u32,
}

impl XmacSim {
    /// X-MAC with standard structural constants (2.5 ms polls, 5
    /// retries).
    pub fn new(wakeup_interval: Seconds) -> XmacSim {
        XmacSim {
            wakeup_interval,
            poll_listen: Seconds::from_millis(2.5),
            max_retries: 5,
        }
    }
}

impl SimProtocol for XmacSim {
    fn name(&self) -> &'static str {
        "X-MAC"
    }

    fn build_nodes(
        &self,
        graph: &Graph,
        _tree: &RoutingTree,
        config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
        Ok(graph
            .nodes()
            .map(|_| {
                Box::new(protocols::xmac::XmacNode::new(
                    self.wakeup_interval,
                    self.poll_listen,
                    self.max_retries,
                    config.scheduling,
                )) as Box<dyn MacNode>
            })
            .collect())
    }
}

/// DMAC staggered slot ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmacSim {
    /// Cycle period `T` between ladder sweeps.
    pub cycle: Seconds,
    /// Slot length `μ`.
    pub slot: Seconds,
    /// Contention window at the head of the transmit slot.
    pub contention_window: Seconds,
}

impl DmacSim {
    /// DMAC with standard structural constants (8 ms slots, 5 ms
    /// contention window — wider than a data airtime, so contenders
    /// that can hear each other resolve by CCA and hidden pairs at
    /// least sometimes miss each other).
    pub fn new(cycle: Seconds) -> DmacSim {
        DmacSim {
            cycle,
            slot: Seconds::from_millis(8.0),
            contention_window: Seconds::from_millis(5.0),
        }
    }
}

impl SimProtocol for DmacSim {
    fn name(&self) -> &'static str {
        "DMAC"
    }

    fn build_nodes(
        &self,
        graph: &Graph,
        tree: &RoutingTree,
        config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
        Ok(graph
            .nodes()
            .map(|u| {
                let has_children = !tree.children(u).is_empty();
                Box::new(protocols::dmac::DmacNode::new(
                    self.cycle,
                    self.slot,
                    self.contention_window,
                    has_children,
                    config.scheduling,
                )) as Box<dyn MacNode>
            })
            .collect())
    }
}

/// LMAC TDMA frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmacSim {
    /// Slot length `Ts`.
    pub slot: Seconds,
    /// Slots per frame `N`; must cover the topology's distance-2
    /// chromatic need.
    pub frame_slots: usize,
}

impl LmacSim {
    /// LMAC with a 24-slot frame (double the distance-2 chromatic
    /// need of reference-density deployments; matches the analytical
    /// model's default).
    pub fn new(slot: Seconds) -> LmacSim {
        LmacSim {
            slot,
            frame_slots: 24,
        }
    }
}

impl SimProtocol for LmacSim {
    fn name(&self) -> &'static str {
        "LMAC"
    }

    fn cca_free(&self) -> bool {
        true
    }

    fn build_nodes(
        &self,
        graph: &Graph,
        tree: &RoutingTree,
        config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
        let frame_slots = self.frame_slots;
        // LMAC's slot-claiming phase picks random free slots; a
        // dedicated stream (decoupled from the run's event RNG)
        // keeps slot layouts and packet arrivals independent.
        let mut slot_rng = StdRng::seed_from_u64(config.seed ^ 0x1b873593);
        let coloring =
            match (0..16).find_map(|_| random_slot_assignment(graph, frame_slots, &mut slot_rng)) {
                Some(coloring) => coloring,
                None => {
                    // Random claiming can dead-end on frames close
                    // to the chromatic need even when an assignment
                    // exists; the deterministic Welsh–Powell pass
                    // settles feasibility (at the cost of a slot
                    // layout correlated with node order).
                    let greedy = distance_two_coloring(graph);
                    if greedy.count() > frame_slots {
                        return Err(NetError::InvalidParameter {
                            name: "frame_slots",
                            reason: format!(
                                "topology needs {} distance-2 slots but the frame \
                                 has {frame_slots}",
                                greedy.count()
                            ),
                        });
                    }
                    greedy
                }
            };
        Ok(graph
            .nodes()
            .map(|u| {
                // Classify this node's slot indices. Simulated
                // wakes are needed only where the outcome is
                // data-dependent: the own slot and the slots of
                // tree children (their control may name us as
                // data addressee). A non-child neighbor's slot
                // is deterministic — distance-2 reuse leaves
                // exactly one in-range owner, the owner always
                // transmits its control, and its addressee can
                // only be the owner's parent — so it replays as
                // a heard control. Slots with no in-range owner
                // replay as provable silence.
                let mut child_owners = vec![None; frame_slots];
                for &v in tree.children(u) {
                    child_owners[coloring.color(v)] = Some(v);
                }
                let mut heard_slots = vec![false; frame_slots];
                for &v in graph.neighbors(u) {
                    let c = coloring.color(v);
                    if child_owners[c].is_none() {
                        heard_slots[c] = true;
                    }
                }
                Box::new(protocols::lmac::LmacNode::new(
                    self.slot,
                    frame_slots,
                    coloring.color(u),
                    child_owners,
                    heard_slots,
                    config.scheduling,
                )) as Box<dyn MacNode>
            })
            .collect())
    }
}

/// SCP-MAC scheduled channel polling (the extension protocol).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScpSim {
    /// Poll period `Tp` (all nodes share the schedule).
    pub poll_interval: Seconds,
    /// Listen duration of one poll.
    pub poll_listen: Seconds,
    /// Interval between schedule-maintenance broadcasts.
    pub sync_period: Seconds,
}

impl ScpSim {
    /// SCP-MAC with standard structural constants (2.5 ms polls, 60 s
    /// sync period).
    pub fn new(poll_interval: Seconds) -> ScpSim {
        ScpSim {
            poll_interval,
            poll_listen: Seconds::from_millis(2.5),
            sync_period: Seconds::new(60.0),
        }
    }
}

impl SimProtocol for ScpSim {
    fn name(&self) -> &'static str {
        "SCP-MAC"
    }

    fn build_nodes(
        &self,
        graph: &Graph,
        _tree: &RoutingTree,
        _config: &SimConfig,
    ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
        Ok(graph
            .nodes()
            .map(|_| {
                Box::new(protocols::scp::ScpNode::new(
                    self.poll_interval,
                    self.poll_listen,
                    self.sync_period,
                )) as Box<dyn MacNode>
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_constructors_fill_structural_constants() {
        let x = XmacSim::new(Seconds::from_millis(100.0));
        assert_eq!(x.poll_listen, Seconds::from_millis(2.5));
        assert_eq!(x.max_retries, 5);
        let d = DmacSim::new(Seconds::new(0.5));
        assert_eq!(d.slot, Seconds::from_millis(8.0));
        let l = LmacSim::new(Seconds::from_millis(10.0));
        assert_eq!(l.frame_slots, 24);
        let s = ScpSim::new(Seconds::from_millis(250.0));
        assert_eq!(s.sync_period, Seconds::new(60.0));
    }

    #[test]
    fn only_lmac_is_cca_free() {
        let panel: [&dyn SimProtocol; 4] = [
            &XmacSim::new(Seconds::from_millis(100.0)),
            &DmacSim::new(Seconds::new(0.5)),
            &LmacSim::new(Seconds::from_millis(10.0)),
            &ScpSim::new(Seconds::from_millis(250.0)),
        ];
        let cca_free: Vec<bool> = panel.iter().map(|p| p.cca_free()).collect();
        assert_eq!(cca_free, [false, false, true, false]);
    }

    #[test]
    fn trait_objects_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn SimProtocol>();
        assert_send_sync::<Box<dyn SimProtocol>>();
    }
}
