//! Per-ring and per-node traffic flows.

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::rings::RingModel;
use crate::tree::RoutingTree;
use edmac_units::Hertz;

/// The analytic traffic model over a [`RingModel`]: every node samples at
/// `Fs` and forwards toward the sink over the spanning tree.
///
/// All flows are in packets per second. With `N(d) = C(2d−1)` nodes in
/// ring `d` and `C(D²−(d−1)²)` nodes at or beyond it, a ring-`d` node
/// carries (per the paper / Langendoen & Meier):
///
/// * `F_out(d) = Fs · (D²−(d−1)²)/(2d−1)` — everything it originates or
///   forwards;
/// * `F_I(d) = Fs · (D²−d²)/(2d−1)` — what it receives from children,
///   so that `F_out(d) − F_I(d) = Fs` exactly (its own samples);
/// * `F_B(d) = C · F_out(d)` — transmissions within hearing range: a
///   unit disk around the node contains `C` other nodes with (to first
///   order) the same forwarding load;
/// * `I(d)` — tree children, from [`RingModel::input_links`].
///
/// # Examples
///
/// ```
/// use edmac_net::{RingModel, RingTraffic};
/// use edmac_units::Hertz;
///
/// let t = RingTraffic::new(RingModel::new(5, 4).unwrap(), Hertz::new(0.1));
/// let out = t.f_out(2).unwrap().value();
/// let fin = t.f_in(2).unwrap().value();
/// assert!((out - fin - 0.1).abs() < 1e-12); // own sampling rate
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingTraffic {
    model: RingModel,
    fs: Hertz,
}

impl RingTraffic {
    /// Creates the traffic model for sampling rate `fs`.
    pub fn new(model: RingModel, fs: Hertz) -> RingTraffic {
        RingTraffic { model, fs }
    }

    /// The underlying ring model.
    pub fn model(&self) -> RingModel {
        self.model
    }

    /// The application sampling rate `Fs`.
    pub fn fs(&self) -> Hertz {
        self.fs
    }

    /// Outbound packet rate `F_out(d)` of a ring-`d` node.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RingOutOfRange`] for an invalid ring.
    pub fn f_out(&self, d: usize) -> Result<Hertz, NetError> {
        let beyond = self.model.nodes_at_or_beyond(d)? as f64;
        let in_ring = self.model.nodes_in_ring(d)? as f64;
        Ok(self.fs * (beyond / in_ring))
    }

    /// Inbound (forwarded) packet rate `F_I(d)` of a ring-`d` node.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RingOutOfRange`] for an invalid ring.
    pub fn f_in(&self, d: usize) -> Result<Hertz, NetError> {
        Ok(self.f_out(d)? - self.fs)
    }

    /// Background rate `F_B(d)`: transmissions a ring-`d` node can hear
    /// but is not party to.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RingOutOfRange`] for an invalid ring.
    pub fn f_bg(&self, d: usize) -> Result<Hertz, NetError> {
        Ok(self.f_out(d)? * self.model.density() as f64)
    }

    /// Average number of tree children `I(d)` of a ring-`d` node.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RingOutOfRange`] for an invalid ring.
    pub fn input_links(&self, d: usize) -> Result<f64, NetError> {
        self.model.input_links(d)
    }

    /// The ring with the highest forwarding load (always ring 1: it
    /// relays the entire network).
    pub fn bottleneck_ring(&self) -> usize {
        1
    }
}

/// Per-node traffic flows on an explicit [`RoutingTree`], the simulator's
/// ground truth counterpart of [`RingTraffic`].
///
/// # Examples
///
/// ```
/// use edmac_net::{Graph, NodeId, RoutingTree, TreeTraffic};
/// use edmac_units::Hertz;
///
/// // 0 (sink) - 1 - 2: node 1 forwards node 2's samples plus its own.
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let tree = RoutingTree::shortest_path(&g, NodeId::new(0)).unwrap();
/// let t = TreeTraffic::from_tree(&g, &tree, Hertz::new(1.0));
/// assert_eq!(t.f_out(NodeId::new(1)).value(), 2.0);
/// assert_eq!(t.f_in(NodeId::new(1)).value(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TreeTraffic {
    fs: Hertz,
    f_out: Vec<Hertz>,
    f_in: Vec<Hertz>,
    f_bg: Vec<Hertz>,
    children: Vec<usize>,
}

impl TreeTraffic {
    /// Computes flows for every node of `tree` when all non-sink nodes
    /// sample at `fs`.
    pub fn from_tree(graph: &Graph, tree: &RoutingTree, fs: Hertz) -> TreeTraffic {
        TreeTraffic::with_rates(graph, tree, fs, &vec![fs; graph.len()])
    }

    /// Computes flows when node `u` samples at `rates[u]` (the sink's
    /// entry is ignored) — the non-uniform generalization behind
    /// hotspot and event-burst traffic patterns. `fs` is kept as the
    /// nominal rate reported by [`TreeTraffic::fs`].
    ///
    /// # Panics
    ///
    /// Panics if `rates` does not cover every node.
    pub fn with_rates(
        graph: &Graph,
        tree: &RoutingTree,
        fs: Hertz,
        rates: &[Hertz],
    ) -> TreeTraffic {
        let n = graph.len();
        assert_eq!(rates.len(), n, "one sampling rate per node");
        let sink = tree.sink();
        let mut f_out = vec![Hertz::ZERO; n];
        let mut f_in = vec![Hertz::ZERO; n];
        let mut children = vec![0usize; n];
        // Subtree generation sums, leaves inward: nodes sorted by
        // decreasing depth see all their children before themselves.
        let mut order: Vec<NodeId> = graph.nodes().collect();
        order.sort_by_key(|&u| std::cmp::Reverse(tree.depth(u)));
        for &node in &order {
            if node == sink {
                continue;
            }
            let forwarded: f64 = tree
                .children(node)
                .iter()
                .map(|&c| f_out[c.index()].value())
                .sum();
            f_in[node.index()] = Hertz::new(forwarded);
            f_out[node.index()] = Hertz::new(forwarded + rates[node.index()].value());
        }
        for node in graph.nodes() {
            children[node.index()] = tree.children(node).len();
        }
        let mut f_bg = vec![Hertz::ZERO; n];
        for node in graph.nodes() {
            let heard: f64 = graph
                .neighbors(node)
                .iter()
                .map(|&v| f_out[v.index()].value())
                .sum();
            f_bg[node.index()] = Hertz::new(heard);
        }
        TreeTraffic {
            fs,
            f_out,
            f_in,
            f_bg,
            children,
        }
    }

    /// The application sampling rate.
    pub fn fs(&self) -> Hertz {
        self.fs
    }

    /// Outbound packet rate of `node`.
    pub fn f_out(&self, node: NodeId) -> Hertz {
        self.f_out[node.index()]
    }

    /// Inbound (forwarded) packet rate of `node`.
    pub fn f_in(&self, node: NodeId) -> Hertz {
        self.f_in[node.index()]
    }

    /// Rate of transmissions within hearing range of `node` (including
    /// those addressed to it).
    pub fn f_bg(&self, node: NodeId) -> Hertz {
        self.f_bg[node.index()]
    }

    /// Number of tree children of `node`.
    pub fn children(&self, node: NodeId) -> usize {
        self.children[node.index()]
    }

    /// The node with the highest outbound rate (the bottleneck).
    pub fn bottleneck(&self) -> Option<NodeId> {
        (0..self.f_out.len())
            .max_by(|&a, &b| {
                self.f_out[a]
                    .value()
                    .partial_cmp(&self.f_out[b].value())
                    .expect("rates are finite")
            })
            .map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edmac_units::Seconds;

    fn model(d: usize, c: usize, fs: f64) -> RingTraffic {
        RingTraffic::new(RingModel::new(d, c).unwrap(), Hertz::new(fs))
    }

    #[test]
    fn ring_one_forwards_whole_network() {
        let t = model(8, 4, 1.0 / 60.0);
        // F_out(1) = Fs * D^2.
        assert!((t.f_out(1).unwrap().value() - 64.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn outermost_ring_only_originates() {
        let t = model(5, 3, 0.2);
        assert!((t.f_out(5).unwrap().value() - 0.2).abs() < 1e-12);
        assert!(t.f_in(5).unwrap().value().abs() < 1e-12);
        assert_eq!(t.input_links(5).unwrap(), 0.0);
    }

    #[test]
    fn flow_conservation_own_traffic() {
        let t = model(6, 4, 0.05);
        for d in 1..=6 {
            let diff = t.f_out(d).unwrap().value() - t.f_in(d).unwrap().value();
            assert!((diff - 0.05).abs() < 1e-12, "ring {d}");
        }
    }

    #[test]
    fn flow_conservation_across_rings() {
        // Total traffic received by ring d equals total sent by ring d+1.
        let t = model(7, 2, 0.1);
        let net = t.model();
        for d in 1..7 {
            let received = t.f_in(d).unwrap().value() * net.nodes_in_ring(d).unwrap() as f64;
            let sent = t.f_out(d + 1).unwrap().value() * net.nodes_in_ring(d + 1).unwrap() as f64;
            assert!((received - sent).abs() < 1e-9, "rings {d}/{}", d + 1);
        }
    }

    #[test]
    fn background_scales_with_density() {
        let lo = model(4, 2, 0.1);
        let hi = model(4, 8, 0.1);
        assert!(hi.f_bg(2).unwrap() > lo.f_bg(2).unwrap());
    }

    #[test]
    fn monotone_decreasing_outward() {
        let t = model(10, 4, 0.5);
        for d in 1..10 {
            assert!(
                t.f_out(d).unwrap() > t.f_out(d + 1).unwrap(),
                "load must shrink outward at ring {d}"
            );
        }
    }

    #[test]
    fn tree_traffic_on_star() {
        // Sink 0 with three leaves.
        let mut g = Graph::with_nodes(4);
        for i in 1..4 {
            g.add_edge(NodeId::new(0), NodeId::new(i));
        }
        let tree = RoutingTree::shortest_path(&g, NodeId::new(0)).unwrap();
        let fs = Hertz::per_interval(Seconds::new(10.0));
        let t = TreeTraffic::from_tree(&g, &tree, fs);
        for i in 1..4 {
            assert_eq!(t.f_out(NodeId::new(i)).value(), fs.value());
            assert_eq!(t.f_in(NodeId::new(i)).value(), 0.0);
            assert_eq!(t.children(NodeId::new(i)), 0);
        }
        assert_eq!(t.children(NodeId::new(0)), 3);
        assert_eq!(t.f_out(NodeId::new(0)).value(), 0.0);
        // The sink hears all three leaves.
        assert!((t.f_bg(NodeId::new(0)).value() - 3.0 * fs.value()).abs() < 1e-12);
    }

    #[test]
    fn tree_bottleneck_is_most_loaded() {
        // Chain 0-1-2-3 plus leaf 4 on node 1.
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(1), NodeId::new(2));
        g.add_edge(NodeId::new(2), NodeId::new(3));
        g.add_edge(NodeId::new(1), NodeId::new(4));
        let tree = RoutingTree::shortest_path(&g, NodeId::new(0)).unwrap();
        let t = TreeTraffic::from_tree(&g, &tree, Hertz::new(1.0));
        assert_eq!(t.bottleneck(), Some(NodeId::new(1)));
        assert_eq!(t.f_out(NodeId::new(1)).value(), 4.0);
    }
}
