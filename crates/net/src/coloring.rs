//! Distance-2 graph coloring, the slot-assignment primitive of
//! frame-based (LMAC-style) protocols.
//!
//! LMAC gives every node a transmit slot such that no two nodes within
//! two hops share one — otherwise either two neighbors collide directly
//! or a common neighbor cannot tell the transmissions apart. That is
//! exactly a coloring of the square of the connectivity graph.

use crate::graph::{Graph, NodeId};
use rand::Rng;

/// A distance-2 coloring: a slot index per node such that any two nodes
/// within two hops differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<usize>,
    count: usize,
}

impl Coloring {
    /// The color (slot) of `node`.
    pub fn color(&self, node: NodeId) -> usize {
        self.colors[node.index()]
    }

    /// One past the highest color (slot index) used: the minimum LMAC
    /// frame length able to carry this assignment. For the contiguous
    /// colorings of [`distance_two_coloring`] this equals the number of
    /// distinct colors; [`random_slot_assignment`] may leave gaps.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Per-node colors, indexed by node.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Verifies the distance-2 property on `graph`.
    pub fn is_valid_for(&self, graph: &Graph) -> bool {
        graph.nodes().all(|u| {
            graph
                .neighborhood(u, 2)
                .iter()
                .all(|&v| self.colors[u.index()] != self.colors[v.index()])
        })
    }
}

/// Greedily colors `graph` so that nodes within two hops never share a
/// color.
///
/// Nodes are processed by descending 2-hop neighborhood size (ties by
/// id), each taking the smallest color unused in its 2-hop neighborhood
/// — the standard Welsh–Powell heuristic lifted to the square graph.
/// Deterministic, so simulations are reproducible.
///
/// # Examples
///
/// ```
/// use edmac_net::{distance_two_coloring, Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let coloring = distance_two_coloring(&g);
/// // A 2-hop path needs 3 distinct slots.
/// assert_eq!(coloring.count(), 3);
/// assert!(coloring.is_valid_for(&g));
/// ```
pub fn distance_two_coloring(graph: &Graph) -> Coloring {
    let n = graph.len();
    let neighborhoods: Vec<Vec<NodeId>> = graph.nodes().map(|u| graph.neighborhood(u, 2)).collect();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(neighborhoods[i].len()), i));

    const UNCOLORED: usize = usize::MAX;
    let mut colors = vec![UNCOLORED; n];
    let mut count = 0;
    for i in order {
        let mut used: Vec<bool> = vec![false; count + 1];
        for v in &neighborhoods[i] {
            let c = colors[v.index()];
            if c != UNCOLORED && c < used.len() {
                used[c] = true;
            }
        }
        let color = (0..)
            .find(|&c| c >= used.len() || !used[c])
            .expect("unbounded search");
        colors[i] = color;
        count = count.max(color + 1);
    }
    Coloring { colors, count }
}

/// Randomized distance-2 slot assignment into a fixed frame of `slots`
/// slots, LMAC-style: nodes (in random order) claim a uniformly random
/// slot unused within their 2-hop neighborhood.
///
/// This mirrors LMAC's distributed slot-claiming phase, where each node
/// picks at random among the slots it hears as free — unlike
/// [`distance_two_coloring`], which is a deterministic Welsh–Powell pass
/// that correlates slot numbers with node enumeration order and thereby
/// biases per-hop forwarding delays on symmetric topologies. Analytical
/// LMAC latency models assume the *average* half-frame wait per hop, so
/// simulations should use this assignment.
///
/// Deterministic for a given `rng` state. Returns `None` if some node
/// finds every slot of the frame occupied within two hops (the frame is
/// too short for the topology); retrying with a fresh `rng` draw may
/// still succeed, since feasibility depends on the random order.
pub fn random_slot_assignment<R: Rng + ?Sized>(
    graph: &Graph,
    slots: usize,
    rng: &mut R,
) -> Option<Coloring> {
    let n = graph.len();

    // Fisher–Yates over the claiming order.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }

    const UNCOLORED: usize = usize::MAX;
    let mut colors = vec![UNCOLORED; n];
    let mut count = 0;
    // `used[c] == claim`: slot `c` is taken within two hops of the
    // claim in progress (the claim counter stamps the mask, so it never
    // needs clearing).
    let mut used = vec![usize::MAX; slots];
    let mut free: Vec<usize> = Vec::with_capacity(slots);
    for (claim, &i) in order.iter().enumerate() {
        for &v in graph.neighbors(NodeId::new(i)) {
            for &w in std::iter::once(&v).chain(graph.neighbors(v)) {
                // The claimant itself, two hops from itself, is still
                // uncolored.
                let c = colors[w.index()];
                if c != UNCOLORED {
                    used[c] = claim;
                }
            }
        }
        free.clear();
        free.extend((0..slots).filter(|&c| used[c] != claim));
        if free.is_empty() {
            return None;
        }
        let color = free[rng.gen_range(0..free.len())];
        colors[i] = color;
        count = count.max(color + 1);
    }
    Some(Coloring { colors, count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::SeedableRng;

    #[test]
    fn path_graph_needs_three_colors() {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i));
        }
        let c = distance_two_coloring(&g);
        assert!(c.is_valid_for(&g));
        assert_eq!(c.count(), 3);
    }

    #[test]
    fn star_needs_degree_plus_one() {
        let mut g = Graph::with_nodes(6);
        for i in 1..6 {
            g.add_edge(NodeId::new(0), NodeId::new(i));
        }
        let c = distance_two_coloring(&g);
        assert!(c.is_valid_for(&g));
        // All leaves are within two hops of each other: 6 colors.
        assert_eq!(c.count(), 6);
    }

    #[test]
    fn isolated_nodes_share_one_color() {
        let g = Graph::with_nodes(4);
        let c = distance_two_coloring(&g);
        assert!(c.is_valid_for(&g));
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn ring_topology_coloring_is_valid_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let topo = Topology::ring_model(4, 3, &mut rng).unwrap();
        let g = topo.graph();
        let c = distance_two_coloring(&g);
        assert!(c.is_valid_for(&g));
        // Greedy uses at most (max 2-hop neighborhood) + 1 colors.
        let bound = g.nodes().map(|u| g.neighborhood(u, 2).len()).max().unwrap() + 1;
        assert!(c.count() <= bound, "{} > {bound}", c.count());
    }

    #[test]
    fn random_assignment_is_valid_and_fits_the_frame() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let topo = Topology::ring_model(4, 4, &mut rng).unwrap();
        let g = topo.graph();
        let c = random_slot_assignment(&g, 32, &mut rng).expect("32 slots fit");
        assert!(c.is_valid_for(&g));
        assert!(c.count() <= 32);
    }

    #[test]
    fn random_assignment_matches_a_scan_of_each_neighborhood() {
        // Each claim's free list, built from a mask, is the list a scan
        // of every slot against the 2-hop neighborhood gives, in the
        // same order, so the same draws pick the same slots.
        let scan = |graph: &Graph, slots: usize, rng: &mut rand::rngs::StdRng| {
            let n = graph.len();
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut colors = vec![usize::MAX; n];
            for i in order {
                let near = graph.neighborhood(NodeId::new(i), 2);
                let free: Vec<usize> = (0..slots)
                    .filter(|&c| near.iter().all(|v| colors[v.index()] != c))
                    .collect();
                if free.is_empty() {
                    return None;
                }
                colors[i] = free[rng.gen_range(0..free.len())];
            }
            Some(colors)
        };
        for seed in 0..6 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = Topology::uniform_disk(80, 2.5, &mut rng).unwrap().graph();
            for slots in [12, 24, 40] {
                let masked =
                    random_slot_assignment(&g, slots, &mut rand::rngs::StdRng::seed_from_u64(seed));
                let scanned = scan(&g, slots, &mut rand::rngs::StdRng::seed_from_u64(seed));
                assert_eq!(
                    masked.map(|c| c.colors),
                    scanned,
                    "seed {seed}, {slots} slots"
                );
            }
        }
    }

    #[test]
    fn random_assignment_fails_on_too_short_frames() {
        // A 6-star needs 6 distinct slots; 5 can never fit.
        let mut g = Graph::with_nodes(6);
        for i in 1..6 {
            g.add_edge(NodeId::new(0), NodeId::new(i));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(random_slot_assignment(&g, 5, &mut rng).is_none());
    }

    #[test]
    fn random_assignment_is_deterministic_per_seed() {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i));
        }
        let a = random_slot_assignment(&g, 8, &mut rand::rngs::StdRng::seed_from_u64(11));
        let b = random_slot_assignment(&g, 8, &mut rand::rngs::StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }

    #[test]
    fn coloring_is_deterministic() {
        let mut g = Graph::with_nodes(6);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(1), NodeId::new(2));
        g.add_edge(NodeId::new(2), NodeId::new(3));
        g.add_edge(NodeId::new(3), NodeId::new(4));
        g.add_edge(NodeId::new(4), NodeId::new(5));
        let a = distance_two_coloring(&g);
        let b = distance_two_coloring(&g);
        assert_eq!(a, b);
    }
}
