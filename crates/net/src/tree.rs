//! Shortest-path spanning trees toward the sink.

use crate::error::NetError;
use crate::graph::{Graph, NodeId};

/// A shortest-path spanning tree rooted at the sink, the routing
/// structure both the paper's model and the simulator forward over.
///
/// Parent selection is deterministic: among the neighbors one hop closer
/// to the sink, the lowest-numbered node wins. Determinism matters — it
/// makes simulated topologies and therefore whole experiments
/// reproducible from a seed.
///
/// # Examples
///
/// ```
/// use edmac_net::{Graph, NodeId, RoutingTree};
///
/// let mut g = Graph::with_nodes(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// g.add_edge(NodeId::new(1), NodeId::new(3));
/// let tree = RoutingTree::shortest_path(&g, NodeId::new(0)).unwrap();
/// assert_eq!(tree.parent(NodeId::new(2)), Some(NodeId::new(1)));
/// assert_eq!(tree.depth(NodeId::new(3)), 2);
/// assert_eq!(tree.subtree_size(NodeId::new(1)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTree {
    sink: NodeId,
    parent: Vec<Option<NodeId>>,
    depth: Vec<usize>,
    children: Vec<Vec<NodeId>>,
    subtree: Vec<usize>,
}

impl RoutingTree {
    /// Builds the shortest-path tree of `graph` rooted at `sink`.
    ///
    /// # Errors
    ///
    /// * [`NetError::NodeOutOfRange`] if `sink` is not in the graph.
    /// * [`NetError::Disconnected`] if some node cannot reach the sink.
    pub fn shortest_path(graph: &Graph, sink: NodeId) -> Result<RoutingTree, NetError> {
        if sink.index() >= graph.len() {
            return Err(NetError::NodeOutOfRange {
                node: sink,
                len: graph.len(),
            });
        }
        graph.check_connected(sink)?;
        let dist = graph.bfs_distances(sink);
        let depth: Vec<usize> = dist
            .iter()
            .map(|d| d.expect("connectivity checked above"))
            .collect();

        let mut parent = vec![None; graph.len()];
        let mut children = vec![Vec::new(); graph.len()];
        for node in graph.nodes() {
            if node == sink {
                continue;
            }
            let p = graph
                .neighbors(node)
                .iter()
                .copied()
                .filter(|&v| depth[v.index()] + 1 == depth[node.index()])
                .min()
                .expect("every non-sink node has a closer neighbor in a connected graph");
            parent[node.index()] = Some(p);
            children[p.index()].push(node);
        }
        for list in &mut children {
            list.sort();
        }

        // Subtree sizes by processing nodes deepest-first.
        let mut order: Vec<NodeId> = graph.nodes().collect();
        order.sort_by_key(|n| std::cmp::Reverse(depth[n.index()]));
        let mut subtree = vec![1usize; graph.len()];
        for node in order {
            if let Some(p) = parent[node.index()] {
                subtree[p.index()] += subtree[node.index()];
            }
        }

        Ok(RoutingTree {
            sink,
            parent,
            depth,
            children,
            subtree,
        })
    }

    /// The sink (root) of the tree.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Number of nodes (including the sink).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The next hop toward the sink, `None` for the sink itself.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Hop distance from `node` to the sink.
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()]
    }

    /// The tree children of `node`, sorted by id.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Size of the subtree rooted at `node`, including the node.
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.subtree[node.index()]
    }

    /// The deepest hop count in the tree (`D` in the ring model).
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// All nodes at exactly `depth` hops.
    pub fn ring(&self, depth: usize) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&i| self.depth[i] == depth)
            .map(NodeId::new)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 is the sink; 1,2 at depth 1; 3,4,5 at depth 2 (4 has two
    /// candidate parents and must pick the lower-numbered one).
    fn diamond() -> (Graph, RoutingTree) {
        let mut g = Graph::with_nodes(6);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(0), NodeId::new(2));
        g.add_edge(NodeId::new(1), NodeId::new(3));
        g.add_edge(NodeId::new(1), NodeId::new(4));
        g.add_edge(NodeId::new(2), NodeId::new(4));
        g.add_edge(NodeId::new(2), NodeId::new(5));
        let t = RoutingTree::shortest_path(&g, NodeId::new(0)).unwrap();
        (g, t)
    }

    #[test]
    fn parents_point_toward_sink() {
        let (_, t) = diamond();
        assert_eq!(t.parent(NodeId::new(0)), None);
        assert_eq!(
            t.parent(NodeId::new(4)),
            Some(NodeId::new(1)),
            "ties break low"
        );
        for i in 1..6 {
            let n = NodeId::new(i);
            let p = t.parent(n).unwrap();
            assert_eq!(t.depth(p) + 1, t.depth(n));
        }
    }

    #[test]
    fn subtree_sizes_are_consistent() {
        let (_, t) = diamond();
        assert_eq!(t.subtree_size(NodeId::new(0)), 6);
        assert_eq!(t.subtree_size(NodeId::new(1)), 3);
        assert_eq!(t.subtree_size(NodeId::new(2)), 2);
        for i in 3..6 {
            assert_eq!(t.subtree_size(NodeId::new(i)), 1);
        }
    }

    #[test]
    fn rings_partition_nodes() {
        let (_, t) = diamond();
        assert_eq!(t.ring(0), vec![NodeId::new(0)]);
        assert_eq!(t.ring(1), vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(
            t.ring(2),
            vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)]
        );
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        assert!(matches!(
            RoutingTree::shortest_path(&g, NodeId::new(0)),
            Err(NetError::Disconnected { .. })
        ));
    }

    #[test]
    fn sink_out_of_range_is_rejected() {
        let g = Graph::with_nodes(2);
        assert!(matches!(
            RoutingTree::shortest_path(&g, NodeId::new(7)),
            Err(NetError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn children_are_inverse_of_parent() {
        let (g, t) = diamond();
        for node in g.nodes() {
            for &c in t.children(node) {
                assert_eq!(t.parent(c), Some(node));
            }
        }
    }
}
