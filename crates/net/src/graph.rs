//! Undirected connectivity graphs over node identifiers.

use crate::error::NetError;

/// Identifier of a node within one topology.
///
/// A newtype rather than a bare `usize` so node indices cannot be mixed
/// up with ring indices, slot numbers or packet counts ([C-NEWTYPE]).
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates an identifier from a raw index.
    pub const fn new(index: usize) -> NodeId {
        NodeId(index)
    }

    /// Returns the raw index (for indexing per-node vectors).
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected graph stored as adjacency lists.
///
/// # Examples
///
/// ```
/// use edmac_net::{Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// let hops = g.bfs_distances(NodeId::new(0));
/// assert_eq!(hops[2], Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Graph {
        Graph {
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Iterates over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }

    /// Adds an undirected edge. Self-loops and duplicate edges are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(
            a.index() < self.len() && b.index() < self.len(),
            "edge endpoint out of range"
        );
        if a == b || self.adjacency[a.index()].contains(&b) {
            return;
        }
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
    }

    /// The neighbors of `node`, in insertion order.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// The degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Breadth-first hop distances from `source`; `None` marks
    /// unreachable nodes.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        if source.index() >= self.len() {
            return dist;
        }
        let mut queue = std::collections::VecDeque::new();
        dist[source.index()] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &v in self.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Checks that every node can reach `source`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] naming one unreachable node.
    pub fn check_connected(&self, source: NodeId) -> Result<(), NetError> {
        let dist = self.bfs_distances(source);
        match dist.iter().position(Option::is_none) {
            None => Ok(()),
            Some(i) => Err(NetError::Disconnected {
                unreachable: NodeId::new(i),
            }),
        }
    }

    /// The set of nodes within `radius` hops of `node` (excluding the
    /// node itself), used for distance-2 coloring.
    pub fn neighborhood(&self, node: NodeId, radius: usize) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        seen[node.index()] = true;
        let mut frontier = vec![node];
        let mut out = Vec::new();
        for _ in 0..radius {
            let mut next = Vec::new();
            for u in frontier {
                for &v in self.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        out.push(v);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i));
        }
        g
    }

    #[test]
    fn duplicate_and_self_edges_are_ignored() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(1), NodeId::new(0));
        g.add_edge(NodeId::new(0), NodeId::new(0));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn bfs_on_path_counts_hops() {
        let g = path_graph(5);
        let d = g.bfs_distances(NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        let d = g.bfs_distances(NodeId::new(0));
        assert_eq!(d[2], None);
        let err = g.check_connected(NodeId::new(0)).unwrap_err();
        assert_eq!(
            err,
            NetError::Disconnected {
                unreachable: NodeId::new(2)
            }
        );
    }

    #[test]
    fn connected_graph_passes_check() {
        assert!(path_graph(4).check_connected(NodeId::new(2)).is_ok());
    }

    #[test]
    fn neighborhood_radius_two() {
        let g = path_graph(6);
        let mut n2 = g.neighborhood(NodeId::new(2), 2);
        n2.sort();
        assert_eq!(
            n2,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(3),
                NodeId::new(4)
            ]
        );
    }

    #[test]
    fn neighborhood_radius_zero_is_empty() {
        let g = path_graph(3);
        assert!(g.neighborhood(NodeId::new(1), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_out_of_range_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(5));
    }
}
