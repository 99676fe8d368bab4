//! Geometric topologies realized as node positions plus a unit-disk
//! connectivity graph.

use crate::error::NetError;
use crate::geometry::{each_pair_within, Point2};
use crate::graph::{Graph, NodeId};
use rand::Rng;

/// A concrete deployment: node positions (in units of the radio range),
/// with node 0 conventionally reserved for the sink.
///
/// The analytic [`RingModel`](crate::RingModel) is a statistical
/// abstraction; `Topology` is its geometric instantiation used by the
/// simulator and the validation experiments. Links exist between nodes at
/// distance ≤ 1 (unit-disk model, as assumed by the paper).
///
/// # Examples
///
/// ```
/// use edmac_net::Topology;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let topo = Topology::ring_model(3, 4, &mut rng).unwrap();
/// assert_eq!(topo.len(), 1 + 4 * 9); // sink + C*D^2 nodes
/// topo.graph().check_connected(topo.sink()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point2>,
    sink: NodeId,
}

impl Topology {
    /// Builds a topology from explicit positions; `positions[0]` is the
    /// sink.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if fewer than two nodes are
    /// given (there is no network to analyze).
    pub fn from_positions(positions: Vec<Point2>) -> Result<Topology, NetError> {
        if positions.len() < 2 {
            return Err(NetError::InvalidParameter {
                name: "positions",
                reason: "a topology needs a sink and at least one source".into(),
            });
        }
        Ok(Topology {
            positions,
            sink: NodeId::new(0),
        })
    }

    /// Realizes the paper's ring model geometrically: the sink at the
    /// origin and `C·(2d−1)` nodes evenly spaced (with a random per-ring
    /// rotation) on circles of radius `d·s`, `d = 1..=depth`.
    ///
    /// The ring spacing `s` is computed from `(depth, density)` so that
    /// for any seed (i) every node has a neighbor one ring closer and
    /// (ii) no link skips a ring; the BFS ring of each node then equals
    /// its geometric ring, making the realization exact.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for zero `depth`, or for
    /// `density < 3` — below that no spacing satisfies both (i) and
    /// (ii), so the ring model has no faithful geometric realization
    /// (use [`Topology::uniform_disk`] for sparse fields instead).
    pub fn ring_model<R: Rng + ?Sized>(
        depth: usize,
        density: usize,
        rng: &mut R,
    ) -> Result<Topology, NetError> {
        let model = crate::rings::RingModel::new(depth, density)?;
        let spacing = ring_spacing(depth, density).ok_or(NetError::InvalidParameter {
            name: "density",
            reason: format!(
                "density {density} is too sparse for a faithful geometric realization (need >= 3)"
            ),
        })?;
        let mut positions = vec![Point2::ORIGIN];
        for d in model.rings() {
            let count = model.nodes_in_ring(d).expect("ring validated by iterator");
            let rotation = rng.gen_range(0.0..std::f64::consts::TAU);
            for k in 0..count {
                let angle = rotation + std::f64::consts::TAU * k as f64 / count as f64;
                positions.push(Point2::polar(d as f64 * spacing, angle));
            }
        }
        Topology::from_positions(positions)
    }

    /// Scatters `n - 1` nodes uniformly in a disk of radius
    /// `field_radius` (in range units) around the sink at the origin.
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidParameter`] for `n < 2` or a non-positive
    ///   radius.
    /// * [`NetError::Disconnected`] if the random draw happens to be
    ///   partitioned — retry with another seed or higher density.
    pub fn uniform_disk<R: Rng + ?Sized>(
        n: usize,
        field_radius: f64,
        rng: &mut R,
    ) -> Result<Topology, NetError> {
        if field_radius <= 0.0 || field_radius.is_nan() || !field_radius.is_finite() {
            return Err(NetError::InvalidParameter {
                name: "field_radius",
                reason: format!("must be positive and finite, got {field_radius}"),
            });
        }
        if n < 2 {
            return Err(NetError::InvalidParameter {
                name: "n",
                reason: "a topology needs a sink and at least one source".into(),
            });
        }
        let mut positions = vec![Point2::ORIGIN];
        for _ in 1..n {
            // Uniform over the disk: radius ~ sqrt(U) * R.
            let r = field_radius * rng.gen_range(0.0..1.0f64).sqrt();
            let a = rng.gen_range(0.0..std::f64::consts::TAU);
            positions.push(Point2::polar(r, a));
        }
        let topo = Topology::from_positions(positions)?;
        topo.graph().check_connected(topo.sink)?;
        Ok(topo)
    }

    /// A 1-D chain: `n` nodes spaced `spacing` apart, sink at one end.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if `spacing` is not in
    /// `(0, 1]` (larger spacings disconnect the chain) or `n < 2`.
    pub fn line(n: usize, spacing: f64) -> Result<Topology, NetError> {
        if !(spacing > 0.0 && spacing <= 1.0) {
            return Err(NetError::InvalidParameter {
                name: "spacing",
                reason: format!("must be in (0, 1], got {spacing}"),
            });
        }
        let positions = (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::from_positions(positions)
    }

    /// A `cols x rows` lattice with the sink at a corner; `spacing`
    /// in range units connects each node to its 4-neighborhood (and,
    /// for `spacing <= 1/sqrt(2)`, diagonals too).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if `spacing` is not in
    /// `(0, 1]` or the lattice has fewer than two nodes.
    pub fn grid(cols: usize, rows: usize, spacing: f64) -> Result<Topology, NetError> {
        if !(spacing > 0.0 && spacing <= 1.0) {
            return Err(NetError::InvalidParameter {
                name: "spacing",
                reason: format!("must be in (0, 1], got {spacing}"),
            });
        }
        if cols * rows < 2 {
            return Err(NetError::InvalidParameter {
                name: "cols*rows",
                reason: "a topology needs a sink and at least one source".into(),
            });
        }
        let mut positions = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Point2::new(c as f64 * spacing, r as f64 * spacing));
            }
        }
        Topology::from_positions(positions)
    }

    /// The same topology rigidly shifted by `(dx, dy)` range units.
    ///
    /// Translation preserves every pairwise distance, so the unit-disk
    /// graph, BFS tree and sink of the copy are identical to the
    /// original's. Useful for placing several independent networks on
    /// one shared channel (coexistence scenarios), where only the
    /// *relative* placement of the networks matters.
    pub fn translated(&self, dx: f64, dy: f64) -> Topology {
        Topology {
            positions: self
                .positions
                .iter()
                .map(|p| Point2::new(p.x + dx, p.y + dy))
                .collect(),
            sink: self.sink,
        }
    }

    /// Number of nodes, sink included.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the topology has no nodes (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Point2 {
        self.positions[node.index()]
    }

    /// All positions, indexed by node.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// The unit-disk connectivity graph: an edge wherever two nodes are
    /// within radio range (distance ≤ 1), found by
    /// [`each_pair_within`](crate::each_pair_within), so every adjacency
    /// list comes out in the order of an all-pairs scan.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::with_nodes(self.len());
        each_pair_within(&self.positions, 1.0, |i, j, _| {
            g.add_edge(NodeId::new(i), NodeId::new(j));
        });
        g
    }
}

/// Ring spacing that makes the geometric realization faithful for any
/// per-ring rotation, or `None` if no such spacing exists.
///
/// Two constraints bound the spacing `s`:
///
/// * *connectivity inward*: the worst-case chord from a ring-`d` node to
///   its nearest inner-ring node (angular offset = half the inner ring's
///   gap) must fit in 95% of the radio range — an upper bound on `s`;
/// * *no ring skipping*: circles two rings apart must stay more than one
///   range unit apart, `2s > 1` — a lower bound on `s`.
///
/// For `density >= 3` the bounds always leave a window; below that they
/// cross and the construction is rejected.
fn ring_spacing(depth: usize, density: usize) -> Option<f64> {
    let mut worst: f64 = 1.0; // ring 1 -> sink needs distance s.
    for d in 2..=depth {
        let inner = (density * (2 * (d - 1) - 1)) as f64;
        let dtheta = std::f64::consts::PI / inner;
        let (rd, ri) = (d as f64, (d - 1) as f64);
        let chord = (rd * rd + ri * ri - 2.0 * rd * ri * dtheta.cos()).sqrt();
        worst = worst.max(chord);
    }
    let spacing = 0.95 / worst;
    (depth == 1 || spacing > 0.5).then_some(spacing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn ring_model_counts_and_connectivity() {
        for seed in [0, 1, 7, 99] {
            let topo = Topology::ring_model(5, 3, &mut rng(seed)).unwrap();
            assert_eq!(topo.len(), 1 + 3 * 25);
            topo.graph().check_connected(topo.sink()).unwrap();
        }
    }

    #[test]
    fn ring_model_bfs_depth_matches_geometric_ring() {
        let topo = Topology::ring_model(4, 4, &mut rng(3)).unwrap();
        let dist = topo.graph().bfs_distances(topo.sink());
        let model = crate::rings::RingModel::new(4, 4).unwrap();
        let mut idx = 1;
        for d in model.rings() {
            for _ in 0..model.nodes_in_ring(d).unwrap() {
                assert_eq!(dist[idx], Some(d), "node {idx} should sit in ring {d}");
                idx += 1;
            }
        }
    }

    #[test]
    fn ring_model_minimum_density_still_connects() {
        for seed in 0..20 {
            let topo = Topology::ring_model(6, 3, &mut rng(seed)).unwrap();
            topo.graph().check_connected(topo.sink()).unwrap();
        }
    }

    #[test]
    fn ring_model_rejects_unrealizable_density() {
        for density in [1, 2] {
            assert!(Topology::ring_model(4, density, &mut rng(0)).is_err());
        }
        // A single ring has no skip constraint, so any density works.
        assert!(Topology::ring_model(1, 1, &mut rng(0)).is_ok());
    }

    #[test]
    fn line_topology_is_a_chain() {
        let topo = Topology::line(5, 0.9).unwrap();
        let g = topo.graph();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
    }

    #[test]
    fn line_rejects_disconnecting_spacing() {
        assert!(Topology::line(3, 1.5).is_err());
        assert!(Topology::line(3, 0.0).is_err());
    }

    #[test]
    fn uniform_disk_is_dense_enough_to_connect() {
        // 200 nodes in radius 3 => expected degree ~ 200/9 >> threshold.
        let topo = Topology::uniform_disk(200, 3.0, &mut rng(11)).unwrap();
        assert_eq!(topo.len(), 200);
        topo.graph().check_connected(topo.sink()).unwrap();
    }

    #[test]
    fn uniform_disk_rejects_bad_parameters() {
        assert!(Topology::uniform_disk(1, 2.0, &mut rng(0)).is_err());
        assert!(Topology::uniform_disk(10, -1.0, &mut rng(0)).is_err());
        assert!(Topology::uniform_disk(10, f64::NAN, &mut rng(0)).is_err());
    }

    #[test]
    fn bucketed_graph_equals_all_pairs_scan() {
        // The spatial hash must emit the exact adjacency (same edges,
        // same per-node neighbor order) as the quadratic reference,
        // including positions with negative coordinates straddling
        // cell boundaries.
        let topo = Topology::uniform_disk(300, 4.0, &mut rng(97)).unwrap();
        let bucketed = topo.graph();
        let mut reference = Graph::with_nodes(topo.len());
        for i in 0..topo.len() {
            for j in (i + 1)..topo.len() {
                if topo.positions()[i].distance_squared(topo.positions()[j]) <= 1.0 {
                    reference.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
        }
        for i in 0..topo.len() {
            assert_eq!(
                bucketed.neighbors(NodeId::new(i)),
                reference.neighbors(NodeId::new(i)),
                "adjacency of node {i} differs"
            );
        }
    }

    #[test]
    fn grid_topology_connects_and_layers() {
        let topo = Topology::grid(4, 3, 0.9).unwrap();
        assert_eq!(topo.len(), 12);
        let g = topo.graph();
        g.check_connected(topo.sink()).unwrap();
        // Corner sink: the opposite corner is cols-1 + rows-1 hops away
        // (no diagonals at 0.9 spacing).
        let dist = g.bfs_distances(topo.sink());
        assert_eq!(dist[11], Some(3 + 2));
    }

    #[test]
    fn tight_grid_gets_diagonals() {
        let topo = Topology::grid(3, 3, 0.6).unwrap();
        let g = topo.graph();
        // Diagonal distance 0.6*sqrt(2) = 0.85 <= 1: corner reaches the
        // center directly.
        let dist = g.bfs_distances(topo.sink());
        assert_eq!(dist[4], Some(1));
        assert_eq!(dist[8], Some(2));
    }

    #[test]
    fn grid_rejects_bad_parameters() {
        assert!(Topology::grid(1, 1, 0.9).is_err());
        assert!(Topology::grid(3, 3, 0.0).is_err());
        assert!(Topology::grid(3, 3, 1.5).is_err());
    }

    #[test]
    fn from_positions_requires_two_nodes() {
        assert!(Topology::from_positions(vec![Point2::ORIGIN]).is_err());
    }
}
