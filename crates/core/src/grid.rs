//! The study's scenario grid: a deterministic enumeration of the
//! scenario space (topology preset × node count × hotspot intensity ×
//! burst duty × ring depth) the bargaining-vs-aggregate study sweeps.
//!
//! A [`StudyGrid`] names the axis values; [`StudyGrid::cells`] expands
//! them into concrete [`GridCell`]s, each carrying a realized-ready
//! [`Scenario`], its axis coordinates, and a deterministic per-cell
//! seed (so a grid run is bit-reproducible and each cell's topology
//! draw is independent of every other's).

use crate::scenario::{Scenario, TopologySpec, TrafficSpec};
use edmac_net::splitmix64;
use edmac_units::Seconds;

/// The topology/traffic preset families the grid spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresetKind {
    /// The paper's concentric-ring deployment, uniform traffic.
    Ring,
    /// Uniform-disk field, uniform traffic.
    UniformDisk,
    /// Uniform-disk field with a spatial rate hotspot.
    HotspotDisk,
    /// Uniform-disk field with synchronized event bursts.
    BurstDisk,
}

impl PresetKind {
    /// Every preset family, in grid order.
    pub const ALL: [PresetKind; 4] = [
        PresetKind::Ring,
        PresetKind::UniformDisk,
        PresetKind::HotspotDisk,
        PresetKind::BurstDisk,
    ];

    /// Stable lowercase label (CSV value and CLI name).
    pub fn label(&self) -> &'static str {
        match self {
            PresetKind::Ring => "ring",
            PresetKind::UniformDisk => "disk",
            PresetKind::HotspotDisk => "hotspot",
            PresetKind::BurstDisk => "burst",
        }
    }

    /// Parses a CLI preset name (the inverse of [`PresetKind::label`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use edmac_core::PresetKind;
    ///
    /// assert_eq!(PresetKind::parse("hotspot"), Some(PresetKind::HotspotDisk));
    /// assert_eq!(PresetKind::parse("Ring"), Some(PresetKind::Ring));
    /// assert_eq!(PresetKind::parse("mesh"), None);
    /// ```
    pub fn parse(name: &str) -> Option<PresetKind> {
        let name = name.to_lowercase();
        PresetKind::ALL.into_iter().find(|k| k.label() == name)
    }
}

impl std::fmt::Display for PresetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One point of the scenario grid: a concrete [`Scenario`] plus its
/// axis coordinates and per-cell seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Position in the grid's deterministic enumeration order.
    pub index: usize,
    /// The workload to realize.
    pub scenario: Scenario,
    /// Which preset family the cell belongs to.
    pub preset: PresetKind,
    /// Nominal node count (sink included; rings: derived from the ring
    /// model).
    pub nodes: usize,
    /// Ring depth axis value (0 for non-ring cells, whose realized
    /// depth is empirical).
    pub depth: usize,
    /// Hotspot rate multiplier (1 where the axis does not apply).
    pub hotspot_factor: f64,
    /// Burst duty cycle, `duration / every` (0 where the axis does not
    /// apply).
    pub burst_duty: f64,
    /// Deterministic seed for this cell's topology/simulation draws.
    pub seed: u64,
}

/// Field radius holding the disk presets at the density of the
/// known-good 65-node / 2.5-range reference, clamped so small fields
/// stay connected and large ones stay in the simulator's comfort zone.
/// Shared by the grid and the `scenarios`/`study` binaries' preset
/// helper, so "a 40-node disk" means the same field everywhere.
pub fn disk_radius(nodes: usize) -> f64 {
    ((nodes as f64 / 65.0).sqrt() * 2.5).clamp(1.2, 3.5)
}

/// The axis values of one study run. Construct via [`StudyGrid::full`]
/// (the ≥200-cell sweep) or [`StudyGrid::smoke`] (the pinned CI grid),
/// then adjust fields freely.
///
/// # Examples
///
/// ```
/// use edmac_core::StudyGrid;
///
/// let grid = StudyGrid::smoke();
/// let cells = grid.cells();
/// assert_eq!(cells.len(), grid.scenario_count());
/// // Enumeration is deterministic: same grid, same cells, same seeds.
/// assert_eq!(grid.cells(), cells);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StudyGrid {
    /// Ring-preset depths `D`.
    pub ring_depths: Vec<usize>,
    /// Ring-preset densities `C`.
    pub ring_densities: Vec<usize>,
    /// Node counts of the uniform-disk preset.
    pub disk_nodes: Vec<usize>,
    /// Node counts of the hotspot preset.
    pub hotspot_nodes: Vec<usize>,
    /// Hotspot intensity axis: rate multipliers inside the hotspot.
    pub hotspot_factors: Vec<f64>,
    /// Node counts of the event-burst preset.
    pub burst_nodes: Vec<usize>,
    /// Burst duty axis: `duration / every` fractions in `(0, 1)`.
    pub burst_duties: Vec<f64>,
    /// Baseline sampling period shared by every cell.
    pub sample_period: Seconds,
    /// Hotspot spatial fraction (fixed across the intensity axis so the
    /// axis varies one thing).
    pub hotspot_fraction: f64,
    /// Burst recurrence interval (duty varies the window length).
    pub burst_every: Seconds,
    /// Burst rate multiplier inside a window.
    pub burst_factor: f64,
    /// Base of the per-cell seed derivation.
    pub seed_base: u64,
}

impl StudyGrid {
    /// The full sweep: 72 scenarios (24 rings + 8 disks + 20 hotspot +
    /// 20 burst cells), ≥200 protocol-cells once crossed with the
    /// paper's three protocols.
    pub fn full() -> StudyGrid {
        StudyGrid {
            ring_depths: vec![2, 3, 4, 6, 8, 10],
            ring_densities: vec![3, 4, 5, 6],
            disk_nodes: vec![20, 30, 40, 50, 65, 80, 100, 120],
            hotspot_nodes: vec![30, 50, 80, 100],
            hotspot_factors: vec![1.5, 2.0, 3.0, 4.0, 6.0],
            burst_nodes: vec![30, 50, 80, 100],
            burst_duties: vec![0.05, 0.1, 0.2, 0.35, 0.5],
            ..StudyGrid::smoke()
        }
    }

    /// The pinned CI smoke grid: one scenario per preset family
    /// (4 scenarios, 12 protocol-cells), small enough that the full
    /// harness — solves plus packet-level validation — finishes in
    /// seconds, stable enough to diff against golden artifacts.
    pub fn smoke() -> StudyGrid {
        StudyGrid {
            ring_depths: vec![4],
            ring_densities: vec![4],
            disk_nodes: vec![40],
            hotspot_nodes: vec![40],
            hotspot_factors: vec![3.0],
            burst_nodes: vec![40],
            burst_duties: vec![0.1],
            sample_period: Seconds::new(60.0),
            hotspot_fraction: 0.25,
            burst_every: Seconds::new(300.0),
            burst_factor: 4.0,
            seed_base: 0xED_AC,
        }
    }

    /// Number of scenario cells the grid expands to.
    pub fn scenario_count(&self) -> usize {
        self.ring_depths.len() * self.ring_densities.len()
            + self.disk_nodes.len()
            + self.hotspot_nodes.len() * self.hotspot_factors.len()
            + self.burst_nodes.len() * self.burst_duties.len()
    }

    /// Expands the axes into concrete cells, in deterministic order:
    /// rings (depth-major), disks, hotspot (nodes-major), burst
    /// (nodes-major). Cell seeds depend only on `seed_base` and the
    /// cell index.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut cells = Vec::with_capacity(self.scenario_count());
        for &depth in &self.ring_depths {
            for &density in &self.ring_densities {
                cells.push(self.preset_cell(PresetKind::Ring, depth, density, 0, 1.0, 0.0));
            }
        }
        for &nodes in &self.disk_nodes {
            cells.push(self.preset_cell(PresetKind::UniformDisk, 0, 0, nodes, 1.0, 0.0));
        }
        for &nodes in &self.hotspot_nodes {
            for &factor in &self.hotspot_factors {
                cells.push(self.preset_cell(PresetKind::HotspotDisk, 0, 0, nodes, factor, 0.0));
            }
        }
        for &nodes in &self.burst_nodes {
            for &duty in &self.burst_duties {
                cells.push(self.preset_cell(PresetKind::BurstDisk, 0, 0, nodes, 1.0, duty));
            }
        }
        for (index, cell) in cells.iter_mut().enumerate() {
            // Random-topology draws can come out disconnected; probe a
            // deterministic seed chain until one connects so the grid
            // never has holes, yet stays bit-reproducible. (Ring and
            // line realizations ignore the seed entirely.)
            let mut seed = splitmix64(self.seed_base ^ ((index as u64) << 20));
            for _ in 0..64 {
                if cell.scenario.topology.realize(seed).is_ok() {
                    break;
                }
                seed = splitmix64(seed);
            }
            cell.index = index;
            cell.seed = seed;
        }
        cells
    }

    /// The cell of `preset` at one point on its axes, built with this
    /// grid's sampling period and hotspot and burst parameters: the one
    /// place a preset's scenario is assembled, so the enumerator and a
    /// planning request that names the same point build the same cell.
    ///
    /// A ring takes `depth` and `density` and derives its node count;
    /// the disk families take `nodes`. `hotspot_factor` and
    /// `burst_duty` apply to their own family only: the cell records 1
    /// and 0 elsewhere, and depth 0 off the ring. The cell's index and
    /// seed are 0, for the caller to assign.
    pub fn preset_cell(
        &self,
        preset: PresetKind,
        depth: usize,
        density: usize,
        nodes: usize,
        hotspot_factor: f64,
        burst_duty: f64,
    ) -> GridCell {
        let disk = TopologySpec::UniformDisk {
            nodes,
            field_radius: disk_radius(nodes),
        };
        let (scenario, nodes, depth, hotspot_factor, burst_duty) = match preset {
            PresetKind::Ring => {
                // Ring node count: sink + C·d per ring d = 1 + C·D(D+1)/2.
                let nodes = 1 + density * depth * (depth + 1) / 2;
                let scenario = Scenario::ring(depth, density, self.sample_period);
                (scenario, nodes, depth, 1.0, 0.0)
            }
            PresetKind::UniformDisk => {
                let scenario = Scenario {
                    name: format!("disk_n{nodes}"),
                    topology: disk,
                    traffic: TrafficSpec::Uniform {
                        sample_period: self.sample_period,
                    },
                };
                (scenario, nodes, 0, 1.0, 0.0)
            }
            PresetKind::HotspotDisk => {
                let scenario = Scenario {
                    name: format!("hotspot_n{nodes}_f{hotspot_factor}"),
                    topology: disk,
                    traffic: TrafficSpec::Hotspot {
                        sample_period: self.sample_period,
                        factor: hotspot_factor,
                        fraction: self.hotspot_fraction,
                    },
                };
                (scenario, nodes, 0, hotspot_factor, 0.0)
            }
            PresetKind::BurstDisk => {
                let scenario = Scenario {
                    name: format!("burst_n{nodes}_d{burst_duty}"),
                    topology: disk,
                    traffic: TrafficSpec::EventBurst {
                        sample_period: self.sample_period,
                        factor: self.burst_factor,
                        every: self.burst_every,
                        duration: Seconds::new(self.burst_every.value() * burst_duty),
                    },
                };
                (scenario, nodes, 0, 1.0, burst_duty)
            }
        };
        GridCell {
            index: 0,
            scenario,
            preset,
            nodes,
            depth,
            hotspot_factor,
            burst_duty,
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_is_large_enough_for_the_study() {
        let grid = StudyGrid::full();
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.scenario_count());
        assert_eq!(cells.len(), 72);
        // Crossed with the paper's three protocols: ≥ 200 cells.
        assert!(cells.len() * 3 >= 200);
    }

    #[test]
    fn smoke_grid_is_pinned_small() {
        let cells = StudyGrid::smoke().cells();
        assert_eq!(cells.len(), 4);
        let presets: Vec<PresetKind> = cells.iter().map(|c| c.preset).collect();
        assert_eq!(presets, PresetKind::ALL.to_vec());
    }

    #[test]
    fn cell_indices_and_seeds_are_deterministic_and_distinct() {
        let grid = StudyGrid::full();
        let a = grid.cells();
        let b = grid.cells();
        assert_eq!(a, b);
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "per-cell seeds must be unique");
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn seed_base_shifts_every_random_cell() {
        let mut other = StudyGrid::full();
        other.seed_base ^= 0xDEAD_BEEF;
        let a = StudyGrid::full().cells();
        let b = other.cells();
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn every_cell_realizes_a_deployment() {
        // The axes must be chosen so each cell's topology draw connects
        // at its own seed — otherwise the study would deterministically
        // hole the grid.
        for cell in StudyGrid::full().cells() {
            let env = cell
                .scenario
                .deployment(cell.seed)
                .unwrap_or_else(|e| panic!("{}: {e}", cell.scenario.name));
            assert!(env.traffic.depth() >= 1, "{}", cell.scenario.name);
        }
    }

    #[test]
    fn axes_fill_the_declared_coordinates() {
        let cells = StudyGrid::full().cells();
        assert!(cells
            .iter()
            .filter(|c| c.preset == PresetKind::HotspotDisk)
            .all(|c| c.hotspot_factor > 1.0 && c.burst_duty == 0.0));
        assert!(cells
            .iter()
            .filter(|c| c.preset == PresetKind::BurstDisk)
            .all(|c| c.burst_duty > 0.0 && c.hotspot_factor == 1.0));
        assert!(cells
            .iter()
            .filter(|c| c.preset == PresetKind::Ring)
            .all(|c| c.depth > 0));
    }

    #[test]
    fn preset_labels_round_trip() {
        for k in PresetKind::ALL {
            assert_eq!(PresetKind::parse(k.label()), Some(k));
            assert_eq!(k.to_string(), k.label());
        }
        assert_eq!(PresetKind::parse("nope"), None);
    }
}
