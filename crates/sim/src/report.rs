//! Simulation outputs: per-node energy and per-packet delivery records.

use crate::engine::SimConfig;
use crate::frame::{FrameCounters, PacketId};
use crate::time::SimTime;
use edmac_net::NodeId;
use edmac_radio::EnergyBreakdown;
use edmac_units::{Joules, Seconds};

/// One node's accounting over the whole run.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node.
    pub node: NodeId,
    /// Its hop distance from the sink.
    pub depth: usize,
    /// Energy by cause over the run.
    pub breakdown: EnergyBreakdown,
    /// Total non-sleep radio time.
    pub busy: Seconds,
    /// Frame-level accounting (transmissions, receptions, collisions).
    pub counters: FrameCounters,
    /// Mean SINR (dB) of the frames this node decoded, using each
    /// frame's *worst* SINR while on the air. `None` unless capture is
    /// on — the one case where SINR decides a decode, and one that
    /// always runs [`WakeMode::Dense`](crate::WakeMode::Dense), so no
    /// decode is replayed — or when nothing was decoded.
    pub mean_sinr_db: Option<f64>,
}

/// One application packet's fate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Packet id.
    pub id: PacketId,
    /// Sampling node.
    pub origin: NodeId,
    /// The origin's hop distance (ring) from the sink.
    pub origin_depth: usize,
    /// Sampling time.
    pub created: SimTime,
    /// Delivery time at the sink, if it arrived within the horizon.
    pub delivered: Option<SimTime>,
    /// Hops traversed (filled at delivery).
    pub hops: u32,
}

impl PacketRecord {
    /// End-to-end delay, if delivered.
    pub fn delay(&self) -> Option<Seconds> {
        self.delivered.map(|d| d.since(self.created))
    }
}

/// Delivery-delay statistics of the packets originating at one depth
/// class: order statistics over the counted, delivered population.
///
/// The per-depth *sample count* is first-class because off-ring depth
/// classes can be tiny (the deepest class of an irregular disk may
/// hold one node): a comparator that reads a 3-sample median is
/// measuring noise, and callers need the count to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthDelayStats {
    /// The origin depth this class aggregates.
    pub depth: usize,
    /// Number of counted, delivered packets the statistics are over.
    pub samples: usize,
    /// Median end-to-end delay (same order statistic as
    /// [`SimReport::median_delay_at_depth`]).
    pub p50: Seconds,
    /// 95th-percentile end-to-end delay (nearest-rank).
    pub p95: Seconds,
    /// Worst end-to-end delay in the class.
    pub max: Seconds,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    protocol: &'static str,
    config: SimConfig,
    sink: NodeId,
    per_node: Vec<NodeStats>,
    records: Vec<PacketRecord>,
}

impl SimReport {
    pub(crate) fn new(
        protocol: &'static str,
        config: SimConfig,
        sink: NodeId,
        per_node: Vec<NodeStats>,
        records: Vec<PacketRecord>,
    ) -> SimReport {
        SimReport {
            protocol,
            config,
            sink,
            per_node,
            records,
        }
    }

    /// The simulated protocol's name.
    pub fn protocol(&self) -> &'static str {
        self.protocol
    }

    /// The run configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Per-node statistics, indexed by node id.
    pub fn per_node(&self) -> &[NodeStats] {
        &self.per_node
    }

    /// All packet records.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Packets created after warm-up (the statistical population).
    fn counted(&self) -> impl Iterator<Item = &PacketRecord> {
        let warmup = SimTime::from_seconds(self.config.warmup);
        // Packets born too close to the horizon never had a chance to
        // arrive; exclude the final 5% of the run as cool-down.
        let cooldown = SimTime::from_nanos(
            (SimTime::from_seconds(self.config.duration).as_nanos() as f64 * 0.95) as u64,
        );
        self.records
            .iter()
            .filter(move |r| r.created >= warmup && r.created <= cooldown)
    }

    /// Fraction of counted packets that reached the sink.
    pub fn delivery_ratio(&self) -> f64 {
        let (total, delivered) = self.counted().fold((0usize, 0usize), |(t, d), r| {
            (t + 1, d + usize::from(r.delivered.is_some()))
        });
        if total == 0 {
            return 1.0;
        }
        delivered as f64 / total as f64
    }

    /// Number of delivered, counted packets.
    pub fn delivered_count(&self) -> usize {
        self.counted().filter(|r| r.delivered.is_some()).count()
    }

    /// Mean end-to-end delay of delivered, counted packets.
    pub fn mean_delay(&self) -> Option<Seconds> {
        let delays: Vec<f64> = self
            .counted()
            .filter_map(|r| r.delay())
            .map(|d| d.value())
            .collect();
        if delays.is_empty() {
            return None;
        }
        Some(Seconds::new(
            delays.iter().sum::<f64>() / delays.len() as f64,
        ))
    }

    /// Mean end-to-end delay of delivered packets originating at
    /// `depth` hops.
    pub fn mean_delay_at_depth(&self, depth: usize) -> Option<Seconds> {
        let delays: Vec<f64> = self
            .counted()
            .filter(|r| r.origin_depth == depth)
            .filter_map(|r| r.delay())
            .map(|d| d.value())
            .collect();
        if delays.is_empty() {
            return None;
        }
        Some(Seconds::new(
            delays.iter().sum::<f64>() / delays.len() as f64,
        ))
    }

    /// Median end-to-end delay of delivered packets originating at
    /// `depth` hops.
    ///
    /// The median is the right comparator against the analytical
    /// models: their expected-delay formulas ignore the rare
    /// retry-cascade tail (a lost exchange costs whole backoff+retry
    /// rounds), which contaminates the mean but not the typical packet.
    pub fn median_delay_at_depth(&self, depth: usize) -> Option<Seconds> {
        let mut delays: Vec<f64> = self
            .counted()
            .filter(|r| r.origin_depth == depth)
            .filter_map(|r| r.delay())
            .map(|d| d.value())
            .collect();
        if delays.is_empty() {
            return None;
        }
        delays.sort_by(f64::total_cmp);
        Some(Seconds::new(delays[delays.len() / 2]))
    }

    /// Full order-statistics of the delivered, counted packets
    /// originating at `depth` hops: p50/p95/max plus the sample count
    /// (`None` when the class delivered nothing).
    ///
    /// The p50 is the exact same order statistic as
    /// [`SimReport::median_delay_at_depth`]; the p95 is nearest-rank
    /// (`delays[ceil(0.95 · n) − 1]` on the sorted sample), so both
    /// are well-defined down to a single sample and the ordering
    /// `p50 ≤ p95 ≤ max` holds for every class size (a floor-rank p95
    /// would drop *below* the upper median on a 2-sample class).
    pub fn depth_delay_stats(&self, depth: usize) -> Option<DepthDelayStats> {
        let mut delays: Vec<f64> = self
            .counted()
            .filter(|r| r.origin_depth == depth)
            .filter_map(|r| r.delay())
            .map(|d| d.value())
            .collect();
        if delays.is_empty() {
            return None;
        }
        delays.sort_by(f64::total_cmp);
        let n = delays.len();
        Some(DepthDelayStats {
            depth,
            samples: n,
            p50: Seconds::new(delays[n / 2]),
            p95: Seconds::new(delays[(n * 95).div_ceil(100) - 1]),
            max: Seconds::new(delays[n - 1]),
        })
    }

    /// Per-depth delay statistics for every populated depth class,
    /// shallowest first (depth 0 — sink-local origins — excluded, as
    /// the sink does not sample).
    pub fn delay_stats_by_depth(&self) -> Vec<DepthDelayStats> {
        let deepest = self.per_node.iter().map(|s| s.depth).max().unwrap_or(0);
        (1..=deepest)
            .filter_map(|d| self.depth_delay_stats(d))
            .collect()
    }

    /// The worst observed end-to-end delay.
    pub fn max_delay(&self) -> Option<Seconds> {
        self.counted()
            .filter_map(|r| r.delay())
            .max_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite delays"))
    }

    /// Total corrupted receptions across all nodes — the network-wide
    /// collision count.
    pub fn total_collisions(&self) -> u64 {
        self.per_node.iter().map(|s| s.counters.collisions()).sum()
    }

    /// Network-wide collision-cause breakdown: `(destroyed, captured,
    /// below_noise)` — locked frames lost to overlap, overlapped
    /// frames that decoded anyway thanks to SINR capture, and arrivals
    /// too weak to sync on. Captures are 0 unless capture is on;
    /// below-noise arrivals are 0 wherever every air link clears the
    /// sensitivity (always on the unit disk).
    pub fn collision_causes(&self) -> (u64, u64, u64) {
        self.per_node.iter().fold((0, 0, 0), |(d, c, b), s| {
            (
                d + s.counters.collisions(),
                c + s.counters.captured(),
                b + s.counters.below_noise(),
            )
        })
    }

    /// Mean decoded-frame SINR (dB) per depth class, shallowest first,
    /// in the style of [`delay_stats_by_depth`](Self::delay_stats_by_depth):
    /// one `(depth, mean dB, nodes reporting)` row per depth class
    /// (sink's class 0 included) in which at least one node decoded a
    /// frame. Empty unless capture is on (see
    /// [`NodeStats::mean_sinr_db`]).
    pub fn sinr_by_depth(&self) -> Vec<(usize, f64, usize)> {
        let deepest = self.per_node.iter().map(|s| s.depth).max().unwrap_or(0);
        (0..=deepest)
            .filter_map(|d| {
                let values: Vec<f64> = self
                    .per_node
                    .iter()
                    .filter(|s| s.depth == d)
                    .filter_map(|s| s.mean_sinr_db)
                    .collect();
                if values.is_empty() {
                    return None;
                }
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                Some((d, mean, values.len()))
            })
            .collect()
    }

    /// The highest per-node energy over the run, excluding the sink
    /// (assumed mains-powered), scaled to `epoch` — directly comparable
    /// to the analytical models' `E`.
    pub fn bottleneck_energy(&self, epoch: Seconds) -> Joules {
        let scale = epoch.value() / self.config.duration.value();
        self.per_node
            .iter()
            .filter(|s| s.node != self.sink)
            .map(|s| s.breakdown.total() * scale)
            .fold(Joules::ZERO, Joules::max)
    }

    /// The energy breakdown of the most-consuming non-sink node, scaled
    /// to `epoch`.
    pub fn bottleneck_breakdown(&self, epoch: Seconds) -> EnergyBreakdown {
        let scale = epoch.value() / self.config.duration.value();
        self.per_node
            .iter()
            .filter(|s| s.node != self.sink)
            .max_by(|a, b| {
                a.breakdown
                    .total()
                    .value()
                    .partial_cmp(&b.breakdown.total().value())
                    .expect("finite energies")
            })
            .map(|s| s.breakdown.scaled(scale))
            .unwrap_or(EnergyBreakdown::ZERO)
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} simulation: {} nodes, {:.0} s simulated",
            self.protocol,
            self.per_node.len(),
            self.config.duration.value()
        )?;
        writeln!(f, "  delivery ratio : {:.3}", self.delivery_ratio())?;
        if let Some(d) = self.mean_delay() {
            writeln!(f, "  mean e2e delay : {:.3} s", d.value())?;
        }
        if let Some(d) = self.max_delay() {
            writeln!(f, "  max e2e delay  : {:.3} s", d.value())?;
        }
        write!(
            f,
            "  bottleneck     : {:.5} J per 10 s epoch",
            self.bottleneck_energy(Seconds::new(10.0)).value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WakeMode;

    fn record(created_s: f64, delivered_s: Option<f64>, depth: usize) -> PacketRecord {
        PacketRecord {
            id: PacketId(0),
            origin: NodeId::new(1),
            origin_depth: depth,
            created: SimTime::from_seconds(Seconds::new(created_s)),
            delivered: delivered_s.map(|s| SimTime::from_seconds(Seconds::new(s))),
            hops: depth as u32,
        }
    }

    fn report(records: Vec<PacketRecord>) -> SimReport {
        SimReport::new(
            "T",
            SimConfig {
                duration: Seconds::new(100.0),
                sample_period: Seconds::new(10.0),
                warmup: Seconds::new(10.0),
                seed: 0,
                scheduling: WakeMode::Coarse,
            },
            NodeId::new(0),
            vec![],
            records,
        )
    }

    #[test]
    fn warmup_and_cooldown_are_excluded() {
        let r = report(vec![
            record(5.0, Some(6.0), 1),   // before warmup: excluded
            record(50.0, Some(51.0), 1), // counted, delivered
            record(60.0, None, 1),       // counted, lost
            record(97.0, None, 1),       // cooldown: excluded
        ]);
        assert_eq!(r.delivery_ratio(), 0.5);
        assert_eq!(r.delivered_count(), 1);
    }

    #[test]
    fn delay_statistics() {
        let r = report(vec![
            record(20.0, Some(21.0), 2),
            record(30.0, Some(33.0), 2),
            record(40.0, Some(42.0), 3),
        ]);
        assert!((r.mean_delay().unwrap().value() - 2.0).abs() < 1e-9);
        assert!((r.max_delay().unwrap().value() - 3.0).abs() < 1e-9);
        assert!((r.mean_delay_at_depth(2).unwrap().value() - 2.0).abs() < 1e-9);
        assert!((r.mean_delay_at_depth(3).unwrap().value() - 2.0).abs() < 1e-9);
        assert!(r.mean_delay_at_depth(7).is_none());
    }

    #[test]
    fn depth_stats_report_percentiles_and_counts() {
        // 20 delivered packets at depth 2 with delays 1..=20 s.
        let records: Vec<PacketRecord> = (1..=20)
            .map(|i| record(20.0, Some(20.0 + i as f64), 2))
            .collect();
        let r = report(records);
        let stats = r.depth_delay_stats(2).expect("populated class");
        assert_eq!(stats.samples, 20);
        // Same order statistic as the legacy median accessor.
        assert_eq!(stats.p50, r.median_delay_at_depth(2).unwrap());
        assert!((stats.p50.value() - 11.0).abs() < 1e-9);
        // Nearest-rank p95 on n=20: index ceil(20 * 0.95) - 1 = 18.
        assert!((stats.p95.value() - 19.0).abs() < 1e-9);
        assert!((stats.max.value() - 20.0).abs() < 1e-9);
        assert!(r.depth_delay_stats(3).is_none());
        // Single-sample classes are well-defined (p50 = p95 = max).
        let one = report(vec![record(30.0, Some(32.5), 1)]);
        let s = one.depth_delay_stats(1).unwrap();
        assert_eq!(s.samples, 1);
        assert_eq!(s.p50, s.p95);
        assert_eq!(s.p95, s.max);
        assert!((s.max.value() - 2.5).abs() < 1e-9);
        // The percentile ordering p50 <= p95 <= max must hold on every
        // class size — notably n = 2, where a floor-rank p95 would
        // land on the minimum, below the upper-median p50.
        for n in 1..=6usize {
            let two = report(
                (1..=n)
                    .map(|i| record(20.0, Some(20.0 + i as f64), 1))
                    .collect(),
            );
            let s = two.depth_delay_stats(1).unwrap();
            assert!(
                s.p50 <= s.p95 && s.p95 <= s.max,
                "n={n}: p50 {} p95 {} max {}",
                s.p50,
                s.p95,
                s.max
            );
        }
    }

    #[test]
    fn stats_by_depth_cover_populated_classes_in_order() {
        let r = SimReport::new(
            "T",
            SimConfig {
                duration: Seconds::new(100.0),
                sample_period: Seconds::new(10.0),
                warmup: Seconds::new(10.0),
                seed: 0,
                scheduling: WakeMode::Coarse,
            },
            NodeId::new(0),
            vec![
                NodeStats {
                    node: NodeId::new(1),
                    depth: 3,
                    breakdown: EnergyBreakdown::ZERO,
                    busy: Seconds::ZERO,
                    counters: FrameCounters::default(),
                    mean_sinr_db: None,
                },
                NodeStats {
                    node: NodeId::new(0),
                    depth: 0,
                    breakdown: EnergyBreakdown::ZERO,
                    busy: Seconds::ZERO,
                    counters: FrameCounters::default(),
                    mean_sinr_db: None,
                },
            ],
            vec![
                record(20.0, Some(21.0), 1),
                record(20.0, Some(26.0), 3),
                record(25.0, None, 2), // lost: class 2 has no deliveries
            ],
        );
        let stats = r.delay_stats_by_depth();
        let depths: Vec<usize> = stats.iter().map(|s| s.depth).collect();
        assert_eq!(depths, [1, 3], "empty classes are skipped");
    }

    #[test]
    fn empty_population_is_fully_delivered() {
        let r = report(vec![]);
        assert_eq!(r.delivery_ratio(), 1.0);
        assert!(r.mean_delay().is_none());
    }

    #[test]
    fn bottleneck_excludes_sink() {
        let mut sink_breakdown = EnergyBreakdown::ZERO;
        sink_breakdown.rx = Joules::new(100.0);
        let mut node_breakdown = EnergyBreakdown::ZERO;
        node_breakdown.tx = Joules::new(1.0);
        let r = SimReport::new(
            "T",
            SimConfig {
                duration: Seconds::new(10.0),
                sample_period: Seconds::new(1.0),
                warmup: Seconds::ZERO,
                seed: 0,
                scheduling: WakeMode::Coarse,
            },
            NodeId::new(0),
            vec![
                NodeStats {
                    node: NodeId::new(0),
                    depth: 0,
                    breakdown: sink_breakdown,
                    busy: Seconds::new(10.0),
                    counters: FrameCounters::default(),
                    mean_sinr_db: None,
                },
                NodeStats {
                    node: NodeId::new(1),
                    depth: 1,
                    breakdown: node_breakdown,
                    busy: Seconds::new(1.0),
                    counters: FrameCounters::default(),
                    mean_sinr_db: None,
                },
            ],
            vec![],
        );
        // Same epoch as duration: scale 1. The sink's 100 J must not win.
        assert_eq!(r.bottleneck_energy(Seconds::new(10.0)), Joules::new(1.0));
        assert_eq!(
            r.bottleneck_breakdown(Seconds::new(10.0)).tx,
            Joules::new(1.0)
        );
    }
}
