//! Physical-layer channel models for the ED-MAC simulator.
//!
//! A [`ChannelModel`] realizes node positions into a [`LinkField`]
//! (who hears whom, at what power) and hands the engine the
//! [`SinrParams`] it judges every reception by. The engine has one
//! decode rule; the models differ only in what they feed it:
//!
//! * [`UnitDisk`] — the paper's unit-disk graph and the default
//!   everywhere: every node within distance 1 hears every frame at
//!   unit power, links are symmetric, and its capture-off parameters
//!   make the first arrival lock and any overlap destroy the locked
//!   reception.
//! * [`SinrChannel`] — log-distance path loss with per-directed-link
//!   lognormal shadowing and a thermal noise floor. A reception is
//!   decodable iff its SINR clears a capture threshold against the
//!   *sum* of concurrent interferers, so overlap no longer implies
//!   loss and links become asymmetric (shadowing is drawn per directed
//!   pair).
//!
//! [`ChannelModel::realize`] turns node positions into a [`LinkField`]:
//! per-directed-link received powers above an interference floor, plus
//! the symmetric decode graph (both directions above sensitivity) that
//! routing runs over. Realization prunes candidates with the spatial
//! hash `edmac_net::Topology::graph` uses ([`each_pair_within`]), so
//! 100k-node fields stay O(n) for bounded densities.
//!
//! Distances are in the unit-disk scale the rest of the workspace
//! uses (disk radius ≡ 1), and the power figures are *stylized*: the
//! defaults are chosen so that at σ = 0 the sensitivity contour sits
//! exactly at distance 1, which is what makes
//! [`SinrChannel::degenerate`] reproduce `UnitDisk` link-for-link.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

use edmac_net::{each_pair_within, Graph, NodeId, Point2};

/// Convert a power in dBm to linear milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Convert a linear power in milliwatts to dBm.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

/// The SINR decode parameters a realized channel hands the engine,
/// which judges every reception by them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrParams {
    /// Thermal noise floor, linear mW.
    pub noise_mw: f64,
    /// Receiver sensitivity, linear mW: arrivals below this power are
    /// noise (counted, never locked onto).
    pub sensitivity_mw: f64,
    /// Capture threshold as a *linear* SINR ratio. `None` disables
    /// capture: the receiver locks onto the first arrival at or above
    /// sensitivity, and any overlap while locked destroys the frame
    /// (the unit-disk rule) — no SINR is ever computed. `Some(c)`
    /// engages full SINR gating: a frame locks (and stays decodable)
    /// only while its SINR against noise plus summed interference is
    /// at least `c`.
    pub capture: Option<f64>,
}

impl SinrParams {
    /// SINR of a signal against this channel's noise floor plus the
    /// given summed interference power (all linear mW).
    #[inline]
    pub fn sinr(&self, signal_mw: f64, interference_mw: f64) -> f64 {
        signal_mw / (self.noise_mw + interference_mw)
    }

    /// Whether a signal at `signal_mw` decodes against `interference_mw`
    /// of concurrent interference under the capture rule.
    #[inline]
    pub fn decodable(&self, signal_mw: f64, interference_mw: f64) -> bool {
        if signal_mw < self.sensitivity_mw {
            return false;
        }
        match self.capture {
            Some(c) => self.sinr(signal_mw, interference_mw) >= c,
            None => true,
        }
    }
}

/// Incremental tracker of total on-air power at one receiver.
///
/// The engine keeps one per node and updates it on every `AirStart` /
/// `AirEnd`, so a per-decode SINR check is O(1) instead of a rescan of
/// concurrent transmissions. The count doubles as a float-drift guard:
/// when the last frame leaves the air the accumulated power snaps back
/// to exactly `0.0`, so long runs cannot accumulate rounding residue
/// that would perturb deterministic replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterferenceTally {
    power_mw: f64,
    count: u32,
}

impl InterferenceTally {
    /// A tally with nothing on the air.
    pub fn new() -> InterferenceTally {
        InterferenceTally::default()
    }

    /// A frame with the given received power entered the air.
    #[inline]
    pub fn add(&mut self, power_mw: f64) {
        self.power_mw += power_mw;
        self.count += 1;
    }

    /// A frame with the given received power left the air.
    #[inline]
    pub fn remove(&mut self, power_mw: f64) {
        self.count = self.count.saturating_sub(1);
        if self.count == 0 {
            self.power_mw = 0.0;
        } else {
            self.power_mw -= power_mw;
        }
    }

    /// Number of frames currently on the air at this receiver.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Total on-air power in mW (including any locked signal).
    #[inline]
    pub fn power_mw(&self) -> f64 {
        self.power_mw
    }

    /// SINR of `signal_mw` (which must be part of the tally) against
    /// the rest of the tally plus `noise_mw`.
    #[inline]
    pub fn sinr(&self, signal_mw: f64, noise_mw: f64) -> f64 {
        let interference = (self.power_mw - signal_mw).max(0.0);
        signal_mw / (noise_mw + interference)
    }
}

/// A realized channel: who hears whom, at what power, and which links
/// are good enough to route over.
///
/// `receivers[u]` lists every node that registers energy from `u`'s
/// transmissions (received power at or above the model's interference
/// floor), in ascending receiver order, with the linear received power
/// in mW. This is the engine's *air* adjacency — the superset the
/// sharded scheduler must stay conservative over. The *decode* graph
/// is the symmetric subgraph where **both** directions clear the
/// sensitivity threshold; routing trees are built over it.
#[derive(Debug, Clone, Default)]
pub struct LinkField {
    receivers: Vec<Vec<(NodeId, f64)>>,
    decode_edges: Vec<(NodeId, NodeId)>,
}

impl LinkField {
    /// Number of nodes in the field.
    pub fn len(&self) -> usize {
        self.receivers.len()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.receivers.is_empty()
    }

    /// The nodes that hear `node`'s transmissions, ascending, with
    /// received power in mW.
    pub fn receivers(&self, node: NodeId) -> &[(NodeId, f64)] {
        &self.receivers[node.index()]
    }

    /// Total directed air links in the field.
    pub fn air_link_count(&self) -> usize {
        self.receivers.iter().map(Vec::len).sum()
    }

    /// The symmetric decode graph: edge `u – v` iff both directed
    /// links clear the model's sensitivity threshold.
    pub fn decode_graph(&self) -> Graph {
        let mut graph = Graph::with_nodes(self.receivers.len());
        for &(a, b) in &self.decode_edges {
            graph.add_edge(a, b);
        }
        graph
    }
}

/// A channel model: turns node positions into a realized [`LinkField`]
/// and tells the engine how to judge receptions.
pub trait ChannelModel: std::fmt::Debug {
    /// Human-readable model name for reports and artifacts.
    fn name(&self) -> &'static str;

    /// Realize per-directed-link received powers for these positions.
    /// `seed` drives the shadowing draw; the same `(positions, seed)`
    /// always yields the same field.
    fn realize(&self, positions: &[Point2], seed: u64) -> LinkField;

    /// The decode parameters the engine judges every reception by.
    fn sinr(&self) -> SinrParams;
}

/// The degenerate reference: every node within distance 1 hears every
/// frame at unit power (1 mW), links are symmetric, and its capture-off
/// [`SinrParams`], with sensitivity at that unit power, make the first
/// arrival lock and any overlap destroy a locked reception.
/// [`SinrChannel::degenerate`] realizes the same links and decodes
/// the same way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitDisk;

impl ChannelModel for UnitDisk {
    fn name(&self) -> &'static str {
        "unit-disk"
    }

    fn realize(&self, positions: &[Point2], _seed: u64) -> LinkField {
        let mut receivers = vec![Vec::new(); positions.len()];
        let mut decode_edges = Vec::new();
        each_pair_within(positions, 1.0, |i, j, _d_sq| {
            let (a, b) = (NodeId::new(i), NodeId::new(j));
            receivers[i].push((b, 1.0));
            receivers[j].push((a, 1.0));
            decode_edges.push((a, b));
        });
        LinkField {
            receivers,
            decode_edges,
        }
    }

    fn sinr(&self) -> SinrParams {
        // No noise floor: with capture off no SINR is ever computed.
        SinrParams {
            noise_mw: 0.0,
            sensitivity_mw: 1.0,
            capture: None,
        }
    }
}

/// Log-distance path loss with per-directed-link lognormal shadowing,
/// a noise floor, and SINR capture.
///
/// Received power for the directed link `u → v` at distance `d` is
///
/// ```text
/// rx_dbm = tx_power_dbm − ref_loss_db − 10·α·log10(d) − X(u→v)
/// ```
///
/// where `α` is [`path_loss_exp`](SinrChannel::path_loss_exp) and
/// `X(u→v) ~ N(0, σ²)` is a shadowing draw hashed deterministically
/// from `(seed, u, v)` — *directed*, so `u → v` and `v → u` shadow
/// independently and links are asymmetric for σ > 0.
///
/// Three thresholds carve up the field:
///
/// * links at or above [`sensitivity_dbm`](SinrChannel::sensitivity_dbm)
///   in **both** directions form the decode graph routing runs over;
/// * links at or above
///   [`interference_floor_dbm`](SinrChannel::interference_floor_dbm)
///   in a direction contribute interference power at that receiver
///   (this is the engine's air adjacency, a superset of the decode
///   graph — the sharded scheduler stays conservative over it);
/// * anything weaker is ignored entirely.
///
/// The defaults place the σ = 0 sensitivity contour exactly at the
/// unit-disk radius, which is what makes
/// [`degenerate`](SinrChannel::degenerate) reproduce [`UnitDisk`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrChannel {
    /// Transmit power in dBm (default 0).
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance d = 1... almost: the loss
    /// model is `ref_loss_db + 10·α·log10(d)`, so at d = 1 exactly
    /// `ref_loss_db` is lost (default 40 dB).
    pub ref_loss_db: f64,
    /// Path-loss exponent α (default 3.0, an indoor-ish deployment).
    pub path_loss_exp: f64,
    /// Lognormal shadowing standard deviation σ in dB (default 4.0;
    /// 0 disables shadowing and makes links symmetric).
    pub shadowing_sigma_db: f64,
    /// Thermal noise floor in dBm (default −60).
    pub noise_floor_dbm: f64,
    /// Receiver sensitivity in dBm (default −40: with the other
    /// defaults the σ = 0 sensitivity contour sits at distance 1).
    pub sensitivity_dbm: f64,
    /// Capture threshold in dB (default `Some(6.0)`). `None` turns
    /// capture off: first-arrival locking and overlap-destroys, i.e.
    /// [`UnitDisk`]'s decision rule over SINR-realized links.
    pub capture_db: Option<f64>,
    /// Links below this received power (dBm) are dropped from the
    /// field entirely (default −55: interference range ≈ 3.16 disk
    /// radii at σ = 0).
    pub interference_floor_dbm: f64,
}

impl Default for SinrChannel {
    fn default() -> SinrChannel {
        SinrChannel {
            tx_power_dbm: 0.0,
            ref_loss_db: 40.0,
            path_loss_exp: 3.0,
            shadowing_sigma_db: 4.0,
            noise_floor_dbm: -60.0,
            sensitivity_dbm: -40.0,
            capture_db: Some(6.0),
            interference_floor_dbm: -55.0,
        }
    }
}

impl SinrChannel {
    /// The configuration that reproduces [`UnitDisk`] exactly over
    /// path-loss powers: σ = 0 (symmetric links), capture off
    /// (first-arrival lock, overlap destroys), and the
    /// interference floor raised to the sensitivity threshold (air
    /// adjacency ≡ decode adjacency ≡ the unit-disk graph).
    pub fn degenerate() -> SinrChannel {
        SinrChannel {
            shadowing_sigma_db: 0.0,
            capture_db: None,
            interference_floor_dbm: -40.0,
            ..SinrChannel::default()
        }
    }

    /// The [`SinrParams`] this model hands the engine.
    pub fn params(&self) -> SinrParams {
        SinrParams {
            noise_mw: dbm_to_mw(self.noise_floor_dbm),
            sensitivity_mw: dbm_to_mw(self.sensitivity_dbm),
            capture: self.capture_db.map(dbm_to_mw),
        }
    }

    /// Maximum distance at which a link can clear the interference
    /// floor, with a +4σ shadowing allowance. Used as the spatial-hash
    /// candidate range; a 4σ favorable draw beyond it is possible but
    /// has probability < 4 · 10⁻⁵ per link and is deliberately pruned.
    pub fn candidate_range(&self) -> f64 {
        let budget_db = self.tx_power_dbm - self.ref_loss_db - self.interference_floor_dbm
            + 4.0 * self.shadowing_sigma_db;
        // budget = 10 α log10(d)  ⇒  d = 10^(budget / (10 α))
        10f64.powf(budget_db / (10.0 * self.path_loss_exp)).max(1.0)
    }

    /// Received power in dBm over the directed link `tx → rx` at
    /// squared distance `d_sq`, including the shadowing draw.
    ///
    /// The deterministic loss is computed as `5·α·log10(d²)` straight
    /// from the squared distance — no square root — so the σ = 0
    /// sensitivity test at d² = 1 is exact.
    pub fn rx_dbm(&self, seed: u64, tx: usize, rx: usize, d_sq: f64) -> f64 {
        let d_sq = d_sq.max(1e-6); // coincident nodes: clamp, don't -inf
        self.tx_power_dbm
            - self.ref_loss_db
            - 5.0 * self.path_loss_exp * d_sq.log10()
            - shadow_db(seed, tx, rx, self.shadowing_sigma_db)
    }
}

impl ChannelModel for SinrChannel {
    fn name(&self) -> &'static str {
        "sinr"
    }

    fn realize(&self, positions: &[Point2], seed: u64) -> LinkField {
        let sens = self.sensitivity_dbm;
        let floor = self.interference_floor_dbm.min(sens);
        let mut receivers = vec![Vec::new(); positions.len()];
        let mut decode_edges = Vec::new();
        each_pair_within(positions, self.candidate_range(), |i, j, d_sq| {
            let fwd = self.rx_dbm(seed, i, j, d_sq);
            let rev = self.rx_dbm(seed, j, i, d_sq);
            if fwd >= floor {
                receivers[i].push((NodeId::new(j), dbm_to_mw(fwd)));
            }
            if rev >= floor {
                receivers[j].push((NodeId::new(i), dbm_to_mw(rev)));
            }
            if fwd >= sens && rev >= sens {
                decode_edges.push((NodeId::new(i), NodeId::new(j)));
            }
        });
        LinkField {
            receivers,
            decode_edges,
        }
    }

    fn sinr(&self) -> SinrParams {
        self.params()
    }
}

/// SplitMix64 finalizer — the workspace's standard stateless mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic N(0, σ²) shadowing draw for the *directed* pair
/// `tx → rx`: two hashed uniforms through Box–Muller. σ = 0 returns
/// exactly 0.0 (no hash, no rounding).
fn shadow_db(seed: u64, tx: usize, rx: usize, sigma_db: f64) -> f64 {
    if sigma_db == 0.0 {
        return 0.0;
    }
    let pair = ((tx as u64) << 32) ^ (rx as u64) ^ 0x5DEE_CE66_D000_0001;
    let key = splitmix64(seed ^ splitmix64(pair));
    let a = splitmix64(key ^ 0xA076_1D64_78BD_642F);
    let b = splitmix64(key ^ 0xE703_7ED1_A0B4_28DB);
    // u1 ∈ (0, 1] so ln never sees 0; u2 ∈ [0, 1).
    let u1 = ((a >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (b >> 11) as f64 / (1u64 << 53) as f64;
    sigma_db * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn scatter(n: usize, side: f64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect()
    }

    #[test]
    fn unit_disk_receivers_match_distance_test() {
        let positions = scatter(60, 6.0, 7);
        let field = UnitDisk.realize(&positions, 0);
        for i in 0..positions.len() {
            let expected: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[i].distance_squared(positions[j]) <= 1.0)
                .map(NodeId::new)
                .collect();
            let got: Vec<NodeId> = field
                .receivers(NodeId::new(i))
                .iter()
                .map(|&(v, _)| v)
                .collect();
            assert_eq!(got, expected, "node {i}");
        }
    }

    #[test]
    fn degenerate_field_matches_unit_disk_link_for_link() {
        for seed in [1u64, 42, 9000] {
            let positions = scatter(80, 7.0, seed);
            let disk = UnitDisk.realize(&positions, seed);
            let sinr = SinrChannel::degenerate().realize(&positions, seed);
            for i in 0..positions.len() {
                let d: Vec<NodeId> = disk
                    .receivers(NodeId::new(i))
                    .iter()
                    .map(|&(v, _)| v)
                    .collect();
                let s: Vec<NodeId> = sinr
                    .receivers(NodeId::new(i))
                    .iter()
                    .map(|&(v, _)| v)
                    .collect();
                assert_eq!(d, s, "air adjacency of node {i}, seed {seed}");
            }
            let dg = disk.decode_graph();
            let sg = sinr.decode_graph();
            for i in 0..positions.len() {
                assert_eq!(
                    dg.neighbors(NodeId::new(i)),
                    sg.neighbors(NodeId::new(i)),
                    "decode adjacency of node {i}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn degenerate_mode_has_no_capture_and_disk_thresholds() {
        for params in [SinrChannel::degenerate().params(), UnitDisk.sinr()] {
            assert_eq!(params.capture, None);
            assert!(params.decodable(params.sensitivity_mw, 10.0 * params.sensitivity_mw));
            assert!(!params.decodable(params.sensitivity_mw * 0.999, 0.0));
        }
        // UnitDisk's links all sit exactly at its sensitivity.
        assert!(UnitDisk.sinr().decodable(1.0, 0.0));
    }

    #[test]
    fn shadowed_links_are_asymmetric_and_deterministic() {
        let chan = SinrChannel::default();
        let a = chan.rx_dbm(99, 3, 4, 2.0);
        let b = chan.rx_dbm(99, 4, 3, 2.0);
        assert_ne!(a, b, "directed shadowing should decorrelate u→v and v→u");
        assert_eq!(a, chan.rx_dbm(99, 3, 4, 2.0), "draws must be reproducible");
        assert_ne!(a, chan.rx_dbm(100, 3, 4, 2.0), "seed must matter");
    }

    #[test]
    fn shadowing_moments_are_sane() {
        let sigma = 4.0;
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|i| shadow_db(5, i, i + 1, sigma)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn capture_threshold_separates_decode_outcomes() {
        let params = SinrChannel::default().params();
        let signal = dbm_to_mw(-30.0);
        // 6 dB capture: interference 6 dB below the signal decodes,
        // equal-power interference does not.
        assert!(params.decodable(signal, dbm_to_mw(-37.0)));
        assert!(!params.decodable(signal, signal));
        // Below sensitivity never decodes, whatever the interference.
        assert!(!params.decodable(dbm_to_mw(-41.0), 0.0));
    }

    #[test]
    fn interference_tally_is_incremental_and_drift_free() {
        let mut tally = InterferenceTally::new();
        let powers = [1e-4, 3e-4, 7e-5];
        for p in powers {
            tally.add(p);
        }
        assert_eq!(tally.count(), 3);
        let sum: f64 = powers.iter().sum();
        assert!((tally.power_mw() - sum).abs() < 1e-18);
        let sinr = tally.sinr(3e-4, 1e-6);
        assert!((sinr - 3e-4 / (1e-6 + 1e-4 + 7e-5)).abs() < 1e-12);
        for p in powers {
            tally.remove(p);
        }
        assert_eq!(tally.count(), 0);
        assert_eq!(
            tally.power_mw(),
            0.0,
            "empty tally must snap to exactly zero"
        );
    }

    #[test]
    fn candidate_range_covers_interference_floor() {
        let chan = SinrChannel {
            shadowing_sigma_db: 0.0,
            ..SinrChannel::default()
        };
        // floor −55 dBm, 15 dB of budget past the unit contour at α=3:
        // d = 10^(15/30) ≈ 3.162.
        assert!((chan.candidate_range() - 10f64.powf(0.5)).abs() < 1e-12);
        let degenerate = SinrChannel::degenerate();
        assert_eq!(degenerate.candidate_range(), 1.0);
    }

    #[test]
    fn sinr_field_has_asymmetric_air_links_under_shadowing() {
        let positions = scatter(120, 8.0, 11);
        let field = SinrChannel::default().realize(&positions, 11);
        let mut asymmetric = 0usize;
        for i in 0..positions.len() {
            for &(j, _) in field.receivers(NodeId::new(i)) {
                let reverse = field.receivers(j).iter().any(|&(v, _)| v == NodeId::new(i));
                if !reverse {
                    asymmetric += 1;
                }
            }
        }
        assert!(
            asymmetric > 0,
            "4 dB shadowing should break some links one-way"
        );
        assert!(field.air_link_count() > 0);
    }
}
