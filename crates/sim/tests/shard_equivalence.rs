//! The golden contract of the sharded engine, extending the
//! coarse-vs-dense wake equivalence into a full matrix: for every wake
//! mode, shard count, protocol and topology, the conservative-parallel
//! run must produce a [`SimReport`] *bit-identical* to the sequential
//! run of the same configuration.
//!
//! "Bit-identical" is meant literally, as in `wake_equivalence.rs`:
//! every f64 in every per-node energy breakdown, every busy time,
//! every frame counter and every packet record timestamp. Sharding is
//! an execution strategy for the event loop, not a change to the
//! simulated physics — the cross-shard merge rule (events executed in
//! `(time, round, node, seq)` order exactly as the sequential engine
//! would) makes any drift here a synchronization bug, never a
//! tolerance question.
//!
//! Under [`WakeMode::Coarse`] the two sides also run different
//! schedules: the sequential run keeps the quiet-network bookkeeping
//! and replays idle polls, cycles and heartbeat slots up to the next
//! sample, while a sharded run has no whole-network view and
//! simulates every one of them. The matrix therefore also pins quiet
//! replay against plain simulation, which is why it stays in the
//! quick tier.
//!
//! The matrix: {Dense, Coarse} wake modes × {1, 2, 4, 7} shards ×
//! the paper trio (X-MAC, DMAC, LMAC) + SCP + always-on CSMA ×
//! {ring, uniform disk, hotspot disk} topologies. Shard count 1 runs
//! the sequential loop through the shard plan; 7 shards on the small
//! disks forces shards with interior-free boundaries (every node on a
//! frontier), the worst case for the lookahead bounds.

use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_proto::CsmaSim;
use edmac_radio::{Cause, FrameSizes, Radio};
use edmac_sim::{
    BurstWindows, CoexNetwork, DmacSim, LmacSim, ScpSim, SimConfig, SimProtocol, SimReport,
    Simulation, TrafficProfile, WakeMode, XmacSim,
};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn config(seed: u64, scheduling: WakeMode) -> SimConfig {
    SimConfig {
        duration: Seconds::new(60.0),
        sample_period: Seconds::new(15.0),
        warmup: Seconds::new(10.0),
        seed,
        scheduling,
    }
}

/// The paper trio, SCP, and the always-on CSMA baseline. LMAC gets a
/// disk-sized frame (a disk neighborhood needs more distance-2 slots
/// than the ring default).
fn protocols() -> [Box<dyn SimProtocol>; 5] {
    [
        Box::new(XmacSim::new(Seconds::from_millis(100.0))),
        Box::new(DmacSim::new(Seconds::new(0.5))),
        Box::new(LmacSim {
            slot: Seconds::from_millis(10.0),
            frame_slots: 64,
        }),
        Box::new(ScpSim::new(Seconds::from_millis(250.0))),
        Box::new(CsmaSim {
            contention_window: Seconds::from_millis(50.0),
        }),
    ]
}

/// Asserts bitwise equality of two reports, field by field.
fn assert_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.protocol(), b.protocol(), "{label}: protocol");
    assert_eq!(
        a.per_node().len(),
        b.per_node().len(),
        "{label}: node count"
    );
    for (sa, sb) in a.per_node().iter().zip(b.per_node()) {
        assert_eq!(sa.node, sb.node, "{label}");
        assert_eq!(sa.depth, sb.depth, "{label}: node {}", sa.node);
        assert_eq!(sa.counters, sb.counters, "{label}: node {}", sa.node);
        assert_eq!(
            sa.busy.value().to_bits(),
            sb.busy.value().to_bits(),
            "{label}: node {} busy {} vs {}",
            sa.node,
            sa.busy,
            sb.busy
        );
        for cause in Cause::ALL {
            assert_eq!(
                sa.breakdown.get(cause).value().to_bits(),
                sb.breakdown.get(cause).value().to_bits(),
                "{label}: node {} {cause} energy {} vs {}",
                sa.node,
                sa.breakdown.get(cause),
                sb.breakdown.get(cause)
            );
        }
    }
    assert_eq!(a.records().len(), b.records().len(), "{label}: records");
    for (ra, rb) in a.records().iter().zip(b.records()) {
        assert_eq!(ra, rb, "{label}: packet record");
    }
}

/// Runs one protocol × topology cell across the given wake modes and
/// every shard count, comparing each against the same-mode sequential
/// run.
fn assert_cell(
    build: &dyn Fn(WakeMode) -> Simulation,
    modes: &[WakeMode],
    protocol_name: &str,
    topo: &str,
) {
    for &mode in modes {
        let reference = build(mode).run();
        for shards in SHARD_COUNTS {
            let sharded = build(mode).with_shards(shards).run();
            assert_identical(
                &sharded,
                &reference,
                &format!("{protocol_name} {topo} {mode:?} shards={shards}"),
            );
        }
    }
}

#[test]
fn sharded_matches_sequential_on_rings() {
    for protocol in &protocols() {
        let build = |mode| {
            Simulation::ring(3, 4, protocol.as_ref(), config(7, mode)).expect("buildable ring")
        };
        assert_cell(
            &build,
            &[WakeMode::Coarse, WakeMode::Dense],
            protocol.name(),
            "ring",
        );
    }
}

fn disk_matrix(modes: &[WakeMode]) {
    let mut rng = StdRng::seed_from_u64(33);
    let topo = Topology::uniform_disk(30, 2.0, &mut rng).expect("connected disk");
    for protocol in &protocols() {
        let build = |mode| {
            Simulation::new(
                &[CoexNetwork {
                    topology: &topo,
                    protocol: protocol.as_ref(),
                }],
                &UnitDisk,
                Radio::cc2420(),
                FrameSizes::default(),
                config(11, mode),
            )
            .expect("buildable disk")
        };
        assert_cell(&build, modes, protocol.name(), "disk");
    }
}

#[test]
fn sharded_matches_sequential_on_uniform_disks() {
    disk_matrix(&[WakeMode::Coarse]);
}

fn hotspot_matrix(modes: &[WakeMode]) {
    // Non-uniform traffic with synchronized bursts: a quarter of the
    // sources at a third of the period, plus 4x windows — the paths
    // where per-node sampling RNG and the burst clock must stay
    // shard-invariant.
    let mut rng = StdRng::seed_from_u64(57);
    let topo = Topology::uniform_disk(30, 2.0, &mut rng).expect("connected disk");
    let n = topo.len();
    let mut traffic = TrafficProfile::uniform(n, Seconds::new(15.0)).with_bursts(BurstWindows {
        every: Seconds::new(20.0),
        duration: Seconds::new(5.0),
        factor: 4.0,
    });
    for i in (0..n).step_by(4) {
        traffic.periods[i] = Seconds::new(5.0);
    }
    for protocol in &protocols() {
        let build = |mode| {
            Simulation::new(
                &[CoexNetwork {
                    topology: &topo,
                    protocol: protocol.as_ref(),
                }],
                &UnitDisk,
                Radio::cc2420(),
                FrameSizes::default(),
                config(23, mode),
            )
            .expect("buildable disk")
            .with_traffic(traffic.clone())
            .expect("valid profile")
        };
        assert_cell(&build, modes, protocol.name(), "hotspot");
    }
}

#[test]
fn sharded_matches_sequential_on_hotspot_disks() {
    hotspot_matrix(&[WakeMode::Coarse]);
}

/// The slow-tier completion of the matrix: the dense wake schedule is
/// an order of magnitude more events, so its disk rows run with the
/// other `#[ignore]`d sweeps (`cargo test -- --ignored`).
#[test]
#[ignore = "slow tier: dense wake schedule on disk topologies"]
fn dense_sharded_matches_sequential_on_disks() {
    disk_matrix(&[WakeMode::Dense]);
    hotspot_matrix(&[WakeMode::Dense]);
}
