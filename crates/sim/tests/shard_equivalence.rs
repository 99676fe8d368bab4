//! The golden contract of the sharded engine, extending the
//! coarse-vs-dense wake equivalence into a full matrix: for every wake
//! mode, shard count, protocol and topology, the conservative-parallel
//! run must produce a [`SimReport`] *bit-identical* to the sequential
//! run of the same configuration.
//!
//! "Bit-identical" is meant literally, as in `wake_equivalence.rs`
//! (`common::assert_identical`): every f64 in every per-node energy
//! breakdown, every busy time, every frame counter, the SINR diagnostic
//! and every packet record timestamp. Sharding is
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
//! {ring, uniform disk, hotspot disk} topologies, the ring and uniform
//! disk on both [`UnitDisk`] and [`SinrChannel::degenerate`]. Shard count 1 runs
//! the sequential loop through the shard plan; 7 shards on the small
//! disks forces shards with interior-free boundaries (every node on a
//! frontier), the worst case for the lookahead bounds.

mod common;

use common::{assert_identical, build, channels};
use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_proto::CsmaSim;
use edmac_sim::{
    BurstWindows, DmacSim, LmacSim, ScpSim, SimConfig, SimProtocol, Simulation, TrafficProfile,
    WakeMode, XmacSim,
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

/// Runs one protocol × topology cell across the given wake modes and
/// every shard count, comparing each against the same-mode sequential
/// run.
fn assert_cell(build: &dyn Fn(WakeMode) -> Simulation, modes: &[WakeMode], label: &str) {
    for &mode in modes {
        let reference = build(mode).run();
        for shards in SHARD_COUNTS {
            let sharded = build(mode).with_shards(shards).run();
            assert_identical(
                &sharded,
                &reference,
                &format!("{label} {mode:?} shards={shards}"),
            );
        }
    }
}

/// Every protocol on every channel over `topo`, run under `seed`.
fn channel_matrix(topo: &Topology, seed: u64, modes: &[WakeMode], label: &str) {
    for protocol in &protocols() {
        for channel in &channels() {
            let make = |mode| {
                build(
                    topo,
                    protocol.as_ref(),
                    channel.as_ref(),
                    config(seed, mode),
                )
            };
            let label = format!("{} {label} on {}", protocol.name(), channel.name());
            assert_cell(&make, modes, &label);
        }
    }
}

#[test]
fn sharded_matches_sequential_on_rings() {
    let mut rng = StdRng::seed_from_u64(7);
    let topo = Topology::ring_model(3, 4, &mut rng).expect("buildable ring");
    channel_matrix(&topo, 7, &[WakeMode::Coarse, WakeMode::Dense], "ring");
}

fn disk_matrix(modes: &[WakeMode]) {
    let mut rng = StdRng::seed_from_u64(33);
    let topo = Topology::uniform_disk(30, 2.0, &mut rng).expect("connected disk");
    channel_matrix(&topo, 11, modes, "disk");
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
        let make = |mode| {
            build(&topo, protocol.as_ref(), &UnitDisk, config(23, mode))
                .with_traffic(traffic.clone())
                .expect("valid profile")
        };
        assert_cell(&make, modes, &format!("{} hotspot", protocol.name()));
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
