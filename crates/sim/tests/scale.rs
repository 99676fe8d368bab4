//! The headline scale run: a 100 000-node uniform disk, simulated
//! whole, with the engine beating real time on a TDMA schedule
//! (**LMAC**: no preamble strobes, so the event rate is set by slot
//! wakes and actual frames).
//!
//! The workload is an hourly-telemetry deployment (3600 s sample
//! period, 20 ms slots), a realistic operating point for a network
//! this size. Slow tier (`cargo test --release --
//! --ignored`): pure CPU work, meaningless under a debug build, so the
//! timing assertions only arm in release.

use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{CoexNetwork, LmacSim, SimConfig, SimProtocol, Simulation, WakeMode};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const NODES: usize = 100_000;
/// Simulated horizon: long enough to amortize setup, short enough for
/// the slow tier.
const HORIZON_S: f64 = 10.0;

fn config() -> SimConfig {
    SimConfig {
        duration: Seconds::new(HORIZON_S),
        sample_period: Seconds::new(3600.0),
        warmup: Seconds::ZERO,
        seed: 5,
        scheduling: WakeMode::Coarse,
    }
}

#[test]
#[ignore = "slow tier: 100k-node scale run (release only)"]
fn hundred_thousand_node_disk_outpaces_real_time() {
    // Density 5 nodes per unit area: expected degree ~15.7, comfortably
    // above the ~ln n ≈ 11.5 connectivity threshold, while keeping each
    // transmission's neighborhood fan-out bounded.
    let radius = (NODES as f64 / 5.0 / std::f64::consts::PI).sqrt();
    let build_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(9);
    let topo = Topology::uniform_disk(NODES, radius, &mut rng).expect("connected disk");
    eprintln!(
        "topology: {NODES} nodes, radius {radius:.1}, built in {:.2?} (spatial-hash graph)",
        build_start.elapsed()
    );
    let build = |protocol: &dyn SimProtocol| {
        Simulation::new(
            &[CoexNetwork {
                topology: &topo,
                protocol,
            }],
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            config(),
        )
        .expect("buildable disk")
    };
    let release = !cfg!(debug_assertions);
    let real_time = Duration::from_secs_f64(HORIZON_S);

    // TDMA cell: sequential faster than real time, unconditionally.
    // 20 ms slots x 128: enough slots for the distance-2 coloring at
    // this density, and a frame rate that leaves the real-time bound a
    // ~2x margin against machine variance.
    let lmac = LmacSim {
        slot: Seconds::from_millis(20.0),
        frame_slots: 128,
    };
    let t = Instant::now();
    let sim = build(&lmac);
    let build_wall = t.elapsed();
    let t = Instant::now();
    let (_, stats) = sim.run_with_stats();
    let run_wall = t.elapsed();
    let lmac_wall = build_wall + run_wall;
    eprintln!(
        "lmac sequential: {lmac_wall:.2?} for {HORIZON_S}s simulated ({:.1}x real time): \
         built in {build_wall:.2?}, ran in {run_wall:.2?}, {} wakes fired, {} replayed",
        HORIZON_S / lmac_wall.as_secs_f64(),
        stats.wakes_fired,
        stats.wakes_replayed
    );
    if release {
        assert!(
            lmac_wall < real_time,
            "sequential 100k-node LMAC run slower than real time: {lmac_wall:.2?}"
        );
    }
}
