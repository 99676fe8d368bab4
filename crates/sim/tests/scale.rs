//! The headline scale run: a 100 000-node uniform disk, simulated
//! whole, with the sequential engine beating real time on a TDMA
//! schedule and the sharded engine converting cores into wall-clock
//! speedup on the preamble-heavy LPL schedule.
//!
//! Two protocol cells, because they stress opposite ends of the event
//! spectrum:
//!
//! * **LMAC** (TDMA): no preamble strobes, so the event rate is set by
//!   slot wakes and actual frames. This is the cell that must beat
//!   real time *sequentially*, on any machine.
//! * **X-MAC** (LPL): every hop is a strobe train fanned out to every
//!   neighbor (~25M frame arrivals per 10 simulated seconds at this
//!   density), which no single core simulates in real time — this is
//!   exactly the workload sharding exists for, so the real-time and
//!   ≥3× speedup assertions arm when ≥4 cores are available.
//!
//! The workload is an hourly-telemetry deployment (3600 s sample
//! period, 500 ms LPL / 20 ms slots), a realistic operating point for
//! a network this size. Slow tier (`cargo test --release --
//! --ignored`): pure CPU work, meaningless under a debug build, so the
//! timing assertions only arm in release.

use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{CoexNetwork, LmacSim, SimConfig, SimProtocol, Simulation, WakeMode, XmacSim};
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // TDMA cell: sequential faster than real time, unconditionally.
    // 20 ms slots x 128: enough slots for the distance-2 coloring at
    // this density, and a frame rate that leaves the real-time bound a
    // ~2x margin against machine variance.
    let lmac = LmacSim {
        slot: Seconds::from_millis(20.0),
        frame_slots: 128,
    };
    let t = Instant::now();
    let _ = build(&lmac).run();
    let lmac_wall = t.elapsed();
    eprintln!(
        "lmac sequential: {lmac_wall:.2?} for {HORIZON_S}s simulated ({:.1}x real time)",
        HORIZON_S / lmac_wall.as_secs_f64()
    );
    if release {
        assert!(
            lmac_wall < real_time,
            "sequential 100k-node LMAC run slower than real time: {lmac_wall:.2?}"
        );
    }

    // LPL cell: the strobe-storm workload the sharded engine is for.
    let xmac = XmacSim::new(Seconds::from_millis(500.0));
    let t = Instant::now();
    let sequential = build(&xmac).run();
    let seq_wall = t.elapsed();
    let t = Instant::now();
    let sharded = build(&xmac).with_shards(4).run();
    let par_wall = t.elapsed();
    let speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64();
    eprintln!(
        "xmac sequential: {seq_wall:.2?}; 4 shards: {par_wall:.2?}; \
         speedup {speedup:.2}x on {cores} core(s)"
    );

    // The report itself is checked for bit-identity by the
    // shard-equivalence matrix; here only the cheap invariant, so a
    // synchronization bug cannot hide behind a fast wrong answer.
    assert_eq!(
        sequential.delivered_count(),
        sharded.delivered_count(),
        "sharded delivered count diverged"
    );

    if release && cores >= 4 {
        assert!(
            par_wall < real_time,
            "4-shard 100k-node X-MAC run slower than real time on {cores} cores: {par_wall:.2?}"
        );
        assert!(
            speedup >= 3.0,
            "expected >= 3x speedup at 4 shards on {cores} cores, measured {speedup:.2}x"
        );
    } else {
        eprintln!("xmac timing assertions skipped (release: {release}, cores: {cores} — need 4)");
    }
}
