//! The work-done guard: exact counts of the wakes a run fires and
//! replays ([`RunStats`]). Reports are bit-identical whatever the
//! engine skips, and wall time is noisy; these counts are neither. A
//! change to how much work the engine does shows here as a changed
//! count, to be re-pinned on purpose, and never as timer noise.

mod common;

use common::{assert_identical, build};
use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_sim::{LmacSim, RunStats, SimConfig, WakeMode};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// LMAC (10 ms slots, 24-slot frames) on an 8-ring, density-5 ring
/// (321 nodes), a sample a minute per node, for 30 s.
fn deep_ring_lmac(scheduling: WakeMode) -> (edmac_sim::SimReport, RunStats) {
    let mut rng = StdRng::seed_from_u64(56);
    let ring = Topology::ring_model(8, 5, &mut rng).expect("buildable ring");
    let cfg = SimConfig {
        duration: Seconds::new(30.0),
        sample_period: Seconds::new(60.0),
        warmup: Seconds::new(3.0),
        seed: 56,
        scheduling,
    };
    let lmac = LmacSim::new(Seconds::from_millis(10.0));
    build(&ring, &lmac, &UnitDisk, cfg).run_with_stats()
}

#[test]
fn coarse_lmac_on_a_deep_ring_fires_a_pinned_few_of_the_dense_wakes() {
    let (coarse, coarse_stats) = deep_ring_lmac(WakeMode::Coarse);
    let (dense, dense_stats) = deep_ring_lmac(WakeMode::Dense);
    assert_identical(&coarse, &dense, "LMAC deep ring");
    // Dense: each of the 321 nodes wakes for each of the 3 001 slots
    // whose wake falls inside the horizon. Coarse: a wake per
    // node at slot 0, and per own or child slot only where a packet
    // ends a bare-heartbeat stretch; every other wake is replayed.
    assert_eq!(
        coarse_stats,
        RunStats {
            wakes_fired: 6_730,
            wakes_replayed: 961_317,
        }
    );
    assert_eq!(
        dense_stats,
        RunStats {
            wakes_fired: 963_321,
            wakes_replayed: 0,
        }
    );
    assert!(
        coarse_stats.wakes_fired * 5 < dense_stats.wakes_fired,
        "coarse fired {} of {} dense wakes",
        coarse_stats.wakes_fired,
        dense_stats.wakes_fired
    );
}
