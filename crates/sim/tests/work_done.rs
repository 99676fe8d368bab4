//! The work-done guard: exact counts of the wakes a run fires and
//! replays ([`RunStats`]). Reports are bit-identical whatever the
//! engine skips, and wall time is noisy; these counts are neither. A
//! change to how much work the engine does shows here as a changed
//! count, to be re-pinned on purpose, and never as timer noise.

mod common;

use common::{assert_identical, build};
use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_sim::{DmacSim, LmacSim, RunStats, SimConfig, SimProtocol, WakeMode, XmacSim};
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

/// `protocol` on a 6-ring, density-4 ring (145 nodes), a sample a
/// minute per node, for 60 s: most polls and cycles fall in stretches
/// where no node near the poller holds a packet, and are replayed.
fn quiet_ring(
    protocol: &dyn SimProtocol,
    scheduling: WakeMode,
) -> (edmac_sim::SimReport, RunStats) {
    let mut rng = StdRng::seed_from_u64(61);
    let ring = Topology::ring_model(6, 4, &mut rng).expect("buildable ring");
    let cfg = SimConfig {
        duration: Seconds::new(60.0),
        sample_period: Seconds::new(60.0),
        warmup: Seconds::new(5.0),
        seed: 61,
        scheduling,
    };
    build(&ring, protocol, &UnitDisk, cfg).run_with_stats()
}

/// Pins the coarse and dense work of `protocol` on [`quiet_ring`].
fn assert_quiet_ring_work(protocol: &dyn SimProtocol, coarse_work: RunStats, dense_work: RunStats) {
    let (coarse, coarse_stats) = quiet_ring(protocol, WakeMode::Coarse);
    let (dense, dense_stats) = quiet_ring(protocol, WakeMode::Dense);
    let name = protocol.name();
    assert_identical(&coarse, &dense, &format!("{name} quiet ring"));
    assert_eq!(coarse_stats, coarse_work, "{name} coarse");
    assert_eq!(dense_stats, dense_work, "{name} dense");
}

#[test]
fn coarse_xmac_on_a_quiet_ring_replays_a_pinned_share_of_its_polls() {
    assert_quiet_ring_work(
        &XmacSim::new(Seconds::from_millis(100.0)),
        RunStats {
            wakes_fired: 38_557,
            wakes_replayed: 59_231,
        },
        RunStats {
            wakes_fired: 87_000,
            wakes_replayed: 0,
        },
    );
}

#[test]
fn coarse_dmac_on_a_quiet_ring_replays_a_pinned_share_of_its_cycles() {
    assert_quiet_ring_work(
        &DmacSim::new(Seconds::new(0.5)),
        RunStats {
            wakes_fired: 15_662,
            wakes_replayed: 4_798,
        },
        RunStats {
            wakes_fired: 17_478,
            wakes_replayed: 0,
        },
    );
}
