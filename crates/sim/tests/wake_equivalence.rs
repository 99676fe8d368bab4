//! The golden contract of event-coarse wake scheduling: for every
//! protocol, topology and seed, [`WakeMode::Coarse`] must produce a
//! [`SimReport`] that is *bit-identical* to [`WakeMode::Dense`] (the
//! reference schedule that wakes every node at every protocol tick,
//! like the pre-coarsening engine did).
//!
//! "Bit-identical" is meant literally (`common::assert_identical`):
//! every f64 in every per-node energy breakdown, every busy time, every
//! frame counter, the SINR diagnostic and every packet record
//! timestamp. The coarse scheduler is an optimization of the event
//! loop, not of the simulated physics — any drift here is a bug in the
//! skip/replay logic, not a tolerance question. The ring, disk and line
//! matrices run on [`UnitDisk`] and on [`SinrChannel::degenerate`].

mod common;

use common::{assert_identical, build, channels};
use edmac_net::Topology;
use edmac_phy::{SinrChannel, UnitDisk};
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{
    BurstWindows, CoexNetwork, DmacSim, LmacSim, ScpSim, SimConfig, SimProtocol, SimReport,
    Simulation, TrafficProfile, WakeMode, XmacSim,
};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(seed: u64, scheduling: WakeMode) -> SimConfig {
    SimConfig {
        duration: Seconds::new(120.0),
        sample_period: Seconds::new(25.0),
        warmup: Seconds::new(20.0),
        seed,
        scheduling,
    }
}

fn protocols() -> [Box<dyn SimProtocol>; 4] {
    [
        Box::new(XmacSim::new(Seconds::from_millis(100.0))),
        Box::new(DmacSim::new(Seconds::new(0.5))),
        Box::new(LmacSim::new(Seconds::from_millis(10.0))),
        Box::new(ScpSim::new(Seconds::from_millis(250.0))),
    ]
}

/// Coarse against dense for every protocol and channel on `topo`.
fn assert_coarse_equals_dense(topo: &Topology, seed: u64, label: &str) {
    for protocol in &protocols() {
        for channel in &channels() {
            let run = |mode| {
                build(
                    topo,
                    protocol.as_ref(),
                    channel.as_ref(),
                    config(seed, mode),
                )
                .run()
            };
            assert_identical(
                &run(WakeMode::Coarse),
                &run(WakeMode::Dense),
                &format!("{} {label} on {}", protocol.name(), channel.name()),
            );
        }
    }
}

#[test]
fn coarse_equals_dense_on_rings() {
    for seed in [7, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::ring_model(4, 4, &mut rng).expect("buildable ring");
        assert_coarse_equals_dense(&topo, seed, &format!("ring seed {seed}"));
    }
}

#[test]
fn coarse_equals_dense_on_uniform_disks() {
    let mut rng = StdRng::seed_from_u64(191);
    let topo = Topology::uniform_disk(60, 2.5, &mut rng).expect("connected disk");
    assert_coarse_equals_dense(&topo, 11, "disk");
}

#[test]
fn coarse_equals_dense_on_lines() {
    // Chains maximize depth (worst case for ladder and frame schedules)
    // and give every interior node exactly two neighbors, so LMAC's
    // silent-slot skipping is at its most aggressive here.
    let topo = Topology::line(7, 0.9).expect("chain");
    assert_coarse_equals_dense(&topo, 5, "line");
}

#[test]
fn same_seed_reproduces_byte_identical_reports() {
    // Determinism regression (distinct from coarse-vs-dense): two runs
    // of the same configuration must agree bit-for-bit, per protocol,
    // on both ring and disk topologies.
    let mut rng = StdRng::seed_from_u64(33);
    let disk = Topology::uniform_disk(40, 2.0, &mut rng).expect("connected disk");
    for protocol in &protocols() {
        let ring_run = || {
            Simulation::ring(3, 4, protocol.as_ref(), config(17, WakeMode::Coarse))
                .expect("buildable ring")
                .run()
        };
        assert_identical(
            &ring_run(),
            &ring_run(),
            &format!("{} ring determinism", protocol.name()),
        );
        let disk_run = || {
            build(
                &disk,
                protocol.as_ref(),
                &UnitDisk,
                config(23, WakeMode::Coarse),
            )
            .run()
        };
        assert_identical(
            &disk_run(),
            &disk_run(),
            &format!("{} disk determinism", protocol.name()),
        );
    }
}

/// The paper trio: the protocols that replay quiet-network wakes.
fn trio() -> [Box<dyn SimProtocol>; 3] {
    [
        Box::new(XmacSim::new(Seconds::from_millis(100.0))),
        Box::new(DmacSim::new(Seconds::new(0.5))),
        Box::new(LmacSim::new(Seconds::from_millis(10.0))),
    ]
}

#[test]
fn coarse_equals_dense_under_burst_windows() {
    // Synchronized 4x windows: the network flips between quiet
    // stretches and bursts of samples, so replayed stretches keep
    // ending on a burst's first sample.
    for protocol in &trio() {
        for seed in [3, 8] {
            let run = |mode| {
                let sim = Simulation::ring(3, 4, protocol.as_ref(), config(seed, mode))
                    .expect("buildable ring");
                let n = sim.node_count();
                let traffic =
                    TrafficProfile::uniform(n, Seconds::new(25.0)).with_bursts(BurstWindows {
                        every: Seconds::new(30.0),
                        duration: Seconds::new(6.0),
                        factor: 4.0,
                    });
                sim.with_traffic(traffic).expect("valid profile").run()
            };
            assert_identical(
                &run(WakeMode::Coarse),
                &run(WakeMode::Dense),
                &format!("{} bursts seed {seed}", protocol.name()),
            );
        }
    }
}

#[test]
fn coarse_equals_dense_when_the_horizon_cuts_a_quiet_window() {
    // Samples every 100 s leave the network quiet for most of a 20 s
    // run. Sixteen horizons spread over one period of each protocol's
    // schedule end the run inside the polls, cycles and slots that
    // quiet replay skips, so the horizon clamp is exercised on every
    // window shape.
    for protocol in &trio() {
        let period = match protocol.name() {
            "X-MAC" => 0.1,
            "DMAC" => 0.5,
            _ => 0.01,
        };
        for step in 0..16 {
            let horizon = 20.0 + period * f64::from(step) / 16.0;
            let run = |mode| {
                let cfg = SimConfig {
                    duration: Seconds::new(horizon),
                    sample_period: Seconds::new(100.0),
                    ..config(13, mode)
                };
                Simulation::ring(3, 4, protocol.as_ref(), cfg)
                    .expect("buildable ring")
                    .run()
            };
            assert_identical(
                &run(WakeMode::Coarse),
                &run(WakeMode::Dense),
                &format!("{} horizon {horizon} s", protocol.name()),
            );
        }
    }
}

/// A 30 s horizon: the cases below are densely scheduled, and LMAC's
/// replayed control sections show any unsound replay within seconds.
fn short_config(seed: u64, scheduling: WakeMode) -> SimConfig {
    SimConfig {
        duration: Seconds::new(30.0),
        ..config(seed, scheduling)
    }
}

/// Two LMAC networks 1.5 range units apart on the unit disk: each
/// hears the other's slots, which its own schedule knows nothing of.
fn neighboring_lmac_networks(seed: u64, mode: WakeMode) -> Vec<SimReport> {
    let lmac = LmacSim::new(Seconds::from_millis(10.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Topology::ring_model(2, 3, &mut rng).expect("buildable ring");
    let b = Topology::ring_model(2, 3, &mut rng)
        .expect("buildable ring")
        .translated(1.5, 0.0);
    let networks = [
        CoexNetwork {
            topology: &a,
            protocol: &lmac,
        },
        CoexNetwork {
            topology: &b,
            protocol: &lmac,
        },
    ];
    Simulation::new(
        &networks,
        &UnitDisk,
        Radio::cc2420(),
        FrameSizes::default(),
        short_config(seed, mode),
    )
    .expect("buildable networks")
    .run_coexistence()
}

/// One LMAC ring on a flat SINR channel, whose interference-only links
/// reach past the decode graph the slot schedule was built over.
fn lmac_ring_on_sinr(seed: u64, mode: WakeMode) -> SimReport {
    let lmac = LmacSim::new(Seconds::from_millis(10.0));
    let channel = SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let ring = Topology::ring_model(3, 4, &mut rng).expect("buildable ring");
    build(&ring, &lmac, &channel, short_config(seed, mode)).run()
}

#[test]
fn coarse_equals_dense_where_other_transmitters_are_audible() {
    // A coarse replay is proven by a network's own schedule only; when
    // a node can hear a transmitter outside it, the engine must not
    // replay (LMAC's replayed control sections diverged here on every
    // seed before that rule existed).
    for seed in [3, 5, 9, 11] {
        let coarse = neighboring_lmac_networks(seed, WakeMode::Coarse);
        let dense = neighboring_lmac_networks(seed, WakeMode::Dense);
        for (k, (c, d)) in coarse.iter().zip(&dense).enumerate() {
            assert_identical(c, d, &format!("LMAC network {k} of 2, seed {seed}"));
            assert_eq!(c.config().scheduling, WakeMode::Dense, "mode that ran");
        }
        let coarse = lmac_ring_on_sinr(seed, WakeMode::Coarse);
        let dense = lmac_ring_on_sinr(seed, WakeMode::Dense);
        assert_identical(&coarse, &dense, &format!("LMAC on SINR, seed {seed}"));
        assert_eq!(coarse.config().scheduling, WakeMode::Dense, "mode that ran");
    }
}

#[test]
fn coarse_runs_where_the_schedule_covers_every_air_link() {
    let lmac = LmacSim::new(Seconds::from_millis(10.0));
    let mut rng = StdRng::seed_from_u64(7);
    let ring = Topology::ring_model(3, 4, &mut rng).expect("buildable ring");
    for channel in &channels() {
        let report = build(&ring, &lmac, channel.as_ref(), config(7, WakeMode::Coarse)).run();
        assert_eq!(report.config().scheduling, WakeMode::Coarse, "{channel:?}");
    }
    // The same links with capture on: a decode reads the interference a
    // replayed wake would have added, so the schedule proves nothing.
    let capture = SinrChannel {
        capture_db: Some(6.0),
        ..SinrChannel::degenerate()
    };
    let report = build(&ring, &lmac, &capture, config(7, WakeMode::Coarse)).run();
    assert_eq!(report.config().scheduling, WakeMode::Dense, "capture on");
}
