//! Deterministic engine-level tests of the *SINR* channel semantics —
//! capture, equal-power destruction, sub-sensitivity arrivals — using
//! scripted nodes (`common::scripted`), plus multi-network PAN
//! filtering and shard byte-identity.
//!
//! Geometry cheat-sheet (σ = 0, tx 0 dBm, 40 dB reference loss,
//! α = 3): received power is `−40 − 15·log10(d²)` dBm, so
//! d = 0.7 → −35.35 dBm, d = 1.1 → −41.24 dBm, d = 1.15 → −41.82 dBm;
//! sensitivity sits at −40 dBm (exactly d = 1) and the interference
//! floor at −55 dBm (d ≈ 3.16).

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{assert_identical, quiet_config, scripted, Listener, Mute, ScriptedNet, Talker};
use edmac_net::{NodeId, Point2, Topology};
use edmac_phy::{SinrChannel, UnitDisk};
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{
    CoexNetwork, FrameKind, LmacSim, MacNode, SimConfig, SimReport, Simulation, WakeMode, XmacSim,
};
use edmac_units::Seconds;

/// The deterministic (σ = 0) capture channel used by the scripted
/// scenarios.
fn capture_channel() -> SinrChannel {
    SinrChannel {
        shadowing_sigma_db: 0.0,
        ..SinrChannel::default()
    }
}

/// Near/far pair: the sink A talks from 0.7 away, a second talker B
/// sits 1.15 from the listener — decodable only via A (0.45), but
/// audible interference at the listener (−41.82 dBm ≥ −55 floor).
fn near_far() -> Topology {
    Topology::from_positions(vec![
        Point2::new(0.0, 0.0),   // node 0: talker A (and sink)
        Point2::new(0.7, 0.0),   // node 1: listener
        Point2::new(-0.45, 0.0), // node 2: talker B (1.15 from the listener)
    ])
    .unwrap()
}

#[test]
fn capture_rides_out_a_weak_interferer() {
    // A (−35.35 dBm) and B (−41.82 dBm) overlap exactly at the
    // listener; SINR = 6.4 dB clears the 6 dB capture threshold, so
    // A's frame survives and is counted as a capture.
    let sim = scripted(&near_far(), &capture_channel(), |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        2 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Listener::new(0.5)),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 1);
    assert_eq!(listener.counters.captured(), 1);
    assert_eq!(listener.counters.collisions(), 0);
    assert_eq!(listener.counters.below_noise(), 0);
    let db = listener.mean_sinr_db.expect("decoded under SINR");
    assert!(
        (6.3..6.5).contains(&db),
        "worst-case SINR should be ~6.40 dB, got {db}"
    );
    assert_eq!(report.collision_causes(), (0, 1, 0));
}

#[test]
fn equal_power_overlap_destroys_even_with_capture() {
    // Hidden-terminal triangle with both talkers 0.7 from the
    // listener: equal powers pin SINR near 0 dB, far below the 6 dB
    // capture threshold — the locked frame is destroyed.
    let topo = Topology::from_positions(vec![
        Point2::new(-0.7, 0.0), // node 0: talker A (and sink)
        Point2::new(0.0, 0.0),  // node 1: listener
        Point2::new(0.7, 0.0),  // node 2: talker B
    ])
    .unwrap();
    let sim = scripted(&topo, &capture_channel(), |u| match u {
        0 | 2 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }) as Box<dyn MacNode>,
        _ => Box::new(Listener::new(0.5)),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 0);
    assert_eq!(listener.counters.collisions(), 1);
    assert_eq!(listener.counters.captured(), 0);
    assert!(listener.mean_sinr_db.is_none());
    assert_eq!(report.collision_causes(), (1, 0, 0));
}

#[test]
fn capture_off_reverts_to_overlap_destroys() {
    // Same near/far overlap, capture disabled: even the sub-sensitivity
    // interferer (−41.82 dBm, below the −40 dBm sensitivity but above
    // the −55 dBm floor) corrupts the locked frame — the binary rule
    // applied over SINR-realized links.
    let channel = SinrChannel {
        capture_db: None,
        ..capture_channel()
    };
    let sim = scripted(&near_far(), &channel, |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        2 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Listener::new(0.5)),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 0);
    assert_eq!(listener.counters.collisions(), 1);
    assert_eq!(listener.counters.captured(), 0);
    assert_eq!(report.collision_causes(), (1, 0, 0));
}

#[test]
fn sub_sensitivity_arrivals_count_as_below_noise() {
    // A 4-node decode chain; the tail talker C sits 1.1 from the
    // listener: audible (−41.24 dBm ≥ −55) but below sensitivity, so
    // the listening radio logs it as below-noise energy and never
    // locks.
    let topo = Topology::from_positions(vec![
        Point2::new(0.0, 0.0), // node 0: sink (mute)
        Point2::new(0.7, 0.0), // node 1: listener
        Point2::new(1.1, 0.0), // node 2: relay (mute, asleep)
        Point2::new(1.8, 0.0), // node 3: talker C
    ])
    .unwrap();
    let sim = scripted(&topo, &capture_channel(), |u| match u {
        1 => Box::new(Listener::new(0.5)) as Box<dyn MacNode>,
        3 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(2),
        }),
        _ => Box::new(Mute),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.below_noise(), 1);
    assert_eq!(listener.counters.rx_total(), 0);
    assert_eq!(listener.counters.collisions(), 0);
    // The sleeping relay heard nothing either (its radio was off).
    assert_eq!(report.per_node()[2].counters.rx_total(), 0);
    assert_eq!(report.collision_causes(), (0, 0, 1));
}

// ---------------------------------------------------------------------
// Coexistence: several networks, one shared channel.
// ---------------------------------------------------------------------

#[test]
fn pan_filter_decodes_but_never_delivers_foreign_frames() {
    // Network 0: a counting listener (global node 0) plus its own
    // talker at t = 1 s. Network 1 overlaps it and talks at t = 2 s,
    // addressed (maliciously) to global node 0. The listener's radio
    // decodes both frames — energy and counters are charged — but the
    // MAC layer only ever sees the frame from its own network.
    let hits = Arc::new(AtomicU64::new(0));
    let net0_topo = Topology::from_positions(vec![
        Point2::new(0.0, 0.0), // global 0: counting listener (sink)
        Point2::new(0.6, 0.0), // global 1: own talker
    ])
    .unwrap();
    let net1_topo = Topology::from_positions(vec![
        Point2::new(0.0, 0.4), // global 2: sink (mute)
        Point2::new(0.6, 0.4), // global 3: foreign talker
    ])
    .unwrap();
    let hits0 = Arc::clone(&hits);
    let net0 = ScriptedNet {
        label: "listeners",
        make: Box::new(move |u| match u {
            0 => Box::new(Listener {
                from: Seconds::new(0.5),
                delivered: Some(Arc::clone(&hits0)),
            }),
            _ => Box::new(Talker {
                tx_at: Seconds::new(1.0),
                dst: NodeId::new(0),
            }),
        }),
    };
    let net1 = ScriptedNet {
        label: "intruders",
        make: Box::new(|u| match u {
            0 => Box::new(Mute) as Box<dyn MacNode>,
            _ => Box::new(Talker {
                tx_at: Seconds::new(2.0),
                dst: NodeId::new(0), // cross-network address
            }),
        }),
    };
    let reports = Simulation::new(
        &[
            CoexNetwork {
                topology: &net0_topo,
                protocol: &net0,
            },
            CoexNetwork {
                topology: &net1_topo,
                protocol: &net1,
            },
        ],
        &UnitDisk,
        Radio::cc2420(),
        FrameSizes::default(),
        quiet_config(),
    )
    .unwrap()
    .run_coexistence();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].per_node().len(), 2);
    assert_eq!(reports[1].per_node().len(), 2);
    let listener = &reports[0].per_node()[0];
    assert_eq!(listener.node, NodeId::new(0));
    assert_eq!(
        listener.counters.rx(FrameKind::Data),
        2,
        "the radio decodes frames from both networks"
    );
    assert_eq!(
        hits.load(Ordering::SeqCst),
        1,
        "the MAC layer must only see its own network's frame"
    );
    // Network labels ride along per report.
    assert_eq!(reports[0].protocol(), "listeners");
    assert_eq!(reports[1].protocol(), "intruders");
}

fn line_coex_reports(offset_y: f64, shards: usize) -> Vec<SimReport> {
    let base = Topology::line(5, 0.9).unwrap();
    let other = base.translated(0.0, offset_y);
    let xmac = XmacSim::new(Seconds::from_millis(100.0));
    let cfg = SimConfig {
        duration: Seconds::new(60.0),
        sample_period: Seconds::new(15.0),
        warmup: Seconds::new(10.0),
        seed: 9,
        scheduling: WakeMode::Coarse,
    };
    Simulation::new(
        &[
            CoexNetwork {
                topology: &base,
                protocol: &xmac,
            },
            CoexNetwork {
                topology: &other,
                protocol: &xmac,
            },
        ],
        &UnitDisk,
        Radio::cc2420(),
        FrameSizes::default(),
        cfg,
    )
    .unwrap()
    .with_shards(shards)
    .run_coexistence()
}

/// Counter + energy fingerprint of a report, for exact comparisons.
fn fingerprint(r: &SimReport) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    r.per_node()
        .iter()
        .map(|s| {
            (
                s.counters.tx_total(),
                s.counters.rx_total(),
                s.counters.collisions(),
                s.counters.captured(),
                s.counters.below_noise(),
                s.busy.value().to_bits(),
            )
        })
        .collect()
}

#[test]
fn far_networks_run_independently_and_deliver() {
    let reports = line_coex_reports(100.0, 1);
    for (k, report) in reports.iter().enumerate() {
        let lo = k * 5;
        let hi = lo + 5;
        assert!(
            report
                .per_node()
                .iter()
                .all(|s| (lo..hi).contains(&s.node.index())),
            "network {k} stats must stay within its id range"
        );
        assert!(
            report
                .records()
                .iter()
                .all(|r| (lo..hi).contains(&r.origin.index())),
            "network {k} records must originate in-network"
        );
        assert!(
            report.delivery_ratio() > 0.8,
            "network {k} delivered {}",
            report.delivery_ratio()
        );
    }
}

#[test]
fn nearby_networks_interfere_where_far_ones_do_not() {
    // Identical builds except for network 1's placement: network 0's
    // node ids, seeds and traffic are the same in both, so any
    // difference in its report is cross-network interference.
    let far = line_coex_reports(100.0, 1);
    let near = line_coex_reports(0.5, 1);
    assert_ne!(
        fingerprint(&far[0]),
        fingerprint(&near[0]),
        "an overlapping second network must perturb the first"
    );
    // And even under interference, packets still flow.
    assert!(near[0].delivery_ratio() > 0.5);
    assert!(near[1].delivery_ratio() > 0.5);
}

#[test]
fn coexistence_reports_are_shard_invariant() {
    let sequential = line_coex_reports(0.5, 1);
    let sharded = line_coex_reports(0.5, 2);
    for (k, (a, b)) in sequential.iter().zip(&sharded).enumerate() {
        assert_identical(a, b, &format!("network {k}"));
    }
}

#[test]
fn coexistence_over_a_shadowed_sinr_channel_is_shard_invariant() {
    // Full-fat channel: shadowing on, capture on. Densely spaced lines
    // keep the decode graph connected for most seeds; the build is
    // retried over seeds until the realization connects (deterministic
    // for a given seed either way).
    let base = Topology::line(4, 0.5).unwrap();
    let other = base.translated(0.0, 0.6);
    let xmac = XmacSim::new(Seconds::from_millis(100.0));
    let lmac = LmacSim {
        slot: Seconds::from_millis(10.0),
        frame_slots: 64,
    };
    let channel = SinrChannel::default();
    let mut reports: Option<(Vec<SimReport>, Vec<SimReport>)> = None;
    for seed in 0..32 {
        let cfg = SimConfig {
            duration: Seconds::new(40.0),
            sample_period: Seconds::new(10.0),
            warmup: Seconds::new(5.0),
            seed,
            // Cross-network interference defeats schedule-proven
            // silence, so coexistence studies run event-dense.
            scheduling: WakeMode::Dense,
        };
        let nets = [
            CoexNetwork {
                topology: &base,
                protocol: &xmac,
            },
            CoexNetwork {
                topology: &other,
                protocol: &lmac,
            },
        ];
        let radio = Radio::cc2420();
        let frames = FrameSizes::default();
        let Ok(seq) = Simulation::new(&nets, &channel, radio, frames, cfg) else {
            continue; // this realization disconnected a network
        };
        let sharded = Simulation::new(&nets, &channel, radio, frames, cfg)
            .expect("same seed, same realization")
            .with_shards(3);
        reports = Some((seq.run_coexistence(), sharded.run_coexistence()));
        break;
    }
    let (sequential, sharded) = reports.expect("some seed within 32 must connect both networks");
    for (k, (a, b)) in sequential.iter().zip(&sharded).enumerate() {
        assert_identical(a, b, &format!("shadowed network {k}"));
    }
    // The diagnostic accessors stay coherent on a shadowed run.
    for report in &sequential {
        let (destroyed, captured, below) = report.collision_causes();
        let sums = report.per_node().iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.counters.collisions(),
                acc.1 + s.counters.captured(),
                acc.2 + s.counters.below_noise(),
            )
        });
        assert_eq!((destroyed, captured, below), sums);
        for (_, mean_db, nodes) in report.sinr_by_depth() {
            assert!(mean_db.is_finite());
            assert!(nodes > 0);
        }
    }
}
