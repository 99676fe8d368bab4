//! End-to-end behavioral tests of the three simulated protocols.

use edmac_phy::UnitDisk;
use edmac_sim::{
    CoexNetwork, DmacSim, LmacSim, ScpSim, SimConfig, SimProtocol, SimReport, Simulation, WakeMode,
    XmacSim,
};
use edmac_units::Seconds;

fn run(protocol: &dyn SimProtocol, depth: usize, density: usize, seed: u64) -> SimReport {
    let cfg = SimConfig {
        duration: Seconds::new(400.0),
        sample_period: Seconds::new(40.0),
        warmup: Seconds::new(40.0),
        seed,
        scheduling: WakeMode::Coarse,
    };
    Simulation::ring(depth, density, protocol, cfg)
        .expect("buildable topology")
        .run()
}

#[test]
fn xmac_delivers_and_sleeps() {
    let report = run(&XmacSim::new(Seconds::from_millis(100.0)), 3, 4, 3);
    assert!(
        report.delivery_ratio() > 0.9,
        "X-MAC delivery {} too low",
        report.delivery_ratio()
    );
    // Duty cycle sanity: nodes must sleep most of the time.
    for stats in report.per_node() {
        let duty = stats.busy.value() / report.config().duration.value();
        assert!(duty < 0.25, "node {} duty {duty} too high", stats.node);
    }
}

#[test]
fn dmac_delivers_over_the_ladder() {
    // DMAC shares one transmit slot per ring: its collision domain
    // saturates around one packet per sweep, so it is exercised at the
    // unsaturated load it is designed for (the paper's network model
    // makes the same assumption).
    let cfg = SimConfig {
        duration: Seconds::new(800.0),
        sample_period: Seconds::new(80.0),
        warmup: Seconds::new(80.0),
        seed: 4,
        scheduling: WakeMode::Coarse,
    };
    let report = Simulation::ring(3, 4, &DmacSim::new(Seconds::new(0.5)), cfg)
        .unwrap()
        .run();
    assert!(
        report.delivery_ratio() > 0.9,
        "DMAC delivery {} too low",
        report.delivery_ratio()
    );
}

#[test]
fn lmac_delivers_collision_free() {
    let report = run(&LmacSim::new(Seconds::from_millis(10.0)), 3, 4, 5);
    assert!(
        report.delivery_ratio() > 0.95,
        "LMAC delivery {} too low (TDMA should not collide)",
        report.delivery_ratio()
    );
}

#[test]
fn xmac_latency_tracks_wakeup_interval() {
    // Mean per-hop delay ~ Tw/2: quadrupling Tw must visibly raise e2e
    // delay.
    let fast = run(&XmacSim::new(Seconds::from_millis(50.0)), 3, 4, 6);
    let slow = run(&XmacSim::new(Seconds::from_millis(200.0)), 3, 4, 6);
    let (f, s) = (
        fast.mean_delay().expect("deliveries"),
        slow.mean_delay().expect("deliveries"),
    );
    assert!(
        s.value() > f.value() * 1.8,
        "slow {} should be well above fast {}",
        s,
        f
    );
}

#[test]
fn dmac_latency_tracks_cycle() {
    let fast = run(&DmacSim::new(Seconds::new(0.5)), 3, 4, 7);
    let slow = run(&DmacSim::new(Seconds::new(2.0)), 3, 4, 7);
    let (f, s) = (
        fast.mean_delay().expect("deliveries"),
        slow.mean_delay().expect("deliveries"),
    );
    assert!(s.value() > f.value() * 1.5, "slow {s} vs fast {f}");
}

#[test]
fn lmac_latency_tracks_slot_length() {
    let fast = run(&LmacSim::new(Seconds::from_millis(5.0)), 3, 4, 8);
    let slow = run(&LmacSim::new(Seconds::from_millis(20.0)), 3, 4, 8);
    let (f, s) = (
        fast.mean_delay().expect("deliveries"),
        slow.mean_delay().expect("deliveries"),
    );
    assert!(s.value() > f.value() * 2.0, "slow {s} vs fast {f}");
}

#[test]
fn xmac_energy_rises_at_faster_polling() {
    let epoch = Seconds::new(10.0);
    let fast = run(&XmacSim::new(Seconds::from_millis(30.0)), 2, 4, 9);
    let slow = run(&XmacSim::new(Seconds::from_millis(300.0)), 2, 4, 9);
    assert!(
        fast.bottleneck_energy(epoch) > slow.bottleneck_energy(epoch),
        "poll cost must dominate at 30 ms vs 300 ms"
    );
}

#[test]
fn lmac_control_listening_dominates_breakdown() {
    let report = run(&LmacSim::new(Seconds::from_millis(10.0)), 2, 4, 10);
    let b = report.bottleneck_breakdown(Seconds::new(10.0));
    assert!(
        b.sync_rx > b.tx && b.sync_rx > b.rx,
        "control listening should dwarf data exchange: {b}"
    );
}

#[test]
fn deeper_sources_take_longer() {
    let report = run(&XmacSim::new(Seconds::from_millis(100.0)), 4, 4, 11);
    let near = report.mean_delay_at_depth(1).expect("ring-1 deliveries");
    let far = report.mean_delay_at_depth(4).expect("ring-4 deliveries");
    assert!(
        far.value() > near.value() * 2.0,
        "4 hops ({far}) should cost much more than 1 ({near})"
    );
}

#[test]
fn hop_counts_match_origin_depth() {
    // In LMAC no contention-driven rerouting exists: every delivered
    // packet's hop count equals its origin depth exactly.
    let report = run(&LmacSim::new(Seconds::from_millis(10.0)), 3, 4, 12);
    for r in report.records() {
        if r.delivered.is_some() {
            assert_eq!(
                r.hops as usize, r.origin_depth,
                "packet {} took {} hops from depth {}",
                r.id, r.hops, r.origin_depth
            );
        }
    }
}

#[test]
fn scp_delivers_on_the_common_schedule() {
    let report = run(&ScpSim::new(Seconds::from_millis(250.0)), 3, 4, 21);
    assert!(
        report.delivery_ratio() > 0.9,
        "SCP-MAC delivery {} too low",
        report.delivery_ratio()
    );
    // Store-and-forward: a depth-3 packet pays roughly half a period at
    // the source plus a full period per relay hop.
    let med = report
        .median_delay_at_depth(3)
        .expect("depth-3 deliveries")
        .value();
    let expected = 0.25 / 2.0 + 2.0 * 0.25;
    assert!(
        (med - expected).abs() < 0.5 * expected,
        "median {med:.3} vs store-and-forward estimate {expected:.3}"
    );
}

#[test]
fn scp_spends_less_than_xmac_at_equal_period() {
    // The SCP-MAC claim, measured packet-by-packet: synchronized polls
    // replace the Tw/2 strobe train with one tone.
    let epoch = Seconds::new(10.0);
    let scp = run(&ScpSim::new(Seconds::from_millis(250.0)), 3, 4, 22);
    let xmac = run(&XmacSim::new(Seconds::from_millis(250.0)), 3, 4, 22);
    assert!(
        scp.bottleneck_energy(epoch) < xmac.bottleneck_energy(epoch),
        "SCP {} should beat X-MAC {}",
        scp.bottleneck_energy(epoch),
        xmac.bottleneck_energy(epoch)
    );
}

#[test]
fn lmac_schedule_is_collision_free() {
    // Distance-2 slot assignment: no receiver ever sees two overlapping
    // in-range transmissions.
    let report = run(&LmacSim::new(Seconds::from_millis(10.0)), 3, 4, 23);
    assert_eq!(
        report.total_collisions(),
        0,
        "a distance-2 TDMA schedule must never collide"
    );
}

#[test]
fn frame_counters_balance_transmissions_and_receptions() {
    use edmac_sim::FrameKind;
    let report = run(&XmacSim::new(Seconds::from_millis(100.0)), 2, 4, 24);
    let tx_data: u64 = report
        .per_node()
        .iter()
        .map(|s| s.counters.tx(FrameKind::Data))
        .sum();
    let rx_data: u64 = report
        .per_node()
        .iter()
        .map(|s| s.counters.rx(FrameKind::Data))
        .sum();
    assert!(tx_data > 0, "traffic flowed");
    // Every intact reception implies a transmission; overhearing can
    // multiply receptions, collisions reduce them.
    let collisions = report.total_collisions();
    assert!(
        rx_data + collisions >= tx_data / 2,
        "tx {tx_data} vs rx {rx_data} (+{collisions} collisions) out of balance"
    );
    // Strobes must dominate X-MAC's transmissions.
    let tx_strobes: u64 = report
        .per_node()
        .iter()
        .map(|s| s.counters.tx(FrameKind::Strobe))
        .sum();
    assert!(
        tx_strobes > tx_data,
        "strobed preambles ({tx_strobes}) should outnumber data frames ({tx_data})"
    );
}

#[test]
fn counters_attribute_control_traffic_to_lmac_owners() {
    use edmac_sim::FrameKind;
    let report = run(&LmacSim::new(Seconds::from_millis(10.0)), 2, 4, 25);
    for stats in report.per_node() {
        // Every node owns one slot per frame and transmits its control
        // section there.
        assert!(
            stats.counters.tx(FrameKind::Control) > 0,
            "node {} never sent its control section",
            stats.node
        );
        // Nobody strobes in a TDMA schedule.
        assert_eq!(stats.counters.tx(FrameKind::Strobe), 0);
    }
}

#[test]
fn line_topology_works_for_all_protocols() {
    // A 6-hop chain is the worst case for the ladder and the frame.
    let topo = edmac_net::Topology::line(7, 0.9).unwrap();
    let protocols: [Box<dyn SimProtocol>; 4] = [
        Box::new(XmacSim::new(Seconds::from_millis(80.0))),
        Box::new(DmacSim::new(Seconds::new(1.0))),
        Box::new(LmacSim::new(Seconds::from_millis(10.0))),
        Box::new(ScpSim::new(Seconds::from_millis(200.0))),
    ];
    for protocol in &protocols {
        let cfg = SimConfig {
            duration: Seconds::new(400.0),
            sample_period: Seconds::new(40.0),
            warmup: Seconds::new(40.0),
            seed: 13,
            scheduling: WakeMode::Coarse,
        };
        let report = Simulation::new(
            &[CoexNetwork {
                topology: &topo,
                protocol: protocol.as_ref(),
            }],
            &UnitDisk,
            edmac_radio::Radio::cc2420(),
            edmac_radio::FrameSizes::default(),
            cfg,
        )
        .unwrap()
        .run();
        assert!(
            report.delivery_ratio() > 0.8,
            "{}: line delivery {}",
            report.protocol(),
            report.delivery_ratio()
        );
    }
}
