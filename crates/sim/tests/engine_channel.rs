//! Deterministic engine-level tests of the channel, radio and timer
//! semantics, using scripted nodes (`common::scripted`) on the
//! unit-disk channel.

mod common;

use std::sync::{Arc, Mutex};

use common::{scripted, Listener, Mute, Talker};
use edmac_net::{NodeId, Point2, Topology};
use edmac_phy::UnitDisk;
use edmac_radio::{Cause, FrameSizes, Radio};
use edmac_sim::{Ctx, Frame, FrameKind, MacNode, Packet, SimTime};
use edmac_units::Seconds;

/// Hidden-terminal triangle: talkers at the ends, listener in the
/// middle. `positions[0]` (a talker) doubles as the sink so the tree is
/// valid; no traffic is generated (huge sample period).
fn hidden_pair() -> Topology {
    Topology::from_positions(vec![
        Point2::new(-0.7, 0.0), // node 0: talker A (and sink)
        Point2::new(0.0, 0.0),  // node 1: listener
        Point2::new(0.7, 0.0),  // node 2: talker B (1.4 from A: hidden)
    ])
    .unwrap()
}

#[test]
fn single_transmission_is_received_intact() {
    let topo = hidden_pair();
    let sim = scripted(&topo, &UnitDisk, move |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        1 => Box::new(Listener::new(0.5)),
        _ => Box::new(Mute),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 1);
    assert_eq!(listener.counters.collisions(), 0);
    // The talker's antenna saw exactly one frame out.
    assert_eq!(report.per_node()[0].counters.tx(FrameKind::Data), 1);
}

#[test]
fn overlapping_hidden_transmissions_collide() {
    let topo = hidden_pair();
    // Both talkers transmit at exactly t = 1.0 s; they cannot hear each
    // other but the listener hears both.
    let sim = scripted(&topo, &UnitDisk, move |u| match u {
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
    assert_eq!(
        listener.counters.rx(FrameKind::Data),
        0,
        "a collision must destroy both frames"
    );
    assert!(listener.counters.collisions() >= 1);
}

#[test]
fn staggered_transmissions_both_arrive() {
    let topo = hidden_pair();
    // 50-byte data at 250 kbps lasts 1.6 ms; 10 ms of stagger separates
    // the frames completely.
    let sim = scripted(&topo, &UnitDisk, move |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        2 => Box::new(Talker {
            tx_at: Seconds::new(1.01),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Listener::new(0.5)),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx(FrameKind::Data), 2);
    assert_eq!(listener.counters.collisions(), 0);
}

#[test]
fn sleeping_listeners_hear_nothing() {
    let topo = hidden_pair();
    let sim = scripted(&topo, &UnitDisk, move |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        _ => Box::new(Mute), // listener never wakes
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(listener.counters.rx_total(), 0);
    assert_eq!(listener.counters.collisions(), 0);
    // And it spent the whole run at the sleep floor.
    assert_eq!(listener.busy.value(), 0.0);
}

#[test]
fn late_wakeup_misses_a_frame_mid_air() {
    let topo = hidden_pair();
    // The listener's radio becomes ready mid-frame: reception cannot
    // lock on (the preamble was missed), so nothing is received.
    let t_tx = 1.0;
    let startup = Radio::cc2420().timings.startup.value();
    let sim = scripted(&topo, &UnitDisk, move |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(t_tx),
            dst: NodeId::new(1),
        }),
        // Ready at ~t_tx + 0.5 ms, inside the 1.6 ms frame.
        1 => Box::new(Listener::new(t_tx + 0.0005 - startup)),
        _ => Box::new(Mute),
    });
    let report = sim.run();
    let listener = &report.per_node()[1];
    assert_eq!(
        listener.counters.rx(FrameKind::Data),
        0,
        "mid-frame wake-ups must not produce phantom receptions"
    );
}

#[test]
fn energy_ledger_charges_the_scripted_activity() {
    let topo = hidden_pair();
    let report = scripted(&topo, &UnitDisk, move |u| match u {
        0 => Box::new(Talker {
            tx_at: Seconds::new(1.0),
            dst: NodeId::new(1),
        }),
        1 => Box::new(Listener::new(0.5)),
        _ => Box::new(Mute),
    })
    .run();
    let radio = Radio::cc2420();
    // Talker: one startup (charged to the tx cause it woke for) plus
    // one 1.6 ms data frame, rest asleep.
    let talker = &report.per_node()[0];
    let t_data = radio.airtime(FrameSizes::default().data);
    let expected_tx =
        (radio.power.tx * t_data).value() + (radio.power.startup * radio.timings.startup).value();
    assert!(
        (talker.breakdown.tx.value() - expected_tx).abs() < 1e-9,
        "tx bucket {} vs expected {expected_tx}",
        talker.breakdown.tx.value()
    );
    // Listener: ~4.5 s of listening dominates its ledger.
    let listener = &report.per_node()[1];
    let listen_j = listener.breakdown.carrier_sense.value();
    let expected_listen = radio.power.listen.value() * 4.5;
    assert!(
        (listen_j - expected_listen).abs() < 0.05 * expected_listen,
        "listener charged {listen_j} J, expected about {expected_listen} J"
    );
}

/// A listener that logs every frame its MAC is handed and, if
/// `wakes`, asks to be woken at the instant it heard one.
#[derive(Debug)]
struct WakingListener {
    me: usize,
    wakes: bool,
    wake_now: bool,
    log: Arc<Mutex<Vec<String>>>,
}

impl MacNode for WakingListener {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Seconds::new(0.5), 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u32, _: u64) {
        ctx.wake(Cause::CarrierSense);
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {
        self.log.lock().unwrap().push(format!("frame {}", self.me));
        self.wake_now = self.wakes;
    }
    fn next_activity(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        self.wake_now.then(|| ctx.now())
    }
    fn on_wake(&mut self, _: &mut Ctx<'_>) {
        self.log.lock().unwrap().push(format!("wake {}", self.me));
        self.wake_now = false;
    }
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

#[test]
fn wakes_registered_by_a_receiver_fire_before_the_next_receiver_hears() {
    // A star: the talker (node 0, also the sink) in the middle, four
    // listeners around it that all hear its one frame end at the same
    // instant. Listeners 1 and 3 ask for a wake at that instant; wakes
    // win ties with events, so each wake must run before the next
    // listener is handed the frame.
    let topo = Topology::from_positions(vec![
        Point2::new(0.0, 0.0),
        Point2::new(0.5, 0.0),
        Point2::new(0.0, 0.5),
        Point2::new(-0.5, 0.0),
        Point2::new(0.0, -0.5),
    ])
    .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let shared_log = Arc::clone(&log);
    let report = scripted(&topo, &UnitDisk, move |u| -> Box<dyn MacNode> {
        match u {
            0 => Box::new(Talker {
                tx_at: Seconds::new(1.0),
                dst: NodeId::new(1),
            }),
            _ => Box::new(WakingListener {
                me: u,
                wakes: u == 1 || u == 3,
                wake_now: false,
                log: Arc::clone(&shared_log),
            }),
        }
    })
    .run();
    assert_eq!(
        *log.lock().unwrap(),
        ["frame 1", "wake 1", "frame 2", "frame 3", "wake 3", "frame 4"]
    );
    for u in 1..=4 {
        assert_eq!(report.per_node()[u].counters.rx(FrameKind::Data), 1);
    }
}
