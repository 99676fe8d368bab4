//! [`Ctx`] and [`IdleWake`]: the API a node's handlers use to read the
//! world and act on it. A `Ctx` lends one node the read-only world and
//! the mutable run state of the `run` module for one callback.

use super::run::{NodeState, RunState, Shared};
use crate::events::Event;
use crate::frame::{Frame, FrameKind, Packet};
use crate::queue::OrderKey;
use crate::time::SimTime;
use edmac_net::NodeId;
use edmac_radio::{Cause, Mode};
use edmac_units::Seconds;
use rand::Rng;

/// What the radio did in a wake replayed through
/// [`Ctx::replay_idle_wake`], once its startup finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleWake<'a> {
    /// Listened to silence, in consecutive pieces ending at these
    /// instants (a protocol that re-labels its listen mid-wake, like
    /// DMAC's transmit slot, ends a piece there), then slept.
    Listen(&'a [SimTime]),
    /// Received one frame of this kind, addressed elsewhere, starting
    /// the instant the radio was up, then slept (LMAC's heartbeat from
    /// a slot owner).
    Receive(FrameKind),
    /// Transmitted one frame of this kind the instant the radio was up,
    /// then slept (LMAC's own-slot heartbeat).
    Transmit(FrameKind),
}

/// The node-facing API: everything a [`MacNode`](super::MacNode) may
/// do to the world.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(super) shared: &'a Shared,
    pub(super) run: &'a mut RunState,
    pub(super) node: NodeId,
    /// Causal round assigned to entries this handler schedules for the
    /// *current* instant: the triggering entry's round plus one.
    pub(super) round: u32,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.run.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Returns `true` if this node is the sink of its own network.
    pub fn is_sink(&self) -> bool {
        self.shared.is_sink(self.node)
    }

    /// The next hop toward the sink (`None` at the sink).
    pub fn parent(&self) -> Option<NodeId> {
        self.shared.parent[self.node.index()]
    }

    /// This node's hop distance from the sink.
    pub fn depth(&self) -> usize {
        self.shared.depth[self.node.index()]
    }

    /// The deepest hop distance in this node's network (`D`).
    pub fn max_depth(&self) -> usize {
        self.shared.max_depths[self.shared.network(self.node)]
    }

    /// The airtime of a frame of `kind` on this deployment's radio.
    pub fn airtime(&self, kind: FrameKind) -> Seconds {
        self.shared.radio_hw.airtime(kind.size(&self.shared.frames))
    }

    /// The radio's startup latency.
    pub fn startup_delay(&self) -> Seconds {
        self.shared.radio_hw.timings.startup
    }

    /// Returns `true` if any in-range transmission is currently on the
    /// air (the CCA primitive).
    pub fn channel_busy(&self) -> bool {
        self.run.nodes[self.node.index()].tally.count() > 0
    }

    /// Returns `true` if the radio is currently locked onto a frame.
    pub fn is_receiving(&self) -> bool {
        self.run.nodes[self.node.index()].active_rx.is_some()
    }

    /// The radio's current mode.
    pub fn mode(&self) -> Mode {
        self.run.nodes[self.node.index()].radio.mode
    }

    /// Mints this node's next event ordering key for time `at`.
    /// Same-instant entries inherit this handler's causal round.
    fn next_key(&mut self, at: SimTime) -> OrderKey {
        let round = if at == self.run.now { self.round } else { 0 };
        self.run.key_for(self.node, at, round)
    }

    /// Schedules a timer `delay` from now; returns its id.
    pub fn set_timer(&mut self, delay: Seconds, tag: u32) -> u64 {
        let st = &mut self.run.nodes[self.node.index()];
        let id = ((self.node.index() as u64) << 32) | st.next_timer;
        st.next_timer += 1;
        st.pending_timers += 1;
        let at = self.run.now.after(delay);
        let key = self.next_key(at);
        self.run.events.schedule(
            key,
            Event::Timer {
                node: self.node,
                id,
                tag,
            },
        );
        id
    }

    /// Cancels a pending timer (firing becomes a no-op).
    pub fn cancel_timer(&mut self, id: u64) {
        let st = &mut self.run.nodes[self.node.index()];
        if st.pending_timers > 0 && !st.cancelled_timers.contains(&id) {
            st.cancelled_timers.push(id);
        }
    }

    /// The number of this node's timers that are set and have not
    /// fired yet, cancelled ones included (a cancelled timer still
    /// occupies the queue until its instant).
    pub fn pending_timers(&self) -> u32 {
        self.run.nodes[self.node.index()].pending_timers
    }

    /// The instant up to which the network is provably packet-free:
    /// the earliest pending application sample (capped at the
    /// horizon) while no node [holds packets](super::MacNode::holds_packets)
    /// and no packet-carrying frame is on the air, and `now` otherwise.
    ///
    /// Packets enter only at a sample, so until this instant no data
    /// exchange can start anywhere, and a protocol whose every frame
    /// carries or answers a packet (X-MAC, DMAC) puts nothing on the
    /// air. A wake of such a protocol whose whole window closes
    /// *strictly before* this instant may be replayed through
    /// [`replay_idle_wake`](Ctx::replay_idle_wake) instead of
    /// simulated.
    ///
    /// Always `now` under [`WakeMode::Dense`](super::WakeMode::Dense) and with more than one
    /// network: the engine keeps no quiet bookkeeping there.
    pub fn quiet_until(&self) -> SimTime {
        let now = self.run.now;
        match &self.run.quiet {
            Some(quiet) if quiet.holders == 0 && quiet.packet_air == 0 => {
                let end = self.shared.end;
                let next = quiet.generates.peek().map_or(end, |t| t.0.min(end));
                next.max(now)
            }
            _ => now,
        }
    }

    /// Uniform random sample in `[lo, hi)` from this node's seeded
    /// stream (derived from the run seed and the node's global index,
    /// so draws are independent of event interleaving across nodes).
    pub fn random_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.run.nodes[self.node.index()].rng.gen_range(lo..hi)
    }

    /// Starts the radio from sleep; [`MacNode::on_radio_ready`](super::MacNode::on_radio_ready) fires
    /// after the startup delay. No-op unless sleeping.
    ///
    /// `cause` is charged for the startup period (poll startups are
    /// carrier-sense, schedule wake-ups are sync, ...).
    pub fn wake(&mut self, cause: Cause) {
        let now = self.run.now;
        let st = &mut self.run.nodes[self.node.index()];
        if st.radio.mode != Mode::Sleep {
            return;
        }
        st.set_mode(now, Mode::Startup, cause);
        st.radio.startup_token += 1;
        let token = st.radio.startup_token;
        let at = now.after(self.shared.radio_hw.timings.startup);
        let key = self.next_key(at);
        self.run.events.schedule(
            key,
            Event::RadioReady {
                node: self.node,
                token,
            },
        );
    }

    /// Puts the radio to sleep immediately, aborting any reception in
    /// progress and invalidating a pending startup.
    ///
    /// # Panics
    ///
    /// Panics if called mid-transmission — a protocol must never
    /// abandon its own frame on the air.
    pub fn sleep(&mut self) {
        let now = self.run.now;
        let st = &mut self.run.nodes[self.node.index()];
        assert!(
            st.radio.mode != Mode::Tx,
            "node {} tried to sleep while transmitting",
            self.node
        );
        st.active_rx = None;
        st.radio.startup_token += 1;
        st.set_mode(now, Mode::Sleep, Cause::Sleep);
    }

    /// Re-labels the cause charged for the current listening period
    /// (e.g. a poll that turned into an exchange).
    pub fn relabel_listen(&mut self, cause: Cause) {
        let now = self.run.now;
        let st = &mut self.run.nodes[self.node.index()];
        if st.radio.mode == Mode::Listen {
            st.set_mode(now, Mode::Listen, cause);
        }
    }

    /// Transmits a frame; [`MacNode::on_tx_done`](super::MacNode::on_tx_done) fires when it leaves
    /// the antenna. The radio must be listening (awake and not mid-
    /// exchange).
    ///
    /// # Panics
    ///
    /// Panics if the radio is not in listen mode — protocols must
    /// sequence their own transmissions.
    pub fn send(&mut self, kind: FrameKind, dst: Option<NodeId>, packet: Option<Packet>) {
        let now = self.run.now;
        assert_eq!(
            self.run.nodes[self.node.index()].radio.mode,
            Mode::Listen,
            "node {} tried to send {kind:?} while not listening",
            self.node
        );
        // Transmitting tears down any half-received frame.
        self.run.nodes[self.node.index()].active_rx = None;

        let frame = Frame {
            kind,
            src: self.node,
            dst,
            packet,
        };
        let st = &mut self.run.nodes[self.node.index()];
        let tx_seq = ((self.node.index() as u64) << 32) | st.next_tx;
        st.next_tx += 1;
        st.counters.record_tx(kind);
        st.set_mode(now, Mode::Tx, kind.tx_cause());
        st.tx_carries_packet = packet.is_some();
        if let (true, Some(quiet)) = (packet.is_some(), &mut self.run.quiet) {
            quiet.packet_air += 1;
        }

        let end = self.shared.frame_end(now, kind);
        let shared = self.shared;
        // The frame is recorded once and queued as one `AirStart` and
        // one `AirEnd` entry, under the key pair minted when the first
        // receiver is found; later receivers only join the record.
        let mut open: Option<u32> = None;
        for (i, &(neighbor, _)) in shared.field.receivers(self.node).iter().enumerate() {
            // A receiver asleep at the first bit can never lock onto
            // the frame; the only residue of delivering the frame to
            // it would be its interference tally, whose count the CCA
            // primitive reads and whose power only capture reads. For a
            // protocol that never samples the channel (LMAC), on a
            // capture-off channel, that residue is unobservable, so the
            // receiver is left out of the record.
            if shared.elide_sleepers && self.run.nodes[neighbor.index()].radio.mode == Mode::Sleep {
                continue;
            }
            let tx = match open {
                Some(tx) => tx,
                None => {
                    let (first, last) = (self.next_key(now), self.next_key(end));
                    let tx = self.run.air.open(tx_seq, frame);
                    self.run.events.schedule(first, Event::AirStart { tx });
                    self.run.events.schedule(last, Event::AirEnd { tx });
                    open = Some(tx);
                    tx
                }
            };
            self.run.air[tx].receivers.push(i as u32);
        }
        let k = self.next_key(end);
        self.run
            .events
            .schedule(k, Event::TxDone { node: self.node });
    }

    /// The instant up to which `node` provably holds no packet: its next
    /// application sample (capped at the horizon) while it
    /// [holds none](super::MacNode::holds_packets), and `now` otherwise. The
    /// per-node form of [`quiet_until`](Ctx::quiet_until), and like it
    /// always `now` without quiet bookkeeping.
    pub fn packet_free_until(&self, node: NodeId) -> SimTime {
        let now = self.run.now;
        if self.run.quiet.is_none() {
            return now;
        }
        let st = &self.run.nodes[node.index()];
        if st.holds {
            now
        } else {
            st.next_sample.min(self.shared.end).max(now)
        }
    }

    /// Whether `node`'s radio is asleep right now. Answered from the
    /// same whole-network view as [`quiet_until`](Ctx::quiet_until):
    /// always `false` without quiet bookkeeping.
    pub fn is_asleep(&self, node: NodeId) -> bool {
        self.run.quiet.is_some() && self.run.nodes[node.index()].radio.mode == Mode::Sleep
    }

    /// Replays, straight into the energy ledger, one wake-up that the
    /// event-coarse scheduler elided: sleep up to `wake_at`, a radio
    /// startup charged to `cause`, then what the radio did once it was
    /// up (`then`), after which the node went back to sleep.
    ///
    /// The charge sequence (piece boundaries, rounding, order) is
    /// exactly what the dense scheduler produces for such a wake, so
    /// coarse and dense runs stay bit-identical; pieces crossing the
    /// horizon are clamped the way the dense end-of-run flush clamps
    /// them, and a frame is counted iff the dense run's event for it
    /// (the send at radio-up, the reception at its last bit) lands
    /// inside the horizon. A replay is only valid where the caller's
    /// schedule knowledge proves the wake's outcome — a silent slot, a
    /// heartbeat from the single in-range owner, a poll or cycle
    /// before [`quiet_until`](Ctx::quiet_until) — and only if no
    /// handler of this node touches the radio inside the replayed
    /// window.
    ///
    /// No-op if the node was not asleep across `wake_at` (the dense
    /// scheduler skips busy boundaries without charging them).
    pub fn replay_idle_wake(&mut self, wake_at: SimTime, cause: Cause, then: IdleWake<'_>) {
        let state = self.run.nodes[self.node.index()].radio;
        if state.mode != Mode::Sleep || wake_at < state.since {
            return;
        }
        let shared = self.shared;
        let end = shared.end;
        let ready = SimTime::from_nanos(wake_at.as_nanos() + shared.startup_ns);
        let st = &mut self.run.nodes[self.node.index()];
        let woke = wake_at.min(end);
        st.ledger
            .charge(Mode::Sleep, Cause::Sleep, woke.since(state.since));
        st.ledger
            .charge(Mode::Startup, cause, ready.min(end).since(woke));
        let mut from = ready.min(end);
        let mut piece = |st: &mut NodeState, mode: Mode, cause: Cause, to: SimTime| {
            let to = to.min(end);
            st.ledger.charge(mode, cause, to.since(from));
            from = to;
        };
        match then {
            IdleWake::Listen(ends) => {
                for &to in ends {
                    piece(st, Mode::Listen, cause, to);
                }
            }
            IdleWake::Receive(kind) => {
                // The frame starts the instant this node's radio is up
                // (sender and receiver share the wake lead), so no
                // listen time elapses before the lock.
                let heard = shared.frame_end(ready, kind);
                piece(st, Mode::Rx, kind.rx_cause(false), heard);
                if heard <= end {
                    st.counters.record_rx(kind);
                }
            }
            IdleWake::Transmit(kind) => {
                let sent = shared.frame_end(ready, kind);
                piece(st, Mode::Tx, kind.tx_cause(), sent);
                if ready <= end {
                    st.counters.record_tx(kind);
                }
            }
        }
        st.radio.since = from;
    }

    /// Records the final delivery of `packet` at the sink in its
    /// origin's packet record. The first delivery of a packet wins; an
    /// id that no application sample minted is ignored.
    pub fn deliver(&mut self, packet: Packet) {
        let now = self.run.now;
        let (origin, counter) = ((packet.id.0 >> 32) as usize, packet.id.0 as u32 as usize);
        let record = self
            .run
            .nodes
            .get_mut(origin)
            .and_then(|st| st.records.get_mut(counter));
        if let Some(record) = record.filter(|r| r.delivered.is_none()) {
            record.delivered = Some(now);
            record.hops = packet.hops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CoexNetwork, MacNode, SimConfig, Simulation, WakeMode};
    use crate::frame::PacketId;
    use crate::protocol::SimProtocol;
    use crate::report::{PacketRecord, SimReport};
    use edmac_net::{Graph, NetError, RoutingTree, Topology};
    use edmac_phy::UnitDisk;
    use edmac_radio::{FrameSizes, Radio};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds one scripted node per node index (within its network).
    struct Scripted<F>(F);

    impl<F> std::fmt::Debug for Scripted<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Scripted")
        }
    }

    impl<F: Fn(usize) -> Box<dyn MacNode> + Send + Sync> SimProtocol for Scripted<F> {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn build_nodes(
            &self,
            graph: &Graph,
            _: &RoutingTree,
            _: &SimConfig,
        ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
            Ok(graph.nodes().map(|u| (self.0)(u.index())).collect())
        }
    }

    /// Runs `protocol` for 20 s, sampling every 6 s, on a 2×4 ring
    /// (`networks` copies side by side); returns network 0's report.
    fn ring_run(protocol: &dyn SimProtocol, scheduling: WakeMode, networks: usize) -> SimReport {
        let cfg = SimConfig {
            duration: Seconds::new(20.0),
            sample_period: Seconds::new(6.0),
            warmup: Seconds::ZERO,
            seed: 1,
            scheduling,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let ring = Topology::ring_model(2, 4, &mut rng).expect("buildable ring");
        let rings: Vec<Topology> = (0..networks)
            .map(|k| ring.translated(100.0 * k as f64, 0.0))
            .collect();
        let nets: Vec<CoexNetwork<'_>> = rings
            .iter()
            .map(|topology| CoexNetwork { topology, protocol })
            .collect();
        Simulation::new(
            &nets,
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            cfg,
        )
        .expect("buildable ring run")
        .run()
    }

    /// One observation of [`Ctx::quiet_until`]: where, when, what.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Seen {
        what: &'static str,
        now: SimTime,
        quiet: SimTime,
    }

    type Log = std::sync::Arc<std::sync::Mutex<(Vec<Seen>, Vec<SimTime>)>>;

    /// Probes `quiet_until` on a 0.37 s clock and logs every sample it
    /// drops; node `talker` (if any) sends one packet at 5 s.
    #[derive(Debug)]
    struct Probe {
        holds: bool,
        talker: bool,
        log: Log,
    }

    impl Probe {
        fn see(&self, ctx: &Ctx<'_>, what: &'static str) {
            let seen = Seen {
                what,
                now: ctx.now(),
                quiet: ctx.quiet_until(),
            };
            self.log.lock().expect("test log").0.push(seen);
        }
    }

    impl MacNode for Probe {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Seconds::from_millis(370.0), 1);
            if self.talker {
                ctx.set_timer(Seconds::new(5.0), 2);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, _: u64) {
            if tag == 1 {
                self.see(ctx, "clock");
                ctx.set_timer(Seconds::from_millis(370.0), 1);
            } else {
                ctx.wake(Cause::DataTx);
            }
        }
        fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
            let packet = Packet {
                id: PacketId(u64::MAX),
                origin: ctx.me(),
                created: ctx.now(),
                hops: 0,
            };
            ctx.send(FrameKind::Data, None, Some(packet));
            self.see(ctx, "sending");
        }
        fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
            self.see(ctx, "sent");
            ctx.sleep();
        }
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
        fn on_generate(&mut self, ctx: &mut Ctx<'_>, _: Packet) {
            self.log.lock().expect("test log").1.push(ctx.now());
        }
        fn holds_packets(&self) -> bool {
            self.holds
        }
    }

    /// Runs probes on the test ring, `holder` (a node index within each
    /// network) claiming to hold packets, and returns what they saw
    /// plus every sample instant.
    fn probe_run(
        holder: Option<usize>,
        talker: Option<usize>,
        scheduling: WakeMode,
        networks: usize,
    ) -> (Vec<Seen>, Vec<SimTime>) {
        let log = Log::default();
        let probes = Scripted(|u| {
            Box::new(Probe {
                holds: holder == Some(u),
                talker: talker == Some(u),
                log: log.clone(),
            }) as Box<dyn MacNode>
        });
        drop(ring_run(&probes, scheduling, networks));
        let (seen, mut generates) = log.lock().expect("test log").clone();
        generates.sort();
        (seen, generates)
    }

    #[test]
    fn quiet_until_is_the_next_sample_in_a_packet_free_network() {
        let end = SimTime::from_seconds(Seconds::new(20.0));
        let (seen, generates) = probe_run(None, None, WakeMode::Coarse, 1);
        assert!(generates.len() > 20, "samples fired: {}", generates.len());
        let mut ahead = 0;
        for s in &seen {
            if generates.contains(&s.now) {
                continue; // a sample at this very instant may or may not be pending
            }
            let next = generates
                .iter()
                .find(|&&g| g > s.now)
                .map_or(end, |&g| g.min(end));
            assert_eq!(s.quiet, next, "{s:?}");
            ahead += usize::from(s.quiet > s.now);
        }
        assert!(
            ahead > seen.len() / 2,
            "{ahead} of {} probes saw a quiet stretch",
            seen.len()
        );
    }

    #[test]
    fn quiet_until_is_now_while_a_packet_is_held_or_on_the_air() {
        let (seen, _) = probe_run(Some(3), None, WakeMode::Coarse, 1);
        assert!(!seen.is_empty());
        assert!(
            seen.iter().all(|s| s.quiet == s.now),
            "a holder keeps it noisy"
        );

        let (seen, generates) = probe_run(None, Some(2), WakeMode::Coarse, 1);
        let sending = seen
            .iter()
            .find(|s| s.what == "sending")
            .expect("talker sent");
        assert_eq!(sending.quiet, sending.now, "a data frame is on the air");
        let sent = seen.iter().find(|s| s.what == "sent").expect("frame ended");
        let next = generates.iter().find(|&&g| g > sent.now).copied();
        assert_eq!(
            Some(sent.quiet),
            next,
            "quiet again once the frame is off the air"
        );
    }

    #[test]
    fn quiet_until_is_now_without_whole_network_knowledge() {
        for (label, scheduling, networks) in [
            ("dense", WakeMode::Dense, 1),
            ("two networks", WakeMode::Coarse, 2),
        ] {
            let (seen, _) = probe_run(None, None, scheduling, networks);
            assert!(!seen.is_empty(), "{label}");
            assert!(seen.iter().all(|s| s.quiet == s.now), "{label}");
        }
    }

    /// At its first sample a courier delivers that packet over one
    /// hop, and two ids no sample minted: its own next counter, not yet
    /// sampled, and one whose origin is no node. At every later sample
    /// it delivers the first packet again, over nine hops. Inactive
    /// couriers deliver nothing.
    #[derive(Debug)]
    struct Courier {
        active: bool,
        first: Option<Packet>,
    }

    impl MacNode for Courier {
        fn start(&mut self, _: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u32, _: u64) {}
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
        fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
        fn on_generate(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
            match self.first {
                _ if !self.active => {}
                Some(first) => ctx.deliver(Packet { hops: 9, ..first }),
                None => {
                    self.first = Some(packet);
                    ctx.deliver(Packet { hops: 1, ..packet });
                    for id in [packet.id.0 + 1, u64::MAX].map(PacketId) {
                        ctx.deliver(Packet {
                            id,
                            hops: 5,
                            ..packet
                        });
                    }
                }
            }
        }
        fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
    }

    #[test]
    fn deliveries_land_in_the_origins_records_first_delivery_wins() {
        let couriers = Scripted(|u| {
            Box::new(Courier {
                active: u == 1,
                first: None,
            }) as Box<dyn MacNode>
        });
        let report = ring_run(&couriers, WakeMode::Coarse, 1);
        let (mine, others): (Vec<&PacketRecord>, Vec<&PacketRecord>) = report
            .records()
            .iter()
            .partition(|r| r.origin == NodeId::new(1));
        assert!(mine.len() >= 2, "courier samples: {}", mine.len());
        assert!(!others.is_empty());
        // Records sort by creation: the courier's first packet leads.
        let first = mine[0];
        assert_eq!((first.delivered, first.hops), (Some(first.created), 1));
        // The id delivered before its sample minted it stays
        // undelivered, like every packet nobody delivered.
        for r in mine[1..].iter().chain(&others) {
            assert_eq!((r.delivered, r.hops), (None, 0), "{r:?}");
        }
        assert_eq!(report.delivered_count(), 1);
    }
}
