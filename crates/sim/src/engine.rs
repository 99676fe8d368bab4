//! The simulation engine: event loop, radio state machine, channel
//! with collisions and SINR capture, timers and energy accounting.
//!
//! Every reception is judged by one rule, parameterized by the
//! channel's [`SinrParams`]: a listening, unlocked radio locks onto an
//! arrival at or above sensitivity; with capture off any overlap then
//! destroys the locked frame, with capture on the frame survives while
//! its SINR against the summed interference clears the threshold.
//! [`UnitDisk`] is the capture-off case at unit power.
//!
//! # Run state
//!
//! The engine is built around a read-only [`Shared`] world plus one
//! [`RunState`] that owns the arena of per-node state (indexed by
//! global node id), the event scheduler and the wake schedule (two
//! binary heaps, [`crate::queue::HeapQueue`]). The split is what lets a
//! [`Ctx`] read the world while it mutates node state. Every piece of
//! mutable run state — RNG stream, timer ids, transmit sequence
//! numbers, packet ids, event sequence numbers, packet records — is
//! per-node, and every queue tie-break is on the
//! `(time, causal round, node order, sequence)` key
//! ([`crate::OrderKey`]): a node's draws depend only on its own events,
//! and simultaneous events run in key order, never insertion order.
//!
//! There is one engine. A conservative-parallel sharded engine ran
//! next to it until it was measured to never pay: on a 2-core machine
//! `study --smoke` took 0.135 s sequentially and 11.9 s on two shards,
//! the coexistence smoke 0.35 s against 38.4 s, and the 100 000-node
//! X-MAC run 8.1 s against 17.9–20.5 s on four shards, while only 3
//! of 316 596 coordination rounds on the smoke grid (and 0 of 161 034
//! on coexistence) ever advanced two shards at once.

use crate::events::{AirSlab, Event};
use crate::frame::{Frame, FrameKind, Packet, PacketId};
use crate::protocol::SimProtocol;
pub use crate::protocols::MacNode;
use crate::queue::{HeapQueue, OrderKey};
use crate::report::{NodeStats, PacketRecord, SimReport};
use crate::time::SimTime;
use edmac_net::{Graph, NetError, NodeId, Point2, RoutingTree, Topology};
use edmac_phy::{ChannelModel, InterferenceTally, LinkField, SinrParams, UnitDisk};
use edmac_radio::{Cause, EnergyLedger, FrameSizes, Mode, Radio};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// How the engine schedules protocol clock ticks.
///
/// Both modes produce byte-identical [`SimReport`]s (asserted by the
/// `wake_equivalence` golden tests); `Dense` exists as the executable
/// reference for that contract and for debugging schedule coarsening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeMode {
    /// Event-coarse scheduling: nodes wake only for slots where they
    /// transmit, may receive from a schedule-known neighbor, or must
    /// sample the channel; elided idle ticks are replayed into the
    /// energy ledger arithmetically ([`Ctx::replay_idle_wake`]).
    ///
    /// A single-network run also gets the quiet-network fast path:
    /// while no node holds a packet and no packet is on the air,
    /// nothing but schedule-fixed heartbeats can reach the air before
    /// the next application sample, so X-MAC polls and DMAC cycles
    /// whose whole window closes before it are replayed instead of
    /// simulated ([`Ctx::quiet_until`]); LMAC does the same for a slot
    /// whose owner is packet-free past its control
    /// ([`Ctx::packet_free_until`]).
    ///
    /// A replay is proven only by a network's own schedule, so it is
    /// sound only when every transmission a node can hear comes from
    /// its own network over a decode edge, and when no decode reads
    /// the interference a replayed wake would have added. The one
    /// predicate [`Simulation::new`] computes for both this and the
    /// receiver elision is: capture off, and every air link of the
    /// realized channel a decode edge within one network. A requested
    /// `Coarse` runs as `Dense` wherever it fails: a link between two
    /// networks, an interference-only link, or capture on. A single
    /// network on [`UnitDisk`] or
    /// [`SinrChannel::degenerate`](edmac_phy::SinrChannel::degenerate)
    /// stays `Coarse`.
    #[default]
    Coarse,
    /// The reference schedule: every protocol tick becomes a wake-up,
    /// exactly like the pre-coarsening engine.
    Dense,
}

/// Run-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// Application sampling period (`1/Fs`) of every non-sink node.
    pub sample_period: Seconds,
    /// Packets created before this instant are excluded from latency
    /// statistics (cold-start transient).
    pub warmup: Seconds,
    /// RNG seed; equal seeds reproduce runs exactly. Each node derives
    /// its own decorrelated stream from `(seed, node index)`, so the
    /// draws a node sees do not depend on event interleaving.
    pub seed: u64,
    /// Wake scheduling mode (default [`WakeMode::Coarse`]).
    pub scheduling: WakeMode,
}

impl Default for SimConfig {
    /// 600 simulated seconds, one sample per 60 s, 30 s warmup.
    fn default() -> SimConfig {
        SimConfig {
            duration: Seconds::new(600.0),
            sample_period: Seconds::new(60.0),
            warmup: Seconds::new(30.0),
            seed: 0,
            scheduling: WakeMode::Coarse,
        }
    }
}

/// Synchronized high-rate windows layered over the base sampling
/// periods (event-driven sensing: a detected event makes a region
/// report faster for a while).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindows {
    /// Interval between burst onsets (the first starts at `t = every`).
    pub every: Seconds,
    /// Length of each burst window.
    pub duration: Seconds,
    /// Sampling-rate multiplier inside a window (periods divide by it).
    pub factor: f64,
}

impl BurstWindows {
    /// Returns `true` if `now` falls inside a burst window.
    fn active(&self, now: SimTime) -> bool {
        let every = self.every.value();
        if every <= 0.0 {
            return false;
        }
        let t = now.as_seconds().value() % every;
        // Bursts start at each multiple of `every` (skipping t = 0 so
        // cold-start traffic stays nominal).
        now.as_seconds().value() >= every && t < self.duration.value()
    }
}

/// Per-node application traffic: mean sampling periods (the sink's
/// entry is ignored) plus optional burst windows. The engine's default
/// — every node at [`SimConfig::sample_period`], no bursts — is
/// `TrafficProfile::uniform`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// Mean sampling period per node, indexed by node id.
    pub periods: Vec<Seconds>,
    /// Optional synchronized burst windows.
    pub burst: Option<BurstWindows>,
}

impl TrafficProfile {
    /// Every node samples at `period`, no bursts.
    pub fn uniform(n: usize, period: Seconds) -> TrafficProfile {
        TrafficProfile {
            periods: vec![period; n],
            burst: None,
        }
    }

    /// Layers burst windows over the profile.
    #[must_use]
    pub fn with_bursts(mut self, burst: BurstWindows) -> TrafficProfile {
        self.burst = Some(burst);
        self
    }
}

/// Placeholder swapped in while a real node is being called (the engine
/// cannot hold two mutable borrows).
#[derive(Debug)]
struct NullNode;

impl MacNode for NullNode {
    fn start(&mut self, _: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u32, _: u64) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame) {}
    fn on_tx_done(&mut self, _: &mut Ctx<'_>) {}
    fn on_generate(&mut self, _: &mut Ctx<'_>, _: Packet) {}
    fn on_radio_ready(&mut self, _: &mut Ctx<'_>) {}
}

/// Per-node radio bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RadioState {
    mode: Mode,
    since: SimTime,
    cause: Cause,
    /// Invalidates in-flight `RadioReady` events after `sleep()`.
    startup_token: u64,
}

/// An in-progress reception.
#[derive(Debug, Clone)]
struct ActiveRx {
    tx_seq: u64,
    corrupted: bool,
    /// Received power of the locked frame (mW).
    signal_mw: f64,
    /// Worst SINR the locked frame saw while on the air (∞ with
    /// capture off, where no SINR is computed).
    min_sinr: f64,
    /// `true` if an interferer overlapped the locked frame and SINR
    /// capture rode it out — a decode under this flag is a *capture*.
    overlapped: bool,
}

impl ActiveRx {
    fn lock(tx_seq: u64, signal_mw: f64, sinr: f64, overlapped: bool) -> ActiveRx {
        ActiveRx {
            tx_seq,
            corrupted: false,
            signal_mw,
            min_sinr: sinr,
            overlapped,
        }
    }
}

/// Decorrelates per-node RNG streams: two rounds of splitmix64 over
/// `(seed, node)`.
fn node_stream(seed: u64, node: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed ^ mix(node as u64 ^ 0x0005_DEEC_E66D))
}

/// All mutable state of one node, stored in the run's arena.
///
/// Timer ids, tx sequence numbers, packet ids, the event sequence and
/// the RNG live here, keyed or seeded by the node's global index, so
/// what a node draws and mints depends only on its own events.
#[derive(Debug)]
struct NodeState {
    radio: RadioState,
    ledger: EnergyLedger,
    active_rx: Option<ActiveRx>,
    /// Frames on the air here and their total power: the count is the
    /// CCA primitive, the power is read only with capture on.
    tally: InterferenceTally,
    /// Sum of per-decode SINRs in dB and the number of decodes behind
    /// it (capture on only) — feeds `NodeStats::mean_sinr_db`.
    sinr_db_sum: f64,
    sinr_decoded: u64,
    counters: crate::frame::FrameCounters,
    rng: StdRng,
    /// The currently registered wake `(time, token)`; queue entries
    /// that no longer match are stale and skipped on pop.
    wake_current: Option<(SimTime, u64)>,
    wake_token: u64,
    next_timer: u64,
    next_tx: u64,
    next_packet: u64,
    next_event_seq: u64,
    /// Timers set and not yet popped, cancelled or not.
    pending_timers: u32,
    /// Ids of pending timers cancelled through [`Ctx::cancel_timer`]:
    /// a handful at most, so a scan beats hashing. Emptied whenever no
    /// timer is pending (any id left then is of a timer already gone).
    cancelled_timers: Vec<u64>,
    /// The node's last answer to [`MacNode::holds_packets`] (quiet
    /// bookkeeping only).
    holds: bool,
    /// Whether the frame this node has on the air carries a packet.
    tx_carries_packet: bool,
    /// The instant of this node's pending application sample (never,
    /// at a sink).
    next_sample: SimTime,
    /// Records of packets *originating* here, in creation order.
    records: Vec<PacketRecord>,
}

impl NodeState {
    fn new(radio: &Radio, seed: u64, node: usize) -> NodeState {
        NodeState {
            radio: RadioState {
                mode: Mode::Sleep,
                since: SimTime::ZERO,
                cause: Cause::Sleep,
                startup_token: 0,
            },
            ledger: EnergyLedger::new(radio.power),
            active_rx: None,
            tally: InterferenceTally::new(),
            sinr_db_sum: 0.0,
            sinr_decoded: 0,
            counters: crate::frame::FrameCounters::default(),
            rng: StdRng::seed_from_u64(node_stream(seed, node)),
            wake_current: None,
            wake_token: 0,
            next_timer: 0,
            next_tx: 0,
            next_packet: 0,
            next_event_seq: 0,
            pending_timers: 0,
            cancelled_timers: Vec::new(),
            holds: true,
            tx_carries_packet: false,
            next_sample: SimTime::from_nanos(u64::MAX),
            records: Vec::new(),
        }
    }

    fn charge_current(&mut self, now: SimTime) {
        let state = self.radio;
        let elapsed = now.since(state.since);
        let cause = if state.mode == Mode::Sleep {
            Cause::Sleep
        } else {
            state.cause
        };
        self.ledger.charge(state.mode, cause, elapsed);
    }

    fn set_mode(&mut self, now: SimTime, mode: Mode, cause: Cause) {
        self.charge_current(now);
        self.radio.mode = mode;
        self.radio.since = now;
        self.radio.cause = cause;
    }
}

/// The read-only world of a run: topology, routing, radio hardware and
/// configuration.
#[derive(Debug)]
struct Shared {
    end: SimTime,
    radio_hw: Radio,
    frames: FrameSizes,
    /// The realized channel. Its receivers are the *air* adjacency
    /// (everyone who registers a transmission, with the power it
    /// receives), a superset of the decode graph routing was built
    /// over: every one of them gets the frame's air batches.
    field: LinkField,
    /// How receptions are judged.
    params: SinrParams,
    parent: Vec<Option<NodeId>>,
    depth: Vec<usize>,
    /// The network each node belongs to (all 0 in a single-network
    /// build). Frames decode across networks — the radio cannot know
    /// better — but `on_frame` only fires for same-network traffic,
    /// the PAN-filter every real MAC applies before its state machine.
    network_of: Vec<u32>,
    /// One sink per network, indexed by network id.
    sinks: Vec<NodeId>,
    /// Each network's deepest hop distance, indexed by network id.
    max_depths: Vec<usize>,
    /// The run configuration, with the wake mode that actually runs.
    config: SimConfig,
    /// `true` when the engine may leave sleeping receivers out of a
    /// transmission's air batches (decided by [`Simulation::new`]).
    elide_sleepers: bool,
    /// Per-node traffic overriding [`SimConfig::sample_period`].
    traffic: Option<TrafficProfile>,
    /// The exact engine delta of a radio startup, in nanoseconds.
    startup_ns: u64,
    /// The exact engine delta of each frame kind's airtime, in
    /// nanoseconds, indexed by [`FrameKind::index`].
    airtime_ns: [u64; FrameKind::ALL.len()],
}

impl Shared {
    /// The mean sampling period of `node` at `now`.
    fn sample_period(&self, now: SimTime, node: NodeId) -> Seconds {
        let base = match &self.traffic {
            Some(profile) => profile.periods[node.index()],
            None => self.config.sample_period,
        };
        match self.traffic.as_ref().and_then(|p| p.burst) {
            Some(burst) if burst.active(now) => Seconds::new(base.value() / burst.factor),
            _ => base,
        }
    }

    /// The end of a frame of `kind` sent at `at`.
    fn frame_end(&self, at: SimTime, kind: FrameKind) -> SimTime {
        SimTime::from_nanos(at.as_nanos() + self.airtime_ns[kind.index()])
    }

    /// The `i`-th air neighbor of `src` and the power (mW) it receives
    /// from `src`.
    fn air_link(&self, src: NodeId, i: u32) -> (NodeId, f64) {
        self.field.receivers(src)[i as usize]
    }

    /// The network `node` belongs to (0 in a single-network build).
    fn network(&self, node: NodeId) -> usize {
        self.network_of[node.index()] as usize
    }

    /// Whether `node` is the sink of its own network.
    fn is_sink(&self, node: NodeId) -> bool {
        self.sinks[self.network(node)] == node
    }
}

/// The run's complete mutable state: the node arena, indexed by global
/// node id, the event and wake queues, and the transmissions on the
/// air.
#[derive(Debug)]
struct RunState {
    now: SimTime,
    events: HeapQueue<Event>,
    wakes: HeapQueue<()>,
    nodes: Vec<NodeState>,
    machines: Vec<Box<dyn MacNode>>,
    /// The transmissions the queued air batches name.
    air: AirSlab,
    /// Sink-side delivery log: packet id → (time, hops), first write
    /// wins.
    deliveries: HashMap<u64, (SimTime, u32)>,
    /// The quiet-network bookkeeping; `None` (and [`Ctx::quiet_until`]
    /// always `now`) unless the run is one network under
    /// [`WakeMode::Coarse`].
    quiet: Option<QuietLedger>,
}

/// What [`Ctx::quiet_until`] needs to know about the whole network.
#[derive(Debug)]
struct QuietLedger {
    /// Nodes whose last [`MacNode::holds_packets`] answer was `true`.
    holders: usize,
    /// Frames on the air that carry a packet.
    packet_air: usize,
    /// The time of every pending `Generate` (one per non-sink node).
    generates: BinaryHeap<Reverse<SimTime>>,
}

impl RunState {
    /// A fresh run over `machines`, one per global node.
    fn new(shared: &Shared, machines: Vec<Box<dyn MacNode>>) -> RunState {
        let nodes: Vec<NodeState> = (0..machines.len())
            .map(|u| NodeState::new(&shared.radio_hw, shared.config.seed, u))
            .collect();
        // Quiet replay leans on whole-network knowledge (every holder,
        // every pending sample); a second network's traffic is unknown
        // to this one's schedule.
        let track_quiet = shared.sinks.len() == 1 && shared.config.scheduling == WakeMode::Coarse;
        RunState {
            now: SimTime::ZERO,
            events: HeapQueue::new(),
            wakes: HeapQueue::new(),
            quiet: track_quiet.then(|| QuietLedger {
                holders: nodes.len(),
                packet_air: 0,
                generates: BinaryHeap::new(),
            }),
            nodes,
            machines,
            air: AirSlab::default(),
            deliveries: HashMap::new(),
        }
    }

    /// Mints the next ordering key of `node`. `round` is the
    /// same-instant causal depth ([`OrderKey::round`]); entries for
    /// future instants always pass 0.
    fn key_for(&mut self, node: NodeId, at: SimTime, round: u32) -> OrderKey {
        let st = &mut self.nodes[node.index()];
        let seq = st.next_event_seq;
        st.next_event_seq += 1;
        OrderKey {
            at,
            round,
            node: node.index() as u32,
            seq,
        }
    }

    /// Schedules `node`'s next application sample at `at`.
    fn schedule_generate(&mut self, node: NodeId, at: SimTime, round: u32) {
        let key = self.key_for(node, at, round);
        self.events.schedule(key, Event::Generate { node });
        self.nodes[node.index()].next_sample = at;
        if let Some(quiet) = &mut self.quiet {
            quiet.generates.push(Reverse(at));
        }
    }

    /// Records whether `node` now holds packets.
    fn note_holds(&mut self, node: NodeId, holds: bool) {
        let st = &mut self.nodes[node.index()];
        if st.holds == holds {
            return;
        }
        st.holds = holds;
        if let Some(quiet) = &mut self.quiet {
            if holds {
                quiet.holders += 1;
            } else {
                quiet.holders -= 1;
            }
        }
    }

    /// Registers (or supersedes) the single pending wake of a node.
    fn register_wake(&mut self, node: NodeId, want: Option<SimTime>) {
        let st = &mut self.nodes[node.index()];
        match (want, st.wake_current) {
            (Some(t), Some((current, _))) if current == t => {}
            (Some(t), _) => {
                st.wake_token += 1;
                st.wake_current = Some((t, st.wake_token));
                self.wakes.schedule(
                    OrderKey {
                        at: t,
                        round: 0,
                        node: node.index() as u32,
                        seq: st.wake_token,
                    },
                    (),
                );
            }
            (None, Some(_)) => st.wake_current = None,
            (None, None) => {}
        }
    }

    /// The earliest valid pending wake, dropping stale entries.
    fn peek_wake(&mut self) -> Option<OrderKey> {
        while let Some(key) = self.wakes.peek_key() {
            if self.nodes[key.node as usize].wake_current == Some((key.at, key.seq)) {
                return Some(key);
            }
            self.wakes.pop();
        }
        None
    }
}

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

/// The node-facing API: everything a [`MacNode`] may do to the world.
#[derive(Debug)]
pub struct Ctx<'a> {
    shared: &'a Shared,
    run: &'a mut RunState,
    node: NodeId,
    /// Causal round assigned to entries this handler schedules for the
    /// *current* instant: the triggering entry's round plus one.
    round: u32,
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
    /// horizon) while no node [holds packets](MacNode::holds_packets)
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
    /// Always `now` under [`WakeMode::Dense`] and with more than one
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

    /// Starts the radio from sleep; [`MacNode::on_radio_ready`] fires
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

    /// Transmits a frame; [`MacNode::on_tx_done`] fires when it leaves
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
        // one `AirEnd` entry. Every receiver still mints its pair of
        // keys and the record is queued under the first pair: the
        // later receivers' keys fall between that pair and this node's
        // next entry, so no other entry sorts between the receivers of
        // one batch, and the sequence stream is the one every pinned
        // output was produced with.
        let mut queued: Option<(u32, OrderKey, OrderKey)> = None;
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
            let k1 = self.next_key(now);
            let k2 = self.next_key(end);
            let tx = match queued {
                Some((tx, _, _)) => tx,
                None => {
                    let tx = self.run.air.open(tx_seq, frame);
                    queued = Some((tx, k1, k2));
                    tx
                }
            };
            self.run.air[tx].receivers.push(i as u32);
        }
        if let Some((tx, k1, k2)) = queued {
            self.run.events.schedule(k1, Event::AirStart { tx });
            self.run.events.schedule(k2, Event::AirEnd { tx });
        }
        let k = self.next_key(end);
        self.run
            .events
            .schedule(k, Event::TxDone { node: self.node });
    }

    /// The instant up to which `node` provably holds no packet: its next
    /// application sample (capped at the horizon) while it
    /// [holds none](MacNode::holds_packets), and `now` otherwise. The
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

    /// Records the final delivery of `packet` at the sink.
    pub fn deliver(&mut self, packet: Packet) {
        let now = self.run.now;
        self.run
            .deliveries
            .entry(packet.id.0)
            .or_insert((now, packet.hops));
    }
}

/// Runs a node callback with the engine's lending pattern, then
/// records whether the node holds packets (quiet bookkeeping) and
/// re-queries and re-registers its wake. `round` is the causal round
/// the handler's same-instant scheduling inherits (the triggering
/// entry's round plus one).
fn with_node<F>(shared: &Shared, run: &mut RunState, node: NodeId, round: u32, f: F)
where
    F: FnOnce(&mut Box<dyn MacNode>, &mut Ctx<'_>),
{
    let mut taken: Box<dyn MacNode> =
        std::mem::replace(&mut run.machines[node.index()], Box::new(NullNode));
    let want = {
        let mut ctx = Ctx {
            shared,
            run,
            node,
            round,
        };
        f(&mut taken, &mut ctx);
        if ctx.run.quiet.is_some() {
            ctx.run.note_holds(node, taken.holds_packets());
        }
        taken.next_activity(&mut ctx)
    };
    run.machines[node.index()] = taken;
    run.register_wake(node, want);
}

/// A frame's first bit arrives at `node`, received at `power_mw`.
fn air_start(
    shared: &Shared,
    st: &mut NodeState,
    now: SimTime,
    node: NodeId,
    tx_seq: u64,
    frame: &Frame,
    power_mw: f64,
) {
    let params = &shared.params;
    st.tally.add(power_mw);
    if let Some(rx) = &mut st.active_rx {
        // An interferer arrived over a locked frame: with capture on,
        // the lock survives while its SINR clears the threshold; with
        // capture off, any overlap destroys it. Corruption latches — a
        // strong frame that once dipped below threshold stays lost
        // even if the interferer ends first.
        match params.capture {
            Some(c) => {
                let sinr = st.tally.sinr(rx.signal_mw, params.noise_mw);
                rx.overlapped = true;
                rx.min_sinr = rx.min_sinr.min(sinr);
                if sinr < c {
                    rx.corrupted = true;
                }
            }
            None => rx.corrupted = true,
        }
    } else if st.radio.mode == Mode::Listen {
        if power_mw < params.sensitivity_mw {
            // Audible energy, undecodable signal: the radio never syncs
            // on it.
            st.counters.record_below_noise();
            return;
        }
        let (locks, sinr, overlapped) = match params.capture {
            // Capture decides the lock against the ongoing
            // interference.
            Some(c) => {
                let sinr = st.tally.sinr(power_mw, params.noise_mw);
                (sinr >= c, sinr, st.tally.power_mw() > power_mw)
            }
            // Capture off: first arrival locks unconditionally (a node
            // waking into an ongoing frame's tail still locks the next
            // arrival cleanly).
            None => (true, f64::INFINITY, false),
        };
        if locks {
            let cause = frame.kind.rx_cause(frame.addressed_to(node));
            st.set_mode(now, Mode::Rx, cause);
            st.active_rx = Some(ActiveRx::lock(tx_seq, power_mw, sinr, overlapped));
        }
    }
}

/// A frame's last bit leaves the air at `node`, which was receiving it
/// at `power_mw`; a clean decode of a same-network frame runs the
/// node's `on_frame` in causal round `round`.
fn air_end(
    shared: &Shared,
    run: &mut RunState,
    round: u32,
    node: NodeId,
    tx_seq: u64,
    frame: &Frame,
    power_mw: f64,
) {
    let now = run.now;
    let st = &mut run.nodes[node.index()];
    st.tally.remove(power_mw);
    let finished = match &st.active_rx {
        Some(rx) if rx.tx_seq == tx_seq => Some((rx.corrupted, rx.min_sinr, rx.overlapped)),
        _ => None,
    };
    if let Some((corrupted, min_sinr, overlapped)) = finished {
        st.active_rx = None;
        // Back to plain listening; the node decides what happens next.
        st.set_mode(now, Mode::Listen, Cause::CarrierSense);
        if corrupted {
            st.counters.record_collision();
        } else {
            st.counters.record_rx(frame.kind);
            if overlapped {
                st.counters.record_captured();
            }
            // Only capture-on decodes carry a SINR sample: the one
            // case where SINR decides a decode.
            if min_sinr.is_finite() {
                st.sinr_db_sum += 10.0 * min_sinr.log10();
                st.sinr_decoded += 1;
            }
            // Cross-network frames decode at the radio but never reach
            // the MAC state machine (PAN filter).
            if shared.network(frame.src) == shared.network(node) {
                with_node(shared, run, node, round, |n, ctx| n.on_frame(ctx, frame));
            }
        }
    }
}

/// Delivers one event, queued under `key`, to the run state and the
/// destination nodes. Same-instant follow-ups land in the causal
/// round after the event's own.
fn dispatch(shared: &Shared, run: &mut RunState, key: OrderKey, event: Event) {
    let round = key.round + 1;
    match event {
        Event::Generate { node } => {
            let now = run.now;
            if let Some(quiet) = &mut run.quiet {
                let popped = quiet.generates.pop();
                debug_assert_eq!(popped, Some(Reverse(now)), "generates fire in time order");
            }
            let st = &mut run.nodes[node.index()];
            let id = PacketId(((node.index() as u64) << 32) | st.next_packet);
            st.next_packet += 1;
            let packet = Packet {
                id,
                origin: node,
                created: now,
                hops: 0,
            };
            st.records.push(PacketRecord {
                id,
                origin: node,
                origin_depth: shared.depth[node.index()],
                created: now,
                delivered: None,
                hops: 0,
            });
            // Schedule the next sample before handing over. The
            // interval is jittered within ±half a period (mean rate
            // preserved): strictly periodic sampling phase-locks
            // against frame and ladder schedules, which biases delay
            // medians in ways the analytical models' uniform-arrival
            // assumption excludes.
            let jitter = st.rng.gen_range(0.5..1.5);
            let next = now.after(shared.sample_period(now, node) * jitter);
            let r = if next == now { round } else { 0 };
            run.schedule_generate(node, next, r);
            with_node(shared, run, node, round, |n, ctx| {
                n.on_generate(ctx, packet)
            });
        }
        Event::Timer { node, id, tag } => {
            let st = &mut run.nodes[node.index()];
            st.pending_timers -= 1;
            let cancelled = match st.cancelled_timers.iter().position(|&c| c == id) {
                Some(i) => {
                    st.cancelled_timers.swap_remove(i);
                    true
                }
                None => false,
            };
            if st.pending_timers == 0 {
                st.cancelled_timers.clear();
            }
            if cancelled {
                return;
            }
            with_node(shared, run, node, round, |n, ctx| n.on_timer(ctx, tag, id));
        }
        Event::RadioReady { node, token } => {
            let now = run.now;
            let st = &mut run.nodes[node.index()];
            if st.radio.startup_token != token || st.radio.mode != Mode::Startup {
                return; // stale: the node went back to sleep
            }
            let cause = st.radio.cause;
            st.set_mode(now, Mode::Listen, cause);
            with_node(shared, run, node, round, |n, ctx| n.on_radio_ready(ctx));
        }
        Event::AirStart { tx } => {
            let now = run.now;
            let rec = &run.air[tx];
            for &i in &rec.receivers {
                let (node, power_mw) = shared.air_link(rec.frame.src, i);
                let st = &mut run.nodes[node.index()];
                air_start(shared, st, now, node, rec.tx_seq, &rec.frame, power_mw);
            }
        }
        Event::AirEnd { tx } => {
            let now = run.now;
            let (tx_seq, frame) = (run.air[tx].tx_seq, run.air[tx].frame);
            let mut receivers = std::mem::take(&mut run.air[tx].receivers);
            for (j, &i) in receivers.iter().enumerate() {
                let (node, power_mw) = shared.air_link(frame.src, i);
                air_end(shared, run, round, node, tx_seq, &frame, power_mw);
                // Wakes win ties: a wake this receiver's handler
                // registered at `now` fires before the next receiver's
                // `AirEnd`, so the rest of the batch goes back under its
                // key (no other entry sorts between the two).
                let wake_due = run.nodes[node.index()]
                    .wake_current
                    .is_some_and(|(t, _)| t <= now);
                if wake_due && j + 1 < receivers.len() {
                    receivers.drain(..=j);
                    run.air[tx].receivers = receivers;
                    run.events.schedule(key, Event::AirEnd { tx });
                    return;
                }
            }
            run.air.release(tx, receivers);
        }
        Event::TxDone { node } => {
            let now = run.now;
            let st = &mut run.nodes[node.index()];
            debug_assert_eq!(st.radio.mode, Mode::Tx);
            st.set_mode(now, Mode::Listen, Cause::CarrierSense);
            if std::mem::take(&mut st.tx_carries_packet) {
                if let Some(quiet) = &mut run.quiet {
                    quiet.packet_air -= 1;
                }
            }
            with_node(shared, run, node, round, |n, ctx| n.on_tx_done(ctx));
        }
    }
}

/// Runs the simulation to the horizon, interleaving queued events with
/// the per-node wake schedule: ties go to wakes (the dense scheduler's
/// boundary timers always carried the earliest sequence numbers),
/// simultaneous wakes fire in node order.
fn advance(shared: &Shared, run: &mut RunState) {
    let end = shared.end;
    loop {
        let wake = run.peek_wake();
        let event = run.events.peek_key();
        let fire_wake = match (wake, event) {
            (Some(w), Some(e)) => w.at <= e.at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if fire_wake {
            let key = wake.expect("chosen branch has a wake");
            if key.at > end {
                break;
            }
            run.wakes.pop();
            let node = NodeId::new(key.node as usize);
            run.nodes[node.index()].wake_current = None;
            run.now = key.at;
            // Wakes carry round 0 and all fire before any event at the
            // same instant, so their same-instant follow-ups land in
            // round 1 — after every already-pending event.
            with_node(shared, run, node, 1, |n, ctx| n.on_wake(ctx));
        } else {
            let key = event.expect("chosen branch has an event");
            if key.at > end {
                break;
            }
            let (_, ev) = run.events.pop().expect("peeked event exists");
            run.now = key.at;
            dispatch(shared, run, key, ev);
        }
    }
}

/// Seeds periodic traffic (random initial phases from each node's own
/// stream) and starts every node.
fn seed_and_start(shared: &Shared, run: &mut RunState) {
    for i in 0..run.nodes.len() {
        let node = NodeId::new(i);
        if shared.is_sink(node) {
            continue;
        }
        let period = shared.sample_period(SimTime::ZERO, node);
        let phase = run.nodes[i].rng.gen_range(0.0..period.value());
        let at = SimTime::from_seconds(Seconds::new(phase));
        run.schedule_generate(node, at, 0);
    }
    for i in 0..run.nodes.len() {
        with_node(shared, run, NodeId::new(i), 1, |n, ctx| n.start(ctx));
    }
}

/// Horizon phase: let schedule-coarsening nodes replay idle wakes that
/// were still pending, then flush residual mode time.
fn finish(shared: &Shared, run: &mut RunState) {
    run.now = shared.end;
    for i in 0..run.nodes.len() {
        with_node(shared, run, NodeId::new(i), 1, |n, ctx| n.on_horizon(ctx));
    }
    for st in &mut run.nodes {
        st.charge_current(shared.end);
        st.radio.since = shared.end;
    }
}

/// A fully built simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation {
    shared: Shared,
    machines: Vec<Box<dyn MacNode>>,
    /// Per-network protocol names, indexed by network id.
    network_names: Vec<&'static str>,
}

impl Simulation {
    /// Builds a simulation of one or more networks sharing one channel
    /// — the only way a `Simulation` is assembled. A single network is
    /// the `K = 1` case.
    ///
    /// Each network brings its own topology (positions in the shared
    /// coordinate plane, its own sink) and protocol: one of the four
    /// built-in [`SimProtocol`]s ([`XmacSim`](crate::XmacSim),
    /// [`DmacSim`](crate::DmacSim), [`LmacSim`](crate::LmacSim),
    /// [`ScpSim`](crate::ScpSim)) or any downstream implementation,
    /// custom per-node state machines included. `channel` is
    /// realized over the union of all positions; each network routes
    /// over the realized decode edges among its own nodes, while every
    /// air link — within or across networks — delivers frames, so one
    /// network's transmissions are interference (or, with capture off,
    /// collision sources) in every other. Global node ids are
    /// assigned contiguously in network order. Cross-network frames are
    /// decoded by the radio (energy and counters are charged) but
    /// filtered before the MAC state machine, like a PAN-id check.
    ///
    /// Three choices are made here and nowhere else:
    ///
    /// * **Protocol seed.** A single network builds its nodes under
    ///   `config.seed`; with several, network `k` gets its own
    ///   decorrelated seed (so e.g. LMAC's slot-assignment RNG differs
    ///   per network).
    /// * **Schedule-proven silence.** One predicate — capture off, and
    ///   every air link of the realized field a decode edge within one
    ///   network — gates both of the following. With capture off a
    ///   lock never reads the interference tally, and no node hears a
    ///   transmitter its own schedule does not know.
    /// * **Wake mode.** A requested [`WakeMode::Coarse`] runs as
    ///   [`WakeMode::Dense`] unless the predicate holds (see
    ///   [`WakeMode::Coarse`]); the mode that ran is the one in the
    ///   report's [`SimConfig`].
    /// * **CCA-free receiver elision.** Receivers asleep when a frame
    ///   starts are left out of its air batches only where the
    ///   predicate holds, for a single network whose protocol never
    ///   samples the channel ([`SimProtocol::cca_free`]).
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidParameter`] if `networks` is empty, or if a
    ///   protocol cannot cover its topology (e.g. an LMAC frame with
    ///   fewer slots than the distance-2 coloring needs).
    /// * [`NetError::Disconnected`] if some network's decode graph
    ///   cannot reach its sink under the realized channel.
    pub fn new(
        networks: &[CoexNetwork<'_>],
        channel: &dyn ChannelModel,
        radio: Radio,
        frames: FrameSizes,
        mut config: SimConfig,
    ) -> Result<Simulation, NetError> {
        if networks.is_empty() {
            return Err(NetError::InvalidParameter {
                name: "networks",
                reason: "a simulation needs at least one network".to_string(),
            });
        }
        let mut positions: Vec<Point2> = Vec::new();
        let mut network_of: Vec<u32> = Vec::new();
        for (k, net) in networks.iter().enumerate() {
            positions.extend_from_slice(net.topology.positions());
            network_of.resize(positions.len(), k as u32);
        }
        let n = positions.len();
        let field = channel.realize(&positions, config.seed);
        let decode = field.decode_graph();
        let params = channel.sinr();
        let schedule_proven =
            params.capture.is_none() && schedules_cover_air(&field, &decode, &network_of);
        if !schedule_proven {
            config.scheduling = WakeMode::Dense;
        }

        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth = vec![0usize; n];
        let mut sinks = Vec::with_capacity(networks.len());
        let mut max_depths = Vec::with_capacity(networks.len());
        let mut network_names = Vec::with_capacity(networks.len());
        let mut machines: Vec<Box<dyn MacNode>> = Vec::with_capacity(n);
        let mut off = 0;
        for (k, net) in networks.iter().enumerate() {
            let nk = net.topology.len();
            // The network's own decode graph: the realized field's
            // edges restricted to its nodes, shifted to local ids.
            // Neighbor lists keep their ascending order, so builders
            // that iterate adjacency (LMAC's coloring) see exactly
            // what a standalone realization would give them.
            let mut local = Graph::with_nodes(nk);
            for u in 0..nk {
                for &v in decode.neighbors(NodeId::new(off + u)) {
                    let vi = v.index();
                    if vi > off + u && vi < off + nk {
                        local.add_edge(NodeId::new(u), NodeId::new(vi - off));
                    }
                }
            }
            let tree = RoutingTree::shortest_path(&local, net.topology.sink())?;
            let mut net_config = config;
            if networks.len() > 1 {
                net_config.seed = node_stream(config.seed ^ 0x0C0E_715E, k);
            }
            machines.extend(net.protocol.build_nodes(&local, &tree, &net_config)?);
            for u in 0..nk {
                let lu = NodeId::new(u);
                parent[off + u] = tree.parent(lu).map(|p| NodeId::new(off + p.index()));
                depth[off + u] = tree.depth(lu);
            }
            sinks.push(NodeId::new(off + net.topology.sink().index()));
            max_depths.push(tree.max_depth());
            network_names.push(net.protocol.name());
            off += nk;
        }

        let elide_sleepers =
            schedule_proven && networks.len() == 1 && networks[0].protocol.cca_free();
        let mut airtime_ns = [0; FrameKind::ALL.len()];
        for kind in FrameKind::ALL {
            airtime_ns[kind.index()] =
                SimTime::from_seconds(radio.airtime(kind.size(&frames))).as_nanos();
        }
        let shared = Shared {
            end: SimTime::from_seconds(config.duration),
            startup_ns: SimTime::from_seconds(radio.timings.startup).as_nanos(),
            airtime_ns,
            radio_hw: radio,
            frames,
            field,
            params,
            parent,
            depth,
            network_of,
            sinks,
            max_depths,
            config,
            elide_sleepers,
            traffic: None,
        };
        Ok(Simulation {
            shared,
            machines,
            network_names,
        })
    }

    /// Builds a simulation over the paper's ring topology (a geometric
    /// realization seeded from `config.seed`) on the unit-disk channel
    /// with the CC2420 radio and default frames.
    ///
    /// # Errors
    ///
    /// Propagates [`Topology::ring_model`] and [`Simulation::new`]
    /// errors.
    pub fn ring(
        depth: usize,
        density: usize,
        protocol: &dyn SimProtocol,
        config: SimConfig,
    ) -> Result<Simulation, NetError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topology = Topology::ring_model(depth, density, &mut rng)?;
        let network = CoexNetwork {
            topology: &topology,
            protocol,
        };
        Simulation::new(
            &[network],
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            config,
        )
    }

    /// Number of nodes, sink included.
    pub fn node_count(&self) -> usize {
        self.machines.len()
    }

    /// Has no effect: returns `self` unchanged.
    ///
    /// This once set the number of spatial shards a run was split
    /// into. Every shard count always produced the same bytes, and the
    /// sharded engine is gone (see the module docs for why). The name
    /// stays only for the benchmark harness, which still calls it; it
    /// goes once a benchmark change retires the `smoke-shards2`
    /// workload and the `grid-full` shard probe.
    #[must_use]
    pub fn with_shards(self, _shards: usize) -> Simulation {
        self
    }

    /// Installs a per-node traffic profile (hotspots, bursts) in place
    /// of the uniform [`SimConfig::sample_period`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] if the profile does not
    /// cover every node, contains a non-positive period (the sink's
    /// entry is ignored, as documented on [`TrafficProfile`]), or
    /// carries degenerate burst windows (a non-positive factor or
    /// onset interval would run simulated time backwards).
    pub fn with_traffic(mut self, traffic: TrafficProfile) -> Result<Simulation, NetError> {
        if traffic.periods.len() != self.machines.len() {
            return Err(NetError::InvalidParameter {
                name: "periods",
                reason: format!(
                    "profile covers {} nodes but the simulation has {}",
                    traffic.periods.len(),
                    self.machines.len()
                ),
            });
        }
        if let Some(bad) = traffic
            .periods
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.shared.is_sink(NodeId::new(i)))
            .map(|(_, p)| p)
            .find(|p| !(p.is_finite() && p.value() > 0.0))
        {
            return Err(NetError::InvalidParameter {
                name: "periods",
                reason: format!("sampling periods must be positive and finite, got {bad}"),
            });
        }
        if let Some(burst) = traffic.burst {
            let factor_ok = burst.factor.is_finite() && burst.factor > 0.0;
            let every_ok = burst.every.is_finite() && burst.every.value() > 0.0;
            let duration_ok = burst.duration.is_finite() && burst.duration.value() >= 0.0;
            if !(factor_ok && every_ok && duration_ok) {
                return Err(NetError::InvalidParameter {
                    name: "burst",
                    reason: format!(
                        "burst windows need a positive finite factor and onset interval \
                         and a non-negative duration, got factor {}, every {}, duration {}",
                        burst.factor, burst.every, burst.duration
                    ),
                });
            }
        }
        self.shared.traffic = Some(traffic);
        Ok(self)
    }

    /// Runs to completion, returning the final world state.
    fn execute(self) -> (Shared, Vec<&'static str>, RunState) {
        let Simulation {
            shared,
            machines,
            network_names,
        } = self;
        let mut run = RunState::new(&shared, machines);
        seed_and_start(&shared, &mut run);
        advance(&shared, &mut run);
        finish(&shared, &mut run);
        (shared, network_names, run)
    }

    /// Runs the simulation to completion and returns the report. On a
    /// multi-network build the report covers every node under network
    /// 0's protocol name and sink; use
    /// [`run_coexistence`](Simulation::run_coexistence) for one report
    /// per network.
    pub fn run(self) -> SimReport {
        let (shared, names, run) = self.execute();
        let (per_node, records) = collect_results(&shared, run);
        SimReport::new(names[0], shared.config, shared.sinks[0], per_node, records)
    }

    /// Runs a coexistence simulation to completion and returns one
    /// report per network, in network order: each carries its own
    /// protocol name, sink, node stats and packet records (with global
    /// node ids), so the single-network accessors — bottleneck energy
    /// excluding the own sink, per-depth delay stats, delivery ratio —
    /// apply per network unchanged.
    ///
    /// On a single-network build this returns `vec![self.run()]`.
    pub fn run_coexistence(self) -> Vec<SimReport> {
        let (shared, names, run) = self.execute();
        let (per_node, records) = collect_results(&shared, run);
        names
            .iter()
            .enumerate()
            .map(|(k, &name)| {
                let nodes: Vec<NodeStats> = per_node
                    .iter()
                    .filter(|s| shared.network_of[s.node.index()] == k as u32)
                    .cloned()
                    .collect();
                let recs: Vec<PacketRecord> = records
                    .iter()
                    .filter(|r| shared.network_of[r.origin.index()] == k as u32)
                    .cloned()
                    .collect();
                SimReport::new(name, shared.config, shared.sinks[k], nodes, recs)
            })
            .collect()
    }
}

/// One network of a [`Simulation::new`] build:
/// a topology in the *shared* coordinate plane (inter-network spacing
/// is expressed by the positions themselves) plus the protocol its
/// nodes run.
#[derive(Debug, Clone, Copy)]
pub struct CoexNetwork<'a> {
    /// Node positions and sink of this network, in shared coordinates.
    pub topology: &'a Topology,
    /// The MAC protocol every node of this network runs.
    pub protocol: &'a dyn SimProtocol,
}

/// Whether every air link of `field` is a decode edge between two nodes
/// of one network — with capture off, the condition schedule-proven
/// silence needs ([`WakeMode::Coarse`]).
fn schedules_cover_air(field: &LinkField, decode: &Graph, network_of: &[u32]) -> bool {
    (0..field.len()).all(|u| {
        let tx = NodeId::new(u);
        field.receivers(tx).iter().all(|&(rx, _)| {
            network_of[u] == network_of[rx.index()] && decode.neighbors(tx).contains(&rx)
        })
    })
}

/// The run's results in canonical order: node stats in global node
/// order, packet records sorted by `(created, packet id)` — creation
/// order with ties in node order, since same-instant `Generate`s fire
/// in node order and ids sort by (origin, per-origin counter).
fn collect_results(shared: &Shared, run: RunState) -> (Vec<NodeStats>, Vec<PacketRecord>) {
    let RunState {
        mut nodes,
        deliveries,
        ..
    } = run;
    let mut records: Vec<PacketRecord> = Vec::new();
    let per_node: Vec<NodeStats> = nodes
        .iter_mut()
        .enumerate()
        .map(|(u, st)| {
            records.append(&mut st.records);
            NodeStats {
                node: NodeId::new(u),
                depth: shared.depth[u],
                breakdown: st.ledger.breakdown(),
                busy: st.ledger.busy_time(),
                counters: st.counters,
                mean_sinr_db: (st.sinr_decoded > 0)
                    .then(|| st.sinr_db_sum / st.sinr_decoded as f64),
            }
        })
        .collect();
    records.sort_by_key(|r| (r.created, r.id.0));
    for r in &mut records {
        if let Some(&(t, hops)) = deliveries.get(&r.id.0) {
            r.delivered = Some(t);
            r.hops = hops;
        }
    }
    (per_node, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LmacSim, XmacSim};
    use crate::PacketId;

    fn tiny_config() -> SimConfig {
        SimConfig {
            duration: Seconds::new(60.0),
            sample_period: Seconds::new(10.0),
            warmup: Seconds::ZERO,
            seed: 1,
            scheduling: WakeMode::Coarse,
        }
    }

    #[test]
    fn ring_builder_counts_nodes() {
        let sim = Simulation::ring(
            2,
            4,
            &XmacSim::new(Seconds::from_millis(100.0)),
            tiny_config(),
        )
        .unwrap();
        assert_eq!(sim.node_count(), 1 + 4 * 4);
    }

    #[test]
    fn with_traffic_validates_profiles() {
        let build = || {
            Simulation::ring(
                2,
                4,
                &XmacSim::new(Seconds::from_millis(100.0)),
                tiny_config(),
            )
            .unwrap()
        };
        let n = build().node_count();
        // Wrong length.
        assert!(build()
            .with_traffic(TrafficProfile::uniform(n - 1, Seconds::new(10.0)))
            .is_err());
        // Non-positive period at a non-sink node.
        let mut bad = TrafficProfile::uniform(n, Seconds::new(10.0));
        bad.periods[1] = Seconds::ZERO;
        assert!(build().with_traffic(bad).is_err());
        // The sink's entry is ignored, as documented.
        let mut sink_zero = TrafficProfile::uniform(n, Seconds::new(10.0));
        sink_zero.periods[0] = Seconds::ZERO;
        assert!(build().with_traffic(sink_zero).is_ok());
        // Degenerate burst windows must be rejected, valid ones kept.
        for factor in [0.0, -2.0, f64::NAN] {
            let burst = TrafficProfile::uniform(n, Seconds::new(10.0)).with_bursts(BurstWindows {
                every: Seconds::new(30.0),
                duration: Seconds::new(5.0),
                factor,
            });
            assert!(build().with_traffic(burst).is_err(), "factor {factor}");
        }
        let ok = TrafficProfile::uniform(n, Seconds::new(10.0)).with_bursts(BurstWindows {
            every: Seconds::new(30.0),
            duration: Seconds::new(5.0),
            factor: 4.0,
        });
        assert!(build().with_traffic(ok).is_ok());
    }

    #[test]
    fn lmac_rejects_undersized_frames() {
        let cfg = tiny_config();
        let protocol = LmacSim {
            slot: Seconds::from_millis(10.0),
            frame_slots: 2, // far below any 2-hop neighborhood
        };
        assert!(matches!(
            Simulation::ring(2, 4, &protocol, cfg),
            Err(NetError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                seed,
                scheduling: WakeMode::Coarse,
                ..tiny_config()
            };
            Simulation::ring(2, 4, &XmacSim::new(Seconds::from_millis(80.0)), cfg)
                .unwrap()
                .run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.delivery_ratio(), b.delivery_ratio());
        assert_eq!(a.delivered_count(), b.delivered_count());
        let ea: Vec<f64> = a
            .per_node()
            .iter()
            .map(|s| s.breakdown.total().value())
            .collect();
        let eb: Vec<f64> = b
            .per_node()
            .iter()
            .map(|s| s.breakdown.total().value())
            .collect();
        assert_eq!(ea, eb, "energy accounting must be bit-identical");
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                seed,
                scheduling: WakeMode::Coarse,
                ..tiny_config()
            };
            Simulation::ring(2, 4, &XmacSim::new(Seconds::from_millis(80.0)), cfg)
                .unwrap()
                .run()
        };
        let a = run(1);
        let b = run(2);
        // Phases differ, so per-node energies will not be identical.
        let ea: Vec<f64> = a
            .per_node()
            .iter()
            .map(|s| s.breakdown.total().value())
            .collect();
        let eb: Vec<f64> = b
            .per_node()
            .iter()
            .map(|s| s.breakdown.total().value())
            .collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn energy_is_conserved_over_the_horizon() {
        // Every node's charged time (busy + sleep) must equal the run
        // duration exactly.
        let cfg = tiny_config();
        let report = Simulation::ring(2, 4, &XmacSim::new(Seconds::from_millis(100.0)), cfg)
            .unwrap()
            .run();
        for stats in report.per_node() {
            let sleep_time = stats.breakdown.sleep.value() / Radio::cc2420().power.sleep.value();
            let total = stats.busy.value() + sleep_time;
            assert!(
                (total - cfg.duration.value()).abs() < 1e-6,
                "node {} accounted {total} s of {} s",
                stats.node,
                cfg.duration.value()
            );
        }
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

    #[derive(Debug)]
    struct ProbeSim {
        /// Node index (within each network) that claims to hold packets.
        holder: Option<usize>,
        talker: Option<usize>,
        log: Log,
    }

    impl SimProtocol for ProbeSim {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn build_nodes(
            &self,
            graph: &Graph,
            _: &RoutingTree,
            _: &SimConfig,
        ) -> Result<Vec<Box<dyn MacNode>>, NetError> {
            Ok(graph
                .nodes()
                .map(|u| {
                    Box::new(Probe {
                        holds: self.holder == Some(u.index()),
                        talker: self.talker == Some(u.index()),
                        log: self.log.clone(),
                    }) as Box<dyn MacNode>
                })
                .collect())
        }
    }

    /// Runs probes on a 2×4 ring (`networks` copies side by side) and
    /// returns what they saw plus every sample instant.
    fn probe_run(
        holder: Option<usize>,
        talker: Option<usize>,
        scheduling: WakeMode,
        networks: usize,
    ) -> (Vec<Seen>, Vec<SimTime>) {
        let log = Log::default();
        let protocol = ProbeSim {
            holder,
            talker,
            log: log.clone(),
        };
        let cfg = SimConfig {
            duration: Seconds::new(20.0),
            sample_period: Seconds::new(6.0),
            scheduling,
            ..tiny_config()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let ring = Topology::ring_model(2, 4, &mut rng).expect("buildable ring");
        let rings: Vec<Topology> = (0..networks)
            .map(|k| ring.translated(100.0 * k as f64, 0.0))
            .collect();
        let nets: Vec<CoexNetwork<'_>> = rings
            .iter()
            .map(|topology| CoexNetwork {
                topology,
                protocol: &protocol,
            })
            .collect();
        let sim = Simulation::new(
            &nets,
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            cfg,
        )
        .expect("buildable probe run");
        drop(sim.run());
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
}
