//! The run state and the loop that advances it. [`Shared`] is the
//! read-only world. [`RunState`] owns the node arena (indexed by global
//! node id), the event scheduler and the wake schedule (two binary
//! heaps, [`HeapQueue`]), the transmissions on the air and the quiet
//! ledger. The [`Engine`] holds both, with the protocol machines beside
//! the run state, and dispatches every wake and event.
//!
//! Every piece of mutable run state — RNG stream, timer ids, transmit
//! sequence numbers, packet ids, event sequence numbers, packet records
//! — is per-node, and every queue tie-break is on the
//! `(time, causal round, node order, sequence)` key ([`OrderKey`]): a
//! node's draws depend only on its own events, and simultaneous events
//! run in key order, never insertion order.

use super::clock::{IdleWake, Shape, WakeClock};
use super::ctx::Ctx;
use super::{node_stream, RunStats, SimConfig, TrafficProfile, WakeMode};
use crate::events::{AirSlab, Event};
use crate::frame::{Frame, FrameCounters, FrameKind, Packet, PacketId};
use crate::protocols::MacNode;
use crate::queue::{HeapQueue, OrderKey};
use crate::report::PacketRecord;
use crate::time::SimTime;
use edmac_net::NodeId;
use edmac_phy::{InterferenceTally, LinkField, SinrParams};
use edmac_radio::{Cause, EnergyLedger, FrameSizes, Mode, Radio};
use edmac_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-node radio bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(super) struct RadioState {
    pub(super) mode: Mode,
    pub(super) since: SimTime,
    pub(super) cause: Cause,
    /// Invalidates in-flight `RadioReady` events after `sleep()`.
    pub(super) startup_token: u64,
}

/// An in-progress reception.
#[derive(Debug, Clone)]
pub(super) struct ActiveRx {
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

/// All mutable state of one node, stored in the run's arena.
///
/// Timer ids, tx sequence numbers, packet ids, the event sequence and
/// the RNG live here, keyed or seeded by the node's global index, so
/// what a node draws and mints depends only on its own events.
#[derive(Debug)]
pub(super) struct NodeState {
    pub(super) radio: RadioState,
    pub(super) ledger: EnergyLedger,
    pub(super) active_rx: Option<ActiveRx>,
    /// Frames on the air here and their total power: the count is the
    /// CCA primitive, the power is read only with capture on.
    pub(super) tally: InterferenceTally,
    /// Sum of per-decode SINRs in dB and the number of decodes behind
    /// it (capture on only) — feeds `NodeStats::mean_sinr_db`.
    pub(super) sinr_db_sum: f64,
    pub(super) sinr_decoded: u64,
    pub(super) counters: FrameCounters,
    pub(super) rng: StdRng,
    /// The currently registered wake `(time, token)`; queue entries
    /// that no longer match are stale and skipped on pop.
    wake_current: Option<(SimTime, u64)>,
    wake_token: u64,
    pub(super) next_timer: u64,
    pub(super) next_tx: u64,
    next_packet: u64,
    next_event_seq: u64,
    /// Timers set and not yet popped, cancelled or not.
    pub(super) pending_timers: u32,
    /// Ids of pending timers cancelled through [`Ctx::cancel_timer`]:
    /// a handful at most, so a scan beats hashing. Emptied whenever no
    /// timer is pending (any id left then is of a timer already gone).
    pub(super) cancelled_timers: Vec<u64>,
    /// The node's last answer to [`MacNode::holds_packets`] (quiet
    /// bookkeeping only).
    pub(super) holds: bool,
    /// Whether the frame this node has on the air carries a packet.
    pub(super) tx_carries_packet: bool,
    /// The wake clock registered at start, with the wakes the node owes.
    pub(super) clock: Option<WakeClock>,
    /// Records of packets *originating* here, in creation order: the
    /// packet with id `(node << 32) | k` is `records[k]`, because
    /// `Generate` mints the id and pushes the record together.
    pub(super) records: Vec<PacketRecord>,
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
            counters: FrameCounters::default(),
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
            clock: None,
            records: Vec::new(),
        }
    }

    fn charge_current(&mut self, now: SimTime) {
        let state = self.radio;
        let elapsed = now.nanos_since(state.since);
        let cause = if state.mode == Mode::Sleep {
            Cause::Sleep
        } else {
            state.cause
        };
        self.ledger.charge(state.mode, cause, elapsed);
    }

    pub(super) fn set_mode(&mut self, now: SimTime, mode: Mode, cause: Cause) {
        self.charge_current(now);
        self.radio.mode = mode;
        self.radio.since = now;
        self.radio.cause = cause;
    }

    /// Charges, in one step, the wakes `node` owes that are due by `now`
    /// ([`Ctx::owe_wakes`]) and returns how many: each a radio startup,
    /// what its idle shape did once the radio was up, then sleep.
    ///
    /// The ledger keeps integer nanoseconds per bucket, so the charges
    /// need not come in the dense run's pieces or order, only in its
    /// totals. Every wake before the last is charged whole, by count per
    /// shape, and sleep is the rest of the span up to the last wake.
    /// Only the last wake can cross the horizon; its pieces are clamped
    /// the way the dense end-of-run flush clamps them, and its frame
    /// counted iff the dense run's event for it (the send at radio-up,
    /// the reception at its last bit) lands inside the horizon.
    ///
    /// # Panics
    ///
    /// Panics if the radio was up at a due owed wake, or if a wake of
    /// the run can reach the next, judged from the run's first gap,
    /// which must be its shortest up to the few nanoseconds by which
    /// rounded clock instants jitter (checked wake by wake in debug
    /// builds). The dense scheduler would find the node still awake at
    /// such a wake: a protocol must not elide a wake it is awake across.
    pub(super) fn charge_owed(&mut self, shared: &Shared, node: NodeId, now: SimTime) -> u64 {
        let Some(clock) = &mut self.clock else {
            return 0;
        };
        let (radio, ledger, counters) = (&mut self.radio, &mut self.ledger, &mut self.counters);
        let (first, due) = (clock.owed.start, clock.due_end(now));
        if first == due {
            return 0;
        }
        assert!(
            radio.mode == Mode::Sleep && clock.at(first) >= radio.since,
            "node {node}: owed wake {first} fell while the radio was up"
        );
        let last = due - 1;
        let longest = clock.shapes.iter().map(|s| s.active_ns).max().unwrap_or(0);
        let gap = |k: u64| clock.at(k + 1).nanos_since(clock.at(k));
        assert!(
            first == last || gap(first) >= longest + GAP_SLACK_NS,
            "node {node}: an owed wake of {longest} ns reaches the next"
        );
        debug_assert!(
            (first..last).all(|k| gap(k) >= clock.shapes[clock.shape_of(k)].active_ns),
            "node {node}: an owed wake reaches the next"
        );
        // Charges `startup` and then `up` nanoseconds of idle wakes of
        // `shape`, and counts `frames` of its frame.
        let mut charge = |shape: &Shape, startup: u64, up: u64, frames: u64| {
            ledger.charge(Mode::Startup, shape.cause, startup);
            let (mode, cause) = match shape.wake {
                IdleWake::Listen(_) => (Mode::Listen, shape.cause),
                IdleWake::Receive(kind) => {
                    counters.record_rx(kind, frames);
                    (Mode::Rx, kind.rx_cause(false))
                }
                IdleWake::Transmit(kind) => {
                    counters.record_tx(kind, frames);
                    (Mode::Tx, kind.tx_cause())
                }
            };
            ledger.charge(mode, cause, up);
        };
        let (end, startup) = (shared.end.as_nanos(), shared.startup_ns);
        let mut busy = 0;
        for (s, shape) in clock.shapes.iter().enumerate() {
            let n = clock.count(s, first..last);
            busy += n * shape.active_ns;
            charge(shape, n * startup, n * (shape.active_ns - startup), n);
        }
        let (at, shape) = (
            clock.at(last).as_nanos(),
            &clock.shapes[clock.shape_of(last)],
        );
        let (woke, ready, stop) = (at.min(end), at + startup, at + shape.active_ns);
        // The dense run counts a frame at its event: the send at
        // radio-up, the reception at its last bit (the frame starts the
        // instant the radio is up, as sender and receiver share the
        // wake lead).
        let counted = match shape.wake {
            IdleWake::Listen(_) => false,
            IdleWake::Receive(_) => stop <= end,
            IdleWake::Transmit(_) => ready <= end,
        };
        let up = stop.min(end) - ready.min(end);
        charge(shape, ready.min(end) - woke, up, u64::from(counted));
        let slept = woke - radio.since.as_nanos() - busy;
        ledger.charge(Mode::Sleep, Cause::Sleep, slept);
        clock.owed.start = due;
        radio.since = SimTime::from_nanos(stop.min(end));
        due - first
    }
}

/// Nanoseconds of slack in [`NodeState::charge_owed`]'s check that a
/// run's wakes cannot reach one another: clock wakes are instants
/// `offset + k·period` rounded to whole nanoseconds, so two of their
/// gaps differ by a nanosecond or two at most.
const GAP_SLACK_NS: u64 = 4;

/// The read-only world of a run: topology, routing, radio hardware and
/// configuration.
#[derive(Debug)]
pub(super) struct Shared {
    pub(super) end: SimTime,
    pub(super) radio_hw: Radio,
    pub(super) frames: FrameSizes,
    /// The realized channel. Its receivers are the *air* adjacency
    /// (everyone who registers a transmission, with the power it
    /// receives), a superset of the decode graph routing was built
    /// over: every one of them gets the frame's air batches.
    pub(super) field: LinkField,
    /// How receptions are judged.
    pub(super) params: SinrParams,
    pub(super) parent: Vec<Option<NodeId>>,
    pub(super) depth: Vec<usize>,
    /// The network each node belongs to (all 0 in a single-network
    /// build). Frames decode across networks — the radio cannot know
    /// better — but `on_frame` only fires for same-network traffic,
    /// the PAN-filter every real MAC applies before its state machine.
    pub(super) network_of: Vec<u32>,
    /// One sink per network, indexed by network id.
    pub(super) sinks: Vec<NodeId>,
    /// Each network's deepest hop distance, indexed by network id.
    pub(super) max_depths: Vec<usize>,
    /// The run configuration, with the wake mode that actually runs.
    pub(super) config: SimConfig,
    /// `true` when the engine may leave sleeping receivers out of a
    /// transmission's air batches (decided by
    /// [`Simulation::new`](super::Simulation::new)).
    pub(super) elide_sleepers: bool,
    /// Per-node traffic overriding [`SimConfig::sample_period`].
    pub(super) traffic: Option<TrafficProfile>,
    /// The exact engine delta of a radio startup, in nanoseconds.
    pub(super) startup_ns: u64,
    /// The exact engine delta of each frame kind's airtime, in
    /// nanoseconds, indexed by [`FrameKind::index`].
    pub(super) airtime_ns: [u64; FrameKind::ALL.len()],
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
    pub(super) fn frame_end(&self, at: SimTime, kind: FrameKind) -> SimTime {
        SimTime::from_nanos(at.as_nanos() + self.airtime_ns[kind.index()])
    }

    /// The network `node` belongs to (0 in a single-network build).
    pub(super) fn network(&self, node: NodeId) -> usize {
        self.network_of[node.index()] as usize
    }

    /// Whether `node` is the sink of its own network.
    pub(super) fn is_sink(&self, node: NodeId) -> bool {
        self.sinks[self.network(node)] == node
    }
}

/// The run's complete mutable state apart from the protocol machines:
/// the node arena, indexed by global node id, the event and wake
/// queues, and the transmissions on the air.
#[derive(Debug)]
pub(super) struct RunState {
    pub(super) now: SimTime,
    pub(super) events: HeapQueue<Event>,
    wakes: HeapQueue<()>,
    pub(super) nodes: Vec<NodeState>,
    /// The transmissions the queued air batches name.
    pub(super) air: AirSlab,
    /// The quiet-network bookkeeping; `None` (and [`Ctx::quiet_until`]
    /// always `now`) unless the run is one network under
    /// [`WakeMode::Coarse`].
    pub(super) quiet: Option<Quiet>,
    /// The work the run has done so far.
    pub(super) stats: RunStats,
}

/// What the quiet bounds need to know: per hop depth for
/// [`Ctx::quiet_until`], per routing subtree for
/// [`Ctx::subtree_free_until`].
#[derive(Debug)]
pub(super) struct Quiet {
    pub(super) depths: Vec<QuietLedger>,
    pub(super) subtrees: SubtreeLedger,
}

/// What [`Ctx::quiet_until`] needs to know about the nodes at one hop
/// depth.
#[derive(Debug, Default)]
pub(super) struct QuietLedger {
    /// Nodes whose last [`MacNode::holds_packets`] answer was `true`.
    pub(super) holders: usize,
    /// Frames on the air, sent from this depth, that carry a packet.
    pub(super) packet_air: usize,
    /// The time of every pending `Generate` (one per non-sink node).
    pub(super) generates: BinaryHeap<Reverse<SimTime>>,
}

/// What [`Ctx::subtree_free_until`] needs to know about each routing
/// subtree: a few words per node.
#[derive(Debug)]
pub(super) struct SubtreeLedger {
    /// Each node's position in an order of the routing tree in which
    /// its subtree is the `size` positions from there on.
    pos: Vec<u32>,
    size: Vec<u32>,
    /// Per node, the holders in its subtree plus the packet-carrying
    /// frames its subtree has on the air.
    busy: Vec<u32>,
    /// A min-tree over every node's pending sample instant (never, at
    /// a sink): node `n + pos` is a leaf, node `i < n` the earlier of
    /// nodes `2i` and `2i + 1`.
    samples: Vec<SimTime>,
}

impl SubtreeLedger {
    /// The ledger of the routing forest `parent` (`depth` each node's
    /// hop distance from its root), every node counted as a holder and
    /// no sample pending.
    fn new(parent: &[Option<NodeId>], depth: &[usize]) -> SubtreeLedger {
        let n = parent.len();
        let mut by_depth: Vec<usize> = (0..n).collect();
        by_depth.sort_by_key(|&v| depth[v]);
        // Sizes accumulate bottom-up, children before their parents.
        let mut size = vec![1u32; n];
        for &v in by_depth.iter().rev() {
            if let Some(p) = parent[v] {
                size[p.index()] += size[v];
            }
        }
        // Top-down, each subtree takes the next free range inside its
        // parent's (`free[p]`), right after the parent itself.
        let (mut pos, mut free) = (vec![0u32; n], vec![0u32; n]);
        let mut roots_free = 0;
        for &v in &by_depth {
            let next = parent[v].map_or(&mut roots_free, |p| &mut free[p.index()]);
            pos[v] = *next;
            *next += size[v];
            free[v] = pos[v] + 1;
        }
        SubtreeLedger {
            pos,
            busy: size.clone(),
            size,
            samples: vec![SimTime::from_nanos(u64::MAX); 2 * n],
        }
    }

    /// Counts one more (`up`) or one fewer holder or packet frame at
    /// `node`, in its subtree and every subtree above it.
    fn count(&mut self, parent: &[Option<NodeId>], node: NodeId, up: bool) {
        let mut at = Some(node);
        while let Some(v) = at {
            let busy = &mut self.busy[v.index()];
            *busy = if up { *busy + 1 } else { *busy - 1 };
            at = parent[v.index()];
        }
    }

    /// Records `node`'s pending sample instant.
    fn set_sample(&mut self, node: NodeId, at: SimTime) {
        let mut i = self.pos.len() + self.pos[node.index()] as usize;
        self.samples[i] = at;
        while i > 1 {
            i /= 2;
            self.samples[i] = self.samples[2 * i].min(self.samples[2 * i + 1]);
        }
    }

    /// `node`'s pending sample instant.
    pub(super) fn sample(&self, node: NodeId) -> SimTime {
        self.samples[self.pos.len() + self.pos[node.index()] as usize]
    }

    /// Whether `node`'s subtree holds a packet or has one on the air.
    pub(super) fn busy(&self, node: NodeId) -> bool {
        self.busy[node.index()] > 0
    }

    /// The earliest pending sample instant in `node`'s subtree.
    pub(super) fn earliest_sample(&self, node: NodeId) -> SimTime {
        let n = self.pos.len();
        let mut lo = n + self.pos[node.index()] as usize;
        let mut hi = lo + self.size[node.index()] as usize;
        let mut earliest = SimTime::from_nanos(u64::MAX);
        while lo < hi {
            if lo % 2 == 1 {
                earliest = earliest.min(self.samples[lo]);
                lo += 1;
            }
            if hi % 2 == 1 {
                hi -= 1;
                earliest = earliest.min(self.samples[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        earliest
    }
}

impl RunState {
    /// A fresh run over `n` global nodes.
    fn new(shared: &Shared, n: usize) -> RunState {
        let nodes: Vec<NodeState> = (0..n)
            .map(|u| NodeState::new(&shared.radio_hw, shared.config.seed, u))
            .collect();
        // Quiet replay leans on whole-network knowledge (every holder,
        // every pending sample); a second network's traffic is unknown
        // to this one's schedule.
        let track_quiet = shared.sinks.len() == 1 && shared.config.scheduling == WakeMode::Coarse;
        let quiet = track_quiet.then(|| {
            let mut depths: Vec<QuietLedger> = (0..=shared.max_depths[0])
                .map(|_| QuietLedger::default())
                .collect();
            // Every node starts out counted as a holder.
            for &d in &shared.depth {
                depths[d].holders += 1;
            }
            Quiet {
                depths,
                subtrees: SubtreeLedger::new(&shared.parent, &shared.depth),
            }
        });
        RunState {
            now: SimTime::ZERO,
            events: HeapQueue::new(),
            wakes: HeapQueue::new(),
            quiet,
            nodes,
            air: AirSlab::default(),
            stats: RunStats::default(),
        }
    }

    /// Counts one more (`up`) or one fewer packet-carrying frame on the
    /// air from `node`.
    pub(super) fn count_packet_air(&mut self, shared: &Shared, node: NodeId, up: bool) {
        if let Some(quiet) = &mut self.quiet {
            let air = &mut quiet.depths[shared.depth[node.index()]].packet_air;
            *air = if up { *air + 1 } else { *air - 1 };
            quiet.subtrees.count(&shared.parent, node, up);
        }
    }

    /// Mints the next ordering key of `node`. `round` is the
    /// same-instant causal depth ([`OrderKey::round`]); entries for
    /// future instants always pass 0.
    pub(super) fn key_for(&mut self, node: NodeId, at: SimTime, round: u32) -> OrderKey {
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

    /// Schedules `node`'s next application sample at `at`; `depth` is
    /// the node's hop depth.
    fn schedule_generate(&mut self, node: NodeId, depth: usize, at: SimTime, round: u32) {
        let key = self.key_for(node, at, round);
        self.events.schedule(key, Event::Generate { node });
        if let Some(quiet) = &mut self.quiet {
            quiet.depths[depth].generates.push(Reverse(at));
            quiet.subtrees.set_sample(node, at);
        }
    }

    /// Records whether `node` now holds packets.
    fn note_holds(&mut self, shared: &Shared, node: NodeId, holds: bool) {
        let st = &mut self.nodes[node.index()];
        if st.holds == holds {
            return;
        }
        st.holds = holds;
        if let Some(quiet) = &mut self.quiet {
            let holders = &mut quiet.depths[shared.depth[node.index()]].holders;
            *holders = if holds { *holders + 1 } else { *holders - 1 };
            quiet.subtrees.count(&shared.parent, node, holds);
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

/// A run in progress: the shared world and the run state, with the
/// protocol machines, one per global node, kept beside the run state so
/// a callback borrows its machine and, through its [`Ctx`], the run
/// state separately.
struct Engine<'a> {
    shared: &'a Shared,
    run: RunState,
    machines: &'a mut [Box<dyn MacNode>],
}

/// Runs `machines`, one per global node, from the first sample to the
/// horizon and returns the final node arena and the work done.
pub(super) fn execute(
    shared: &Shared,
    machines: &mut [Box<dyn MacNode>],
) -> (Vec<NodeState>, RunStats) {
    let run = RunState::new(shared, machines.len());
    let mut engine = Engine {
        shared,
        run,
        machines,
    };
    engine.seed_and_start();
    engine.advance();
    engine.finish();
    (engine.run.nodes, engine.run.stats)
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
            st.active_rx = Some(ActiveRx {
                tx_seq,
                corrupted: false,
                signal_mw: power_mw,
                min_sinr: sinr,
                overlapped,
            });
        }
    }
}

/// A frame's last bit leaves the air at `node`, which was receiving it
/// at `power_mw`. Returns `true` on a clean decode of a same-network
/// frame, whose `on_frame` the caller then runs.
fn air_end(
    shared: &Shared,
    st: &mut NodeState,
    now: SimTime,
    node: NodeId,
    tx_seq: u64,
    frame: &Frame,
    power_mw: f64,
) -> bool {
    st.tally.remove(power_mw);
    let Some(rx) = st.active_rx.as_ref().filter(|rx| rx.tx_seq == tx_seq) else {
        return false;
    };
    let (corrupted, min_sinr, overlapped) = (rx.corrupted, rx.min_sinr, rx.overlapped);
    st.active_rx = None;
    // Back to plain listening; the node decides what happens next.
    st.set_mode(now, Mode::Listen, Cause::CarrierSense);
    if corrupted {
        st.counters.record_collision();
        return false;
    }
    st.counters.record_rx(frame.kind, 1);
    if overlapped {
        st.counters.record_captured();
    }
    // Only capture-on decodes carry a SINR sample: the one case where
    // SINR decides a decode.
    if min_sinr.is_finite() {
        st.sinr_db_sum += 10.0 * min_sinr.log10();
        st.sinr_decoded += 1;
    }
    // Cross-network frames decode at the radio but never reach the MAC
    // state machine (PAN filter).
    shared.network(frame.src) == shared.network(node)
}

impl Engine<'_> {
    /// Runs a callback of `node`'s machine, then records whether the
    /// node holds packets (quiet bookkeeping) and re-queries and
    /// re-registers its wake. `round` is the causal round the handler's
    /// same-instant scheduling inherits (the triggering entry's round
    /// plus one).
    fn with_node<F>(&mut self, node: NodeId, round: u32, f: F)
    where
        F: FnOnce(&mut dyn MacNode, &mut Ctx<'_>),
    {
        let machine = self.machines[node.index()].as_mut();
        let mut ctx = Ctx {
            shared: self.shared,
            run: &mut self.run,
            node,
            round,
        };
        f(machine, &mut ctx);
        if ctx.run.quiet.is_some() {
            ctx.run
                .note_holds(self.shared, node, machine.holds_packets());
        }
        let want = machine.next_activity(&mut ctx);
        self.run.register_wake(node, want);
    }

    /// Delivers one event, queued under `key`, to the run state and the
    /// destination nodes. Same-instant follow-ups land in the causal
    /// round after the event's own.
    fn dispatch(&mut self, key: OrderKey, event: Event) {
        let (shared, round) = (self.shared, key.round + 1);
        match event {
            Event::Generate { node } => {
                let run = &mut self.run;
                let now = run.now;
                let depth = shared.depth[node.index()];
                if let Some(quiet) = &mut run.quiet {
                    let popped = quiet.depths[depth].generates.pop();
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
                    origin_depth: depth,
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
                run.schedule_generate(node, depth, next, r);
                self.with_node(node, round, |n, ctx| n.on_generate(ctx, packet));
            }
            Event::Timer { node, id, tag } => {
                let st = &mut self.run.nodes[node.index()];
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
                self.with_node(node, round, |n, ctx| n.on_timer(ctx, tag, id));
            }
            Event::RadioReady { node, token } => {
                let now = self.run.now;
                let st = &mut self.run.nodes[node.index()];
                if st.radio.startup_token != token || st.radio.mode != Mode::Startup {
                    return; // stale: the node went back to sleep
                }
                let cause = st.radio.cause;
                st.set_mode(now, Mode::Listen, cause);
                self.with_node(node, round, |n, ctx| n.on_radio_ready(ctx));
            }
            Event::AirStart { tx } => {
                let run = &mut self.run;
                let now = run.now;
                let rec = &run.air[tx];
                let links = shared.field.receivers(rec.frame.src);
                for &i in &rec.receivers {
                    let (node, power_mw) = links[i as usize];
                    let st = &mut run.nodes[node.index()];
                    air_start(shared, st, now, node, rec.tx_seq, &rec.frame, power_mw);
                }
            }
            Event::AirEnd { tx } => {
                let now = self.run.now;
                let rec = &mut self.run.air[tx];
                let (tx_seq, frame) = (rec.tx_seq, rec.frame);
                let mut receivers = std::mem::take(&mut rec.receivers);
                let links = shared.field.receivers(frame.src);
                for (j, &i) in receivers.iter().enumerate() {
                    let (node, power_mw) = links[i as usize];
                    let st = &mut self.run.nodes[node.index()];
                    if air_end(shared, st, now, node, tx_seq, &frame, power_mw) {
                        self.with_node(node, round, |n, ctx| n.on_frame(ctx, &frame));
                    }
                    // Wakes win ties: a wake this receiver's handler
                    // registered at `now` fires before the next receiver's
                    // `AirEnd`, so the rest of the batch goes back under its
                    // key (no other entry sorts between the two).
                    let wake_due = self.run.nodes[node.index()]
                        .wake_current
                        .is_some_and(|(t, _)| t <= now);
                    if wake_due && j + 1 < receivers.len() {
                        receivers.drain(..=j);
                        self.run.air[tx].receivers = receivers;
                        self.run.events.schedule(key, Event::AirEnd { tx });
                        return;
                    }
                }
                self.run.air.release(tx, receivers);
            }
            Event::TxDone { node } => {
                let run = &mut self.run;
                let now = run.now;
                let st = &mut run.nodes[node.index()];
                debug_assert_eq!(st.radio.mode, Mode::Tx);
                st.set_mode(now, Mode::Listen, Cause::CarrierSense);
                if std::mem::take(&mut st.tx_carries_packet) {
                    run.count_packet_air(shared, node, false);
                }
                self.with_node(node, round, |n, ctx| n.on_tx_done(ctx));
            }
        }
    }

    /// Runs the simulation to the horizon, interleaving queued events with
    /// the per-node wake schedule: ties go to wakes (the dense scheduler's
    /// boundary timers always carried the earliest sequence numbers),
    /// simultaneous wakes fire in node order.
    fn advance(&mut self) {
        let end = self.shared.end;
        loop {
            let wake = self.run.peek_wake();
            let event = self.run.events.peek_key();
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
                self.run.wakes.pop();
                let node = NodeId::new(key.node as usize);
                self.run.nodes[node.index()].wake_current = None;
                self.run.now = key.at;
                self.run.stats.wakes_fired += 1;
                // Wakes carry round 0 and all fire before any event at the
                // same instant, so their same-instant follow-ups land in
                // round 1 — after every already-pending event.
                self.with_node(node, 1, |n, ctx| n.on_wake(ctx));
            } else {
                let key = event.expect("chosen branch has an event");
                if key.at > end {
                    break;
                }
                let (_, ev) = self.run.events.pop().expect("peeked event exists");
                self.run.now = key.at;
                self.dispatch(key, ev);
            }
        }
    }

    /// Seeds periodic traffic (random initial phases from each node's own
    /// stream) and starts every node.
    fn seed_and_start(&mut self) {
        let (shared, run) = (self.shared, &mut self.run);
        for i in 0..run.nodes.len() {
            let node = NodeId::new(i);
            if shared.is_sink(node) {
                continue;
            }
            let period = shared.sample_period(SimTime::ZERO, node);
            let phase = run.nodes[i].rng.gen_range(0.0..period.value());
            let at = SimTime::from_seconds(Seconds::new(phase));
            run.schedule_generate(node, shared.depth[i], at, 0);
        }
        for i in 0..self.machines.len() {
            self.with_node(NodeId::new(i), 1, |n, ctx| n.start(ctx));
        }
    }

    /// Horizon phase: charge the owed wakes due by the horizon, then
    /// flush residual mode time.
    ///
    /// # Panics
    ///
    /// Panics unless every node's ledger then holds exactly the horizon
    /// in nanoseconds: each instant of the run charged once, whether
    /// simulated or replayed.
    fn finish(&mut self) {
        let end = self.shared.end;
        self.run.now = end;
        for (u, st) in self.run.nodes.iter_mut().enumerate() {
            self.run.stats.wakes_replayed += st.charge_owed(self.shared, NodeId::new(u), end);
            st.charge_current(end);
            st.radio.since = end;
            let charged = st.ledger.charged_nanos();
            assert_eq!(
                charged,
                end.as_nanos(),
                "node {u} charged {charged} ns of a {} ns run",
                end.as_nanos()
            );
        }
    }
}
