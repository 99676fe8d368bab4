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
use std::ops::Range;

/// What the radio did in a wake replayed through
/// [`Ctx::replay_idle_wakes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleWake {
    /// Started up, then listened to silence until this many
    /// nanoseconds after the wake (the startup included), then slept.
    /// Listening is one ledger bucket, so where a protocol re-labels
    /// its listen mid-wake (DMAC's transmit slot) makes no difference.
    Listen(u64),
    /// Received one frame of this kind, addressed elsewhere, starting
    /// the instant the radio was up, then slept (LMAC's heartbeat from
    /// a slot owner).
    Receive(FrameKind),
    /// Transmitted one frame of this kind the instant the radio was up,
    /// then slept (LMAC's own-slot heartbeat).
    Transmit(FrameKind),
}

/// Nanoseconds of slack in [`Ctx::replay_idle_wakes`]'s check that a
/// run's wakes cannot reach one another: clock wakes are instants
/// `base + k·period` rounded to whole nanoseconds, so two of their gaps
/// differ by a nanosecond or two at most.
const GAP_SLACK_NS: u64 = 4;

/// The first `k >= from` for which `pred` fails, where `pred` holds on
/// every index from `from` up to some point and fails from there on.
///
/// `guess` is a closed-form estimate of the answer (a clock's
/// `(t − phase) / period`). It is corrected against `pred` itself, by
/// galloping away from it and bisecting, so the answer is the one a
/// scan from `from` would give whatever the rounding of the estimate.
/// A good estimate costs two evaluations.
pub(crate) fn first_failing(from: u64, guess: f64, pred: impl Fn(u64) -> bool) -> u64 {
    let k = if guess > from as f64 {
        guess.ceil() as u64
    } else {
        from
    };
    // Bracket the answer in `lo..=hi`: `pred` holds below `lo` (down to
    // `from`) and fails at `hi`.
    let (mut lo, mut hi) = if pred(k) {
        let (mut lo, mut step) = (k + 1, 1);
        loop {
            let probe = lo + step - 1;
            if !pred(probe) {
                break (lo, probe);
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        let (mut hi, mut step) = (k, 1);
        loop {
            if hi == from {
                break (from, from);
            }
            let probe = hi.saturating_sub(step).max(from);
            if pred(probe) {
                break (probe + 1, hi);
            }
            hi = probe;
            step *= 2;
        }
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Charges `nanos` of what the radio did in wakes of `shape` once it
/// was up, listening charged to `cause`, and counts `frames` of the
/// shape's frame.
fn charge_piece(st: &mut NodeState, shape: IdleWake, cause: Cause, nanos: u64, frames: u64) {
    let (mode, cause) = match shape {
        IdleWake::Listen(_) => (Mode::Listen, cause),
        IdleWake::Receive(kind) => {
            st.counters.record_rx(kind, frames);
            (Mode::Rx, kind.rx_cause(false))
        }
        IdleWake::Transmit(kind) => {
            st.counters.record_tx(kind, frames);
            (Mode::Tx, kind.tx_cause())
        }
    };
    st.ledger.charge(mode, cause, nanos);
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

    /// The instant up to which no frame can reach this node's radio:
    /// with `d` this node's hop depth, the earliest pending application
    /// sample (capped at the horizon) at depths `d − 1` and deeper while
    /// no node at those depths [holds packets](super::MacNode::holds_packets)
    /// or has a packet-carrying frame on the air, and `now` otherwise.
    ///
    /// This bounds the air around a node of a protocol whose every
    /// frame carries or answers a packet (X-MAC, DMAC):
    ///
    /// * the engine keeps this bookkeeping only where every air link is
    ///   a decode edge of one network, so the node hears only its decode
    ///   neighbors;
    /// * depths are BFS hop distances over that graph, so a neighbor's
    ///   depth is within one of this node's: every sender it can hear
    ///   sits at depth `d − 1` or deeper;
    /// * a sender's frame carries its own packet, or answers a child's
    ///   (one depth deeper), so it needs a packet at depth `d − 1` or
    ///   deeper;
    /// * packets only move to [`parent`](Ctx::parent), one depth up, so
    ///   none enters those depths but by a sample there.
    ///
    /// A wake of such a protocol whose whole window closes *strictly
    /// before* this instant may be replayed through
    /// [`replay_idle_wakes`](Ctx::replay_idle_wakes) instead of
    /// simulated. Answering is O(depth): no neighbor is scanned.
    ///
    /// Always `now` under [`WakeMode::Dense`](super::WakeMode::Dense) and with more than one
    /// network: the engine keeps no quiet bookkeeping there.
    pub fn quiet_until(&self) -> SimTime {
        let now = self.run.now;
        let Some(quiet) = &self.run.quiet else {
            return now;
        };
        let mut next = self.shared.end;
        for depth in &quiet.depths[self.depth().saturating_sub(1)..] {
            if depth.holders > 0 || depth.packet_air > 0 {
                return now;
            }
            if let Some(t) = depth.generates.peek() {
                next = next.min(t.0);
            }
        }
        next.max(now)
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
        st.counters.record_tx(kind, 1);
        st.set_mode(now, Mode::Tx, kind.tx_cause());
        st.tx_carries_packet = packet.is_some();
        if packet.is_some() {
            self.run.count_packet_air(self.shared, self.node, true);
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
    /// per-node bound behind [`quiet_until`](Ctx::quiet_until), and like it
    /// always `now` without quiet bookkeeping.
    pub fn packet_free_until(&self, node: NodeId) -> SimTime {
        let now = self.run.now;
        match &self.run.quiet {
            Some(quiet) if !self.run.nodes[node.index()].holds => {
                quiet.subtrees.sample(node).min(self.shared.end).max(now)
            }
            _ => now,
        }
    }

    /// The instant up to which no node in `node`'s routing subtree (the
    /// node and everything that routes through it) can hold a packet:
    /// the subtree's earliest pending application sample (capped at the
    /// horizon) while none of its nodes
    /// [holds packets](super::MacNode::holds_packets) or has a
    /// packet-carrying frame on the air, and `now` otherwise.
    ///
    /// Packets enter a subtree only at samples inside it and move only
    /// to [`parent`](Ctx::parent), so a subtree found packet-free stays
    /// so until that sample: until then every evaluation, at any instant
    /// and by any node, returns the same bound. It is never later than
    /// [`packet_free_until`](Ctx::packet_free_until)`(node)`. Answering
    /// is O(log n); the engine updates the per-subtree counts along the
    /// parent chain whenever a node starts or stops holding packets or
    /// a packet frame goes on or off the air.
    ///
    /// Like [`quiet_until`](Ctx::quiet_until) always `now` without quiet
    /// bookkeeping (under [`WakeMode::Dense`](super::WakeMode::Dense) and
    /// with more than one network), which costs those runs nothing.
    pub fn subtree_free_until(&self, node: NodeId) -> SimTime {
        let now = self.run.now;
        match &self.run.quiet {
            Some(quiet) if !quiet.subtrees.busy(node) => quiet
                .subtrees
                .earliest_sample(node)
                .min(self.shared.end)
                .max(now),
            _ => now,
        }
    }

    /// Whether `node`'s radio is asleep right now. Answered from the
    /// same whole-network view as [`quiet_until`](Ctx::quiet_until):
    /// always `false` without quiet bookkeeping.
    pub fn is_asleep(&self, node: NodeId) -> bool {
        self.run.quiet.is_some() && self.run.nodes[node.index()].radio.mode == Mode::Sleep
    }

    /// Replays, straight into the energy ledger, the wake-ups `wakes`
    /// that the event-coarse scheduler elided, in one step: wake `k` at
    /// `at(k)` (increasing in `k`) was a radio startup, then what the
    /// radio did once it was up, then sleep. Each wake has one of the
    /// `shapes`, each shape with the cause its startup (and listening)
    /// is charged to; `count(r)` counts the wakes of any `r` that had
    /// each shape (`|r| [r.end - r.start]` for a run of one shape). A
    /// single wake is the run `k..k + 1`.
    ///
    /// Only the wakes due by now are replayed; returns the first index
    /// of `wakes` that is not. A wake the node was not asleep across is
    /// skipped, as the dense scheduler skips a busy boundary without
    /// charging it.
    ///
    /// The ledger keeps integer nanoseconds per bucket, so the charges
    /// need not come in the dense run's pieces or order, only in its
    /// totals. Every wake before the last is charged whole, by count,
    /// and sleep is the rest of the span up to the last wake. Only the
    /// last wake can cross the horizon; its pieces are clamped the way
    /// the dense end-of-run flush clamps them, and its frame counted iff
    /// the dense run's event for it (the send at radio-up, the reception
    /// at its last bit) lands inside the horizon.
    ///
    /// # Panics
    ///
    /// Panics if a wake of the run can reach the next, judged from the
    /// run's first gap, which must be its shortest up to the few
    /// nanoseconds by which rounded clock instants jitter (checked wake
    /// by wake in debug builds). The dense scheduler would find the node
    /// still awake at such a wake, and so would the node's next
    /// simulated wake after the run: a protocol whose wakes can outlast
    /// their period must not elide them.
    ///
    /// A replay is only valid where the caller's schedule knowledge
    /// proves each wake's outcome — a silent slot, a heartbeat from the
    /// single in-range owner, a poll or cycle before
    /// [`quiet_until`](Ctx::quiet_until) — and only if no handler of
    /// this node touches the radio inside the replayed windows.
    pub fn replay_idle_wakes<const N: usize>(
        &mut self,
        wakes: Range<u64>,
        at: impl Fn(u64) -> SimTime,
        shapes: [(IdleWake, Cause); N],
        count: impl Fn(Range<u64>) -> [u64; N],
    ) -> u64 {
        let now = self.run.now;
        let (start, end) = (wakes.start, wakes.end);
        let due = first_failing(start, end as f64, |k| k < end && at(k) <= now);
        let radio = self.run.nodes[self.node.index()].radio;
        if radio.mode != Mode::Sleep {
            return due;
        }
        let first = first_failing(start, due as f64, |k| k < due && at(k) < radio.since);
        if first == due {
            return due;
        }
        let shape = |k: u64| {
            let i = count(k..k + 1).iter().position(|&n| n == 1);
            shapes[i.expect("every wake has one shape")]
        };
        let active = |wake: IdleWake| self.active_nanos(wake);
        let last = due - 1;
        let longest = shapes.iter().map(|&(s, _)| active(s)).max().unwrap_or(0);
        assert!(
            first == last || at(first + 1).nanos_since(at(first)) >= longest + GAP_SLACK_NS,
            "node {}: a replayed wake of {longest} ns reaches the next",
            self.node
        );
        debug_assert!(
            (first..last).all(|k| at(k + 1).nanos_since(at(k)) >= active(shape(k).0)),
            "node {}: a replayed wake reaches the next",
            self.node
        );
        let before = count(first..last);
        debug_assert_eq!(
            before,
            (first..last).fold([0; N], |mut sum, k| {
                sum.iter_mut()
                    .zip(count(k..k + 1))
                    .for_each(|(s, n)| *s += n);
                sum
            }),
            "shapes miscounted"
        );
        debug_assert_eq!(
            before.iter().sum::<u64>(),
            last - first,
            "shapes miscounted"
        );
        self.replay_run(at(last), shape(last), &shapes, &before);
        self.run.stats.wakes_replayed += due - first;
        due
    }

    /// How long a wake of `shape` keeps the radio up, startup included.
    fn active_nanos(&self, shape: IdleWake) -> u64 {
        let startup = self.shared.startup_ns;
        match shape {
            IdleWake::Listen(until) => until.max(startup),
            IdleWake::Receive(kind) | IdleWake::Transmit(kind) => {
                startup + self.shared.airtime_ns[kind.index()]
            }
        }
    }

    /// Charges `counts[i]` whole wakes of each of the `shapes`, then the
    /// last wake, at `last_at`, of shape `last`, clamped at the horizon,
    /// and the sleep around them all; the node sleeps from the end of
    /// the last wake.
    fn replay_run(
        &mut self,
        last_at: SimTime,
        (last, last_cause): (IdleWake, Cause),
        shapes: &[(IdleWake, Cause)],
        counts: &[u64],
    ) {
        let shared = self.shared;
        let (end, startup) = (shared.end.as_nanos(), shared.startup_ns);
        let mut busy = 0;
        for (&(shape, cause), &n) in shapes.iter().zip(counts) {
            let active = self.active_nanos(shape);
            busy += n * active;
            let st = &mut self.run.nodes[self.node.index()];
            st.ledger.charge(Mode::Startup, cause, n * startup);
            charge_piece(st, shape, cause, n * (active - startup), n);
        }
        let woke = last_at.as_nanos().min(end);
        let ready = last_at.as_nanos() + startup;
        let stop = last_at.as_nanos() + self.active_nanos(last);
        // The dense run counts a frame at its event: the send at
        // radio-up, the reception at its last bit (the frame starts the
        // instant the radio is up, as sender and receiver share the
        // wake lead).
        let counted = match last {
            IdleWake::Listen(_) => false,
            IdleWake::Receive(_) => stop <= end,
            IdleWake::Transmit(_) => ready <= end,
        };
        let st = &mut self.run.nodes[self.node.index()];
        let slept = woke - st.radio.since.as_nanos() - busy;
        st.ledger.charge(Mode::Sleep, Cause::Sleep, slept);
        st.ledger
            .charge(Mode::Startup, last_cause, ready.min(end) - woke);
        let up = stop.min(end) - ready.min(end);
        charge_piece(st, last, last_cause, up, u64::from(counted));
        st.radio.since = SimTime::from_nanos(stop.min(end));
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

    #[test]
    fn first_failing_agrees_with_a_scan_whatever_the_guess() {
        // A rounded clock, like the poll grids and ladders it serves.
        let at = |k: u64| SimTime::from_seconds(Seconds::new(0.0123 + 0.1 * k as f64));
        for from in [0, 3, 40] {
            for bound_ns in [0, 12_300_000, 112_300_000, 3_512_300_001, 9_999_999_999] {
                let pred = |k: u64| at(k).as_nanos() < bound_ns;
                let scan = (from..).find(|&k| !pred(k)).expect("bounded");
                for guess in [f64::NAN, -5.0, 0.0, 2.4, 34.5, 35.0, 35.2, 99.9, 1e6] {
                    assert_eq!(
                        first_failing(from, guess, pred),
                        scan,
                        "from {from}, bound {bound_ns} ns, guess {guess}"
                    );
                }
            }
        }
    }

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
        deep_ring_run(protocol, scheduling, networks, 2)
    }

    /// [`ring_run`] on rings `depth` hops deep.
    fn deep_ring_run(
        protocol: &dyn SimProtocol,
        scheduling: WakeMode,
        networks: usize,
        depth: usize,
    ) -> SimReport {
        let cfg = SimConfig {
            duration: Seconds::new(20.0),
            sample_period: Seconds::new(6.0),
            warmup: Seconds::ZERO,
            seed: 1,
            scheduling,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let ring = Topology::ring_model(depth, 4, &mut rng).expect("buildable ring");
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
        node: NodeId,
        parent: Option<NodeId>,
        depth: usize,
        now: SimTime,
        quiet: SimTime,
        /// [`Ctx::subtree_free_until`] of the node and of its parent.
        subtree: SimTime,
        parent_subtree: Option<SimTime>,
    }

    /// Every observation, every sample with its node's depth, and every
    /// sample with its node.
    type Log = std::sync::Arc<
        std::sync::Mutex<(Vec<Seen>, Vec<(SimTime, usize)>, Vec<(SimTime, NodeId)>)>,
    >;

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
                node: ctx.me(),
                parent: ctx.parent(),
                depth: ctx.depth(),
                now: ctx.now(),
                quiet: ctx.quiet_until(),
                subtree: ctx.subtree_free_until(ctx.me()),
                parent_subtree: ctx.parent().map(|p| ctx.subtree_free_until(p)),
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
            let mut log = self.log.lock().expect("test log");
            log.1.push((ctx.now(), ctx.depth()));
            log.2.push((ctx.now(), ctx.me()));
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
        let (seen, generates) = deep_probe_run(holder, talker, scheduling, networks, 2);
        (seen, generates.into_iter().map(|(t, _)| t).collect())
    }

    /// [`probe_run`] on rings `depth` hops deep, with each sample's
    /// depth.
    fn deep_probe_run(
        holder: Option<usize>,
        talker: Option<usize>,
        scheduling: WakeMode,
        networks: usize,
        depth: usize,
    ) -> (Vec<Seen>, Vec<(SimTime, usize)>) {
        let log = Log::default();
        let probes = Scripted(|u| {
            Box::new(Probe {
                holds: holder == Some(u),
                talker: talker == Some(u),
                log: log.clone(),
            }) as Box<dyn MacNode>
        });
        drop(deep_ring_run(&probes, scheduling, networks, depth));
        let (seen, mut generates, _) = log.lock().expect("test log").clone();
        generates.sort();
        (seen, generates)
    }

    /// Probes on a ring `depth` hops deep under coarse wakes, `talker`
    /// sending one packet at 5 s: what they saw, and every sample with
    /// its node.
    fn subtree_probe_run(
        talker: Option<usize>,
        depth: usize,
    ) -> (Vec<Seen>, Vec<(SimTime, NodeId)>) {
        let log = Log::default();
        let probes = Scripted(|u| {
            Box::new(Probe {
                holds: false,
                talker: talker == Some(u),
                log: log.clone(),
            }) as Box<dyn MacNode>
        });
        drop(deep_ring_run(&probes, WakeMode::Coarse, 1, depth));
        let (seen, _, samples) = log.lock().expect("test log").clone();
        (seen, samples)
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
            assert!(seen.iter().all(|s| s.subtree == s.now), "{label}");
        }
    }

    #[test]
    fn quiet_until_looks_one_depth_up_and_everything_below() {
        // Node 1 sits in the first ring and holds packets throughout.
        let end = SimTime::from_seconds(Seconds::new(20.0));
        let (seen, generates) = deep_probe_run(Some(1), None, WakeMode::Coarse, 1, 4);
        // The first sample strictly after `now` at a depth in `depths`.
        let next = |now: SimTime, depths: std::ops::RangeFrom<usize>| {
            generates
                .iter()
                .find(|&&(g, d)| g > now && depths.contains(&d))
                .map_or(end, |&(g, _)| g.min(end))
        };
        let at_sample = |now: SimTime| generates.iter().any(|&(g, _)| g == now);
        let deep: Vec<&Seen> = seen.iter().filter(|s| s.depth == 4).collect();
        assert!(deep.len() > 100, "depth-4 probes: {}", deep.len());
        let mut unbounded = 0;
        for s in deep {
            if at_sample(s.now) {
                continue; // a sample at this very instant may or may not be pending
            }
            assert_eq!(
                s.quiet,
                next(s.now, 3..),
                "depth 4 sees depths 3 and up: {s:?}"
            );
            // A first-ring sample before that bound does not cut it.
            unbounded += usize::from(next(s.now, 1..) < s.quiet);
        }
        assert!(unbounded > 10, "depth-1 samples passed by: {unbounded}");
        let shallow: Vec<&Seen> = seen.iter().filter(|s| s.depth == 2).collect();
        assert!(!shallow.is_empty());
        assert!(
            shallow.iter().all(|s| s.quiet == s.now),
            "depth 2 sees the holder at depth 1"
        );
    }

    #[test]
    fn subtree_free_until_is_the_next_sample_below_a_node() {
        let end = SimTime::from_seconds(Seconds::new(20.0));
        let (seen, samples) = subtree_probe_run(None, 4);
        let parent: std::collections::HashMap<NodeId, Option<NodeId>> =
            seen.iter().map(|s| (s.node, s.parent)).collect();
        let below = |v: NodeId, root: NodeId| {
            std::iter::successors(Some(v), |u| parent.get(u).copied().flatten()).any(|u| u == root)
        };
        let mut ahead = 0;
        for s in &seen {
            if samples.iter().any(|&(g, _)| g == s.now) {
                continue; // a sample at this very instant may or may not be pending
            }
            let next = samples
                .iter()
                .filter(|&&(g, v)| g > s.now && below(v, s.node))
                .map(|&(g, _)| g.min(end))
                .min()
                .unwrap_or(end);
            assert_eq!(s.subtree, next, "{s:?}");
            // Never later than the node's own bound, and never earlier
            // than its parent's, whose subtree holds its own.
            let own = samples
                .iter()
                .filter(|&&(g, v)| g > s.now && v == s.node)
                .map(|&(g, _)| g.min(end))
                .min()
                .unwrap_or(end);
            assert!(s.subtree <= own, "{s:?}");
            assert!(s.parent_subtree.is_none_or(|p| p <= s.subtree), "{s:?}");
            ahead += usize::from(s.subtree > s.quiet);
        }
        assert!(ahead > 10, "subtree bounds past the depth bound: {ahead}");
    }

    #[test]
    fn subtree_free_until_is_now_while_the_subtree_has_a_packet_on_the_air() {
        let (seen, _) = subtree_probe_run(Some(9), 2);
        let sending = seen
            .iter()
            .find(|s| s.what == "sending")
            .expect("talker sent");
        assert_eq!(sending.subtree, sending.now, "its own frame is on the air");
        assert_eq!(
            sending.parent_subtree,
            Some(sending.now),
            "its parent's subtree holds the frame too"
        );
        let sent = seen.iter().find(|s| s.what == "sent").expect("frame ended");
        assert!(
            sent.subtree > sent.now,
            "free again once the frame is off the air"
        );
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
