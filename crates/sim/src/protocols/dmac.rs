//! DMAC node: staggered wake-up ladder over the routing tree.
//!
//! Within each cycle of period `T`, a node at depth `d` (with `D` the
//! deepest ring) owns a transmit slot at offset `(D − d)·μ`; its parent
//! listens during exactly that slot. Interior nodes therefore wake one
//! slot earlier (their children's slot), and keep listening one extra
//! slot after their own ("more-to-send" headroom), matching the `3μ`
//! duty of the analytical model. A packet rides the ladder sink-ward,
//! one slot per hop, within a single sweep.
//!
//! Contention: siblings share their parent's listen slot, so each
//! transmitter backs off a random fraction of the contention window and
//! checks the channel before sending; losers retry next cycle.
//!
//! # Event-coarse scheduling
//!
//! The ladder is event-coarse by construction: a node touches at most
//! two slots per cycle (its children's and its own), so its wake
//! schedule is one instant per cycle — reported through
//! [`MacNode::next_activity`] — regardless of the cycle's slot count.
//!
//! Under [`WakeMode::Coarse`](crate::WakeMode::Coarse) the idle cycles of a quiet network cost
//! no wake either. Every DMAC frame is data or the ack answering it, so
//! while no node holds a packet the air stays empty until the next
//! sample ([`Ctx::quiet_until`]), and a cycle's outcome is fixed by the
//! node's role: an interior node listens through its children's slot
//! and lingers one slot after its own (two listen pieces, split where
//! the transmit slot re-labels the listen), the sink listens until two
//! slots after its wake, and a leaf lingers one slot. A sleeping node
//! with nothing queued and no timer pending jumps over every cycle that
//! ends before that instant and replays them into its ledger lazily —
//! at its next wake or sample, or at the horizon.

use crate::engine::{Ctx, IdleWake, MacNode};
use crate::frame::{Frame, FrameKind, Packet};
use crate::time::SimTime;
use edmac_radio::Cause;
use edmac_units::Seconds;
use std::collections::VecDeque;

const TAG_TX_SLOT: u32 = 2;
const TAG_BACKOFF_DONE: u32 = 3;
const TAG_SLEEP: u32 = 4;
const TAG_ACK_TIMEOUT: u32 = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Sleeping,
    /// Waking up for (or listening in) the children's slot.
    Receiving,
    /// Waking up for the own transmit slot.
    PreparingTx,
    /// Random backoff inside the contention window.
    ContentionBackoff,
    /// Data on the air.
    SendingData,
    /// Waiting for the parent's ack.
    AwaitingAck,
    /// Acking a child's data.
    Acking,
    /// Post-slot "more-to-send" listening before sleep.
    Lingering,
}

/// Attempts per packet before it is dropped.
const MAX_RETRIES: u32 = 8;

/// The DMAC per-node state machine.
#[derive(Debug)]
pub(crate) struct DmacNode {
    cycle: Seconds,
    slot: Seconds,
    contention_window: Seconds,
    has_children: bool,
    phase: Phase,
    queue: VecDeque<Packet>,
    in_flight: Option<Packet>,
    retries: u32,
    /// Cycles to sit out before retrying — randomized after a failure
    /// so hidden-terminal pairs (who cannot CCA each other) stop
    /// re-colliding sweep after sweep.
    skip_cycles: u32,
    ack_timer: u64,
    /// Index of the cycle whose slots have been scheduled.
    next_cycle: u64,
    /// First cycle not yet woken for or replayed: cycles
    /// `replay_from..next_cycle` are quiet cycles still owed to the
    /// ledger.
    replay_from: u64,
}

impl DmacNode {
    pub fn new(
        cycle: Seconds,
        slot: Seconds,
        contention_window: Seconds,
        has_children: bool,
    ) -> DmacNode {
        DmacNode {
            cycle,
            slot,
            contention_window,
            has_children,
            phase: Phase::Sleeping,
            queue: VecDeque::new(),
            in_flight: None,
            retries: 0,
            skip_cycles: 0,
            ack_timer: u64::MAX,
            next_cycle: 0,
            replay_from: 0,
        }
    }

    /// Whether a packet is waiting, either queued or mid-retry.
    fn has_pending(&self) -> bool {
        self.in_flight.is_some() || !self.queue.is_empty()
    }

    /// The ends of the two listen pieces of an idle cycle woken at
    /// `wake`, exactly as the handlers time them: an interior node
    /// re-labels its listen when its transmit slot opens and sleeps one
    /// lingering slot later; the sink sleeps two slots after its wake
    /// (an empty second piece); a leaf re-labels the instant its radio
    /// is up (an empty first piece) and lingers one slot.
    fn idle_listen(&self, ctx: &Ctx<'_>, wake: SimTime) -> [SimTime; 2] {
        if self.rx_offset(ctx).is_some() {
            if self.tx_offset(ctx).is_some() {
                let tx = wake.after(self.slot + ctx.startup_delay());
                [tx, tx.after(self.slot)]
            } else {
                let sleep = wake.after(self.slot * 2.0);
                [sleep, sleep]
            }
        } else {
            let ready = wake.after(ctx.startup_delay());
            [ready, ready.after(self.slot)]
        }
    }

    /// Whether nothing of this node's own can wake its radio: asleep,
    /// nothing queued, no timer pending. Its cycles up to
    /// [`Ctx::quiet_until`] are then idle.
    fn idle(&self, ctx: &Ctx<'_>) -> bool {
        self.phase == Phase::Sleeping && !self.has_pending() && ctx.pending_timers() == 0
    }

    /// Charges the skipped quiet cycles whose wake is due by now.
    fn replay_cycles(&mut self, ctx: &mut Ctx<'_>) {
        while self.replay_from < self.next_cycle {
            let Some(wake) = self.lead(ctx, self.replay_from).filter(|&w| w <= ctx.now()) else {
                break;
            };
            let listen = self.idle_listen(ctx, wake);
            ctx.replay_idle_wake(wake, Cause::CarrierSense, IdleWake::Listen(&listen));
            self.replay_from += 1;
        }
    }

    /// Records a failed attempt: randomize the next one, drop the
    /// packet after [`MAX_RETRIES`].
    fn fail_attempt(&mut self, ctx: &mut Ctx<'_>) {
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            self.in_flight = None;
            self.retries = 0;
            self.skip_cycles = 0;
        } else {
            self.skip_cycles = ctx.random_range(0.0, 3.0) as u32;
        }
    }

    /// Offset of this node's transmit slot within a cycle.
    fn tx_offset(&self, ctx: &Ctx<'_>) -> Option<Seconds> {
        if ctx.is_sink() {
            return None; // the sink only receives
        }
        let lag = ctx.max_depth() - ctx.depth();
        Some(self.slot * lag as f64)
    }

    /// Offset of this node's receive (children's) slot within a cycle.
    fn rx_offset(&self, ctx: &Ctx<'_>) -> Option<Seconds> {
        if !self.has_children {
            return None;
        }
        let lag = ctx.max_depth() - ctx.depth();
        // Children transmit one slot before this node does.
        Some(self.slot * (lag as f64 - 1.0))
    }

    /// The wake instant for cycle `k`: the receive slot for nodes with
    /// children, else the transmit slot, one radio startup early so
    /// listening starts on the slot boundary. `None` for a node with
    /// neither (unreachable in a connected tree).
    fn lead(&self, ctx: &Ctx<'_>, k: u64) -> Option<SimTime> {
        let offset = self.rx_offset(ctx).or_else(|| self.tx_offset(ctx))?;
        let at = self.cycle.value() * k as f64 + offset.value() - ctx.startup_delay().value();
        Some(SimTime::from_seconds(Seconds::new(at.max(0.0))))
    }
}

impl MacNode for DmacNode {
    fn start(&mut self, _ctx: &mut Ctx<'_>) {
        self.next_cycle = 0;
        self.replay_from = 0;
    }

    fn holds_packets(&self) -> bool {
        self.has_pending()
    }

    fn next_activity(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        if self.idle(ctx) {
            let quiet = ctx.quiet_until();
            while let Some(wake) = self.lead(ctx, self.next_cycle) {
                if wake <= ctx.now() || self.idle_listen(ctx, wake)[1] >= quiet {
                    break;
                }
                self.next_cycle += 1;
            }
        }
        self.lead(ctx, self.next_cycle)
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        self.replay_cycles(ctx);
        self.next_cycle += 1;
        self.replay_from = self.next_cycle;
        if self.idle(ctx) {
            let listen = self.idle_listen(ctx, ctx.now());
            if listen[1] < ctx.quiet_until() {
                // The first cycle of a quiet stretch: the node was last
                // asked for its schedule before the network fell quiet.
                ctx.replay_idle_wake(ctx.now(), Cause::CarrierSense, IdleWake::Listen(&listen));
                return;
            }
        }
        if self.rx_offset(ctx).is_some() {
            // Wake for the children's slot; the own tx slot follows
            // immediately after, so stay up through both.
            self.phase = Phase::Receiving;
            ctx.wake(Cause::CarrierSense);
            // This wake led the boundary by one startup (so listening
            // starts on it); the transmit slot therefore begins one
            // slot plus that lead from now — contending earlier would
            // trample the tail of the children's exchanges.
            if self.tx_offset(ctx).is_some() {
                ctx.set_timer(self.slot + ctx.startup_delay(), TAG_TX_SLOT);
            } else {
                // The sink lingers one slot then sleeps.
                ctx.set_timer(self.slot * 2.0, TAG_SLEEP);
            }
        } else if self.phase == Phase::Sleeping {
            // Leaf path: wake directly into the tx slot.
            self.phase = Phase::PreparingTx;
            ctx.wake(Cause::CarrierSense);
        } else {
            // Leaf still awake from the previous cycle (long linger or
            // pending ack): contend right away, the radio is already up.
            self.phase = Phase::PreparingTx;
            self.begin_contention(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, id: u64) {
        match tag {
            TAG_TX_SLOT => {
                // Interior path: already awake from the rx slot.
                self.phase = Phase::PreparingTx;
                self.begin_contention(ctx);
            }
            TAG_BACKOFF_DONE => {
                if self.phase != Phase::ContentionBackoff {
                    return;
                }
                if ctx.channel_busy() || ctx.is_receiving() {
                    // Lost the contention politely (CCA worked): the
                    // winner drains its queue, we simply take the next
                    // sweep. No retry penalty — only undetectable
                    // collisions (ack timeouts) burn retries.
                    self.linger_then_sleep(ctx);
                    return;
                }
                if self.in_flight.is_none() {
                    self.in_flight = self.queue.pop_front();
                }
                match self.in_flight {
                    Some(packet) => {
                        let parent = ctx.parent().expect("non-sink nodes have parents");
                        self.phase = Phase::SendingData;
                        ctx.send(FrameKind::Data, Some(parent), Some(packet));
                    }
                    None => self.linger_then_sleep(ctx),
                }
            }
            TAG_SLEEP => {
                if matches!(
                    self.phase,
                    Phase::Lingering | Phase::Receiving | Phase::PreparingTx
                ) && !ctx.is_receiving()
                {
                    self.phase = Phase::Sleeping;
                    ctx.sleep();
                } else if ctx.is_receiving() {
                    // Mid-frame: extend by half a slot.
                    ctx.set_timer(self.slot * 0.5, TAG_SLEEP);
                }
            }
            TAG_ACK_TIMEOUT if id == self.ack_timer && self.phase == Phase::AwaitingAck => {
                // No ack: the packet stays in flight and recontends
                // after a randomized pause.
                self.fail_attempt(ctx);
                self.linger_then_sleep(ctx);
            }
            _ => {}
        }
    }

    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
        match self.phase {
            Phase::PreparingTx => self.begin_contention(ctx),
            Phase::Receiving => {} // just listen
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        let me = ctx.me();
        match frame.kind {
            FrameKind::Data if frame.addressed_to(me) => {
                let mut packet = frame.packet.expect("data frames carry packets");
                packet.hops += 1;
                self.phase = Phase::Acking;
                ctx.send(FrameKind::Ack, Some(frame.src), None);
                if ctx.is_sink() {
                    ctx.deliver(packet);
                } else {
                    // Forward within this very sweep: our own tx slot is
                    // exactly one slot away.
                    self.queue.push_back(packet);
                }
            }
            FrameKind::Ack if frame.addressed_to(me) && self.phase == Phase::AwaitingAck => {
                ctx.cancel_timer(self.ack_timer);
                self.in_flight = None;
                self.retries = 0;
                self.linger_then_sleep(ctx);
            }
            _ => {} // overheard sibling traffic: engine charged it
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        match self.phase {
            Phase::SendingData => {
                self.phase = Phase::AwaitingAck;
                let timeout = ctx.airtime(FrameKind::Ack) + Seconds::from_micros(800.0);
                self.ack_timer = ctx.set_timer(timeout, TAG_ACK_TIMEOUT);
            }
            Phase::Acking => {
                // Return to receiving posture for possible further
                // children in the slot.
                self.phase = Phase::Receiving;
            }
            _ => {}
        }
    }

    fn on_horizon(&mut self, ctx: &mut Ctx<'_>) {
        self.replay_cycles(ctx);
    }

    fn on_generate(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.replay_cycles(ctx);
        // Data waits for the next ladder sweep.
        self.queue.push_back(packet);
    }
}

impl DmacNode {
    fn begin_contention(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_flight.is_none() && self.queue.is_empty() {
            self.linger_then_sleep(ctx);
            return;
        }
        if self.skip_cycles > 0 {
            // Sitting out this sweep to decorrelate from a collision
            // partner.
            self.skip_cycles -= 1;
            self.linger_then_sleep(ctx);
            return;
        }
        self.phase = Phase::ContentionBackoff;
        let backoff = Seconds::new(ctx.random_range(0.05, 1.0) * self.contention_window.value());
        ctx.set_timer(backoff, TAG_BACKOFF_DONE);
    }

    fn linger_then_sleep(&mut self, ctx: &mut Ctx<'_>) {
        // Stay up for the adaptive extra slot, then sleep.
        self.phase = Phase::Lingering;
        ctx.relabel_listen(Cause::CarrierSense);
        ctx.set_timer(self.slot, TAG_SLEEP);
    }
}
