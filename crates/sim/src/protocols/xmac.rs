//! X-MAC node: low-power listening with strobed preambles and early
//! acknowledgements.
//!
//! Receiver side: sleep; wake every `Tw` for a short poll; if a strobe
//! addressed here is caught, answer a strobe-ack, receive the data,
//! acknowledge it, and forward (or deliver at the sink).
//!
//! Sender side: strobe the addressed preamble — one strobe, one
//! ack-listen gap — until the receiver's strobe-ack arrives (bounded by
//! `Tw` plus slack), then ship the data frame and wait for the final
//! ack. Collisions and misses are retried with a random backoff, up to
//! `max_retries` per packet.
//!
//! # Event-coarse scheduling
//!
//! Under [`WakeMode::Coarse`] two kinds of poll tick cost no wake:
//!
//! * ticks that land while the node is mid-exchange (strobing, backing
//!   off, receiving): the dense scheduler fired those and did provably
//!   nothing, so the node reports no activity while busy and rejoins
//!   its absolute poll grid (`phase + k·Tw`) on the first tick after it
//!   returns to sleep;
//! * idle polls of a quiet neighborhood. Every X-MAC frame carries a
//!   packet or answers one (strobes and data come from a packet holder,
//!   strobe-acks and acks answer them), so while no node one hop
//!   shallower or deeper holds a packet nothing reaches this node's
//!   radio until the next sample there ([`Ctx::quiet_until`]). A
//!   sleeping node with nothing queued and no timer pending jumps over
//!   every poll whose listen closes before that instant — the jump is
//!   found in closed form from the poll grid, then checked against it —
//!   and replays the skipped polls lazily, in one step at its next wake
//!   or sample or at the horizon, as the startup-and-silence the dense
//!   polls would have charged. Where a poll outlasts the wake-up
//!   interval, no poll is replayed.

use super::wakes_clear;
use crate::engine::{first_failing, Ctx, IdleWake, MacNode, WakeMode};
use crate::frame::{Frame, FrameKind, Packet};
use crate::time::SimTime;
use edmac_radio::Cause;
use edmac_units::Seconds;
use std::collections::VecDeque;

const TAG_POLL_END: u32 = 2;
const TAG_STROBE_GAP: u32 = 3;
const TAG_ACK_TIMEOUT: u32 = 4;
const TAG_DATA_TIMEOUT: u32 = 5;
const TAG_BACKOFF: u32 = 6;

/// Sender/receiver phase of the node's state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Radio down between polls.
    Sleeping,
    /// Poll in progress (listening briefly).
    Polling,
    /// Powering up to begin a transmission.
    WakingToSend,
    /// Strobes are on the air; the instant the train started is kept to
    /// bound it.
    Strobing { started: crate::time::SimTime },
    /// One strobe sent; the ack-listen gap runs.
    StrobeGap { started: crate::time::SimTime },
    /// Data frame on the air.
    SendingData,
    /// Data sent; waiting for the final ack.
    AwaitingAck,
    /// Heard a strobe for us; answering with the strobe-ack.
    AnsweringStrobe,
    /// Strobe-ack sent; waiting for the data frame.
    AwaitingData,
    /// Received data; final ack on the air.
    Acking,
    /// Backing off after a failed exchange.
    BackingOff,
}

/// The X-MAC per-node state machine.
#[derive(Debug)]
pub(crate) struct XmacNode {
    wakeup: Seconds,
    poll_listen: Seconds,
    max_retries: u32,
    coarse: bool,
    /// Whether a poll (startup and listen) ends before the next tick, so
    /// that quiet polls may be replayed. Fixed at start.
    polls_clear: bool,
    /// Random phase of this node's poll grid, drawn at start.
    poll_phase: f64,
    /// Index of the next poll tick on the grid `phase + k·Tw`.
    next_tick: u64,
    /// First tick not yet polled, skipped while busy, or replayed:
    /// ticks `replay_from..next_tick` are quiet polls still owed to
    /// the ledger.
    replay_from: u64,
    phase: Phase,
    queue: VecDeque<Packet>,
    in_flight: Option<Packet>,
    retries: u32,
    poll_end_timer: u64,
    gap_timer: u64,
    ack_timer: u64,
    data_timer: u64,
}

impl XmacNode {
    pub fn new(
        wakeup: Seconds,
        poll_listen: Seconds,
        max_retries: u32,
        scheduling: WakeMode,
    ) -> XmacNode {
        XmacNode {
            wakeup,
            poll_listen,
            max_retries,
            coarse: scheduling == WakeMode::Coarse,
            polls_clear: false,
            poll_phase: 0.0,
            next_tick: 0,
            replay_from: 0,
            phase: Phase::Sleeping,
            queue: VecDeque::new(),
            in_flight: None,
            retries: 0,
            poll_end_timer: u64::MAX,
            gap_timer: u64::MAX,
            ack_timer: u64::MAX,
            data_timer: u64::MAX,
        }
    }

    /// Absolute time of poll tick `k`.
    fn tick_time(&self, k: u64) -> SimTime {
        SimTime::from_seconds(Seconds::new(
            self.poll_phase + self.wakeup.value() * k as f64,
        ))
    }

    /// The instant poll `k`'s listen ends: one startup after its tick,
    /// then the poll listen.
    fn poll_end(&self, ctx: &Ctx<'_>, k: u64) -> SimTime {
        self.tick_time(k)
            .after(ctx.startup_delay())
            .after(self.poll_listen)
    }

    /// An idle poll: startup and poll listen in silence, then sleep.
    fn idle_poll(&self, ctx: &Ctx<'_>) -> IdleWake {
        let nanos = |s: Seconds| SimTime::from_seconds(s).as_nanos();
        IdleWake::Listen(nanos(ctx.startup_delay()) + nanos(self.poll_listen))
    }

    /// Whether nothing of this node's own can wake its radio: asleep,
    /// nothing queued, no timer pending. Its polls up to
    /// [`Ctx::quiet_until`] then hear silence, and are replayed if each
    /// ends before the next tick.
    fn idle(&self, ctx: &Ctx<'_>) -> bool {
        self.polls_clear
            && self.phase == Phase::Sleeping
            && !self.has_pending()
            && ctx.pending_timers() == 0
    }

    /// Charges, in one step, the quiet polls before tick `to` whose tick
    /// is due by now.
    fn replay_polls(&mut self, ctx: &mut Ctx<'_>, to: u64) {
        let poll = self.idle_poll(ctx);
        let ticks = self.replay_from..to;
        self.replay_from = ctx.replay_idle_wakes(
            ticks,
            |k| self.tick_time(k),
            [(poll, Cause::CarrierSense)],
            |r| [r.end - r.start],
        );
    }

    /// The ack-listen gap after each strobe: turnaround, the ack
    /// airtime, and scheduling slack.
    fn gap(&self, ctx: &Ctx<'_>) -> Seconds {
        ctx.airtime(FrameKind::StrobeAck) + Seconds::from_micros(600.0)
    }

    /// Upper bound on one strobe train: a full wake-up interval plus
    /// slack (every receiver must have polled once by then).
    fn preamble_budget(&self, ctx: &Ctx<'_>) -> Seconds {
        self.wakeup
            + ctx.airtime(FrameKind::Strobe) * 2.0
            + self.gap(ctx) * 2.0
            + ctx.startup_delay()
    }

    /// Whether a packet is waiting, either queued or mid-retry.
    fn has_pending(&self) -> bool {
        self.in_flight.is_some() || !self.queue.is_empty()
    }

    fn try_begin_tx(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::Sleeping || !self.has_pending() || ctx.is_sink() {
            return;
        }
        self.phase = Phase::WakingToSend;
        ctx.wake(Cause::DataTx);
    }

    fn begin_strobing(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_flight.is_none() {
            self.in_flight = self.queue.pop_front();
        }
        let Some(_) = self.in_flight else {
            self.go_to_sleep(ctx);
            return;
        };
        self.phase = Phase::Strobing { started: ctx.now() };
        self.send_one_strobe(ctx);
    }

    fn send_one_strobe(&mut self, ctx: &mut Ctx<'_>) {
        let parent = ctx.parent().expect("non-sink nodes have parents");
        ctx.send(FrameKind::Strobe, Some(parent), None);
    }

    fn exchange_failed(&mut self, ctx: &mut Ctx<'_>) {
        self.retries += 1;
        if self.retries > self.max_retries {
            // Drop the packet: it will show as undelivered in the
            // report.
            self.in_flight = None;
            self.retries = 0;
        }
        self.phase = Phase::BackingOff;
        // Contention backoff: a random fraction of the wake-up interval.
        let backoff = Seconds::new(ctx.random_range(0.1, 1.0) * self.wakeup.value());
        ctx.sleep();
        ctx.set_timer(backoff, TAG_BACKOFF);
    }

    fn exchange_succeeded(&mut self, ctx: &mut Ctx<'_>) {
        self.in_flight = None;
        self.retries = 0;
        if self.queue.is_empty() {
            self.go_to_sleep(ctx);
        } else {
            // Channel momentum: keep the radio up and start the next
            // packet's preamble immediately.
            self.begin_strobing(ctx);
        }
    }

    fn go_to_sleep(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Sleeping;
        ctx.sleep();
        self.try_begin_tx(ctx);
    }
}

impl MacNode for XmacNode {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Desynchronize poll phases across nodes.
        self.poll_phase = ctx.random_range(0.0, self.wakeup.value());
        self.polls_clear = wakes_clear(ctx.startup_delay() + self.poll_listen, self.wakeup);
        self.next_tick = 0;
        self.replay_from = 0;
    }

    fn holds_packets(&self) -> bool {
        self.has_pending()
    }

    fn next_activity(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        if self.coarse {
            if self.phase != Phase::Sleeping {
                // Mid-exchange: the dense tick would be a no-op; rejoin
                // the grid when the node next sleeps.
                return None;
            }
            // Ticks that passed while busy were no-ops — including one
            // at exactly `now`: wakes fire before same-time events, so
            // the dense scheduler consumed that tick (still busy)
            // before the callback that just put us to sleep.
            while self.tick_time(self.next_tick) <= ctx.now() {
                debug_assert_eq!(
                    self.replay_from, self.next_tick,
                    "quiet polls replayed first"
                );
                self.next_tick += 1;
                self.replay_from = self.next_tick;
            }
            if self.idle(ctx) {
                let quiet = ctx.quiet_until();
                let listen = ctx.startup_delay() + self.poll_listen;
                let guess = (quiet.as_seconds() - listen).value() - self.poll_phase;
                self.next_tick = first_failing(self.next_tick, guess / self.wakeup.value(), |k| {
                    self.poll_end(ctx, k) < quiet
                });
            }
        }
        Some(self.tick_time(self.next_tick))
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let k = self.next_tick;
        // The poll clock ticks regardless of activity.
        self.next_tick += 1;
        // A quiet poll is replayed with the quiet polls skipped before
        // it: it is the first poll of a quiet stretch, asked for while
        // the network around the node was not yet quiet.
        let quiet = self.idle(ctx) && self.poll_end(ctx, k) < ctx.quiet_until();
        self.replay_polls(ctx, if quiet { k + 1 } else { k });
        self.replay_from = self.next_tick;
        if quiet {
            return;
        }
        if self.phase == Phase::Sleeping {
            if self.has_pending() && !ctx.is_sink() {
                // A queued packet or an interrupted retry (in_flight
                // survives a failed exchange) takes priority over the
                // idle poll.
                self.try_begin_tx(ctx);
            } else {
                self.phase = Phase::Polling;
                ctx.wake(Cause::CarrierSense);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, id: u64) {
        match tag {
            TAG_POLL_END if id == self.poll_end_timer => {
                if self.phase != Phase::Polling {
                    return;
                }
                if ctx.is_receiving() {
                    // Mid-frame: extend the poll by one listen quantum.
                    self.poll_end_timer = ctx.set_timer(self.poll_listen, TAG_POLL_END);
                } else {
                    self.go_to_sleep(ctx);
                }
            }
            TAG_STROBE_GAP if id == self.gap_timer => {
                let Phase::StrobeGap { started } = self.phase else {
                    return;
                };
                if ctx.is_receiving() {
                    // A frame (hopefully our strobe-ack) is landing:
                    // give it one more gap.
                    self.gap_timer = ctx.set_timer(self.gap(ctx), TAG_STROBE_GAP);
                    return;
                }
                if ctx.now().since(started) > self.preamble_budget(ctx) {
                    self.exchange_failed(ctx);
                } else {
                    self.phase = Phase::Strobing { started };
                    self.send_one_strobe(ctx);
                }
            }
            TAG_ACK_TIMEOUT if id == self.ack_timer && self.phase == Phase::AwaitingAck => {
                self.exchange_failed(ctx);
            }
            TAG_DATA_TIMEOUT if id == self.data_timer && self.phase == Phase::AwaitingData => {
                // The sender vanished; go back to sleep.
                self.go_to_sleep(ctx);
            }
            TAG_BACKOFF if self.phase == Phase::BackingOff => {
                self.phase = Phase::Sleeping;
                self.try_begin_tx(ctx);
            }
            _ => {} // stale timer from an abandoned phase
        }
    }

    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
        match self.phase {
            Phase::Polling => {
                self.poll_end_timer = ctx.set_timer(self.poll_listen, TAG_POLL_END);
            }
            Phase::WakingToSend => {
                if ctx.channel_busy() {
                    // Someone is mid-exchange: defer.
                    self.exchange_failed(ctx);
                } else {
                    self.begin_strobing(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        let me = ctx.me();
        match frame.kind {
            FrameKind::Strobe if frame.addressed_to(me) => {
                // Answer regardless of phase (polling or tail of another
                // exchange): the sender is waiting.
                if matches!(self.phase, Phase::Polling | Phase::Sleeping) {
                    if self.phase == Phase::Polling {
                        ctx.cancel_timer(self.poll_end_timer);
                    }
                    self.phase = Phase::AnsweringStrobe;
                    ctx.send(FrameKind::StrobeAck, Some(frame.src), None);
                }
            }
            FrameKind::Strobe
                // Someone else's preamble: X-MAC early sleep.
                if self.phase == Phase::Polling => {
                    ctx.cancel_timer(self.poll_end_timer);
                    self.go_to_sleep(ctx);
                }
            FrameKind::StrobeAck if frame.addressed_to(me) => {
                if matches!(self.phase, Phase::StrobeGap { .. }) {
                    ctx.cancel_timer(self.gap_timer);
                    self.phase = Phase::SendingData;
                    let packet = self.in_flight.expect("strobing implies a packet in flight");
                    ctx.send(FrameKind::Data, Some(frame.src), Some(packet));
                }
            }
            FrameKind::Data if frame.addressed_to(me)
                && self.phase == Phase::AwaitingData => {
                    ctx.cancel_timer(self.data_timer);
                    let mut packet = frame.packet.expect("data frames carry packets");
                    packet.hops += 1;
                    self.phase = Phase::Acking;
                    ctx.send(FrameKind::Ack, Some(frame.src), None);
                    if ctx.is_sink() {
                        ctx.deliver(packet);
                    } else {
                        self.queue.push_back(packet);
                    }
                }
            FrameKind::Data
                // Overheard data for someone else: back to sleep if we
                // were merely polling.
                if self.phase == Phase::Polling => {
                    ctx.cancel_timer(self.poll_end_timer);
                    self.go_to_sleep(ctx);
                }
            FrameKind::Ack if frame.addressed_to(me)
                && self.phase == Phase::AwaitingAck => {
                    ctx.cancel_timer(self.ack_timer);
                    self.exchange_succeeded(ctx);
                }
            _ => {}
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        match self.phase {
            Phase::Strobing { started } => {
                self.phase = Phase::StrobeGap { started };
                self.gap_timer = ctx.set_timer(self.gap(ctx), TAG_STROBE_GAP);
            }
            Phase::SendingData => {
                self.phase = Phase::AwaitingAck;
                let timeout = ctx.airtime(FrameKind::Ack) + Seconds::from_micros(800.0);
                self.ack_timer = ctx.set_timer(timeout, TAG_ACK_TIMEOUT);
            }
            Phase::AnsweringStrobe => {
                self.phase = Phase::AwaitingData;
                let timeout = ctx.airtime(FrameKind::Data) * 2.0 + Seconds::from_millis(2.0);
                self.data_timer = ctx.set_timer(timeout, TAG_DATA_TIMEOUT);
            }
            Phase::Acking => {
                // Exchange complete on the receiver side; forward if we
                // queued something.
                if self.queue.is_empty() || ctx.is_sink() {
                    self.go_to_sleep(ctx);
                } else {
                    self.begin_strobing(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_horizon(&mut self, ctx: &mut Ctx<'_>) {
        self.replay_polls(ctx, self.next_tick);
    }

    fn on_generate(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.replay_polls(ctx, self.next_tick);
        self.queue.push_back(packet);
        self.try_begin_tx(ctx);
    }
}
