//! SCP-MAC node: scheduled (synchronized) channel polling.
//!
//! Every node polls the channel on a *common* schedule, at multiples of
//! the poll period `Tp`. A sender contends briefly before the boundary
//! its receiver will poll, transmits a short wake-up tone (the
//! schedule-synchronized replacement for X-MAC's long strobe train) and
//! ships the data; the receiver, having caught the tone during its
//! poll, stays up for the data and acknowledges it.
//!
//! The simulation clock is drift-free, so schedule maintenance cannot
//! be *observed* — but its cost must still be paid to be comparable
//! with the analytical model: every `sync_period` each node broadcasts
//! one sync frame in its poll slot.
//!
//! Forwarding is store-and-forward: a packet received at boundary `k`
//! leaves at boundary `k + 1`, so each relay hop costs a full `Tp`.
//!
//! # Event-coarse scheduling
//!
//! SCP's whole point is that *every* node polls at *every* common
//! boundary — a poll both samples the channel for incoming tones and
//! backs the schedule's contention structure, so no boundary is
//! provably idle and none can be skipped without changing the
//! protocol. The boundary clock still runs through
//! [`MacNode::next_activity`] (one pending wake per node instead of a
//! self-rescheduling timer), which is the whole of the coarsening
//! available here.

use crate::engine::{Ctx, MacNode};
use crate::frame::{Frame, FrameKind, Packet};
use crate::time::SimTime;
use edmac_radio::Cause;
use edmac_units::Seconds;
use std::collections::VecDeque;

const TAG_POLL_END: u32 = 2;
const TAG_BACKOFF_DONE: u32 = 3;
const TAG_DATA_TIMEOUT: u32 = 4;
const TAG_ACK_TIMEOUT: u32 = 5;

/// Attempts per packet before it is dropped.
const MAX_RETRIES: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Sleeping,
    /// Waking for a poll boundary.
    WakingForBoundary,
    /// Listening through the poll window.
    Polling,
    /// Contention backoff before the tone.
    ContentionBackoff,
    /// Wake-up tone on the air.
    SendingTone,
    /// Data frame on the air.
    SendingData,
    /// Data sent; waiting for the ack.
    AwaitingAck,
    /// Caught a tone addressed here; waiting for the data.
    AwaitingData,
    /// Acking received data.
    Acking,
    /// Broadcasting the periodic sync frame.
    SendingSync,
}

/// The SCP-MAC per-node state machine.
#[derive(Debug)]
pub(crate) struct ScpNode {
    poll_interval: Seconds,
    poll_listen: Seconds,
    contention_window: Seconds,
    sync_period: Seconds,
    phase: Phase,
    queue: VecDeque<Packet>,
    in_flight: Option<Packet>,
    retries: u32,
    skip_polls: u32,
    next_boundary: u64,
    last_sync_boundary: u64,
    poll_end_timer: u64,
    data_timer: u64,
    ack_timer: u64,
}

impl ScpNode {
    pub fn new(poll_interval: Seconds, poll_listen: Seconds, sync_period: Seconds) -> ScpNode {
        ScpNode {
            poll_interval,
            poll_listen,
            contention_window: Seconds::from_millis(2.0),
            sync_period,
            phase: Phase::Sleeping,
            queue: VecDeque::new(),
            in_flight: None,
            retries: 0,
            skip_polls: 0,
            next_boundary: 0,
            last_sync_boundary: 0,
            poll_end_timer: u64::MAX,
            data_timer: u64::MAX,
            ack_timer: u64::MAX,
        }
    }

    /// Polls per sync period (at least one).
    fn sync_every(&self) -> u64 {
        (self.sync_period.value() / self.poll_interval.value()).max(1.0) as u64
    }

    fn fail_attempt(&mut self, ctx: &mut Ctx<'_>) {
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            self.in_flight = None;
            self.retries = 0;
            self.skip_polls = 0;
        } else {
            self.skip_polls = ctx.random_range(0.0, 3.0) as u32;
        }
    }

    fn sleep_now(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Sleeping;
        ctx.sleep();
    }
}

impl MacNode for ScpNode {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Spread the periodic sync broadcasts across nodes.
        self.last_sync_boundary = ctx.random_range(0.0, self.sync_every() as f64) as u64;
        // Boundary `k`'s wake leads it by one startup; no poll is ever
        // elided, so the clock has no idle pattern.
        let startup = ctx.startup_delay();
        ctx.set_wake_clock(self.poll_interval, Seconds::ZERO, startup, []);
        self.next_boundary = 0;
    }

    fn next_activity(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        Some(ctx.wake_clock().at(self.next_boundary))
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let boundary = self.next_boundary;
        self.next_boundary = boundary + 1;
        if self.phase != Phase::Sleeping {
            return; // still busy from the previous boundary
        }
        self.phase = Phase::WakingForBoundary;
        let wants_tx = (self.in_flight.is_some() || !self.queue.is_empty())
            && !ctx.is_sink()
            && self.skip_polls == 0;
        if self.skip_polls > 0 {
            self.skip_polls -= 1;
        }
        let due_sync = boundary.wrapping_sub(self.last_sync_boundary) >= self.sync_every();
        let cause = if wants_tx {
            Cause::DataTx
        } else if due_sync {
            Cause::SyncTx
        } else {
            Cause::CarrierSense
        };
        ctx.wake(cause);
        if due_sync {
            self.last_sync_boundary = boundary;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, id: u64) {
        match tag {
            TAG_POLL_END if id == self.poll_end_timer => {
                if self.phase != Phase::Polling {
                    return;
                }
                if ctx.is_receiving() {
                    // Mid-frame: extend rather than abandoning the
                    // timer (which would leave the radio up forever).
                    self.poll_end_timer = ctx.set_timer(self.poll_listen, TAG_POLL_END);
                } else {
                    self.sleep_now(ctx);
                }
            }
            TAG_BACKOFF_DONE => {
                if self.phase != Phase::ContentionBackoff {
                    return;
                }
                if ctx.channel_busy() || ctx.is_receiving() {
                    // CCA: someone else owns this boundary; take a later
                    // one (their receiver is awake anyway, ours missed
                    // nothing).
                    self.phase = Phase::Polling;
                    self.poll_end_timer = ctx.set_timer(self.poll_listen, TAG_POLL_END);
                    return;
                }
                if self.in_flight.is_none() {
                    self.in_flight = self.queue.pop_front();
                }
                match self.in_flight {
                    Some(_) => {
                        let parent = ctx.parent().expect("non-sink nodes have parents");
                        self.phase = Phase::SendingTone;
                        // The tone is a short addressed frame — in a
                        // drift-free simulation one strobe-length burst
                        // covers the (exact) poll instant.
                        ctx.send(FrameKind::Strobe, Some(parent), None);
                    }
                    None => self.sleep_now(ctx),
                }
            }
            TAG_DATA_TIMEOUT if id == self.data_timer => {
                if self.phase != Phase::AwaitingData {
                    return;
                }
                if ctx.is_receiving() {
                    self.data_timer = ctx.set_timer(ctx.airtime(FrameKind::Data), TAG_DATA_TIMEOUT);
                } else {
                    self.sleep_now(ctx);
                }
            }
            TAG_ACK_TIMEOUT if id == self.ack_timer && self.phase == Phase::AwaitingAck => {
                self.fail_attempt(ctx);
                self.sleep_now(ctx);
            }
            _ => {}
        }
    }

    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::WakingForBoundary {
            return;
        }
        let boundary = self.next_boundary.saturating_sub(1);
        let due_sync = boundary == self.last_sync_boundary && boundary != 0;
        let wants_tx = (self.in_flight.is_some() || !self.queue.is_empty()) && !ctx.is_sink();
        if due_sync {
            // Broadcast schedule maintenance in this slot instead of
            // polling; data waits one boundary.
            self.phase = Phase::SendingSync;
            ctx.send(FrameKind::Sync, None, None);
        } else if wants_tx && self.skip_polls == 0 {
            self.phase = Phase::ContentionBackoff;
            let backoff =
                Seconds::new(ctx.random_range(0.05, 1.0) * self.contention_window.value());
            ctx.set_timer(backoff, TAG_BACKOFF_DONE);
        } else {
            self.phase = Phase::Polling;
            self.poll_end_timer = ctx.set_timer(self.poll_listen, TAG_POLL_END);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        let me = ctx.me();
        match frame.kind {
            FrameKind::Strobe if frame.addressed_to(me) => {
                // A tone for us: hold the radio for the data that
                // follows immediately.
                if matches!(self.phase, Phase::Polling | Phase::ContentionBackoff) {
                    ctx.cancel_timer(self.poll_end_timer);
                    self.phase = Phase::AwaitingData;
                    let timeout = ctx.airtime(FrameKind::Data) * 2.0 + Seconds::from_millis(2.0);
                    self.data_timer = ctx.set_timer(timeout, TAG_DATA_TIMEOUT);
                }
            }
            FrameKind::Strobe
                // Someone else's tone: this boundary is taken.
                if self.phase == Phase::Polling => {
                    ctx.cancel_timer(self.poll_end_timer);
                    self.sleep_now(ctx);
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
            FrameKind::Ack if frame.addressed_to(me)
                && self.phase == Phase::AwaitingAck => {
                    ctx.cancel_timer(self.ack_timer);
                    self.in_flight = None;
                    self.retries = 0;
                    self.sleep_now(ctx);
                }
            _ => {}
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        match self.phase {
            Phase::SendingTone => {
                let packet = self.in_flight.expect("tone implies a packet in flight");
                let parent = ctx.parent().expect("non-sink nodes have parents");
                self.phase = Phase::SendingData;
                ctx.send(FrameKind::Data, Some(parent), Some(packet));
            }
            Phase::SendingData => {
                self.phase = Phase::AwaitingAck;
                let timeout = ctx.airtime(FrameKind::Ack) + Seconds::from_micros(800.0);
                self.ack_timer = ctx.set_timer(timeout, TAG_ACK_TIMEOUT);
            }
            Phase::Acking | Phase::SendingSync => {
                self.sleep_now(ctx);
            }
            _ => {}
        }
    }

    fn on_generate(&mut self, _ctx: &mut Ctx<'_>, packet: Packet) {
        // Data waits for the next scheduled poll boundary.
        self.queue.push_back(packet);
    }
}
