//! Per-node protocol state machines and the wake-scheduling contract
//! that drives them.

use crate::engine::Ctx;
use crate::frame::{Frame, Packet};
use crate::time::SimTime;
use edmac_units::Seconds;

pub(crate) mod dmac;
pub(crate) mod lmac;
pub(crate) mod scp;
pub(crate) mod xmac;

/// Whether a wake that keeps the radio up for `active` ends clear of a
/// wake `gap` later, with a microsecond to spare against nanosecond
/// rounding. Where it does not, the dense scheduler finds the node
/// still awake at the next wake, and a protocol must not elide it
/// ([`Ctx::owe_wakes`]).
pub(crate) fn wakes_clear(active: Seconds, gap: Seconds) -> bool {
    active + Seconds::from_micros(1.0) < gap
}

/// A protocol's per-node behavior: a state machine driven by the
/// engine's callbacks.
///
/// Implementations own their packet queues and timers; the engine owns
/// the radio, the channel and the clock. All radio work goes through
/// [`Ctx`].
///
/// # The wake-scheduling contract
///
/// Duty-cycled protocols are clocked: slots, cycles, poll boundaries.
/// Scheduling one timer per protocol tick makes the event loop scale
/// with the *schedule*, not with the *traffic* — on a 65-node LMAC run
/// that is ~32 events per node per frame, almost all of them waking a
/// node into a provably silent slot.
///
/// [`MacNode::next_activity`] inverts the control flow: after every
/// callback the engine asks the node for the next instant it must be
/// driven, and schedules exactly one wake-up per node at a time. The
/// engine delivers each due wake through [`MacNode::on_wake`]; ties
/// with queued events resolve in favor of wakes (mirroring the dense
/// scheduler, whose boundary timers always carried the earliest
/// sequence numbers), and simultaneous wakes fire in node order.
///
/// Each clocked protocol registers, once at [`MacNode::start`], its
/// wake clock ([`Ctx::set_wake_clock`]): wake `k` is due at
/// `max(0, period·k + offset − lead)`, and a static pattern gives what
/// wake `k` does when idle. Schedule-driven protocols answer
/// `next_activity` with their next *relevant* wake — one where they
/// transmit, may receive from a schedule-known neighbor, or must
/// sample the channel — and add the idle wakes they jump over to their
/// *owed run* ([`Ctx::owe_wakes`]). The engine charges the due part of
/// that run, in one step, to the same ledger totals the dense
/// scheduler reaches: inside [`Ctx::wake`] and [`Ctx::sleep`], before
/// the radio's mode changes, and at the horizon.
///
/// Returning `None` suspends the clock: the engine will re-query after
/// the next callback (X-MAC uses this to elide poll ticks that land
/// mid-exchange, where the dense tick was a provable no-op).
///
/// # Quiet replay
///
/// Packets enter the network only at application samples and move
/// only to [`Ctx::parent`]. A node that answers
/// [`MacNode::holds_packets`] truthfully lets the engine know which hop
/// depths hold packets, and [`Ctx::quiet_until`] then bounds how long
/// the depths a node can hear stay packet-free: until the next sample
/// at the caller's depth minus one or deeper. A protocol whose every
/// frame either carries or answers a packet (X-MAC, DMAC) may owe,
/// instead of simulate, any wake that
/// [closes before](crate::WakeClock::closes_before) that bound, and
/// skip a whole stretch of them at once in `next_activity`
/// ([`WakeClock::first_reaching`](crate::WakeClock::first_reaching)).
/// LMAC owes a slot whose owner's heartbeat is provably bare
/// ([`Ctx::packet_free_until`]), and the slot's later heartbeats while
/// the owner's routing subtree stays packet-free
/// ([`Ctx::subtree_free_until`]). Three rules keep this bit-identical
/// to the dense schedule:
///
/// * the radio stays asleep across every owed wake: the engine panics
///   if the radio starts up while an owed wake is not yet due, or was
///   up when one fell due, and no handler may touch the radio inside an
///   owed window (X-MAC and DMAC skip only with no timer pending, see
///   [`Ctx::pending_timers`]);
/// * no owed wake may reach the node's next wake, owed or simulated: a
///   protocol whose wakes can outlast their period owes none (the
///   engine checks the gaps of every run it charges);
/// * an elided exchange must be elided by every party to it, from the
///   same global predicate evaluated at the same instant (an LMAC slot
///   owner and its parent both decide at the slot's wake). A decision
///   made early, for wakes still to come, must be stable: an early skip
///   holds only from a bound that no event before those wakes can move
///   (a subtree's next sample, while it is packet-free), so every party
///   reads the same bound whenever it decides, and a no-skip decision
///   is made again, by every party, at the skipped wake itself.
///
/// Implementations must be `Send`, so a built
/// [`Simulation`](crate::Simulation) can be handed to another thread.
/// Nodes are plain data (queues, counters, schedule parameters), so
/// this is a bound in name only.
pub trait MacNode: std::fmt::Debug + Send {
    /// Called once at simulation start.
    fn start(&mut self, ctx: &mut Ctx<'_>);
    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, id: u64);
    /// A frame was received intact (the radio is back in listen mode).
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame);
    /// The frame passed to [`Ctx::send`] has left the antenna (the
    /// radio is back in listen mode).
    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>);
    /// The application sampled a new packet at this node.
    fn on_generate(&mut self, ctx: &mut Ctx<'_>, packet: Packet);
    /// The radio finished starting up after [`Ctx::wake`].
    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>);

    /// The next instant this node's schedule needs the engine to call
    /// [`MacNode::on_wake`], or `None` if the node is purely
    /// event-driven right now (timers and frames still arrive).
    ///
    /// Queried after [`MacNode::start`] and after every callback; the
    /// engine keeps at most one pending wake per node and supersedes it
    /// whenever the answer changes. Protocols that rely only on
    /// [`Ctx::set_timer`] (e.g. scripted test nodes) keep the default.
    fn next_activity(&mut self, _ctx: &mut Ctx<'_>) -> Option<SimTime> {
        None
    }

    /// Whether this node holds packets right now — queued, in flight,
    /// or awaiting a retry. Queried after every callback while the
    /// engine keeps quiet bookkeeping ([`Ctx::quiet_until`]).
    ///
    /// The quiet bound trusts the protocol's packets to move only
    /// sinkward: a packet this node holds was sampled here or came from
    /// a child, and leaves only for [`Ctx::parent`]. A protocol that
    /// sends packets anywhere else (flooding, detours, downstream
    /// traffic) must not replay against [`Ctx::quiet_until`].
    ///
    /// The default, `true`, keeps every depth from ever counting as
    /// quiet, so a protocol that does not answer is never replayed
    /// around.
    fn holds_packets(&self) -> bool {
        true
    }

    /// A wake requested through [`MacNode::next_activity`] is due.
    fn on_wake(&mut self, _ctx: &mut Ctx<'_>) {}
}
