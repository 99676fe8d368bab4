//! LMAC node: frame-based TDMA with per-slot control sections.
//!
//! Time is a sequence of frames of `N` slots of length `Ts`. Every node
//! owns one slot — a random distance-2-free slot claimed at build time
//! ([`edmac_net::random_slot_assignment`]), standing in for LMAC's
//! distributed slot-claiming phase in steady state (the analytical
//! model's half-frame-per-hop term assumes exactly this uncorrelated
//! layout). At every slot boundary all
//! nodes wake and listen to the owner's control section: if it names
//! them as data addressee they stay up for the data, otherwise they
//! sleep until the next slot. Owners always transmit their control
//! section (the schedule heartbeat) and append at most one queued data
//! frame per slot.
//!
//! # Event-coarse scheduling
//!
//! The distance-2 slot assignment is static, so a node can classify
//! every slot index up front:
//!
//! * **own / child slots** — the outcome is data-dependent (we
//!   transmit, or a child's control may name us as data addressee):
//!   these are the only slots that need simulated wakes;
//! * **heard slots** — a non-child neighbor owns the slot. Exactly one
//!   in-range owner exists (distance-2 reuse), it always transmits its
//!   control, and the addressee can only be its parent — so the whole
//!   wake (startup, one control reception, sleep) is deterministic and
//!   replays through [`Ctx::replay_idle_wakes`] as a received control;
//! * **silent slots** — no in-range owner: a startup, 300 µs of
//!   provable silence and sleep, replayed as a silent listen.
//!
//! Under [`WakeMode::Coarse`] the node schedules wakes only for the
//! first class and replays the rest; under [`WakeMode::Dense`] it
//! wakes at every boundary like the original engine. Both produce
//! bit-identical reports (the `wake_equivalence` golden tests). The
//! heard and silent slots between two wakes are replayed as one run, in
//! one step: a per-index prefix count of the heard slots gives how many
//! of the run's slots were heard without visiting them. Where a heard
//! or silent wake could outlast its slot, no slot is elided.
//!
//! The first class is data-dependent only while the slot's owner has
//! data. When the owner holds no packet and samples none before its
//! control ends ([`Ctx::packet_free_until`], the per-node bound behind
//! [`Ctx::quiet_until`]), and both the owner and its parent are asleep
//! at the slot's wake, the owner's control is a bare heartbeat and the
//! parent hears exactly that: the owner replays its wake as a
//! transmitted control and the parent as a received one. Both decide
//! at the slot's wake instant from the same predicate about the same
//! pair, so they never disagree — a condition only one side can see
//! (the owner's pending timers, say) could let the owner skip a
//! control its parent then waits for. Slots short of a control plus a
//! data frame plus a millisecond never replay this way, so no frame of
//! another slot can overlap the heartbeat. These slots still cost a
//! wake each, but no radio startup event, timer or air event. Slot 0,
//! the one slot every node wakes for, replays as heard or silent for
//! every node it is neither the own nor a child slot of.

use super::wakes_clear;
use crate::engine::{Ctx, IdleWake, MacNode, WakeMode};
use crate::frame::{Frame, FrameKind, Packet};
use crate::time::SimTime;
use edmac_net::NodeId;
use edmac_radio::Cause;
use edmac_units::Seconds;
use std::collections::VecDeque;

const TAG_CONTROL_MISSING: u32 = 2;
const TAG_DATA_TIMEOUT: u32 = 3;

/// How long a listener samples a slot head before declaring it silent.
fn control_timeout() -> Seconds {
    Seconds::from_micros(300.0)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Sleeping,
    /// Waking for a slot boundary.
    WakingForSlot,
    /// Listening for the slot owner's control section.
    AwaitingControl,
    /// Own slot: control section on the air.
    SendingControl {
        data_follows: bool,
    },
    /// Own slot: data frame on the air.
    SendingData,
    /// Named as addressee: waiting for the data frame.
    AwaitingData,
}

/// The LMAC per-node state machine.
#[derive(Debug)]
pub(crate) struct LmacNode {
    slot: Seconds,
    frame_slots: usize,
    my_slot: usize,
    /// Per slot index, the tree child owning it (data may be addressed
    /// to this node there): simulated wakes. Ids are the network's own;
    /// they name engine nodes only in a single-network run, the only
    /// kind in which [`Ctx::is_asleep`] and [`Ctx::packet_free_until`]
    /// look at them.
    child_owners: Vec<Option<NodeId>>,
    /// `heard_before[i]`: how many of slot indices `0..i` are *heard*
    /// slots, owned by non-child in-range neighbors and replayed as
    /// deterministic heard controls (`frame_slots + 1` entries), so that
    /// the heard slots of any run of global slots are counted without
    /// visiting them.
    heard_before: Vec<u32>,
    /// The radio startup, in seconds, that each wake leads its slot by.
    startup: f64,
    coarse: bool,
    phase: Phase,
    queue: VecDeque<Packet>,
    /// Global index of the next boundary this node will wake for.
    next_slot: u64,
    /// Global index of the boundary currently being handled.
    current_slot: u64,
    /// First global slot index not yet simulated or replayed.
    replay_from: u64,
    /// Whether a slot outlasts a control plus a data frame with a
    /// millisecond to spare, so no frame of one slot reaches into the
    /// next and a bare heartbeat is heard cleanly.
    heartbeats_fit: bool,
    /// Per slot index: how many slots on the next own or child slot
    /// index lies (0 for those themselves).
    to_relevant: Vec<u32>,
    control_timer: u64,
    data_timer: u64,
}

impl LmacNode {
    pub fn new(
        slot: Seconds,
        frame_slots: usize,
        my_slot: usize,
        child_owners: Vec<Option<NodeId>>,
        heard_slots: Vec<bool>,
        scheduling: WakeMode,
    ) -> LmacNode {
        assert!(my_slot < frame_slots, "slot assignment exceeds frame");
        assert_eq!(child_owners.len(), frame_slots, "mask must cover the frame");
        assert_eq!(heard_slots.len(), frame_slots, "mask must cover the frame");
        let relevant = |i: usize| i == my_slot || child_owners[i].is_some();
        let to_relevant = (0..frame_slots)
            .map(|i| {
                (0..frame_slots)
                    .position(|d| relevant((i + d) % frame_slots))
                    .expect("the own slot is relevant") as u32
            })
            .collect();
        let heard_before = std::iter::once(0)
            .chain(heard_slots.iter().scan(0, |n, &heard| {
                *n += u32::from(heard);
                Some(*n)
            }))
            .collect();
        LmacNode {
            slot,
            frame_slots,
            my_slot,
            child_owners,
            heard_before,
            startup: 0.0,
            heartbeats_fit: false,
            coarse: scheduling == WakeMode::Coarse,
            phase: Phase::Sleeping,
            queue: VecDeque::new(),
            next_slot: 0,
            current_slot: 0,
            replay_from: 0,
            to_relevant,
            control_timer: u64::MAX,
            data_timer: u64::MAX,
        }
    }

    /// The index within the frame of global slot `k`.
    fn index(&self, k: u64) -> usize {
        (k % self.frame_slots as u64) as usize
    }

    /// Whether global slot index `k` belongs to this node.
    fn owns(&self, k: u64) -> bool {
        self.index(k) == self.my_slot
    }

    /// How many heard slots global slots `0..k` hold.
    fn heard_upto(&self, k: u64) -> u64 {
        let per_frame = u64::from(self.heard_before[self.frame_slots]);
        (k / self.frame_slots as u64) * per_frame + u64::from(self.heard_before[self.index(k)])
    }

    /// Replays, in one step, the elided slots from `replay_from` up to
    /// `to` whose wake instant is due by now (the dense scheduler woke
    /// for exactly those). Each is a deterministic heard control if an
    /// in-range non-child owns it, provable silence otherwise: a
    /// startup, the control timeout of silence, and sleep.
    fn replay_elided(&mut self, ctx: &mut Ctx<'_>, to: u64) {
        let nanos = |s: Seconds| SimTime::from_seconds(s).as_nanos();
        let silent = IdleWake::Listen(nanos(ctx.startup_delay()) + nanos(control_timeout()));
        let heard = IdleWake::Receive(FrameKind::Control);
        let slots = self.replay_from..to;
        self.replay_from = ctx.replay_idle_wakes(
            slots,
            |k| self.lead(k),
            Cause::SyncRx,
            [silent, heard],
            |r| self.heard_upto(r.end) - self.heard_upto(r.start),
        );
    }

    /// The owner of slot `k` and its parent, if this node is one of the
    /// two: `(me, my parent)` in the own slot, `(child, me)` in a
    /// child's. These are the only nodes that simulate the slot.
    fn heartbeat_pair(&self, ctx: &Ctx<'_>, k: u64) -> Option<(NodeId, Option<NodeId>)> {
        let i = self.index(k);
        if i == self.my_slot {
            Some((ctx.me(), ctx.parent()))
        } else {
            self.child_owners[i].map(|child| (child, Some(ctx.me())))
        }
    }

    /// Whether slot `k` is provably a bare heartbeat from `owner` that
    /// `parent` hears cleanly: both radios asleep at the slot's wake,
    /// and the owner packet-free until past its control's end. Owner
    /// and parent evaluate this same predicate at the same instant, so
    /// they always agree on whether the slot is replayed.
    fn bare_heartbeat(&self, ctx: &Ctx<'_>, k: u64, owner: NodeId, parent: Option<NodeId>) -> bool {
        let control_end = self
            .lead(k)
            .after(ctx.startup_delay())
            .after(ctx.airtime(FrameKind::Control));
        self.heartbeats_fit
            && ctx.is_asleep(owner)
            && parent.is_none_or(|p| ctx.is_asleep(p))
            && control_end < ctx.packet_free_until(owner)
    }

    /// The smallest relevant slot index `>= from` (any slot in dense
    /// mode; the own slot bounds the scan in coarse mode).
    fn next_relevant(&self, from: u64) -> u64 {
        if !self.coarse {
            return from;
        }
        from + u64::from(self.to_relevant[self.index(from)])
    }

    /// The wake instant for global slot `k` (one startup early).
    fn lead(&self, k: u64) -> SimTime {
        let at = self.slot.value() * k as f64 - self.startup;
        SimTime::from_seconds(Seconds::new(at.max(0.0)))
    }
}

impl MacNode for LmacNode {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Slots are elided only where each wake, heard or silent, ends
        // before the next slot's wake, even the first (led by a startup
        // from time zero); otherwise every slot is simulated.
        let heard = ctx.airtime(FrameKind::Control).max(control_timeout());
        self.coarse &= wakes_clear(ctx.startup_delay() * 2.0 + heard, self.slot);
        self.heartbeats_fit = ctx.airtime(FrameKind::Control)
            + ctx.airtime(FrameKind::Data)
            + Seconds::from_millis(1.0)
            < self.slot;
        self.startup = ctx.startup_delay().value();
        // Every node attends slot 0 (silent or not, the dense schedule
        // starts there); `next_activity` takes it from here.
        self.next_slot = 0;
    }

    fn next_activity(&mut self, _ctx: &mut Ctx<'_>) -> Option<SimTime> {
        Some(self.lead(self.next_slot))
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let k = self.next_slot;
        self.current_slot = k;
        // Commit the next boundary first, so a crash in this slot's
        // logic cannot stall the schedule.
        self.next_slot = self.next_relevant(k + 1);
        let pair = self.heartbeat_pair(ctx, k);
        // Slot 0, which every node attends, is heard or silent like any
        // elided slot for a node neither owning it nor parent to its
        // owner, so that an owner replaying its heartbeat there leaves
        // no listener waiting: it joins the run of elided slots the
        // coarse schedule jumped over (empty in dense mode).
        let elided = self.coarse && self.phase == Phase::Sleeping && pair.is_none();
        self.replay_elided(ctx, if elided { k + 1 } else { k });
        self.replay_from = k + 1;
        if elided {
            return;
        }
        if self.phase != Phase::Sleeping {
            // Still busy from the previous slot (e.g. long data
            // reception): skip this boundary.
            return;
        }
        if self.coarse {
            let bare = |&(owner, parent): &(NodeId, Option<NodeId>)| {
                self.bare_heartbeat(ctx, k, owner, parent)
            };
            if let Some((owner, _)) = pair.filter(bare) {
                let (cause, wake) = if owner == ctx.me() {
                    (Cause::SyncTx, IdleWake::Transmit(FrameKind::Control))
                } else {
                    (Cause::SyncRx, IdleWake::Receive(FrameKind::Control))
                };
                let at = self.lead(k);
                ctx.replay_idle_wakes(k..k + 1, |_| at, cause, [wake; 2], |_| 0);
                return;
            }
        }
        self.phase = Phase::WakingForSlot;
        let cause = if self.owns(k) {
            Cause::SyncTx
        } else {
            Cause::SyncRx
        };
        ctx.wake(cause);
    }

    fn holds_packets(&self) -> bool {
        !self.queue.is_empty()
    }

    fn on_horizon(&mut self, ctx: &mut Ctx<'_>) {
        // Heard/silent slots still pending when the run ended.
        self.replay_elided(ctx, self.next_slot);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u32, id: u64) {
        match tag {
            TAG_CONTROL_MISSING if id == self.control_timer => {
                if self.phase != Phase::AwaitingControl {
                    return;
                }
                if ctx.is_receiving() {
                    // A frame (hopefully the control) is mid-air: extend
                    // instead of abandoning the timer — a corrupted
                    // reception produces no callback, and without a
                    // pending timer the node would listen forever.
                    self.control_timer = ctx.set_timer(control_timeout(), TAG_CONTROL_MISSING);
                } else {
                    // Empty or corrupted control section: sleep until
                    // the next slot.
                    self.phase = Phase::Sleeping;
                    ctx.sleep();
                }
            }
            TAG_DATA_TIMEOUT if id == self.data_timer => {
                if self.phase != Phase::AwaitingData {
                    return;
                }
                if ctx.is_receiving() {
                    self.data_timer = ctx.set_timer(Seconds::from_millis(1.0), TAG_DATA_TIMEOUT);
                } else {
                    self.phase = Phase::Sleeping;
                    ctx.sleep();
                }
            }
            _ => {}
        }
    }

    fn on_radio_ready(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::WakingForSlot {
            return;
        }
        // We are at the slot boundary now (the wake-up led by exactly
        // the startup delay).
        let current = self.current_slot;
        if self.owns(current) {
            let data_follows = !self.queue.is_empty() && !ctx.is_sink();
            let dst = if data_follows { ctx.parent() } else { None };
            self.phase = Phase::SendingControl { data_follows };
            ctx.send(FrameKind::Control, dst, None);
        } else {
            self.phase = Phase::AwaitingControl;
            // Real listeners sample the slot head: if no carrier shows
            // within a CCA-scale window the slot is silent (no owner in
            // range this frame) and the radio goes straight back down.
            // An in-progress reception makes the timer a no-op.
            self.control_timer = ctx.set_timer(control_timeout(), TAG_CONTROL_MISSING);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        let me = ctx.me();
        match frame.kind {
            FrameKind::Control => {
                if self.phase != Phase::AwaitingControl {
                    return;
                }
                // The pending control timer dies by id mismatch once a
                // new one is set, and by the phase guard otherwise; no
                // cancellation bookkeeping needed on this hot path.
                if frame.dst == Some(me) {
                    // The owner's data is for us: stay up.
                    self.phase = Phase::AwaitingData;
                    let timeout = ctx.airtime(FrameKind::Data) + Seconds::from_millis(1.0);
                    self.data_timer = ctx.set_timer(timeout, TAG_DATA_TIMEOUT);
                } else {
                    // Not for us: sleep for the rest of the slot.
                    self.phase = Phase::Sleeping;
                    ctx.sleep();
                }
            }
            FrameKind::Data if frame.addressed_to(me) && self.phase == Phase::AwaitingData => {
                let mut packet = frame.packet.expect("data frames carry packets");
                packet.hops += 1;
                if ctx.is_sink() {
                    ctx.deliver(packet);
                } else {
                    self.queue.push_back(packet);
                }
                self.phase = Phase::Sleeping;
                ctx.sleep();
            }
            _ => {}
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        match self.phase {
            Phase::SendingControl { data_follows } => {
                if data_follows {
                    let packet = self
                        .queue
                        .pop_front()
                        .expect("data_follows implies a queued packet");
                    let parent = ctx.parent().expect("non-sink nodes have parents");
                    self.phase = Phase::SendingData;
                    ctx.send(FrameKind::Data, Some(parent), Some(packet));
                } else {
                    self.phase = Phase::Sleeping;
                    ctx.sleep();
                }
            }
            Phase::SendingData => {
                // TDMA: no ack needed, the slot is collision-free by
                // construction.
                self.phase = Phase::Sleeping;
                ctx.sleep();
            }
            _ => {}
        }
    }

    fn on_generate(&mut self, _ctx: &mut Ctx<'_>, packet: Packet) {
        // Data waits for the own slot.
        self.queue.push_back(packet);
    }
}
