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
//!   in-range owner exists (distance-2 reuse), it transmits its control
//!   (it is asleep at its slot's wake, see below), and the addressee
//!   can only be its parent — so the whole wake (startup, one control
//!   reception, sleep) is deterministic: a received control;
//! * **silent slots** — no in-range owner: a startup, 300 µs of
//!   provable silence and sleep, a silent listen.
//!
//! That classification is the idle pattern of the node's wake clock
//! ([`Ctx::set_wake_clock`]): own slots send a control, heard and child
//! slots receive one, and the rest listen to silence. Under
//! [`WakeMode::Coarse`] the node schedules wakes only for the first
//! class and owes the rest ([`Ctx::owe_wakes`]); under
//! [`WakeMode::Dense`] it wakes at every boundary like the original
//! engine. Both produce bit-identical reports (the `wake_equivalence`
//! golden tests). The engine charges the owed slots between two wakes
//! as one run, in one step, counting each shape of the run from the
//! pattern without visiting the slots.
//!
//! Slots are elided only where a slot outlasts two radio startups, a
//! control, a data frame and a millisecond. Every slot's activity, even
//! slot 0's (woken at time zero rather than a startup early), then ends
//! a millisecond before the next slot's wake: in a schedule-proven run
//! every radio is asleep at every slot wake, so an owner never misses
//! its own slot and no frame of one slot reaches into the next. Shorter
//! slots are all simulated: there, a parent still receiving its child's
//! data at the next slot's wake would skip its own slot, and a heard
//! slot could be silent.
//!
//! The first class is data-dependent only while the slot's owner has
//! data. When the owner holds no packet and samples none before its
//! control ends ([`Ctx::packet_free_until`]), the owner's control is a
//! bare heartbeat and its parent hears exactly that: both owe the wake,
//! the owner's pattern charging it as a transmitted control and the
//! parent's as a received one.
//!
//! A heartbeat stays bare for as long as the owner's whole routing
//! subtree stays packet-free: packets enter a subtree only at samples
//! inside it and climb only to parents, so the owner cannot hold one
//! before the subtree's next sample ([`Ctx::subtree_free_until`]). An
//! owed heartbeat therefore also skips the slot's index ahead to the
//! first frame whose control does not end strictly before that bound;
//! the heartbeats in between join the owed run, and are charged in the
//! same one step as the heard and silent slots around them. Owner
//! and parent decide at the slot's wake, from the same predicate about
//! the same pair at the same instant, so they never disagree (a
//! condition only one side can see, such as the owner's pending timers,
//! could let the owner skip a control its parent then waits for). A
//! skip, once decided, is stable: the subtree stays empty until its
//! next sample, a fixed instant every evaluator reads the same. A slot
//! not skipped is decided again at its own wake. Slot 0, the one slot
//! every node wakes for, is owed as heard or silent by every node it is
//! neither the own nor a child slot of.

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

/// A slot index whose outcome is data-dependent for this node: its own
/// slot or a tree child's.
#[derive(Debug, Clone, Copy)]
struct Relevant {
    index: usize,
    /// The tree child owning the slot (data may be addressed to this
    /// node there), `None` for the own slot. Ids are the network's own;
    /// they name engine nodes only in a single-network run, the only
    /// kind in which [`Ctx::packet_free_until`] and
    /// [`Ctx::subtree_free_until`] look at them.
    child: Option<NodeId>,
    /// The next global slot of this index to wake for (coarse mode).
    /// The slots of this index between the last wake and this one are
    /// bare heartbeats, owed with the elided slots around them.
    next: u64,
}

/// The LMAC per-node state machine.
#[derive(Debug)]
pub(crate) struct LmacNode {
    slot: Seconds,
    frame_slots: usize,
    my_slot: usize,
    /// The own and child slot indices, ascending: simulated wakes.
    relevant: Vec<Relevant>,
    /// Per slot index, whether an elided slot there is a received
    /// control: a *heard* slot, owned by a non-child in-range neighbor,
    /// or a child slot, elided only as a bare heartbeat. Handed to the
    /// wake clock at start.
    received: Vec<bool>,
    coarse: bool,
    phase: Phase,
    queue: VecDeque<Packet>,
    /// Global index of the next boundary this node will wake for.
    next_slot: u64,
    /// Global index of the boundary currently being handled.
    current_slot: u64,
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
        let relevant = (0..frame_slots)
            .filter(|&i| i == my_slot || child_owners[i].is_some())
            .map(|index| Relevant {
                index,
                child: child_owners[index],
                next: index as u64,
            })
            .collect();
        let received = heard_slots
            .iter()
            .zip(&child_owners)
            .map(|(&heard, child)| heard || child.is_some())
            .collect();
        LmacNode {
            slot,
            frame_slots,
            my_slot,
            relevant,
            received,
            coarse: scheduling == WakeMode::Coarse,
            phase: Phase::Sleeping,
            queue: VecDeque::new(),
            next_slot: 0,
            current_slot: 0,
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

    /// The owner of relevant slot `e` and its parent, the only nodes
    /// that simulate the slot: `(me, my parent)` in the own slot,
    /// `(child, me)` in a child's.
    fn heartbeat_pair(&self, ctx: &Ctx<'_>, e: usize) -> (NodeId, Option<NodeId>) {
        match self.relevant[e].child {
            None => (ctx.me(), ctx.parent()),
            Some(child) => (child, Some(ctx.me())),
        }
    }

    /// Whether slot `k` is provably a bare heartbeat from `owner` that
    /// `parent` hears cleanly: the owner packet-free until past its
    /// control's end. Owner and parent evaluate this same predicate at
    /// the same instant, so they always agree on whether the slot is
    /// owed.
    fn bare_heartbeat(&self, ctx: &Ctx<'_>, k: u64, owner: NodeId, parent: Option<NodeId>) -> bool {
        let bare = ctx
            .wake_clock()
            .closes_before(k, ctx.packet_free_until(owner));
        debug_assert!(
            !bare || (ctx.is_asleep(owner) && parent.is_none_or(|p| ctx.is_asleep(p))),
            "slot {k}: a heartbeat pair is awake at the slot's wake"
        );
        bare
    }
}

impl MacNode for LmacNode {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Slots are elided only where every slot's activity (a control,
        // then at once the data, if any), even slot 0's, led by a startup
        // from time zero, ends a millisecond before the next slot's wake;
        // otherwise every slot is simulated.
        self.coarse &= ctx.startup_delay() * 2.0
            + ctx.airtime(FrameKind::Control)
            + ctx.airtime(FrameKind::Data)
            + Seconds::from_millis(1.0)
            < self.slot;
        // Wake `k` leads slot `k` by a startup. An elided own slot is a
        // bare heartbeat sent, a received slot one heard, and any other
        // provable silence: a startup, the control timeout, and sleep.
        let nanos = |s: Seconds| SimTime::from_seconds(s).as_nanos();
        let silent = IdleWake::Listen(nanos(ctx.startup_delay()) + nanos(control_timeout()));
        let received = std::mem::take(&mut self.received);
        let pattern = received.iter().enumerate().map(|(i, &received)| match i {
            _ if i == self.my_slot => (IdleWake::Transmit(FrameKind::Control), Cause::SyncTx),
            _ if received => (IdleWake::Receive(FrameKind::Control), Cause::SyncRx),
            _ => (silent, Cause::SyncRx),
        });
        ctx.set_wake_clock(self.slot, Seconds::ZERO, ctx.startup_delay(), pattern);
        // Every node attends slot 0 (silent or not, the dense schedule
        // starts there); `next_activity` takes it from here.
        self.next_slot = 0;
    }

    fn next_activity(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        Some(ctx.wake_clock().at(self.next_slot))
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let k = self.next_slot;
        self.current_slot = k;
        let i = self.index(k);
        let entry = self.relevant.iter().position(|r| r.index == i);
        let asleep = self.phase == Phase::Sleeping;
        let pair = entry.map(|e| self.heartbeat_pair(ctx, e));
        let bare = self.coarse
            && pair.is_some_and(|(owner, parent)| self.bare_heartbeat(ctx, k, owner, parent));
        // Slot 0, which every node attends, is heard or silent like any
        // elided slot for a node neither owning it nor parent to its
        // owner, so that an owner eliding its heartbeat there leaves no
        // listener waiting: it joins the owed run of elided slots, as
        // does a bare heartbeat.
        let elided = self.coarse && asleep && (pair.is_none() || bare);
        let frame = self.frame_slots as u64;
        if let Some((e, (owner, _))) = entry.zip(pair) {
            // A bare heartbeat stays bare until the owner's subtree can
            // next hold a packet; any other slot is decided anew at the
            // next frame's wake.
            self.relevant[e].next = if bare {
                let bound = ctx.subtree_free_until(owner);
                ctx.wake_clock().first_reaching(k + frame, bound)
            } else {
                k + frame
            };
        }
        self.next_slot = if self.coarse {
            self.relevant
                .iter()
                .map(|r| r.next)
                .min()
                .expect("the own slot is relevant")
        } else {
            k + 1
        };
        // A node still busy from the previous slot (e.g. long data
        // reception, dense mode only) skips this boundary.
        if asleep && !elided {
            self.phase = Phase::WakingForSlot;
            ctx.wake(if self.owns(k) {
                Cause::SyncTx
            } else {
                Cause::SyncRx
            });
        }
        // The slots up to the next wake are elided, and so is this one
        // if owed; the radio is asleep before the first of them is due.
        ctx.owe_wakes(if elided { k } else { k + 1 }..self.next_slot);
    }

    fn holds_packets(&self) -> bool {
        !self.queue.is_empty()
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
