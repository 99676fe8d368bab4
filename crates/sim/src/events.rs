//! The simulation's event vocabulary.
//!
//! Scheduling itself lives in [`crate::queue`]: both the air-event
//! scheduler and the wake schedule are [`HeapQueue`]s keyed by
//! [`OrderKey`]'s documented `(time, causal round, node order,
//! sequence)` ordering, so there is exactly one tie-break rule in the
//! engine.
//!
//! A transmission is queued once per shard that hears it, not once per
//! receiver: the frame and its receivers are recorded in the shard's
//! [`AirSlab`], and a single `AirStart` and a single `AirEnd` entry name
//! that record. Dispatch walks the receivers in neighbor order.
//!
//! [`HeapQueue`]: crate::queue::HeapQueue

use crate::frame::Frame;
use crate::queue::OrderKey;
use edmac_net::NodeId;

/// Everything that can happen in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// A node's application layer samples a new packet.
    Generate { node: NodeId },
    /// A protocol timer fires at `node`.
    Timer { node: NodeId, id: u64, tag: u32 },
    /// The radio of `node` finishes its startup transition; `token`
    /// invalidates events from startups aborted by a `sleep()`.
    RadioReady { node: NodeId, token: u64 },
    /// The first bit of the [`AirSlab`] record `tx` arrives at each of
    /// its receivers (propagation is treated as instantaneous at these
    /// ranges).
    AirStart { tx: u32 },
    /// The last bit of the record `tx` leaves the air at each of its
    /// receivers.
    AirEnd { tx: u32 },
    /// `node` finishes transmitting its current frame.
    TxDone { node: NodeId },
}

impl Event {
    /// The node a per-node event is delivered to (`None` for the air
    /// batches, whose receivers live in their record). The boundary
    /// `pending` lookahead keys on it.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Event::Generate { node }
            | Event::Timer { node, .. }
            | Event::RadioReady { node, .. }
            | Event::TxDone { node } => Some(*node),
            Event::AirStart { .. } | Event::AirEnd { .. } => None,
        }
    }
}

/// One frame on the air, as one shard hears it.
#[derive(Debug)]
pub(crate) struct Transmission {
    /// The transmitter's sequence number for this frame.
    pub tx_seq: u64,
    /// The frame itself (`frame.src` is the transmitter).
    pub frame: Frame,
    /// This shard's receivers, as indices into the transmitter's
    /// receivers in the realized link field, in that order (each entry
    /// there carries the received power).
    pub receivers: Vec<u32>,
}

/// A transmission's record for another shard, with the keys its two
/// air entries are queued under there: those of its first receiver in
/// that shard.
#[derive(Debug)]
pub(crate) struct AirBatch {
    pub start: OrderKey,
    pub end: OrderKey,
    pub tx: Transmission,
}

/// The transmissions a shard has on the air, addressed by the `tx`
/// index of [`Event::AirStart`]/[`Event::AirEnd`]. A record lives from
/// its `AirStart` until its `AirEnd` batch completes; freed slots keep
/// their receiver buffers for the next transmission.
#[derive(Debug, Default)]
pub(crate) struct AirSlab {
    records: Vec<Transmission>,
    free: Vec<u32>,
}

impl AirSlab {
    /// Opens a record with no receivers yet.
    pub fn open(&mut self, tx_seq: u64, frame: Frame) -> u32 {
        match self.free.pop() {
            Some(tx) => {
                let rec = &mut self.records[tx as usize];
                rec.tx_seq = tx_seq;
                rec.frame = frame;
                debug_assert!(rec.receivers.is_empty());
                tx
            }
            None => self.insert(Transmission {
                tx_seq,
                frame,
                receivers: Vec::new(),
            }),
        }
    }

    /// Stores a record built elsewhere (another shard's batch).
    pub fn insert(&mut self, record: Transmission) -> u32 {
        match self.free.pop() {
            Some(tx) => {
                self.records[tx as usize] = record;
                tx
            }
            None => {
                self.records.push(record);
                (self.records.len() - 1) as u32
            }
        }
    }

    /// Frees record `tx`, handing back its (emptied) receiver buffer.
    pub fn release(&mut self, tx: u32, mut receivers: Vec<u32>) {
        receivers.clear();
        self.records[tx as usize].receivers = receivers;
        self.free.push(tx);
    }
}

impl std::ops::Index<u32> for AirSlab {
    type Output = Transmission;

    fn index(&self, tx: u32) -> &Transmission {
        &self.records[tx as usize]
    }
}

impl std::ops::IndexMut<u32> for AirSlab {
    fn index_mut(&mut self, tx: u32) -> &mut Transmission {
        &mut self.records[tx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use crate::queue::Entry;
    use std::cmp::Reverse;

    #[test]
    fn event_node_extraction() {
        let e = Event::Timer {
            node: NodeId::new(4),
            id: 1,
            tag: 2,
        };
        assert_eq!(e.node(), Some(NodeId::new(4)));
        assert_eq!(Event::AirEnd { tx: 3 }.node(), None);
    }

    #[test]
    fn queue_entries_stay_small() {
        // Every timer and air batch is one heap entry; a variant that
        // carries a frame would bloat all of them again.
        assert!(std::mem::size_of::<Event>() <= 24);
        assert!(std::mem::size_of::<Reverse<Entry<Event>>>() <= 48);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let frame = Frame {
            kind: FrameKind::Control,
            src: NodeId::new(1),
            dst: None,
            packet: None,
        };
        let mut slab = AirSlab::default();
        let a = slab.open(7, frame);
        slab[a].receivers.extend([0, 2]);
        let b = slab.open(8, frame);
        assert_ne!(a, b);
        let buffer = std::mem::take(&mut slab[a].receivers);
        slab.release(a, buffer);
        let c = slab.open(9, frame);
        assert_eq!(c, a);
        assert_eq!(slab[c].tx_seq, 9);
        assert!(slab[c].receivers.is_empty());
    }
}
