//! Frames on the air and application packets inside them.

use crate::time::SimTime;
use edmac_net::NodeId;
use edmac_radio::{Cause, FrameSizes};
use edmac_units::Bytes;

/// Identifier of an application packet across its multi-hop journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An application packet: one sensor sample traveling to the sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// The node that sampled it.
    pub origin: NodeId,
    /// When it was sampled.
    pub created: SimTime,
    /// Hops traversed so far.
    pub hops: u32,
}

/// The link-layer frame types the three protocols exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A data frame carrying one [`Packet`].
    Data,
    /// A link-layer acknowledgement for a data frame.
    Ack,
    /// An X-MAC preamble strobe (addressed; carries no packet).
    Strobe,
    /// The receiver's early answer to a strobe.
    StrobeAck,
    /// A schedule-synchronization frame.
    Sync,
    /// An LMAC per-slot control section.
    Control,
}

impl FrameKind {
    /// The wire size of this frame kind under `sizes`.
    pub fn size(self, sizes: &FrameSizes) -> Bytes {
        match self {
            FrameKind::Data => sizes.data,
            FrameKind::Ack | FrameKind::StrobeAck => sizes.ack,
            FrameKind::Strobe => sizes.strobe,
            FrameKind::Sync => sizes.sync,
            FrameKind::Control => sizes.control,
        }
    }

    /// The ledger cause charged to the *transmitter* of this frame,
    /// chosen to mirror the analytical models' bucketing: acks are part
    /// of the exchange the peer initiated (an `Ack` tx belongs to the
    /// receive cost `Erx`), control/sync traffic goes to `Estx`.
    pub fn tx_cause(self) -> Cause {
        match self {
            FrameKind::Data | FrameKind::Strobe => Cause::DataTx,
            FrameKind::Ack | FrameKind::StrobeAck => Cause::DataRx,
            FrameKind::Sync | FrameKind::Control => Cause::SyncTx,
        }
    }

    /// The ledger cause charged to a *receiver* of this frame;
    /// `addressed` tells whether the frame was for that node.
    pub fn rx_cause(self, addressed: bool) -> Cause {
        match (self, addressed) {
            (FrameKind::Data | FrameKind::Strobe, true) => Cause::DataRx,
            (FrameKind::Data | FrameKind::Strobe, false) => Cause::Overhearing,
            // Hearing an ack back closes the exchange this node's own
            // transmission opened.
            (FrameKind::Ack | FrameKind::StrobeAck, true) => Cause::DataTx,
            (FrameKind::Ack | FrameKind::StrobeAck, false) => Cause::Overhearing,
            (FrameKind::Sync | FrameKind::Control, _) => Cause::SyncRx,
        }
    }
}

impl FrameKind {
    /// All frame kinds, in a stable order (for counter tables).
    pub const ALL: [FrameKind; 6] = [
        FrameKind::Data,
        FrameKind::Ack,
        FrameKind::Strobe,
        FrameKind::StrobeAck,
        FrameKind::Sync,
        FrameKind::Control,
    ];

    /// Stable index of this kind within [`FrameKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Strobe => 2,
            FrameKind::StrobeAck => 3,
            FrameKind::Sync => 4,
            FrameKind::Control => 5,
        }
    }
}

/// Per-node frame accounting: what went over this node's antenna, what
/// landed intact, and how often receptions were corrupted by collisions.
///
/// Collected by the engine for every node; exposed through
/// [`NodeStats`](crate::NodeStats). Useful both for debugging protocol
/// state machines and for asserting structural claims (e.g. a correct
/// distance-2 TDMA schedule shows zero collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameCounters {
    tx: [u64; 6],
    rx: [u64; 6],
    collisions: u64,
    captured: u64,
    below_noise: u64,
}

impl FrameCounters {
    /// Frames of `kind` this node transmitted.
    pub fn tx(&self, kind: FrameKind) -> u64 {
        self.tx[kind.index()]
    }

    /// Frames of `kind` this node received intact (addressed or
    /// overheard).
    pub fn rx(&self, kind: FrameKind) -> u64 {
        self.rx[kind.index()]
    }

    /// Receptions at this node that were *destroyed* by overlapping
    /// transmissions: any overlap with capture off, or SINR dipping
    /// below the capture threshold with capture on.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Receptions that survived an overlap because SINR capture rode
    /// it out. 0 unless capture is on; every captured frame is also
    /// counted in [`rx`](Self::rx).
    pub fn captured(&self) -> u64 {
        self.captured
    }

    /// Arrivals whose received power was below the radio's sensitivity
    /// while this node was listening unlocked — audible energy the
    /// radio could never sync on. 0 wherever every air link clears the
    /// sensitivity (always on the unit disk).
    pub fn below_noise(&self) -> u64 {
        self.below_noise
    }

    /// Total frames transmitted, all kinds.
    pub fn tx_total(&self) -> u64 {
        self.tx.iter().sum()
    }

    /// Total frames received intact, all kinds.
    pub fn rx_total(&self) -> u64 {
        self.rx.iter().sum()
    }

    /// Counts `n` transmissions of `kind` (more than one for replayed
    /// wakes).
    pub(crate) fn record_tx(&mut self, kind: FrameKind, n: u64) {
        self.tx[kind.index()] += n;
    }

    /// Counts `n` receptions of `kind` (more than one for replayed
    /// wakes).
    pub(crate) fn record_rx(&mut self, kind: FrameKind, n: u64) {
        self.rx[kind.index()] += n;
    }

    pub(crate) fn record_collision(&mut self) {
        self.collisions += 1;
    }

    pub(crate) fn record_captured(&mut self) {
        self.captured += 1;
    }

    pub(crate) fn record_below_noise(&mut self) {
        self.below_noise += 1;
    }
}

impl std::fmt::Display for FrameCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tx: data={} ack={} strobe={} sack={} sync={} ctl={} | rx total={} | collisions={}",
            self.tx[0],
            self.tx[1],
            self.tx[2],
            self.tx[3],
            self.tx[4],
            self.tx[5],
            self.rx_total(),
            self.collisions
        )
    }
}

/// A frame in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameKind,
    /// Transmitter.
    pub src: NodeId,
    /// Addressee; `None` broadcasts (sync/control frames).
    pub dst: Option<NodeId>,
    /// The application packet carried (data frames only).
    pub packet: Option<Packet>,
}

impl Frame {
    /// Returns `true` if `node` is an addressee of this frame.
    pub fn addressed_to(&self, node: NodeId) -> bool {
        match self.dst {
            Some(d) => d == node,
            None => true, // broadcast addresses everyone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_frame_sizes_table() {
        let sizes = FrameSizes::default();
        assert_eq!(FrameKind::Data.size(&sizes), sizes.data);
        assert_eq!(FrameKind::Ack.size(&sizes), sizes.ack);
        assert_eq!(FrameKind::StrobeAck.size(&sizes), sizes.ack);
        assert_eq!(FrameKind::Strobe.size(&sizes), sizes.strobe);
        assert_eq!(FrameKind::Sync.size(&sizes), sizes.sync);
        assert_eq!(FrameKind::Control.size(&sizes), sizes.control);
    }

    #[test]
    fn cause_mapping_mirrors_analytic_buckets() {
        assert_eq!(FrameKind::Data.tx_cause(), Cause::DataTx);
        assert_eq!(FrameKind::Ack.tx_cause(), Cause::DataRx);
        assert_eq!(FrameKind::Control.tx_cause(), Cause::SyncTx);
        assert_eq!(FrameKind::Data.rx_cause(true), Cause::DataRx);
        assert_eq!(FrameKind::Data.rx_cause(false), Cause::Overhearing);
        assert_eq!(FrameKind::Ack.rx_cause(true), Cause::DataTx);
        assert_eq!(FrameKind::Sync.rx_cause(true), Cause::SyncRx);
        assert_eq!(FrameKind::Sync.rx_cause(false), Cause::SyncRx);
    }

    #[test]
    fn broadcast_addresses_everyone() {
        let f = Frame {
            kind: FrameKind::Control,
            src: NodeId::new(3),
            dst: None,
            packet: None,
        };
        assert!(f.addressed_to(NodeId::new(0)));
        assert!(f.addressed_to(NodeId::new(9)));
        let unicast = Frame {
            dst: Some(NodeId::new(4)),
            ..f
        };
        assert!(unicast.addressed_to(NodeId::new(4)));
        assert!(!unicast.addressed_to(NodeId::new(5)));
    }
}
