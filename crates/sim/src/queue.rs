//! The engine's priority queue: one named ordering key and one
//! binary-heap queue over it.
//!
//! Both engine queues — the per-shard wake schedule and the air-event
//! scheduler — are [`HeapQueue`]s keyed by [`OrderKey`], so the
//! tie-break policy is written down exactly once. A bucketed calendar
//! queue and a single merged wake+event heap were both measured slower
//! than these two plain binary heaps at every size the engine runs
//! (80 to 100 000 nodes); see the README's "Event queues" paragraph.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The total order every engine queue pops in: **time, then causal
/// round, then global node order, then per-node sequence**
/// (lexicographic, via the derived `Ord`).
///
/// * `at` — absolute firing time; earlier fires first.
/// * `round` — the causal depth *within* one instant: entries
///   scheduled for a future instant carry round 0; an entry created
///   by a handler for the **same** instant it runs at carries the
///   triggering entry's round plus one. This reproduces, without any
///   global counter, the old engine's scheduling-order tie-break:
///   everything already pending at an instant is processed before
///   anything spawned *during* that instant (e.g. a strobe's `TxDone`
///   fires before the receiver's same-instant early-ack `AirStart`
///   reaches the transmitter). Round is intrinsic causal depth, so it
///   is identical in every sharding.
/// * `node` — the *global* index of the owning node: the woken node
///   for wake entries, the scheduling node for events. Breaking time
///   ties on the global node index (never on a queue-global insertion
///   counter) is what makes the order independent of how the
///   simulation is sharded.
/// * `seq` — a per-node monotone sequence (the wake token for wakes,
///   the node's event counter for events), ordering a node's
///   same-instant insertions among themselves.
///
/// Keys are unique within a queue by construction (`seq` never
/// repeats for a `node`), so the order is total and the queue needs
/// no stability guarantee beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    /// Absolute firing time.
    pub at: SimTime,
    /// Same-instant causal depth (first tie-break).
    pub round: u32,
    /// Global index of the owning node (second tie-break).
    pub node: u32,
    /// Per-node monotone sequence number (last tie-break).
    pub seq: u64,
}

/// Heap entry ordered by key alone (payloads never compare).
#[derive(Debug)]
pub(crate) struct Entry<T> {
    key: OrderKey,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic min-priority queue over [`OrderKey`]s: a
/// `BinaryHeap<Reverse<_>>` whose entries compare by key alone.
///
/// Keys are unique, so the pop order is exactly [`OrderKey`]'s total
/// order; `crates/sim/tests/queue_properties.rs` checks it against a
/// sorted-`Vec` oracle on randomized schedules.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue::default()
    }

    /// Inserts `item` under `key`.
    pub fn schedule(&mut self, key: OrderKey, item: T) {
        self.heap.push(Reverse(Entry { key, item }));
    }

    /// Removes and returns the minimum-key entry, if any.
    pub fn pop(&mut self) -> Option<(OrderKey, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.item))
    }

    /// The minimum pending key, if any.
    pub fn peek_key(&self) -> Option<OrderKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ns: u64, node: u32, seq: u64) -> OrderKey {
        OrderKey {
            at: SimTime::from_nanos(ns),
            round: 0,
            node,
            seq,
        }
    }

    #[test]
    fn order_key_is_time_then_round_then_node_then_seq() {
        assert!(key(1, 9, 9) < key(2, 0, 0));
        assert!(key(5, 1, 9) < key(5, 2, 0));
        assert!(key(5, 1, 1) < key(5, 1, 2));
        // A same-instant causal child sorts after every entry that was
        // already pending, regardless of node order.
        let spawned = OrderKey {
            round: 1,
            ..key(5, 0, 0)
        };
        assert!(key(5, 9, 9) < spawned);
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut q = HeapQueue::new();
        q.schedule(key(500, 2, 1), "b");
        q.schedule(key(500, 1, 1), "a");
        assert_eq!(q.peek_key(), Some(key(500, 1, 1)));
        assert_eq!(q.pop(), Some((key(500, 1, 1), "a")));
        assert_eq!(q.peek_key(), Some(key(500, 2, 1)));
        assert_eq!(q.len(), 1);
    }
}
