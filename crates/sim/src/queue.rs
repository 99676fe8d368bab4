//! The shared event-queue abstraction behind both engine queues: one
//! named ordering key, one trait, and two interchangeable
//! implementations — a binary-heap reference and the calendar queue
//! the engine actually runs on.
//!
//! Before the sharded engine, the event loop carried two bare-tuple
//! priority queues: the wake heap keyed `Reverse<(SimTime, usize,
//! u64)>` in `engine.rs` and the event scheduler keyed `(SimTime,
//! u64)` in `events.rs`, each re-stating its tie-break rule in a
//! comment. Both now share [`OrderKey`] and the [`EventQueue`] trait,
//! so the tie-break policy is written down exactly once and the
//! property tests can drive either implementation through the same
//! interface.

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
/// repeats for a `node`), so the order is total and implementations
/// need no stability guarantee beyond it.
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

/// A deterministic priority queue over [`OrderKey`]s.
///
/// Both engine queues — the per-shard wake schedule and the air-event
/// scheduler — are instances of this trait, which is what lets the
/// property tests assert that [`CalendarQueue`] pops in exactly the
/// total order of the [`HeapQueue`] reference.
pub trait EventQueue<T> {
    /// Inserts `item` under `key`.
    fn schedule(&mut self, key: OrderKey, item: T);
    /// Removes and returns the minimum-key entry, if any.
    fn pop(&mut self) -> Option<(OrderKey, T)>;
    /// The minimum pending key, if any.
    fn peek_key(&mut self) -> Option<OrderKey>;
    /// Number of pending entries.
    fn len(&self) -> usize;
    /// Returns `true` if nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap entry ordered by key alone (payloads never compare).
#[derive(Debug)]
struct Entry<T> {
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

/// The reference implementation: `BinaryHeap<Reverse<_>>`, exactly the
/// structure both engine queues used before the calendar queue. Kept
/// as the oracle for the property tests and as a fallback should a
/// workload ever degenerate the calendar layout.
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
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn schedule(&mut self, key: OrderKey, item: T) {
        self.heap.push(Reverse(Entry { key, item }));
    }

    fn pop(&mut self) -> Option<(OrderKey, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.item))
    }

    fn peek_key(&mut self) -> Option<OrderKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Initial bucket count (doubles as the queue grows).
const INITIAL_BUCKETS: usize = 16;
/// Initial bucket width: 2^20 ns ≈ 1 ms, the order of a duty-cycled
/// MAC's event spacing.
const INITIAL_WIDTH_SHIFT: u32 = 20;
/// Hard cap on the bucket array (2^17 buckets ≈ 1 MiB of headers).
const MAX_BUCKETS: usize = 1 << 17;
/// Scan-work multiple of the queue length that triggers a width
/// retune — the point where empty-day walks have cost several times
/// what the O(len log len) rebuild will.
const RETUNE_WORK_FACTOR: u64 = 8;
/// Floor on the retune threshold, so a tiny queue cannot thrash
/// rebuilds on a handful of long scans.
const RETUNE_WORK_FLOOR: u64 = 256;

/// A slot-structured calendar queue: entries hash into `buckets` by
/// `(time >> width_shift) & mask`, each bucket a small min-heap.
///
/// Duty-cycled wake schedules are nearly ideal for a calendar: wakes
/// cluster a few per bucket at the current "date", so `schedule` is a
/// near-empty heap push and `pop` inspects one or two buckets. When
/// the spread degenerates (everything far in the future, e.g.
/// horizon-clamped entries), `pop` falls back to a direct scan for the
/// global minimum — slower, never wrong.
///
/// Buckets are heaps rather than sorted vectors for one load-bearing
/// reason: same-instant event storms. A transmission queues one
/// `AirStart` batch for all its receivers in a shard, but every node
/// reacting to the same slot boundary or the same frame end queues its
/// own entries at that instant, so hundreds can pile onto a single
/// instant, and every one of them lands in the same bucket *no matter
/// how the width is tuned*; a sorted `Vec` pays an O(run) memmove per
/// insert there (quadratic per storm), while a heap pays O(log run)
/// and in the worst case merely degrades to exactly [`HeapQueue`]'s
/// behavior.
///
/// The pop order is exactly [`OrderKey`]'s total order; the property
/// tests in `crates/sim/tests/queue_properties.rs` assert it matches
/// [`HeapQueue`] on randomized schedules, including same-time ties and
/// inserts interleaved with drains.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<BinaryHeap<Reverse<Entry<T>>>>,
    /// log2 of the bucket width in nanoseconds.
    width_shift: u32,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: u64,
    /// Lower bound (ns) on every contained key: pops are monotone, so
    /// the last popped time bounds the rest from below.
    floor: u64,
    len: usize,
    /// Cached minimum (key, bucket index); cleared by `pop`.
    cached_min: Option<(OrderKey, usize)>,
    /// Buckets visited by `find_min` since the last rebuild — the
    /// running cost of a width tuned too fine for the current spread.
    scan_work: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            width_shift: INITIAL_WIDTH_SHIFT,
            mask: (INITIAL_BUCKETS - 1) as u64,
            floor: 0,
            len: 0,
            cached_min: None,
            scan_work: 0,
        }
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue::default()
    }

    fn bucket_of(&self, ns: u64) -> usize {
        ((ns >> self.width_shift) & self.mask) as usize
    }

    /// Locates the minimum entry: scan one calendar year of buckets
    /// from the floor date, taking the first entry that belongs to the
    /// bucket's *current* day; fall back to a direct scan when the
    /// year is empty (sparse far-future schedules).
    fn find_min(&mut self) -> Option<(OrderKey, usize)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        let first_day = self.floor >> self.width_shift;
        for scanned in 0..nbuckets {
            let day = first_day + scanned;
            let idx = (day & self.mask) as usize;
            if let Some(Reverse(e)) = self.buckets[idx].peek() {
                if e.key.at.as_nanos() >> self.width_shift == day {
                    self.scan_work += scanned + 1;
                    return Some((e.key, idx));
                }
            }
        }
        self.scan_work += 2 * nbuckets;
        // Direct search: every bucket's peek is its minimum.
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.peek().map(|Reverse(e)| (e.key, i)))
            .min_by_key(|(k, _)| *k)
    }

    /// Rebuilds the bucket array at `nbuckets` and retunes the width
    /// to the event spacing **near the head** of the queue.
    ///
    /// Tuning on the full contained span is the classic calendar-queue
    /// mistake for skewed schedules: a duty-cycled MAC's queue mixes a
    /// dense now-cluster (air events microseconds apart) with a sparse
    /// far tail (traffic samples many seconds out), so span/len yields
    /// millisecond buckets into which every near-term insert lands —
    /// and a sorted `Vec::insert` into a thousand-entry bucket is an
    /// O(n) memmove, turning the whole run quadratic. The pops all
    /// happen at the head, so the head's gap statistic is the one that
    /// sets the real cost; far-future entries merely wrap around the
    /// calendar year, which `find_min`'s day check already handles.
    fn rebuild(&mut self, nbuckets: usize) {
        let mut entries: Vec<(OrderKey, T)> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.extend(
                std::mem::take(b)
                    .into_iter()
                    .map(|Reverse(e)| (e.key, e.item)),
            );
        }
        // Median of the first ~1k non-zero inter-event gaps in time
        // order — median, because the head window usually straddles
        // the boundary from the dense cluster into the sparse tail,
        // and a single multi-millisecond boundary gap would drag a
        // mean far above the spacing the pops actually see. Sorting
        // all times is O(len log len), but rebuilds amortize against
        // the insert work that triggers them.
        let mut times: Vec<u64> = entries.iter().map(|(k, _)| k.at.as_nanos()).collect();
        times.sort_unstable();
        let head = &times[..times.len().min(1024)];
        let mut gaps: Vec<u64> = head
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|&g| g > 0)
            .collect();
        if !gaps.is_empty() {
            let mid = gaps.len() / 2;
            let (_, median, _) = gaps.select_nth_unstable(mid);
            // ~2 entries per bucket at the head's density.
            let target = (*median * 2).max(1);
            self.width_shift = 63 - target.leading_zeros();
        }
        self.buckets = (0..nbuckets).map(|_| BinaryHeap::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.len = 0;
        self.cached_min = None;
        self.scan_work = 0;
        for (k, item) in entries {
            self.insert(k, item);
        }
    }

    fn insert(&mut self, key: OrderKey, item: T) {
        let idx = self.bucket_of(key.at.as_nanos());
        self.buckets[idx].push(Reverse(Entry { key, item }));
        self.len += 1;
    }
}

impl<T> EventQueue<T> for CalendarQueue<T> {
    fn schedule(&mut self, key: OrderKey, item: T) {
        // Defensive: a key below the floor (never produced by the
        // engine, which schedules at or after `now`) must still pop
        // first, so lower the floor to keep `find_min` honest.
        self.floor = self.floor.min(key.at.as_nanos());
        if let Some((min, _)) = self.cached_min {
            if key < min {
                self.cached_min = None;
            }
        }
        self.insert(key, item);
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        } else if self.scan_work >= RETUNE_WORK_FACTOR * (self.len as u64).max(RETUNE_WORK_FLOOR) {
            // The workload's temporal spread drifted away from the
            // width this layout was tuned for (`find_min` is walking
            // long runs of empty days); re-estimate from current
            // content. The threshold scales with `len` — the rebuild's
            // own cost — so retunes stay amortized-O(1) per operation
            // and a stale width can never cost more than a constant
            // factor.
            self.rebuild(self.buckets.len());
        }
    }

    fn pop(&mut self) -> Option<(OrderKey, T)> {
        let (key, idx) = match self.cached_min.take() {
            Some(found) => found,
            None => self.find_min()?,
        };
        let Reverse(e) = self.buckets[idx].pop().expect("find_min saw this bucket");
        debug_assert_eq!(e.key, key);
        self.len -= 1;
        self.floor = e.key.at.as_nanos();
        Some((e.key, e.item))
    }

    fn peek_key(&mut self) -> Option<OrderKey> {
        if self.cached_min.is_none() {
            self.cached_min = self.find_min();
        }
        self.cached_min.map(|(k, _)| k)
    }

    fn len(&self) -> usize {
        self.len
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
    fn calendar_pops_sorted() {
        let mut q = CalendarQueue::new();
        for (i, ns) in [30u64, 10, 20, 10, 10_000_000_000, 25].iter().enumerate() {
            q.schedule(key(*ns, i as u32, 0), i);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = q.pop() {
            keys.push(k);
        }
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_matches_heap_on_interleaved_drain() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        // A deterministic pseudo-random schedule with same-time ties,
        // inserts during drain, and a horizon-clamped cluster.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut seq = 0u64;
        let mut insert = |cal: &mut CalendarQueue<u64>, heap: &mut HeapQueue<u64>, ns: u64| {
            seq += 1;
            let k = OrderKey {
                round: (seq % 3) as u32,
                ..key(ns, (seq % 7) as u32, seq)
            };
            cal.schedule(k, seq);
            heap.schedule(k, seq);
        };
        for _ in 0..200 {
            let ns = step() % 1_000_000;
            insert(&mut cal, &mut heap, ns);
        }
        for _ in 0..50 {
            insert(&mut cal, &mut heap, 600_000_000_000); // clamped at one horizon
        }
        for round in 0..100 {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b, "divergence at drain step {round}");
            // Queue more *during* the drain, at and after the floor.
            let base = a.map(|(k, _)| k.at.as_nanos()).unwrap_or(0);
            insert(&mut cal, &mut heap, base + step() % 10_000);
        }
        while !cal.is_empty() || !heap.is_empty() {
            assert_eq!(cal.pop(), heap.pop());
        }
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut q = CalendarQueue::new();
        q.schedule(key(500, 2, 1), "b");
        q.schedule(key(500, 1, 1), "a");
        assert_eq!(q.peek_key(), Some(key(500, 1, 1)));
        assert_eq!(q.pop(), Some((key(500, 1, 1), "a")));
        assert_eq!(q.peek_key(), Some(key(500, 2, 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn growth_keeps_order() {
        let mut q = CalendarQueue::new();
        // Far more entries than initial buckets, spread over 10 s.
        for i in 0..500u64 {
            q.schedule(key((i * 7919) % 10_000_000_000, (i % 11) as u32, i), i);
        }
        let mut last = None;
        let mut n = 0;
        while let Some((k, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(prev < k, "out of order after growth: {prev:?} then {k:?}");
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 500);
    }
}
