//! Property tests pinning the engine's queue to its specification: on
//! any schedule — same-instant ties, inserts interleaved with drains,
//! horizon-clamped far-future pileups — [`HeapQueue`] must pop in
//! exactly [`OrderKey`]'s total order, which a sorted `Vec` spells out
//! directly.
//!
//! Both engine queues (the per-shard wake schedule and the air-event
//! scheduler) are `HeapQueue`s: the wake queue is `HeapQueue<()>` keyed
//! by wake tokens, the event queue is `HeapQueue<Event>` keyed by
//! per-node event counters. Payloads never influence the order, so a
//! `u64` payload stands in for either.

use edmac_sim::queue::{HeapQueue, OrderKey};
use edmac_sim::SimTime;
use proptest::prelude::*;

/// One simulated horizon in nanoseconds (10 minutes) — the value the
/// engine clamps far-future wakes to, producing a same-time pileup.
const HORIZON_NS: u64 = 600_000_000_000;

/// A queue operation: schedule under a (partially generated) key, or
/// pop the minimum.
#[derive(Debug, Clone)]
enum Op {
    Schedule { ns: u64, round: u32, node: u32 },
    Pop,
}

fn schedule_op() -> impl Strategy<Value = Op> {
    let time = prop_oneof![
        // Dense cluster: forces same-instant ties.
        0u64..2_000,
        // Spread over seconds.
        0u64..5_000_000_000,
        // Horizon-clamped: the far-future pileup.
        Just(HORIZON_NS),
    ];
    (time, 0u32..3, 0u32..8).prop_map(|(ns, round, node)| Op::Schedule { ns, round, node })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Two schedule arms to one pop: queues keep net growth, so drains
    // exercise non-trivial occupancy.
    let op = prop_oneof![schedule_op(), schedule_op(), Just(Op::Pop)];
    prop::collection::vec(op, 1..400)
}

/// The oracle: pending entries kept sorted by key, popped from the
/// front.
#[derive(Default)]
struct SortedVec(Vec<(OrderKey, u64)>);

impl SortedVec {
    fn schedule(&mut self, key: OrderKey, item: u64) {
        let at = self.0.partition_point(|(k, _)| *k < key);
        self.0.insert(at, (key, item));
    }

    fn pop(&mut self) -> Option<(OrderKey, u64)> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    fn peek_key(&self) -> Option<OrderKey> {
        self.0.first().map(|(k, _)| *k)
    }
}

/// Replays `program` against the heap and the sorted-`Vec` oracle in
/// lockstep, asserting every intermediate `peek_key`/`pop`/`len` agrees
/// and the final drain produces the identical sequence.
fn assert_lockstep(program: Vec<Op>) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut oracle = SortedVec::default();
    for (i, op) in program.into_iter().enumerate() {
        match op {
            Op::Schedule { ns, round, node } => {
                // `seq` = op index: keys are unique per node by
                // construction, exactly the engine's guarantee.
                let key = OrderKey {
                    at: SimTime::from_nanos(ns),
                    round,
                    node,
                    seq: i as u64,
                };
                heap.schedule(key, i as u64);
                oracle.schedule(key, i as u64);
            }
            Op::Pop => {
                prop_assert_eq!(heap.pop(), oracle.pop(), "pop diverged at op {}", i);
            }
        }
        prop_assert_eq!(
            heap.peek_key(),
            oracle.peek_key(),
            "peek diverged at op {}",
            i
        );
        prop_assert_eq!(heap.len(), oracle.0.len(), "len diverged at op {}", i);
    }
    while !heap.is_empty() || !oracle.0.is_empty() {
        prop_assert_eq!(heap.pop(), oracle.pop(), "final drain diverged");
    }
    Ok(())
}

proptest! {
    #[test]
    fn heap_queue_pops_in_key_order(program in ops()) {
        assert_lockstep(program)?;
    }

    /// The engine's actual usage pattern: a monotone drain (every new
    /// key at or after the last popped time) with net growth.
    #[test]
    fn monotone_drain_pops_in_key_order(
        deltas in prop::collection::vec((0u64..50_000_000, 0u32..3, 0u32..8), 100..600),
    ) {
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut oracle = SortedVec::default();
        let mut floor = 0u64;
        for (i, (delta, round, node)) in deltas.iter().enumerate() {
            let key = OrderKey {
                at: SimTime::from_nanos(floor + delta),
                round: *round,
                node: *node,
                seq: i as u64,
            };
            heap.schedule(key, i as u64);
            oracle.schedule(key, i as u64);
            // Drain every third insert, advancing the floor like the
            // event loop does.
            if i % 3 == 2 {
                let (a, b) = (heap.pop(), oracle.pop());
                prop_assert_eq!(a, b, "monotone pop diverged at step {}", i);
                if let Some((k, _)) = a {
                    floor = k.at.as_nanos();
                }
            }
        }
        while !heap.is_empty() || !oracle.0.is_empty() {
            prop_assert_eq!(heap.pop(), oracle.pop(), "monotone final drain diverged");
        }
    }
}
