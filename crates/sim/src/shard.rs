//! Spatial sharding and conservative-parallel execution.
//!
//! The topology is cut on the unit-disk graph into `k` contiguous
//! spatial shards; each shard runs on its own worker thread with its
//! own event and wake queues, and cross-shard air batches (one per
//! transmission and destination shard) flow through a coordinator
//! under **wake-derived lookahead bounds** — the null-message-free
//! conservative scheme the duty cycle makes cheap:
//!
//! * a **sleeping** boundary node cannot transmit before its next
//!   handler (its earliest pending event or registered wake) **plus a
//!   radio startup** — incoming air events never invoke handlers on a
//!   sleeping radio, so no frontier term is needed;
//! * a node **starting up** cannot transmit before `since + startup`;
//! * an **awake** boundary node cannot transmit before its earliest
//!   pending event or wake, nor can a newly arriving frame make it
//!   react before `now + min_airtime`.
//!
//! Each round the coordinator delivers routed cross-shard batches,
//! computes every shard's bound as the minimum lookahead of its
//! neighbors' boundary nodes, and advances all shards with work below
//! their bound concurrently. When no shard has such work it falls back
//! to serializing exactly one item — the globally next one under the
//! sequential engine's own rule (earliest wake/event by
//! `(time, round, node, seq)`, wakes winning ties) — so progress is
//! unconditional and the executed order is provably the sequential
//! order. An item is one queue entry, so an air batch runs whole: its
//! receivers in the shard are deliveries the sequential order runs
//! back to back (no other key sorts between them), and the same
//! transmission's deliveries in other shards commute with them. That,
//! plus per-node RNG/counter streams and globally keyed queues, is
//! what makes the sharded `SimReport` bit-identical.

use crate::engine::{advance, finish_shard, peek_wake, ShardState, Shared};
use crate::events::AirBatch;
use crate::queue::OrderKey;
use edmac_net::{NodeId, Point2};
use edmac_phy::LinkField;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// A spatial partition of the topology into contiguous shards.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    members: Vec<Vec<NodeId>>,
    /// Per shard: adjacent shards and the local indices of this
    /// shard's boundary nodes facing each of them.
    adj: Vec<Vec<(u32, Vec<u32>)>>,
}

impl ShardPlan {
    /// Cuts the realized topology into `k` near-equal shards by
    /// position: nodes sorted on `(x, y, id)` and chunked, so each
    /// shard is a vertical slab of the deployment and cross-shard
    /// edges are confined to slab borders.
    pub(crate) fn new(positions: &[Point2], field: &LinkField, k: usize) -> ShardPlan {
        let n = positions.len();
        let k = k.clamp(1, n.max(1));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            positions[a]
                .x
                .total_cmp(&positions[b].x)
                .then(positions[a].y.total_cmp(&positions[b].y))
                .then(a.cmp(&b))
        });

        let mut shard_of = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(k);
        let base = n / k;
        let rem = n % k;
        let mut start = 0;
        for s in 0..k {
            let size = base + usize::from(s < rem);
            let mut group: Vec<NodeId> = order[start..start + size]
                .iter()
                .map(|&i| NodeId::new(i))
                .collect();
            group.sort();
            for &u in &group {
                shard_of[u.index()] = s as u32;
            }
            members.push(group);
            start += size;
        }

        let mut local_of = vec![0u32; n];
        for group in &members {
            for (l, &u) in group.iter().enumerate() {
                local_of[u.index()] = l as u32;
            }
        }

        let mut adj: Vec<Vec<(u32, Vec<u32>)>> = Vec::with_capacity(k);
        for (s, group) in members.iter().enumerate() {
            let mut facing: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for (l, &u) in group.iter().enumerate() {
                for &(v, _) in field.receivers(u) {
                    let t = shard_of[v.index()];
                    if t != s as u32 {
                        let locals = facing.entry(t).or_default();
                        if locals.last() != Some(&(l as u32)) {
                            locals.push(l as u32);
                        }
                    }
                }
            }
            adj.push(facing.into_iter().collect());
        }

        ShardPlan {
            shard_of,
            local_of,
            members,
            adj,
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.members.len()
    }

    pub(crate) fn members(&self, s: usize) -> &[NodeId] {
        &self.members[s]
    }

    pub(crate) fn adjacency(&self, s: usize) -> Vec<(u32, Vec<u32>)> {
        self.adj[s].clone()
    }

    /// Installs the node→shard placement into the shared world.
    pub(crate) fn apply(&self, shared: &mut Shared) {
        shared.shard_of = self.shard_of.clone();
        shared.local_of = self.local_of.clone();
    }
}

/// What the coordinator knows about a shard between rounds.
struct Status {
    shard: u32,
    /// Earliest valid pending wake, by `(time, round, node, seq)`.
    next_wake: Option<OrderKey>,
    /// Earliest pending event, by `(time, round, node, seq)`.
    next_event: Option<OrderKey>,
    /// Per adjacent shard: a lower bound (ns) on the time of any
    /// event this shard will ever emit toward it, valid until this
    /// shard's state next changes.
    bounds_to: Vec<(u32, u64)>,
    /// Cross-shard air batches emitted since the last status.
    emissions: Vec<(u32, AirBatch)>,
}

/// Coordinator → worker commands.
enum ToWorker {
    /// Insert routed cross-shard air batches, then report status.
    Deliver(Vec<AirBatch>),
    /// Process all items with time strictly below `bound`, then
    /// report status.
    Advance { bound: u64 },
    /// Process exactly one item (the serialized fallback), then
    /// report status.
    StepOne,
    /// Run the horizon phase and return the shard state.
    Finish,
}

/// A lower bound (ns) on when boundary node `l` can next put a frame
/// on the air, under any future input.
fn lookahead(shared: &Shared, shard: &mut ShardState, l: usize) -> u64 {
    let now = shard.now;
    // Drop pending entries strictly before `now` (already processed);
    // entries at `now` may still be queued, so they stay.
    let pending = {
        let heap = &mut shard.pending[l];
        loop {
            match heap.peek() {
                Some(&Reverse(t)) if t < now => {
                    heap.pop();
                }
                Some(&Reverse(t)) => break Some(t.as_nanos()),
                None => break None,
            }
        }
    };
    let st = &shard.nodes[l];
    let wake = st.wake_current.map(|(t, _)| t.as_nanos());
    let next_handler = match (pending, wake) {
        (Some(p), Some(w)) => Some(p.min(w)),
        (p, w) => p.or(w),
    };
    match st.radio.mode {
        edmac_radio::Mode::Startup => st.radio.since.as_nanos().saturating_add(shared.startup_ns),
        edmac_radio::Mode::Sleep => match next_handler {
            // Incoming air events never invoke handlers on a sleeping
            // radio, so the node's own queue/wake is exhaustive; any
            // handler must still wake the radio before sending.
            Some(h) => h.saturating_add(shared.startup_ns),
            None => u64::MAX,
        },
        // Awake: the node may react to its own queue/wake, or to a
        // frame someone puts on the air from `now` on — whose handler
        // (the AirEnd) cannot land before one minimum airtime.
        _ => {
            let air = now.as_nanos().saturating_add(shared.min_airtime_ns);
            next_handler.map_or(air, |h| h.min(air))
        }
    }
}

/// Computes a shard's post-operation status, draining its outbox.
fn status_of(shared: &Shared, shard: &mut ShardState) -> Status {
    let next_wake = peek_wake(shared, shard);
    let next_event = shard.events.peek_key();
    let adj = std::mem::take(&mut shard.adj);
    let bounds_to = adj
        .iter()
        .map(|(t, locals)| {
            let b = locals
                .iter()
                .map(|&l| lookahead(shared, shard, l as usize))
                .min()
                .unwrap_or(u64::MAX);
            (*t, b)
        })
        .collect();
    shard.adj = adj;
    Status {
        shard: shard.id,
        next_wake,
        next_event,
        bounds_to,
        emissions: std::mem::take(&mut shard.outbox),
    }
}

/// Runs `shards` to the horizon on one worker thread each and returns
/// them (in shard order) with all state finalized.
pub(crate) fn run_parallel(shared: &Shared, shards: Vec<ShardState>) -> Vec<ShardState> {
    let k = shards.len();
    let cap = shared.end.as_nanos() + 1;
    std::thread::scope(|scope| {
        let (status_tx, status_rx) = mpsc::channel::<Status>();
        let (done_tx, done_rx) = mpsc::channel::<(u32, ShardState)>();
        let mut to_worker = Vec::with_capacity(k);
        for mut shard in shards {
            let (tx, rx) = mpsc::channel::<ToWorker>();
            to_worker.push(tx);
            let status_tx = status_tx.clone();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                // Initial status so the coordinator can open round 1.
                status_tx
                    .send(status_of(shared, &mut shard))
                    .expect("coordinator outlives workers");
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        ToWorker::Deliver(batches) => {
                            for batch in batches {
                                shard.deliver_air(shared, batch);
                            }
                        }
                        ToWorker::Advance { bound } => {
                            advance(shared, &mut shard, bound, usize::MAX);
                        }
                        ToWorker::StepOne => {
                            advance(shared, &mut shard, u64::MAX, 1);
                        }
                        ToWorker::Finish => {
                            finish_shard(shared, &mut shard);
                            done_tx
                                .send((shard.id, shard))
                                .expect("coordinator collects all shards");
                            return;
                        }
                    }
                    status_tx
                        .send(status_of(shared, &mut shard))
                        .expect("coordinator outlives workers");
                }
            });
        }

        let mut statuses: Vec<Option<Status>> = (0..k).map(|_| None).collect();
        let mut inboxes: Vec<Vec<AirBatch>> = (0..k).map(|_| Vec::new()).collect();
        let route = |status: Status,
                     statuses: &mut Vec<Option<Status>>,
                     inboxes: &mut Vec<Vec<AirBatch>>| {
            let id = status.shard as usize;
            let mut status = status;
            for (dest, batch) in status.emissions.drain(..) {
                inboxes[dest as usize].push(batch);
            }
            statuses[id] = Some(status);
        };
        for _ in 0..k {
            let s = status_rx.recv().expect("workers report initial status");
            route(s, &mut statuses, &mut inboxes);
        }

        loop {
            // 1. Deliver routed events; refresh those shards' statuses
            //    (untouched shards' statuses are still valid — their
            //    state has not changed).
            let mut expected = 0;
            for s in 0..k {
                if !inboxes[s].is_empty() {
                    let items = std::mem::take(&mut inboxes[s]);
                    to_worker[s]
                        .send(ToWorker::Deliver(items))
                        .expect("worker alive");
                    expected += 1;
                }
            }
            for _ in 0..expected {
                let s = status_rx.recv().expect("worker reports after deliver");
                route(s, &mut statuses, &mut inboxes);
            }

            // 2. Bounds: a shard may advance strictly below the
            //    minimum lookahead of its neighbors' boundary nodes.
            let mut bound = vec![u64::MAX; k];
            for status in statuses.iter().flatten() {
                for &(dest, b) in &status.bounds_to {
                    let slot = &mut bound[dest as usize];
                    *slot = (*slot).min(b);
                }
            }

            let next_time = |s: &Status| -> u64 {
                let w = s.next_wake.map_or(u64::MAX, |key| key.at.as_nanos());
                let e = s.next_event.map_or(u64::MAX, |key| key.at.as_nanos());
                w.min(e)
            };

            // 3. Advance every shard with work inside its window.
            let mut advancing = Vec::new();
            for s in 0..k {
                let status = statuses[s].as_ref().expect("status present");
                if next_time(status) < bound[s].min(cap) {
                    advancing.push(s);
                }
            }
            if !advancing.is_empty() {
                for &s in &advancing {
                    to_worker[s]
                        .send(ToWorker::Advance { bound: bound[s] })
                        .expect("worker alive");
                }
                for _ in 0..advancing.len() {
                    let st = status_rx.recv().expect("worker reports after advance");
                    route(st, &mut statuses, &mut inboxes);
                }
                continue;
            }

            // 4. Nothing fits a window. Either the run is over, or the
            //    bounds are mutually blocking and we serialize exactly
            //    the globally next item (the sequential engine's own
            //    choice, so the executed order stays the sequential
            //    order).
            if statuses.iter().flatten().all(|s| next_time(s) >= cap) {
                break;
            }
            // Note: a key names its *minting* node (cross-shard air
            // batches carry the sender's key), so the dispatch target
            // is the shard whose queue holds the item, not
            // `shard_of[key.node]`.
            let min_wake = statuses
                .iter()
                .flatten()
                .filter_map(|s| s.next_wake.map(|key| (key, s.shard)))
                .min_by_key(|&(key, _)| key);
            let min_event = statuses
                .iter()
                .flatten()
                .filter_map(|s| s.next_event.map(|key| (key, s.shard)))
                .min_by_key(|&(key, _)| key);
            let (_, holder) = match (min_wake, min_event) {
                // The sequential tie rule: wakes fire first.
                (Some(w), Some(e)) if w.0.at <= e.0.at => w,
                (Some(w), None) => w,
                (_, Some(e)) => e,
                (None, None) => unreachable!("some shard has work below the horizon"),
            };
            let target = holder as usize;
            to_worker[target]
                .send(ToWorker::StepOne)
                .expect("worker alive");
            let st = status_rx.recv().expect("worker reports after step");
            route(st, &mut statuses, &mut inboxes);
        }

        for tx in &to_worker {
            tx.send(ToWorker::Finish).expect("worker alive");
        }
        let mut finished: Vec<Option<ShardState>> = (0..k).map(|_| None).collect();
        for _ in 0..k {
            let (id, shard) = done_rx.recv().expect("workers return their shards");
            finished[id as usize] = Some(shard);
        }
        finished
            .into_iter()
            .map(|s| s.expect("every shard finishes"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edmac_phy::{ChannelModel, UnitDisk};

    #[test]
    fn plan_partitions_every_node_exactly_once() {
        let positions: Vec<Point2> = (0..10)
            .map(|i| Point2 {
                x: f64::from(i),
                y: 0.0,
            })
            .collect();
        // Unit spacing: each node hears exactly its two line neighbors.
        let field = UnitDisk.realize(&positions, 0);
        let plan = ShardPlan::new(&positions, &field, 3);
        assert_eq!(plan.shard_count(), 3);
        let mut seen = [false; 10];
        for s in 0..3 {
            for &u in plan.members(s) {
                assert!(!seen[u.index()], "node in two shards");
                seen[u.index()] = true;
                assert_eq!(plan.shard_of[u.index()], s as u32);
                assert_eq!(
                    plan.members(s)[plan.local_of[u.index()] as usize],
                    u,
                    "local index round-trips"
                );
            }
        }
        assert!(seen.iter().all(|&b| b));
        // A 10-node line in 3 slabs: shard sizes 4/3/3, adjacency is a
        // path 0-1-2.
        assert_eq!(plan.members(0).len(), 4);
        let adj0: Vec<u32> = plan.adjacency(0).iter().map(|(t, _)| *t).collect();
        assert_eq!(adj0, vec![1]);
        let adj1: Vec<u32> = plan.adjacency(1).iter().map(|(t, _)| *t).collect();
        assert_eq!(adj1, vec![0, 2]);
    }

    #[test]
    fn plan_clamps_shard_count() {
        let positions = vec![Point2 { x: 0.0, y: 0.0 }, Point2 { x: 1.0, y: 0.0 }];
        let field = UnitDisk.realize(&positions, 0);
        let plan = ShardPlan::new(&positions, &field, 64);
        assert_eq!(plan.shard_count(), 2);
    }
}
