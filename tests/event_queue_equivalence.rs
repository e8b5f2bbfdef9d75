//! Differential harness for the engine's event queue
//! (`mapa::sim::queue::EventQueue`, a `BinaryHeap`) against a naive
//! oracle: a `Vec` of pending `(time, push index, id)` whose minimum is
//! found by linear scan.
//!
//! The property: for any monotone event stream — same-tick ties,
//! cancelled entries, far-future outliers — the queue pops the oracle's
//! sequence, with equal-time events in FIFO (insertion) order.
//! The engine's bit-identical schedule guarantees (parallel ≡
//! sequential, golden digests) reduce to this property plus "the engine
//! processes batch members in order".
//!
//! Also pinned here: `pop_batch` is exactly "repeated `pop` while the
//! time does not change", and `cancel` drops exactly the picked events
//! without reordering the survivors.

use mapa::sim::queue::{EventQueue, TimedEvent};
use proptest::prelude::*;
use std::collections::HashSet;

/// One scripted step of the differential run, decoded from a pair of
/// random bytes: mostly pushes (with deliberate tie/far-future skew),
/// interleaved with pops and cancellations.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `floor + delta` (deltas of 0.0 create same-tick ties;
    /// huge deltas are far-future outliers).
    Push(f64),
    /// Pop the next surviving event from both sides and compare.
    Pop,
    /// Cancel a pending event on both sides.
    Cancel,
}

fn decode(kind: u8, magnitude: u16) -> Op {
    match kind % 100 {
        0..=44 => Op::Push(match magnitude % 7 {
            // Exact ties at the current floor: the FIFO-stability case.
            0 | 1 => 0.0,
            // Far-future outliers, orders of magnitude past the rest.
            2 => 5.0e6 + f64::from(magnitude),
            // Ordinary near-future deltas.
            _ => f64::from(magnitude) * 0.37,
        }),
        45..=79 => Op::Pop,
        _ => Op::Cancel,
    }
}

/// The oracle: pending `(time, push index, id)`, popped by a linear
/// scan for the smallest `(time, push index)`.
#[derive(Default)]
struct NaiveQueue {
    pending: Vec<(f64, u64, u32)>,
    pushes: u64,
}

impl NaiveQueue {
    fn push(&mut self, time: f64, id: u32) {
        self.pending.push((time, self.pushes, id));
        self.pushes += 1;
    }

    fn cancel(&mut self, id: u32) {
        self.pending.retain(|&(_, _, p)| p != id);
    }

    fn pop(&mut self) -> Option<TimedEvent<u32>> {
        let at = (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.pending[a];
            let (tb, sb, _) = self.pending[b];
            ta.total_cmp(&tb).then(sa.cmp(&sb))
        })?;
        let (time, seq, payload) = self.pending.swap_remove(at);
        Some(TimedEvent { time, seq, payload })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline differential property: random streams through the
    /// heap and the linear-scan oracle produce identical pop order —
    /// times bit-equal, ties FIFO-stable (payload ids are
    /// insertion-ordered, so equal payloads *is* FIFO stability).
    #[test]
    fn event_queue_matches_naive_oracle(
        ops in proptest::collection::vec((0u8..100, 0u16..1000), 50..400),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::default();
        let mut oracle = NaiveQueue::default();
        let mut pending: Vec<u32> = Vec::new();
        let mut next_id: u32 = 0;
        let mut floor: f64 = 0.0;

        for &(kind, magnitude) in &ops {
            match decode(kind, magnitude) {
                Op::Push(delta) => {
                    let time = floor + delta;
                    queue.push(time, next_id);
                    oracle.push(time, next_id);
                    pending.push(next_id);
                    next_id += 1;
                }
                Op::Pop => {
                    let before = floor;
                    let got = queue.pop();
                    let want = oracle.pop();
                    match (&got, &want) {
                        (None, None) => {}
                        (Some(g), Some(w)) => {
                            prop_assert_eq!(
                                g.time.to_bits(),
                                w.time.to_bits(),
                                "pop times diverge: queue {} vs oracle {}",
                                g.time,
                                w.time
                            );
                            prop_assert_eq!(
                                g.payload, w.payload,
                                "tie order diverges at t={}", g.time
                            );
                            prop_assert!(w.time >= before, "oracle went back in time");
                            floor = w.time;
                            pending.retain(|&id| id != w.payload);
                        }
                        _ => prop_assert!(
                            false,
                            "one side empty, the other not: queue {:?} vs oracle {:?}",
                            got.map(|e| e.payload),
                            want.map(|e| e.payload)
                        ),
                    }
                }
                Op::Cancel => {
                    // Cancel the pending event picked by the magnitude
                    // (a no-op when nothing is pending).
                    if let Some(&id) =
                        pending.get(usize::from(magnitude) % pending.len().max(1))
                    {
                        queue.cancel(|&p| p == id);
                        oracle.cancel(id);
                        pending.retain(|&p| p != id);
                    }
                }
            }
            prop_assert_eq!(queue.len(), pending.len());
        }

        // Drain both completely: every survivor must still match.
        loop {
            let got = queue.pop();
            let want = oracle.pop();
            match (&got, &want) {
                (None, None) => break,
                (Some(g), Some(w)) => {
                    prop_assert_eq!(g.time.to_bits(), w.time.to_bits());
                    prop_assert_eq!(g.payload, w.payload);
                }
                _ => prop_assert!(false, "queue and oracle drained to different lengths"),
            }
        }
        prop_assert!(queue.is_empty());
        prop_assert!(oracle.pending.is_empty());
    }

    /// `pop_batch` is observationally "repeated `pop` while the time is
    /// unchanged": replaying one push stream through two queues, one
    /// drained a batch at a time and one an event at a time, yields the
    /// same flat sequence — and every batch is a maximal tie group.
    #[test]
    fn event_queue_pop_batch_flattens_to_single_pops(
        deltas in proptest::collection::vec((0u8..4, 0u16..500), 20..200),
    ) {
        let mut batched: EventQueue<u32> = EventQueue::default();
        let mut single: EventQueue<u32> = EventQueue::default();
        let mut time = 0.0;
        for (i, &(tie, magnitude)) in deltas.iter().enumerate() {
            // Three in four pushes reuse the current time — dense ties.
            if tie == 0 {
                time += f64::from(magnitude) * 0.51;
            }
            let id = u32::try_from(i).expect("bounded by the strategy");
            batched.push(time, id);
            single.push(time, id);
        }

        let mut batch: Vec<TimedEvent<u32>> = Vec::new();
        while batched.pop_batch(&mut batch) > 0 {
            let tick = batch[0].time;
            for ev in &batch {
                prop_assert_eq!(
                    ev.time.to_bits(),
                    tick.to_bits(),
                    "batch mixes times"
                );
                let want = single.pop().expect("single-pop queue drained early");
                prop_assert_eq!(ev.payload, want.payload);
                prop_assert_eq!(ev.time.to_bits(), want.time.to_bits());
            }
            // Maximality: the next event (if any) is a *later* tick.
            if let Some(next) = batched.pop() {
                prop_assert!(next.time > tick, "batch ended inside its tie group");
                // Push it back is impossible; mirror by popping the twin.
                let twin = single.pop().expect("twin exists");
                prop_assert_eq!(next.payload, twin.payload);
            }
        }
        prop_assert!(single.pop().is_none(), "single-pop queue has leftovers");
    }

    /// Under arbitrarily heavy cancellation the queue holds exactly the
    /// live entries: `cancel` leaves nothing stale behind.
    #[test]
    fn event_queue_length_stays_linear_in_live_entries(
        waves in proptest::collection::vec((1u16..20, 0u8..10), 10..120),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::default();
        let mut live: HashSet<u32> = HashSet::new();
        let mut next_id = 0u32;
        let mut time = 0.0;
        for &(pushes, keep) in &waves {
            for _ in 0..pushes {
                time += 0.25;
                queue.push(time, next_id);
                live.insert(next_id);
                next_id += 1;
            }
            // Cancel all but every `keep`-th pending event this wave.
            let mut ids: Vec<u32> = live.iter().copied().collect();
            ids.sort_unstable();
            let victims: HashSet<u32> = ids
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| keep == 0 || i % usize::from(keep) != 0)
                .map(|(_, id)| id)
                .collect();
            live.retain(|id| !victims.contains(id));
            queue.cancel(|id| victims.contains(id));
            prop_assert_eq!(queue.len(), live.len());
        }
    }
}

/// Deterministic spot check of FIFO tie stability, independent of the
/// oracle: interleave two tie groups and a far-future outlier, and
/// assert insertion order within each group survives batching.
#[test]
fn event_queue_same_tick_ties_pop_in_insertion_order() {
    let mut queue: EventQueue<u32> = EventQueue::default();
    queue.push(10.0, 0);
    queue.push(4.0e7, 99); // far-future outlier, must come out last
    queue.push(10.0, 1);
    queue.push(2.0, 10);
    queue.push(10.0, 2);
    queue.push(2.0, 11);

    let mut batch = Vec::new();
    assert_eq!(queue.pop_batch(&mut batch), 2);
    assert_eq!(
        batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
        vec![10, 11]
    );
    assert_eq!(queue.pop_batch(&mut batch), 3);
    assert_eq!(
        batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert_eq!(queue.pop_batch(&mut batch), 1);
    assert_eq!(batch[0].payload, 99);
    assert!(queue.is_empty());
}
