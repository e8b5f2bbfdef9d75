//! Differential harness for the engine's event queue
//! (`mapa::sim::queue::EventQueue`, a `BinaryHeap`) against a naive
//! oracle: a `Vec` of pending `(time, push index, id)` whose minimum is
//! found by linear scan.
//!
//! The property: for any monotone event stream — same-tick ties,
//! extracted entries, far-future outliers — the queue pops the oracle's
//! sequence, with equal-time events in FIFO (insertion) order.
//! The engine's bit-identical schedule guarantees (parallel ≡
//! sequential, golden digests) reduce to this property plus "the engine
//! processes events one at a time, in pop order".
//!
//! Also pinned here: `pop_if` pops the oracle's head exactly when the
//! predicate accepts it, and `extract` returns exactly the picked events
//! without reordering the survivors.

use mapa::sim::queue::{EventQueue, TimedEvent};
use proptest::prelude::*;
use std::collections::HashSet;

/// One scripted step of the differential run, decoded from a pair of
/// random bytes: mostly pushes (with deliberate tie/far-future skew),
/// interleaved with pops, conditional pops and cancellations.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `floor + delta` (deltas of 0.0 create same-tick ties;
    /// huge deltas are far-future outliers).
    Push(f64),
    /// Pop the next surviving event from both sides and compare.
    Pop,
    /// Pop from both sides only if the head is due at the current floor.
    PopIf,
    /// Extract a pending event on both sides.
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
        45..=69 => Op::Pop,
        70..=79 => Op::PopIf,
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

    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.pending[a];
            let (tb, sb, _) = self.pending[b];
            ta.total_cmp(&tb).then(sa.cmp(&sb))
        })
    }

    fn pop(&mut self) -> Option<TimedEvent<u32>> {
        let at = self.head()?;
        let (time, seq, payload) = self.pending.swap_remove(at);
        Some(TimedEvent { time, seq, payload })
    }

    /// Pops the head only when it is due at `time`.
    fn pop_due(&mut self, time: f64) -> Option<TimedEvent<u32>> {
        let at = self.head()?;
        if self.pending[at].0 == time {
            self.pop()
        } else {
            None
        }
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
                Op::PopIf => {
                    let got = queue.pop_if(|e| e.time == floor);
                    let want = oracle.pop_due(floor);
                    prop_assert_eq!(
                        got.as_ref().map(|e| (e.time.to_bits(), e.payload)),
                        want.as_ref().map(|e| (e.time.to_bits(), e.payload)),
                        "conditional pops diverge at floor {}", floor
                    );
                    if let Some(w) = want {
                        pending.retain(|&id| id != w.payload);
                    }
                }
                Op::Cancel => {
                    // Extract the pending event picked by the magnitude
                    // (a no-op when nothing is pending).
                    if let Some(&id) =
                        pending.get(usize::from(magnitude) % pending.len().max(1))
                    {
                        prop_assert_eq!(queue.extract(|&p| p == id), vec![id]);
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

    /// Under arbitrarily heavy cancellation the queue holds exactly the
    /// live entries: `extract` leaves nothing stale behind.
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
            let extracted = queue.extract(|id| victims.contains(id));
            prop_assert_eq!(extracted.len(), victims.len());
            prop_assert_eq!(queue.len(), live.len());
        }
    }
}

/// Deterministic spot check of FIFO tie stability, independent of the
/// oracle: interleave two tie groups and a far-future outlier, and
/// assert insertion order within each group survives the heap.
#[test]
fn event_queue_same_tick_ties_pop_in_insertion_order() {
    let mut queue: EventQueue<u32> = EventQueue::default();
    queue.push(10.0, 0);
    queue.push(4.0e7, 99); // far-future outlier, must come out last
    queue.push(10.0, 1);
    queue.push(2.0, 10);
    queue.push(10.0, 2);
    queue.push(2.0, 11);

    let popped: Vec<(f64, u32)> =
        std::iter::from_fn(|| queue.pop().map(|e| (e.time, e.payload))).collect();
    assert_eq!(
        popped,
        vec![
            (2.0, 10),
            (2.0, 11),
            (10.0, 0),
            (10.0, 1),
            (10.0, 2),
            (4.0e7, 99)
        ]
    );
    assert!(queue.is_empty());
}
