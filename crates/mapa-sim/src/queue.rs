//! The discrete-event engine's event queue: one `BinaryHeap` with a
//! reversed `(time, seq)` ordering, so events pop in ascending time and
//! simultaneous events pop in push order. O(log n) per operation; the
//! engine holds one pending arrival plus one finish event per running
//! job (a few hundred at most), so nothing cleverer pays for itself.
//!
//! On top of the heap: [`EventQueue::pop_if`] pops the head only when a
//! predicate accepts it (the engine's run of same-instant finishes), and
//! [`EventQueue::extract`] takes out the pending events a predicate picks
//! (the engine's preempted jobs' finish events, which own their runs).
//!
//! Pushes must be *monotone* — every push's time is ≥ the last popped
//! time — which discrete-event simulation guarantees by construction (an
//! event scheduled at `now + delay`, `delay ≥ 0`, never precedes `now`).
//! The heap would order a violation correctly, but it means an event
//! caused something in its past; debug builds panic on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: a time, a FIFO tie-breaker, and a payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent<T> {
    /// Simulated time in seconds.
    pub time: f64,
    /// Monotonic per-queue sequence number; simultaneous events pop in
    /// push order.
    pub seq: u64,
    /// What happens.
    pub payload: T,
}

fn event_order<T>(a: &TimedEvent<T>, b: &TimedEvent<T>) -> Ordering {
    a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq))
}

/// Wrapper giving `BinaryHeap` min-heap behaviour on `(time, seq)`
/// while ignoring the payload (which need not be `Ord`).
#[derive(Debug, Clone)]
struct Rev<T>(TimedEvent<T>);

impl<T> PartialEq for Rev<T> {
    fn eq(&self, other: &Self) -> bool {
        event_order(&self.0, &other.0) == Ordering::Equal
    }
}
impl<T> Eq for Rev<T> {}
impl<T> Ord for Rev<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        event_order(&other.0, &self.0)
    }
}
impl<T> PartialOrd for Rev<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of [`TimedEvent`]s on `(time, seq)`. See the module docs.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Rev<T>>,
    next_seq: u64,
    /// Largest time popped so far (monotone-push check).
    floor: f64,
}

/// The queue's name before it became a plain heap, kept only because
/// the frozen `benchmark/src/layers.rs` imports it.
pub type CalendarQueue<T> = EventQueue<T>;

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            floor: 0.0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Schedules `payload` at `time`. Must be ≥ the last popped time
    /// (checked in debug builds): nothing may happen in the past of the
    /// event that caused it.
    pub fn push(&mut self, time: f64, payload: T) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
        debug_assert!(
            time >= self.floor,
            "monotone-push violation: push at {time} after popping {}",
            self.floor
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Rev(TimedEvent { time, seq, payload }));
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<TimedEvent<T>> {
        let event = self.heap.pop()?.0;
        self.floor = event.time;
        Some(event)
    }

    /// Pops the earliest event only when `pred` accepts it; otherwise
    /// leaves the queue untouched.
    pub fn pop_if(&mut self, pred: impl FnOnce(&TimedEvent<T>) -> bool) -> Option<TimedEvent<T>> {
        if !pred(&self.heap.peek()?.0) {
            return None;
        }
        self.pop()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pending event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Removes every pending event `pred` picks and returns their
    /// payloads, in no particular order: one O(n) pass that splits the
    /// heap's storage and re-heapifies the survivors, which keep their
    /// `(time, seq)` order.
    pub fn extract(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let (picked, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .partition(|r| pred(&r.0.payload));
        self.heap = BinaryHeap::from(kept);
        picked.into_iter().map(|r| r.0.payload).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.time, e.payload))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(5.0, 1);
        q.push(1.0, 2);
        q.push(3.0, 3);
        assert_eq!(drain(&mut q), vec![(1.0, 2), (3.0, 3), (5.0, 1)]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::default();
        for id in 10..13 {
            q.push(2.0, id);
        }
        assert_eq!(drain(&mut q), vec![(2.0, 10), (2.0, 11), (2.0, 12)]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::default();
        q.push(0.0, 0);
        assert_eq!(q.pop().unwrap().payload, 0);
        // Same-tick push after popping at that tick: still delivered.
        q.push(0.0, 1);
        q.push(0.25, 2);
        q.push(7.75, 3);
        assert_eq!(drain(&mut q), vec![(0.0, 1), (0.25, 2), (7.75, 3)]);
    }

    #[test]
    fn cancel_drops_the_picked_events_and_keeps_the_survivors_order() {
        let mut q = EventQueue::default();
        for i in 0..20u32 {
            // Pairs of ties: 0 and 1 at t=0, 2 and 3 at t=0.5, …
            q.push(f64::from(i / 2) * 0.5, i);
        }
        let mut cancelled = q.extract(|p| p % 3 == 0);
        cancelled.sort_unstable();
        assert_eq!(cancelled, vec![0, 3, 6, 9, 12, 15, 18]);
        assert_eq!(q.len(), 13);
        let survivors: Vec<u32> = drain(&mut q).into_iter().map(|(_, p)| p).collect();
        let want: Vec<u32> = (0..20).filter(|p| p % 3 != 0).collect();
        assert_eq!(survivors, want, "time order, ties FIFO");
    }

    #[test]
    fn reference_queue_matches_old_engine_contract() {
        // The pre-PR 6 engine's heap contract, which this queue is again:
        // earliest first, ties in push order.
        let mut q = EventQueue::default();
        q.push(2.0, 1u32);
        q.push(2.0, 2);
        q.push(1.0, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotone-push violation")]
    fn non_monotone_push_panics_in_debug() {
        let mut q = EventQueue::default();
        q.push(10.0, 1u32);
        q.pop();
        q.push(5.0, 2);
    }
}
