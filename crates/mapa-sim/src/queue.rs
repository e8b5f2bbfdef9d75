//! The discrete-event engine's event queue: one `BinaryHeap` with a
//! reversed `(time, seq)` ordering, so events pop in ascending time and
//! simultaneous events pop in push order. O(log n) per operation; the
//! engine holds one pending arrival plus one finish event per running
//! job (a few hundred at most), so nothing cleverer pays for itself.
//!
//! On top of the heap: [`EventQueue::pop_batch`] hands the engine a whole
//! same-tick batch, and lazily-cancelled entries are compacted in bulk
//! ([`EventQueue::maybe_compact`]) so the queue stays O(live entries)
//! under heavy preemption.
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

/// Compact lazily-cancelled entries once more than this many have
/// accumulated *and* they outnumber live entries (see
/// [`EventQueue::maybe_compact`]). Public so the boundedness tests
/// can phrase their O(live) pin in terms of the policy's actual slack.
pub const COMPACT_MIN_CANCELLED: usize = 32;

/// A min-heap of [`TimedEvent`]s on `(time, seq)`. See the module docs.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Rev<T>>,
    next_seq: u64,
    /// Entries the owner has marked stale via [`Self::note_cancelled`]
    /// but that still occupy a slot.
    cancelled: usize,
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
            cancelled: 0,
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

    /// Drains the entire same-tick batch at the queue's minimum time
    /// into `out` (cleared first): the earliest event plus every stored
    /// event scheduled for the exact same time, in FIFO order. Returns
    /// the batch size (0 when empty). Observationally repeated [`Self::pop`]
    /// while the time does not change; the engine still processes batch
    /// members one by one, so scheduling semantics are unchanged.
    pub fn pop_batch(&mut self, out: &mut Vec<TimedEvent<T>>) -> usize {
        out.clear();
        let Some(first) = self.pop() else {
            return 0;
        };
        let tick = first.time;
        out.push(first);
        while self
            .heap
            .peek()
            .is_some_and(|top| top.0.time.total_cmp(&tick) == Ordering::Equal)
        {
            out.push(self.heap.pop().expect("peeked").0);
        }
        out.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pending event count (live + not-yet-compacted cancelled).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Records that one stored entry went stale (lazily cancelled by
    /// the owner). Drives the [`Self::maybe_compact`] policy.
    pub fn note_cancelled(&mut self) {
        self.cancelled += 1;
    }

    /// Records that a popped entry turned out to be one of the stale
    /// ones — the owner dropped it on drain, so it no longer counts
    /// toward the compaction debt. Without this, the cancelled counter
    /// only ever resets on compaction and lazily-drained entries keep
    /// inflating it, triggering full-heap compactions that do no work.
    pub fn note_drained_stale(&mut self) {
        self.cancelled = self.cancelled.saturating_sub(1);
    }

    /// Entries reported stale and not yet compacted away.
    #[must_use]
    pub fn cancelled_hint(&self) -> usize {
        self.cancelled
    }

    /// Drops every stored event for which `live` returns false, in bulk
    /// — one O(n) sweep, no per-entry heap pops — when enough
    /// cancellations have accumulated to be worth it (more than
    /// `COMPACT_MIN_CANCELLED` and outnumbering live entries). Returns
    /// how many entries were dropped. This is what keeps queue length
    /// O(running jobs) under heavy preemption.
    pub fn maybe_compact(&mut self, live: impl Fn(&T) -> bool) -> usize {
        if self.cancelled <= COMPACT_MIN_CANCELLED || 2 * self.cancelled < self.len() {
            return 0;
        }
        self.compact(live)
    }

    /// Unconditional bulk compaction (see [`Self::maybe_compact`]) over
    /// `BinaryHeap::retain`. Pop order is the total `(time, seq)` order
    /// of the survivors, so dropping entries never reorders them.
    pub fn compact(&mut self, live: impl Fn(&T) -> bool) -> usize {
        let before = self.len();
        self.heap.retain(|r| live(&r.0.payload));
        self.cancelled = 0;
        before - self.len()
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
    fn pop_batch_returns_whole_ties() {
        let mut q = EventQueue::default();
        q.push(1.0, 1);
        q.push(2.0, 2);
        q.push(1.0, 3);
        q.push(1.0, 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), 3);
        assert_eq!(
            batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![1, 3, 4],
            "ties pop FIFO in one batch"
        );
        assert_eq!(q.pop_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, 2);
        assert_eq!(q.pop_batch(&mut batch), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn mid_batch_same_tick_pushes_form_the_next_batch() {
        let mut q = EventQueue::default();
        q.push(1.0, 1);
        let mut batch = Vec::new();
        q.pop_batch(&mut batch);
        // The engine may schedule new work at the tick it is processing;
        // those form a *subsequent* batch at the same time.
        q.push(1.0, 2);
        q.push(1.0, 3);
        assert_eq!(q.pop_batch(&mut batch), 2);
        assert_eq!(
            batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn compaction_drops_stale_entries_in_bulk() {
        let mut q = EventQueue::default();
        for i in 0..100u32 {
            q.push(f64::from(i) * 0.5, i);
        }
        // Everything odd goes stale.
        for _ in 0..50 {
            q.note_cancelled();
        }
        assert_eq!(q.len(), 100);
        let dropped = q.maybe_compact(|payload| payload % 2 == 0);
        assert_eq!(dropped, 50);
        assert_eq!(q.len(), 50);
        assert_eq!(q.cancelled_hint(), 0);
        let popped = drain(&mut q);
        assert_eq!(popped.len(), 50);
        assert!(popped.iter().all(|(_, p)| p % 2 == 0));
    }

    #[test]
    fn compaction_policy_waits_for_enough_cancellations() {
        let mut q = EventQueue::<u32>::default();
        for i in 0..40u32 {
            q.push(f64::from(i), i);
        }
        for _ in 0..10 {
            q.note_cancelled();
        }
        // 10 ≤ 32: not worth a pass yet.
        assert_eq!(q.maybe_compact(|p| p % 4 != 0), 0);
        assert_eq!(q.len(), 40);
    }

    #[test]
    fn queue_length_stays_bounded_under_heavy_cancellation() {
        // The satellite-3 regression: the old heap accumulated every
        // stale finish event until popped. With note_cancelled +
        // maybe_compact after each cancellation wave, stored length must
        // stay O(live), never O(total cancelled) — by wave 200 the old
        // behaviour would hold ~1800 stale entries.
        let mut q = EventQueue::default();
        let mut next_id = 0u32;
        let mut live: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for wave in 0..200u32 {
            let t = f64::from(wave) * 0.25;
            for _ in 0..10 {
                q.push(t + 100.0, next_id);
                live.insert(next_id);
                next_id += 1;
            }
            // Cancel 9 of the 10 — heavy preemption.
            for victim in (next_id - 10)..(next_id - 1) {
                live.remove(&victim);
                q.note_cancelled();
            }
            q.maybe_compact(|id| live.contains(id));
            let bound = 2 * live.len() + 4 * COMPACT_MIN_CANCELLED;
            assert!(
                q.len() <= bound,
                "wave {wave}: stored {} > bound {bound} ({} live) — stale \
                 events accumulate",
                q.len(),
                live.len()
            );
        }
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
