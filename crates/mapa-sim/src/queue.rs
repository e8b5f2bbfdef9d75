//! Event-queue implementations for the discrete-event engine.
//!
//! Two queues with one contract — events pop in ascending `(time, seq)`
//! order, ties FIFO-stable by push order:
//!
//! * [`ReferenceQueue`] is the pre-PR 6 engine queue: one
//!   `BinaryHeap` with a reversed `(time, seq)` ordering. O(log n) per
//!   operation, kept as the differential-test oracle
//!   (`tests/event_queue_equivalence.rs`).
//! * [`CalendarQueue`] is the engine's production queue: a paged
//!   calendar of `buckets` × `width`-second buckets over the window
//!   `[origin, origin + buckets × width)`, with a heap fallback for
//!   far-future events beyond the horizon. Tuned for homogeneous
//!   finish-event traffic: pushes are O(1) appends, a bucket is sorted
//!   only when the drain cursor works on it, same-tick batches pop as
//!   one contiguous slice ([`CalendarQueue::pop_batch`]), and
//!   lazily-cancelled entries are compacted in bulk
//!   ([`CalendarQueue::maybe_compact`]) instead of paying a heap pop
//!   each.
//!
//! The calendar queue requires *monotone* pushes — every push's time is
//! ≥ the last popped time — which discrete-event simulation guarantees
//! by construction (an event scheduled at `now + delay`, `delay ≥ 0`,
//! never precedes `now`). Violations panic in debug builds.
//!
//! # Ordering invariant
//!
//! Bucket time ranges are disjoint and ascending, the cursor bucket
//! holds the earliest stored events (pushes behind the cursor are
//! clamped into it), and the overflow heap only holds events at or
//! beyond the window horizon — so the earliest un-popped event is
//! always in the first non-empty bucket at or after the cursor (or the
//! window is empty and the queue re-anchors at the overflow minimum).
//! Equal-time events always land in the same bucket — the bucket index
//! is a pure function of the time for one window position, and the
//! window only moves while the wheel is empty — so a same-tick batch is
//! always contiguous in one sorted bucket.

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

/// The pre-PR 6 engine queue: one binary heap, O(log n) per operation.
/// Kept as the oracle the calendar queue is differentially tested
/// against.
#[derive(Debug, Default)]
pub struct ReferenceQueue<T> {
    heap: BinaryHeap<Rev<T>>,
    next_seq: u64,
}

impl<T> ReferenceQueue<T> {
    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: f64, payload: T) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Rev(TimedEvent { time, seq, payload }));
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<TimedEvent<T>> {
        self.heap.pop().map(|r| r.0)
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
}

/// Default bucket width in simulated seconds.
pub const DEFAULT_BUCKET_WIDTH: f64 = 1.0;
/// Default bucket count (window = width × count seconds).
pub const DEFAULT_BUCKET_COUNT: usize = 1024;

/// Compact lazily-cancelled entries once more than this many have
/// accumulated *and* they outnumber live entries (see
/// [`CalendarQueue::maybe_compact`]). Public so the boundedness tests
/// can phrase their O(live) pin in terms of the policy's actual slack.
pub const COMPACT_MIN_CANCELLED: usize = 32;

/// A paged calendar queue with a far-future overflow heap. See the
/// module docs for the design and its ordering invariant.
///
/// Buckets are plain `Vec`s kept sorted *descending* by `(time, seq)`
/// while being drained, so a pop is `Vec::pop` — O(1), no heap
/// rebalancing — and a same-tick batch is a contiguous tail slice.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<TimedEvent<T>>>,
    width: f64,
    /// Start time of bucket 0 of the current page.
    origin: f64,
    /// Bucket currently being drained.
    cursor: usize,
    /// Whether `buckets[cursor]` is currently sorted descending (pushes
    /// into it clear this; the next pop re-sorts).
    cursor_sorted: bool,
    /// One bit per bucket: set iff the bucket is non-empty. Positioning
    /// finds the next occupied bucket with a word scan instead of
    /// touching up to `count` empty `Vec`s — that walk, not the pops,
    /// dominates when events are sparse across the window.
    occupied: Vec<u64>,
    /// Events currently stored in buckets.
    wheel_len: usize,
    /// Events at or beyond the window horizon.
    overflow: BinaryHeap<Rev<T>>,
    next_seq: u64,
    /// Entries the owner has marked stale via [`Self::note_cancelled`]
    /// but that still occupy a slot.
    cancelled: usize,
    /// Largest time popped so far (monotone-push check).
    floor: f64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_WIDTH, DEFAULT_BUCKET_COUNT)
    }
}

impl<T> CalendarQueue<T> {
    /// A queue with `count` buckets of `width` simulated seconds each.
    ///
    /// # Panics
    /// Panics on a non-positive width or a zero bucket count.
    #[must_use]
    pub fn with_geometry(width: f64, count: usize) -> Self {
        assert!(width > 0.0 && width.is_finite(), "bucket width {width}");
        assert!(count > 0, "need at least one bucket");
        Self {
            buckets: std::iter::repeat_with(Vec::new).take(count).collect(),
            width,
            origin: 0.0,
            cursor: 0,
            cursor_sorted: false,
            occupied: vec![0; count.div_ceil(64)],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            cancelled: 0,
            floor: 0.0,
        }
    }

    /// End of the current window: events at or beyond it overflow.
    fn horizon(&self) -> f64 {
        self.origin + self.width * self.buckets.len() as f64
    }

    /// Schedules `payload` at `time`. Must be ≥ the last popped time
    /// (checked in debug builds) — the discrete-event monotone-push
    /// contract the calendar layout relies on.
    pub fn push(&mut self, time: f64, payload: T) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
        debug_assert!(
            time >= self.floor,
            "monotone-push violation: push at {time} after popping {}",
            self.floor
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = TimedEvent { time, seq, payload };
        if time >= self.horizon() {
            self.overflow.push(Rev(event));
            return;
        }
        // A push earlier than the cursor bucket's range can only happen
        // right after a re-anchor jumped the window forward; clamp it
        // into the cursor bucket, where (time, seq) sorting still pops
        // it first.
        let idx = (((time - self.origin) / self.width) as usize)
            .clamp(self.cursor, self.buckets.len() - 1);
        if idx == self.cursor && self.cursor_sorted {
            // The drain bucket is already sorted descending; splice the
            // event in at its position instead of invalidating the sort
            // (which would re-sort the whole bucket on the next pop).
            // The new event carries the largest seq, so among equal
            // times it lands before its older ties — and those ties sit
            // at the tail (everything earlier was already popped), so
            // the memmove is short for the common same-tick push.
            let bucket = &mut self.buckets[idx];
            let at = bucket.partition_point(|e| event_order(e, &event) == Ordering::Greater);
            bucket.insert(at, event);
        } else {
            self.buckets[idx].push(event);
            if idx == self.cursor {
                self.cursor_sorted = false;
            }
        }
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.wheel_len += 1;
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<TimedEvent<T>> {
        if !self.position_at_min() {
            return None;
        }
        let event = self.buckets[self.cursor].pop().expect("positioned");
        self.wheel_len -= 1;
        if self.buckets[self.cursor].is_empty() {
            self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
        }
        self.floor = event.time;
        Some(event)
    }

    /// Drains the entire same-tick batch at the queue's minimum time
    /// into `out` (cleared first): the earliest event plus every stored
    /// event scheduled for the exact same time, in FIFO order. Returns
    /// the batch size (0 when empty). One call replaces N heap pops; the
    /// engine still processes batch members one by one, so scheduling
    /// semantics are unchanged.
    pub fn pop_batch(&mut self, out: &mut Vec<TimedEvent<T>>) -> usize {
        out.clear();
        if !self.position_at_min() {
            return 0;
        }
        let bucket = &mut self.buckets[self.cursor];
        let tick = bucket.last().expect("positioned").time;
        while let Some(last) = bucket.last() {
            if last.time.total_cmp(&tick) != Ordering::Equal {
                break;
            }
            out.push(bucket.pop().expect("peeked"));
        }
        let emptied = bucket.is_empty();
        if emptied {
            self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
        }
        self.wheel_len -= out.len();
        self.floor = tick;
        out.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.overflow.is_empty()
    }

    /// Pending event count (live + not-yet-compacted cancelled).
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
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
    /// inflating it, triggering full-wheel compactions that do no work.
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

    /// Unconditional bulk compaction (see [`Self::maybe_compact`]).
    /// Dropping entries never reorders survivors, so pop order is
    /// unaffected.
    pub fn compact(&mut self, live: impl Fn(&T) -> bool) -> usize {
        let before = self.len();
        for (idx, bucket) in self.buckets.iter_mut().enumerate() {
            bucket.retain(|e| live(&e.payload));
            if bucket.is_empty() {
                self.occupied[idx / 64] &= !(1 << (idx % 64));
            }
        }
        self.wheel_len = self.buckets.iter().map(Vec::len).sum();
        let kept: Vec<Rev<T>> = std::mem::take(&mut self.overflow)
            .into_iter()
            .filter(|r| live(&r.0.payload))
            .collect();
        self.overflow = kept.into_iter().collect();
        self.cancelled = 0;
        before - self.len()
    }

    /// First occupied bucket at or after `from`, by scanning the
    /// occupancy bitmap a word (64 buckets) at a time.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= self.occupied.len() {
            return None;
        }
        let mut word = self.occupied[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.occupied.len() {
                return None;
            }
            word = self.occupied[w];
        }
    }

    /// Advances cursor/page state until `buckets[cursor]` is non-empty,
    /// sorted descending, and holds the globally-earliest stored event
    /// at its end. Returns false when the queue is empty.
    ///
    /// Every stored wheel event sits at a bucket index ≥ cursor (pushes
    /// clamp there, and earlier buckets were drained before the cursor
    /// left them), so when the wheel is non-empty the bitmap scan always
    /// finds the bucket; when it is empty, the window jumps straight to
    /// the overflow minimum's page — there is no page-by-page stepping.
    fn position_at_min(&mut self) -> bool {
        if self.wheel_len == 0 {
            if self.overflow.is_empty() {
                return false;
            }
            self.reanchor_at_overflow_min();
        }
        let idx = self
            .next_occupied(self.cursor)
            .expect("non-empty wheel has an occupied bucket at or after the cursor");
        if idx != self.cursor {
            self.cursor = idx;
            self.cursor_sorted = false;
        }
        if !self.cursor_sorted {
            self.buckets[self.cursor].sort_unstable_by(|a, b| event_order(b, a));
            self.cursor_sorted = true;
        }
        true
    }

    /// The wheel is empty: jump the window straight to the overflow
    /// minimum's page (no page-by-page stepping across a gap — this is
    /// what makes far-future outliers cheap).
    fn reanchor_at_overflow_min(&mut self) {
        let min_time = self.overflow.peek().expect("caller checked").0.time;
        let window = self.width * self.buckets.len() as f64;
        let pages = ((min_time - self.origin) / window).floor().max(0.0);
        self.origin += window * pages;
        // Float rounding at a page boundary may still leave the minimum
        // beyond the horizon; nudge until it is inside.
        while min_time >= self.horizon() {
            self.origin += window;
        }
        self.cursor = 0;
        self.cursor_sorted = false;
        self.drain_overflow_into_window();
    }

    fn drain_overflow_into_window(&mut self) {
        while let Some(peek) = self.overflow.peek() {
            if peek.0.time >= self.horizon() {
                break;
            }
            let event = self.overflow.pop().expect("peeked").0;
            let idx =
                (((event.time - self.origin) / self.width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx].push(event);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
            if idx == self.cursor {
                self.cursor_sorted = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.time, e.payload))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::default();
        q.push(5.0, 1);
        q.push(1.0, 2);
        q.push(3.0, 3);
        assert_eq!(drain(&mut q), vec![(1.0, 2), (3.0, 3), (5.0, 1)]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::default();
        for id in 10..13 {
            q.push(2.0, id);
        }
        assert_eq!(drain(&mut q), vec![(2.0, 10), (2.0, 11), (2.0, 12)]);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut q = CalendarQueue::with_geometry(1.0, 8);
        q.push(3.0, 1);
        q.push(1_000_000.5, 2); // far beyond the 8-second window
        q.push(500.0, 3);
        assert_eq!(drain(&mut q), vec![(3.0, 1), (500.0, 3), (1_000_000.5, 2)]);
    }

    #[test]
    fn push_exactly_at_the_horizon_overflows_not_wraps() {
        // horizon() = origin + width × buckets: with origin 0, width 1.0,
        // 8 buckets, a push at exactly t = 8.0 is the first instant
        // *outside* the window. The floating-point bucket index would be
        // 8 — one past the last bucket — so the `time >= horizon()`
        // guard must route it to the overflow heap, never clamp it into
        // bucket 7 (which would deliver it before a t = 7.5 event ties
        // were broken against).
        let mut q = CalendarQueue::with_geometry(1.0, 8);
        q.push(8.0, 1); // exactly horizon → overflow
        q.push(7.5, 2); // inside the last bucket
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![(7.5, 2), (8.0, 1)]);
    }

    #[test]
    fn push_just_below_the_horizon_lands_in_the_last_bucket() {
        let mut q = CalendarQueue::with_geometry(1.0, 8);
        // The largest representable f64 below 8.0: still inside the
        // window, so it must take the wheel path (last bucket), and the
        // index computation must not round up past `buckets.len() - 1`.
        let just_below = f64::from_bits(8.0f64.to_bits() - 1);
        assert!(just_below < 8.0);
        q.push(just_below, 1);
        q.push(0.5, 2);
        assert_eq!(drain(&mut q), vec![(0.5, 2), (just_below, 1)]);
    }

    #[test]
    fn horizon_boundary_round_trips_after_reanchor() {
        // Overflowed events re-enter the wheel once the window advances:
        // draining past the original horizon must preserve global order
        // across the wheel/overflow boundary, including new pushes that
        // land exactly on the *new* window's edge.
        let mut q = CalendarQueue::with_geometry(1.0, 4);
        q.push(4.0, 1); // exactly the first horizon → overflow
        q.push(1.0, 2);
        assert_eq!(q.pop().map(|e| e.payload), Some(2));
        // Popping 1.0 then draining to the overflow min re-anchors the
        // window at 4.0; the event comes back out of the wheel.
        assert_eq!(q.pop().map(|e| (e.time, e.payload)), Some((4.0, 1)));
        q.push(8.0, 3); // beyond the re-anchored window too
        q.push(5.0, 4);
        assert_eq!(drain(&mut q), vec![(5.0, 4), (8.0, 3)]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::with_geometry(0.5, 4);
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
        let mut q = CalendarQueue::default();
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
        let mut q = CalendarQueue::default();
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
        let mut q = CalendarQueue::with_geometry(1.0, 16);
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
        let mut q = CalendarQueue::<u32>::default();
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
        let mut q = CalendarQueue::with_geometry(1.0, 64);
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
    fn page_boundaries_and_gaps_are_crossed_correctly() {
        let mut q = CalendarQueue::with_geometry(1.0, 4);
        q.push(0.5, 0);
        q.push(5.5, 1); // next page (window is 4 s)
        q.push(17.25, 2); // several pages later
        q.push(17.25, 3);
        assert_eq!(
            drain(&mut q),
            vec![(0.5, 0), (5.5, 1), (17.25, 2), (17.25, 3)]
        );
        // After draining far ahead, near-term pushes relative to the new
        // floor still order correctly.
        q.push(18.0, 4);
        q.push(17.5, 5);
        assert_eq!(drain(&mut q), vec![(17.5, 5), (18.0, 4)]);
    }

    #[test]
    fn reference_queue_matches_old_engine_contract() {
        let mut q = ReferenceQueue::default();
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
        let mut q = CalendarQueue::default();
        q.push(10.0, 1u32);
        q.pop();
        q.push(5.0, 2);
    }
}
