//! Engine event types, scheduled on the engine's
//! [`EventQueue`](crate::queue::EventQueue).
//!
//! The per-job state the finish events point into lives in
//! [`crate::slab`].

use crate::slab::SlotId;

/// A pending simulation event's payload. `Copy` and 12 bytes — events
/// move through the heap and batch drains by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The next submission arrives at the dispatcher. Only one arrival
    /// is ever pending: the engine schedules the next one when this one
    /// fires.
    JobArrival,
    /// A running job completes and frees its GPUs. `slot` addresses the
    /// job's entry in the engine's running-job slab; preempting a job
    /// removes that entry (bumping the slot's generation), so the
    /// victim's already-scheduled finish event goes stale and its
    /// `Slab::remove` returns `None` — lazy cancellation with no
    /// separate epoch table. Stale entries are additionally compacted
    /// out of the queue in bulk after eviction waves
    /// (`EventQueue::maybe_compact`) so they never accumulate.
    JobFinished {
        /// Slab slot (index + generation) of the running job.
        slot: SlotId,
    },
}
