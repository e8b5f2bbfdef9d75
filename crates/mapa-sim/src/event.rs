//! Engine event types, scheduled on the engine's
//! [`EventQueue`](crate::queue::EventQueue).
//!
//! The per-job state the finish events point into lives in
//! [`crate::slab`].

/// A pending simulation event's payload. `Copy` and 16 bytes — events
/// move through the heap and batch drains by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The next submission arrives at the dispatcher. Only one arrival
    /// is ever pending: the engine schedules the next one when this one
    /// fires.
    JobArrival,
    /// A running job completes and frees its GPUs. Preempting a job
    /// cancels this event, queued or already popped with the current
    /// tick, in the same step that frees the job's slot, so a pending
    /// finish event always names the run it ends.
    JobFinished {
        /// Index of the running job's entry in the engine's slab.
        slot: usize,
    },
}
