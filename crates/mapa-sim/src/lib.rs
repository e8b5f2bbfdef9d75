//! The MAPA simulation framework (paper §5, Fig. 14).
//!
//! "The simulation starts with a job file. … The Dispatcher reads the job
//! file and puts the job in the Job Queue. The Job Queue employs a
//! First-in First-out policy … If there exist available GPU resources, the
//! simulator invokes MAPA to obtain an allocation for the next job. The
//! execution engine … models the availability of a hardware resource. When
//! a job is allocated, we flag the hardware as busy, record the cycle
//! time, and begin the execution of the job. Once the specified execution
//! time has elapsed, we … log the job's information … The logger records
//! the Predicted Effective Bandwidth information along with other job
//! properties."
//!
//! Our engine is identical in structure, with one upgrade over the paper's
//! description: instead of replaying fixed measured execution times, job
//! duration is computed from the workload performance model and the
//! *actual effective bandwidth* of the allocation the policy produced —
//! so allocation quality feeds back into execution time exactly as on the
//! real machine.
//!
//! Beyond the paper, the engine is generic over its placement stage
//! ([`SchedulerBackend`]): [`Simulation`] is the paper's single-server
//! instantiation ([`Engine`]`<`[`SingleServer`]`>`), and `mapa-cluster`
//! plugs a sharded multi-server fleet into the same dispatcher, queue,
//! and event loop.
//!
//! Two multi-tenant mechanisms extend the Fig. 14 semantics, both off
//! by default (and provably inert when off):
//!
//! * **Preemption** ([`SimConfig::preemption`]): a blocked
//!   higher-priority arrival may evict strictly-lower-priority running
//!   jobs; victims are checkpointed, requeued once, and charged a
//!   restore penalty ([`SimConfig::preemption_penalty_seconds`]).
//! * **Gang scheduling** ([`Submission::Gang`], via
//!   [`Engine::run_submissions`]): a `JobGroup`'s members start at the
//!   same simulation tick or not at all.
//!
//! The full lifecycle and ordering rules live in `docs/SCHEDULING.md`.
//!
//! # Example
//!
//! ```
//! use mapa_sim::{Simulation, SimConfig, Submission};
//! use mapa_core::policy::PreservePolicy;
//! use mapa_topology::machines;
//! use mapa_workloads::{generator, JobGroup};
//!
//! let jobs = generator::paper_job_mix(1);
//! let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
//!     .run(&jobs[..20]);
//! assert_eq!(report.records.len(), 20);
//! assert!(report.makespan_seconds > 0.0);
//!
//! // The same engine co-schedules gangs: both members of this pair
//! // start at the same simulation tick.
//! let gang = JobGroup::new(1, jobs[20..22].to_vec());
//! let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
//!     .run_submissions(vec![Submission::Gang(gang)]);
//! assert_eq!(report.records[0].started_at, report.records[1].started_at);
//! assert_eq!(report.gangs.gangs_dispatched, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod digest;
mod engine;
pub mod logfile;
pub mod queue;
pub mod stats;

pub use engine::{
    configure_allocator, ArrivalProcess, DispatchReport, DispatchedJob, Engine, Eviction,
    FedClusterStats, FedTenantStats, FederationReport, GangStats, JobRecord, JobRejection,
    PendingJob, Placement, PreemptionStats, QueueItem, QueueStats, SchedulerBackend, ShardStats,
    SimConfig, SimReport, Simulation, SingleServer, SloStats, Submission,
    DEFAULT_PREEMPTION_PENALTY_SECONDS,
};
