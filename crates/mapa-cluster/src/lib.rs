//! The MAPA cluster layer: many multi-GPU servers behind one scheduler.
//!
//! The paper (§6) evaluates allocation policies on *one* multi-tenant
//! server; production fleets run many — often heterogeneous — machines
//! behind a single submission front end (ParvaGPU's cloud GPU pools,
//! MAGMA's many-accelerator mapping). This crate adds that axis on top of
//! the single-server engine without touching the per-server science:
//!
//! * [`Cluster`] — N shards, each a full [`mapa_core::MapaAllocator`]
//!   (its own [`mapa_topology::HardwareState`]) over its own machine;
//!   shards on an equal machine under the same policy and model share one
//!   allocation cache, across a federation's clusters too. Parallel
//!   dispatch runs best-score's selection peeks on scoped worker threads
//!   that borrow the shards for one ranking.
//! * [`ServerPolicy`] — the pluggable server-selection stage that runs
//!   *before* the per-server `AllocationPolicy`: round-robin,
//!   least-loaded, best-pattern-score (peeks every shard's would-be
//!   placement through the allocation cache), and pack-first. The
//!   two-stage pipeline answers "which server, then which GPUs" in one
//!   [`mapa_sim::SchedulerBackend::try_place`] call. It is the one
//!   ranking seam: the federation ranks clusters with it too.
//! * **Queued dispatch** ([`Cluster::with_shard_queues`]) — each shard
//!   gets its own bounded FIFO queue; the server policy routes arrivals
//!   at admission and each shard drains its own queue, so a slow shard
//!   stalls only its own backlog instead of head-of-line blocking the
//!   fleet. Decision rounds walk the ready shards in place, in shard
//!   order, in either [`DispatchMode`] — schedules are bit-identical to
//!   sequential dispatch, and the parallel mode is measured slower. A
//!   [`MigrationPolicy`]
//!   ([`migrate`]) can requeue waiting jobs from hot queues to idle shards
//!   (work stealing or release-time rebalancing), with counters surfaced
//!   in `SimReport`, the log file, and the CLI's `--json` report.
//! * **Gangs + preemption at fleet scale** — the cluster reserves
//!   capacity for a `JobGroup` atomically across shards (any member
//!   failing rolls the whole reservation back), and under a
//!   `PreemptionPolicy` a blocked high-priority arrival evicts
//!   lower-priority victims on the cheapest shard (global-queue path) or
//!   its own shard (queued path). Semantics: `docs/SCHEDULING.md`.
//! * [`Federation`] ([`federation`]) — the same pattern one level up: N
//!   clusters ranked by a [`ServerPolicy`], each cluster a pool of units
//!   whose load the [`Candidates`] accessor reads on demand (spillover,
//!   round-robin, least-loaded), with per-tenant GPU quotas enforced at
//!   admission and dominant-resource-fair re-admission of quota-held
//!   work. Gangs pin to one cluster when possible and span clusters via
//!   two-phase commit when not.
//!
//! # Example
//!
//! ```
//! use mapa_cluster::{Cluster, LeastLoadedPolicy};
//! use mapa_core::policy::PreservePolicy;
//! use mapa_sim::{Engine, Submission};
//! use mapa_topology::machines;
//! use mapa_workloads::{generator, JobGroup};
//!
//! let fleet = || Cluster::homogeneous(
//!     machines::dgx1_v100(),
//!     4,
//!     || Box::new(PreservePolicy),
//!     Box::new(LeastLoadedPolicy),
//! );
//! let jobs = generator::paper_job_mix(1);
//! let report = Engine::over(fleet()).run(&jobs[..40]);
//! assert_eq!(report.records.len(), 40);
//! assert_eq!(report.shards.len(), 4);
//!
//! // Gangs reserve capacity across shards atomically: members of this
//! // pair start at the same tick, wherever they are placed.
//! let gang = JobGroup::new(1, jobs[40..42].to_vec());
//! let report = Engine::over(fleet()).run_submissions(vec![Submission::Gang(gang)]);
//! assert_eq!(report.records[0].started_at, report.records[1].started_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod federation;
pub mod migrate;
pub mod policy;

pub use cluster::{Cluster, DispatchMode, DEFAULT_SHARD_QUEUE_DEPTH};
pub use federation::{federation_policy_by_name, Federation, FEDERATION_POLICY_NAMES};
pub use migrate::{
    migration_policy_by_name, MigrationPolicy, MigrationStats, MIGRATION_POLICY_NAMES,
};
pub use policy::LeastLoadedPolicy as FedLeastLoadedPolicy;
pub use policy::{
    server_policy_by_name, BestScorePolicy, Candidates, LeastLoadedPolicy, PackFirstPolicy,
    RoundRobinPolicy, ServerPolicy, SpilloverPolicy, SERVER_POLICY_NAMES,
};
