//! # MAPA — Multi-Accelerator Pattern Allocation
//!
//! A production-quality reproduction of *"MAPA: Multi-Accelerator Pattern
//! Allocation Policy for Multi-Tenant GPU Servers"* (Ranganath et al.,
//! SC '21), including every substrate the paper relies on: a subgraph-
//! matching engine standing in for Peregrine, the DGX/Summit/synthetic
//! machine topologies, an NCCL-style interconnect simulator replacing the
//! hardware microbenchmarks, the Eq. 2 effective-bandwidth regression,
//! analytic workload models for the nine evaluated applications, and the
//! Fig. 14 multi-tenant simulator.
//!
//! This crate is a façade: each subsystem lives in its own crate and is
//! re-exported here under a stable module name.
//!
//! ## Quick start
//!
//! ```
//! use mapa::prelude::*;
//!
//! // A multi-tenant DGX-1 V100 scheduled with the paper's Preserve policy.
//! let mut allocator = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
//!
//! // A bandwidth-sensitive 3-GPU ring job (VGG-16-like).
//! let job = JobSpec::new(1, GpuDemand::Whole(3), Workload::Vgg16)
//!     .with_topology(AppTopology::Ring)
//!     .with_bandwidth_sensitive(true)
//!     .with_iterations(3000);
//! let outcome = allocator.try_allocate(&job).unwrap().expect("machine is idle");
//! assert_eq!(outcome.gpus.len(), 3);
//! // The Preserve policy gives sensitive jobs a high-EffBW match.
//! assert!(outcome.score.predicted_eff_bw > 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod report;
pub mod reproduce;
pub mod runspec;

pub use mapa_agent as agent;
pub use mapa_cluster as cluster;
pub use mapa_core as core;
pub use mapa_graph as graph;
pub use mapa_interconnect as interconnect;
pub use mapa_isomorph as isomorph;
pub use mapa_model as model;
pub use mapa_sim as sim;
pub use mapa_topology as topology;
pub use mapa_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use mapa_agent::{
        Agent, AgentError, AllocateRequest, FakeProbe, GpuProbe, MachineDescription, Occupancy,
        Placement, ProbeSnapshot, SmiProbe, StateDir, StatusReport,
    };
    pub use mapa_cluster::{
        federation_policy_by_name, migration_policy_by_name, server_policy_by_name,
        BestScorePolicy, Candidates, Cluster, DispatchMode, Federation, LeastLoadedPolicy,
        MigrationPolicy, MigrationStats, PackFirstPolicy, RoundRobinPolicy, ServerPolicy,
        SpilloverPolicy, DEFAULT_SHARD_QUEUE_DEPTH, FEDERATION_POLICY_NAMES,
    };
    pub use mapa_core::policy::{
        AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
        TopoAwarePolicy,
    };
    pub use mapa_core::{
        preemption_policy_by_name, scoring, AllocationCache, AllocationOutcome, AllocatorConfig,
        CacheStats, MapaAllocator, PreemptionPolicy, ALLOCATION_POLICY_NAMES,
    };
    pub use mapa_graph::{Graph, PatternGraph};
    pub use mapa_isomorph::{default_threads, WorkerPool};
    pub use mapa_model::{corpus, EffBwModel};
    pub use mapa_sim::campaign::{crn_seed, CampaignSpec, CellSummary};
    pub use mapa_sim::{
        stats, ArrivalProcess, DispatchReport, Engine, FederationReport, GangStats, JobRejection,
        PendingJob, PreemptionStats, SchedulerBackend, SimConfig, SimReport, Simulation, SloStats,
        Submission,
    };

    pub use crate::campaign::{allocation_policy_by_name, CampaignGrid, GridCell};
    pub use crate::runspec::{RunSpec, Shared};
    pub use mapa_topology::{
        machines, HardwareState, LinkMix, LinkType, PartitionPlan, SliceBandwidth, SliceMap,
        Topology,
    };
    pub use mapa_workloads::{
        generator, perf, AppTopology, GpuDemand, JobGroup, JobSpec, Workload,
    };
}
