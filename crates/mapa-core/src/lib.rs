//! MAPA — Multi-Accelerator Pattern Allocation (the paper's §3).
//!
//! The framework pipeline of the paper's Fig. 7, end to end:
//!
//! 1. **Application topology** ([`appgraph`]): a job's communication
//!    pattern becomes a small pattern graph (ring/tree/… of Fig. 8).
//! 2. **Hardware topology** (`mapa-topology`): the server is a complete
//!    weighted graph (PCIe fallback everywhere).
//! 3. **Pattern matching**: hardware graphs are complete, so a set's best
//!    embedding is searched within the set ([`scoring`]).
//! 4. **Pattern scoring** ([`scoring`]): Aggregated Bandwidth (Eq. 1),
//!    Predicted Effective Bandwidth (Eq. 2), Preserved Bandwidth (Eq. 3).
//! 5. **Pattern selection** ([`policy`]): Baseline, Topo-aware, Greedy, and
//!    the paper's Preserve policy (Algorithm 1).
//! 6. **State management** ([`MapaAllocator`]): allocate on job start, restore
//!    on job finish (§3.6), with an optional decision cache ([`cache`])
//!    memoizing selections across identical job shapes and recurring
//!    occupancy states.
//! 7. **Preemption** ([`preempt`]): when a high-priority arrival finds no
//!    feasible pattern, a [`PreemptionPolicy`] plans which running
//!    low-priority jobs to vacate ([`MapaAllocator::preemption_plan`] —
//!    verified by trial eviction, then rolled back) and
//!    [`MapaAllocator::evict`] commits; the simulation layer requeues the
//!    victims and charges the checkpoint/restore penalty
//!    (see `docs/SCHEDULING.md`).
//!
//! # Example
//!
//! ```
//! use mapa_core::{MapaAllocator, PreemptionPolicy, policy::PreservePolicy};
//! use mapa_topology::machines;
//! use mapa_workloads::generator;
//! use std::collections::HashSet;
//!
//! let mut alloc = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
//! let jobs = generator::paper_job_mix(42);
//! let result = alloc.try_allocate(&jobs[0]).unwrap().expect("idle machine fits job");
//! assert_eq!(result.gpus.len(), jobs[0].num_gpus());
//!
//! // A full machine + a priority-1 arrival: plan who would be evicted.
//! let urgent = jobs[1]
//!     .clone()
//!     .with_priority(1)
//!     .with_demand(mapa_workloads::GpuDemand::Whole(8)); // needs the whole server
//! let plan = alloc
//!     .preemption_plan(&urgent, PreemptionPolicy::PriorityEvict, &HashSet::new())
//!     .expect("a lower-priority victim exists");
//! assert_eq!(plan, vec![jobs[0].id]);
//! alloc.release(jobs[0].id).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
pub mod appgraph;
pub mod cache;
pub mod fragmentation;
pub mod policy;
pub mod preempt;
pub mod scoring;

pub use allocator::{AllocationOutcome, AllocatorConfig, AllocatorError, MapaAllocator};
pub use cache::{AllocationCache, CacheStats};
pub use policy::{
    allocation_policy_by_name, AllocationPolicy, PolicyContext, ALLOCATION_POLICY_NAMES,
};
pub use preempt::{preemption_policy_by_name, PreemptionPolicy, PREEMPTION_POLICY_NAMES};
