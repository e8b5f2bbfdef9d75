//! # mapa-agent — the real-hardware actuation front end
//!
//! Everything else in this workspace *simulates* the paper's
//! multi-accelerator pattern allocation; this crate *actuates* it on a
//! physical box. The loop it closes:
//!
//! 1. **Probe** — a [`GpuProbe`] enumerates the machine: device count,
//!    models, memory, NVLink brick matrix, per-GPU utilization and
//!    resident pids. Production uses [`SmiProbe`] (parses `nvidia-smi`
//!    output); every test and CI path uses the deterministic,
//!    fault-injectable [`FakeProbe`]. Nothing downstream can tell them
//!    apart — that seam is the whole design.
//! 2. **Map** — [`machine_from_snapshot`] turns the snapshot into a
//!    `mapa-topology` machine description, matching known profiles
//!    structurally (a real DGX-1 V100 gets *exactly* the description
//!    the simulator and the paper's evaluation use) and synthesizing
//!    one otherwise.
//! 3. **Decide** — the description plus current occupancy (on-disk
//!    leases and probe-observed busy GPUs) is replayed into a fresh
//!    `MapaAllocator`, so placements on hardware are the same
//!    placements the simulator would make. No allocator semantics are
//!    duplicated here.
//! 4. **Actuate** — the decision is recorded in a lockfile-coordinated
//!    on-disk ledger ([`StateDir`]) and handed back as a
//!    `CUDA_VISIBLE_DEVICES` string. Concurrent agents on one machine
//!    serialize through the lock, reclaim stale (dead-pid) locks
//!    exactly once, and fail closed on any ledger they cannot prove
//!    intact — no double-booking, no partial actuation.
//!
//! The CLI lives in the workspace root (`mapa-agent` binary); this
//! crate is the library underneath it and under the offline test
//! harness (`tests/agent_*.rs` at the workspace root).

#![warn(missing_docs)]

pub mod agent;
pub mod fake;
pub mod ledger;
pub mod map;
pub mod probe;
pub mod smi;

pub use agent::{
    assess_occupancy, Agent, AgentError, AllocateRequest, GpuStatus, Occupancy, Placement,
    StatusReport, IDLE_MAX_MEMORY_MIB, IDLE_MAX_UTILIZATION_PCT,
};
pub use fake::FakeProbe;
pub use ledger::{proc_liveness, Lease, Ledger, LivenessFn, LockGuard, StateDir};
pub use map::{machine_from_snapshot, structurally_equal, MachineDescription};
pub use probe::{GpuInfo, GpuProbe, ProbeError, ProbeSnapshot, ProcessInfo};
pub use smi::SmiProbe;
