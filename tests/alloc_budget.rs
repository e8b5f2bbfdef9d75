//! Heap allocations per completed job on the steady-state dispatch path:
//! engine → backend → `MapaAllocator` → `HardwareState`. What a job keeps
//! — its decision's GPU list, the state's per-job GPU list, the finish
//! event's boxed record — is allocated once; scratch that dies inside the
//! call that made it is not allocated at all. The budgets sit above what
//! the kept allocations and the engine's amortised growth cost, and below
//! what a per-call scratch `Vec` or `BitSet` on any layer would add.
//!
//! A counting global allocator (test-only; the library crates forbid
//! `unsafe`) counts every allocation and reallocation of the calling
//! thread, so parallel tests do not see each other's.

use mapa::prelude::*;
use mapa::sim::SingleServer;
use mapa::workloads::generator::JobMixConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each allocation into this thread's
/// `ALLOCATIONS` (`realloc` and `alloc_zeroed` come through `alloc`).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per completed job while `engine` runs `jobs`.
fn allocations_per_job<B: SchedulerBackend>(engine: Engine<B>, jobs: &[JobSpec]) -> f64 {
    let before = ALLOCATIONS.with(Cell::get);
    let report = engine.run(jobs);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(report.records.len(), jobs.len(), "every job completes");
    allocations as f64 / jobs.len() as f64
}

/// The paper's 1–5-GPU mix on one DGX-1 V100 under Preserve: the engine's
/// global FIFO and the allocator's cache-hit path. Over 3 000 jobs about a
/// quarter of the decisions still miss the cache, and a miss tabulates a
/// scorer and stores an entry with one copy of the busy words, so the
/// budget sits above the three kept allocations by more than on the fleet.
#[test]
fn alloc_budget_single_server_paper_mix() {
    let jobs = generator::generate_jobs(
        &JobMixConfig {
            job_count: 3_000,
            ..JobMixConfig::default()
        },
        11,
    );
    let server = SingleServer::new(machines::dgx1_v100(), Box::new(PreservePolicy));
    let per_job = allocations_per_job(Engine::over(server), &jobs);
    assert!(
        per_job <= 5.0,
        "{per_job:.2} allocations per job (budget 5)"
    );
}

/// 1–2-GPU jobs through 64 queued DGX-1 V100 shards under round-robin
/// routing: admission, decision rounds and releases on a wide fleet.
#[test]
fn alloc_budget_queued_round_robin_fleet() {
    let jobs = generator::generate_jobs(
        &JobMixConfig {
            job_count: 6_000,
            gpus_min: 1,
            gpus_max: 2,
            workloads: vec![Workload::Gmm],
            iteration_jitter: 0.0,
            ..JobMixConfig::default()
        },
        11,
    );
    let fleet = Cluster::homogeneous(
        machines::dgx1_v100(),
        64,
        || Box::new(BaselinePolicy),
        Box::new(RoundRobinPolicy),
    )
    .with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH);
    let per_job = allocations_per_job(Engine::over(fleet), &jobs);
    assert!(
        per_job <= 5.0,
        "{per_job:.2} allocations per job (budget 5)"
    );
}
