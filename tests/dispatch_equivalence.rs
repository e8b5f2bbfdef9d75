//! The determinism harness that makes concurrent dispatch safe to keep
//! refactoring: `DispatchMode::Parallel` must replay
//! `DispatchMode::Sequential` bit-identically — same placements, same
//! servers, same start/finish times, same scores — for every allocation
//! policy × server policy combination, on both dispatch paths:
//!
//! * the **global-queue path** (PR 3's cluster: one engine FIFO,
//!   ranked fall-through), where parallel dispatch evaluates the
//!   server-selection score peeks concurrently; `Sequential` here *is*
//!   PR 3's cluster — the code path is unchanged — so this half also
//!   pins that the new dispatch layer with `MigrationPolicy::None` and
//!   no shard queues replays PR 3 byte for byte;
//! * the **queued path** (per-shard bounded queues), where decision
//!   rounds run in place in both modes and parallel dispatch spreads
//!   best-score's routing peeks over the pool's scoped workers.
//!
//! The argument (see ARCHITECTURE.md): each peek reads and writes only
//! its shard's allocator, each task writes only its own chunk of the
//! scores, and every cross-shard step — routing, decision rounds,
//! migration — runs serially in both modes. Wall-clock changes; the
//! schedule cannot. The property tests below check it anyway, across
//! randomized job streams, because that argument is exactly the kind of
//! thing refactors silently break.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::core::PreemptionPolicy;
use mapa::isomorph::WorkerPool;
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use mapa::sim::Submission;
use mapa::workloads::{assign_priority_classes, assign_tenants, JobGroup};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[path = "util/golden.rs"]
mod golden;

fn policy_by_index(i: usize) -> Box<dyn AllocationPolicy> {
    match i % 5 {
        0 => Box::new(BaselinePolicy),
        1 => Box::new(TopoAwarePolicy),
        2 => Box::new(GreedyPolicy),
        3 => Box::new(PreservePolicy),
        _ => Box::new(EffBwGreedyPolicy),
    }
}

fn server_policy_by_index(i: usize) -> Box<dyn ServerPolicy> {
    match i % 4 {
        0 => Box::new(RoundRobinPolicy),
        1 => Box::new(LeastLoadedPolicy),
        2 => Box::new(BestScorePolicy),
        _ => Box::new(PackFirstPolicy),
    }
}

fn fleet(servers: usize, policy_idx: usize, server_policy_idx: usize) -> Cluster {
    Cluster::homogeneous(
        machines::dgx1_v100(),
        servers,
        || policy_by_index(policy_idx),
        server_policy_by_index(server_policy_idx),
    )
}

/// `fleet` dispatching in parallel on a pool of its own `threads`
/// workers, whatever the host's core count: one worker runs every chunk in
/// turn, and 3 shards on 2 or 4 workers split into uneven chunks.
fn parallel_fleet(
    servers: usize,
    policy_idx: usize,
    server_policy_idx: usize,
    threads: usize,
) -> Cluster {
    Cluster::with_shared_resources(
        vec![machines::dgx1_v100(); servers],
        || policy_by_index(policy_idx),
        server_policy_by_index(server_policy_idx),
        Arc::new(WorkerPool::new(threads)),
        &mut HashMap::new(),
    )
    .with_dispatch(DispatchMode::Parallel)
}

/// Bit-identical schedules: every semantic field of every record must
/// agree (wall-clock `scheduling_overhead` is the one field that
/// legitimately differs between dispatch modes).
fn assert_identical_schedules(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{context}");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.job.id, y.job.id, "{context}");
        assert_eq!(x.server, y.server, "{context}: server choice");
        assert_eq!(x.gpus, y.gpus, "{context}: placements");
        assert_eq!(x.submitted_at, y.submitted_at, "{context}");
        assert_eq!(x.started_at, y.started_at, "{context}");
        assert_eq!(x.finished_at, y.finished_at, "{context}");
        assert_eq!(x.predicted_eff_bw, y.predicted_eff_bw, "{context}");
        assert_eq!(x.measured_eff_bw, y.measured_eff_bw, "{context}");
        assert_eq!(x.aggregated_bw, y.aggregated_bw, "{context}");
        assert_eq!(x.allocation_quality, y.allocation_quality, "{context}");
    }
    assert_eq!(a.makespan_seconds, b.makespan_seconds, "{context}");
    assert_eq!(a.queue.max_depth, b.queue.max_depth, "{context}");
    assert_eq!(
        a.queue.dispatch_blocks, b.queue.dispatch_blocks,
        "{context}"
    );
    // Per-shard accounting and migration counters must agree too.
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(sa.jobs_completed, sb.jobs_completed, "{context}");
        assert_eq!(sa.gpu_seconds, sb.gpu_seconds, "{context}");
    }
    let (da, db) = (a.dispatch.as_ref(), b.dispatch.as_ref());
    if let (Some(da), Some(db)) = (da, db) {
        assert_eq!(da.jobs_stolen, db.jobs_stolen, "{context}");
        assert_eq!(da.jobs_rebalanced, db.jobs_rebalanced, "{context}");
        assert_eq!(da.max_queue_depths, db.max_queue_depths, "{context}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Queued path: parallel shard decisions replay sequential ones
    /// bit-identically for every allocation × server policy combination
    /// on randomized job streams, shard counts, and queue depths.
    #[test]
    fn dispatch_parallel_replays_sequential_on_shard_queues(
        seed in 1u64..500,
        take in 20usize..50,
        servers in 2usize..4,
        depth in 2usize..10,
        server_policy_idx in 0usize..4,
        threads in 1usize..5,
    ) {
        let jobs = generator::paper_job_mix(seed);
        let jobs = &jobs[..take];
        for policy_idx in 0..5 {
            let seq = Engine::over(
                fleet(servers, policy_idx, server_policy_idx).with_shard_queues(depth),
            )
            .run(jobs);
            let par = Engine::over(
                parallel_fleet(servers, policy_idx, server_policy_idx, threads)
                    .with_shard_queues(depth),
            )
            .run(jobs);
            let context = format!(
                "queued: alloc #{policy_idx}, server #{server_policy_idx}, \
                 seed {seed}, {servers} shards, depth {depth}, {threads} threads"
            );
            assert_identical_schedules(&seq, &par, &context);
        }
    }

    /// Global-queue path (PR 3's cluster, code-path unchanged when
    /// sequential): parallel score peeks replay it bit-identically for
    /// every allocation × server policy combination — the new dispatch
    /// layer with no shard queues and `MigrationPolicy::None` *is* the
    /// PR 3 cluster.
    #[test]
    fn dispatch_parallel_replays_pr3_global_queue_cluster(
        seed in 1u64..500,
        take in 20usize..45,
        servers in 2usize..4,
        server_policy_idx in 0usize..4,
        threads in 1usize..5,
    ) {
        let jobs = generator::paper_job_mix(seed);
        let jobs = &jobs[..take];
        for policy_idx in 0..5 {
            let pr3 = Engine::over(fleet(servers, policy_idx, server_policy_idx)).run(jobs);
            let par = Engine::over(
                parallel_fleet(servers, policy_idx, server_policy_idx, threads)
                    .with_migration(MigrationPolicy::None),
            )
            .run(jobs);
            assert_eq!(par.dispatch.as_ref().unwrap().shard_queue_depth, 0);
            let context = format!(
                "global queue: alloc #{policy_idx}, server #{server_policy_idx}, \
                 seed {seed}, {threads} threads"
            );
            assert_identical_schedules(&pr3, &par, &context);
        }
    }

    /// Parallel ≡ sequential survives migration: steal-on-idle and
    /// rebalance-on-release run in the serial merge phase, so the modes
    /// must still agree on every schedule *and* every migration counter.
    #[test]
    fn dispatch_modes_agree_under_migration(
        seed in 1u64..500,
        take in 20usize..45,
        migration_idx in 0usize..3,
        server_policy_idx in 0usize..4,
        threads in 1usize..5,
    ) {
        let migration = match migration_idx {
            0 => MigrationPolicy::None,
            1 => MigrationPolicy::StealOnIdle,
            _ => MigrationPolicy::RebalanceOnRelease,
        };
        let jobs = generator::paper_job_mix(seed);
        let jobs = &jobs[..take];
        let seq = Engine::over(
            fleet(3, 3, server_policy_idx)
                .with_shard_queues(4)
                .with_migration(migration),
        )
        .run(jobs);
        let par = Engine::over(
            parallel_fleet(3, 3, server_policy_idx, threads)
                .with_shard_queues(4)
                .with_migration(migration),
        )
        .run(jobs);
        let context = format!(
            "migration {:?}, server #{server_policy_idx}, seed {seed}, {threads} threads",
            migration
        );
        assert_identical_schedules(&seq, &par, &context);
    }
}

/// A 1-shard queued cluster is still the single-server engine: routing
/// has one answer, the per-shard queue is *the* FIFO queue, and strict
/// per-shard FIFO degenerates to the paper's strict global FIFO — so
/// everything PR 0–3 proved transfers to the queued dispatch layer too.
#[test]
fn dispatch_one_shard_queued_cluster_equals_single_server() {
    let jobs = generator::paper_job_mix(37);
    let jobs = &jobs[..60];
    for policy_idx in 0..5 {
        let single = Simulation::new(machines::dgx1_v100(), policy_by_index(policy_idx)).run(jobs);
        for mode in [DispatchMode::Sequential, DispatchMode::Parallel] {
            let cluster = fleet(1, policy_idx, 1)
                .with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH)
                .with_dispatch(mode);
            let queued = Engine::over(cluster).run(jobs);
            assert_identical_schedules(
                &single,
                &queued,
                &format!("1-shard queued, alloc #{policy_idx}, {mode:?}"),
            );
        }
    }
}

/// The overhauled event core replays the **pre-overhaul** engine
/// bit-identically: schedule digests of a fixed scenario across the full
/// 5 allocation × 4 server policy matrix, on both the global-queue and
/// queued cluster paths, must match `tests/golden/dispatch.txt` — which
/// was blessed on the PR 5 engine (BinaryHeap event queue, HashMap job
/// tables) before the PR 6 calendar-queue/slab rewrite landed.
#[test]
fn golden_replay_pins_the_pre_overhaul_schedules() {
    let jobs = generator::paper_job_mix(77);
    let jobs = &jobs[..60];
    let mut entries = Vec::new();
    for policy_idx in 0..5 {
        for server_policy_idx in 0..4 {
            let label = format!("a{policy_idx}-s{server_policy_idx}");
            let global = Engine::over(fleet(3, policy_idx, server_policy_idx)).run(jobs);
            entries.push((format!("global-{label}"), schedule_digest(&global)));
            let queued = Engine::over(fleet(3, policy_idx, server_policy_idx).with_shard_queues(5))
                .run(jobs);
            entries.push((format!("queued-{label}"), schedule_digest(&queued)));
        }
    }
    golden::check_goldens("dispatch.txt", &entries);
}

/// The equivalence holds with jobs pulled from an iterator as they
/// arrive: bursty arrivals, queued dispatch, stealing.
#[test]
fn dispatch_modes_agree_through_the_streamed_ingest_path() {
    let jobs = generator::paper_job_mix(43);
    let jobs = &jobs[..50];
    let config = SimConfig {
        arrivals: ArrivalProcess::Bursts {
            size: 10,
            gap: 600.0,
        },
        ..SimConfig::default()
    };
    let run = |mode: DispatchMode| {
        Engine::over(
            fleet(3, 3, 2) // Preserve × best-score: the peek-heavy combo
                .with_shard_queues(6)
                .with_migration(MigrationPolicy::StealOnIdle)
                .with_dispatch(mode),
        )
        .with_config(config.clone())
        .run_submissions(jobs.iter().cloned().map(Submission::Job))
    };
    let seq = run(DispatchMode::Sequential);
    let par = run(DispatchMode::Parallel);
    assert_identical_schedules(&seq, &par, "streamed bursts");
    assert_eq!(
        seq.dispatch.as_ref().unwrap().jobs_stolen,
        par.dispatch.as_ref().unwrap().jobs_stolen
    );
}

/// The engine's own FIFO — strict and backfilling, with and without
/// priority eviction, gangs in the stream — replays `tests/golden/fifo.txt`
/// on every backend that leaves queueing to it: a single server, a
/// global-queue cluster and a global-queue federation. The digests hash
/// each start's measured and workload EffBW, so the ring packer is pinned
/// here too.
#[test]
fn fifo_golden_pins_the_engine_queue() {
    let mut jobs = generator::paper_job_mix(91)[..80].to_vec();
    assign_priority_classes(&mut jobs, 3);
    assign_tenants(&mut jobs, 3);
    let mut subs = Vec::new();
    for (i, pair) in jobs.chunks(2).enumerate() {
        if i % 5 == 0 && pair.len() == 2 && pair.iter().map(JobSpec::num_gpus).sum::<usize>() <= 8 {
            subs.push(Submission::Gang(JobGroup::new(i as u64 + 1, pair.to_vec())));
        } else {
            subs.extend(pair.iter().cloned().map(Submission::Job));
        }
    }
    let mut entries = Vec::new();
    for (policy_label, policy_idx) in [("baseline", 0), ("topo", 1), ("preserve", 3)] {
        for strict_fifo in [true, false] {
            for preemption in [PreemptionPolicy::None, PreemptionPolicy::PriorityEvict] {
                let config = SimConfig {
                    strict_fifo,
                    preemption,
                    arrivals: ArrivalProcess::Bursts { size: 2, gap: 30.0 },
                    ..SimConfig::default()
                };
                let cluster = |servers| {
                    Cluster::homogeneous(
                        machines::dgx1_v100(),
                        servers,
                        || policy_by_index(policy_idx),
                        Box::new(LeastLoadedPolicy),
                    )
                };
                let single = Simulation::new(machines::dgx1_v100(), policy_by_index(policy_idx))
                    .with_config(config.clone())
                    .run_submissions(subs.clone());
                let fleet = Engine::over(cluster(3))
                    .with_config(config.clone())
                    .run_submissions(subs.clone());
                let federation = Engine::over(
                    Federation::new(vec![cluster(2), cluster(2)], Box::new(SpilloverPolicy))
                        .with_default_quota(12),
                )
                .with_config(config)
                .run_submissions(subs.clone());
                let cell = format!(
                    "{policy_label}-{}-{}",
                    if strict_fifo { "strict" } else { "backfill" },
                    if preemption == PreemptionPolicy::None {
                        "keep"
                    } else {
                        "evict"
                    },
                );
                for (backend, report) in [
                    ("single", single),
                    ("cluster", fleet),
                    ("federation", federation),
                ] {
                    if preemption != PreemptionPolicy::None {
                        assert!(
                            report.preemption.jobs_preempted > 0,
                            "{backend}-{cell} evicts"
                        );
                    }
                    entries.push((format!("{backend}-{cell}"), schedule_digest(&report)));
                }
            }
        }
    }
    golden::check_goldens("fifo.txt", &entries);
}
