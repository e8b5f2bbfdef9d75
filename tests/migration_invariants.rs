//! Safety invariants of per-shard queues and job migration, checked over
//! randomized job streams:
//!
//! * **conservation** — every submitted job completes exactly once,
//!   whatever gets stolen or rebalanced between queues (no job lost, none
//!   duplicated);
//! * **causality** — no job starts before its arrival, and queue waits
//!   are exactly `started_at - submitted_at`;
//! * **boundedness** — no shard queue ever exceeds the configured
//!   `--shard-queue-depth` bound (overflow waits in the backlog instead);
//! * **locality** — a migrated job still runs on GPUs of exactly one
//!   server, with the requested GPU count.

use mapa::core::policy::PreservePolicy;
use mapa::prelude::*;
use proptest::prelude::*;

fn server_policy_by_index(i: usize) -> Box<dyn ServerPolicy> {
    match i % 4 {
        0 => Box::new(RoundRobinPolicy),
        1 => Box::new(LeastLoadedPolicy),
        2 => Box::new(BestScorePolicy),
        _ => Box::new(PackFirstPolicy),
    }
}

fn migration_by_index(i: usize) -> MigrationPolicy {
    match i % 3 {
        0 => MigrationPolicy::None,
        1 => MigrationPolicy::StealOnIdle,
        _ => MigrationPolicy::RebalanceOnRelease,
    }
}

fn check_invariants(report: &SimReport, jobs: &[JobSpec], depth: usize, context: &str) {
    // Conservation: exactly the submitted ids, each exactly once.
    let mut ran: Vec<u64> = report.records.iter().map(|r| r.job.id).collect();
    ran.sort_unstable();
    let mut submitted: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    submitted.sort_unstable();
    assert_eq!(ran, submitted, "{context}: jobs lost or duplicated");

    // Causality and wait accounting.
    for r in &report.records {
        assert!(
            r.started_at >= r.submitted_at - 1e-9,
            "{context}: job {} started before its arrival",
            r.job.id
        );
        assert!(
            (r.queue_wait_seconds - (r.started_at - r.submitted_at)).abs() < 1e-9,
            "{context}: job {} wait accounting",
            r.job.id
        );
        // Locality: one server, requested width, server-local GPU ids.
        assert_eq!(r.gpus.len(), r.job.num_gpus(), "{context}");
        assert!(r.server < report.shards.len(), "{context}");
        let gpu_count = report.shards[r.server].gpu_count;
        assert!(r.gpus.iter().all(|&g| g < gpu_count), "{context}");
    }

    // Boundedness: the per-queue high-water marks respect the bound.
    let d = report
        .dispatch
        .as_ref()
        .expect("queued cluster reports dispatch");
    assert_eq!(d.shard_queue_depth, depth, "{context}");
    for (s, &m) in d.max_queue_depths.iter().enumerate() {
        assert!(
            m <= depth,
            "{context}: shard {s} queue reached {m} > bound {depth}"
        );
    }

    // Shard accounting covers every record.
    let total: usize = report.shards.iter().map(|s| s.jobs_completed).sum();
    assert_eq!(total, jobs.len(), "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// No job is lost, duplicated, or started before its arrival — and no
    /// queue overflows its bound — under any migration policy, server
    /// policy, queue depth, and job stream.
    #[test]
    fn migration_preserves_jobs_and_queue_bounds(
        seed in 1u64..1000,
        take in 20usize..60,
        servers in 2usize..5,
        depth in 1usize..8,
        server_policy_idx in 0usize..4,
        migration_idx in 0usize..3,
    ) {
        let jobs = generator::paper_job_mix(seed);
        let jobs = &jobs[..take];
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            servers,
            || Box::new(PreservePolicy),
            server_policy_by_index(server_policy_idx),
        )
        .with_shard_queues(depth)
        .with_migration(migration_by_index(migration_idx));
        let report = Engine::over(cluster).run(jobs);
        let context = format!(
            "seed {seed}, {servers} shards, depth {depth}, server #{server_policy_idx}, \
             migration #{migration_idx}"
        );
        check_invariants(&report, jobs, depth, &context);
    }

    /// The same invariants hold under bursty arrivals — the worst case
    /// for bounded queues (every burst slams the routing stage at once,
    /// forcing backlog traffic at small depths).
    #[test]
    fn migration_invariants_survive_bursty_arrivals(
        seed in 1u64..1000,
        burst in 4usize..12,
        migration_idx in 0usize..3,
    ) {
        let jobs = generator::paper_job_mix(seed);
        let jobs = &jobs[..40];
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            3,
            || Box::new(PreservePolicy),
            Box::new(LeastLoadedPolicy),
        )
        .with_shard_queues(2)
        .with_migration(migration_by_index(migration_idx));
        let report = Engine::over(cluster)
            .with_config(SimConfig {
                arrivals: ArrivalProcess::Bursts {
                    size: burst,
                    gap: 300.0,
                },
                ..SimConfig::default()
            })
            .run(jobs);
        let context = format!("bursts of {burst}, seed {seed}, migration #{migration_idx}");
        check_invariants(&report, jobs, 2, &context);
    }
}

/// Heterogeneous fleets migrate safely too: a job stolen or rebalanced
/// toward a small machine must still fit it (the eligibility check), so
/// wide jobs stay on wide machines.
#[test]
fn migration_respects_machine_capacity_in_heterogeneous_fleets() {
    let jobs = generator::paper_job_mix(51);
    let jobs = &jobs[..60];
    for migration_idx in 0..3 {
        let cluster = Cluster::new(
            vec![machines::summit(), machines::dgx1_v100(), machines::dgx2()],
            || Box::new(PreservePolicy),
            Box::new(LeastLoadedPolicy),
        )
        .with_shard_queues(4)
        .with_migration(migration_by_index(migration_idx));
        let report = Engine::over(cluster).run(jobs);
        check_invariants(
            &report,
            jobs,
            4,
            &format!("heterogeneous, migration #{migration_idx}"),
        );
        for r in &report.records {
            // Summit has 6 GPUs: nothing wider may ever land there.
            if r.server == 0 {
                assert!(r.job.num_gpus() <= 6, "{r:?}");
            }
        }
    }
}

/// Under per-shard queues a slow shard stalls only its own queue: while
/// shard 0 grinds through a monster job, everything that reached shard 1
/// keeps flowing — no global head-of-line blocking. Shard 0's *own*
/// waiters do stall (that is per-shard FIFO working as designed); adding
/// steal-on-idle migration then drains even those through shard 1.
#[test]
fn migration_slow_shard_stalls_only_its_own_queue() {
    let job = |id: u64, iterations: u64| {
        JobSpec::new(id, GpuDemand::Whole(8), Workload::Vgg16)
            .with_topology(AppTopology::Ring)
            .with_bandwidth_sensitive(true)
            .with_iterations(iterations)
    };
    let mut jobs = vec![job(1, 200_000)];
    jobs.extend((2..42).map(|id| job(id, 1)));
    let run = |migration: MigrationPolicy| {
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            2,
            || Box::new(PreservePolicy),
            Box::new(RoundRobinPolicy),
        )
        .with_shard_queues(8)
        .with_migration(migration);
        Engine::over(cluster).run(&jobs)
    };

    // Without migration: shard 1's stream is untouched by the monster;
    // only jobs routed to shard 0's queue wait behind it.
    let report = run(MigrationPolicy::None);
    assert_eq!(report.records.len(), 41);
    let monster = report.records.iter().find(|r| r.job.id == 1).unwrap();
    assert_eq!(monster.server, 0, "round-robin routes job 1 to shard 0");
    let (on_shard1, stalled_on_shard0): (Vec<_>, Vec<_>) = report
        .records
        .iter()
        .filter(|r| r.job.id != 1)
        .partition(|r| r.server == 1);
    assert!(on_shard1.len() > 20, "shard 1 absorbed its half + overflow");
    for r in &on_shard1 {
        assert!(
            r.finished_at < monster.finished_at,
            "job {} on shard 1 must not wait for shard 0's monster",
            r.job.id
        );
    }
    // Per-shard FIFO: shard 0's own waiters did stall behind the monster.
    assert!(!stalled_on_shard0.is_empty());
    for r in &stalled_on_shard0 {
        assert!(r.started_at >= monster.finished_at, "{r:?}");
    }
    // Shard 0's queue really was bounded the whole time.
    let d = report.dispatch.as_ref().unwrap();
    assert!(d.max_queue_depths[0] <= 8, "{d:?}");

    // With stealing: the idle shard drains shard 0's queue too, so *every*
    // quick job finishes while the monster still runs.
    let stolen = run(MigrationPolicy::StealOnIdle);
    let monster = stolen.records.iter().find(|r| r.job.id == 1).unwrap();
    for r in stolen.records.iter().filter(|r| r.job.id != 1) {
        assert!(
            r.finished_at < monster.finished_at,
            "with stealing, job {} must not wait for the monster",
            r.job.id
        );
    }
    assert!(stolen.dispatch.as_ref().unwrap().jobs_stolen > 0);
}
