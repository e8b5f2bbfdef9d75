//! The preemption harness, in the style of PR 4's dispatch-determinism
//! suite: preemption is a *scheduling semantics change*, so it is pinned
//! from three directions —
//!
//! 1. **Off ≡ PR 4**: with `PreemptionPolicy::None` (the default),
//!    schedules are bit-identical whether jobs carry priorities or not,
//!    on the single server, the global-queue cluster, and the queued
//!    cluster — priorities are inert annotations until a preemption
//!    policy reads them, so the preemption-capable engine replays the
//!    preemption-free one exactly.
//! 2. **Conservation**: under preemption no job is ever lost, duplicated,
//!    or started twice concurrently; every job is preempted at most
//!    once; the stats ledger (evictions, penalties) matches the records.
//! 3. **Dispatch-mode agreement**: parallel shard evaluation with
//!    preemption on replays sequential bit-identically — eviction runs
//!    in the engine's serial phase, so PR 4's determinism argument
//!    extends to it.
//!
//! `docs/SCHEDULING.md` documents the semantics these tests pin.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::core::PreemptionPolicy;
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use mapa::sim::PreemptionStats;
use mapa::workloads::assign_priority_classes;
use proptest::prelude::*;

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

fn prioritized_jobs(seed: u64, take: usize, classes: u8) -> Vec<JobSpec> {
    let mut jobs = generator::paper_job_mix(seed)[..take].to_vec();
    assign_priority_classes(&mut jobs, classes);
    jobs
}

fn preemptive_config(policy: PreemptionPolicy) -> SimConfig {
    SimConfig {
        preemption: policy,
        // Stagger arrivals so the machine genuinely runs low-priority
        // jobs when high-priority ones arrive.
        arrivals: ArrivalProcess::Bursts { size: 1, gap: 40.0 },
        ..SimConfig::default()
    }
}

fn assert_identical_schedules(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{context}");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.job.id, y.job.id, "{context}");
        assert_eq!(x.server, y.server, "{context}");
        assert_eq!(x.gpus, y.gpus, "{context}");
        assert_eq!(x.submitted_at, y.submitted_at, "{context}");
        assert_eq!(x.started_at, y.started_at, "{context}");
        assert_eq!(x.finished_at, y.finished_at, "{context}");
        assert_eq!(x.preemptions, y.preemptions, "{context}");
    }
    assert_eq!(a.makespan_seconds, b.makespan_seconds, "{context}");
    assert_eq!(
        a.queue.dispatch_blocks, b.queue.dispatch_blocks,
        "{context}"
    );
    assert_eq!(a.preemption, b.preemption, "{context}");
}

/// Conservation + once-only + ledger consistency of one preemptive run
/// against its job list.
fn assert_preemption_invariants(report: &SimReport, jobs: &[JobSpec], context: &str) {
    // No job lost, none duplicated.
    assert_eq!(report.records.len(), jobs.len(), "{context}");
    let mut ids: Vec<u64> = report.records.iter().map(|r| r.job.id).collect();
    ids.sort_unstable();
    let mut expected: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    expected.sort_unstable();
    assert_eq!(ids, expected, "{context}: exactly the submitted jobs ran");
    // Preempted at most once, requeued exactly once, and the ledger adds
    // up: every eviction shows up as exactly one record with
    // `preemptions == 1`, charged exactly one restore penalty.
    let mut evicted = 0u64;
    for r in &report.records {
        assert!(
            r.preemptions <= 1,
            "{context}: job {} evicted twice",
            r.job.id
        );
        evicted += u64::from(r.preemptions);
        if r.preemptions == 0 {
            assert_eq!(r.preempted_seconds, 0.0, "{context}");
        } else {
            assert!(r.preempted_seconds >= 0.0, "{context}");
        }
        assert!(r.queue_wait_seconds >= -1e-9, "{context}: {r:?}");
        assert!(
            r.started_at >= r.submitted_at - 1e-9,
            "{context}: causality"
        );
    }
    assert_eq!(report.preemption.jobs_preempted, evicted, "{context}");
    let expected_penalty = evicted as f64 * SimConfig::default().preemption_penalty_seconds;
    assert!(
        (report.preemption.penalty_seconds_charged - expected_penalty).abs() < 1e-6,
        "{context}: every restart charged exactly one penalty"
    );
    assert!(report.preemption.gpu_seconds_lost >= 0.0, "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Off ≡ PR 4, single server: priorities are inert without a
    /// preemption policy — the prioritized run replays the flat one
    /// bit-identically for every allocation policy.
    #[test]
    fn preemption_off_is_inert_on_the_single_server(
        seed in 1u64..500,
        take in 20usize..60,
        policy_idx in 0usize..5,
    ) {
        let flat = generator::paper_job_mix(seed)[..take].to_vec();
        let prioritized = prioritized_jobs(seed, take, 3);
        let run = |jobs: &[JobSpec], idx: usize| {
            Simulation::new(machines::dgx1_v100(), policy_by_index(idx)).run(jobs)
        };
        let a = run(&flat, policy_idx);
        let b = run(&prioritized, policy_idx);
        assert_identical_schedules(&a, &b, &format!("single server, alloc #{policy_idx}, seed {seed}"));
        prop_assert_eq!(b.preemption, PreemptionStats::default());
    }

    /// Off ≡ PR 4, cluster: on both the global-queue and the queued
    /// dispatch paths, a preemption-capable engine with the policy off
    /// replays the flat-priority schedule bit-identically.
    #[test]
    fn preemption_off_is_inert_on_the_cluster(
        seed in 1u64..500,
        take in 20usize..50,
        servers in 2usize..4,
        server_policy_idx in 0usize..4,
        queued in any::<bool>(),
    ) {
        let flat = generator::paper_job_mix(seed)[..take].to_vec();
        let prioritized = prioritized_jobs(seed, take, 3);
        let build = |queued: bool| {
            let c = fleet(servers, 3, server_policy_idx);
            if queued { c.with_shard_queues(6) } else { c }
        };
        let a = Engine::over(build(queued)).run(&flat);
        let b = Engine::over(build(queued)).run(&prioritized);
        assert_identical_schedules(
            &a,
            &b,
            &format!("cluster queued={queued}, server #{server_policy_idx}, seed {seed}"),
        );
    }

    /// Conservation under preemption on the single server, for both
    /// eviction policies and every allocation policy.
    #[test]
    fn no_job_is_lost_or_run_twice_under_preemption(
        seed in 1u64..500,
        take in 20usize..60,
        policy_idx in 0usize..5,
        sensitivity_aware in any::<bool>(),
    ) {
        let jobs = prioritized_jobs(seed, take, 3);
        let policy = if sensitivity_aware {
            PreemptionPolicy::SensitivityAwareEvict
        } else {
            PreemptionPolicy::PriorityEvict
        };
        let report = Simulation::new(machines::dgx1_v100(), policy_by_index(policy_idx))
            .with_config(preemptive_config(policy))
            .run(&jobs);
        assert_preemption_invariants(
            &report,
            &jobs,
            &format!("single server, alloc #{policy_idx}, {policy:?}, seed {seed}"),
        );
    }

    /// Conservation under preemption on the cluster — global-queue and
    /// queued paths, with migration in the mix on the queued path.
    #[test]
    fn cluster_preemption_conserves_jobs(
        seed in 1u64..500,
        take in 20usize..45,
        servers in 2usize..4,
        server_policy_idx in 0usize..4,
        migration_idx in 0usize..3,
        queued in any::<bool>(),
    ) {
        let jobs = prioritized_jobs(seed, take, 3);
        let migration = match migration_idx {
            0 => MigrationPolicy::None,
            1 => MigrationPolicy::StealOnIdle,
            _ => MigrationPolicy::RebalanceOnRelease,
        };
        let mut cluster = fleet(servers, 3, server_policy_idx);
        if queued {
            cluster = cluster.with_shard_queues(5).with_migration(migration);
        }
        let report = Engine::over(cluster)
            .with_config(preemptive_config(PreemptionPolicy::PriorityEvict))
            .run(&jobs);
        assert_preemption_invariants(
            &report,
            &jobs,
            &format!(
                "cluster queued={queued}, {migration:?}, server #{server_policy_idx}, seed {seed}"
            ),
        );
    }

    /// PR 4's determinism claim extends to preemption: parallel dispatch
    /// with eviction on replays sequential bit-identically (evictions run
    /// in the engine's serial phase).
    #[test]
    fn dispatch_modes_agree_under_preemption(
        seed in 1u64..500,
        take in 20usize..45,
        server_policy_idx in 0usize..4,
    ) {
        let jobs = prioritized_jobs(seed, take, 3);
        let run = |mode: DispatchMode| {
            Engine::over(
                fleet(3, 3, server_policy_idx)
                    .with_shard_queues(5)
                    .with_dispatch(mode),
            )
            .with_config(preemptive_config(PreemptionPolicy::PriorityEvict))
            .run(&jobs)
        };
        let seq = run(DispatchMode::Sequential);
        let par = run(DispatchMode::Parallel);
        assert_identical_schedules(
            &seq,
            &par,
            &format!("preemptive dispatch, server #{server_policy_idx}, seed {seed}"),
        );
    }
}

/// A preempted job's record stays internally consistent: the final run's
/// bounds, the checkpoint ledger, and the queue-wait arithmetic
/// (wait = final start − submission − aborted-run time) all agree.
#[test]
fn preempted_records_are_internally_consistent() {
    let jobs = prioritized_jobs(77, 60, 3);
    let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
        .with_config(preemptive_config(PreemptionPolicy::PriorityEvict))
        .run(&jobs);
    assert!(
        report.preemption.jobs_preempted > 0,
        "the scenario must actually exercise preemption"
    );
    for r in &report.records {
        assert!((r.finished_at - r.started_at - r.execution_seconds).abs() < 1e-9);
        let wait = r.started_at - r.submitted_at - r.preempted_seconds;
        assert!((r.queue_wait_seconds - wait).abs() < 1e-9, "{r:?}");
        assert!(r.queue_wait_seconds >= -1e-9, "{r:?}");
    }
}

/// The overhauled event core replays the **pre-overhaul** preemptive
/// schedules bit-identically: priority-evict runs (whose cancelled
/// finish events exercise the cancellation path hardest) across the
/// 5×4 policy matrix on the queued cluster must match
/// `tests/golden/preemption.txt`, blessed on the PR 5 engine before the
/// calendar-queue/slab rewrite.
#[test]
fn golden_replay_pins_the_pre_overhaul_preemptive_schedules() {
    let jobs = prioritized_jobs(91, 60, 3);
    let mut entries = Vec::new();
    for policy_idx in 0..5 {
        for server_policy_idx in 0..4 {
            let report = Engine::over(fleet(3, policy_idx, server_policy_idx).with_shard_queues(5))
                .with_config(preemptive_config(PreemptionPolicy::PriorityEvict))
                .run(&jobs);
            entries.push((
                format!("evict-a{policy_idx}-s{server_policy_idx}"),
                schedule_digest(&report),
            ));
        }
    }
    golden::check_goldens("preemption.txt", &entries);
}

/// The queued cluster evicts through `pump` / `preempt_blocked`, not the
/// engine's own dispatch: an urgent arrival at the exact instant the
/// holder's run ends evicts the holder and takes its freed slot, and the
/// holder's finish event, popped in the same tick, must not end the
/// urgent job's run.
#[test]
fn preemption_at_the_victims_finish_tick_keeps_the_preemptors_run_on_the_cluster() {
    let job = |id, gpus, priority| {
        JobSpec::new(id, GpuDemand::Whole(gpus), Workload::Gmm)
            .with_iterations(1_000)
            .with_priority(priority)
    };
    let run = |jobs: &[JobSpec], gap| {
        Engine::over(fleet(1, 0, 0).with_shard_queues(5))
            .with_config(SimConfig {
                preemption: PreemptionPolicy::PriorityEvict,
                arrivals: ArrivalProcess::Bursts { size: 1, gap },
                ..SimConfig::default()
            })
            .run(jobs)
    };
    let gap = run(&[job(1, 4, 0)], 1.0).records[0].finished_at;
    let report = run(&[job(1, 4, 0), job(2, 8, 1)], gap);
    assert_preemption_invariants(&report, &[job(1, 4, 0), job(2, 8, 1)], "same-tick eviction");
    assert_eq!(report.preemption.jobs_preempted, 1);
    let urgent = report.records.iter().find(|r| r.job.id == 2).unwrap();
    assert_eq!(urgent.started_at, gap);
    assert_eq!(
        urgent.finished_at,
        urgent.started_at + urgent.execution_seconds
    );
    let victim = report.records.iter().find(|r| r.job.id == 1).unwrap();
    assert!(
        victim.started_at >= urgent.finished_at,
        "restarts after job 2"
    );
    assert_eq!(
        victim.finished_at,
        victim.started_at + victim.execution_seconds
    );
}

/// The preemptive single-server engine still beats a preemption-free one
/// where it should: the high-priority class's queue waits can only
/// improve when it may evict.
#[test]
fn preemption_reduces_high_priority_waiting() {
    let jobs = prioritized_jobs(5, 80, 2);
    let run = |policy: PreemptionPolicy| {
        Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .with_config(preemptive_config(policy))
            .run(&jobs)
    };
    let without = run(PreemptionPolicy::None);
    let with = run(PreemptionPolicy::PriorityEvict);
    let high_wait = |r: &SimReport| {
        r.records
            .iter()
            .filter(|rec| rec.job.priority > 0)
            .map(|rec| rec.queue_wait_seconds)
            .sum::<f64>()
    };
    assert!(
        high_wait(&with) <= high_wait(&without) + 1e-6,
        "priority tenants wait no longer with eviction enabled: {} vs {}",
        high_wait(&with),
        high_wait(&without)
    );
}
