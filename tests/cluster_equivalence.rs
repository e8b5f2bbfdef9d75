//! The cluster layer's foundational property: a 1-shard `Cluster` is the
//! single-server engine. For *any* server-selection policy (a 1-element
//! ranking has only one answer) and every built-in allocation policy, the
//! same jobs under the same configuration must produce bit-identical
//! placements, start times, and finish times — so everything PR 0–2
//! proved about single-server scheduling transfers to the fleet, and any
//! multi-shard divergence is attributable to server selection alone.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use proptest::prelude::*;
use std::sync::Arc;

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

fn assert_identical_schedules(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{context}");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.job.id, y.job.id, "{context}");
        assert_eq!(x.gpus, y.gpus, "{context}: placements must be identical");
        assert_eq!(x.started_at, y.started_at, "{context}");
        assert_eq!(x.finished_at, y.finished_at, "{context}");
        assert_eq!(y.server, 0, "{context}: one shard means server 0");
    }
    assert_eq!(
        a.makespan_seconds, b.makespan_seconds,
        "{context}: makespans"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed, same jobs: the 1-shard cluster replays the bare
    /// single-server engine exactly, whatever the server policy.
    #[test]
    fn one_shard_cluster_equals_single_server(
        seed in 1u64..500,
        take in 20usize..60,
        server_policy_idx in 0usize..4,
    ) {
        let jobs = generator::paper_job_mix(seed);
        let jobs = &jobs[..take];
        for policy_idx in 0..5 {
            let single = Simulation::new(
                machines::dgx1_v100(),
                policy_by_index(policy_idx),
            )
            .run(jobs);
            let cluster = Cluster::homogeneous(
                machines::dgx1_v100(),
                1,
                || policy_by_index(policy_idx),
                server_policy_by_index(server_policy_idx),
            );
            let clustered = Engine::over(cluster).run(jobs);
            let context = format!(
                "allocation policy #{policy_idx}, server policy #{server_policy_idx}, seed {seed}"
            );
            assert_identical_schedules(&single, &clustered, &context);
        }
    }
}

/// The equivalence also holds under non-batch arrivals with the jobs
/// pulled from an iterator as they arrive — the streamed cluster is still
/// the single-server engine.
#[test]
fn one_shard_cluster_streamed_under_poisson_equals_single_server() {
    let jobs = generator::paper_job_mix(33);
    let jobs = &jobs[..50];
    let config = SimConfig {
        arrivals: ArrivalProcess::Poisson {
            mean_gap: 40.0,
            seed: 5,
        },
        ..SimConfig::default()
    };
    for server_policy_idx in 0..4 {
        let single = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .with_config(config.clone())
            .run(jobs);
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            1,
            || Box::new(PreservePolicy),
            server_policy_by_index(server_policy_idx),
        );
        let clustered = Engine::over(cluster)
            .with_config(config.clone())
            .run_submissions(jobs.iter().cloned().map(Submission::Job));
        assert_identical_schedules(
            &single,
            &clustered,
            &format!("streamed, server policy #{server_policy_idx}"),
        );
    }
}

/// Sanity on the multi-shard side of the boundary: with 2+ shards the
/// cluster must still complete everything, and per-shard accounting must
/// cover every record (the equivalence property above pins the N=1 case;
/// this pins that N>1 stays well-formed).
#[test]
fn multi_shard_runs_stay_well_formed_for_every_server_policy() {
    let jobs = generator::paper_job_mix(41);
    for server_policy_idx in 0..4 {
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            3,
            || Box::new(PreservePolicy),
            server_policy_by_index(server_policy_idx),
        );
        let report = Engine::over(cluster).run(&jobs[..90]);
        assert_eq!(report.records.len(), 90);
        assert_eq!(report.shards.len(), 3);
        let jobs_total: usize = report.shards.iter().map(|s| s.jobs_completed).sum();
        assert_eq!(jobs_total, 90, "server policy #{server_policy_idx}");
        for r in &report.records {
            assert!(r.server < 3);
            assert_eq!(r.gpus.len(), r.job.num_gpus());
        }
    }
}

/// A [`RunSpec`] is a description of these same fleets, not a different
/// way to build them: for the single server, the 4-shard global-queue
/// cluster and the 4-shard queued cluster with stealing, running the spec
/// gives the schedule the explicit constructors give.
#[test]
fn run_spec_schedules_equal_the_explicit_constructors() {
    let jobs = generator::paper_job_mix(57)[..80].to_vec();
    let fleet = || {
        Cluster::homogeneous(
            machines::dgx1_v100(),
            4,
            || Box::new(PreservePolicy),
            Box::new(LeastLoadedPolicy),
        )
    };
    let base = RunSpec::new(machines::dgx1_v100(), "preserve");
    let four = RunSpec {
        servers: 4,
        server_policy: Some("least-loaded".into()),
        ..base.clone()
    };
    let stealing = RunSpec {
        shard_queue_depth: Some(6),
        migration: Some("steal".into()),
        ..four.clone()
    };
    let by_hand = [
        Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs),
        Engine::over(fleet()).run(&jobs),
        Engine::over(
            fleet()
                .with_shard_queues(6)
                .with_migration(MigrationPolicy::StealOnIdle),
        )
        .run(&jobs),
    ];
    for (spec, expected) in [base, four, stealing].iter().zip(&by_hand) {
        let mut shared = Shared::new(Arc::new(WorkerPool::new(2)));
        let submissions = jobs.iter().cloned().map(Submission::Job);
        let report = spec
            .run(&mut shared, SimConfig::default(), submissions)
            .expect("valid spec");
        assert_eq!(report.policy_name, expected.policy_name, "{spec:?}");
        assert_eq!(
            schedule_digest(&report),
            schedule_digest(expected),
            "{spec:?}"
        );
    }
    assert!(
        by_hand[2].dispatch.as_ref().unwrap().jobs_stolen > 0,
        "the stealing shape must actually steal"
    );
}
