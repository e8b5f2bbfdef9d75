//! The gang-scheduling harness: all-or-nothing co-scheduling is pinned
//! the same way PR 4 pinned dispatch determinism —
//!
//! * **Co-start**: every member of a gang starts at the same simulation
//!   tick, on every scheduling path (single server, global-queue
//!   cluster, queued cluster) and under both dispatch modes.
//! * **Atomicity**: a gang that cannot be fully satisfied holds *all*
//!   its members back — no partial starts, and failed reservations roll
//!   back without disturbing other jobs' placements.
//! * **Conservation**: chunking a stream into gangs never loses or
//!   duplicates a job, under migration and preemption too.
//!
//! `docs/SCHEDULING.md` documents the ordering rules these tests pin.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::core::PreemptionPolicy;
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use mapa::sim::Submission;
use mapa::workloads::{assign_priority_classes, JobGroup};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// Chunks the paper mix into gangs of at most `max_size` members whose
/// total never exceeds one DGX-1's 8 GPUs. That bound makes every gang
/// satisfiable on *any* fleet of 8-GPU shards regardless of member
/// order (the members placed before one of size `m` total at most
/// `8 − m`, so some shard always retains `m` free GPUs) — the property
/// tests must generate only schedulable inputs, since an unsatisfiable
/// gang is a documented panic (see `an_unsatisfiable_gang_panics_at_drain`).
fn gang_submissions(seed: u64, take: usize, max_size: usize) -> Vec<Submission> {
    let jobs = generator::paper_job_mix(seed)[..take].to_vec();
    let mut gangs: Vec<JobGroup> = Vec::new();
    let mut members: Vec<JobSpec> = Vec::new();
    let mut total = 0usize;
    for job in jobs {
        if !members.is_empty() && (members.len() == max_size || total + job.num_gpus() > 8) {
            gangs.push(JobGroup::new(
                gangs.len() as u64 + 1,
                std::mem::take(&mut members),
            ));
            total = 0;
        }
        total += job.num_gpus();
        members.push(job);
    }
    if !members.is_empty() {
        gangs.push(JobGroup::new(gangs.len() as u64 + 1, members));
    }
    gangs.into_iter().map(Submission::Gang).collect()
}

/// Every gang's members share one start tick, and exactly the submitted
/// jobs ran.
fn assert_gang_invariants(report: &SimReport, submissions: &[Submission], context: &str) {
    let mut expected_ids: Vec<u64> = Vec::new();
    let mut gang_sizes: HashMap<u64, usize> = HashMap::new();
    for sub in submissions {
        match sub {
            Submission::Job(j) => expected_ids.push(j.id),
            Submission::Gang(g) => {
                gang_sizes.insert(g.id, g.len());
                expected_ids.extend(g.members.iter().map(|m| m.id));
            }
        }
    }
    expected_ids.sort_unstable();
    let mut got: Vec<u64> = report.records.iter().map(|r| r.job.id).collect();
    got.sort_unstable();
    assert_eq!(got, expected_ids, "{context}: conservation");

    let mut starts: HashMap<u64, f64> = HashMap::new();
    let mut members_seen: HashMap<u64, usize> = HashMap::new();
    for r in &report.records {
        if let Some(gang) = r.gang {
            *members_seen.entry(gang).or_insert(0) += 1;
            match starts.get(&gang) {
                None => {
                    starts.insert(gang, r.started_at);
                }
                Some(&t) => assert_eq!(
                    r.started_at, t,
                    "{context}: gang {gang} member {} started at a different tick",
                    r.job.id
                ),
            }
        }
    }
    assert_eq!(members_seen, gang_sizes, "{context}: every member ran once");
    assert_eq!(
        report.gangs.gangs_dispatched as usize,
        gang_sizes.len(),
        "{context}: gang counter"
    );
    assert_eq!(
        report.gangs.members_dispatched as usize,
        gang_sizes.values().sum::<usize>(),
        "{context}: member counter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Co-start + conservation on the single server for every allocation
    /// policy and gang size.
    #[test]
    fn gangs_costart_on_the_single_server(
        seed in 1u64..500,
        take in 12usize..40,
        gang_size in 1usize..4,
        policy_idx in 0usize..5,
    ) {
        let subs = gang_submissions(seed, take, gang_size);
        let report = Simulation::new(machines::dgx1_v100(), policy_by_index(policy_idx))
            .run_submissions(subs.clone());
        assert_gang_invariants(
            &report,
            &subs,
            &format!("single server, alloc #{policy_idx}, gang size {gang_size}, seed {seed}"),
        );
    }

    /// Co-start + conservation on the cluster, global-queue and queued
    /// paths, across server policies.
    #[test]
    fn gangs_costart_on_the_cluster(
        seed in 1u64..500,
        take in 12usize..32,
        gang_size in 1usize..4,
        servers in 2usize..4,
        server_policy_idx in 0usize..4,
        queued in any::<bool>(),
    ) {
        let subs = gang_submissions(seed, take, gang_size);
        let mut cluster = fleet(servers, 3, server_policy_idx);
        if queued {
            cluster = cluster.with_shard_queues(5);
        }
        let report = Engine::over(cluster).run_submissions(subs.clone());
        assert_gang_invariants(
            &report,
            &subs,
            &format!(
                "cluster queued={queued}, {servers} shards, server #{server_policy_idx}, \
                 gang size {gang_size}, seed {seed}"
            ),
        );
    }

    /// Parallel dispatch replays sequential bit-identically with gangs in
    /// the stream — gang reservation runs in the serial phase, so PR 4's
    /// determinism argument extends to it.
    #[test]
    fn dispatch_modes_agree_with_gangs(
        seed in 1u64..500,
        take in 12usize..32,
        gang_size in 2usize..4,
        server_policy_idx in 0usize..4,
    ) {
        let subs = gang_submissions(seed, take, gang_size);
        let run = |mode: DispatchMode| {
            Engine::over(
                fleet(3, 3, server_policy_idx)
                    .with_shard_queues(5)
                    .with_dispatch(mode),
            )
            .run_submissions(subs.clone())
        };
        let seq = run(DispatchMode::Sequential);
        let par = run(DispatchMode::Parallel);
        assert_eq!(seq.records.len(), par.records.len());
        for (a, b) in seq.records.iter().zip(&par.records) {
            prop_assert_eq!(a.job.id, b.job.id);
            prop_assert_eq!(a.server, b.server);
            prop_assert_eq!(&a.gpus, &b.gpus);
            prop_assert_eq!(a.started_at, b.started_at);
            prop_assert_eq!(a.finished_at, b.finished_at);
            prop_assert_eq!(a.gang, b.gang);
        }
        prop_assert_eq!(seq.gangs, par.gangs);
    }

    /// Gangs + migration + preemption together still conserve jobs and
    /// co-start gangs; gang members are never preemption victims.
    #[test]
    fn gangs_survive_migration_and_preemption(
        seed in 1u64..500,
        take in 12usize..32,
        migration_idx in 0usize..3,
    ) {
        let jobs = {
            let mut jobs = generator::paper_job_mix(seed)[..take].to_vec();
            assign_priority_classes(&mut jobs, 3);
            jobs
        };
        // Half the stream in gangs of 2, half as prioritized singles.
        let mid = take / 2;
        let mut subs: Vec<Submission> = JobGroup::chunk(jobs[..mid].to_vec(), 2)
            .into_iter()
            .map(Submission::Gang)
            .collect();
        subs.extend(jobs[mid..].iter().cloned().map(Submission::Job));
        let migration = match migration_idx {
            0 => MigrationPolicy::None,
            1 => MigrationPolicy::StealOnIdle,
            _ => MigrationPolicy::RebalanceOnRelease,
        };
        let cluster = fleet(3, 3, 1)
            .with_shard_queues(5)
            .with_migration(migration);
        let report = Engine::over(cluster)
            .with_config(SimConfig {
                preemption: PreemptionPolicy::PriorityEvict,
                arrivals: ArrivalProcess::Bursts { size: 1, gap: 40.0 },
                ..SimConfig::default()
            })
            .run_submissions(subs.clone());
        assert_gang_invariants(
            &report,
            &subs,
            &format!("gangs+{migration:?}+preemption, seed {seed}"),
        );
        for r in &report.records {
            if r.gang.is_some() {
                prop_assert_eq!(r.preemptions, 0, "gang members are shielded");
            }
        }
    }
}

/// The overhauled event core replays the **pre-overhaul** gang schedules
/// bit-identically: gang-heavy runs across the 5×4 policy matrix on the
/// queued cluster path must match `tests/golden/gangs.txt`, blessed on
/// the PR 5 engine before the calendar-queue/slab rewrite.
#[test]
fn golden_replay_pins_the_pre_overhaul_gang_schedules() {
    let subs = gang_submissions(83, 48, 3);
    let mut entries = Vec::new();
    for policy_idx in 0..5 {
        for server_policy_idx in 0..4 {
            let report = Engine::over(fleet(3, policy_idx, server_policy_idx).with_shard_queues(5))
                .run_submissions(subs.clone());
            entries.push((
                format!("gangs-a{policy_idx}-s{server_policy_idx}"),
                schedule_digest(&report),
            ));
        }
    }
    golden::check_goldens("gangs.txt", &entries);
}

/// Gangs of one member behave exactly like bare jobs on the engine-queued
/// paths (single server and global-queue cluster): the gang wrapper adds
/// co-scheduling semantics, not scheduling side effects.
#[test]
fn singleton_gangs_equal_bare_jobs() {
    let jobs = generator::paper_job_mix(61)[..40].to_vec();
    let bare: Vec<Submission> = jobs.iter().cloned().map(Submission::Job).collect();
    let gangs: Vec<Submission> = JobGroup::chunk(jobs, 1)
        .into_iter()
        .map(Submission::Gang)
        .collect();
    for servers in [1usize, 3] {
        let run = |subs: Vec<Submission>| Engine::over(fleet(servers, 3, 1)).run_submissions(subs);
        let a = run(bare.clone());
        let b = run(gangs.clone());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.job.id, y.job.id, "{servers} servers");
            assert_eq!(x.server, y.server, "{servers} servers");
            assert_eq!(x.gpus, y.gpus, "{servers} servers");
            assert_eq!(x.started_at, y.started_at, "{servers} servers");
            assert_eq!(x.finished_at, y.finished_at, "{servers} servers");
        }
        assert_eq!(b.gangs.gangs_dispatched, 40);
    }
}

/// A gang too large for the fleet is surfaced as the engine's
/// "all jobs must eventually run" panic, not a hang or a partial start.
#[test]
#[should_panic(expected = "all jobs must eventually run")]
fn an_unsatisfiable_gang_panics_at_drain() {
    let members: Vec<JobSpec> = (1..=3)
        .map(|id| {
            JobSpec::new(id, GpuDemand::Whole(8), Workload::Gmm)
                .with_topology(AppTopology::Ring)
                .with_bandwidth_sensitive(false)
                .with_iterations(1)
        })
        .collect();
    // 3×8 GPUs on a 2×8-GPU fleet can never co-start.
    let gang = JobGroup::new(1, members);
    let _ = Engine::over(fleet(2, 0, 0)).run_submissions(vec![Submission::Gang(gang)]);
}

/// With per-shard queues a federation pins a gang to one cluster, so a gang
/// that only a cluster-spanning placement could start ends the queued run
/// with the engine's error naming it (it used to die on "backend queues
/// must drain completely"); the same gang runs on the global path, which
/// may span, and gangs a cluster can pack still run queued.
#[test]
fn a_gang_no_single_cluster_can_pack_is_refused_before_a_queued_run() {
    let member = |id| {
        JobSpec::new(id, GpuDemand::Whole(5), Workload::Gmm)
            .with_bandwidth_sensitive(false)
            .with_iterations(1)
    };
    // 5 + 5 + 5 GPUs: under both the pooled 32 and one cluster's 16, yet no
    // two members share an 8-GPU server, so one 2-server cluster never fits.
    let three = vec![Submission::Gang(JobGroup::new(
        1,
        (1..=3).map(member).collect(),
    ))];
    let two = vec![Submission::Gang(JobGroup::new(
        1,
        (1..=2).map(member).collect(),
    ))];
    let global = RunSpec {
        clusters: 2,
        servers: 2,
        ..RunSpec::new(machines::dgx1_v100(), "preserve")
    };
    let queued = RunSpec {
        shard_queue_depth: Some(4),
        ..global.clone()
    };
    let mut shared = Shared::new(std::sync::Arc::new(WorkerPool::new(1)));
    let refusal = queued
        .run(&mut shared, SimConfig::default(), three.clone())
        .unwrap_err();
    assert!(
        refusal.starts_with("gang 1 (jobs [1, 2, 3], 15 GPUs total) cannot be co-scheduled"),
        "{refusal}"
    );
    for (spec, submissions, members) in [(&global, &three, 3), (&queued, &two, 2)] {
        let report = spec
            .run(&mut shared, SimConfig::default(), submissions.clone())
            .expect("valid spec");
        assert_eq!(report.records.len(), members);
        assert_eq!(report.gangs.gangs_dispatched, 1);
    }
}
