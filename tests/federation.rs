//! The federation tier's contract tests:
//!
//! * **Golden replay** — a 1-cluster federation is a pass-through: it
//!   must replay `tests/golden/dispatch.txt` (blessed on the pre-PR 6
//!   engine, re-pinned by `tests/dispatch_equivalence.rs` on the bare
//!   cluster) bit-for-bit across the full 5 allocation × 4 server policy
//!   matrix, on both the global-queue and queued paths.
//! * **Determinism** — federated parallel dispatch replays federated
//!   sequential dispatch bit-identically, with tenants and quotas
//!   enabled, across the same policy matrix. The federation adds no
//!   parallelism of its own; this pins that the inner clusters' proven
//!   equivalence survives the extra routing layer.
//! * **Quota conservation** — no tenant's concurrent accelerator
//!   footprint ever exceeds its quota (when the quota admits the largest
//!   single job), across randomized mixes; and every job still runs —
//!   quotas defer work, they never lose it.
//! * **Spillover discipline** — under `SpilloverPolicy`, cluster 0 is
//!   always the first choice: it never records a spill-in, a load that
//!   fits cluster 0 alone produces zero spillovers, and every spilled job
//!   (gang members included) is one spillover and one spill-in.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use mapa::workloads::assign_tenants;
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

/// Wraps one cluster in a 1-member federation — the identity
/// configuration the golden replay pins.
fn solo(cluster: Cluster) -> Federation {
    Federation::new(vec![cluster], Box::new(SpilloverPolicy))
}

/// Bit-identical schedules (same fields `tests/dispatch_equivalence.rs`
/// compares; `scheduling_overhead` legitimately differs).
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
    }
    assert_eq!(a.makespan_seconds, b.makespan_seconds, "{context}");
    assert_eq!(schedule_digest(a), schedule_digest(b), "{context}");
}

/// A 1-cluster federation replays the blessed bare-cluster goldens
/// bit-for-bit: same scenario matrix, same labels, same digest file as
/// `tests/dispatch_equivalence.rs` — but every run routed through
/// `Federation`. The pass-through layer must not perturb a single bit.
#[test]
fn golden_replay_single_cluster_federation_is_a_pass_through() {
    let jobs = generator::paper_job_mix(77);
    let jobs = &jobs[..60];
    let mut entries = Vec::new();
    for policy_idx in 0..5 {
        for server_policy_idx in 0..4 {
            let label = format!("a{policy_idx}-s{server_policy_idx}");
            let global = Engine::over(solo(fleet(3, policy_idx, server_policy_idx))).run(jobs);
            entries.push((format!("global-{label}"), schedule_digest(&global)));
            let queued = Engine::over(solo(
                fleet(3, policy_idx, server_policy_idx).with_shard_queues(5),
            ))
            .run(jobs);
            entries.push((format!("queued-{label}"), schedule_digest(&queued)));
            // The wrapper also reports the federation block the bare
            // cluster does not — routing metadata rides along for free.
            assert!(global.federation.is_some());
            assert_eq!(
                global.federation.as_ref().unwrap().clusters[0].jobs_routed,
                60
            );
        }
    }
    golden::check_goldens("dispatch.txt", &entries);
}

/// A gang that fails to co-start leaves its cluster as it found it, so a
/// 1-cluster federation replays the bare cluster with gangs in the stream
/// too, under every server policy. The federation's spanning rollback used
/// to free the members' GPUs but leave the round-robin rotation advanced.
#[test]
fn a_1_cluster_federation_replays_the_bare_cluster_with_gangs() {
    for server_policy_idx in 0..4 {
        for seed in 0..40 {
            let mut jobs = generator::paper_job_mix(seed).into_iter();
            let subs: Vec<Submission> = (0..30)
                .map(|i| match i % 3 {
                    2 => Submission::Gang(JobGroup::new(i, jobs.by_ref().take(2).collect())),
                    _ => Submission::Job(jobs.next().expect("a long enough mix")),
                })
                .collect();
            let bare = Engine::over(fleet(2, 0, server_policy_idx)).run_submissions(subs.clone());
            let federated =
                Engine::over(solo(fleet(2, 0, server_policy_idx))).run_submissions(subs);
            let context = format!("server #{server_policy_idx}, seed {seed}");
            assert_identical_schedules(&bare, &federated, &context);
        }
    }
}

/// Two federated clusters, tenants and quotas on: parallel shard
/// dispatch must replay sequential bit-identically across the full
/// 5 allocation × 4 server policy matrix, on both the global-queue and
/// queued paths. All federation-level routing is serial, so the inner
/// clusters' proven equivalence must survive unchanged.
#[test]
fn federated_parallel_replays_sequential_across_the_policy_matrix() {
    let mut jobs = generator::paper_job_mix(91)[..40].to_vec();
    assign_tenants(&mut jobs, 3);
    let build = |policy_idx: usize, server_policy_idx: usize, queued: bool, mode: DispatchMode| {
        let member = || {
            let mut c = fleet(2, policy_idx, server_policy_idx).with_dispatch(mode);
            if queued {
                c = c.with_shard_queues(4);
            }
            c
        };
        Federation::new(vec![member(), member()], Box::new(SpilloverPolicy)).with_default_quota(12)
    };
    for policy_idx in 0..5 {
        for server_policy_idx in 0..4 {
            for queued in [false, true] {
                let seq = Engine::over(build(
                    policy_idx,
                    server_policy_idx,
                    queued,
                    DispatchMode::Sequential,
                ))
                .run(&jobs);
                let par = Engine::over(build(
                    policy_idx,
                    server_policy_idx,
                    queued,
                    DispatchMode::Parallel,
                ))
                .run(&jobs);
                let context = format!(
                    "federated alloc #{policy_idx}, server #{server_policy_idx}, queued={queued}"
                );
                assert_identical_schedules(&seq, &par, &context);
                // Routing-side counters must agree too.
                let (fa, fb) = (seq.federation.unwrap(), par.federation.unwrap());
                assert_eq!(fa, fb, "{context}: federation counters");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quota conservation: when every tenant's quota admits the largest
    /// single job (8 GPUs on a DGX-1), no tenant's concurrent footprint
    /// ever exceeds its quota — `peak_gpus` is the high-water mark the
    /// backend tracks at charge time, so the bound covers every instant
    /// of the run, not just sampled ones. And quotas only *defer*:
    /// every submitted job still completes.
    #[test]
    fn quotas_bound_every_tenants_concurrent_footprint(
        seed in 1u64..400,
        take in 20usize..45,
        tenants in 2u64..5,
        quota in 8usize..17,
        queued_idx in 0usize..2,
    ) {
        let queued = queued_idx == 1;
        let mut jobs = generator::paper_job_mix(seed)[..take].to_vec();
        assign_tenants(&mut jobs, tenants);
        let member = || {
            let c = fleet(2, 3, 1);
            if queued { c.with_shard_queues(4) } else { c }
        };
        let federation = Federation::new(vec![member(), member()], Box::new(SpilloverPolicy))
            .with_default_quota(quota);
        let report = Engine::over(federation).run(&jobs);
        prop_assert_eq!(report.records.len(), take, "quotas defer, never drop");
        let fed = report.federation.as_ref().expect("federated run");
        for t in &fed.tenants {
            prop_assert_eq!(t.quota_gpus, Some(quota));
            prop_assert!(
                t.peak_gpus <= quota,
                "tenant {} peaked at {} > quota {}",
                t.tenant, t.peak_gpus, quota
            );
        }
        let completed: usize = fed.tenants.iter().map(|t| t.jobs_completed).sum();
        prop_assert_eq!(completed, take, "every record maps to a tenant");
    }

    /// Spillover discipline under the first-fit policy: cluster 0 is
    /// always ranked first, so it can never be a spillover *target*; and
    /// the spillover counter equals the spill-ins recorded by the other
    /// clusters — every spilled job lands somewhere observable.
    #[test]
    fn spillover_only_flows_away_from_cluster_zero(
        seed in 1u64..400,
        take in 25usize..50,
        queued_idx in 0usize..2,
    ) {
        let queued = queued_idx == 1;
        let member = || {
            let c = fleet(1, 3, 1);
            if queued { c.with_shard_queues(6) } else { c }
        };
        let federation =
            Federation::new(vec![member(), member(), member()], Box::new(SpilloverPolicy));
        let jobs = generator::paper_job_mix(seed);
        let report = Engine::over(federation).run(&jobs[..take]);
        let fed = report.federation.as_ref().expect("federated run");
        assert_eq!(fed.clusters[0].spill_ins, 0, "first choice is never a spill target");
        let spill_ins: u64 = fed.clusters.iter().map(|c| c.spill_ins).sum();
        prop_assert_eq!(fed.spillovers, spill_ins, "every spillover lands somewhere");
        let routed: u64 = fed.clusters.iter().map(|c| c.jobs_routed).sum();
        prop_assert_eq!(routed, take as u64);
    }
}

/// The gang variant of the spillover discipline: a spilled gang counts
/// each member as a spillover, as the receiving cluster counts each as a
/// spill-in, on both dispatch paths — so `spillovers == Σ spill_ins`
/// holds with gangs too.
#[test]
fn spilled_gangs_count_every_member_as_a_spillover() {
    let mut spilled = 0;
    for queued in [false, true] {
        for seed in [3, 11, 29] {
            let member = || {
                let c = fleet(2, 3, 1);
                if queued {
                    c.with_shard_queues(4)
                } else {
                    c
                }
            };
            let federation = Federation::new(
                vec![member(), member(), member()],
                Box::new(SpilloverPolicy),
            );
            let jobs = generator::paper_job_mix(seed);
            let gangs = jobs[..40]
                .chunks(2)
                .zip(1..)
                .map(|(pair, id)| Submission::Gang(JobGroup::new(id, pair.to_vec())));
            let report = Engine::over(federation).run_submissions(gangs);
            let fed = report.federation.as_ref().expect("federated run");
            let context = format!("queued={queued}, seed={seed}");
            assert_eq!(fed.clusters[0].spill_ins, 0, "{context}");
            let spill_ins: u64 = fed.clusters.iter().map(|c| c.spill_ins).sum();
            assert_eq!(fed.spillovers, spill_ins, "{context}");
            spilled += spill_ins;
        }
    }
    assert!(spilled > 0, "no gang spilled: the count went untested");
}

/// On the queued path a gang is pinned to one cluster, so a gang no
/// single cluster can hold is refused by name — even though the
/// federation's pooled GPUs (16) would hold it (10). The federation keeps
/// it queued, and the engine names it when the run drains.
#[test]
fn a_queued_gang_larger_than_every_cluster_is_refused_by_name() {
    let member = || fleet(1, 3, 1).with_shard_queues(4);
    let federation = Federation::new(vec![member(), member()], Box::new(SpilloverPolicy));
    let five = |id| JobSpec::new(id, GpuDemand::Whole(5), Workload::Vgg16).with_iterations(10);
    let gang = JobGroup::new(7, vec![five(1), five(2)]);
    let rejection = Engine::over(federation)
        .try_run_submissions([Submission::Gang(gang)])
        .unwrap_err();
    assert_eq!(
        rejection,
        JobRejection::Gang {
            gang: 7,
            jobs: vec![1, 2],
            gpus: 10
        }
    );
    assert!(
        rejection
            .to_string()
            .starts_with("gang 7 (jobs [1, 2], 10 GPUs total) cannot be co-scheduled"),
        "{rejection}"
    );
}

/// A load that always fits the first cluster never spills: jobs small
/// enough to coexist on cluster 0 leave the other cluster untouched —
/// the "spillover only when saturated" direction of the invariant.
#[test]
fn no_spillover_while_the_first_cluster_has_room() {
    // 4 jobs × 2 GPUs = 8 concurrent GPUs = exactly cluster 0's capacity.
    let jobs: Vec<JobSpec> = (1..=4)
        .map(|id| {
            JobSpec::new(id, GpuDemand::Whole(2), Workload::Vgg16)
                .with_topology(AppTopology::Ring)
                .with_iterations(100)
        })
        .collect();
    let member = || fleet(1, 3, 1);
    let federation = Federation::new(vec![member(), member()], Box::new(SpilloverPolicy));
    let report = Engine::over(federation).run(&jobs);
    let fed = report.federation.as_ref().expect("federated run");
    assert_eq!(fed.spillovers, 0, "cluster 0 had room the whole run");
    assert_eq!(fed.clusters[1].jobs_routed, 0);
    assert_eq!(fed.clusters[1].jobs_completed, 0);
    assert_eq!(fed.clusters[0].jobs_completed, 4);
}

/// Tight quotas visibly defer work (quota_holds > 0) without losing any,
/// on both dispatch paths — and the log trailer carries the counters.
/// Building the fleet from a [`RunSpec`] changes nothing.
#[test]
fn tight_quotas_defer_but_never_lose_jobs() {
    for queued in [false, true] {
        let mut jobs = generator::paper_job_mix(13)[..30].to_vec();
        assign_tenants(&mut jobs, 2);
        let member = || {
            let c = fleet(2, 3, 1);
            if queued {
                c.with_shard_queues(4)
            } else {
                c
            }
        };
        let federation = Federation::new(vec![member(), member()], Box::new(SpilloverPolicy))
            .with_default_quota(8);
        let report = Engine::over(federation).run(&jobs);
        assert_eq!(report.records.len(), 30, "queued={queued}");
        let fed = report.federation.as_ref().expect("federated run");
        assert!(
            fed.quota_holds > 0,
            "queued={queued}: a 30-job mix against an 8-GPU quota must defer something"
        );
        let log = mapa::sim::logfile::write_log(&report);
        assert!(log.contains("# federation: policy=spillover"));
        assert!(log.contains("quota_holds="));
        // The same 2×2 fleet described as a `RunSpec` is the same fleet.
        let spec = RunSpec {
            clusters: 2,
            servers: 2,
            server_policy: Some("least-loaded".into()),
            shard_queue_depth: queued.then_some(4),
            quota_gpus: Some(8),
            ..RunSpec::new(machines::dgx1_v100(), "preserve")
        };
        let mut shared = Shared::new(std::sync::Arc::new(WorkerPool::new(2)));
        let submissions = jobs.iter().cloned().map(Submission::Job);
        let described = spec
            .run(&mut shared, SimConfig::default(), submissions)
            .expect("valid spec");
        assert_identical_schedules(&report, &described, &format!("RunSpec, queued={queued}"));
        assert_eq!(report.federation, described.federation, "queued={queued}");
    }
}

/// The three federation policies genuinely route differently under load,
/// and every one of them preserves the engine's completeness contract.
#[test]
fn federation_policies_route_differently_but_all_complete() {
    let jobs = generator::paper_job_mix(29);
    let jobs = &jobs[..40];
    let mut digests = Vec::new();
    for name in FEDERATION_POLICY_NAMES {
        let policy = federation_policy_by_name(name).expect(name);
        let member = || fleet(1, 3, 1);
        let federation = Federation::new(vec![member(), member(), member()], policy);
        let report = Engine::over(federation).run(jobs);
        assert_eq!(report.records.len(), 40, "{name}");
        let fed = report.federation.as_ref().unwrap();
        assert_eq!(fed.policy, name);
        digests.push(schedule_digest(&report));
    }
    assert!(
        digests.windows(2).any(|w| w[0] != w[1]),
        "policies must not all produce the same schedule: {digests:x?}"
    );
}
