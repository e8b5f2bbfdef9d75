//! Fractional-GPU invariants, end to end: slice maps conserve vertices,
//! whole-GPU jobs never land on MIG slices, SLO counters agree with an
//! independent recount of the per-job records, and — the determinism
//! contract this PR extends — parallel dispatch replays sequential
//! dispatch bit-identically on *partitioned* fleets across the full
//! allocation × server policy matrix. Unpartitioned runs are pinned
//! separately by the golden digests under `tests/golden/`, which this PR
//! must not (and does not) re-bless.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use mapa::workloads::generator::JobMixConfig;
use proptest::prelude::*;

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

/// A training + inference mix sized so whole-GPU jobs always fit the
/// unsplit pool of the plans used below (max whole demand 5, plans split
/// at most 2 of 8 GPUs).
fn mixed_jobs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mix = JobMixConfig {
        job_count: count,
        inference_fraction: 0.4,
        ..JobMixConfig::default()
    };
    generator::generate_jobs(&mix, seed)
}

proptest! {
    /// Slice conservation: applying any plan to a DGX-1 yields exactly
    /// one vertex per slice plus one per unsplit GPU, the per-physical
    /// vertex ranges partition the id space, and every vertex maps back
    /// to its physical GPU.
    #[test]
    fn slice_maps_conserve_vertices(
        split_list in proptest::collection::vec((0usize..8, 2usize..8), 0..5)
    ) {
        let mut splits = std::collections::BTreeMap::new();
        let mut plan = PartitionPlan::new();
        for &(gpu, slices) in &split_list {
            splits.insert(gpu, slices);
            plan = plan.split(gpu, slices);
        }
        let virt = plan.apply(&machines::dgx1_v100());
        let map = virt.slice_map().expect("an applied plan carries its map");
        let expected: usize = (0..8).map(|g| splits.get(&g).copied().unwrap_or(1)).sum();
        prop_assert_eq!(map.vertex_count(), expected);
        prop_assert_eq!(virt.gpu_count(), expected);
        prop_assert_eq!(map.physical_count(), 8);
        let mut seen = vec![false; expected];
        for phys in 0..8 {
            let slices = splits.get(&phys).copied().unwrap_or(1);
            prop_assert_eq!(map.slices_of(phys), slices);
            prop_assert_eq!(map.vertices_of(phys).len(), slices);
            for v in map.vertices_of(phys) {
                prop_assert_eq!(map.physical_of(v), phys);
                prop_assert_eq!(map.is_slice(v), slices > 1);
                prop_assert!(!seen[v], "vertex {} claimed twice", v);
                seen[v] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "every vertex belongs to a physical GPU");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance bar for partitioned determinism: on a MIG-
    /// partitioned fleet running a mixed training + inference stream,
    /// parallel dispatch replays sequential dispatch bit-identically for
    /// every allocation policy × server policy combination — including
    /// the SLO counters, which hash the same records.
    #[test]
    fn partitioned_parallel_replays_sequential_across_the_policy_matrix(
        seed in 1u64..300,
        servers in 2usize..4,
        depth in 2usize..8usize,
    ) {
        let jobs = mixed_jobs(seed, 30);
        let plan = PartitionPlan::new().split(0, 4).split(5, 2);
        let machine = plan.apply(&machines::dgx1_v100());
        for policy_idx in 0..5 {
            for server_policy_idx in 0..4 {
                let fleet = |dispatch: DispatchMode| {
                    Cluster::homogeneous(
                        machine.clone(),
                        servers,
                        move || policy_by_index(policy_idx),
                        server_policy_by_index(server_policy_idx),
                    )
                    .with_shard_queues(depth)
                    .with_dispatch(dispatch)
                };
                let seq = Engine::over(fleet(DispatchMode::Sequential)).run(&jobs);
                let par = Engine::over(fleet(DispatchMode::Parallel)).run(&jobs);
                let context = format!(
                    "alloc #{policy_idx}, server #{server_policy_idx}, seed {seed}, \
                     {servers} shards, depth {depth}"
                );
                prop_assert_eq!(
                    schedule_digest(&seq),
                    schedule_digest(&par),
                    "partitioned schedules diverged: {}",
                    context
                );
                prop_assert_eq!(seq.slo, par.slo, "SLO counters diverged: {}", context);
            }
        }
    }
}

/// Whole-GPU jobs never occupy slice vertices, in a full simulation on a
/// partitioned machine — fractional tenants may use anything.
#[test]
fn whole_jobs_stay_off_slices_in_a_full_simulation() {
    let virt = PartitionPlan::new()
        .split(0, 4)
        .apply(&machines::dgx1_v100());
    let map = virt.slice_map().unwrap().clone();
    let report = Simulation::new(virt, Box::new(GreedyPolicy)).run(&mixed_jobs(7, 60));
    assert_eq!(report.records.len(), 60);
    let mut fractional_seen = 0;
    for r in &report.records {
        if r.job.is_fractional() {
            fractional_seen += 1;
        } else {
            for &g in &r.gpus {
                assert!(
                    !map.is_slice(g),
                    "whole-GPU job {} landed on slice vertex {g}",
                    r.job.id
                );
            }
        }
    }
    assert_eq!(fractional_seen, 24, "the 0.4 mix interleaves exactly");
}

/// SLO counters are exactly a recount of the per-job records: one
/// request per iteration, met iff per-request latency is within the
/// target, percentiles over the same populations.
#[test]
fn slo_counters_match_an_independent_recount() {
    let virt = PartitionPlan::new()
        .split(0, 7)
        .apply(&machines::dgx1_v100());
    let report = Simulation::new(virt, Box::new(PreservePolicy)).run(&mixed_jobs(9, 50));
    let (mut met, mut missed) = (0usize, 0usize);
    let mut latencies = Vec::new();
    let mut targets = Vec::new();
    for r in &report.records {
        if let Some(target) = r.job.slo_ms {
            let latency_ms = r.execution_seconds / r.job.iterations as f64 * 1e3;
            if latency_ms <= target {
                met += 1;
            } else {
                missed += 1;
            }
            latencies.push(latency_ms);
            targets.push(target);
        }
    }
    latencies.sort_by(f64::total_cmp);
    targets.sort_by(f64::total_cmp);
    assert!(met + missed > 0, "the mix submitted SLO-tagged tenants");
    assert_eq!(report.slo.jobs, met + missed);
    assert_eq!(report.slo.met, met);
    assert_eq!(report.slo.missed, missed);
    assert_eq!(
        report.slo.attainment(),
        Some(met as f64 / (met + missed) as f64)
    );
    assert_eq!(
        report.slo.p95_latency_ms,
        stats::percentile(&latencies, 95.0)
    );
    assert_eq!(report.slo.p95_target_ms, stats::percentile(&targets, 95.0));
}

/// The paper's pure-training mix never touches the SLO machinery: no
/// fractional demands, no targets, an all-zero SLO block — and *no*
/// attainment number at all, rather than the old vacuous 100%. (The
/// schedules themselves are pinned against the pre-fractional engine by
/// `tests/golden/`.)
#[test]
fn whole_gpu_mixes_never_touch_slo_accounting() {
    let jobs = generator::paper_job_mix(42);
    assert!(jobs.iter().all(|j| !j.is_fractional() && !j.has_slo()));
    let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..40]);
    assert_eq!(report.slo, SloStats::default());
    assert_eq!(report.slo.attainment(), None);
}
