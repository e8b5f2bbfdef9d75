//! The shared decision table's equivalence proof: the allocators of a
//! fleet that run an equal machine under the same policy and model read
//! one allocation cache, and that must change no decision. For every
//! allocation × server policy, on the global-queue and the shard-queue
//! path, and across a 2-cluster federation, a cached fleet schedules
//! exactly as the uncached reference (`SimConfig { cached: false }`) —
//! placements, times and the bits of every record's scores. The fleet is
//! heterogeneous (two DGX-1 V100, a MIG-partitioned DGX-1, the cube-mesh),
//! so equal shards share a table and unequal ones must not.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::prelude::*;
use mapa::sim::digest::schedule_digest;
use mapa::workloads::generator::JobMixConfig;
use proptest::prelude::*;
use std::collections::HashMap;
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

/// What every cluster here is built from: the machines, and the models
/// and worker pool their clusters reuse (a model fit per machine type,
/// not per run).
struct Fixture {
    machines: Vec<Topology>,
    models: HashMap<String, EffBwModel>,
    pool: Arc<WorkerPool>,
}

impl Fixture {
    fn new() -> Self {
        let mig = PartitionPlan::new().split(0, 4).split(5, 2);
        Self {
            machines: vec![
                machines::dgx1_v100(),
                machines::dgx1_v100(),
                mig.apply(&machines::dgx1_v100()),
                machines::cube_mesh(),
            ],
            models: HashMap::new(),
            pool: Arc::new(WorkerPool::new(2)),
        }
    }

    /// The heterogeneous fleet under allocation policy `policy_idx`, with
    /// shard queues of `depth` when given.
    fn cluster(&mut self, policy_idx: usize, server_idx: usize, depth: Option<usize>) -> Cluster {
        let cluster = Cluster::with_shared_resources(
            self.machines.clone(),
            || policy_by_index(policy_idx),
            server_policy_by_index(server_idx),
            Arc::clone(&self.pool),
            &mut self.models,
        );
        match depth {
            Some(depth) => cluster.with_shard_queues(depth),
            None => cluster,
        }
    }
}

/// A training + inference stream: whole-GPU jobs up to 5 GPUs (the
/// partitioned DGX-1 keeps 6 whole) and MIG-slice requests.
fn mixed_jobs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mix = JobMixConfig {
        job_count: count,
        inference_fraction: 0.3,
        ..JobMixConfig::default()
    };
    generator::generate_jobs(&mix, seed)
}

fn run<B: SchedulerBackend>(backend: B, cached: bool, jobs: &[JobSpec]) -> SimReport {
    let config = SimConfig {
        cached,
        ..SimConfig::default()
    };
    Engine::over(backend).with_config(config).run(jobs)
}

/// Bit-identical schedules and scores (wall-clock `scheduling_overhead`
/// is the one field that may differ).
fn assert_identical(cached: &SimReport, plain: &SimReport, context: &str) {
    assert_eq!(cached.records.len(), plain.records.len(), "{context}");
    for (x, y) in cached.records.iter().zip(&plain.records) {
        assert_eq!(x.job.id, y.job.id, "{context}");
        assert_eq!(x.server, y.server, "{context}: job {}", x.job.id);
        assert_eq!(x.gpus, y.gpus, "{context}: job {}", x.job.id);
        assert_eq!(x.started_at, y.started_at, "{context}: job {}", x.job.id);
        assert_eq!(x.finished_at, y.finished_at, "{context}: job {}", x.job.id);
        let bits = |r: &mapa::sim::JobRecord| {
            [
                r.predicted_eff_bw,
                r.measured_eff_bw,
                r.workload_eff_bw,
                r.aggregated_bw,
                r.allocation_quality,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(x), bits(y), "{context}: scores of job {}", x.job.id);
    }
    assert_eq!(schedule_digest(cached), schedule_digest(plain), "{context}");
    assert!(
        plain.cache.is_none(),
        "{context}: the reference caches nothing"
    );
    let stats = cached.cache.expect("the fleet caches");
    let per_shard: u64 = cached
        .shards
        .iter()
        .map(|s| s.cache.expect("every shard caches").lookups())
        .sum();
    assert_eq!(
        stats.lookups(),
        per_shard,
        "{context}: the sum of the shards"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cached with shared tables ≡ uncached, on one heterogeneous cluster:
    /// every allocation × server policy, global queue and shard queues.
    #[test]
    fn shared_table_fleet_schedules_like_the_uncached_fleet(
        seed in 1u64..500,
        count in 20usize..40,
        depth in 2usize..8,
    ) {
        let jobs = mixed_jobs(seed, count);
        let mut fixture = Fixture::new();
        for policy_idx in 0..5 {
            for server_idx in 0..4 {
                for queues in [None, Some(depth)] {
                    let cached = run(fixture.cluster(policy_idx, server_idx, queues), true, &jobs);
                    let plain = run(fixture.cluster(policy_idx, server_idx, queues), false, &jobs);
                    let context = format!(
                        "alloc #{policy_idx}, server #{server_idx}, queues {queues:?}, seed {seed}"
                    );
                    assert_identical(&cached, &plain, &context);
                }
            }
        }
    }

    /// The same across a 2-cluster federation, whose four DGX-1 V100
    /// shards (two per cluster) read one table.
    #[test]
    fn shared_table_federation_schedules_like_the_uncached_federation(
        seed in 1u64..500,
        count in 20usize..40,
        depth in 2usize..8,
    ) {
        let jobs = mixed_jobs(seed, count);
        let mut fixture = Fixture::new();
        for policy_idx in 0..5 {
            for queues in [None, Some(depth)] {
                let mut federation = |cached: bool| {
                    let clusters = (0..2)
                        .map(|c| fixture.cluster(policy_idx, 1 + c, queues))
                        .collect();
                    let federation = Federation::new(clusters, Box::new(LeastLoadedPolicy));
                    run(federation, cached, &jobs)
                };
                let (cached, plain) = (federation(true), federation(false));
                let context = format!("federation: alloc #{policy_idx}, queues {queues:?}, seed {seed}");
                assert_identical(&cached, &plain, &context);
            }
        }
    }
}
