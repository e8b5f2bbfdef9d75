//! Parity pin for the engine's per-shard statistics.
//!
//! The engine fills each shard's `jobs_completed` / `gpu_seconds` in one
//! pass over the record log at the end of a run. An independent recount
//! must match it *exactly* — not approximately: both walk the records
//! in order, so even the floating-point sums are bit-identical. This
//! harness does that recount on every report and compares with `==`
//! (and `to_bits` for the f64s), across random job streams, fleet
//! shapes, server policies, and with preemption exercising the
//! evict/requeue path.

use mapa::core::policy::PreservePolicy;
use mapa::core::PreemptionPolicy;
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

/// From-scratch recount: rebuild every shard's counters by walking the
/// record log in order, then demand exact equality with the report.
fn assert_soa_matches_recount(report: &SimReport, context: &str) {
    let shards = report.shards.len();
    let mut jobs = vec![0usize; shards];
    let mut gpu_seconds = vec![0.0f64; shards];
    for r in &report.records {
        jobs[r.server] += 1;
        gpu_seconds[r.server] += r.execution_seconds * r.gpus.len() as f64;
    }
    for (s, shard) in report.shards.iter().enumerate() {
        assert_eq!(
            shard.jobs_completed, jobs[s],
            "{context}: shard {s} jobs_completed diverges from recount"
        );
        assert_eq!(
            shard.gpu_seconds.to_bits(),
            gpu_seconds[s].to_bits(),
            "{context}: shard {s} gpu_seconds not bit-identical to recount \
             ({} vs {})",
            shard.gpu_seconds,
            gpu_seconds[s]
        );
        if report.makespan_seconds > 0.0 {
            let util = gpu_seconds[s] / (shard.gpu_count as f64 * report.makespan_seconds);
            assert_eq!(
                shard.utilization.to_bits(),
                util.to_bits(),
                "{context}: shard {s} utilization diverges"
            );
        }
    }
    let total: usize = jobs.iter().sum();
    assert_eq!(
        total,
        report.records.len(),
        "{context}: records unaccounted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SoA counters equal the owner-table recount on the engine-queued
    /// (global FIFO) dispatch path.
    #[test]
    fn soa_counters_match_recount_global_queue(
        seed in 1u64..500,
        take in 20usize..70,
        servers in 1usize..6,
        server_policy_idx in 0usize..4,
    ) {
        let jobs = generator::paper_job_mix(seed);
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            servers,
            || Box::new(PreservePolicy),
            server_policy_by_index(server_policy_idx),
        );
        let report = Engine::over(cluster).run(&jobs[..take]);
        let context =
            format!("global queue, seed {seed}, {servers} shards, policy #{server_policy_idx}");
        assert_soa_matches_recount(&report, &context);
    }

    /// Same parity on the queued path, with preemption on — evicted and
    /// restarted jobs must be counted once, on the shard that finally
    /// ran them.
    #[test]
    fn soa_counters_match_recount_with_preemption(
        seed in 1u64..500,
        take in 20usize..60,
        servers in 2usize..5,
        depth in 2usize..8,
    ) {
        let mut jobs = generator::paper_job_mix(seed);
        for (i, job) in jobs.iter_mut().enumerate() {
            job.priority = (i % 3) as u8;
        }
        let cluster = Cluster::homogeneous(
            machines::dgx1_v100(),
            servers,
            || Box::new(PreservePolicy),
            Box::new(LeastLoadedPolicy),
        )
        .with_shard_queues(depth);
        let config = SimConfig {
            arrivals: ArrivalProcess::Bursts { size: 1, gap: 40.0 },
            preemption: PreemptionPolicy::PriorityEvict,
            ..SimConfig::default()
        };
        let report = Engine::over(cluster)
            .with_config(config)
            .run(&jobs[..take]);
        let context = format!("preemptive, seed {seed}, {servers} shards, depth {depth}");
        assert_soa_matches_recount(&report, &context);
    }
}

/// The single-server engine reports exactly one shard whose counters
/// cover every record — the 1-shard degenerate case of the parity.
#[test]
fn single_server_shard_counters_cover_all_records() {
    let jobs = generator::paper_job_mix(7);
    let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..40]);
    assert_eq!(report.shards.len(), 1);
    assert_soa_matches_recount(&report, "single server");
}
