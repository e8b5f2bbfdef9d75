//! Two tenant classes sharing a fleet, with preemption off vs on —
//! the study behind `docs/SCHEDULING.md` §8.
//!
//! A batch tenant (priority 0) and an interactive tenant (priority 1)
//! submit the same paper-style job mix to a 2× DGX-1 V100 fleet. With
//! preemption off, an interactive arrival that finds the fleet full
//! waits like everyone else. With `priority-evict`, it may take GPUs
//! back from a running batch job — which is checkpointed, requeued, and
//! charged a restore penalty. `sensitivity-aware-evict` additionally
//! refuses to evict bandwidth-sensitive batch jobs (the MoCA-style SLA
//! shield).
//!
//! The fleet is a `RunSpec`, as `mapa-sched simulate --machine dgx-1-v100
//! --servers 2 --server-policy least-loaded --policy preserve` builds it.
//!
//! Run with: `cargo run --release --example priority_tenants`

use mapa::core::PreemptionPolicy;
use mapa::prelude::*;
use mapa::sim::JobRecord;
use std::sync::Arc;

fn tenant_mix() -> Vec<JobSpec> {
    // Every third job belongs to the interactive tenant (priority 1);
    // the rest are batch work (priority 0).
    let mut jobs = generator::paper_job_mix(23)[..120].to_vec();
    for job in &mut jobs {
        job.priority = u8::from(job.id % 3 == 0);
    }
    jobs
}

fn run(policy: PreemptionPolicy, jobs: &[JobSpec], shared: &mut Shared) -> SimReport {
    let fleet = RunSpec {
        servers: 2,
        server_policy: Some("least-loaded".to_string()),
        ..RunSpec::new(machines::dgx1_v100(), "preserve")
    };
    let config = SimConfig {
        preemption: policy,
        // Offered load high enough that the fleet is usually busy
        // when an interactive job arrives.
        arrivals: ArrivalProcess::Poisson {
            mean_gap: 45.0,
            seed: 7,
        },
        ..SimConfig::default()
    };
    let submissions = jobs.iter().cloned().map(Submission::Job);
    fleet
        .run(shared, config, submissions)
        .expect("every job fits a DGX-1 V100")
}

fn class_wait(report: &SimReport, priority: u8) -> stats::Summary {
    let waits: Vec<f64> = report
        .records
        .iter()
        .filter(|r: &&JobRecord| r.job.priority == priority)
        .map(|r| r.queue_wait_seconds)
        .collect();
    stats::summarize(&waits)
}

fn main() {
    let jobs = tenant_mix();
    let mut shared = Shared::new(Arc::new(WorkerPool::new(1)));
    let interactive = jobs.iter().filter(|j| j.priority > 0).count();
    println!(
        "{} jobs on 2× DGX-1 V100: {} batch (priority 0), {interactive} interactive (priority 1)\n",
        jobs.len(),
        jobs.len() - interactive,
    );
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>9} {:>11} {:>10}",
        "preemption", "int p50 w", "int max w", "batch p50", "evicted", "lost gpu-s", "makespan"
    );
    for policy in [
        PreemptionPolicy::None,
        PreemptionPolicy::PriorityEvict,
        PreemptionPolicy::SensitivityAwareEvict,
    ] {
        let report = run(policy, &jobs, &mut shared);
        let int_wait = class_wait(&report, 1);
        let batch_wait = class_wait(&report, 0);
        println!(
            "{:<24} {:>9.0}s {:>9.0}s {:>9.0}s {:>9} {:>11.0} {:>9.0}s",
            policy.name(),
            int_wait.p50,
            int_wait.max,
            batch_wait.p50,
            report.preemption.jobs_preempted,
            report.preemption.gpu_seconds_lost,
            report.makespan_seconds,
        );
    }
    println!(
        "\nReading the table: eviction buys the interactive class shorter queue waits; the\n\
         batch class pays with requeues (each charged a {}-second restore penalty) and the\n\
         fleet pays the lost partial iterations. `sensitivity-aware-evict` shields\n\
         bandwidth-sensitive batch jobs, so it evicts less and protects less aggressively.\n\
         Semantics: docs/SCHEDULING.md §8; invariants: tests/preemption_invariants.rs.",
        SimConfig::default().preemption_penalty_seconds,
    );
}
