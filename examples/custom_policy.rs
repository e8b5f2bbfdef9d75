//! Implementing a custom allocation policy against the public API.
//!
//! MAPA is "agnostic to scheduling policies" (§4) — this example writes a
//! new policy from scratch: *WorstFit*, which deliberately picks the GPU
//! set with the LOWEST predicted effective bandwidth (an adversarial policy,
//! useful as a lower bound), and compares it with Preserve on the same
//! job stream.
//!
//! Run with: `cargo run --release --example custom_policy`

use mapa::core::policy::{AllocationPolicy, PolicyContext};
use mapa::core::scoring;
use mapa::prelude::*;
use mapa::sim::Simulation;

/// Adversarial policy: always take the worst-scoring GPU set.
struct WorstFitPolicy;

impl AllocationPolicy for WorstFitPolicy {
    fn name(&self) -> &'static str {
        "WorstFit"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        // The hardware graph is complete (§3.2), so every set of free GPUs
        // the job may use hosts its pattern: the candidates are the subsets.
        let mut worst: Option<(f64, Vec<usize>)> = None;
        let pool = ctx.eligible_free(job);
        for_each_subset(&pool, job.num_gpus(), &mut Vec::new(), &mut |gpus| {
            let score = scoring::predicted_effective_bandwidth(ctx.model, ctx.topology, gpus);
            if worst.as_ref().is_none_or(|(w, _)| score < *w) {
                worst = Some((score, gpus.to_vec()));
            }
        });
        worst.map(|(_, gpus)| gpus)
    }
}

/// Calls `visit` on every `k`-vertex extension of `chosen` by vertices of
/// `pool`, in lexicographic order.
fn for_each_subset(
    pool: &[usize],
    k: usize,
    chosen: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if chosen.len() == k {
        visit(chosen);
        return;
    }
    for (i, &v) in pool.iter().enumerate() {
        chosen.push(v);
        for_each_subset(&pool[i + 1..], k, chosen, visit);
        chosen.pop();
    }
}

fn main() {
    let cfg = generator::JobMixConfig {
        job_count: 120,
        ..Default::default()
    };
    let jobs = generator::generate_jobs(&cfg, 77);
    let dgx = machines::dgx1_v100();

    println!(
        "Policy comparison on {} jobs (sensitive multi-GPU jobs only):\n",
        jobs.len()
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>11}",
        "policy", "p50 (s)", "p75 (s)", "max (s)", "tput (j/h)"
    );
    for (name, policy) in [
        (
            "WorstFit",
            Box::new(WorstFitPolicy) as Box<dyn AllocationPolicy>,
        ),
        ("baseline", Box::new(BaselinePolicy)),
        ("Preserve", Box::new(PreservePolicy)),
    ] {
        let report = Simulation::new(dgx.clone(), policy).run(&jobs);
        let times = report.execution_times(|r| r.job.bandwidth_sensitive && r.job.num_gpus() >= 2);
        let s = stats::summarize(&times);
        println!(
            "{:<10} {:>9.0} {:>9.0} {:>9.0} {:>11.1}",
            name, s.p50, s.p75, s.max, report.throughput_jobs_per_hour
        );
    }

    println!(
        "\nWorstFit < baseline < Preserve is the expected ordering: the same \
         mechanism that lets MAPA pick good matches can rank them all."
    );
}
