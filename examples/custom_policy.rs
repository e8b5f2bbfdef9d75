//! Implementing a custom allocation policy against the public API.
//!
//! MAPA is "agnostic to scheduling policies" (§4) — this example writes a
//! new policy from scratch: *WorstFit*, which deliberately picks the match
//! with the LOWEST predicted effective bandwidth (an adversarial policy,
//! useful as a lower bound), and compares it with Preserve on the same
//! job stream.
//!
//! Run with: `cargo run --release --example custom_policy`

use mapa::core::policy::{candidate_matches, AllocationPolicy, PolicyContext};
use mapa::core::scoring;
use mapa::prelude::*;
use mapa::sim::Simulation;

/// Adversarial policy: always take the worst-scoring match.
struct WorstFitPolicy;

impl AllocationPolicy for WorstFitPolicy {
    fn name(&self) -> &'static str {
        "WorstFit"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        let candidates = candidate_matches(job, ctx);
        candidates
            .iter()
            .map(|e| {
                let gpus = e.vertex_set();
                let score = scoring::predicted_effective_bandwidth(ctx.model, ctx.topology, &gpus);
                (score, gpus)
            })
            .min_by(|(a, _), (b, _)| a.total_cmp(b))
            .map(|(_, gpus)| gpus)
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
        // WorstFit goes through `candidate_matches`, i.e. the matcher; the
        // built-in set-streaming policies never call into it.
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
