//! Topology design-space exploration — the spirit of the paper's §5
//! ("Exploring Novel Hardware Topologies") taken one step further: sweep a
//! family of 16-GPU point-to-point designs and ask which fabric keeps
//! bandwidth-sensitive tenants fastest under the Preserve policy.
//!
//! The sweep runs on the campaign runner: every design is a campaign
//! cell, replicated under **common random numbers** (replication
//! `r` of every design sees the identical job stream, seeded by
//! `crn_seed(base_seed, r)`), with mean ± 95% CI columns instead of
//! single-run point estimates. A paired Preserve-vs-baseline comparison
//! at the end shows the CRN variance-reduction win directly: the paired
//! difference is far tighter than the same comparison across independent
//! streams.
//!
//! Each replication builds its one server by hand (`Simulation::new`), not
//! through `mapa::runspec::RunSpec`: the cells here are machines, which
//! `mapa::campaign`'s grid (one machine, a `RunSpec` per cell) does not
//! sweep, and one server under one policy needs no fleet description.
//!
//! Run with: `cargo run --release --example design_space`

use mapa::prelude::*;
use mapa::sim::campaign::{crn_seed, run_campaign, CampaignSpec, Welford};
use mapa::sim::{JobRecord, Simulation};
use mapa::topology::machines;
use std::sync::Arc;

/// Jobs per replication: large enough to exercise queueing on a 16-GPU
/// machine, small enough that 5 designs × replications stay brisk.
const JOBS: usize = 90;
const REPLICATIONS: usize = 5;
const BASE_SEED: u64 = 3;

fn mix(seed: u64) -> Vec<JobSpec> {
    let cfg = generator::JobMixConfig {
        job_count: JOBS,
        ..Default::default()
    };
    generator::generate_jobs(&cfg, seed)
}

fn main() {
    let designs: Vec<Topology> = vec![
        machines::torus_2d(),
        machines::torus(2, 8, LinkType::DoubleNvLink2, LinkType::SingleNvLink2),
        machines::hypercube(4, LinkType::SingleNvLink2),
        machines::cube_mesh(),
        machines::dgx2(), // NVSwitch upper bound
    ];
    let pool = Arc::new(WorkerPool::with_default_threads());

    // The design sweep as a campaign: one cell per topology, CRN across
    // cells, streaming mean/CI aggregation.
    let spec = CampaignSpec {
        cells: designs,
        replications: REPLICATIONS,
        base_seed: BASE_SEED,
    };
    let summaries = run_campaign(
        spec,
        &pool,
        |design: &Topology| design.name().to_string(),
        // Context hoisting: the simulation input (the topology) is set up
        // once per cell; each replication pays only job generation and
        // the run itself.
        Topology::clone,
        |design, seed| Simulation::new(design.clone(), Box::new(PreservePolicy)).run(&mix(seed)),
    );

    println!(
        "{} replications per design, CRN base seed {BASE_SEED}",
        REPLICATIONS
    );
    println!(
        "{:<14} {:>22} {:>22} {:>18}",
        "design", "makespan (s, ±CI95)", "tput (j/h, ±CI95)", "wait p50/p95 (s)"
    );
    for s in &summaries {
        println!(
            "{:<14} {:>13.0} ±{:>6.0} {:>14.1} ±{:>5.1} {:>9.0} /{:>7.0}",
            s.label,
            s.makespan_seconds.mean,
            s.makespan_seconds.ci95,
            s.throughput_jobs_per_hour.mean,
            s.throughput_jobs_per_hour.ci95,
            s.queue_wait_p50_seconds,
            s.queue_wait_p95_seconds,
        );
    }
    println!(
        "\nreading: richer point-to-point fabrics narrow the gap to the \
         NVSwitch (DGX-2) upper bound; the irregular cube-mesh trades peak \
         links for fragmentation risk — exactly the §5.3 trade-off."
    );

    // Paired A/B with CRN: Preserve vs baseline on the 2D torus. Under
    // common random numbers replication r of BOTH policies replays the
    // identical job stream, so the per-replication difference isolates
    // the policy effect; with independent streams the same estimator
    // also carries the arrival noise.
    let torus = machines::torus_2d();
    let sens = |r: &JobRecord| r.job.bandwidth_sensitive && r.job.num_gpus() >= 2;
    let mut paired = Welford::default();
    let mut independent = Welford::default();
    for r in 0..REPLICATIONS as u64 {
        let seed = crn_seed(BASE_SEED, r);
        let run = |policy: Box<dyn AllocationPolicy>, seed: u64| {
            let report = Simulation::new(torus.clone(), policy).run(&mix(seed));
            stats::summarize(&report.execution_times(sens)).p50
        };
        let a = run(Box::new(PreservePolicy), seed);
        // CRN pairing: same seed, so the same jobs in the same order.
        paired.push(run(Box::new(BaselinePolicy), seed) - a);
        // Control: an independent stream (a different base seed) for the
        // baseline arm — the classic unpaired two-sample design.
        independent.push(run(Box::new(BaselinePolicy), crn_seed(BASE_SEED ^ 0xA5A5, r)) - a);
    }
    println!(
        "\npaired A/B on {} (baseline minus Preserve, sensitive exec p50):",
        torus.name()
    );
    println!(
        "  common random numbers: {:>7.0} s ± {:>6.0} (CI95)",
        paired.mean(),
        paired.ci95_half_width()
    );
    println!(
        "  independent streams:   {:>7.0} s ± {:>6.0} (CI95)",
        independent.mean(),
        independent.ci95_half_width()
    );
    println!(
        "  CRN shrinks the interval {:.1}x — the variance-reduction win \
         that makes small policy effects resolvable with few replications.",
        independent.ci95_half_width() / paired.ci95_half_width().max(1e-9)
    );
}
