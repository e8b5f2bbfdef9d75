//! Quickstart: allocate jobs on a DGX-1 V100 with the Preserve policy and
//! watch fragmentation-aware decisions happen.
//!
//! Run with: `cargo run --release --example quickstart`

use mapa::prelude::*;

fn main() {
    let dgx = machines::dgx1_v100();
    println!("Machine: {} ({} GPUs)", dgx.name(), dgx.gpu_count());
    println!("{}", mapa::topology::parse::to_topology_matrix(&dgx));

    let mut allocator = MapaAllocator::new(dgx.clone(), Box::new(PreservePolicy));

    // An insensitive job arrives first…
    let background = JobSpec::new(1, GpuDemand::Whole(2), Workload::GoogleNet)
        .with_topology(AppTopology::Ring)
        .with_bandwidth_sensitive(false)
        .with_iterations(2000);
    // …then a bandwidth-hungry VGG-16 training run.
    let training = JobSpec::new(2, GpuDemand::Whole(3), Workload::Vgg16)
        .with_topology(AppTopology::Ring)
        .with_bandwidth_sensitive(true)
        .with_iterations(3000);

    for job in [&background, &training] {
        let outcome = allocator
            .try_allocate(job)
            .expect("valid request")
            .expect("machine has room");
        let exec = perf::execution_time(job.workload, &dgx, &outcome.gpus, job.iterations);
        println!(
            "job {} ({}, {} GPUs, {}) -> GPUs {:?}",
            job.id,
            job.workload,
            job.num_gpus(),
            if job.bandwidth_sensitive {
                "sensitive"
            } else {
                "insensitive"
            },
            outcome.gpus,
        );
        println!(
            "    AggBW {:>6.1} GB/s | predicted EffBW {:>5.1} GB/s | preserved {:>6.1} GB/s | est. runtime {:>6.0} s",
            outcome.score.aggregated_bw,
            outcome.score.predicted_eff_bw,
            outcome.score.preserved_bw,
            exec,
        );
    }

    println!("\nFree GPUs remaining: {:?}", allocator.state().free_gpus());
    println!(
        "Bandwidth still available to future jobs: {:.0} GB/s",
        scoring::preserved_bandwidth(allocator.state(), &[])
    );
}
