//! MIG-style GPU partitioning (the paper's §3.2/§3.3 extension sketch):
//! split physical GPUs into virtual slices with a [`PartitionPlan`],
//! schedule a mixed training + inference tenancy on the expanded hardware
//! graph, and compare against the unpartitioned machine.
//!
//! It applies the plan by hand and builds each server with
//! `Simulation::new`, not through `mapa::runspec::RunSpec` (whose
//! `partition` field applies a plan too): the example prints the
//! partitioned machine's slice map before it runs, so it needs the
//! machine itself, and one server under one policy needs no fleet
//! description.
//!
//! Run with: `cargo run --release --example mig_partitioning`

use mapa::prelude::*;
use mapa::sim::Simulation;

fn main() {
    let dgx = machines::dgx1_v100();
    // Split GPUs 6 and 7 into MIG slices for small inference tenants.
    let plan = PartitionPlan::new().split(6, 2).split(7, 4);
    let mig = plan.apply(&dgx);
    let map = mig.slice_map().expect("the plan splits GPUs");
    println!(
        "{}: {} virtual GPUs (GPU 6 -> slices {:?}, GPU 7 -> slices {:?})\n",
        mig.name(),
        mig.gpu_count(),
        map.vertices_of(6).collect::<Vec<_>>(),
        map.vertices_of(7).collect::<Vec<_>>(),
    );

    // A mix of one big training job and many SLO-tagged inference tenants
    // that ask for fractional GPUs (MIG slices).
    let mut jobs = vec![JobSpec::new(1, GpuDemand::Whole(4), Workload::Vgg16)
        .with_topology(AppTopology::Ring)
        .with_bandwidth_sensitive(true)
        .with_iterations(1500)];
    for id in 2..=8 {
        jobs.push(
            JobSpec::new(id, GpuDemand::Slices(1), Workload::BertServing)
                .with_iterations(600)
                .with_slo(generator::default_slo_ms(Workload::BertServing)),
        );
    }

    for (name, machine) in [("plain DGX-1V", dgx), ("DGX-1V + MIG(6:2,7:4)", mig)] {
        let report = Simulation::new(machine, Box::new(PreservePolicy)).run(&jobs);
        let train = report.records.iter().find(|r| r.job.id == 1).unwrap();
        let small_waits: Vec<f64> = report
            .records
            .iter()
            .filter(|r| r.job.id != 1)
            .map(|r| r.queue_wait_seconds)
            .collect();
        println!("== {name}");
        println!(
            "   training job: GPUs {:?}, EffBW {:.1} GB/s, exec {:.0} s",
            train.gpus, train.predicted_eff_bw, train.execution_seconds
        );
        println!(
            "   inference tenants: mean queue wait {:.0} s, makespan {:.0} s",
            small_waits.iter().sum::<f64>() / small_waits.len() as f64,
            report.makespan_seconds
        );
        println!(
            "   slo: {}/{} met ({:.0}% attainment), p95 latency {:.2} ms vs target {:.2} ms\n",
            report.slo.met,
            report.slo.jobs,
            report.slo.attainment().unwrap_or(0.0) * 100.0,
            report.slo.p95_latency_ms,
            report.slo.p95_target_ms
        );
    }
    println!(
        "MIG slices absorb the fractional tenants, so the machine fits more \
         concurrent jobs — the many-to-one mapping the paper sketches in §3.3."
    );
    println!(
        "co-residency is no longer free: the allocator charges a pressure \
         penalty for stacking tenants on one physical GPU, and weights it \
         higher for SLO-tagged jobs, so inference tenants spread out before \
         they pile up (MoCA-style interference awareness)."
    );
}
