//! End-to-end integration tests: the full MAPA pipeline (application graph
//! → matching → scoring → policy → allocation → simulation) across crates.

use mapa::prelude::*;
use mapa::sim::SimConfig;
use mapa::workloads::jobs;

fn job(id: u64, n: usize, workload: Workload) -> JobSpec {
    JobSpec::new(id, GpuDemand::Whole(n), workload)
        .with_topology(AppTopology::Ring)
        .with_iterations(200)
}

#[test]
fn paper_worked_example_end_to_end() {
    // §2.2's fragmentation example, reproduced through the public API:
    // allocate GPUs so the fragmented {0,1,4} and ideal {0,2,3} triples
    // score exactly as the paper computes.
    let dgx = machines::dgx1_v100();
    let allocator = MapaAllocator::new(dgx.clone(), Box::new(PreservePolicy));
    let spec = JobSpec::new(1, GpuDemand::Whole(3), Workload::Vgg16)
        .with_topology(AppTopology::AllToAll)
        .with_bandwidth_sensitive(true)
        .with_iterations(1);
    let frag = allocator.score_allocation(&spec, &[0, 1, 4]);
    let ideal = allocator.score_allocation(&spec, &[0, 2, 3]);
    assert_eq!(
        frag.aggregated_bw, 87.0,
        "paper: fragmented AggBW = 87 GB/s"
    );
    assert_eq!(ideal.aggregated_bw, 125.0, "paper: ideal AggBW = 125 GB/s");
    assert!(ideal.predicted_eff_bw > frag.predicted_eff_bw);
}

#[test]
fn full_pipeline_from_job_file_text() {
    // Job file text (the Fig. 14 input format) → parse → simulate → report.
    let text = "ID, NumGPUs, Topology, BW Sensitive, Workload, Iterations\n\
                1, 3, Ring, True, vgg-16, 300\n\
                2, 2, Ring, False, googlenet, 300\n\
                3, 4, Ring, True, resnet-50, 300\n\
                4, 1, Ring, False, gmm, 300\n";
    let parsed = jobs::parse_job_file(text).expect("valid job file");
    assert_eq!(parsed.len(), 4);
    let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&parsed);
    assert_eq!(report.records.len(), 4);
    assert!(report.makespan_seconds > 0.0);
    // The 1-GPU GMM job has no communication record.
    let gmm = report.records.iter().find(|r| r.job.id == 4).unwrap();
    assert_eq!(gmm.measured_eff_bw, 0.0);
    assert_eq!(gmm.gpus.len(), 1);
}

#[test]
fn allocation_respects_sensitivity_routing() {
    // Sensitive jobs get fast links; insensitive jobs yield to them.
    let mut allocator = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
    let insensitive = job(1, 2, Workload::GoogleNet);
    let sensitive = job(2, 2, Workload::Vgg16);
    let o1 = allocator.try_allocate(&insensitive).unwrap().unwrap();
    let o2 = allocator.try_allocate(&sensitive).unwrap().unwrap();
    // The sensitive job must still land on a double-NVLink pair.
    assert_eq!(
        o2.score.link_mix.double_nvlink, 1,
        "sensitive pair should be double NVLink, got {:?} after insensitive {:?}",
        o2.gpus, o1.gpus
    );
}

#[test]
fn deterministic_simulation_across_runs() {
    let jobs: Vec<JobSpec> = generator::paper_job_mix(5)[..80].to_vec();
    let run = |_: ()| {
        Simulation::new(machines::dgx1_v100(), Box::new(GreedyPolicy))
            .run(&jobs)
            .records
            .iter()
            .map(|r| (r.job.id, r.gpus.clone(), r.finished_at.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(()),
        run(()),
        "same inputs must give identical schedules"
    );
}

#[test]
fn simulation_conserves_jobs_across_policies_and_machines() {
    let jobs: Vec<JobSpec> = generator::generate_jobs(
        &generator::JobMixConfig {
            job_count: 40,
            ..Default::default()
        },
        9,
    );
    let mut shared = Shared::new(std::sync::Arc::new(WorkerPool::new(1)));
    for machine in [
        machines::dgx1_v100(),
        machines::dgx1_p100(),
        machines::torus_2d(),
    ] {
        for policy in ALLOCATION_POLICY_NAMES {
            let submissions = jobs.iter().cloned().map(Submission::Job);
            let rep = RunSpec::new(machine.clone(), policy)
                .run(&mut shared, SimConfig::default(), submissions)
                .expect("a built-in policy");
            assert_eq!(
                rep.records.len(),
                jobs.len(),
                "{}/{}",
                machine.name(),
                rep.policy_name
            );
            let mut ids: Vec<u64> = rep.records.iter().map(|r| r.job.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (1..=40).collect::<Vec<u64>>());
        }
    }
}

#[test]
fn summit_six_gpu_machine_works_end_to_end() {
    // Jobs capped at 5 GPUs fit Summit's 6; the socket structure steers
    // topo-aware placements.
    let jobs: Vec<JobSpec> = (1..=10)
        .map(|i| job(i, (i as usize % 3) + 1, Workload::ResNet50))
        .collect();
    let report = Simulation::new(machines::summit(), Box::new(TopoAwarePolicy)).run(&jobs);
    assert_eq!(report.records.len(), 10);
    // 3-GPU jobs on Summit should sit inside one socket (all-double).
    for r in &report.records {
        if r.job.num_gpus() == 3 && r.gpus == vec![0, 1, 2] {
            assert!(
                r.measured_eff_bw > 40.0,
                "intra-socket triple is all double NVLink"
            );
        }
    }
}

#[test]
fn backfill_never_loses_jobs() {
    let jobs: Vec<JobSpec> = generator::paper_job_mix(17)[..60].to_vec();
    let report = Simulation::new(machines::dgx1_v100(), Box::new(BaselinePolicy))
        .with_config(SimConfig {
            strict_fifo: false,
            ..SimConfig::default()
        })
        .run(&jobs);
    assert_eq!(report.records.len(), 60);
}

#[test]
fn effbw_model_matches_microbenchmark_ordering_end_to_end() {
    // The regression the allocator fits must rank allocations the same way
    // the microbenchmark does for clearly-separated cases.
    let dgx = machines::dgx1_v100();
    let allocator = MapaAllocator::new(dgx.clone(), Box::new(PreservePolicy));
    let spec = job(1, 3, Workload::Vgg16);
    let good = allocator
        .score_allocation(&spec, &[0, 2, 3])
        .predicted_eff_bw;
    let bad = allocator
        .score_allocation(&spec, &[0, 1, 4])
        .predicted_eff_bw;
    let good_measured = mapa::interconnect::effbw::measure(&dgx, &[0, 2, 3]);
    let bad_measured = mapa::interconnect::effbw::measure(&dgx, &[0, 1, 4]);
    assert!(good > bad);
    assert!(good_measured > bad_measured);
}
