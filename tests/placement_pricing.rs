//! Pricing a placement: what `Engine::start_job` writes into a
//! [`JobRecord`] — the workload's effective bandwidth, the saturating
//! microbenchmark figure and the Fig. 4 quality ratio — comes from one
//! ring packing and a per-server ideal-bandwidth table. Those are a cheaper
//! route to the numbers the free functions give, not different numbers:
//! every record must equal `perf::workload_effbw`, `effbw::measure` and
//! `fragmentation::allocation_quality` on its `(server topology, gpus)`,
//! bit for bit. And a job the interconnect model cannot price is refused
//! when it enters, not when it starts.

use mapa::core::fragmentation;
use mapa::core::policy::PreservePolicy;
use mapa::interconnect::{effbw, rings};
use mapa::prelude::*;
use mapa::sim::JobRejection;
use mapa::workloads::generator::{generate_jobs, JobMixConfig};
use std::process::Command;

/// Every server of `report`'s run is a `topology`.
fn assert_records_equal_free_functions(report: &SimReport, topology: &Topology) {
    assert!(!report.records.is_empty());
    let mut multi_gpu = 0;
    for r in &report.records {
        let context = format!("job {} on server {} gpus {:?}", r.job.id, r.server, r.gpus);
        assert_eq!(
            r.workload_eff_bw.to_bits(),
            perf::workload_effbw(r.job.workload, topology, &r.gpus).to_bits(),
            "workload_eff_bw: {context}"
        );
        assert_eq!(
            r.measured_eff_bw.to_bits(),
            effbw::measure(topology, &r.gpus).to_bits(),
            "measured_eff_bw: {context}"
        );
        assert_eq!(
            r.allocation_quality.to_bits(),
            fragmentation::allocation_quality(topology, &r.gpus).to_bits(),
            "allocation_quality: {context}"
        );
        multi_gpu += usize::from(r.gpus.len() >= 2);
    }
    assert!(multi_gpu > 0, "the run must price real allocations");
}

#[test]
fn cube_mesh_preserve_records_equal_the_free_functions() {
    let jobs = generate_jobs(
        &JobMixConfig {
            job_count: 240,
            gpus_max: 8,
            ..JobMixConfig::default()
        },
        17,
    );
    let report = Simulation::new(machines::cube_mesh(), Box::new(PreservePolicy)).run(&jobs);
    assert_eq!(report.records.len(), jobs.len());
    for size in 2..=8 {
        assert!(
            report.records.iter().any(|r| r.gpus.len() == size),
            "the mix must start a {size}-GPU job"
        );
    }
    assert_records_equal_free_functions(&report, &machines::cube_mesh());
}

#[test]
fn four_shard_cluster_records_equal_the_free_functions() {
    let jobs = generator::paper_job_mix(23);
    let cluster = Cluster::homogeneous(
        machines::dgx1_v100(),
        4,
        || Box::new(PreservePolicy),
        Box::new(LeastLoadedPolicy),
    );
    let report = Engine::over(cluster).run(&jobs);
    assert_eq!(report.records.len(), jobs.len());
    for server in 0..4 {
        assert!(
            report.records.iter().any(|r| r.server == server),
            "every shard's table must be exercised"
        );
    }
    assert_records_equal_free_functions(&report, &machines::dgx1_v100());
}

fn twelve_gpu_job() -> JobSpec {
    JobSpec::new(1, GpuDemand::Whole(12), Workload::ResNet50).with_iterations(100)
}

#[test]
fn a_job_above_the_ring_limit_is_rejected_by_name() {
    let rejection = JobRejection::check(&twelve_gpu_job(), 16).unwrap_err();
    assert_eq!(
        rejection,
        JobRejection::RingLimit {
            job: 1,
            requested: 12
        }
    );
    let message = rejection.to_string();
    assert!(message.contains("job 1"), "{message}");
    assert!(
        message.contains(&format!("at most {} GPUs", rings::MAX_RING_GPUS)),
        "{message}"
    );
    // The limit itself is fine, and the server-size check still comes first.
    let ten = JobSpec::new(2, GpuDemand::Whole(rings::MAX_RING_GPUS), Workload::Gmm);
    assert_eq!(JobRejection::check(&ten, 16), Ok(()));
    assert!(matches!(
        JobRejection::check(&twelve_gpu_job(), 8),
        Err(JobRejection::ServerSize { max_gpus: 8, .. })
    ));
}

#[test]
#[should_panic(expected = "job 1 requests 12 GPUs, but the interconnect model")]
fn the_engine_refuses_an_unpriceable_job_on_arrival() {
    // Before the check existed the job was placed and the panic came out of
    // the ring packer; now the arrival itself is refused.
    let _ = Simulation::new(machines::dgx2(), Box::new(BaselinePolicy)).run(&[twelve_gpu_job()]);
}

/// Runs `mapa-sched` with `args` and expects a polite refusal: exit status
/// 1, an `error:` line carrying `message`, no panic.
fn assert_cli_refuses(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mapa-sched"))
        .args(args)
        .output()
        .expect("mapa-sched runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let error_line = stderr.lines().find(|l| l.starts_with("error: "));
    assert!(
        error_line.is_some_and(|l| l.contains(message)),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn the_cli_reports_bad_input_instead_of_panicking() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: &str| {
        let path = tmp.join(name);
        std::fs::write(&path, text).expect("target tmpdir is writable");
        path.into_os_string().into_string().expect("utf-8 tmpdir")
    };
    let header = "ID, NumGPUs, Topology, BW Sensitive, Workload, Iterations, Priority\n";
    let twelve_gpu_job = write(
        "twelve-gpu-job.txt",
        &format!("{header}1, 12, Ring, True, resnet-50, 100, 0\n"),
    );
    let two_gpu_job = write(
        "two-gpu-job.txt",
        &format!("{header}1, 2, Ring, True, resnet-50, 100, 0\n"),
    );
    let four_gpu_machine = write(
        "four-gpu-machine.txt",
        "       GPU0  GPU1  GPU2  GPU3\n\
         GPU0    X    NV2   NV1   SYS\n\
         GPU1   NV2    X    SYS   NV1\n\
         GPU2   NV1   SYS    X    NV2\n\
         GPU3   SYS   NV1   NV2    X\n",
    );
    let simulate = ["simulate", "--machine", "dgx-2", "--policy", "baseline"];

    // A job the interconnect model cannot price.
    assert_cli_refuses(
        &[&simulate[..], &["--jobs", &twelve_gpu_job]].concat(),
        "job 1 requests 12 GPUs, but the interconnect model packs rings onto at most 10 GPUs",
    );
    // A degenerate arrival process (used to panic in `ArrivalClock::new`).
    for gap in ["0", "-5", "nan"] {
        assert_cli_refuses(
            &[&simulate[..], &["--jobs", &two_gpu_job, "--poisson", gap]].concat(),
            "poisson mean gap must be positive",
        );
    }
    // The default mix draws 5-GPU jobs: a campaign on a 4-GPU machine is
    // refused before any cell runs (used to panic in a pool worker).
    let grid = ["--grid", "shards=1;jobs=20", "--replications", "1"];
    assert_cli_refuses(
        &[&["campaign", "--machine", &four_gpu_machine], &grid[..]].concat(),
        "offers 4 whole GPUs, but the mix draws whole-GPU jobs up to 5",
    );

    for file in [twelve_gpu_job, two_gpu_job, four_gpu_machine] {
        std::fs::remove_file(file).expect("temp file removable");
    }
}
