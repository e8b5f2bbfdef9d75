//! Pricing a placement: what `Engine::start_job` writes into a
//! [`JobRecord`] — the workload's effective bandwidth, the saturating
//! microbenchmark figure and the Fig. 4 quality ratio — comes from one
//! ring packing, memoised per run by the allocation's ordered link-type
//! matrix and shared by every server, and an ideal-bandwidth table
//! memoised on the machine. Those are a cheaper route to the numbers the
//! free functions give, not different numbers: every record must equal
//! `perf::workload_effbw`, `effbw::measure` and
//! `fragmentation::allocation_quality` on its own `(server topology,
//! gpus)`, bit for bit — on a heterogeneous fleet too. And a job the
//! interconnect model cannot price is refused when it enters, not when it
//! starts.

use mapa::core::policy::PreservePolicy;
use mapa::core::{fragmentation, Capacity};
use mapa::interconnect::{effbw, rings};
use mapa::prelude::*;
use mapa::report::parse_json;
use mapa::sim::{logfile, JobRejection};
use mapa::workloads::generator::{generate_jobs, JobMixConfig};
use mapa::workloads::jobs;
use std::process::Command;

/// Server `s` of `report`'s run is `topology_of(s)`.
fn assert_records_equal_free_functions<'a>(
    report: &SimReport,
    topology_of: impl Fn(usize) -> &'a Topology,
) {
    assert!(!report.records.is_empty());
    let mut multi_gpu = 0;
    for r in &report.records {
        let topology = topology_of(r.server);
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
    let cube_mesh = machines::cube_mesh();
    let report = Simulation::new(cube_mesh.clone(), Box::new(PreservePolicy)).run(&jobs);
    assert_eq!(report.records.len(), jobs.len());
    for size in 2..=8 {
        assert!(
            report.records.iter().any(|r| r.gpus.len() == size),
            "the mix must start a {size}-GPU job"
        );
    }
    assert_records_equal_free_functions(&report, |_| &cube_mesh);
}

#[test]
fn four_shard_cluster_records_equal_the_free_functions() {
    let jobs = generator::paper_job_mix(23);
    let dgx1 = machines::dgx1_v100();
    let cluster = Cluster::homogeneous(
        dgx1.clone(),
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
    assert_records_equal_free_functions(&report, |_| &dgx1);
}

/// One run's packings are shared by every server, keyed by link pattern
/// alone, so the key must keep the NVLink generation: a P100 square of
/// NVLink-v1 bricks (GPUs 0, 2, 6, 4) has the pattern, generation aside, of
/// a cube-mesh square of NVLink-v2 bricks through the board bridges (0, 1,
/// 9, 8), and a generation-blind key would price one at the other's
/// bandwidth. The V100 is the P100's adjacency with some links doubled.
#[test]
fn ring_memo_on_a_heterogeneous_fleet_records_equal_the_free_functions() {
    let fleet = [
        machines::dgx1_v100(),
        machines::dgx1_p100(),
        machines::cube_mesh(),
    ];
    let jobs = generate_jobs(
        &JobMixConfig {
            job_count: 300,
            gpus_max: 8,
            ..JobMixConfig::default()
        },
        1,
    );
    let cluster = Cluster::new(
        fleet.to_vec(),
        || Box::new(PreservePolicy),
        Box::new(LeastLoadedPolicy),
    );
    let report = Engine::over(cluster).run(&jobs);
    assert_eq!(report.records.len(), jobs.len());
    // The run must start two allocations whose link patterns differ only
    // in NVLink generation, and whose prices differ.
    let priced: Vec<(Vec<LinkType>, f64)> = report
        .records
        .iter()
        .filter(|r| r.gpus.len() >= 3)
        .map(|r| {
            let machine = &fleet[r.server];
            let generation_blind = r
                .gpus
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| r.gpus[i + 1..].iter().map(move |&b| (a, b)))
                .map(|(a, b)| match machine.link_type(a, b) {
                    LinkType::SingleNvLink1 => LinkType::SingleNvLink2,
                    link => link,
                })
                .collect();
            (generation_blind, effbw::measure(machine, &r.gpus))
        })
        .collect();
    assert!(
        priced
            .iter()
            .any(|(p, bw)| priced.iter().any(|(q, other)| p == q && bw != other)),
        "the run must tell the NVLink generations apart"
    );
    assert_records_equal_free_functions(&report, |server| &fleet[server]);
}

fn twelve_gpu_job() -> JobSpec {
    JobSpec::new(1, GpuDemand::Whole(12), Workload::ResNet50).with_iterations(100)
}

#[test]
fn a_job_above_the_ring_limit_is_rejected_by_name() {
    let dgx2 = Capacity::of(&machines::dgx2());
    let dgx1 = Capacity::of(&machines::dgx1_v100());
    let rejection = JobRejection::check(&twelve_gpu_job(), dgx2).unwrap_err();
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
    assert_eq!(JobRejection::check(&ten, dgx2), Ok(()));
    assert!(matches!(
        JobRejection::check(&twelve_gpu_job(), dgx1),
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

const SCHED: &str = env!("CARGO_BIN_EXE_mapa-sched");
const AGENT: &str = env!("CARGO_BIN_EXE_mapa-agent");

/// Runs `exe` with `args` and expects a polite refusal: exit status 1, an
/// `error:` line carrying `message`, no panic — and the usage text only
/// when the command line itself was refused (`usage`), not when a run
/// fails on its input.
fn assert_cli_refuses(exe: &str, args: &[&str], message: &str, usage: bool) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let error_line = stderr.lines().find(|l| l.starts_with("error: "));
    assert!(
        error_line.is_some_and(|l| l.contains(message)),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.contains("usage:"), usage, "{args:?}: {stderr}");
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
    let twenty_jobs = write(
        "twenty-jobs.txt",
        &jobs::write_job_file(&generator::paper_job_mix(7)[..20]),
    );
    let simulate = ["simulate", "--machine", "dgx-2", "--policy", "baseline"];
    let two = [&simulate[..], &["--jobs", &two_gpu_job]].concat();
    let with = |extra: &[&'static str]| [&two[..], extra].concat();
    let campaign = |machine, grid| vec!["campaign", "--machine", machine, "--grid", grid];

    let unknown_policy = "unknown allocation policy 'nope' (choose from: baseline | topo-aware \
                          | greedy | preserve | effbw-greedy)";

    // Runs that fail on their input: the message alone, no usage text.
    let refused_runs = [
        // A job the interconnect model cannot price.
        (
            [&simulate[..], &["--jobs", &twelve_gpu_job]].concat(),
            "job 1 requests 12 GPUs, but the interconnect model packs rings onto at most 10 GPUs",
        ),
        // A degenerate arrival process (used to panic in `ArrivalClock::new`).
        (
            with(&["--poisson", "0"]),
            "poisson mean gap must be positive",
        ),
        (
            with(&["--poisson", "-5"]),
            "poisson mean gap must be positive",
        ),
        (
            with(&["--poisson", "nan"]),
            "poisson mean gap must be positive",
        ),
        // A burst spacing with no bursts to space (used to be ignored).
        (with(&["--burst-gap", "5"]), "one arrival process at most"),
        (
            with(&["--servers", "two"]),
            "--servers: 'two' is not a valid value",
        ),
        // Every by-name flag lists what it accepts — `--policy` used not to.
        (
            vec![
                "simulate",
                "--machine",
                "dgx-2",
                "--policy",
                "nope",
                "--jobs",
                &two_gpu_job,
            ],
            unknown_policy,
        ),
        // The default mix draws 5-GPU jobs: a campaign on a 4-GPU machine is
        // refused before any cell runs (used to panic in a pool worker).
        (
            campaign(&four_gpu_machine, "shards=1;jobs=20"),
            "offers 4 whole GPUs, but the mix draws whole-GPU jobs up to 5",
        ),
        // A campaign of empty replications (used to print all-zero cells).
        (
            campaign("dgx-1-v100", "jobs=0"),
            "job counts must be at least 1",
        ),
        // Every run dispatches sequentially: no dispatch axis.
        (
            campaign("dgx-1-v100", "dispatch=parallel"),
            "unknown grid axis 'dispatch' (choose from: server-policies | alloc-policies | \
             shards | jobs)",
        ),
        // `--only` lists the artefact ids like every other by-name flag.
        (
            vec!["reproduce", "--only", "nope"],
            "unknown artefact 'nope' (choose from: fig2a | fig2b | fig4 | ",
        ),
        // A matrix missing its last row (used to read as a 3-GPU machine).
        (
            vec![
                "topo",
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/tests/fixtures/nvidia-smi-topo-truncated.txt"
                ),
            ],
            "header lists 4 GPUs but 3 GPU rows follow",
        ),
    ];
    for (args, message) in &refused_runs {
        assert_cli_refuses(SCHED, args, message, false);
    }
    // The agent refuses an unknown policy in the same words.
    let state = tmp.join("unknown-policy");
    let state = state.to_str().expect("utf-8 tmpdir");
    let allocate = ["allocate", "--gpus", "2", "--policy", "nope", "--probe"];
    let allocate = [&allocate[..], &["fake:dgx-1-v100", "--state-dir", state]].concat();
    assert_cli_refuses(AGENT, &allocate, unknown_policy, false);
    // Command lines the flag tables refuse, usage attached — each used to be
    // accepted and the stray words ignored: a flag of another subcommand,
    // trailing arguments.
    let refused_command_lines: [(&str, &[&str], &str); 5] = [
        (
            AGENT,
            &["release", "--lease", "1", "--gpus", "3"],
            "release: unknown flag '--gpus'",
        ),
        (
            AGENT,
            &["probe", "--lease", "4"],
            "probe: unknown flag '--lease'",
        ),
        (
            SCHED,
            &["topo", "dgx-2", "extra", "junk"],
            "topo: unexpected argument 'extra'",
        ),
        (
            SCHED,
            &["machines", "--bogus"],
            "machines: unknown flag '--bogus'",
        ),
        // Every run dispatches sequentially: no dispatch flag.
        (
            SCHED,
            &[
                "simulate",
                "--machine",
                "dgx-2",
                "--policy",
                "baseline",
                "--jobs",
                "jobs.txt",
                "--dispatch",
                "parallel",
            ],
            "simulate: unknown flag '--dispatch'",
        ),
    ];
    for (exe, args, message) in refused_command_lines {
        assert_cli_refuses(exe, args, message, true);
    }

    // And the success path: what `simulate` prints *is* the Fig. 14 log.
    // Its stdout reads back through `parse_log` to the schedule the library
    // computes for the same job file, and agrees with the `--json` artifact.
    let json = tmp.join("twenty-jobs.json");
    let json = json.to_str().expect("utf-8 tmpdir");
    let out = Command::new(SCHED)
        .args([
            "simulate",
            "--machine",
            "dgx-1-v100",
            "--policy",
            "preserve",
        ])
        .args(["--jobs", &twenty_jobs, "--json", json])
        .output()
        .expect("mapa-sched runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 log");
    assert!(stdout.contains(logfile::LOG_HEADER), "{stdout}");
    let entries = logfile::parse_log(&stdout).expect("stdout is a log file");
    let expected = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
        .run(&generator::paper_job_mix(7)[..20]);
    assert_eq!(entries.len(), 20);
    for (entry, record) in entries.iter().zip(&expected.records) {
        assert_eq!((entry.id, &entry.gpus), (record.job.id, &record.gpus));
    }
    let artifact = parse_json(&std::fs::read_to_string(json).expect("artifact written")).unwrap();
    assert_eq!(artifact.get("jobs").unwrap().as_f64(), Some(20.0));
    let makespan = artifact.get("makespan_seconds").unwrap().as_f64().unwrap();
    assert!((makespan - expected.makespan_seconds).abs() < 1e-3);

    // `reproduce` prints the table under its fixed header, no band broken.
    let out = Command::new(SCHED)
        .args(["reproduce", "--only", "table1", "--only", "fig2b"])
        .output()
        .expect("mapa-sched runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let mut lines = stdout.lines();
    let header = "artefact,series,quantity,paper,ours,lo,hi,status";
    assert_eq!(lines.next(), Some(header));
    assert_eq!(lines.clone().count(), 4 + 12, "{stdout}");
    for line in lines {
        assert_eq!(line.split(',').count(), 8, "{line}");
        assert!(!line.ends_with("FAIL"), "{line}");
    }

    // `topo FILE` reads `nvidia-smi topo -m` output as the tool prints it
    // (affinity and NIC columns, a NIC row, the legend) — it used to count
    // the header and legend lines as GPU rows.
    let smi_output = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/nvidia-smi-topo.txt"
    );
    let out = Command::new(SCHED)
        .args(["topo", smi_output])
        .output()
        .expect("mapa-sched runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 matrix");
    assert!(
        out.status.success() && stdout.contains("— 3 GPUs"),
        "{stdout}"
    );
    assert!(stdout.contains("GPU1    NV2     X   NV1"), "{stdout}");

    for file in [
        twelve_gpu_job,
        two_gpu_job,
        four_gpu_machine,
        twenty_jobs,
        json.to_string(),
    ] {
        std::fs::remove_file(file).expect("temp file removable");
    }
}
