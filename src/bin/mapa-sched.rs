//! `mapa-sched` — command-line front end for the MAPA allocator/simulator.
//!
//! ```text
//! mapa-sched machines
//! mapa-sched topo <machine>                     # matrix + DOT
//! mapa-sched generate --count 300 --seed 42     # emit a job file (CSV)
//!                     [--inference-mix FRACTION] [--slices-max K] [--slo-ms MS]
//! mapa-sched simulate --machine dgx-1-v100 --policy preserve \
//!                     --jobs jobs.csv [--backfill] [--no-cache] [--poisson GAP --seed S]
//! mapa-sched simulate --machine dgx-1-v100 --servers 4 --server-policy least-loaded \
//!                     --policy preserve --jobs jobs.csv \
//!                     [--dispatch <mode>] [--migration <name>] [--shard-queue-depth N] \
//!                     [--preemption <name>] [--priorities N] [--gang-size K] \
//!                     [--partition GPU:SLICES,...[;degraded]] \
//!                     [--clusters N] [--federation-policy <name>] \
//!                     [--tenants T] [--quota-gpus G] \
//!                     [--json report.json]
//! mapa-sched campaign --machine dgx-1-v100 \
//!                     --grid "alloc-policies=baseline,preserve;shards=2,4;jobs=100" \
//!                     --replications 10 [--poisson GAP1,GAP2,... | batch] \
//!                     [--partition SPEC-or-none]... [--inference-mix FRACTION] \
//!                     [--json campaign.json]
//! ```
//!
//! A topology can also be given as a file containing `nvidia-smi topo -m`
//! output, which is how MAPA would attach to a real machine. With
//! `--servers N` (or an explicit `--server-policy`) the job file is
//! replayed against a sharded cluster of N copies of the machine: a
//! server-selection policy picks the shard, the allocation policy picks
//! the GPUs, and jobs stream in through the bounded ingestion channel.
//! `--priorities N` synthesizes N tenant classes (`priority = id % N`) on
//! top of the job file's optional `Priority` column, `--preemption` lets
//! high-priority arrivals evict lower-priority running jobs (requeued
//! with a checkpoint/restore penalty; see `--preemption-penalty`), and
//! `--gang-size K` groups every K consecutive jobs into a co-scheduled
//! gang (all members start at the same tick or none do). `--partition`
//! applies a MIG-style plan to every server (slice tenants from
//! `generate --inference-mix` can land on slices; whole-GPU jobs
//! cannot), and the summary/trailer/JSON then carry SLO-attainment
//! counters. `--clusters N` federates N identical clusters behind a
//! `--federation-policy` router; `--tenants T` tags jobs with tenant
//! ids (`id % T`) and `--quota-gpus G` caps every tenant at G concurrent
//! accelerator units, with quota-held work re-admitted in dominant-
//! resource-fair order. The full semantics is documented in
//! `docs/SCHEDULING.md`.

use mapa::cluster::{
    dispatch_mode_by_name, federation_policy_by_name, migration_policy_by_name,
    server_policy_by_name, Cluster, DispatchMode, Federation, MigrationPolicy, SubmissionFeed,
    DISPATCH_MODE_NAMES, FEDERATION_POLICY_NAMES, MIGRATION_POLICY_NAMES, SERVER_POLICY_NAMES,
};
use mapa::core::policy::AllocationPolicy;
use mapa::core::{preemption_policy_by_name, PreemptionPolicy, PREEMPTION_POLICY_NAMES};
use mapa::prelude::*;
use mapa::sim::{ArrivalProcess, JobRecord, JobRejection, SimConfig, Submission};
use mapa::topology::parse::{parse_topology_matrix, to_topology_matrix, NvlinkGeneration};
use mapa::workloads::jobs;
use mapa::workloads::JobGroup;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  mapa-sched machines
  mapa-sched topo <machine-or-matrix-file>
  mapa-sched generate [--count N] [--seed S]
                      [--inference-mix FRACTION] [--slices-max K] [--slo-ms MS]
  mapa-sched simulate --machine <name-or-file> --policy <name> --jobs <file>
                      [--partition GPU:SLICES,GPU:SLICES,...[;degraded]]
                      [--servers N] [--server-policy <name>]
                      [--dispatch <mode>] [--migration <name>] [--shard-queue-depth N]
                      [--preemption <name>] [--preemption-penalty SECONDS]
                      [--priorities N] [--gang-size K]
                      [--clusters N] [--federation-policy <name>]
                      [--tenants T] [--quota-gpus G]
                      [--backfill] [--no-cache] [--seed S]
                      [--poisson MEAN_GAP | --burst SIZE [--burst-gap SECONDS]]
                      [--json <report-file>]
  mapa-sched campaign --machine <name-or-file>
                      [--grid \"axis=v1,v2;axis=v1;...\"] [--replications N]
                      [--base-seed S] [--poisson GAP1,GAP2,... | batch]
                      [--partition SPEC-or-none]... [--inference-mix FRACTION]
                      [--shard-queue-depth N] [--threads N] [--json <report-file>]
                      (grid axes: server-policies, alloc-policies, shards, jobs,
                       dispatch — each a comma list; --poisson is the arrival-
                       intensity axis (comma list, `batch` = all at t=0) and each
                       --partition adds a MIG-plan axis value (`none` = whole
                       GPUs); every cell of the cross-product runs N
                       replications under common random numbers)

policies:            baseline | topo-aware | greedy | preserve | effbw-greedy
server policies:     round-robin | least-loaded | best-score | pack-first
dispatch modes:      sequential | parallel
migration policies:  none | steal-on-idle | rebalance-on-release
preemption policies: none | priority-evict | sensitivity-aware-evict
federation policies: spillover | round-robin | least-loaded
(--shard-queue-depth or a non-none --migration switches the cluster from
the global FIFO queue to bounded per-shard queues; --priorities N assigns
tenant classes id%N; --gang-size K co-schedules every K consecutive jobs;
--clusters N federates N identical clusters of --servers shards each,
--tenants T assigns tenant ids id%T and --quota-gpus G caps each tenant
at G concurrent accelerator units (DRF re-admission) — see
docs/SCHEDULING.md for the full semantics)";

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("machines") => cmd_machines(),
        Some("topo") => cmd_topo(args.get(1).ok_or("topo needs a machine name or file")?),
        Some("generate") => cmd_generate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".to_string()),
    }
}

fn cmd_machines() -> Result<(), String> {
    println!(
        "{:<14} {:>6} {:>8} {:>9}",
        "name", "GPUs", "NVLinks", "sockets"
    );
    for m in machines::all_machines() {
        println!(
            "{:<14} {:>6} {:>8} {:>9}",
            m.name(),
            m.gpu_count(),
            m.link_graph().edge_count(),
            m.socket_count()
        );
    }
    Ok(())
}

/// Resolves a machine argument: a built-in name (case/punctuation
/// insensitive) or a path to an `nvidia-smi topo -m` matrix file.
fn resolve_machine(arg: &str) -> Result<Topology, String> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase()
    };
    if let Some(m) = machines::all_machines()
        .into_iter()
        .find(|m| norm(m.name()) == norm(arg))
    {
        return Ok(m);
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("'{arg}' is not a built-in machine and not a readable file: {e}"))?;
    parse_topology_matrix(&text, arg, NvlinkGeneration::V2)
        .map_err(|e| format!("failed to parse '{arg}' as a topology matrix: {e}"))
}

fn cmd_topo(arg: &str) -> Result<(), String> {
    let m = resolve_machine(arg)?;
    println!("# {} — {} GPUs\n", m.name(), m.gpu_count());
    println!("{}", to_topology_matrix(&m));
    println!("{}", m.to_dot());
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut count = 300usize;
    let mut seed = 42u64;
    let mut inference_mix = 0.0f64;
    let mut slices_max = 2usize;
    let mut slo_ms: Option<f64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--count" => count = parse_flag(&mut it, "--count")?,
            "--seed" => seed = parse_flag(&mut it, "--seed")?,
            "--inference-mix" => inference_mix = parse_flag(&mut it, "--inference-mix")?,
            "--slices-max" => slices_max = parse_flag(&mut it, "--slices-max")?,
            "--slo-ms" => slo_ms = Some(parse_flag(&mut it, "--slo-ms")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !(0.0..=1.0).contains(&inference_mix) {
        return Err("--inference-mix must be a fraction in [0, 1]".to_string());
    }
    if inference_mix > 0.0 && !(1..=7).contains(&slices_max) {
        return Err("--slices-max must be in 1..=7 (MIG's hardware limit)".to_string());
    }
    if let Some(ms) = slo_ms {
        if !(ms > 0.0 && ms.is_finite()) {
            return Err("--slo-ms must be a positive number of milliseconds".to_string());
        }
    }
    let cfg = generator::JobMixConfig {
        job_count: count,
        inference_fraction: inference_mix,
        inference_slices_max: slices_max,
        inference_slo_ms: slo_ms,
        ..Default::default()
    };
    print!(
        "{}",
        jobs::write_job_file(&generator::generate_jobs(&cfg, seed))
    );
    Ok(())
}

fn resolve_policy(name: &str) -> Result<Box<dyn AllocationPolicy>, String> {
    allocation_policy_by_name(name).ok_or_else(|| format!("unknown policy '{name}'"))
}

fn parse_flag<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut machine_arg: Option<String> = None;
    let mut partition_arg: Option<String> = None;
    let mut policy_arg: Option<String> = None;
    let mut jobs_file: Option<String> = None;
    let mut backfill = false;
    let mut cached = true;
    let mut poisson: Option<f64> = None;
    let mut burst: Option<usize> = None;
    let mut burst_gap = 300.0f64;
    let mut seed = 0u64;
    let mut servers = 1usize;
    let mut server_policy_arg: Option<String> = None;
    let mut dispatch_arg: Option<String> = None;
    let mut migration_arg: Option<String> = None;
    let mut queue_depth: Option<usize> = None;
    let mut json_file: Option<String> = None;
    let mut preemption_arg: Option<String> = None;
    let mut preemption_penalty: Option<f64> = None;
    let mut priorities: Option<u8> = None;
    let mut gang_size: Option<usize> = None;
    let mut clusters = 1usize;
    let mut federation_policy_arg: Option<String> = None;
    let mut tenants: Option<u64> = None;
    let mut quota_gpus: Option<usize> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--machine" => machine_arg = Some(parse_flag(&mut it, "--machine")?),
            "--partition" => partition_arg = Some(parse_flag(&mut it, "--partition")?),
            "--policy" => policy_arg = Some(parse_flag(&mut it, "--policy")?),
            "--jobs" => jobs_file = Some(parse_flag(&mut it, "--jobs")?),
            "--backfill" => backfill = true,
            "--no-cache" => cached = false,
            "--poisson" => poisson = Some(parse_flag(&mut it, "--poisson")?),
            "--burst" => burst = Some(parse_flag(&mut it, "--burst")?),
            "--burst-gap" => burst_gap = parse_flag(&mut it, "--burst-gap")?,
            "--seed" => seed = parse_flag(&mut it, "--seed")?,
            "--servers" => servers = parse_flag(&mut it, "--servers")?,
            "--server-policy" => server_policy_arg = Some(parse_flag(&mut it, "--server-policy")?),
            "--dispatch" => dispatch_arg = Some(parse_flag(&mut it, "--dispatch")?),
            "--migration" => migration_arg = Some(parse_flag(&mut it, "--migration")?),
            "--shard-queue-depth" => {
                queue_depth = Some(parse_flag(&mut it, "--shard-queue-depth")?)
            }
            "--json" => json_file = Some(parse_flag(&mut it, "--json")?),
            "--preemption" => preemption_arg = Some(parse_flag(&mut it, "--preemption")?),
            "--preemption-penalty" => {
                preemption_penalty = Some(parse_flag(&mut it, "--preemption-penalty")?)
            }
            "--priorities" => priorities = Some(parse_flag(&mut it, "--priorities")?),
            "--gang-size" => gang_size = Some(parse_flag(&mut it, "--gang-size")?),
            "--clusters" => clusters = parse_flag(&mut it, "--clusters")?,
            "--federation-policy" => {
                federation_policy_arg = Some(parse_flag(&mut it, "--federation-policy")?)
            }
            "--tenants" => tenants = Some(parse_flag(&mut it, "--tenants")?),
            "--quota-gpus" => quota_gpus = Some(parse_flag(&mut it, "--quota-gpus")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    if servers == 0 {
        return Err("--servers must be at least 1".to_string());
    }
    if clusters == 0 {
        return Err("--clusters must be at least 1".to_string());
    }
    // Any federation-layer flag implies the federated path (a 1-cluster
    // federation is valid — quotas and tenant accounting still apply).
    let federated = clusters > 1 || federation_policy_arg.is_some() || quota_gpus.is_some();
    if let Some(0) = quota_gpus {
        return Err("--quota-gpus must be at least 1".to_string());
    }
    let machine = resolve_machine(&machine_arg.ok_or("--machine is required")?)?;
    // A --partition plan turns the machine into its MIG-virtualized
    // counterpart before anything downstream sees it: slices become
    // first-class vertices, and the slice map rides inside the topology.
    let machine = match partition_arg.as_deref() {
        None => machine,
        Some(spec) => {
            let plan =
                PartitionPlan::parse(spec).map_err(|e| format!("bad --partition plan: {e}"))?;
            if plan.is_empty() {
                return Err("--partition needs at least one gpu:slices split".to_string());
            }
            if let Some((gpu, _)) = plan.splits().find(|&(gpu, _)| gpu >= machine.gpu_count()) {
                return Err(format!(
                    "--partition splits GPU {gpu}, but {} has only {} GPUs",
                    machine.name(),
                    machine.gpu_count()
                ));
            }
            plan.apply(&machine).into_topology()
        }
    };
    let policy_name = policy_arg.ok_or("--policy is required")?;
    let jobs_text = std::fs::read_to_string(jobs_file.as_deref().ok_or("--jobs is required")?)
        .map_err(|e| format!("cannot read jobs file: {e}"))?;
    let mut job_list =
        jobs::parse_job_file(&jobs_text).map_err(|e| format!("bad job file: {e}"))?;
    // Whole-GPU jobs never land on slice vertices, so on a partitioned
    // machine they must fit the *whole-GPU pool*, not the vertex count.
    let whole_pool = match machine.slice_map() {
        None => machine.gpu_count(),
        Some(map) => (0..map.vertex_count())
            .filter(|&v| !map.is_slice(v))
            .count(),
    };
    if let Some(bad) = job_list
        .iter()
        .find(|j| !j.is_fractional() && j.num_gpus() > whole_pool)
    {
        return Err(format!(
            "job {} requests {} whole GPUs but {} has only {}",
            bad.id,
            bad.num_gpus(),
            machine.name(),
            whole_pool
        ));
    }
    if let Some(bad) = job_list.iter().find(|j| j.num_gpus() > machine.gpu_count()) {
        return Err(format!(
            "job {} requests {} GPUs but {} has only {}",
            bad.id,
            bad.num_gpus(),
            machine.name(),
            machine.gpu_count()
        ));
    }
    // The engine would refuse these on arrival (by panicking: its entry
    // points return a report, not a `Result`); refuse them here, politely.
    for job in &job_list {
        JobRejection::check(job, machine.gpu_count()).map_err(|e| e.to_string())?;
    }
    if let Some(classes) = priorities {
        if classes == 0 {
            return Err("--priorities needs at least 1 tenant class".to_string());
        }
        jobs::assign_priority_classes(&mut job_list, classes);
    }
    if let Some(t) = tenants {
        if t == 0 {
            return Err("--tenants needs at least 1 tenant".to_string());
        }
        jobs::assign_tenants(&mut job_list, t);
    }
    let preemption = match preemption_arg.as_deref() {
        None => PreemptionPolicy::None,
        Some(name) => preemption_policy_by_name(name).ok_or_else(|| {
            format!(
                "unknown preemption policy '{name}' (choose from: {})",
                PREEMPTION_POLICY_NAMES.join(" | ")
            )
        })?,
    };
    if let Some(penalty) = preemption_penalty {
        if !(penalty >= 0.0 && penalty.is_finite()) {
            return Err(
                "--preemption-penalty must be a non-negative number of seconds".to_string(),
            );
        }
        if preemption == PreemptionPolicy::None {
            return Err(
                "--preemption-penalty needs a non-none --preemption policy to matter".to_string(),
            );
        }
    }
    // Group the stream into gangs of K consecutive jobs when asked; each
    // gang occupies one arrival slot and is co-scheduled all-or-nothing.
    let submissions: Vec<Submission> = match gang_size {
        None => job_list.into_iter().map(Submission::Job).collect(),
        Some(0) => return Err("--gang-size needs at least 1 job per gang".to_string()),
        Some(size) => JobGroup::chunk(job_list, size)
            .into_iter()
            .map(Submission::Gang)
            .collect(),
    };
    let server_policy_name = server_policy_arg.as_deref().unwrap_or("least-loaded");
    let resolve_server_policy = || {
        server_policy_by_name(server_policy_name).ok_or_else(|| {
            format!(
                "unknown server policy '{server_policy_name}' (choose from: {})",
                SERVER_POLICY_NAMES.join(" | ")
            )
        })
    };
    // Every gang must be co-schedulable on the *idle* fleet, or the run
    // can never drain (the engine surfaces that as a panic at the end —
    // a loud crash, but a config error deserves a friendly one). Pooled
    // capacity is not enough: three 5-GPU members total 15 ≤ 2×8 yet no
    // two fit one 8-GPU shard together. So reserve each gang on a
    // scratch idle fleet via the exact placement path the scheduler will
    // use, and reject the job file if any reservation fails.
    if submissions.iter().any(|s| matches!(s, Submission::Gang(_))) {
        resolve_policy(&policy_name)?; // surface a bad --policy before the scratch build
        let scratch_cluster = || -> Result<Cluster, String> {
            Ok(Cluster::homogeneous(
                machine.clone(),
                servers,
                {
                    let name = policy_name.clone();
                    move || resolve_policy(&name).expect("policy name validated just above")
                },
                resolve_server_policy()?,
            ))
        };
        // A federated fleet may *span* a gang across clusters, so the
        // scratch must mirror the real topology (quotas deliberately
        // omitted — over-quota gangs are held, not impossible).
        let mut scratch: Box<dyn SchedulerBackend> = if federated {
            let members: Result<Vec<Cluster>, String> =
                (0..clusters).map(|_| scratch_cluster()).collect();
            Box::new(Federation::new(members?, Box::new(SpilloverPolicy)))
        } else {
            Box::new(scratch_cluster()?)
        };
        for sub in &submissions {
            let Submission::Gang(gang) = sub else {
                continue;
            };
            match scratch.try_place_gang(&gang.members) {
                Some(placements) => {
                    for (member, p) in gang.members.iter().zip(&placements) {
                        scratch.release(p.server, member.id);
                    }
                }
                None => {
                    return Err(format!(
                        "gang {} (jobs {:?}, {} GPUs total) cannot be co-scheduled even on an \
                         idle fleet of {clusters}× {servers}× {} — shrink --gang-size or add \
                         servers",
                        gang.id,
                        gang.members.iter().map(|m| m.id).collect::<Vec<_>>(),
                        gang.total_gpus(),
                        machine.name(),
                    ));
                }
            }
        }
    }

    let arrivals = match (poisson, burst) {
        (Some(_), Some(_)) => {
            return Err("--poisson and --burst are mutually exclusive".to_string())
        }
        (Some(gap), None) => ArrivalProcess::Poisson {
            mean_gap: gap,
            seed,
        },
        (None, Some(size)) => ArrivalProcess::Bursts {
            size,
            gap: burst_gap,
        },
        (None, None) => ArrivalProcess::Batch,
    };
    arrivals.check()?;
    let mut config = SimConfig {
        strict_fifo: !backfill,
        arrivals,
        cached,
        preemption,
        ..SimConfig::default()
    };
    if let Some(penalty) = preemption_penalty {
        config.preemption_penalty_seconds = penalty;
    }

    let dispatch = match dispatch_arg.as_deref() {
        None => DispatchMode::Sequential,
        Some(name) => dispatch_mode_by_name(name).ok_or_else(|| {
            format!(
                "unknown dispatch mode '{name}' (choose from: {})",
                DISPATCH_MODE_NAMES.join(" | ")
            )
        })?,
    };
    let migration = match migration_arg.as_deref() {
        None => MigrationPolicy::None,
        Some(name) => migration_policy_by_name(name).ok_or_else(|| {
            format!(
                "unknown migration policy '{name}' (choose from: {})",
                MIGRATION_POLICY_NAMES.join(" | ")
            )
        })?,
    };
    // Per-shard queues are always strict per-shard FIFO; silently taking
    // the queued path would turn a --backfill ablation into a FIFO run.
    if backfill && (queue_depth.is_some() || migration != MigrationPolicy::None) {
        return Err(
            "--backfill applies to the global FIFO queue only; it cannot be combined \
             with --shard-queue-depth or a non-none --migration (per-shard queues are \
             strict FIFO per shard)"
                .to_string(),
        );
    }
    // Any dispatch-layer flag implies the cluster path (a 1-server
    // cluster is valid — per-shard queues and migration still apply).
    let clustered = servers > 1
        || server_policy_arg.is_some()
        || dispatch_arg.is_some()
        || migration_arg.is_some()
        || queue_depth.is_some();

    // Submissions stream into the dispatcher through the bounded
    // ingestion channel — the same front end live traffic would use.
    let feed =
        SubmissionFeed::from_submissions(submissions, mapa::cluster::DEFAULT_INGEST_CAPACITY);
    if let Some(0) = queue_depth {
        return Err("--shard-queue-depth must be at least 1".to_string());
    }
    // Builds one cluster of `servers` shards with the shared dispatch
    // configuration — the federated path calls this once per cluster.
    let build_cluster = |machine: Topology| -> Result<Cluster, String> {
        let server_policy = resolve_server_policy()?;
        // One allocation-policy instance per shard.
        let mut shard_policies = (0..servers)
            .map(|_| resolve_policy(&policy_name))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cluster = Cluster::homogeneous(
            machine,
            servers,
            move || shard_policies.pop().expect("one policy per shard"),
            server_policy,
        )
        .with_dispatch(dispatch);
        if let Some(depth) = queue_depth {
            cluster = cluster.with_shard_queues(depth);
        }
        Ok(cluster.with_migration(migration))
    };
    let report = if federated {
        let fed_policy_name = federation_policy_arg.as_deref().unwrap_or("spillover");
        let fed_policy = federation_policy_by_name(fed_policy_name).ok_or_else(|| {
            format!(
                "unknown federation policy '{fed_policy_name}' (choose from: {})",
                FEDERATION_POLICY_NAMES.join(" | ")
            )
        })?;
        let members = (0..clusters)
            .map(|_| build_cluster(machine.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut federation = Federation::new(members, fed_policy);
        if let Some(quota) = quota_gpus {
            federation = federation.with_default_quota(quota);
        }
        Engine::over(federation)
            .with_config(config)
            .run_submissions(feed)
    } else if clustered {
        Engine::over(build_cluster(machine)?)
            .with_config(config)
            .run_submissions(feed)
    } else {
        Simulation::new(machine, resolve_policy(&policy_name)?)
            .with_config(config)
            .run_submissions(feed)
    };

    println!(
        "machine {} | policy {} | {} jobs | makespan {:.0} s | throughput {:.1} jobs/h",
        report.topology_name,
        report.policy_name,
        report.records.len(),
        report.makespan_seconds,
        report.throughput_jobs_per_hour
    );
    let sens = |r: &JobRecord| r.job.bandwidth_sensitive && r.job.num_gpus() >= 2;
    let multi = |r: &JobRecord| r.job.num_gpus() >= 2;
    if report.records.iter().any(&sens) {
        let s = stats::summarize(&report.execution_times(sens));
        println!(
            "sensitive exec time (s): min {:.0}  p25 {:.0}  p50 {:.0}  p75 {:.0}  max {:.0}",
            s.min, s.p25, s.p50, s.p75, s.max
        );
    }
    if report.records.iter().any(&multi) {
        let b = stats::summarize(&report.predicted_eff_bws(multi));
        println!(
            "predicted EffBW (GB/s):  min {:.1}  p25 {:.1}  p50 {:.1}  p75 {:.1}  max {:.1}",
            b.min, b.p25, b.p50, b.p75, b.max
        );
    }
    if !report.records.is_empty() {
        let sched = report.scheduling_stats();
        print!(
            "scheduling latency (ms): min {:.3}  p50 {:.3}  max {:.3}",
            sched.latency_ms.min, sched.latency_ms.p50, sched.latency_ms.max
        );
        match sched.cache {
            Some(c) => println!(
                "  | cache: {} hits / {} lookups ({:.0}% hit rate)",
                c.hits,
                c.lookups(),
                c.hit_rate() * 100.0
            ),
            None => println!("  | cache: off"),
        }
    }
    if let Some(d) = &report.dispatch {
        print!("dispatch: {} | migration: {}", d.mode, d.migration);
        if d.shard_queue_depth > 0 {
            print!(
                " | shard queues: depth {}  stolen {}  rebalanced {}",
                d.shard_queue_depth, d.jobs_stolen, d.jobs_rebalanced
            );
        } else {
            print!(" | queue: global FIFO");
        }
        println!();
    }
    if preemption.enabled() || report.preemption.jobs_preempted > 0 {
        println!(
            "preemption: {} | evicted {}  gpu-seconds lost {:.0}  penalty charged {:.0} s",
            preemption.name(),
            report.preemption.jobs_preempted,
            report.preemption.gpu_seconds_lost,
            report.preemption.penalty_seconds_charged
        );
    }
    if report.gangs.gangs_dispatched > 0 {
        println!(
            "gangs: {} dispatched ({} members) | wait mean {:.0} s  max {:.0} s",
            report.gangs.gangs_dispatched,
            report.gangs.members_dispatched,
            report.gangs.total_wait_seconds / report.gangs.gangs_dispatched as f64,
            report.gangs.max_wait_seconds
        );
    }
    if let Some(attainment) = report.slo.attainment() {
        println!(
            "slo: {} inference tenants | met {}  missed {}  attainment {:.1}% | \
             p95 latency {:.3} ms (p95 target {:.3} ms)",
            report.slo.jobs,
            report.slo.met,
            report.slo.missed,
            attainment * 100.0,
            report.slo.p95_latency_ms,
            report.slo.p95_target_ms
        );
    }
    if let Some(fed) = &report.federation {
        println!(
            "federation: {} clusters | policy {} | spillovers {}  quota holds {}  \
             gangs pinned {}  spanned {}",
            fed.clusters.len(),
            fed.policy,
            fed.spillovers,
            fed.quota_holds,
            fed.gangs_pinned,
            fed.gangs_spanned
        );
        for c in &fed.clusters {
            println!(
                "  cluster {:>2} {:<18} servers {:>2}  routed {:>4}  spill-ins {:>4}  \
                 jobs {:>4}  gpu-seconds {:>10.0}",
                c.cluster,
                c.label,
                c.servers,
                c.jobs_routed,
                c.spill_ins,
                c.jobs_completed,
                c.gpu_seconds
            );
        }
        for t in &fed.tenants {
            let quota = t
                .quota_gpus
                .map_or_else(|| "-".to_string(), |q| q.to_string());
            println!(
                "  tenant {:>3} quota {:>4}  peak {:>4}  holds {:>4}  jobs {:>4}  \
                 gpu-seconds {:>10.0}",
                t.tenant, quota, t.peak_gpus, t.quota_holds, t.jobs_completed, t.gpu_seconds
            );
        }
    }
    if report.shards.len() > 1 {
        println!(
            "queue: max depth {}  mean depth {:.2}  blocks {}  cross-server frag blocks {}",
            report.queue.max_depth,
            report.queue.mean_depth,
            report.queue.dispatch_blocks,
            report.queue.fragmentation_blocks
        );
        for s in &report.shards {
            println!(
                "  shard {:>2} {:<14} {:>3} jobs  util {:>5.1}%  gpu-seconds {:>10.0}",
                s.server,
                s.machine,
                s.jobs_completed,
                s.utilization * 100.0,
                s.gpu_seconds
            );
        }
    }
    if let Some(path) = json_file {
        std::fs::write(&path, mapa::report::to_json(&report))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report JSON written to {path}");
    }
    println!("\nper-job log (id, workload, server, gpus, effbw, exec):");
    for r in &report.records {
        println!(
            "  {:>4} {:<14} s{} {:?} {:>6.1} GB/s {:>8.0} s",
            r.job.id,
            r.job.workload.name(),
            r.server,
            r.gpus,
            r.predicted_eff_bw,
            r.execution_seconds
        );
    }
    Ok(())
}

/// Parses the `--grid` axis syntax: `;`-separated `axis=v1,v2,...`
/// entries applied over the grid's defaults.
fn apply_grid_axes(grid: &mut CampaignGrid, spec: &str) -> Result<(), String> {
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (axis, values) = entry
            .split_once('=')
            .ok_or_else(|| format!("grid entry '{entry}' is not axis=v1,v2,..."))?;
        let values: Vec<&str> = values
            .split(',')
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .collect();
        if values.is_empty() {
            return Err(format!("grid axis '{axis}' has no values"));
        }
        let parse_usizes = |axis: &str| -> Result<Vec<usize>, String> {
            values
                .iter()
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("grid axis '{axis}': '{v}' is not a number"))
                })
                .collect()
        };
        match axis.trim() {
            "server-policies" => {
                grid.server_policies = values.iter().map(ToString::to_string).collect();
            }
            "alloc-policies" | "policies" => {
                grid.alloc_policies = values.iter().map(ToString::to_string).collect();
            }
            "shards" => grid.shards = parse_usizes("shards")?,
            "jobs" => grid.job_counts = parse_usizes("jobs")?,
            "dispatch" => {
                grid.dispatch = values
                    .iter()
                    .map(|v| {
                        dispatch_mode_by_name(v).ok_or_else(|| {
                            format!(
                                "unknown dispatch mode '{v}' (choose from: {})",
                                DISPATCH_MODE_NAMES.join(" | ")
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => {
                return Err(format!(
                    "unknown grid axis '{other}' (choose from: server-policies | \
                     alloc-policies | shards | jobs | dispatch)"
                ))
            }
        }
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let mut machine_arg: Option<String> = None;
    let mut grid_arg: Option<String> = None;
    let mut replications: Option<usize> = None;
    let mut base_seed: Option<u64> = None;
    let mut poisson_arg: Option<String> = None;
    let mut partition_args: Vec<String> = Vec::new();
    let mut inference_mix: Option<f64> = None;
    let mut queue_depth: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut json_file: Option<String> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--machine" => machine_arg = Some(parse_flag(&mut it, "--machine")?),
            "--grid" => grid_arg = Some(parse_flag(&mut it, "--grid")?),
            "--replications" => replications = Some(parse_flag(&mut it, "--replications")?),
            "--base-seed" => base_seed = Some(parse_flag(&mut it, "--base-seed")?),
            "--poisson" => poisson_arg = Some(parse_flag(&mut it, "--poisson")?),
            "--partition" => partition_args.push(parse_flag(&mut it, "--partition")?),
            "--inference-mix" => inference_mix = Some(parse_flag(&mut it, "--inference-mix")?),
            "--shard-queue-depth" => {
                queue_depth = Some(parse_flag(&mut it, "--shard-queue-depth")?)
            }
            "--threads" => threads = Some(parse_flag(&mut it, "--threads")?),
            "--json" => json_file = Some(parse_flag(&mut it, "--json")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let machine = resolve_machine(&machine_arg.ok_or("--machine is required")?)?;
    let mut grid = CampaignGrid::new(machine);
    if let Some(spec) = grid_arg.as_deref() {
        apply_grid_axes(&mut grid, spec)?;
    }
    if let Some(n) = replications {
        if n == 0 {
            return Err("--replications must be at least 1".to_string());
        }
        grid.replications = n;
    }
    if let Some(s) = base_seed {
        grid.base_seed = s;
    }
    // Arrival-intensity axis: a comma list of mean gaps; the keyword
    // `batch` spells the all-at-t=0 cell, so `--poisson batch,60,300`
    // sweeps batch against two Poisson intensities.
    if let Some(spec) = poisson_arg.as_deref() {
        let mut gaps = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part.eq_ignore_ascii_case("batch") {
                gaps.push(None);
            } else {
                let gap: f64 = part
                    .parse()
                    .map_err(|_| format!("--poisson: '{part}' is neither a gap nor 'batch'"))?;
                gaps.push(Some(gap));
            }
        }
        if gaps.is_empty() {
            return Err("--poisson needs at least one gap or 'batch'".to_string());
        }
        grid.arrival_gaps = gaps;
    }
    // Partition-plan axis: each --partition adds one cell value; `none`
    // (or `whole`) spells the unpartitioned machine.
    if !partition_args.is_empty() {
        let mut partitions = Vec::new();
        for spec in &partition_args {
            let spec = spec.trim();
            if spec.eq_ignore_ascii_case("none") || spec.eq_ignore_ascii_case("whole") {
                partitions.push(None);
            } else {
                let plan =
                    PartitionPlan::parse(spec).map_err(|e| format!("bad --partition plan: {e}"))?;
                if plan.is_empty() {
                    return Err(
                        "--partition needs gpu:slices splits (or the keyword 'none')".to_string(),
                    );
                }
                partitions.push(Some(plan));
            }
        }
        grid.partitions = partitions;
    }
    if let Some(frac) = inference_mix {
        if !(0.0..=1.0).contains(&frac) {
            return Err("--inference-mix must be a fraction in [0, 1]".to_string());
        }
        grid.mix.inference_fraction = frac;
    }
    if let Some(depth) = queue_depth {
        if depth == 0 {
            return Err("--shard-queue-depth must be at least 1".to_string());
        }
        grid.shard_queue_depth = depth;
    }
    let pool = Arc::new(match threads {
        Some(0) => return Err("--threads must be at least 1".to_string()),
        Some(n) => WorkerPool::new(n),
        None => WorkerPool::with_default_threads(),
    });

    let summaries = grid.run(&pool)?;
    println!(
        "campaign: {} cells x {} replications (base seed {}, {} workers)",
        summaries.len(),
        grid.replications,
        grid.base_seed,
        pool.threads()
    );
    println!(
        "{:<55} {:>16} {:>18} {:>8} {:>8} {:>8}",
        "cell", "makespan (s)", "jobs/hour", "p50 wait", "p95", "p99"
    );
    for s in &summaries {
        println!(
            "{:<55} {:>8.0} ±{:>5.0} {:>10.1} ±{:>5.1} {:>8.1} {:>8.1} {:>8.1}",
            s.label,
            s.makespan_seconds.mean,
            s.makespan_seconds.ci95,
            s.throughput_jobs_per_hour.mean,
            s.throughput_jobs_per_hour.ci95,
            s.queue_wait_p50_seconds,
            s.queue_wait_p95_seconds,
            s.queue_wait_p99_seconds
        );
    }
    if let Some(path) = json_file {
        let doc = mapa::campaign::campaign_to_json(&summaries, grid.replications, grid.base_seed);
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("campaign JSON written to {path}");
    }
    Ok(())
}
