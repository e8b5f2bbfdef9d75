//! `mapa-sched` — command-line front end for the MAPA allocator/simulator.
//! `mapa-sched --help` prints the synopsis, rendered from the flag tables
//! below; this note is what the tables cannot say.
//!
//! `--machine` takes a built-in name or a file of `nvidia-smi topo -m`
//! output, which is how MAPA would attach to a real machine. `simulate`
//! replays a job file on the fleet its flags describe (a
//! [`RunSpec`]): one server by default; `--servers N` or any other
//! cluster-layer flag (`--server-policy`, `--dispatch`, `--migration`,
//! `--shard-queue-depth`) makes a cluster of N copies of the machine, and
//! `--clusters N`, `--federation-policy` or `--quota-gpus G` federates N
//! such clusters. `--shard-queue-depth` or a non-none `--migration`
//! replaces the global FIFO queue with bounded per-shard queues.
//! `--partition` applies a MIG-style plan to every server. The job file
//! is reshaped before it is submitted: `--priorities N` sets `priority =
//! id % N`, `--tenants T` sets `tenant = id % T`, `--gang-size K`
//! co-schedules every K consecutive jobs. The output is the paper's
//! Fig. 14 log ([`mapa::sim::logfile`]); `--json` writes the same report
//! as a pinned-schema artifact. `reproduce` prints the paper's evaluation
//! ([`mapa::reproduce`]) as one CSV table and exits 1 when a row leaves
//! its band. The full semantics is documented in `docs/SCHEDULING.md`.

use mapa::cli::{choose, Args, Cli};
use mapa::cluster::{
    dispatch_mode_by_name, DISPATCH_MODE_NAMES, FEDERATION_POLICY_NAMES, MIGRATION_POLICY_NAMES,
    SERVER_POLICY_NAMES,
};
use mapa::core::{preemption_policy_by_name, PreemptionPolicy, PREEMPTION_POLICY_NAMES};
use mapa::prelude::*;
use mapa::reproduce;
use mapa::sim::logfile;
use mapa::topology::parse::{parse_topology_matrix, to_topology_matrix, NvlinkGeneration};
use mapa::workloads::jobs;
use mapa::{out, outln};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

static CLI: Cli = Cli {
    program: "mapa-sched",
    commands: &[
        ("machines", ""),
        ("topo", "<machine-or-matrix-file>"),
        (
            "generate",
            "[--count N] [--seed S] [--inference-mix FRACTION] [--slices-max K] [--slo-ms MS]",
        ),
        (
            "simulate",
            "--machine NAME-OR-FILE --policy NAME --jobs FILE
             [--partition GPU:SLICES,...[;degraded]] [--servers N] [--server-policy NAME]
             [--dispatch MODE] [--migration NAME] [--shard-queue-depth N]
             [--preemption NAME] [--preemption-penalty SECONDS] [--priorities N]
             [--gang-size K] [--clusters N] [--federation-policy NAME] [--tenants T]
             [--quota-gpus G] [--backfill] [--no-cache] [--seed S]
             [--poisson MEAN_GAP] [--burst SIZE] [--burst-gap SECONDS] [--json FILE]",
        ),
        (
            "campaign",
            "--machine NAME-OR-FILE [--grid AXIS=V1,V2;AXIS=V1;...] [--replications N]
             [--base-seed S] [--poisson GAP1,GAP2,...|batch] [--partition SPEC|none]...
             [--inference-mix FRACTION] [--shard-queue-depth N] [--threads N] [--json FILE]",
        ),
        ("reproduce", "[--only ARTEFACT]..."),
    ],
    choices: &[
        ("policies", &ALLOCATION_POLICY_NAMES),
        ("server policies", &SERVER_POLICY_NAMES),
        ("dispatch modes", &DISPATCH_MODE_NAMES),
        ("migration policies", &MIGRATION_POLICY_NAMES),
        ("preemption policies", &PREEMPTION_POLICY_NAMES),
        ("federation policies", &FEDERATION_POLICY_NAMES),
        ("grid axes", &GRID_AXES),
        ("artefacts", &reproduce::IDS),
    ],
    footer: "simulate: jobs arrive all at t=0, or per --poisson, or per --burst (--burst-gap
apart) — one arrival process at most. campaign: every cell of the --grid
cross-product runs N replications under common random numbers; --poisson adds
an arrival-intensity axis, each --partition a MIG-plan axis value. reproduce:
the paper's figures and tables as CSV rows (artefact,series,quantity,paper,ours,
lo,hi,status); exits 1 when a row is outside its band.
Semantics: docs/SCHEDULING.md",
};

fn main() -> ExitCode {
    CLI.main(|args| match args.command {
        "machines" => cmd_machines(),
        "topo" => cmd_topo(args.operand.as_deref().expect("topo takes an operand")),
        "generate" => cmd_generate(args),
        "simulate" => cmd_simulate(args),
        "campaign" => cmd_campaign(args),
        "reproduce" => cmd_reproduce(args),
        other => unreachable!("{other} is not in the table"),
    })
}

fn cmd_machines() -> Result<(), String> {
    outln!(
        "{:<14} {:>6} {:>8} {:>9}",
        "name",
        "GPUs",
        "NVLinks",
        "sockets"
    );
    for m in machines::all_machines() {
        outln!(
            "{:<14} {:>6} {:>8} {:>9}",
            m.name(),
            m.gpu_count(),
            m.link_graph().edge_count(),
            m.socket_count()
        );
    }
    Ok(())
}

/// Resolves a machine argument: a built-in name or a path to an
/// `nvidia-smi topo -m` matrix file.
fn resolve_machine(arg: &str) -> Result<Topology, String> {
    if let Some(m) = machines::by_name(arg) {
        return Ok(m);
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("'{arg}' is not a built-in machine and not a readable file: {e}"))?;
    parse_topology_matrix(&text, arg, NvlinkGeneration::V2)
        .map_err(|e| format!("failed to parse '{arg}' as a topology matrix: {e}"))
}

fn cmd_topo(arg: &str) -> Result<(), String> {
    let m = resolve_machine(arg)?;
    outln!("# {} — {} GPUs\n", m.name(), m.gpu_count());
    outln!("{}", to_topology_matrix(&m));
    outln!("{}", m.to_dot());
    Ok(())
}

/// A count flag: absent, or at least 1.
fn count<T: FromStr + PartialEq + From<u8>>(
    args: &Args,
    name: &'static str,
) -> Result<Option<T>, String> {
    match args.get::<T>(name)? {
        Some(n) if n == T::from(0) => Err(format!("{name} must be at least 1")),
        n => Ok(n),
    }
}

fn inference_mix(args: &Args) -> Result<Option<f64>, String> {
    match args.get::<f64>("--inference-mix")? {
        Some(mix) if !(0.0..=1.0).contains(&mix) => {
            Err("--inference-mix must be a fraction in [0, 1]".to_string())
        }
        mix => Ok(mix),
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let inference_fraction = inference_mix(args)?.unwrap_or(0.0);
    let inference_slices_max = args.get("--slices-max")?.unwrap_or(2);
    let inference_slo_ms = args.get::<f64>("--slo-ms")?;
    if inference_fraction > 0.0 && !(1..=7).contains(&inference_slices_max) {
        return Err("--slices-max must be in 1..=7 (MIG's hardware limit)".to_string());
    }
    if inference_slo_ms.is_some_and(|ms| !(ms > 0.0 && ms.is_finite())) {
        return Err("--slo-ms must be a positive number of milliseconds".to_string());
    }
    let cfg = generator::JobMixConfig {
        job_count: args.get("--count")?.unwrap_or(300),
        inference_fraction,
        inference_slices_max,
        inference_slo_ms,
        ..Default::default()
    };
    let seed = args.get("--seed")?.unwrap_or(42);
    out!(
        "{}",
        jobs::write_job_file(&generator::generate_jobs(&cfg, seed))
    );
    Ok(())
}

/// Parses a `--partition` value (`simulate` and `campaign` spell plans alike).
fn partition_plan(spec: &str) -> Result<PartitionPlan, String> {
    PartitionPlan::parse(spec).map_err(|e| format!("bad --partition plan: {e}"))
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let name = |flag| args.str(flag).map(String::from);
    let spec = RunSpec {
        partition: args.str("--partition").map(partition_plan).transpose()?,
        server_policy: name("--server-policy"),
        federation_policy: name("--federation-policy"),
        servers: args.get("--servers")?.unwrap_or(1),
        clusters: args.get("--clusters")?.unwrap_or(1),
        dispatch: name("--dispatch"),
        migration: name("--migration"),
        shard_queue_depth: args.get("--shard-queue-depth")?,
        quota_gpus: args.get("--quota-gpus")?,
        ..RunSpec::new(
            resolve_machine(args.required("--machine"))?,
            args.required("--policy"),
        )
    };
    spec.validate()?;

    let jobs_text = std::fs::read_to_string(args.required("--jobs"))
        .map_err(|e| format!("cannot read jobs file: {e}"))?;
    let mut job_list =
        jobs::parse_job_file(&jobs_text).map_err(|e| format!("bad job file: {e}"))?;
    if let Some(classes) = count(args, "--priorities")? {
        jobs::assign_priority_classes(&mut job_list, classes);
    }
    if let Some(tenants) = count(args, "--tenants")? {
        jobs::assign_tenants(&mut job_list, tenants);
    }
    // A gang occupies one arrival slot and is co-scheduled all-or-nothing.
    let submissions: Vec<Submission> = match count(args, "--gang-size")? {
        None => job_list.into_iter().map(Submission::Job).collect(),
        Some(size) => JobGroup::chunk(job_list, size)
            .into_iter()
            .map(Submission::Gang)
            .collect(),
    };

    let preemption = match args.str("--preemption") {
        None => PreemptionPolicy::None,
        Some(name) => {
            let names = &PREEMPTION_POLICY_NAMES;
            choose("preemption policy", name, preemption_policy_by_name, names)?
        }
    };
    let seed = args.get("--seed")?.unwrap_or(0);
    let (poisson, burst, burst_gap) = (
        args.get("--poisson")?,
        args.get("--burst")?,
        args.get("--burst-gap")?,
    );
    let arrivals = match (poisson, burst, burst_gap) {
        (None, None, None) => ArrivalProcess::Batch,
        (Some(mean_gap), None, None) => ArrivalProcess::Poisson { mean_gap, seed },
        (None, Some(size), gap) => ArrivalProcess::Bursts {
            size,
            gap: gap.unwrap_or(300.0),
        },
        _ => {
            return Err("one arrival process at most: --poisson, or --burst \
                         (which --burst-gap spaces)"
                .to_string())
        }
    };
    let mut config = SimConfig {
        strict_fifo: !args.has("--backfill"),
        arrivals,
        cached: !args.has("--no-cache"),
        preemption,
        ..SimConfig::default()
    };
    if let Some(penalty) = args.get::<f64>("--preemption-penalty")? {
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
        config.preemption_penalty_seconds = penalty;
    }
    // Silently taking the queued path would turn a --backfill ablation
    // into a FIFO run.
    if args.has("--backfill") && spec.queued() {
        return Err(
            "--backfill applies to the global FIFO queue only; it cannot be combined \
             with --shard-queue-depth or a non-none --migration (per-shard queues are \
             strict FIFO per shard)"
                .to_string(),
        );
    }

    let mut shared = Shared::new(Arc::new(WorkerPool::with_default_threads()));
    let report = spec.run(&mut shared, config, submissions)?;
    // The artifact first: a reader that stops early ends the command.
    if let Some(path) = args.str("--json") {
        std::fs::write(path, mapa::report::to_json(&report))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report JSON written to {path}");
    }
    out!("{}", logfile::write_log(&report));
    Ok(())
}

const GRID_AXES: [&str; 5] = [
    "server-policies",
    "alloc-policies",
    "shards",
    "jobs",
    "dispatch",
];

/// Parses the `--grid` axis syntax: `;`-separated `axis=v1,v2,...`
/// entries applied over the grid's defaults.
fn apply_grid_axes(grid: &mut CampaignGrid, spec: &str) -> Result<(), String> {
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (axis, values) = entry
            .split_once('=')
            .ok_or_else(|| format!("grid entry '{entry}' is not axis=v1,v2,..."))?;
        let axis = axis.trim();
        let values: Vec<&str> = values
            .split(',')
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .collect();
        if values.is_empty() {
            return Err(format!("grid axis '{axis}' has no values"));
        }
        let names = || values.iter().map(ToString::to_string).collect();
        let numbers = || {
            let number = |v: &&str| {
                v.parse::<usize>()
                    .map_err(|_| format!("grid axis '{axis}': '{v}' is not a number"))
            };
            values.iter().map(number).collect::<Result<Vec<_>, _>>()
        };
        match axis {
            "server-policies" => grid.server_policies = names(),
            "alloc-policies" | "policies" => grid.alloc_policies = names(),
            "shards" => grid.shards = numbers()?,
            "jobs" => grid.job_counts = numbers()?,
            "dispatch" => {
                let mode = |v: &&str| {
                    choose(
                        "dispatch mode",
                        v,
                        dispatch_mode_by_name,
                        &DISPATCH_MODE_NAMES,
                    )
                };
                grid.dispatch = values.iter().map(mode).collect::<Result<_, _>>()?;
            }
            other => return choose("grid axis", other, |_| None, &GRID_AXES),
        }
    }
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let mut grid = CampaignGrid::new(resolve_machine(args.required("--machine"))?);
    if let Some(spec) = args.str("--grid") {
        apply_grid_axes(&mut grid, spec)?;
    }
    if let Some(n) = count(args, "--replications")? {
        grid.replications = n;
    }
    if let Some(s) = args.get("--base-seed")? {
        grid.base_seed = s;
    }
    // Arrival-intensity axis: a comma list of mean gaps; the keyword
    // `batch` spells the all-at-t=0 cell, so `--poisson batch,60,300`
    // sweeps batch against two Poisson intensities.
    if let Some(spec) = args.str("--poisson") {
        let gap = |part: &str| match part.parse::<f64>() {
            _ if part.eq_ignore_ascii_case("batch") => Ok(None),
            Ok(gap) => Ok(Some(gap)),
            Err(_) => Err(format!("--poisson: '{part}' is neither a gap nor 'batch'")),
        };
        let parts = spec.split(',').map(str::trim).filter(|p| !p.is_empty());
        grid.arrival_gaps = parts.map(gap).collect::<Result<_, _>>()?;
    }
    // Partition-plan axis: each --partition adds one cell value; `none`
    // (or `whole`) spells the unpartitioned machine.
    if args.has("--partition") {
        let plan = |spec: &str| match spec.trim() {
            s if s.eq_ignore_ascii_case("none") || s.eq_ignore_ascii_case("whole") => Ok(None),
            s => partition_plan(s).map(Some),
        };
        let plans = args.all("--partition").map(plan);
        grid.partitions = plans.collect::<Result<_, String>>()?;
    }
    if let Some(fraction) = inference_mix(args)? {
        grid.mix.inference_fraction = fraction;
    }
    if let Some(depth) = args.get("--shard-queue-depth")? {
        grid.shard_queue_depth = depth;
    }
    let pool = Arc::new(match count(args, "--threads")? {
        Some(n) => WorkerPool::new(n),
        None => WorkerPool::with_default_threads(),
    });

    let summaries = grid.run(&pool)?;
    outln!(
        "campaign: {} cells x {} replications (base seed {}, {} workers)",
        summaries.len(),
        grid.replications,
        grid.base_seed,
        pool.threads()
    );
    outln!(
        "{:<55} {:>16} {:>18} {:>8} {:>8} {:>8}",
        "cell",
        "makespan (s)",
        "jobs/hour",
        "p50 wait",
        "p95",
        "p99"
    );
    for s in &summaries {
        outln!(
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
    if let Some(path) = args.str("--json") {
        let doc = mapa::campaign::campaign_to_json(&summaries, grid.replications, grid.base_seed);
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("campaign JSON written to {path}");
    }
    Ok(())
}

fn cmd_reproduce(args: &Args) -> Result<(), String> {
    let rows = reproduce::rows(&args.all("--only").collect::<Vec<_>>())?;
    out!("{}", reproduce::csv(&rows));
    reproduce::verdict(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--grid` fragments: every axis name and an unknown one, the three
    /// separators, blanks, counts (zero, huge, negative, not a number)
    /// and names of every kind.
    const GRID_TOKENS: [&str; 24] = [
        "server-policies",
        "alloc-policies",
        "policies",
        "shards",
        "jobs",
        "dispatch",
        "nope",
        "=",
        ",",
        ";",
        " ",
        "0",
        "1",
        "4",
        "18446744073709551616",
        "-1",
        "x",
        "baseline",
        "preserve",
        "least-loaded",
        "pack-first",
        "sequential",
        "parallel",
        "'",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Token soup as a `--grid` spec never panics `apply_grid_axes`,
        /// whose refusal quotes a piece of the spec, nor the grid's
        /// validation after it.
        #[test]
        fn grid_axes_never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..GRID_TOKENS.len(), 0..24),
        ) {
            let spec: String = tokens.iter().map(|&t| GRID_TOKENS[t]).collect();
            let mut grid = CampaignGrid::new(machines::dgx1_v100());
            match apply_grid_axes(&mut grid, &spec) {
                Ok(()) => {
                    if let Err(error) = grid.validate() {
                        proptest::prop_assert!(!error.is_empty(), "{:?}", spec);
                    }
                }
                Err(error) => {
                    let quoted = error.split('\'').nth(1).unwrap_or_default();
                    proptest::prop_assert!(spec.contains(quoted), "{:?}: {}", spec, error);
                }
            }
        }
    }
}
