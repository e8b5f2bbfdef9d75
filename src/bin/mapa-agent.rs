//! `mapa-agent` — the real-hardware actuation front end. `mapa-agent
//! --help` prints the synopsis, rendered from the flag tables below.
//!
//! The agent probes the machine (by default through `nvidia-smi`; with
//! `--probe fake:MACHINE` through the deterministic fake, so everything
//! works offline), maps what it sees onto a MAPA machine description,
//! places the request with the same allocator the simulator uses, and
//! actuates by printing a `CUDA_VISIBLE_DEVICES` line and recording a
//! lease in the lock-coordinated state directory. Concurrent agents
//! pointed at one `--state-dir` never double-book a GPU.

use mapa::agent::{Agent, AllocateRequest, FakeProbe, GpuProbe, SmiProbe, StateDir};
use mapa::cli::{choose, Args, Cli};
use mapa::core::ALLOCATION_POLICY_NAMES;
use mapa::outln;
use mapa::report::{agent_placement_to_json, agent_status_to_json};
use mapa::topology::machines;
use std::process::ExitCode;

static CLI: Cli = Cli {
    program: "mapa-agent",
    commands: &[
        (
            "probe",
            "[--probe smi|fake:MACHINE] [--state-dir DIR] [--json FILE]",
        ),
        (
            "status",
            "[--probe smi|fake:MACHINE] [--state-dir DIR] [--json FILE]",
        ),
        (
            "allocate",
            "--gpus N [--probe smi|fake:MACHINE] [--state-dir DIR] [--policy NAME] [--tag TEXT]
             [--json FILE]",
        ),
        ("release", "--lease ID [--state-dir DIR]"),
    ],
    choices: &[("policies", &ALLOCATION_POLICY_NAMES)],
    footer: "--policy defaults to effbw-greedy. --probe defaults to smi (parses `nvidia-smi`
output); fake:MACHINE stands in any built-in machine, e.g. fake:dgx-1-v100,
fully offline. --state-dir defaults to .mapa-agent; all agents coordinating
one machine must share it.",
};

fn main() -> ExitCode {
    CLI.main(|args| match args.command {
        "probe" => cmd_probe(args),
        "status" => cmd_status(args),
        "allocate" => cmd_allocate(args),
        "release" => cmd_release(args),
        other => unreachable!("{other} is not in the table"),
    })
}

fn resolve_probe(spec: &str) -> Result<Box<dyn GpuProbe>, String> {
    if spec == "smi" {
        return Ok(Box::new(SmiProbe::new()));
    }
    let Some(machine_name) = spec.strip_prefix("fake:") else {
        return Err(format!(
            "unknown probe '{spec}' (expected smi or fake:MACHINE)"
        ));
    };
    // The names as a user would type them: `DGX-1 V100` → `dgx-1-v100`.
    let dashed = |m: &mapa::topology::Topology| -> String {
        let lower = m.name().to_ascii_lowercase();
        lower.replace(|c: char| !c.is_alphanumeric(), "-")
    };
    let names: Vec<String> = machines::all_machines().iter().map(dashed).collect();
    let machine = choose("fake machine", machine_name, machines::by_name, &names)?;
    let model = if machine.name().contains("P100") {
        "Tesla P100-SXM2-16GB"
    } else {
        "Tesla V100-SXM2-16GB"
    };
    Ok(Box::new(FakeProbe::from_machine(&machine, model, 16_160)))
}

fn state_dir(args: &Args) -> Result<StateDir, String> {
    StateDir::new(args.str("--state-dir").unwrap_or(".mapa-agent")).map_err(|e| e.to_string())
}

fn build_agent(args: &Args) -> Result<Agent<Box<dyn GpuProbe>>, String> {
    let probe = resolve_probe(args.str("--probe").unwrap_or("smi"))?;
    Ok(Agent::new(probe, state_dir(args)?))
}

/// Writes the `--json` artifact, if one was asked for. Each command does
/// so before it prints: a reader that stops early ends the command.
fn write_artifact(args: &Args, json: &str) -> Result<(), String> {
    if let Some(path) = args.str("--json") {
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_probe(args: &Args) -> Result<(), String> {
    let mut agent = build_agent(args)?;
    let (snapshot, machine) = agent.probe_machine().map_err(|e| e.to_string())?;
    // The probe artifact is a status-shaped report (ledger will be
    // empty/absent); one schema for CI to check on every subcommand.
    if args.has("--json") {
        let status = build_agent(args)?.status().map_err(|e| e.to_string())?;
        write_artifact(args, &agent_status_to_json(&status))?;
    }
    outln!("host {}: {} GPUs", snapshot.hostname, snapshot.gpu_count());
    match &machine.matched_profile {
        Some(p) => outln!("machine: {p} (matched built-in profile)"),
        None => outln!("machine: {} (synthesized)", machine.topology.name()),
    }
    for gpu in &snapshot.gpus {
        outln!(
            "  GPU{}: {}, {} MiB used / {} MiB, util {}%, {} process(es)",
            gpu.index,
            gpu.model,
            gpu.memory_used_mib,
            gpu.memory_total_mib,
            gpu.utilization_pct,
            gpu.processes.len()
        );
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let mut agent = build_agent(args)?;
    let status = agent.status().map_err(|e| e.to_string())?;
    write_artifact(args, &agent_status_to_json(&status))?;
    let profile = status
        .machine
        .matched_profile
        .clone()
        .unwrap_or_else(|| format!("{} (synthesized)", status.machine.topology.name()));
    outln!("host {} via {}: {profile}", status.hostname, status.source);
    for gpu in &status.gpus {
        let lease = gpu
            .leased_by
            .map_or_else(|| "-".to_string(), |id| format!("lease {id}"));
        outln!("  GPU{}: {:<9} {:?}", gpu.index, lease, gpu.occupancy);
    }
    outln!(
        "free: {:?}; {} lease(s)",
        status.free_gpus(),
        status.leases.len()
    );
    for lease in &status.leases {
        outln!(
            "  lease {} pid {} gpus {:?} tag '{}'",
            lease.id,
            lease.pid,
            lease.gpus,
            lease.tag
        );
    }
    Ok(())
}

fn cmd_allocate(args: &Args) -> Result<(), String> {
    let gpus = args.get("--gpus")?.expect("required by the table");
    let mut agent = build_agent(args)?;
    if let Some(name) = args.str("--policy") {
        agent = agent.with_policy(name).map_err(|e| e.to_string())?;
    }
    let mut request = AllocateRequest::new(gpus);
    if let Some(tag) = args.str("--tag") {
        request = request.with_tag(tag.to_string());
    }
    let placement = agent.allocate(&request).map_err(|e| e.to_string())?;
    write_artifact(args, &agent_placement_to_json(&placement))?;
    outln!(
        "lease {} on {} via {} policy: GPUs {:?}",
        placement.lease_id,
        placement
            .machine
            .matched_profile
            .as_deref()
            .unwrap_or(placement.machine.topology.name()),
        placement.policy,
        placement.gpus
    );
    outln!("CUDA_VISIBLE_DEVICES={}", placement.cuda_visible_devices);
    Ok(())
}

fn cmd_release(args: &Args) -> Result<(), String> {
    let lease = args.get("--lease")?.expect("required by the table");
    // Release never probes hardware; any probe backend satisfies the
    // type, so hand it the offline fake.
    let mut agent = Agent::new(FakeProbe::dgx1_v100(), state_dir(args)?);
    let gpus = agent.release(lease).map_err(|e| e.to_string())?;
    outln!("released lease {lease}: GPUs {gpus:?}");
    Ok(())
}
