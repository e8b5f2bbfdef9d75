//! Scheduling a heterogeneous GPU fleet: the cluster layer end to end.
//!
//! Builds a mixed fleet (two DGX-1 V100s, a DGX-2, a Summit node), submits
//! a bursty job mix, and compares the four server-selection policies on
//! makespan, balance, and cross-server fragmentation — the scale axis the
//! single-server paper setting cannot ask about. A second study switches
//! the fleet to per-shard queues (`--shard-queue-depth 8` in the CLI, or
//! any `--migration` other than `none`) and compares the three migration
//! policies: per-shard FIFO routing is cheap but can strand work behind a
//! hot shard; stealing and release-time rebalancing drain the imbalance.
//!
//! The fleet is built by hand, not through `mapa::runspec::RunSpec`: it is
//! heterogeneous, and a `RunSpec` runs copies of one machine.
//!
//! Run with: `cargo run --release --example cluster_fleet`

use mapa::core::policy::PreservePolicy;
use mapa::prelude::*;
use mapa::sim::QueueStats;

fn fleet() -> Vec<Topology> {
    vec![
        machines::dgx1_v100(),
        machines::dgx1_v100(),
        machines::dgx2(),
        machines::summit(),
    ]
}

fn run_policy(server_policy: Box<dyn ServerPolicy>, jobs: &[JobSpec]) -> SimReport {
    let cluster = Cluster::new(fleet(), || Box::new(PreservePolicy), server_policy);
    Engine::over(cluster)
        .with_config(SimConfig {
            // Two waves of heavy submissions 30 minutes apart — the skewed
            // arrival shape that separates spreading from packing.
            arrivals: ArrivalProcess::Bursts {
                size: 40,
                gap: 1800.0,
            },
            ..SimConfig::default()
        })
        .run(jobs)
}

fn describe(report: &SimReport) {
    let QueueStats {
        max_depth,
        mean_depth,
        fragmentation_blocks,
        ..
    } = report.queue;
    println!(
        "  makespan {:>6.0} s | throughput {:>5.1} jobs/h | queue max {max_depth:>2} mean {mean_depth:>5.2} | frag blocks {fragmentation_blocks:>3}",
        report.makespan_seconds, report.throughput_jobs_per_hour,
    );
    for s in &report.shards {
        println!(
            "    shard {} {:<12} {:>3} jobs  util {:>5.1}%",
            s.server,
            s.machine,
            s.jobs_completed,
            s.utilization * 100.0
        );
    }
}

fn main() {
    // A fleet-sized mix: the paper's distribution (1–8 GPUs per job).
    // Jobs wider than a shard simply skip it in the ranked fall-through —
    // 7–8-GPU jobs can never land on the 6-GPU Summit node, so expect its
    // job count to trail the others under every policy.
    let jobs: Vec<JobSpec> = generator::paper_job_mix(2025)
        .into_iter()
        .take(80)
        .collect();

    println!("heterogeneous fleet: 2× DGX-1 V100 + DGX-2 + Summit, 80 bursty jobs\n");
    for name in ["round-robin", "least-loaded", "best-score", "pack-first"] {
        let report = run_policy(server_policy_by_name(name).unwrap(), &jobs);
        println!("{name} ({})", report.policy_name);
        describe(&report);
    }
    println!(
        "\nleast-loaded balances shard utilization; pack-first consolidates and\n\
         leaves whole machines idle for large arrivals; best-score routes\n\
         bandwidth-sensitive jobs toward the machine offering the best links;\n\
         frag blocks count queue stalls where pooled free GPUs existed but no\n\
         single server could host the head job."
    );

    println!(
        "\nper-shard queues (depth 8) under least-loaded\n\
         routing — migration drains work stranded behind hot shards:"
    );
    for migration in [
        MigrationPolicy::None,
        MigrationPolicy::StealOnIdle,
        MigrationPolicy::RebalanceOnRelease,
    ] {
        let report = run_queued(migration, &jobs);
        let d = report.dispatch.as_ref().expect("queued cluster reports");
        println!(
            "{:<21} stolen {:>3}  rebalanced {:>3}  queue-depth highs {:?}",
            d.migration, d.jobs_stolen, d.jobs_rebalanced, d.max_queue_depths
        );
        describe(&report);
    }
}

fn run_queued(migration: MigrationPolicy, jobs: &[JobSpec]) -> SimReport {
    let cluster = Cluster::new(
        fleet(),
        || Box::new(PreservePolicy),
        Box::new(LeastLoadedPolicy),
    )
    .with_shard_queues(8)
    .with_migration(migration);
    Engine::over(cluster)
        .with_config(SimConfig {
            arrivals: ArrivalProcess::Bursts {
                size: 40,
                gap: 1800.0,
            },
            ..SimConfig::default()
        })
        .run(jobs)
}
