//! Golden test for the `--json` report: the schema CI checks on the
//! uploaded `CLUSTER_report.json` artifacts must be exactly what
//! `mapa::report::to_json` (the serializer the binary uses) emits, and
//! every value must round-trip through the bundled JSON reader back to
//! the in-memory `SimReport`. If a field is added, renamed, or dropped,
//! this test and the CI schema check fail together — in review, not in a
//! downstream consumer.

use mapa::core::PreemptionPolicy;
use mapa::prelude::*;
use mapa::report::{parse_json, to_json, Json};
use mapa::sim::Submission;
use mapa::topology::parse::{parse_topology_matrix, to_topology_matrix, NvlinkGeneration};
use mapa::workloads::JobGroup;

/// The top-level keys CI's schema check asserts on the artifact —
/// keep in sync with `.github/workflows/ci.yml`.
const TOP_LEVEL_KEYS: [&str; 13] = [
    "machine",
    "policy",
    "jobs",
    "makespan_seconds",
    "throughput_jobs_per_hour",
    "scheduling_latency_ms",
    "cache_hit_rate",
    "queue",
    "dispatch",
    "preemption",
    "gangs",
    "slo",
    "shards",
];

fn exercised_report() -> SimReport {
    // A run that populates every block: 3 shards, queued parallel
    // dispatch with stealing, gangs, and priority preemption.
    let jobs = generator::paper_job_mix(41);
    let mut submissions: Vec<Submission> = Vec::new();
    let mut gang_id = 0;
    for chunk in jobs[..36].chunks(4) {
        // Alternate gangs of 2 with pairs of prioritized singles.
        gang_id += 1;
        submissions.push(Submission::Gang(JobGroup::new(
            gang_id,
            chunk[..2].to_vec(),
        )));
        for job in &chunk[2..] {
            let mut job = job.clone();
            job.priority = (job.id % 3) as u8;
            submissions.push(Submission::Job(job));
        }
    }
    // A handful of SLO-tagged fractional inference tenants so the slo
    // block carries non-zero counters.
    for id in 0..4 {
        submissions.push(Submission::Job(
            JobSpec::new(10_000 + id, GpuDemand::Slices(2), Workload::BertServing)
                .with_iterations(200)
                .with_slo(25.0),
        ));
    }
    let cluster = Cluster::homogeneous(
        machines::dgx1_v100(),
        3,
        || Box::new(PreservePolicy),
        Box::new(LeastLoadedPolicy),
    )
    .with_shard_queues(6)
    .with_dispatch(DispatchMode::Parallel)
    .with_migration(MigrationPolicy::StealOnIdle);
    Engine::over(cluster)
        .with_config(SimConfig {
            preemption: PreemptionPolicy::PriorityEvict,
            ..SimConfig::default()
        })
        .run_submissions(submissions)
}

#[test]
fn json_report_round_trips_and_matches_the_ci_schema() {
    let report = exercised_report();
    let text = to_json(&report);
    let parsed = parse_json(&text).expect("the binary's own output parses");

    for key in TOP_LEVEL_KEYS {
        assert!(parsed.get(key).is_some(), "report lost key {key:?}");
    }

    // Scalars round-trip (serialization rounds to fixed decimals).
    assert_eq!(
        parsed.get("machine").unwrap().as_str(),
        Some("3× DGX-1 V100")
    );
    assert_eq!(
        parsed.get("policy").unwrap().as_str(),
        Some("least-loaded/Preserve")
    );
    assert_eq!(
        parsed.get("jobs").unwrap().as_f64(),
        Some(report.records.len() as f64)
    );
    let makespan = parsed.get("makespan_seconds").unwrap().as_f64().unwrap();
    assert!((makespan - report.makespan_seconds).abs() < 1e-3);

    // Queue block.
    let queue = parsed.get("queue").unwrap();
    assert_eq!(
        queue.get("max_depth").unwrap().as_f64(),
        Some(report.queue.max_depth as f64)
    );
    assert_eq!(
        queue.get("dispatch_blocks").unwrap().as_f64(),
        Some(report.queue.dispatch_blocks as f64)
    );

    // Dispatch block mirrors the in-memory DispatchReport.
    let d = report.dispatch.as_ref().expect("queued cluster reports");
    let dispatch = parsed.get("dispatch").unwrap();
    assert_eq!(dispatch.get("mode").unwrap().as_str(), Some(d.mode));
    assert_eq!(
        dispatch.get("migration").unwrap().as_str(),
        Some(d.migration)
    );
    assert_eq!(
        dispatch.get("shard_queue_depth").unwrap().as_f64(),
        Some(d.shard_queue_depth as f64)
    );
    assert_eq!(
        dispatch
            .get("max_queue_depths")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        3
    );

    // Preemption and gang counters round-trip exactly; the run above
    // genuinely exercised both.
    let preemption = parsed.get("preemption").unwrap();
    assert_eq!(
        preemption.get("jobs_preempted").unwrap().as_f64(),
        Some(report.preemption.jobs_preempted as f64)
    );
    let gangs = parsed.get("gangs").unwrap();
    assert_eq!(
        gangs.get("dispatched").unwrap().as_f64(),
        Some(report.gangs.gangs_dispatched as f64)
    );
    assert_eq!(
        gangs.get("members").unwrap().as_f64(),
        Some(report.gangs.members_dispatched as f64)
    );
    assert!(report.gangs.gangs_dispatched > 0, "the run submitted gangs");

    // SLO counters round-trip exactly; the run submitted tagged tenants.
    let slo = parsed.get("slo").unwrap();
    assert_eq!(
        slo.get("jobs").unwrap().as_f64(),
        Some(report.slo.jobs as f64)
    );
    assert_eq!(
        slo.get("met").unwrap().as_f64(),
        Some(report.slo.met as f64)
    );
    assert_eq!(
        slo.get("missed").unwrap().as_f64(),
        Some(report.slo.missed as f64)
    );
    let attainment = slo.get("attainment").unwrap().as_f64().unwrap();
    let expected = report.slo.attainment().expect("the run had tagged jobs");
    assert!((attainment - expected).abs() < 1e-6);
    let p95 = slo.get("p95_latency_ms").unwrap().as_f64().unwrap();
    assert!((p95 - report.slo.p95_latency_ms).abs() < 1e-6);
    let p95_target = slo.get("p95_target_ms").unwrap().as_f64().unwrap();
    assert!((p95_target - report.slo.p95_target_ms).abs() < 1e-6);
    assert!(report.slo.jobs > 0, "the run submitted SLO-tagged tenants");

    // Per-shard objects.
    let shards = parsed.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), report.shards.len());
    for (json, shard) in shards.iter().zip(&report.shards) {
        assert_eq!(
            json.get("server").unwrap().as_f64(),
            Some(shard.server as f64)
        );
        assert_eq!(
            json.get("jobs_completed").unwrap().as_f64(),
            Some(shard.jobs_completed as f64)
        );
        for key in [
            "machine",
            "gpu_count",
            "gpu_seconds",
            "utilization",
            "cache_hits",
            "cache_misses",
        ] {
            assert!(json.get(key).is_some(), "shard object lost {key:?}");
        }
    }
}

#[test]
fn single_server_report_omits_only_the_dispatch_block() {
    let jobs = generator::paper_job_mix(42);
    let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..10]);
    let parsed = parse_json(&to_json(&report)).unwrap();
    for key in TOP_LEVEL_KEYS {
        if key == "dispatch" {
            assert!(
                parsed.get(key).is_none(),
                "single server has no dispatch layer"
            );
        } else {
            assert!(parsed.get(key).is_some(), "report lost key {key:?}");
        }
    }
    // Counters are present (and zero) even when the features are off, so
    // downstream consumers never need existence checks.
    assert_eq!(
        parsed
            .get("preemption")
            .unwrap()
            .get("jobs_preempted")
            .unwrap()
            .as_f64(),
        Some(0.0)
    );
    assert_eq!(
        parsed
            .get("gangs")
            .unwrap()
            .get("dispatched")
            .unwrap()
            .as_f64(),
        Some(0.0)
    );
    // The slo block is always present; with no tagged tenants its counters
    // are zero and attainment is JSON null — an untagged run has *no*
    // attainment, not a vacuous 100%.
    let slo = parsed.get("slo").unwrap();
    assert_eq!(slo.get("jobs").unwrap().as_f64(), Some(0.0));
    assert_eq!(slo.get("attainment"), Some(&Json::Null));
    // No federation layer ran, so no federation block.
    assert!(parsed.get("federation").is_none());
}

#[test]
fn federated_report_carries_the_federation_block() {
    let mut jobs = generator::paper_job_mix(43)[..24].to_vec();
    mapa::workloads::assign_tenants(&mut jobs, 3);
    let make = || {
        Cluster::homogeneous(
            machines::dgx1_v100(),
            2,
            || Box::new(PreservePolicy),
            Box::new(LeastLoadedPolicy),
        )
    };
    let federation =
        Federation::new(vec![make(), make()], Box::new(SpilloverPolicy)).with_default_quota(12);
    let report = Engine::over(federation).run(&jobs);
    let fed = report.federation.as_ref().expect("federated run");
    let parsed = parse_json(&to_json(&report)).unwrap();
    let block = parsed.get("federation").expect("federation block present");
    assert_eq!(block.get("policy").unwrap().as_str(), Some("spillover"));
    assert_eq!(
        block.get("spillovers").unwrap().as_f64(),
        Some(fed.spillovers as f64)
    );
    assert_eq!(
        block.get("quota_holds").unwrap().as_f64(),
        Some(fed.quota_holds as f64)
    );
    let clusters = block.get("clusters").unwrap().as_array().unwrap();
    assert_eq!(clusters.len(), 2);
    for (json, c) in clusters.iter().zip(&fed.clusters) {
        assert_eq!(
            json.get("first_server").unwrap().as_f64(),
            Some(c.first_server as f64)
        );
        assert_eq!(
            json.get("jobs_completed").unwrap().as_f64(),
            Some(c.jobs_completed as f64)
        );
        for key in [
            "machine",
            "servers",
            "gpu_count",
            "jobs_routed",
            "spill_ins",
            "gpu_seconds",
        ] {
            assert!(json.get(key).is_some(), "cluster object lost {key:?}");
        }
    }
    let tenants = block.get("tenants").unwrap().as_array().unwrap();
    assert_eq!(tenants.len(), 3);
    for (json, t) in tenants.iter().zip(&fed.tenants) {
        assert_eq!(json.get("tenant").unwrap().as_f64(), Some(t.tenant as f64));
        assert_eq!(json.get("quota_gpus").unwrap().as_f64(), Some(12.0));
        assert_eq!(
            json.get("jobs_completed").unwrap().as_f64(),
            Some(t.jobs_completed as f64)
        );
        for key in ["peak_gpus", "quota_holds", "gpu_seconds"] {
            assert!(json.get(key).is_some(), "tenant object lost {key:?}");
        }
    }
    // Completion-side counters sum to the run: every record landed in
    // exactly one cluster and belongs to exactly one tenant.
    let by_cluster: usize = fed.clusters.iter().map(|c| c.jobs_completed).sum();
    let by_tenant: usize = fed.tenants.iter().map(|t| t.jobs_completed).sum();
    assert_eq!(by_cluster, report.records.len());
    assert_eq!(by_tenant, report.records.len());
}

#[test]
fn machine_names_are_escaped_in_every_field() {
    // `--machine FILE` names the machine after its path, and a path may
    // hold any character: a quote, a backslash, a control character.
    let name = "dgx\"1\\box\u{7}";
    let matrix = to_topology_matrix(&machines::dgx1_v100());
    let topology = parse_topology_matrix(&matrix, name, NvlinkGeneration::V2).unwrap();
    let jobs = generator::paper_job_mix(44);
    let report = Simulation::new(topology, Box::new(PreservePolicy)).run(&jobs[..6]);
    let parsed = parse_json(&to_json(&report)).expect("the report is valid JSON");
    assert_eq!(parsed.get("machine").unwrap().as_str(), Some(name));
    let shards = parsed.get("shards").unwrap().as_array().unwrap();
    assert!(!shards.is_empty());
    for shard in shards {
        assert_eq!(shard.get("machine").unwrap().as_str(), Some(name));
    }
}

#[test]
fn report_parses_with_python_style_strictness() {
    // The parser rejects what json.loads rejects for our shapes: the CI
    // schema check and this test must not diverge on validity.
    let report = exercised_report();
    let text = to_json(&report);
    // Truncations of the real document fail cleanly rather than parse.
    for cut in [text.len() / 4, text.len() / 2, text.len() - 2] {
        let mut cut = cut;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &text[..cut];
        assert!(
            parse_json(truncated).is_err(),
            "truncated report (at {cut}) must not parse"
        );
    }
    let _ = parse_json(&text).unwrap();
    assert!(matches!(parse_json(&text).unwrap(), Json::Object(_)));
}
