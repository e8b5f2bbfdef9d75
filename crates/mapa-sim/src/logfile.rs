//! The simulator log-file format (paper Fig. 14).
//!
//! "Log File: ID, Allocation, Topology, Effective BW (GBps)
//!  1, (1,2,3), Ring, 45
//!  2, (5,6,7,8), Ring, 48"
//!
//! We write the paper's columns plus the extra fields the evaluation
//! figures need (workload, execution time, queue wait, quality). The
//! parser accepts both the extended format and the paper's minimal one.

use crate::engine::{JobRecord, SimReport};
use crate::stats;
use std::fmt;

/// Header of the extended log format.
pub const LOG_HEADER: &str =
    "ID, Allocation, Topology, Effective BW (GBps), Workload, Exec (s), Wait (s), Quality, Sched (ms), Server";

/// Serializes a report into the Fig. 14 log format (extended columns) —
/// the one text rendering of a [`SimReport`], and what `mapa-sched
/// simulate` prints. The leading comments are the run at a glance
/// (makespan, throughput, and the percentiles the paper's figures plot:
/// execution time of bandwidth-sensitive multi-GPU jobs, Predicted EffBW
/// of multi-GPU allocations, per-decision scheduling latency). Each
/// record carries its per-job scheduling latency (§5.4) and the server
/// that ran it; the trailer comments carry the run's allocation-cache
/// counters, per-shard utilization, and dispatcher-queue statistics — the
/// same numbers [`SimReport::scheduling_stats`] and [`SimReport::shards`]
/// report, so log files and in-memory reports share one reporting path.
#[must_use]
pub fn write_log(report: &SimReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# machine: {} | policy: {}\n",
        report.topology_name, report.policy_name
    ));
    out.push_str(&format!(
        "# run: jobs={} makespan_s={:.2} jobs_per_hour={:.2}\n",
        report.records.len(),
        report.makespan_seconds,
        report.throughput_jobs_per_hour,
    ));
    let sensitive = |r: &JobRecord| r.job.bandwidth_sensitive && r.job.num_gpus() >= 2;
    let multi_gpu = |r: &JobRecord| r.job.num_gpus() >= 2;
    for (what, values) in [
        ("sensitive_exec_s", report.execution_times(sensitive)),
        ("predicted_effbw_gbps", report.predicted_eff_bws(multi_gpu)),
        ("sched_latency_ms", report.scheduling_latencies_ms()),
    ] {
        if !values.is_empty() {
            let s = stats::summarize(&values);
            out.push_str(&format!(
                "# {what}: min={:.3} p25={:.3} p50={:.3} p75={:.3} max={:.3}\n",
                s.min, s.p25, s.p50, s.p75, s.max
            ));
        }
    }
    out.push_str(LOG_HEADER);
    out.push('\n');
    for r in &report.records {
        let gpus: Vec<String> = r.gpus.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "{}, ({}), {}, {:.2}, {}, {:.2}, {:.2}, {:.4}, {:.3}, {}\n",
            r.job.id,
            gpus.join(","),
            r.job.topology,
            r.predicted_eff_bw,
            r.job.workload,
            r.execution_seconds,
            r.queue_wait_seconds,
            r.allocation_quality,
            r.scheduling_overhead.as_secs_f64() * 1e3,
            r.server,
        ));
    }
    if let Some(cache) = report.cache {
        out.push_str(&format!(
            "# cache: hits={} misses={} evictions={} hit_rate={:.4}\n",
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.hit_rate(),
        ));
    }
    for s in &report.shards {
        out.push_str(&format!(
            "# shard {}: machine={} gpus={} jobs={} util={:.4}\n",
            s.server, s.machine, s.gpu_count, s.jobs_completed, s.utilization,
        ));
    }
    out.push_str(&format!(
        "# queue: max_depth={} mean_depth={:.2} blocks={} frag_blocks={}\n",
        report.queue.max_depth,
        report.queue.mean_depth,
        report.queue.dispatch_blocks,
        report.queue.fragmentation_blocks,
    ));
    if let Some(d) = &report.dispatch {
        let depths: Vec<String> = d.max_queue_depths.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "# dispatch: mode={} migration={} queue_depth={} stolen={} rebalanced={} max_depths=({})\n",
            d.mode,
            d.migration,
            d.shard_queue_depth,
            d.jobs_stolen,
            d.jobs_rebalanced,
            depths.join(","),
        ));
    }
    if report.preemption.jobs_preempted > 0 {
        out.push_str(&format!(
            "# preemption: jobs={} gpu_seconds_lost={:.2} penalty_seconds={:.2}\n",
            report.preemption.jobs_preempted,
            report.preemption.gpu_seconds_lost,
            report.preemption.penalty_seconds_charged,
        ));
    }
    if report.gangs.gangs_dispatched > 0 {
        out.push_str(&format!(
            "# gangs: dispatched={} members={} total_wait={:.2} max_wait={:.2}\n",
            report.gangs.gangs_dispatched,
            report.gangs.members_dispatched,
            report.gangs.total_wait_seconds,
            report.gangs.max_wait_seconds,
        ));
    }
    if report.slo.jobs > 0 {
        out.push_str(&format!(
            "# slo: jobs={} met={} missed={} attainment={:.4} p95_latency_ms={:.3} p95_target_ms={:.3}\n",
            report.slo.jobs,
            report.slo.met,
            report.slo.missed,
            report.slo.attainment().expect("jobs > 0"),
            report.slo.p95_latency_ms,
            report.slo.p95_target_ms,
        ));
    }
    if let Some(fed) = &report.federation {
        out.push_str(&format!(
            "# federation: policy={} clusters={} spillovers={} quota_holds={} gangs_pinned={} gangs_spanned={}\n",
            fed.policy,
            fed.clusters.len(),
            fed.spillovers,
            fed.quota_holds,
            fed.gangs_pinned,
            fed.gangs_spanned,
        ));
        for c in &fed.clusters {
            out.push_str(&format!(
                "# cluster {}: machine={} servers={} gpus={} routed={} spill_ins={} jobs={} gpu_seconds={:.2}\n",
                c.cluster,
                c.label,
                c.servers,
                c.gpu_count,
                c.jobs_routed,
                c.spill_ins,
                c.jobs_completed,
                c.gpu_seconds,
            ));
        }
        for t in &fed.tenants {
            let quota = t
                .quota_gpus
                .map_or_else(|| "-".to_string(), |q| q.to_string());
            out.push_str(&format!(
                "# tenant {}: quota_gpus={} peak_gpus={} quota_holds={} jobs={} gpu_seconds={:.2}\n",
                t.tenant, quota, t.peak_gpus, t.quota_holds, t.jobs_completed, t.gpu_seconds,
            ));
        }
    }
    out
}

/// One parsed log line (the fields every format variant carries).
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Job id.
    pub id: u64,
    /// Allocated GPU ids.
    pub gpus: Vec<usize>,
    /// Application topology name as written.
    pub topology: String,
    /// Logged effective bandwidth (GB/s).
    pub eff_bw_gbps: f64,
}

/// Errors from log parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum LogParseError {
    /// A line had fewer than the 4 mandatory fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field description.
        field: &'static str,
    },
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogParseError::FieldCount { line } => {
                write!(f, "line {line}: expected at least 4 comma-separated fields")
            }
            LogParseError::BadField { line, field } => write!(f, "line {line}: bad {field}"),
        }
    }
}

impl std::error::Error for LogParseError {}

/// Parses a log file (paper-minimal or extended format). Comment lines
/// (`#`) and the header are skipped.
///
/// # Errors
/// Returns the first [`LogParseError`] encountered.
pub fn parse_log(input: &str) -> Result<Vec<LogEntry>, LogParseError> {
    let mut out = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("ID") {
            continue;
        }
        // The allocation field contains commas inside parentheses; split
        // on the parenthesized group first.
        let open = trimmed
            .find('(')
            .ok_or(LogParseError::FieldCount { line })?;
        let close = trimmed
            .find(')')
            .ok_or(LogParseError::FieldCount { line })?;
        if close < open {
            return Err(LogParseError::FieldCount { line });
        }
        let id: u64 = trimmed[..open]
            .trim()
            .trim_end_matches(',')
            .trim()
            .parse()
            .map_err(|_| LogParseError::BadField { line, field: "ID" })?;
        let gpus: Vec<usize> = trimmed[open + 1..close]
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| LogParseError::BadField {
                line,
                field: "Allocation",
            })?;
        let rest: Vec<&str> = trimmed[close + 1..]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if rest.len() < 2 {
            return Err(LogParseError::FieldCount { line });
        }
        let topology = rest[0].to_string();
        let eff_bw_gbps: f64 = rest[1].parse().map_err(|_| LogParseError::BadField {
            line,
            field: "Effective BW",
        })?;
        out.push(LogEntry {
            id,
            gpus,
            topology,
            eff_bw_gbps,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stats, Simulation};
    use mapa_core::policy::PreservePolicy;
    use mapa_topology::machines;
    use mapa_workloads::generator;

    #[test]
    fn parses_the_papers_own_example() {
        // Verbatim from Fig. 14.
        let text = "ID, Allocation, Topology, Effective BW (GBps)\n\
                    1, (1,2,3), Ring, 45\n\
                    2, (5,6,7,8), Ring, 48\n";
        let entries = parse_log(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, 1);
        assert_eq!(entries[0].gpus, vec![1, 2, 3]);
        assert_eq!(entries[0].topology, "Ring");
        assert_eq!(entries[1].eff_bw_gbps, 48.0);
    }

    #[test]
    fn roundtrip_through_simulation() {
        let jobs = generator::paper_job_mix(6);
        let report =
            Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..30]);
        let text = write_log(&report);
        let entries = parse_log(&text).unwrap();
        assert_eq!(entries.len(), 30);
        for (entry, record) in entries.iter().zip(&report.records) {
            assert_eq!(entry.id, record.job.id);
            assert_eq!(entry.gpus, record.gpus);
            assert!((entry.eff_bw_gbps - record.predicted_eff_bw).abs() < 0.01);
        }
        // The logged EffBW distribution matches the in-memory one.
        let from_log: Vec<f64> = entries.iter().map(|e| e.eff_bw_gbps).collect();
        let direct: Vec<f64> = report.records.iter().map(|r| r.predicted_eff_bw).collect();
        assert!((stats::summarize(&from_log).p50 - stats::summarize(&direct).p50).abs() < 0.01);
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            parse_log("1, 2, 3, 4"),
            Err(LogParseError::FieldCount { line: 1 })
        ));
        assert!(matches!(
            parse_log("x, (1,2), Ring, 45"),
            Err(LogParseError::BadField { field: "ID", .. })
        ));
        assert!(matches!(
            parse_log("1, (a,b), Ring, 45"),
            Err(LogParseError::BadField {
                field: "Allocation",
                ..
            })
        ));
        assert!(matches!(
            parse_log("1, (1,2), Ring, fast"),
            Err(LogParseError::BadField {
                field: "Effective BW",
                ..
            })
        ));
        assert!(matches!(
            parse_log("1, (1,2), Ring"),
            Err(LogParseError::FieldCount { line: 1 })
        ));
    }

    #[test]
    fn log_carries_scheduling_latency_and_cache_counters() {
        let jobs = generator::paper_job_mix(4);
        let report =
            Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..40]);
        let text = write_log(&report);
        assert!(text.contains("Sched (ms)"), "header gained the column");
        let cache = report.cache.expect("default run is cached");
        assert!(
            text.contains(&format!("# cache: hits={}", cache.hits)),
            "cache counters recorded in the log trailer"
        );
        assert!(
            text.contains("# shard 0: machine=DGX-1 V100"),
            "per-shard trailer recorded"
        );
        assert!(text.contains("# queue: max_depth="), "queue trailer");
        // The run at a glance leads the file.
        assert!(
            text.contains(&format!(
                "# run: jobs=40 makespan_s={:.2}",
                report.makespan_seconds
            )),
            "{text}"
        );
        for summary in ["# sensitive_exec_s: min=", "# sched_latency_ms: min="] {
            assert!(text.contains(summary), "{summary}: {text}");
        }
        let effbw = stats::summarize(&report.predicted_eff_bws(|r| r.job.num_gpus() >= 2));
        assert!(
            text.contains(&format!("# predicted_effbw_gbps: min={:.3}", effbw.min)),
            "{text}"
        );
        // Each record line carries latency and server: 10 fields.
        let record_line = text
            .lines()
            .find(|l| !l.starts_with('#') && !l.starts_with("ID"))
            .unwrap();
        assert_eq!(record_line.split(", ").count(), 10, "{record_line}");
        assert!(record_line.ends_with(", 0"), "single server logs shard 0");
        // Still parseable by the tolerant reader.
        assert_eq!(parse_log(&text).unwrap().len(), 40);
    }

    #[test]
    fn log_carries_the_dispatch_trailer_for_queued_clusters() {
        // Single-server reports have no dispatch layer — no trailer.
        let jobs = generator::paper_job_mix(7);
        let single =
            Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..10]);
        assert!(!write_log(&single).contains("# dispatch:"));
        // A report carrying dispatch statistics writes them.
        let mut report = single;
        report.dispatch = Some(crate::DispatchReport {
            mode: "parallel",
            migration: "steal-on-idle",
            shard_queue_depth: 8,
            jobs_stolen: 3,
            jobs_rebalanced: 0,
            max_queue_depths: vec![5, 2],
            dispatch_blocks: 4,
            fragmentation_blocks: 1,
        });
        let text = write_log(&report);
        assert!(
            text.contains(
                "# dispatch: mode=parallel migration=steal-on-idle queue_depth=8 \
                 stolen=3 rebalanced=0 max_depths=(5,2)"
            ),
            "{text}"
        );
        // Trailer stays invisible to the tolerant reader.
        assert_eq!(parse_log(&text).unwrap().len(), 10);
    }

    #[test]
    fn log_carries_preemption_and_gang_trailers_only_when_they_fired() {
        let jobs = generator::paper_job_mix(8);
        let report =
            Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..10]);
        let quiet = write_log(&report);
        assert!(!quiet.contains("# preemption:"), "no evictions, no line");
        assert!(!quiet.contains("# gangs:"), "no gangs, no line");
        let mut loud = report;
        loud.preemption = crate::PreemptionStats {
            jobs_preempted: 2,
            gpu_seconds_lost: 123.456,
            penalty_seconds_charged: 60.0,
        };
        loud.gangs = crate::GangStats {
            gangs_dispatched: 3,
            members_dispatched: 9,
            total_wait_seconds: 42.0,
            max_wait_seconds: 20.5,
        };
        let text = write_log(&loud);
        assert!(
            text.contains("# preemption: jobs=2 gpu_seconds_lost=123.46 penalty_seconds=60.00"),
            "{text}"
        );
        assert!(
            text.contains("# gangs: dispatched=3 members=9 total_wait=42.00 max_wait=20.50"),
            "{text}"
        );
        // Trailers stay invisible to the tolerant reader.
        assert_eq!(parse_log(&text).unwrap().len(), 10);
    }

    #[test]
    fn log_carries_the_slo_trailer_only_for_inference_mixes() {
        let training = generator::paper_job_mix(9);
        let quiet =
            Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&training[..10]);
        assert!(!write_log(&quiet).contains("# slo:"), "no tenants, no line");
        let mix = generator::generate_jobs(
            &generator::JobMixConfig {
                job_count: 20,
                inference_fraction: 0.5,
                ..Default::default()
            },
            9,
        );
        let report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&mix);
        let text = write_log(&report);
        assert!(
            text.contains(&format!(
                "# slo: jobs={} met={} missed={}",
                report.slo.jobs, report.slo.met, report.slo.missed
            )),
            "{text}"
        );
        assert!(text.contains("p95_latency_ms="), "{text}");
        // Trailer stays invisible to the tolerant reader.
        assert_eq!(parse_log(&text).unwrap().len(), 20);
    }

    #[test]
    fn log_carries_the_federation_trailer_only_for_federated_runs() {
        let jobs = generator::paper_job_mix(10);
        let report =
            Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..10]);
        assert!(
            !write_log(&report).contains("# federation:"),
            "bare backends log no federation trailer"
        );
        let mut fed = report;
        fed.federation = Some(crate::FederationReport {
            policy: "spillover",
            spillovers: 4,
            quota_holds: 2,
            gangs_pinned: 1,
            gangs_spanned: 0,
            clusters: vec![crate::FedClusterStats {
                cluster: 0,
                label: "2× DGX-1 V100".to_string(),
                first_server: 0,
                servers: 2,
                gpu_count: 16,
                jobs_routed: 10,
                spill_ins: 0,
                jobs_completed: 10,
                gpu_seconds: 1234.5,
            }],
            tenants: vec![crate::FedTenantStats {
                tenant: 7,
                quota_gpus: Some(8),
                peak_gpus: 6,
                quota_holds: 2,
                jobs_completed: 10,
                gpu_seconds: 1234.5,
            }],
        });
        let text = write_log(&fed);
        assert!(
            text.contains(
                "# federation: policy=spillover clusters=1 spillovers=4 quota_holds=2 \
                 gangs_pinned=1 gangs_spanned=0"
            ),
            "{text}"
        );
        assert!(
            text.contains("# cluster 0: machine=2× DGX-1 V100 servers=2 gpus=16 routed=10"),
            "{text}"
        );
        assert!(
            text.contains("# tenant 7: quota_gpus=8 peak_gpus=6 quota_holds=2 jobs=10"),
            "{text}"
        );
        // Trailers stay invisible to the tolerant reader.
        assert_eq!(parse_log(&text).unwrap().len(), 10);
    }

    #[test]
    fn comments_and_empty_lines_skipped() {
        let text = "# a comment\n\n1, (0,1), Tree, 25.5\n";
        let entries = parse_log(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].topology, "Tree");
    }

    /// Log-format tokens, well-formed and not: the header and comment
    /// markers, brackets out of order, numbers at and past `u64`, float
    /// spellings, line breaks, a non-ASCII character.
    const LOG_TOKENS: [&str; 24] = [
        "ID, Allocation, Topology, Effective BW (GBps)",
        "# ",
        "(",
        ")",
        ",",
        ", ",
        "(1,2,3)",
        "()",
        "0",
        "7",
        "-1",
        "18446744073709551616",
        "Ring",
        "45",
        "4.5e1",
        "nan",
        "-inf",
        "x",
        " ",
        "\n",
        "\n",
        "\r\n",
        "\t",
        "\u{e9}",
    ];

    /// A real log to splice the soup into.
    fn host_log() -> &'static str {
        static LOG: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        LOG.get_or_init(|| {
            let jobs = generator::paper_job_mix(6);
            let sim = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy));
            write_log(&sim.run(&jobs[..8]))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Soup of log tokens, alone or spliced into a `write_log` output,
        /// never panics the parser, and a refusal names a line of the input.
        #[test]
        fn parse_log_never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..LOG_TOKENS.len(), 0..40),
            hosted in proptest::prelude::any::<bool>(),
            at in 0usize..8192,
        ) {
            let mut input = if hosted { host_log().to_string() } else { String::new() };
            let mut at = at % (input.len() + 1);
            while !input.is_char_boundary(at) {
                at -= 1;
            }
            let soup: String = tokens.iter().map(|&t| LOG_TOKENS[t]).collect();
            input.insert_str(at, &soup);
            if let Err(error) = parse_log(&input) {
                let (LogParseError::FieldCount { line } | LogParseError::BadField { line, .. }) =
                    error;
                let lines = input.lines().count();
                proptest::prop_assert!((1..=lines).contains(&line), "{error} of {lines}: {input:?}");
            }
        }
    }
}
