//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is `manifest()` verbatim (a unit test pins it), so the file and the
//! harness cannot drift apart.

use crate::trace::Kind;
use mapa::report::json_escape;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetWide,
    PaperServer,
    Cube16Server,
    FederationTenants,
    AllocChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FleetWide,
        Workload::PaperServer,
        Workload::Cube16Server,
        Workload::FederationTenants,
        Workload::AllocChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetWide => "fleet_wide",
            Workload::PaperServer => "paper_server",
            Workload::Cube16Server => "cube16_server",
            Workload::FederationTenants => "federation_tenants",
            Workload::AllocChurn => "alloc_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetWide => {
                "64 queued DGX-1 shards, 1-2 GPU jobs, baseline policy: engine admit/pump protocol \
                 and ShardQueues do the work, the allocator almost none"
            }
            Workload::PaperServer => {
                "the paper's setting (one DGX-1 V100, Preserve, 1-5 GPU mix): engine global FIFO + \
                 try_place protocol and the allocator's cache-hit path"
            }
            Workload::Cube16Server => {
                "16-GPU cube-mesh, 1-8 GPU mix: occupancy states exceed the cache, decisions are \
                 work-bound and the per-start interconnect model dominates"
            }
            Workload::FederationTenants => {
                "4x8 DGX-1 federation at ~85% Poisson load: quotas, DRF re-admission, gangs, \
                 preemption, best-score peeks and work stealing at once"
            }
            Workload::AllocChurn => {
                "no engine: one cached MapaAllocator on the cube-mesh under release/allocate churn, \
                 each try_allocate timed from outside (Fig. 19 protocol)"
            }
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a run's repetitions become the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// The quartile on the metric's better side (`stats::fast_quartile`),
    /// for host times: other tenants of the host only ever slow a
    /// repetition down, for seconds at a stretch, so the fast quartile
    /// stays put where the median follows the neighbours.
    FastQuartile,
    /// For values the host's load does not move.
    Median,
}

/// An end-to-end metric: every workload reports it, untraced, and a later
/// change may worsen it by at most `bound` (a share).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub reduce: Reduce,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    reduce: Reduce,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        reduce,
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end(
        "jobs_per_sec",
        "1/s",
        Better::Higher,
        0.25,
        Reduce::FastQuartile,
    ),
    end_to_end(
        "cpu_us_per_job",
        "us",
        Better::Lower,
        0.25,
        Reduce::FastQuartile,
    ),
    end_to_end(
        "decision_p50_us",
        "us",
        Better::Lower,
        0.25,
        Reduce::FastQuartile,
    ),
    end_to_end("setup_s", "s", Better::Lower, 0.25, Reduce::FastQuartile),
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.15, Reduce::Median),
    end_to_end(
        "sim_exec_mean_s",
        "sim_s",
        Better::Lower,
        0.10,
        Reduce::Median,
    ),
];

/// A per-layer metric: reported by the traced pass, no bound. A workload
/// that does not exercise a layer reports 0 for its metrics.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better });
    };
    for kind in Kind::BACKEND {
        add(format!("{}.calls", kind.name()), "count", Lower);
        add(format!("{}.busy_us_per_job", kind.name()), "us", Lower);
    }
    for (name, unit, better) in [
        ("backend.try_place.placed_ratio", "ratio", Higher),
        ("backend.pump.dispatched_per_call", "count", Higher),
        ("backend.pump.empty_ratio", "ratio", Lower),
        (
            "backend.preempt_blocked.evictions_per_call",
            "count",
            Higher,
        ),
        ("mapa-sim.engine.self_us_per_job", "us", Lower),
        ("mapa-sim.engine.start_model_us_per_job", "us", Lower),
        ("mapa-sim.engine.loop_us_per_job", "us", Lower),
        ("mapa-workloads.perf.workload_effbw_us", "us", Lower),
        ("mapa-interconnect.effbw.measure_us", "us", Lower),
        ("mapa-core.fragmentation.quality_us", "us", Lower),
        ("mapa-sim.queue.calendar_ns_per_event", "ns", Lower),
        ("mapa-sim.report.exec_p75_s", "sim_s", Lower),
        ("mapa-sim.report.wait_mean_s", "sim_s", Lower),
        ("mapa-sim.report.makespan_s", "sim_s", Lower),
        ("mapa-core.policy.select.calls", "count", Lower),
        ("mapa-core.policy.select.busy_us_per_job", "us", Lower),
        ("mapa-core.policy.select.none_ratio", "ratio", Lower),
        ("mapa-core.cache.hits", "count", Higher),
        ("mapa-core.cache.misses", "count", Lower),
        ("mapa-core.cache.evictions", "count", Lower),
        ("mapa-core.cache.hit_rate", "ratio", Higher),
        ("mapa-core.allocator.self_us_per_decision", "us", Lower),
        ("mapa-core.allocator.decision_p99_us", "us", Lower),
        ("mapa-core.allocator.release_ns", "ns", Lower),
        ("mapa-isomorph.matcher.greedy_us_per_decision", "us", Lower),
        ("mapa-isomorph.matcher.greedy_p99_us", "us", Lower),
        ("mapa-isomorph.pool.scatter_us", "us", Lower),
        ("mapa-cluster.cluster.migrations", "count", Lower),
        ("mapa-cluster.cluster.steals", "count", Lower),
        ("mapa-cluster.cluster.queue_high_water", "count", Lower),
        (
            "mapa-cluster.cluster.parallel_over_sequential",
            "ratio",
            Lower,
        ),
        ("mapa-cluster.federation.quota_holds", "count", Lower),
        ("mapa-cluster.federation.spillovers", "count", Lower),
        ("mapa-cluster.federation.gangs_pinned", "count", Higher),
        ("mapa-cluster.federation.gangs_spanned", "count", Lower),
        ("mapa-cluster.federation.backlog_us_per_job", "us", Lower),
        ("mapa-cluster.federation.self_us_per_job", "us", Lower),
        ("ladder.null_backend", "us", Lower),
        ("ladder.single_server", "us", Lower),
        ("ladder.cluster1_global", "us", Lower),
        ("ladder.cluster1_queued", "us", Lower),
        ("ladder.cluster8_queued", "us", Lower),
        ("ladder.cluster64_queued", "us", Lower),
        ("ladder.federation1x64_queued", "us", Lower),
        ("mapa-sim.campaign.cells_per_sec", "1/s", Higher),
        ("mapa-sim.campaign.workers_speedup", "ratio", Higher),
        ("mapa-workloads.generator.gen_us_per_job", "us", Lower),
        ("mapa-model.fit_ms", "ms", Lower),
        ("trace_overhead_pct", "%", Lower),
        ("runqueue_wait_pct", "%", Lower),
        ("host.yardstick_ms", "ms", Lower),
        ("host.cpus", "count", Higher),
    ] {
        add(name.to_string(), unit, better);
    }
    out
}

/// Unit of every metric, end-to-end and per-layer, by name.
pub fn units() -> std::collections::BTreeMap<String, &'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect()
}

/// How long one contract run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                json_escape(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_obey_the_manifest_limits() {
        let mut seen = HashSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(per_layer().into_iter().map(|m| m.name));
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(per_layer().len() <= 128);
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
        mapa::report::parse_json(&committed).expect("manifest is valid JSON");
    }
}
