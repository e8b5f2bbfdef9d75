//! The per-layer metrics of a traced repetition: what the span counters
//! say about the seams, what a replay of the run's recorded inputs through
//! the layers' public functions costs, and a few stand-alone probes. Each
//! probe runs with the one workload it explains; a workload that does not
//! exercise a layer reports 0 for that layer's metrics.

use crate::registry::{per_layer, Workload};
use crate::stats::percentile;
use crate::trace::{Counters, Kind, Tracer};
use crate::workloads::{
    churn_allocator, churn_loop, churn_requests, federation, federation_config,
    federation_submissions, fleet_cluster, fleet_jobs, ChurnLog, RepCtx, SplitMix64, Timing,
    FED_MEAN_GAP,
};
use mapa::campaign::CampaignGrid;
use mapa::cluster::{DispatchMode, Federation, SpilloverPolicy};
use mapa::core::policy::{BaselinePolicy, GreedyPolicy};
use mapa::core::scoring::MatchScore;
use mapa::core::{fragmentation, CacheStats, MapaAllocator};
use mapa::interconnect::effbw;
use mapa::isomorph::WorkerPool;
use mapa::model::{corpus, EffBwModel};
use mapa::sim::queue::CalendarQueue;
use mapa::sim::{
    Engine, Placement, SchedulerBackend, SimConfig, SimReport, SingleServer, Submission,
};
use mapa::topology::{machines, LinkMix, Topology};
use mapa::workloads::{perf, JobSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric at 0; the functions below overwrite what their
/// workload measures.
fn zeroed() -> BTreeMap<String, f64> {
    per_layer().into_iter().map(|m| (m.name, 0.0)).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us_per(ns: u64, n: f64) -> f64 {
    ns as f64 / 1e3 / n
}

struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        *slot = value;
    }

    fn set_cache(&mut self, cache: Option<CacheStats>) {
        let c = cache.unwrap_or_default();
        self.set("mapa-core.cache.hits", c.hits as f64);
        self.set("mapa-core.cache.misses", c.misses as f64);
        self.set("mapa-core.cache.evictions", c.evictions as f64);
        self.set("mapa-core.cache.hit_rate", c.hit_rate());
    }

    fn set_select(&mut self, select: Counters, per: f64) {
        self.set("mapa-core.policy.select.calls", select.calls as f64);
        self.set(
            "mapa-core.policy.select.busy_us_per_job",
            us_per(select.busy_ns, per),
        );
        self.set(
            "mapa-core.policy.select.none_ratio",
            ratio(select.empty, select.calls),
        );
    }

    fn set_common(&mut self, timing: &Timing, gen_us_per_job: f64, machine: &Topology) {
        self.set("runqueue_wait_pct", timing.runq_wait_pct);
        self.set("host.yardstick_ms", timing.yardstick_ms);
        // What the pool and the campaign probes had to run on.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.set("host.cpus", cpus as f64);
        self.set("mapa-workloads.generator.gen_us_per_job", gen_us_per_job);
        let fit = Instant::now();
        let max_fit = machine.gpu_count().min(5);
        black_box(EffBwModel::fit(&corpus::build_corpus(machine, 2..=max_fit)).is_ok());
        self.set("mapa-model.fit_ms", fit.elapsed().as_secs_f64() * 1e3);
    }
}

/// Per-layer metrics of a traced engine repetition.
pub fn engine_layers(
    ctx: &RepCtx,
    tracer: &Tracer,
    report: &SimReport,
    machine: &Topology,
    timing: &Timing,
    gen_s: f64,
) -> BTreeMap<String, f64> {
    let mut m = Layers(zeroed());
    let jobs = report.records.len().max(1) as f64;

    for kind in Kind::BACKEND {
        let c = tracer.counters(kind);
        m.set(&format!("{}.calls", kind.name()), c.calls as f64);
        m.set(
            &format!("{}.busy_us_per_job", kind.name()),
            us_per(c.busy_ns, jobs),
        );
    }
    let try_place = tracer.counters(Kind::TryPlace);
    let pump = tracer.counters(Kind::Pump);
    let preempt = tracer.counters(Kind::PreemptBlocked);
    m.set(
        "backend.try_place.placed_ratio",
        ratio(try_place.useful, try_place.calls),
    );
    m.set(
        "backend.pump.dispatched_per_call",
        ratio(pump.useful, pump.calls),
    );
    m.set("backend.pump.empty_ratio", ratio(pump.empty, pump.calls));
    m.set(
        "backend.preempt_blocked.evictions_per_call",
        ratio(preempt.useful, preempt.calls),
    );

    // Engine self time = the run span minus the backend spans it covers,
    // split by replaying the per-start model calls `Engine::start_job`
    // makes on every record's (workload, GPUs).
    let self_us = us_per(tracer.counters(Kind::EngineRun).self_ns, jobs);
    let (effbw_s, measure_s, quality_s) = replay_start_model(report, machine);
    let model_us = (effbw_s + measure_s + quality_s) * 1e6 / jobs;
    m.set("mapa-sim.engine.self_us_per_job", self_us);
    m.set("mapa-sim.engine.start_model_us_per_job", model_us);
    m.set("mapa-sim.engine.loop_us_per_job", self_us - model_us);
    m.set(
        "mapa-workloads.perf.workload_effbw_us",
        effbw_s * 1e6 / jobs,
    );
    m.set("mapa-interconnect.effbw.measure_us", measure_s * 1e6 / jobs);
    m.set("mapa-core.fragmentation.quality_us", quality_s * 1e6 / jobs);

    let select = tracer.counters(Kind::PolicySelect);
    m.set_select(select, jobs);
    m.set_cache(report.cache);
    if report.shards.len() == 1 {
        m.set(
            "mapa-core.allocator.self_us_per_decision",
            us_per(
                try_place.busy_ns.saturating_sub(select.busy_ns),
                try_place.useful.max(1) as f64,
            ),
        );
    }

    let waits: f64 = report.records.iter().map(|r| r.queue_wait_seconds).sum();
    m.set("mapa-sim.report.wait_mean_s", waits / jobs);
    m.set("mapa-sim.report.makespan_s", report.makespan_seconds);
    if let Some(d) = &report.dispatch {
        m.set(
            "mapa-cluster.cluster.migrations",
            (d.jobs_stolen + d.jobs_rebalanced) as f64,
        );
        m.set("mapa-cluster.cluster.steals", d.jobs_stolen as f64);
        m.set(
            "mapa-cluster.cluster.queue_high_water",
            d.max_queue_depths.iter().copied().max().unwrap_or(0) as f64,
        );
    }
    if let Some(f) = &report.federation {
        m.set("mapa-cluster.federation.quota_holds", f.quota_holds as f64);
        m.set("mapa-cluster.federation.spillovers", f.spillovers as f64);
        m.set(
            "mapa-cluster.federation.gangs_pinned",
            f.gangs_pinned as f64,
        );
        m.set(
            "mapa-cluster.federation.gangs_spanned",
            f.gangs_spanned as f64,
        );
    }
    m.set_common(timing, gen_s * 1e6 / jobs, machine);

    let shrink = if ctx.quick { 10 } else { 1 };
    match ctx.workload {
        Workload::FleetWide => {
            ladder(&mut m, 150_000 / shrink, ctx.seed);
            m.set(
                "mapa-sim.queue.calendar_ns_per_event",
                calendar_ns_per_event(500_000 / shrink),
            );
        }
        Workload::PaperServer => campaign_probes(&mut m, shrink, ctx.seed),
        Workload::FederationTenants => federation_probes(&mut m, shrink, ctx.seed),
        _ => {}
    }
    m.0
}

/// Seconds spent in each of the three model calls `Engine::start_job`
/// makes per started job, replayed over the run's records:
/// `(perf::workload_effbw, effbw::measure, fragmentation::allocation_quality)`.
/// Each is the faster of two passes: the figure is subtracted from a span
/// measured seconds earlier, and this host's speed drifts in between.
fn replay_start_model(report: &SimReport, machine: &Topology) -> (f64, f64, f64) {
    let time = |f: &dyn Fn(&mapa::sim::JobRecord) -> f64| {
        let pass = || {
            let start = Instant::now();
            for r in &report.records {
                black_box(f(r));
            }
            start.elapsed().as_secs_f64()
        };
        pass().min(pass())
    };
    (
        time(&|r| perf::workload_effbw(r.job.workload, machine, &r.gpus)),
        time(&|r| effbw::measure(machine, &r.gpus)),
        time(&|r| fragmentation::allocation_quality(machine, &r.gpus)),
    )
}

/// A backend that places in O(1): bounded only by a count of running
/// jobs, GPUs `0..n` every time. What remains is the engine's own loop
/// plus the per-start model on the same allocation shapes the real
/// backends produce.
struct NullBackend {
    topology: Topology,
    running: usize,
}

const NULL_CAPACITY: usize = 64;

impl SchedulerBackend for NullBackend {
    fn label(&self) -> String {
        "null-backend".to_string()
    }
    fn policy_label(&self) -> String {
        "null".to_string()
    }
    fn server_count(&self) -> usize {
        1
    }
    fn server_topology(&self, _server: usize) -> &Topology {
        &self.topology
    }
    fn server_cache_stats(&self, _server: usize) -> Option<CacheStats> {
        None
    }
    fn max_job_gpus(&self) -> usize {
        self.topology.gpu_count()
    }
    fn total_free_gpus(&self) -> usize {
        NULL_CAPACITY - self.running
    }
    fn configure(&mut self, _config: &SimConfig) {}
    fn try_place(&mut self, job: &JobSpec) -> Option<Placement> {
        if self.running == NULL_CAPACITY {
            return None;
        }
        self.running += 1;
        Some(Placement {
            server: 0,
            gpus: (0..job.num_gpus()).collect(),
            score: MatchScore {
                aggregated_bw: 0.0,
                predicted_eff_bw: 0.0,
                preserved_bw: 0.0,
                link_mix: LinkMix::default(),
            },
            scheduling_overhead: Duration::ZERO,
        })
    }
    fn release(&mut self, _server: usize, _job: u64) {
        self.running -= 1;
    }
}

/// Microseconds per job of `jobs` through `backend`.
fn ladder_row<B: SchedulerBackend>(backend: B, jobs: &[JobSpec]) -> f64 {
    let subs: Vec<Submission> = jobs.iter().cloned().map(Submission::Job).collect();
    let start = Instant::now();
    let report = Engine::over(backend).run_submissions(subs);
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(report.records.len(), jobs.len(), "ladder row lost jobs");
    wall * 1e6 / jobs.len() as f64
}

/// The stack-depth ladder: the `fleet_wide` stream through ever deeper
/// backends; adjacent rows differ by one layer.
fn ladder(m: &mut Layers, n: usize, seed: u64) {
    let jobs = fleet_jobs(n, seed);
    let dgx = machines::dgx1_v100;
    m.set(
        "ladder.null_backend",
        ladder_row(
            NullBackend {
                topology: dgx(),
                running: 0,
            },
            &jobs,
        ),
    );
    m.set(
        "ladder.single_server",
        ladder_row(SingleServer::new(dgx(), Box::new(BaselinePolicy)), &jobs),
    );
    m.set(
        "ladder.cluster1_global",
        ladder_row(fleet_cluster(1, false, None), &jobs),
    );
    for (name, shards) in [
        ("ladder.cluster1_queued", 1),
        ("ladder.cluster8_queued", 8),
        ("ladder.cluster64_queued", 64),
    ] {
        m.set(name, ladder_row(fleet_cluster(shards, true, None), &jobs));
    }
    let fed = ladder_row(
        Federation::new(
            vec![fleet_cluster(64, true, None)],
            Box::new(SpilloverPolicy),
        ),
        &jobs,
    );
    m.set("ladder.federation1x64_queued", fed);
    m.set(
        "mapa-cluster.federation.self_us_per_job",
        fed - m.0["ladder.cluster64_queued"],
    );
}

/// Nanoseconds per pop+push pair of the engine's `CalendarQueue` holding
/// a standing population of 50 k events.
fn calendar_ns_per_event(events: usize) -> f64 {
    const POPULATION: usize = 50_000;
    let mut rng = SplitMix64(0x5eed_cafe);
    let mut delta = move || (rng.next() % 2000) as f64 * 0.37;
    let mut queue: CalendarQueue<u64> = CalendarQueue::default();
    for i in 0..POPULATION {
        queue.push(delta(), i as u64);
    }
    let start = Instant::now();
    for i in 0..events {
        let ev = queue.pop().expect("population is standing");
        queue.push(ev.time + delta(), black_box(ev.payload) + i as u64);
    }
    start.elapsed().as_nanos() as f64 / events as f64
}

/// Wall seconds of the federation over `subs`, untraced.
fn federation_wall(dispatch: DispatchMode, config: SimConfig, subs: Vec<Submission>) -> f64 {
    let engine = Engine::over(federation(dispatch, None)).with_config(config);
    let start = Instant::now();
    black_box(engine.run_submissions(subs).records.len());
    start.elapsed().as_secs_f64()
}

fn federation_probes(m: &mut Layers, shrink: usize, seed: u64) {
    // Parallel shard dispatch against sequential on one slice. Known
    // noisy and, on a 2-core host, slower; informational.
    let slice = federation_submissions(5_000 / shrink, seed);
    let config = || federation_config(FED_MEAN_GAP, seed);
    let sequential = federation_wall(DispatchMode::Sequential, config(), slice.clone());
    let parallel = federation_wall(DispatchMode::Parallel, config(), slice);
    m.set(
        "mapa-cluster.cluster.parallel_over_sequential",
        parallel / sequential,
    );
    // Ten times the arrival rate: the backlog grows without bound and
    // per-job cost with it (the super-linear regime).
    let n = 10_000 / shrink;
    let backlog = federation_wall(
        DispatchMode::Sequential,
        federation_config(FED_MEAN_GAP / 10.0, seed),
        federation_submissions(n, seed),
    );
    m.set(
        "mapa-cluster.federation.backlog_us_per_job",
        backlog * 1e6 / n as f64,
    );
}

/// The campaign runner and the worker pool under it, on the machine and
/// job mix of `paper_server`: a grid of round-robin × {baseline, preserve}
/// × {2, 4} shards, batch arrivals, 10 replications × 2 000 jobs, at one
/// and at two pool workers. Takes policy names, so there is no seam to
/// wrap; the only probes that run more than one thread.
fn campaign_probes(m: &mut Layers, shrink: usize, seed: u64) {
    let mut grid = CampaignGrid::new(machines::dgx1_v100());
    grid.server_policies = vec!["round-robin".into()];
    grid.alloc_policies = vec!["baseline".into(), "preserve".into()];
    grid.shards = vec![2, 4];
    grid.job_counts = vec![2_000];
    grid.replications = 10 / shrink;
    grid.base_seed = seed;
    let wall = |workers: usize| {
        let pool = Arc::new(WorkerPool::new(workers));
        let start = Instant::now();
        black_box(grid.run(&pool).expect("built-in policies").len());
        start.elapsed().as_secs_f64()
    };
    let (one, two) = (wall(1), wall(2));
    m.set(
        "mapa-sim.campaign.cells_per_sec",
        grid.cells().len() as f64 / two,
    );
    m.set("mapa-sim.campaign.workers_speedup", one / two);

    // Round trip of an empty two-task batch through a two-thread pool.
    let pool = WorkerPool::new(2);
    const ROUNDS: usize = 2_000;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        black_box(pool.scatter(vec![|| 0u8, || 0u8]));
    }
    m.set(
        "mapa-isomorph.pool.scatter_us",
        start.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
    );
}

/// Per-layer metrics of a traced `alloc_churn` repetition.
pub fn churn_layers(
    ctx: &RepCtx,
    tracer: &Tracer,
    allocator: &MapaAllocator,
    log: &ChurnLog,
    timing: &Timing,
    gen_s: f64,
) -> BTreeMap<String, f64> {
    let mut m = Layers(zeroed());
    let decisions = log.decisions_ns.len().max(1) as f64;
    let allocate = tracer.counters(Kind::TryAllocate);
    let release = tracer.counters(Kind::AllocRelease);
    let select = tracer.counters(Kind::PolicySelect);
    m.set_select(select, decisions);
    m.set_cache(allocator.cache_stats());
    m.set(
        "mapa-core.allocator.self_us_per_decision",
        us_per(allocate.self_ns, allocate.calls.max(1) as f64),
    );
    m.set(
        "mapa-core.allocator.release_ns",
        ratio(release.busy_ns, release.calls),
    );
    m.set_common(timing, gen_s * 1e6 / decisions, allocator.topology());

    // GreedyPolicy is the one policy that streams embeddings through
    // `Matcher::find_with_frozen`; the default never reaches the matcher.
    let ops = 1_500 / if ctx.quick { 10 } else { 1 };
    let requests = churn_requests(ops, ctx.seed);
    let mut greedy = churn_allocator(Box::new(GreedyPolicy));
    let mut ns = churn_loop(&mut greedy, &requests, None).decisions_ns;
    ns.sort_unstable();
    m.set(
        "mapa-isomorph.matcher.greedy_us_per_decision",
        ns.iter().sum::<u64>() as f64 / 1e3 / ns.len() as f64,
    );
    m.set(
        "mapa-isomorph.matcher.greedy_p99_us",
        percentile(&ns, 99.0) as f64 / 1e3,
    );
    m.0
}
